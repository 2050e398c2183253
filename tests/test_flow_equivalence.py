"""The netflow reader and rule counting behind ``FlowRecord`` against the
rules counted one by one and the CLI's former reader (``conftest``)."""

import ipaddress
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLI_FLOW_COLUMNS, check_invariants_by_hand, cmd_flowcheck_oracle
from tabmt.cli import CliError, main
from tabmt.flowcheck import (COLUMNS, DNS_BYTES_PER_PACKET, MAX_FRAME_BYTES, MIN_FRAME_BYTES,
                             PROTOCOLS, FlowError, FlowRecord, check_invariants, read_flows)
from test_flowcheck import flow

HEADER = "timestamp,src_ip,dst_ip,protocol,src_port,dst_port,duration,bytes,packets,flags,tos"
GOOD = "2023-01-02 13:05:07.250,192.168.1.5,192.168.1.9,UDP,5000,6000,0.5,420,10,........,0"
ICMP_FLAGGED = "2023-01-02 13:05:08.000,192.168.1.5,192.168.1.9,ICMP,0,0,0.5,420,10,...A..S.,0"

PRIVATE_IPS = ["192.168.1.5", "10.0.0.7", "172.16.4.2", "fd00::1"]
PUBLIC_IPS = ["8.8.8.8", "1.1.1.1", "2001:4860:4860::8888"]
ips = st.one_of(st.sampled_from(PRIVATE_IPS + PUBLIC_IPS),
                st.integers(0, 2**32 - 1).map(lambda n: str(ipaddress.IPv4Address(n))))
ports = st.one_of(st.sampled_from([53, 80, 137, 139, 443]), st.integers(0, 65535))
flag_strings = st.sampled_from(["", "........", ".- .", "...A..S.", "SF"])


@st.composite
def flows(draw) -> FlowRecord:
    packets = draw(st.integers(1, 40))
    bound = draw(st.sampled_from([MIN_FRAME_BYTES, DNS_BYTES_PER_PACKET, MAX_FRAME_BYTES]))
    nbytes = draw(st.one_of(st.sampled_from([bound * packets + d for d in (-1, 0, 1)]),
                            st.integers(1, MAX_FRAME_BYTES * packets + 100)))
    return FlowRecord(weekday=draw(st.integers(0, 6)), hour=draw(st.integers(0, 23)),
                      minute=draw(st.integers(0, 59)), second=draw(st.integers(0, 59)),
                      millisecond=draw(st.integers(0, 999)), src_ip=draw(ips),
                      dst_ip=draw(ips), protocol=draw(st.sampled_from(PROTOCOLS)),
                      src_port=draw(ports), dst_port=draw(ports),
                      duration=draw(st.floats(0, 1e4)), bytes=nbytes, packets=packets,
                      flags=draw(flag_strings), tos=draw(st.integers(0, 255)))


vocabs = st.one_of(st.none(), st.fixed_dictionaries({}, optional={
    "protocol": st.sets(st.sampled_from(PROTOCOLS)),
    "dst_port": st.sets(ports, max_size=4),
    "flags": st.sets(flag_strings, max_size=3),
}))


def assert_same_report(records, vocab=None):
    new = check_invariants(records, vocab).to_json()
    old = check_invariants_by_hand(records, vocab).to_json()
    assert new == old
    assert json.dumps(new) == json.dumps(old)


@settings(max_examples=300, deadline=None)
@given(st.lists(flows(), max_size=25), vocabs)
def test_reports_match_rules_counted_by_hand(records, vocab):
    assert_same_report(records, vocab)


# The record lists of test_flowcheck.py and of criterion 11's planted rates,
# whose ``flow`` has the same base record.
FIXTURES = {
    "valid": [flow(src_port=5000 + i) for i in range(10)] + [
        flow(protocol="TCP", dst_port=443, flags="...AP.SF", src_ip=f"10.0.0.{i + 1}",
             dst_ip="8.8.8.8") for i in range(10)],
    "icmp_flags": [flow(protocol="ICMP", flags="...A..S.", src_port=0, dst_port=0)]
                  + [flow(src_port=5000 + i) for i in range(9)],
    "public_ips": [flow(src_ip="8.8.8.8", dst_ip="1.1.1.1")] + [flow()] * 4,
    "udp_port_80": [flow(dst_port=80)],
    "dns_over_icmp": [flow(protocol="ICMP", dst_port=53, src_port=0)],
    "dns_payload": [flow(protocol="TCP", dst_port=53, flags="...A...F", bytes=512 * 10 + d,
                         packets=10) for d in (0, 1)],
    "netbios_public": [flow(dst_port=137, dst_ip="8.8.8.8")],
    "packet_ratios": [flow(bytes=42 * 10 - 1, packets=10), flow(bytes=65535, packets=1)],
    "vocab": [flow(protocol="UDP"), flow(protocol="TCP", dst_port=8080, flags="....A..F")],
    "criterion_11": [flow() for _ in range(16)] + [
        flow(protocol="ICMP", flags="...A..S.", src_port=0, dst_port=0),
        flow(src_ip="8.8.8.8", dst_ip="1.1.1.1"), flow(dst_port=80),
        flow(bytes=65535 * 10 + 1, packets=10)],
}


@pytest.mark.parametrize("vocab", [None, {"protocol": {"UDP"}}], ids=["no_vocab", "vocab"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_reports_match(name, vocab):
    assert_same_report(FIXTURES[name], vocab)


def test_columns_are_the_cli_header():
    assert ",".join(COLUMNS) == HEADER
    assert list(COLUMNS) == CLI_FLOW_COLUMNS


@pytest.mark.parametrize("column", ["src_ip", "dst_ip"])
def test_malformed_ip_fails_at_construction(column):
    with pytest.raises(FlowError, match=f"bad value '10.0.0.300' in column '{column}'"):
        flow(**{column: "10.0.0.300"})


def test_cli_report_bytes_match_oracle(tmp_path, capsys):
    data = tmp_path / "flows.csv"
    data.write_text("\n".join([HEADER] + [GOOD] * 9 + [ICMP_FLAGGED]) + "\n")
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    assert main(["flowcheck", "--data", str(data), "--report", str(new)]) == 0
    assert cmd_flowcheck_oracle(SimpleNamespace(data=str(data), report=str(old))) == 0
    printed = capsys.readouterr().out.splitlines()
    assert new.read_bytes() == old.read_bytes()
    assert printed[0].replace(str(new), "R") == printed[1].replace(str(old), "R")


def oracle_error(data) -> Exception:
    with pytest.raises(ValueError) as info:
        cmd_flowcheck_oracle(SimpleNamespace(data=str(data), report=str(data) + ".json"))
    return info.value


@pytest.mark.parametrize("row", [
    "2023-01-02 13:05:07.250,192.168.1.5,192.168.1.9,UDP,5000",
    "2023-01-02 13:05:07.250,192.168.1.5,192.168.1.9,UDP,abc,6000,0.5,420,10,.,0",
    "2023-01-02 13:05:07.250,192.168.1.5,192.168.1.9,UDP,5000,6000,x,420,10,.,0",
    "2023-01-02 13:05:07.250,192.168.1.5,10.0.0.300,UDP,5000,6000,0.5,420,10,.,0",
    "2023-01-02 13:05:61,192.168.1.5,192.168.1.9,UDP,5000,6000,0.5,420,10,.,0",
    "2023-01-02 13:05:07.250,192.168.1.5,192.168.1.9,SCTP,5000,6000,0.5,420,10,.,0",
    "2023-01-02 13:05:07.250,192.168.1.5,192.168.1.9,UDP,5000,6000,0.5,0,10,.,0",
], ids=["short_row", "int_column", "float_column", "ip_column", "timestamp", "protocol",
        "zero_bytes"])
def test_single_fault_message_matches_oracle(tmp_path, row):
    data = tmp_path / "flows.csv"
    data.write_text("\n".join([HEADER, GOOD, row, GOOD]) + "\n")
    old = oracle_error(data)
    with pytest.raises(FlowError) as new:
        read_flows(str(data))
    assert type(old) is FlowError
    assert str(new.value) == str(old)


def test_missing_columns_message_matches_oracle(tmp_path):
    data = tmp_path / "short.csv"
    data.write_text("timestamp,src_ip\nx,y\n")
    old = oracle_error(data)
    with pytest.raises(FlowError) as new:
        read_flows(str(data))
    # The reader's one error class; the CLI's copy raised its own.
    assert type(old) is CliError
    assert str(new.value) == str(old)


def test_ip_and_later_fault_names_the_later_cell(tmp_path):
    """IPs are checked when the record is built, after every cell parses."""
    data = tmp_path / "flows.csv"
    data.write_text(HEADER + "\n2023-01-02 13:05:07.250,192.168.1.5,10.0.0.300,UDP,abc,"
                    "6000,0.5,420,10,.,0\n")
    assert "column 'dst_ip'" in str(oracle_error(data))
    with pytest.raises(FlowError, match="line 2: bad value 'abc' in column 'src_port'"):
        read_flows(str(data))
