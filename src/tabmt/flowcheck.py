"""Netflow records, their CSV reader, timestamp decomposition and
structural invariant checks.

The seven rules below are concrete stand-in formulations of common
netflow sanity checks; violation rates are exact counts over the
applicable records for each rule.
"""

from __future__ import annotations

import csv
import ipaddress
from dataclasses import dataclass, field, fields
from datetime import datetime
from typing import get_type_hints

PROTOCOLS = ("TCP", "UDP", "ICMP", "IGMP", "other")

WELL_KNOWN_TCP_PORTS = frozenset({80, 443, 22, 21, 25})
NETBIOS_PORTS = frozenset({137, 138, 139})
MIN_FRAME_BYTES = 42
MAX_FRAME_BYTES = 65535
DNS_BYTES_PER_PACKET = 512  # payload bound of the dns rule's TCP case

RULES = (
    "tcp_flags",
    "private_ips",
    "tcp_port",
    "dns",
    "valid_values",
    "netbios",
    "packet_ratios",
)


class FlowError(ValueError):
    pass


@dataclass(frozen=True)
class FlowRecord:
    weekday: int
    hour: int
    minute: int
    second: int
    millisecond: int
    src_ip: str
    dst_ip: str
    protocol: str
    src_port: int
    dst_port: int
    duration: float
    bytes: int
    packets: int
    flags: str
    tos: int = 0

    def __post_init__(self):
        bounds = (("weekday", 7), ("hour", 24), ("minute", 60),
                  ("second", 60), ("millisecond", 1000))
        for name, limit in bounds:
            v = getattr(self, name)
            if not 0 <= v < limit:
                raise FlowError(f"{name}={v} outside 0..{limit - 1}")
        for name in ("src_ip", "dst_ip"):
            v = getattr(self, name)
            try:
                ipaddress.ip_address(v)
            except ValueError:
                raise FlowError(f"bad value {v!r} in column {name!r}") from None
        if self.protocol not in PROTOCOLS:
            raise FlowError(f"unknown protocol {self.protocol!r}")
        for name in ("src_port", "dst_port"):
            v = getattr(self, name)
            if not 0 <= v <= 65535:
                raise FlowError(f"{name}={v} outside 0..65535")
        if self.duration < 0:
            raise FlowError("duration must be non-negative")
        if self.bytes < 1 or self.packets < 1:
            raise FlowError("bytes and packets must be positive")


def decompose_timestamp(ts: datetime | str) -> tuple[int, int, int, int, int]:
    """Calendar decomposition (Monday=0); the date itself is dropped."""
    if isinstance(ts, str):
        try:
            ts = datetime.fromisoformat(ts)
        except ValueError as e:
            raise FlowError(f"unparseable timestamp: {e}")
    return (ts.weekday(), ts.hour, ts.minute, ts.second,
            ts.microsecond // 1000)


# A netflow CSV's columns: the timestamp, which decomposes into the five
# calendar fields, then every other field in declaration order.
COLUMNS = ("timestamp",) + tuple(f.name for f in fields(FlowRecord)[5:])
_PARSERS = get_type_hints(FlowRecord)


def _flow_record(row: dict) -> FlowRecord:
    cells = {}
    for column in COLUMNS:
        raw = row[column]
        if raw is None:
            raise FlowError(f"column {column!r} is missing (short row)")
        try:
            cells[column] = _PARSERS.get(column, str)(raw)
        except ValueError:
            raise FlowError(f"bad value {raw!r} in column {column!r}") from None
    return FlowRecord(*decompose_timestamp(cells.pop("timestamp")), **cells)


def read_flows(path: str) -> list[FlowRecord]:
    """The records of a netflow CSV whose header names every one of
    ``COLUMNS``; a bad row raises ``FlowError`` naming its line and column."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(COLUMNS) - set(reader.fieldnames or [])
        if missing:
            raise FlowError(f"netflow CSV missing columns: {sorted(missing)}")
        records = []
        for row in reader:
            try:
                records.append(_flow_record(row))
            except FlowError as e:
                raise FlowError(f"{path} line {reader.line_num}: {e}") from None
    return records


def _is_private(ip: str) -> bool:
    return ipaddress.ip_address(ip).is_private


@dataclass
class InvariantReport:
    violations: dict[str, int] = field(default_factory=dict)
    applicable: dict[str, int] = field(default_factory=dict)

    def rate(self, rule: str) -> float:
        n = self.applicable.get(rule, 0)
        return self.violations.get(rule, 0) / n if n else 0.0

    def to_json(self) -> dict:
        return {
            rule: {
                "violations": self.violations.get(rule, 0),
                "applicable": self.applicable.get(rule, 0),
                "rate": self.rate(rule),
            }
            for rule in RULES
        }


def _flags_empty(flags: str) -> bool:
    return all(ch in ".- " for ch in flags)


def _tally(report: InvariantReport, rule: str, ok: bool):
    """Count one record the rule applies to, and a violation unless ``ok``."""
    report.applicable[rule] += 1
    report.violations[rule] += not ok


def check_invariants(records: list[FlowRecord],
                     vocab: dict[str, set] | None = None) -> InvariantReport:
    """Evaluate each rule per record; denominators count only records the
    rule applies to.

    ``vocab`` maps field names to allowed value sets for the
    valid-values rule; fields not listed are not checked.
    """
    report = InvariantReport(violations=dict.fromkeys(RULES, 0),
                             applicable=dict.fromkeys(RULES, 0))
    for rec in records:
        # Non-TCP flows must not carry TCP flags.
        if rec.protocol != "TCP":
            _tally(report, "tcp_flags", _flags_empty(rec.flags))

        # At least one endpoint of every flow must be private.
        _tally(report, "private_ips", _is_private(rec.src_ip) or _is_private(rec.dst_ip))

        # Well-known TCP service ports imply protocol TCP.
        if rec.src_port in WELL_KNOWN_TCP_PORTS or rec.dst_port in WELL_KNOWN_TCP_PORTS:
            _tally(report, "tcp_port", rec.protocol == "TCP")

        # Port-53 traffic is UDP, or TCP with a bounded payload.
        if rec.src_port == 53 or rec.dst_port == 53:
            _tally(report, "dns", rec.protocol == "UDP" or (
                rec.protocol == "TCP" and rec.bytes <= DNS_BYTES_PER_PACKET * rec.packets))

        # Every field value must come from the training vocabulary.
        if vocab is not None:
            _tally(report, "valid_values", all(
                getattr(rec, name) in allowed for name, allowed in vocab.items()))

        # NetBios ports imply UDP/TCP and a private destination.
        if rec.src_port in NETBIOS_PORTS or rec.dst_port in NETBIOS_PORTS:
            _tally(report, "netbios",
                   rec.protocol in ("UDP", "TCP") and _is_private(rec.dst_ip))

        # Byte count bounded by min/max frame size times packet count.
        _tally(report, "packet_ratios",
               MIN_FRAME_BYTES * rec.packets <= rec.bytes <= MAX_FRAME_BYTES * rec.packets)

    return report
