import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import count_forward_rows, make_toy_tokens, toy_codecs
from tabmt import checkpoint
from tabmt.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from tabmt.cli import _parse_condition, main
from tabmt.codec import decode_table
from tabmt.generation import GenerationSpec, generate
from tabmt.model import ModelConfig, TabMTModel
from tabmt.schema import (
    CATEGORICAL,
    CONTINUOUS,
    FieldSchema,
    RawTable,
    TableSchema,
    save_schema,
    write_csv,
)


def toy_schema():
    return TableSchema(fields=(
        FieldSchema(name="A", kind=CATEGORICAL),
        FieldSchema(name="B", kind=CATEGORICAL),
    ), target_index=1)


def write_toy_dataset(tmp_path, n=400, seed=1, name="train.csv"):
    schema = toy_schema()
    tokens = make_toy_tokens("deterministic", n=n, seed=seed)
    tokens.schema = schema
    table = decode_table(tokens, toy_codecs())
    path = tmp_path / name
    write_csv(table, str(path))
    schema_path = tmp_path / "schema.json"
    save_schema(schema, str(schema_path))
    return str(schema_path), str(path)


def train_args(schema_path, data_path, ckpt_path, loss_csv=None, steps=200):
    args = ["train", "--schema", schema_path, "--data", data_path,
            "--out", ckpt_path, "--width", "16", "--depth", "1",
            "--heads", "2", "--batch-size", "64", "--max-steps", str(steps),
            "--warmup-steps", "20", "--seed", "0"]
    if loss_csv:
        args += ["--loss-csv", loss_csv]
    return args


@pytest.fixture(scope="module")
def trained_cli(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    schema_path, data_path = write_toy_dataset(tmp, n=2000)
    ckpt = str(tmp / "model.ckpt")
    loss = str(tmp / "loss.csv")
    rc = main(train_args(schema_path, data_path, ckpt, loss, steps=500))
    assert rc == 0
    return {"tmp": tmp, "schema": schema_path, "data": data_path,
            "ckpt": ckpt, "loss": loss}


class TestCheckpoint:
    def test_round_trip_forward_bit_identical(self, tmp_path):
        m = TabMTModel(toy_codecs(), ModelConfig(width=16, depth=2, heads=2),
                       seed=3)
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, 4, (8, 2))
        mask = rng.random((8, 2)) < 0.5
        before = [lg.data.copy() for lg in m.forward(tokens, mask)]
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), m, toy_schema(), step=7, seed=3)
        loaded, schema, header = load_checkpoint(str(path))
        after = [lg.data for lg in loaded.forward(tokens, mask)]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)
        assert header["step"] == 7
        assert list(schema.names) == ["A", "B"]

    def test_loaded_parameters_own_writable_copies(self, tmp_path):
        m = TabMTModel(toy_codecs(), ModelConfig(width=16, depth=1, heads=2), seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), m, toy_schema(), step=0, seed=3)
        loaded, _, _ = load_checkpoint(str(path))
        for (name, p), (_, q) in zip(m.named_parameters(), loaded.named_parameters()):
            assert q.data.flags.owndata and q.data.flags.writeable, name
            assert q.data.flags.c_contiguous and q.data.tobytes() == p.data.tobytes(), name

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_save_deterministic_bytes(self, tmp_path):
        m = TabMTModel(toy_codecs(), ModelConfig(width=16, depth=1, heads=2),
                       seed=0)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(p1), m, None)
        save_checkpoint(str(p2), m, None)
        assert p1.read_bytes() == p2.read_bytes()


def saved_bytes(tmp_path) -> bytes:
    m = TabMTModel(toy_codecs(), ModelConfig(width=8, depth=1, heads=2), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), m, toy_schema())
    return path.read_bytes()


def split_checkpoint(data: bytes) -> tuple[dict, bytes]:
    (hlen,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    return json.loads(data[start:start + hlen]), data[start + hlen:]


def join_checkpoint(header: dict, blob: bytes) -> bytes:
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(raw)) + raw + blob


class TestCheckpointLoadFailsLoudly:
    def load(self, tmp_path, data):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(data)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_every_truncation(self, tmp_path):
        data = saved_bytes(tmp_path)
        header, blob = split_checkpoint(data)
        assert join_checkpoint(header, blob) == data
        header_end = len(data) - len(blob)
        cuts = [*range(header_end + 3), *range(header_end + 3, len(data), 101),
                len(data) - 1]
        for cut in cuts:
            self.load(tmp_path, data[:cut])

    def test_trailing_bytes(self, tmp_path):
        self.load(tmp_path, saved_bytes(tmp_path) + b"\x00")

    def test_unparsable_header(self, tmp_path):
        data = saved_bytes(tmp_path)
        start = len(MAGIC) + 8
        self.load(tmp_path, data[:start] + b"}" + data[start + 1:])
        self.load(tmp_path, data[:len(MAGIC)] + struct.pack("<Q", 1 << 40)
                  + data[start:])
        header, blob = split_checkpoint(data)
        self.load(tmp_path, join_checkpoint(["not", "a", "header"], blob))

    @pytest.mark.parametrize("edit", ["nbytes", "offset", "zero_shape", "swap"])
    def test_layout_mismatch(self, tmp_path, edit):
        header, blob = split_checkpoint(saved_bytes(tmp_path))
        p0, p1 = header["params"][:2]
        if edit == "nbytes":
            p0["nbytes"] += 4
        elif edit == "offset":
            p1["offset"] += 4
        elif edit == "zero_shape":
            p0["shape"] = [0] + p0["shape"][1:]
        else:
            p0["offset"], p1["offset"] = p1["offset"], p0["offset"]
        self.load(tmp_path, join_checkpoint(header, blob))

    @pytest.mark.parametrize("edit, key", [
        ("no_params", "params"), ("no_codecs", "codecs"), ("no_model_config", "model_config"),
        ("no_seed", "seed"), ("no_schema", "schema"), ("codec_without_values", "values"),
        ("unknown_config_key", "widht"), ("shape_not_a_list", "shape")])
    def test_bad_header_key_is_named(self, tmp_path, edit, key):
        header, blob = split_checkpoint(saved_bytes(tmp_path))
        if edit.startswith("no_"):
            del header[key]
        elif edit == "codec_without_values":
            del header["codecs"][0]["values"]
        elif edit == "unknown_config_key":
            header["model_config"][key] = 16
        else:
            header["params"][0]["shape"] = str(header["params"][0]["shape"])
        path = tmp_path / "bad.ckpt"
        path.write_bytes(join_checkpoint(header, blob))
        with pytest.raises(CheckpointError, match=f"'{key}'|{key} is"):
            load_checkpoint(str(path))

    def test_misspelt_codec_kind_is_named(self, tmp_path):
        header, blob = split_checkpoint(saved_bytes(tmp_path))
        header["codecs"][0]["kind"] = "categorcal"
        path = tmp_path / "bad.ckpt"
        path.write_bytes(join_checkpoint(header, blob))
        with pytest.raises(CheckpointError, match="unknown codec kind 'categorcal'"):
            load_checkpoint(str(path))

    def test_empty_centers_are_named(self, tmp_path):
        header, blob = split_checkpoint(saved_bytes(tmp_path))
        header["codecs"][0] = {"kind": "continuous", "centers": []}
        path = tmp_path / "bad.ckpt"
        path.write_bytes(join_checkpoint(header, blob))
        with pytest.raises(CheckpointError, match="non-empty list of centers"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("codec, key", [
        ({"kind": "categorical", "values": "abcd"}, "values"),
        ({"kind": "categorical", "values": ["a", "a", "b", "c"]}, "values"),
        ({"kind": "categorical", "values": ["a", "b", "c", 5]}, "values"),
        ({"kind": "continuous", "centers": ["1", "2"]}, "centers"),
        ({"kind": "continuous", "centers": [True]}, "centers"),
    ], ids=["values-string", "values-repeated", "values-number", "centers-strings",
            "centers-bool"])
    def test_malformed_codec_is_named(self, tmp_path, codec, key):
        # Each of these loaded before: a string as its characters, a repeated
        # or non-string value as a token no cell encodes to, and strings or
        # booleans as numeric centres.
        header, blob = split_checkpoint(saved_bytes(tmp_path))
        header["codecs"][1] = codec
        path = tmp_path / "bad.ckpt"
        path.write_bytes(join_checkpoint(header, blob))
        want = ("'values' must be a list of distinct strings" if key == "values"
                else "'centers' must be a list of numbers")
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: codec 1: {want}$"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("edit", ["extra_category", "dtype"])
    def test_parameters_must_fit_model(self, tmp_path, edit):
        # The header's codecs and config build the model; each stored
        # parameter must have that model's shape and dtype.
        header, blob = split_checkpoint(saved_bytes(tmp_path))
        if edit == "extra_category":
            header["codecs"][0]["values"].append("e")
        else:
            header["model_config"]["dtype"] = "float64"
        self.load(tmp_path, join_checkpoint(header, blob))

    def test_interrupted_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        old = saved_bytes(tmp_path)
        m = TabMTModel(toy_codecs(), ModelConfig(width=16, depth=1, heads=2), seed=1)

        def fail(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(checkpoint.os, "replace", fail)
        with pytest.raises(OSError):
            save_checkpoint(str(path), m, None)
        assert path.read_bytes() == old


class TestCmdTrain:
    def test_loss_csv_rows_and_rerun_identical(self, tmp_path):
        schema_path, data_path = write_toy_dataset(tmp_path)
        ckpt1, loss1 = str(tmp_path / "m1.ckpt"), str(tmp_path / "l1.csv")
        ckpt2, loss2 = str(tmp_path / "m2.ckpt"), str(tmp_path / "l2.csv")
        assert main(train_args(schema_path, data_path, ckpt1, loss1)) == 0
        assert main(train_args(schema_path, data_path, ckpt2, loss2)) == 0
        lines = (tmp_path / "l1.csv").read_text().splitlines()
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 201
        assert (tmp_path / "l1.csv").read_bytes() == (tmp_path / "l2.csv").read_bytes()
        assert (tmp_path / "m1.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    def test_invalid_topology(self, tmp_path, capsys):
        schema_path, data_path = write_toy_dataset(tmp_path)
        rc = main(["train", "--schema", schema_path, "--data", data_path,
                   "--out", str(tmp_path / "x.ckpt"), "--width", "65",
                   "--heads", "4", "--max-steps", "10", "--warmup-steps", "1"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "error" in err and "message" in err

    @pytest.mark.parametrize("flag", ["--dropout", "--drop-path"])
    def test_drop_rate_outside_unit_interval(self, tmp_path, capsys, flag):
        schema_path, data_path = write_toy_dataset(tmp_path)
        ckpt = tmp_path / "x.ckpt"
        rc = main(train_args(schema_path, data_path, str(ckpt), steps=5) + [flag, "1.5"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValueError"
        assert flag[2:].replace("-", "_") in err["message"]
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--width", "0", "width"), ("--depth", "0", "depth"), ("--heads", "0", "heads"),
        ("--lr", "-1", "peak_lr"), ("--lr", "nan", "peak_lr"),
        ("--weight-decay", "-5", "weight_decay"), ("--weight-decay", "inf", "weight_decay")])
    def test_untrainable_config_fails_before_reading_data(self, tmp_path, capsys, flag,
                                                          value, field):
        # Neither the schema nor the data exists: the config is checked first.
        ckpt = tmp_path / "x.ckpt"
        rc = main(train_args(str(tmp_path / "none.json"), str(tmp_path / "none.csv"),
                             str(ckpt), steps=50) + [flag, value])
        assert rc == 1
        err = single_error(capsys)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(field)
        assert not ckpt.exists()

    @pytest.mark.parametrize("schema, named", [
        ({"fields": [{"name": "A"}]}, "field 0: missing key 'kind'"),
        ({"fields": [{"kind": "categorical"}]}, "field 0: missing key 'name'"),
        ({"target": "A"}, "'fields'"),
        ({"fields": [{"name": "A", "kind": "categorical"},
                     {"name": "x", "kind": "continuous", "max_bins": "3"}]},
         "field 1: max_bins must be an integer"),
        ({"fields": [{"name": "A", "kind": "categorical", "declared_cardinality": 2.5}]},
         "field 0: declared_cardinality must be an integer"),
        ({"fields": [{"name": "A", "kind": "categorical", "declared_cardnality": 2}]},
         "field 0: unknown key 'declared_cardnality'"),
        ({"fields": [{"name": "A", "kind": "categorical"}], "targte": "A"},
         "unknown top-level key 'targte'"),
        ({"fields": "ab"}, "'fields' must be a list of objects"),
        ({"fields": [["name", "A"]]}, "'fields' must be a list of objects"),
        ({"fields": [{"name": 5, "kind": "categorical"}]}, "field 0: name must be a string"),
        ({"fields": [{"name": "A", "kind": "categorical"}], "target": 0},
         "target must be a string"),
    ], ids=["no_kind", "no_name", "no_fields", "max_bins_text", "cardinality_float",
            "misspelt_key", "misspelt_target_key", "fields_text", "field_not_object",
            "name_not_text", "target_not_text"])
    def test_malformed_schema_json(self, tmp_path, capsys, schema, named):
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        ckpt = tmp_path / "x.ckpt"
        rc = main(train_args(str(tmp_path / "schema.json"), str(tmp_path / "none.csv"),
                             str(ckpt), steps=50))
        assert rc == 1
        err = single_error(capsys)
        assert err["error"] == "SchemaError"
        assert named in err["message"]
        assert not ckpt.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_training_value(self, tmp_path, capsys, bad):
        schema = TableSchema(fields=(
            FieldSchema(name="size", kind=CONTINUOUS, max_bins=4),
            FieldSchema(name="B", kind=CATEGORICAL),
        ), target_index=1)
        save_schema(schema, str(tmp_path / "schema.json"))
        rows = [f"{i % 9}.5,{'pq'[i % 2]}" for i in range(40)]
        rows[17] = f"{bad},q"
        (tmp_path / "train.csv").write_text("\n".join(["size,B"] + rows) + "\n")
        # 50 steps: train builds its configs before it reads the data, so
        # they must be valid for the data to be read at all.
        rc = main(train_args(str(tmp_path / "schema.json"), str(tmp_path / "train.csv"),
                             str(tmp_path / "x.ckpt"), steps=50))
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CodecError"
        assert "'size'" in err["message"] and "non-finite" in err["message"]
        assert not (tmp_path / "x.ckpt").exists()


class TestCmdGenerate:
    def test_row_count_and_header(self, trained_cli):
        out = str(trained_cli["tmp"] / "gen.csv")
        rc = main(["generate", "--checkpoint", trained_cli["ckpt"],
                   "--count", "50", "--out", out, "--seed", "1"])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "A,B"
        assert len(lines) == 51

    def test_condition_fixes_column(self, trained_cli):
        out = str(trained_cli["tmp"] / "gen_cond.csv")
        rc = main(["generate", "--checkpoint", trained_cli["ckpt"],
                   "--count", "30", "--out", out, "--condition", "A=b",
                   "--seed", "2"])
        assert rc == 0
        rows = Path(out).read_text().splitlines()[1:]
        assert all(r.split(",")[0] == "b" for r in rows)

    def test_unknown_condition_column(self, trained_cli, capsys):
        rc = main(["generate", "--checkpoint", trained_cli["ckpt"],
                   "--count", "5", "--out", str(trained_cli["tmp"] / "x.csv"),
                   "--condition", "Z=1"])
        assert rc == 1
        capsys.readouterr()

    def test_temps_length_mismatch(self, trained_cli, capsys):
        rc = main(["generate", "--checkpoint", trained_cli["ckpt"],
                   "--count", "5", "--out", str(trained_cli["tmp"] / "x.csv"),
                   "--temps", "1.0,1.0,1.0"])
        assert rc == 1
        capsys.readouterr()

    def test_deterministic_rerun(self, trained_cli):
        a = str(trained_cli["tmp"] / "det_a.csv")
        b = str(trained_cli["tmp"] / "det_b.csv")
        for out in (a, b):
            assert main(["generate", "--checkpoint", trained_cli["ckpt"],
                         "--count", "100", "--out", out, "--seed", "7"]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestCmdEvaluate:
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_knn_below_one_rejected(self, trained_cli, tmp_path, capsys, k):
        report = tmp_path / "report.json"
        rc = main(["evaluate", "--checkpoint", trained_cli["ckpt"],
                   "--real-train", trained_cli["data"], "--real-test", trained_cli["data"],
                   "--synth", trained_cli["data"], "--report", str(report), "--knn", k])
        assert rc == 1
        err = single_error(capsys)
        assert err["error"] == "MetricError"
        assert f"k={k}" in err["message"]
        assert not report.exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_knn_checked_before_anything_is_read(self, tmp_path, capsys, k):
        """None of the paths exist: --knn fails first, naming k."""
        report = tmp_path / "report.json"
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "absent.ckpt"),
                   "--real-train", str(tmp_path / "absent_train.csv"),
                   "--real-test", str(tmp_path / "absent_test.csv"),
                   "--synth", str(tmp_path / "absent_synth.csv"),
                   "--report", str(report), "--knn", k])
        assert rc == 1
        err = single_error(capsys)
        assert err["error"] == "MetricError"
        assert f"k={k}" in err["message"]
        assert not report.exists()

    def test_synth_equals_train_gives_zero_dcr(self, trained_cli):
        tmp = trained_cli["tmp"]
        report_path = str(tmp / "report.json")
        rc = main(["evaluate", "--checkpoint", trained_cli["ckpt"],
                   "--real-train", trained_cli["data"],
                   "--real-test", trained_cli["data"],
                   "--synth", trained_cli["data"],
                   "--report", report_path,
                   "--hist-csv", str(tmp / "hist.csv")])
        assert rc == 0
        report = json.loads(Path(report_path).read_text())
        assert report["dcr_median"] == 0.0
        assert 0.0 <= report["precision"] <= 1.0
        assert 0.0 <= report["recall"] <= 1.0
        assert report["mle_proxy"] is not None
        hist = (tmp / "hist.csv").read_text().splitlines()
        assert len(hist) > 1


class TestCmdImpute:
    def test_fills_missing_preserves_observed(self, trained_cli, tmp_path):
        schema = toy_schema()
        cells = [["a", "?"], ["b", "q"], ["c", "?"], ["d", "s"]] * 5
        raw_lines = ["A,B"] + [",".join(c if c != "?" else "" for c in row)
                               for row in cells]
        data = tmp_path / "missing.csv"
        data.write_text("\n".join(raw_lines) + "\n")
        out = str(tmp_path / "filled.csv")
        rc = main(["impute", "--checkpoint", trained_cli["ckpt"],
                   "--data", str(data), "--out", out, "--seed", "0"])
        assert rc == 0
        rows = [r.split(",") for r in Path(out).read_text().splitlines()[1:]]
        assert all(v != "" for row in rows for v in row)
        for (a, b), row in zip(cells, rows):
            assert row[0] == a
            if b != "?":
                assert row[1] == b

    def test_no_missing_round_trips(self, trained_cli, tmp_path):
        out = str(tmp_path / "same.csv")
        rc = main(["impute", "--checkpoint", trained_cli["ckpt"],
                   "--data", trained_cli["data"], "--out", out])
        assert rc == 0
        assert Path(out).read_text() == Path(trained_cli["data"]).read_text()


class TestCmdPareto:
    def test_front_csv_written(self, trained_cli):
        out = str(trained_cli["tmp"] / "front.csv")
        rc = main(["pareto", "--checkpoint", trained_cli["ckpt"],
                   "--real-train", trained_cli["data"],
                   "--real-test", trained_cli["data"],
                   "--out", out, "--task", "classify",
                   "--generations", "1", "--population", "4",
                   "--eval-budget", "100", "--seed", "0"])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "temp_1,temp_2,dcr,quality"
        assert len(lines) >= 2
        for line in lines[1:]:
            t1, t2 = (float(x) for x in line.split(",")[:2])
            assert 0.5 <= t1 <= 5.0 and 0.5 <= t2 <= 5.0

    @pytest.mark.parametrize("flag, value", [("--generations", "-3"),
                                             ("--generations", "-1"),
                                             ("--population", "3"),
                                             ("--population", "0"),
                                             ("--eval-budget", "0"),
                                             ("--eval-budget", "-5")])
    def test_flag_checked_before_anything_is_read(self, tmp_path, capsys, flag, value):
        """None of the paths exist: the flag fails first, naming itself."""
        out = tmp_path / "front.csv"
        args = {"--generations": "1", "--population": "4", "--eval-budget": "10",
                flag: value}
        rc = main(["pareto", "--checkpoint", str(tmp_path / "absent.ckpt"),
                   "--real-train", str(tmp_path / "absent_train.csv"),
                   "--real-test", str(tmp_path / "absent_test.csv"),
                   "--out", str(out), "--task", "classify",
                   *(x for kv in args.items() for x in kv)])
        assert rc == 1
        err = single_error(capsys)
        assert err["error"] == "CliError"
        assert flag in err["message"] and value in err["message"]
        assert not out.exists()


class TestCmdFlowcheck:
    def test_report_rates(self, tmp_path):
        header = "timestamp,src_ip,dst_ip,protocol,src_port,dst_port,duration,bytes,packets,flags,tos"
        good = "2023-01-02 13:05:07.250,192.168.1.5,192.168.1.9,UDP,5000,6000,0.5,420,10,........,0"
        bad = "2023-01-02 13:05:08.000,192.168.1.5,192.168.1.9,ICMP,0,0,0.5,420,10,...A..S.,0"
        data = tmp_path / "flows.csv"
        data.write_text("\n".join([header] + [good] * 9 + [bad]) + "\n")
        report_path = str(tmp_path / "flow_report.json")
        rc = main(["flowcheck", "--data", str(data), "--report", report_path])
        assert rc == 0
        report = json.loads(Path(report_path).read_text())
        assert report["tcp_flags"]["rate"] == 0.1
        assert report["private_ips"]["rate"] == 0.0
        assert report["packet_ratios"]["rate"] == 0.0

    @pytest.mark.parametrize("row, column, value", [
        ("2023-01-02 13:05:07.250,192.168.1.5,192.168.1.9,UDP,5000", "dst_port", None),
        ("2023-01-02 13:05:07.250,192.168.1.5,192.168.1.9,UDP,abc,6000,0.5,420,10,.,0",
         "src_port", "abc"),
        ("2023-01-02 13:05:07.250,192.168.1.5,192.168.1.9,UDP,5000,6000,x,420,10,.,0",
         "duration", "x"),
        ("2023-01-02 13:05:07.250,192.168.1.5,10.0.0.300,UDP,5000,6000,0.5,420,10,.,0",
         "dst_ip", "10.0.0.300")], ids=["short_row", "int_column", "float_column", "ip_column"])
    def test_bad_row_names_line_and_column(self, tmp_path, capsys, row, column, value):
        header = "timestamp,src_ip,dst_ip,protocol,src_port,dst_port,duration,bytes,packets,flags,tos"
        good = "2023-01-02 13:05:07.250,192.168.1.5,192.168.1.9,UDP,5000,6000,0.5,420,10,.,0"
        data = tmp_path / "flows.csv"
        data.write_text("\n".join([header, good, good, row, good]) + "\n")
        report = tmp_path / "r.json"
        rc = main(["flowcheck", "--data", str(data), "--report", str(report)])
        assert rc == 1
        err = single_error(capsys)
        assert err["error"] == "FlowError"
        assert "line 4: " in err["message"]
        assert f"column {column!r}" in err["message"]
        if value is not None:
            assert repr(value) in err["message"]
        assert not report.exists()

    def test_missing_column_errors(self, tmp_path, capsys):
        data = tmp_path / "short.csv"
        data.write_text("timestamp,src_ip\nx,y\n")
        rc = main(["flowcheck", "--data", str(data),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1
        capsys.readouterr()


@pytest.fixture(scope="module")
def trained_mixed_cli(tmp_path_factory):
    """A continuous and a categorical target field; one blank continuous
    cell in the training CSV."""
    tmp = tmp_path_factory.mktemp("mixed")
    schema = TableSchema(fields=(
        FieldSchema(name="x", kind=CONTINUOUS, max_bins=20),
        FieldSchema(name="y", kind=CATEGORICAL),
    ), target_index=1)
    schema_path = str(tmp / "schema.json")
    save_schema(schema, schema_path)
    rng = np.random.default_rng(0)

    def write(name, n, blank):
        xs = rng.normal(size=n)
        lines = ["x,y"] + [f"{float(x)!r},{'pos' if x > 0 else 'neg'}" for x in xs]
        for row, col in blank:
            cells = lines[row + 1].split(",")
            cells[col] = ""
            lines[row + 1] = ",".join(cells)
        path = tmp / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    data = write("train.csv", 300, blank=[(3, 0)])
    ckpt = str(tmp / "model.ckpt")
    assert main(train_args(schema_path, data, ckpt, steps=40)) == 0
    return {"tmp": tmp, "data": data, "ckpt": ckpt,
            "test": write("test.csv", 100, blank=[(5, 1)])}


class TestMissingCells:
    def test_evaluate_with_blank_cells(self, trained_mixed_cli):
        # A blank continuous cell in --real-train, a blank target in --real-test.
        t = trained_mixed_cli
        synth = str(t["tmp"] / "synth.csv")
        assert main(["generate", "--checkpoint", t["ckpt"], "--count", "60",
                     "--out", synth, "--seed", "3"]) == 0
        report_path = str(t["tmp"] / "report.json")
        rc = main(["evaluate", "--checkpoint", t["ckpt"], "--real-train", t["data"],
                   "--real-test", t["test"], "--synth", synth,
                   "--report", report_path])
        assert rc == 0
        report = json.loads(Path(report_path).read_text())
        assert 0.0 <= report["precision"] <= 1.0
        assert report["mle_proxy"] is not None

    def test_impute_writes_observed_cells_as_parsed(self, trained_mixed_cli, tmp_path):
        t = trained_mixed_cli
        model, _, _ = load_checkpoint(t["ckpt"])
        assert 0.123456789 not in model.codecs[0].centers
        data = tmp_path / "sparse.csv"
        data.write_text("x,y\n0.123456789,\n,pos\n-1.5e-07,neg\n")
        out = tmp_path / "filled.csv"
        assert main(["impute", "--checkpoint", t["ckpt"], "--data", str(data),
                     "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert rows[0][0] == "0.123456789" and rows[0][1] in ("neg", "pos")
        assert float(rows[1][0]) in model.codecs[0].centers and rows[1][1] == "pos"
        assert rows[2] == ["-1.5e-07", "neg"]

    def test_evaluate_non_finite_cell_names_field(self, trained_mixed_cli, tmp_path, capsys):
        t = trained_mixed_cli
        synth = tmp_path / "synth.csv"
        synth.write_text("x,y\n0.5,pos\n-0.5,neg\ninf,pos\n0.1,neg\n0.2,pos\n")
        rc = main(["evaluate", "--checkpoint", t["ckpt"], "--real-train", t["data"],
                   "--real-test", t["test"], "--synth", str(synth),
                   "--report", str(tmp_path / "report.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CodecError"
        assert err["message"].startswith("field 'x': ")

    @pytest.mark.parametrize("row, field", [("nan,pos", "x"), ("0.5,zz", "y")])
    def test_impute_bad_cell_names_field(self, trained_mixed_cli, tmp_path, capsys,
                                         row, field):
        data = tmp_path / "bad.csv"
        data.write_text(f"x,y\n0.5,pos\n{row}\n")
        out = tmp_path / "filled.csv"
        assert main(["impute", "--checkpoint", trained_mixed_cli["ckpt"],
                     "--data", str(data), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CodecError"
        assert err["message"].startswith(f"field '{field}': ")
        assert not out.exists()


@pytest.fixture(scope="module")
def trained_three_cli(tmp_path_factory):
    """Continuous ``x``, categorical ``c`` and categorical target ``y``,
    with clean train and test CSVs."""
    tmp = tmp_path_factory.mktemp("three")
    schema = TableSchema(fields=(
        FieldSchema(name="x", kind=CONTINUOUS, max_bins=10),
        FieldSchema(name="c", kind=CATEGORICAL),
        FieldSchema(name="y", kind=CATEGORICAL),
    ), target_index=2)
    schema_path = str(tmp / "schema.json")
    save_schema(schema, schema_path)
    rng = np.random.default_rng(1)

    def write(name, n):
        xs = rng.normal(size=n)
        lines = ["x,c,y"] + [f"{float(x)!r},{'ab'[i % 2]},{'pos' if x > 0 else 'neg'}"
                             for i, x in enumerate(xs)]
        (tmp / name).write_text("\n".join(lines) + "\n")
        return lines

    train, test = write("train.csv", 200), write("test.csv", 80)
    ckpt = str(tmp / "model.ckpt")
    assert main(train_args(schema_path, str(tmp / "train.csv"), ckpt, steps=30)) == 0
    synth = str(tmp / "synth.csv")
    assert main(["generate", "--checkpoint", ckpt, "--count", "40", "--out", synth,
                 "--seed", "1"]) == 0
    return {"tmp": tmp, "ckpt": ckpt, "synth": synth, "lines": {"train": train, "test": test}}


def single_error(capsys) -> dict:
    """The one JSON line a failed command writes to stderr."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


BAD_CELLS = [("nan,a,pos", "x"), ("0.5,zz,pos", "c"), ("0.5,a,qq", "y")]


class TestBadCellNamesField:
    """A non-finite value, an unseen category or an unseen target in a real
    table fails the command with one JSON line that names the column."""

    def bad_csv(self, t, which, row, tmp_path):
        lines = list(t["lines"][which])
        lines[3] = row
        path = tmp_path / f"bad_{which}.csv"
        path.write_text("\n".join(lines) + "\n")
        tables = {w: str(t["tmp"] / f"{w}.csv") for w in ("train", "test")}
        tables[which] = str(path)
        return tables

    @pytest.mark.parametrize("row, field", BAD_CELLS)
    @pytest.mark.parametrize("which", ["train", "test"])
    def test_evaluate(self, trained_three_cli, tmp_path, capsys, which, row, field):
        t = trained_three_cli
        tables = self.bad_csv(t, which, row, tmp_path)
        report = tmp_path / "report.json"
        rc = main(["evaluate", "--checkpoint", t["ckpt"], "--real-train", tables["train"],
                   "--real-test", tables["test"], "--synth", t["synth"],
                   "--report", str(report)])
        assert rc == 1
        err = single_error(capsys)
        assert err["error"] == "CodecError"
        assert err["message"].startswith(f"field '{field}': ")
        assert not report.exists()

    @pytest.mark.parametrize("row, field", BAD_CELLS)
    @pytest.mark.parametrize("which", ["train", "test"])
    def test_pareto(self, trained_three_cli, tmp_path, capsys, which, row, field):
        # Both tables are checked before the search runs any forward pass.
        t = trained_three_cli
        tables = self.bad_csv(t, which, row, tmp_path)
        front = tmp_path / "front.csv"
        with count_forward_rows() as calls:
            rc = main(["pareto", "--checkpoint", t["ckpt"], "--real-train", tables["train"],
                       "--real-test", tables["test"], "--out", str(front), "--task", "classify",
                       "--generations", "1", "--population", "4", "--eval-budget", "20"])
        assert rc == 1
        err = single_error(capsys)
        assert err["error"] == "CodecError"
        assert err["message"].startswith(f"field '{field}': ")
        assert not front.exists() and calls == []

    @pytest.mark.parametrize("pair, error, start", [
        ("x=abc", "SchemaError", "non-numeric value 'abc' in continuous column 'x'"),
        ("x=nan", "CodecError", "field 'x': "),
        ("c=zz", "CodecError", "field 'c': "),
        ("x=", "CliError", "condition 'x=' gives no value"),
    ])
    def test_generate_condition(self, trained_three_cli, tmp_path, capsys, pair, error, start):
        out = tmp_path / "gen.csv"
        rc = main(["generate", "--checkpoint", trained_three_cli["ckpt"], "--count", "5",
                   "--out", str(out), "--condition", "c=a", "--condition", pair])
        assert rc == 1
        err = single_error(capsys)
        assert err["error"] == error and err["message"].startswith(start)
        assert not out.exists()

    def test_condition_tokens_are_the_codecs(self, trained_three_cli):
        model, schema, _ = load_checkpoint(trained_three_cli["ckpt"])
        got, row = _parse_condition(["c=b", "x=0.3", "y=neg", "x=-1e9"], schema, model.codecs)
        assert got == {0: model.codecs[0].encode(-1e9), 1: model.codecs[1].encode("b"),
                       2: model.codecs[2].encode("neg")}
        assert row == [-1e9, "b", "neg"]


class TestConditionWrittenAsGiven:
    def test_conditioned_csv_bytes(self, trained_three_cli, tmp_path):
        # A conditioned continuous cell is written as parsed, not as its bin
        # centre; every other cell is the generated one.
        t = trained_three_cli
        model, schema, _ = load_checkpoint(t["ckpt"])
        assert 0.3 not in model.codecs[0].centers
        out = tmp_path / "gen.csv"
        assert main(["generate", "--checkpoint", t["ckpt"], "--count", "25",
                     "--out", str(out), "--condition", "x=0.3", "--condition", "c=b",
                     "--seed", "4"]) == 0
        spec = GenerationSpec(count=25, condition={0: model.codecs[0].encode(0.3),
                                                   1: model.codecs[1].encode("b")}, seed=4)
        tokens = generate(model, spec)
        tokens.schema = schema
        table = decode_table(tokens, model.codecs)
        table.columns[0] = [0.3] * table.n_rows
        want = tmp_path / "want.csv"
        write_csv(table, str(want))
        assert out.read_bytes() == want.read_bytes()
        assert [r.split(",")[:2] for r in out.read_text().splitlines()[1:]] == [["0.3", "b"]] * 25


@pytest.fixture(scope="module")
def untargeted_cli(trained_three_cli, tmp_path_factory):
    """``trained_three_cli``'s tables under a schema that names no target."""
    t = trained_three_cli
    tmp = tmp_path_factory.mktemp("untargeted")
    schema = TableSchema(fields=(
        FieldSchema(name="x", kind=CONTINUOUS, max_bins=10),
        FieldSchema(name="c", kind=CATEGORICAL),
        FieldSchema(name="y", kind=CATEGORICAL),
    ))
    schema_path = str(tmp / "schema.json")
    save_schema(schema, schema_path)
    ckpt = str(tmp / "model.ckpt")
    assert main(train_args(schema_path, str(t["tmp"] / "train.csv"), ckpt, steps=30)) == 0
    return dict(t, ckpt=ckpt)


class TestRealTestCheckedWithoutTarget:
    """evaluate checks every --real-test cell against the codecs before any
    model work, also when the schema names no target."""

    @pytest.mark.parametrize("row, field", BAD_CELLS)
    def test_evaluate_without_target(self, untargeted_cli, tmp_path, capsys, row, field):
        t = untargeted_cli
        tables = TestBadCellNamesField().bad_csv(t, "test", row, tmp_path)
        report = tmp_path / "report.json"
        with count_forward_rows() as calls:
            rc = main(["evaluate", "--checkpoint", t["ckpt"], "--real-train", tables["train"],
                       "--real-test", tables["test"], "--synth", t["synth"],
                       "--report", str(report)])
        assert rc == 1
        err = single_error(capsys)
        assert err["error"] == "CodecError"
        assert err["message"].startswith(f"field '{field}': ")
        assert not report.exists() and not calls

    def test_evaluate_without_target_clean(self, untargeted_cli, tmp_path):
        t = untargeted_cli
        report = tmp_path / "report.json"
        assert main(["evaluate", "--checkpoint", t["ckpt"],
                     "--real-train", str(t["tmp"] / "train.csv"),
                     "--real-test", str(t["tmp"] / "test.csv"), "--synth", t["synth"],
                     "--report", str(report)]) == 0
        assert json.loads(report.read_text())["mle_proxy"] is None


class TestDiversityCountsObservedCells:
    def test_blank_real_cell_is_no_value(self, trained_mixed_cli, tmp_path):
        # The training CSV's one blank cell is in x; a synthetic table of
        # every other training row covers every observed real value.
        t = trained_mixed_cli
        lines = Path(t["data"]).read_text().splitlines()
        assert lines[4].startswith(",")
        synth = tmp_path / "synth.csv"
        synth.write_text("\n".join(lines[:4] + lines[5:]) + "\n")
        report = tmp_path / "report.json"
        assert main(["evaluate", "--checkpoint", t["ckpt"], "--real-train", t["data"],
                     "--real-test", t["test"], "--synth", str(synth),
                     "--report", str(report)]) == 0
        assert json.loads(report.read_text())["diversity"] == 1.0


class TestTempsFlag:
    """--temps for generate and impute: a non-number names the flag; a wrong
    count, or an entry that is not finite and greater than 0, fails with
    one JSON line before any forward pass."""

    def run(self, t, command, temps, tmp_path):
        out = tmp_path / "out.csv"
        if command == "generate":
            args = ["generate", "--checkpoint", t["ckpt"], "--count", "5"]
        else:
            args = ["impute", "--checkpoint", t["ckpt"], "--data", str(t["tmp"] / "test.csv")]
        with count_forward_rows() as calls:
            rc = main(args + ["--out", str(out), f"--temps={temps}"])
        assert rc == 1 and not calls and not out.exists()

    @pytest.mark.parametrize("command", ["generate", "impute"])
    @pytest.mark.parametrize("temps, error, start", [
        ("1,abc,1", "CliError", "--temps '1,abc,1' is not a comma-separated list of numbers"),
        ("1,,1", "CliError", "--temps '1,,1' is not"),
        ("1,1", "ValueError", "temps: expected 3 temperatures, got 2"),
        ("1,nan,1", "ValueError", "temps: field 1's temperature nan is not finite and greater than 0"),
        ("1,1,0", "ValueError", "temps: field 2's temperature 0.0 is not"),
        ("-1,1,1", "ValueError", "temps: field 0's temperature -1.0 is not"),
        ("1,inf,1", "ValueError", "temps: field 1's temperature inf is not"),
    ])
    def test_bad_temps(self, trained_three_cli, tmp_path, capsys, command, temps, error, start):
        self.run(trained_three_cli, command, temps, tmp_path)
        err = single_error(capsys)
        assert err["error"] == error and err["message"].startswith(start)
