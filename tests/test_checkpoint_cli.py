import json
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import make_toy_tokens, toy_codecs
from tabmt import checkpoint
from tabmt.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from tabmt.cli import main
from tabmt.codec import decode_table
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
        rc = main(train_args(str(tmp_path / "schema.json"), str(tmp_path / "train.csv"),
                             str(tmp_path / "x.ckpt"), steps=5))
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
