"""The continuous fit split over forked processes against the one-process
fit, bit for bit, and its failure and clean-up paths.

The forked path runs with the work cut-off patched to 0 and
``os.sched_getaffinity`` patched to the CPU count under test; the serial
path with one CPU. Either way no child process may outlive ``fit_codecs``.
"""

import importlib.util
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabmt import codec
from tabmt.codec import fit_codecs
from tabmt.schema import CATEGORICAL, CONTINUOUS, MISSING, FieldSchema, RawTable, TableSchema

TABLEGEN = Path(__file__).resolve().parents[1] / "perfbench" / "tablegen.py"


def load_tablegen():
    """``perfbench/tablegen.py``, registered under its own name, as its
    dataclasses look their module up in ``sys.modules``."""
    name = "perfbench_tablegen"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TABLEGEN)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


FORK = os.fork


def use_cpus(mp, n, forks):
    """Make ``n`` CPUs usable to the fit and drop its work cut-off, so any
    n > 1 forks; each ``os.fork`` call appends to ``forks``."""
    def counted_fork():
        forks.append(1)
        return FORK()

    mp.setattr(codec, "_FORK_MIN_WORK", 0)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    mp.setattr(os, "fork", counted_fork)
    return forks


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` is ``use_cpus`` for one test; it returns the forks so far."""
    forks = []
    return lambda n: use_cpus(monkeypatch, n, forks)


def continuous_count(table):
    return sum(fs.kind == CONTINUOUS for fs in table.schema.fields)


def continuous_columns(table):
    """The ``(x, w, k)`` triples ``fit_codecs`` fits."""
    return [codec._distinct(table.column(j), fs.max_bins)
            for j, fs in enumerate(table.schema.fields) if fs.kind == CONTINUOUS]


def assert_forked_equals_serial(table, cpus, n_cpus):
    forks = cpus(n_cpus)
    forked = fit_codecs(table)
    assert len(forks) == min(n_cpus, continuous_count(table)) - 1
    assert_no_child()
    cpus(1)
    serial = fit_codecs(table)
    assert len(forks) == min(n_cpus, continuous_count(table)) - 1  # no fork at one CPU
    for fs, a, b in zip(table.schema.fields, forked, serial):
        if fs.kind == CONTINUOUS:
            assert a.centers.tobytes() == b.centers.tobytes(), fs.name
        else:
            assert a.values == b.values


def mixed_table(n_continuous, seed=3, n=1500):
    """``n_continuous`` continuous fields of unlike sizes and laws, with a
    categorical field after every second one; every ninth row misses a cell."""
    rng = np.random.default_rng(seed)
    laws = [lambda m: np.round(rng.lognormal(0, 1, m), 2),
            lambda m: np.round(rng.normal(0, 3, m), 3),
            lambda m: np.round(rng.gamma(2.0, 3.0, m), 1),
            lambda m: rng.integers(0, 5, m).astype(float)]
    fields, cols = [], []
    for i in range(n_continuous):
        fields.append(FieldSchema(name=f"c{i}", kind=CONTINUOUS, max_bins=(7, 40, 100)[i % 3]))
        cols.append(laws[i % 4](n).tolist())
        if i % 2:
            fields.append(FieldSchema(name=f"k{i}", kind=CATEGORICAL))
            cols.append(rng.choice(["a", "b", "c"], n).tolist())
    cells = [list(row) for row in zip(*cols)]
    for r in range(0, n, 9):
        cells[r][r % len(cols)] = MISSING
    return RawTable.from_rows(TableSchema(fields=tuple(fields)), cells)


class TestSameBits:
    @pytest.mark.parametrize("n_cpus", [2, 4])
    @pytest.mark.parametrize("n_continuous", range(2, 9))
    def test_mixed_tables(self, cpus, n_continuous, n_cpus):
        assert_forked_equals_serial(mixed_table(n_continuous), cpus, n_cpus)

    @pytest.mark.parametrize("workload", ["narrow-3", "wide-16", "tall-8"])
    def test_benchmark_tables(self, cpus, workload):
        tablegen = load_tablegen()
        w = tablegen.WORKLOADS[workload]
        rows = tablegen.draw_rows(w, np.random.default_rng(1), w.train_rows, cover=True)
        table = RawTable.from_rows(TableSchema.from_json(w.schema_json()), rows)
        assert_forked_equals_serial(table, cpus, 2)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(1, 300), st.integers(1, 60), st.integers(0, 2**32 - 1)),
                    min_size=2, max_size=6),
           st.integers(2, 4))
    def test_random_columns(self, specs, n_cpus):
        fields, cols = [], []
        for i, (n, max_bins, seed) in enumerate(specs):
            rng = np.random.default_rng(seed)
            xs = np.round(rng.normal(0, 1, n), int(rng.integers(0, 3)))
            fields.append(FieldSchema(name=f"c{i}", kind=CONTINUOUS, max_bins=max_bins))
            cols.append(rng.choice(xs, 300).tolist())
        table = RawTable.from_rows(TableSchema(fields=tuple(fields)), list(zip(*cols)))
        forks = []
        with pytest.MonkeyPatch.context() as mp:
            assert_forked_equals_serial(table, lambda n: use_cpus(mp, n, forks), n_cpus)


class TestProcessCount:
    def test_one_process_per_cpu_up_to_one_per_column(self, cpus):
        columns = continuous_columns(mixed_table(3))
        cpus(2)
        assert codec._fit_processes(columns) == 2
        cpus(8)
        assert codec._fit_processes(columns) == 3

    def test_one_process_without_fork_or_with_one_cpu_or_column(self, cpus, monkeypatch):
        columns = continuous_columns(mixed_table(3))
        cpus(1)
        assert codec._fit_processes(columns) == 1
        cpus(2)
        assert codec._fit_processes(columns[:1]) == 1
        monkeypatch.delattr(os, "fork")
        assert codec._fit_processes(columns) == 1

    def test_one_process_below_the_work_cut_off(self, cpus, monkeypatch):
        columns = continuous_columns(mixed_table(3))
        cpus(2)
        work = sum(len(x) * k for x, _, k in columns)
        monkeypatch.setattr(codec, "_FORK_MIN_WORK", work + 1)
        assert codec._fit_processes(columns) == 1
        monkeypatch.setattr(codec, "_FORK_MIN_WORK", work)
        assert codec._fit_processes(columns) == 2

    def test_groups_balance_work(self):
        columns = [(np.arange(float(n)), np.ones(n), k) for n, k in
                   [(400, 10), (300, 10), (200, 10), (100, 10), (50, 2)]]
        assert codec._groups(columns, 2) == [[0, 3, 4], [1, 2]]
        assert codec._groups(columns, 5) == [[0], [1], [2], [3], [4]]


class TestFailures:
    def child_group_names(self, table):
        """The field names of the group the one forked child solves at two CPUs."""
        names = [fs.name for fs in table.schema.fields if fs.kind == CONTINUOUS]
        columns = continuous_columns(table)
        return ", ".join(repr(names[t]) for t in codec._groups(columns, 2)[1])

    def in_child(self, monkeypatch, act):
        """Patch ``_kmeans_1d`` so that a forked child runs ``act(kmeans_1d, columns, sums)``."""
        parent, kmeans = os.getpid(), codec._kmeans_1d

        def patched(columns, sums=None):
            if os.getpid() == parent:
                return kmeans(columns, sums)
            return act(kmeans, columns, sums)

        monkeypatch.setattr(codec, "_kmeans_1d", patched)

    def test_child_raises(self, cpus, monkeypatch):
        table = mixed_table(4)
        cpus(2)

        def boom(kmeans, columns, sums):
            raise ValueError("boom")

        self.in_child(monkeypatch, boom)
        with pytest.raises(RuntimeError) as err:
            fit_codecs(table)
        assert str(err.value) == (f"fields {self.child_group_names(table)}: "
                                  "the quantizer process exited with status 1")
        assert_no_child()

    def test_child_killed(self, cpus, monkeypatch):
        table = mixed_table(4)
        cpus(2)

        def die(kmeans, columns, sums):
            os.kill(os.getpid(), signal.SIGKILL)

        self.in_child(monkeypatch, die)
        with pytest.raises(RuntimeError) as err:
            fit_codecs(table)
        assert str(err.value) == (f"fields {self.child_group_names(table)}: "
                                  f"the quantizer process was killed by signal {signal.SIGKILL}")
        assert_no_child()

    def test_child_sends_short_output(self, cpus, monkeypatch):
        table = mixed_table(4)
        cpus(2)

        def short(kmeans, columns, sums):
            return [c[:-1] for c in kmeans(columns, sums)]

        self.in_child(monkeypatch, short)
        with pytest.raises(RuntimeError, match=rf"^fields {self.child_group_names(table)}: "
                                               r"the quantizer process sent \d+ of \d+ bytes$"):
            fit_codecs(table)
        assert_no_child()

    def test_interrupt_in_parent_kills_the_children(self, cpus, monkeypatch):
        table = mixed_table(6)
        cpus(3)
        parent, kmeans = os.getpid(), codec._kmeans_1d

        def patched(columns, sums=None):
            if os.getpid() != parent:
                time.sleep(60)
                return kmeans(columns, sums)
            raise KeyboardInterrupt

        monkeypatch.setattr(codec, "_kmeans_1d", patched)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            fit_codecs(table)
        assert time.perf_counter() - t0 < 30
        assert_no_child()

    def test_no_child_left_after_success(self, cpus):
        cpus(4)
        fit_codecs(mixed_table(5))
        assert_no_child()
