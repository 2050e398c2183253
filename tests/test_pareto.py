from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_toy_tokens, toy_codecs
from tabmt.codec import decode_table
from tabmt.metrics import MetricSpace
from tabmt.pareto import (
    TEMP_HI,
    TEMP_LO,
    CandidateEvaluator,
    _non_dominated_sort,
    dominates,
    pareto_search,
    write_front_csv,
)
from tabmt.schema import CATEGORICAL, FieldSchema, TableSchema


def toy_schema():
    return TableSchema(fields=(
        FieldSchema(name="A", kind=CATEGORICAL),
        FieldSchema(name="B", kind=CATEGORICAL),
    ), target_index=1)


def toy_tables():
    schema = toy_schema()
    codecs = toy_codecs()
    train_tok = make_toy_tokens("noisy", n=400, seed=1)
    test_tok = make_toy_tokens("noisy", n=400, seed=2)
    train_tok.schema = schema
    test_tok.schema = schema
    return decode_table(train_tok, codecs), decode_table(test_tok, codecs)


@pytest.fixture(scope="module")
def evaluator(trained_toy_model):
    real_train, real_test = toy_tables()
    space = MetricSpace.fit(real_train, trained_toy_model.codecs)
    return CandidateEvaluator(trained_toy_model, space, real_train, real_test,
                              target_index=1, task="classify",
                              eval_budget=200, seed=0)


class TestDominance:
    def test_mutually_non_dominated_all_retained(self):
        objs = [(1.0, 1.0), (2.0, 0.5), (1.5, 0.9)]
        fronts = _non_dominated_sort(objs)
        assert sorted(fronts[0]) == [0, 1, 2]

    def test_dominated_point_removed(self):
        objs = [(1.0, 1.0), (0.5, 0.5)]
        fronts = _non_dominated_sort(objs)
        assert fronts[0] == [0]
        assert fronts[1] == [1]

    def test_dominates_requires_strict_improvement(self):
        assert not dominates((1.0, 1.0), (1.0, 1.0))
        assert dominates((1.0, 2.0), (1.0, 1.0))
        assert not dominates((2.0, 0.0), (1.0, 1.0))


class TestEvaluator:
    def test_deterministic(self, evaluator):
        a = evaluator.evaluate((1.0, 1.0))
        b = evaluator.evaluate((1.0, 1.0))
        assert a == b

    def test_finite_objectives(self, evaluator):
        d, q = evaluator.evaluate((2.0, 2.0))
        assert np.isfinite(d) and np.isfinite(q)
        assert d >= 0.0


class TestParetoSearch:
    def test_population_too_small(self, evaluator):
        with pytest.raises(ValueError):
            pareto_search(evaluator, generations=1, population=3)

    @pytest.mark.parametrize("generations", [-1, -3])
    def test_negative_generations(self, evaluator, generations):
        with pytest.raises(ValueError, match="generations must be at least 0"):
            pareto_search(evaluator, generations=generations, population=4)

    @pytest.mark.parametrize("budget", [0, -2])
    def test_eval_budget_below_one(self, trained_toy_model, budget):
        real_train, real_test = toy_tables()
        space = MetricSpace.fit(real_train, trained_toy_model.codecs)
        with pytest.raises(ValueError, match="eval_budget must be at least 1"):
            CandidateEvaluator(trained_toy_model, space, real_train, real_test,
                               target_index=1, task="classify", eval_budget=budget)

    def test_front_valid_and_bounded(self, evaluator, tmp_path):
        front = pareto_search(evaluator, generations=2, population=8, seed=0)
        assert front
        objs = [(c.dcr, c.quality) for c in front]
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not dominates(a, b)
        for c in front:
            assert all(TEMP_LO <= t <= TEMP_HI for t in c.temps)
        # Sorted by descending DCR; on a clean front quality is then
        # non-decreasing.
        dcrs = [c.dcr for c in front]
        assert dcrs == sorted(dcrs, reverse=True)
        quals = [c.quality for c in front]
        assert quals == sorted(quals)

        path = tmp_path / "front.csv"
        write_front_csv(front, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "temp_1,temp_2,dcr,quality"
        assert len(lines) == len(front) + 1

    def test_known_multi_point_front(self):
        """On objectives that trade off by construction, the search returns
        several mutually non-dominated candidates."""

        class TradeOff:
            # DCR rises with temps[0] and quality falls with it; temps[1]
            # only costs quality, so candidates with it far from 1 are
            # dominated.
            model = SimpleNamespace(n_fields=2)

            def evaluate(self, temps):
                return float(temps[0]), -float(temps[0]) - abs(float(temps[1]) - 1.0)

        front = pareto_search(TradeOff(), generations=3, population=8, seed=0)
        assert len(front) >= 3
        objs = [(c.dcr, c.quality) for c in front]
        assert not any(dominates(a, b) for a in objs for b in objs)
        for c in front:
            assert all(TEMP_LO <= t <= TEMP_HI for t in c.temps)
            assert (c.dcr, c.quality) == TradeOff().evaluate(c.temps)

    def test_each_distinct_vector_scored_once(self):
        class Counting:
            model = SimpleNamespace(n_fields=2)

            def __init__(self):
                self.calls = Counter()

            def evaluate(self, temps):
                self.calls[tuple(float(t) for t in temps)] += 1
                return float(temps[0]), -float(temps[0]) - abs(float(temps[1]) - 1.0)

        stub = Counting()
        pareto_search(stub, generations=3, population=8, seed=0)
        assert max(stub.calls.values()) == 1
        # The search offered 8 * (3 + 1) vectors, some of them repeats.
        assert len(stub.calls) < 8 * (3 + 1)

    def test_deterministic_search(self, evaluator):
        a = pareto_search(evaluator, generations=1, population=6, seed=5)
        b = pareto_search(evaluator, generations=1, population=6, seed=5)
        assert [(c.temps, c.dcr, c.quality) for c in a] == \
               [(c.temps, c.dcr, c.quality) for c in b]

    def test_empty_front_csv_errors(self, tmp_path):
        with pytest.raises(ValueError):
            write_front_csv([], str(tmp_path / "x.csv"))
