"""NSGA-II style search over per-field sampling temperatures.

Objectives are (privacy, quality) = (DCR, downstream score), both
maximized. The final population's non-dominated set approximates the
privacy/quality Pareto front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import decode_table
from .generation import GenerationSpec, generate
from .metrics import MetricSpace, dcr, mle_proxy
from .model import TabMTModel
from .schema import RawTable, write_rows

TEMP_LO = 0.5
TEMP_HI = 5.0
MUTATION_SIGMA = 0.25  # standard deviation of a mutated temperature's step


@dataclass
class TempCandidate:
    temps: tuple[float, ...]
    dcr: float
    quality: float


class CandidateEvaluator:
    """Generates rows at a temperature vector and scores (DCR, quality)."""

    def __init__(self, model: TabMTModel, space: MetricSpace,
                 real_train: RawTable, real_test: RawTable,
                 target_index: int, task: str, eval_budget: int = 1000,
                 seed: int = 0):
        if eval_budget < 1:
            raise ValueError("eval_budget must be at least 1")
        self.model = model
        self.space = space
        self.train_vectors = space.transform(real_train)
        self.real_test = real_test
        self.target_index = target_index
        self.task = task
        self.eval_budget = eval_budget
        self.seed = seed

    def evaluate(self, temps) -> tuple[float, float]:
        spec = GenerationSpec(count=self.eval_budget, temps=tuple(temps),
                              seed=self.seed)
        tokens = generate(self.model, spec)
        tokens.schema = self.real_test.schema
        synth = decode_table(tokens, self.model.codecs)
        d = dcr(self.space.transform(synth), self.train_vectors)
        q = mle_proxy(synth, self.real_test, self.space, self.target_index,
                      self.task, seed=self.seed)
        return d, q


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """a dominates b when >= on both maximized objectives and > on one."""
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


def _non_dominated_sort(objs: list[tuple[float, float]]) -> list[list[int]]:
    n = len(objs)
    dominated_by = [[] for _ in range(n)]
    dom_count = [0] * n
    fronts: list[list[int]] = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(objs[i], objs[j]):
                dominated_by[i].append(j)
            elif dominates(objs[j], objs[i]):
                dom_count[i] += 1
        if dom_count[i] == 0:
            fronts[0].append(i)
    k = 0
    while fronts[k]:
        nxt = []
        for i in fronts[k]:
            for j in dominated_by[i]:
                dom_count[j] -= 1
                if dom_count[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
        k += 1
    return fronts[:-1]


def _crowding(objs: list[tuple[float, float]], front: list[int]) -> dict[int, float]:
    dist = {i: 0.0 for i in front}
    for m in range(2):
        order = sorted(front, key=lambda i: objs[i][m])
        lo, hi = objs[order[0]][m], objs[order[-1]][m]
        dist[order[0]] = dist[order[-1]] = np.inf
        span = hi - lo
        if span <= 0:
            continue
        for a, b, c in zip(order, order[1:], order[2:]):
            dist[b] += (objs[c][m] - objs[a][m]) / span
    return dist


def pareto_search(evaluator: CandidateEvaluator, generations: int = 10,
                  population: int = 24, seed: int = 0) -> list[TempCandidate]:
    """Evolve temperature vectors and return the non-dominated set,
    sorted by descending DCR."""
    if population < 4:
        raise ValueError("population must be at least 4")
    if generations < 0:
        raise ValueError("generations must be at least 0")
    rng = np.random.default_rng(seed)
    l = evaluator.model.n_fields
    mut_rate = 1.0 / l

    def clip(t):
        return np.clip(t, TEMP_LO, TEMP_HI)

    # The evaluator's seed is fixed, so a repeated vector scores the same.
    scored: dict[tuple[float, ...], tuple[float, float]] = {}

    def score(t):
        key = tuple(t.tolist())
        if key not in scored:
            scored[key] = evaluator.evaluate(t)
        return scored[key]

    pop = [clip(rng.uniform(TEMP_LO, TEMP_HI, l)) for _ in range(population)]
    objs = [score(t) for t in pop]

    for _ in range(generations):
        fronts = _non_dominated_sort(objs)
        rank = {}
        crowd = {}
        for r, front in enumerate(fronts):
            cd = _crowding(objs, front)
            for i in front:
                rank[i] = r
                crowd[i] = cd[i]

        def tournament():
            a, b = rng.integers(0, len(pop), 2)
            if rank[a] != rank[b]:
                return pop[a] if rank[a] < rank[b] else pop[b]
            return pop[a] if crowd[a] >= crowd[b] else pop[b]

        children = []
        while len(children) < population:
            p1, p2 = tournament(), tournament()
            pick = rng.random(l) < 0.5
            child = np.where(pick, p1, p2)
            mutate = rng.random(l) < mut_rate
            child = child + mutate * rng.normal(0, MUTATION_SIGMA, l)
            children.append(clip(child))
        child_objs = [score(t) for t in children]

        # Environmental selection over parents + children.
        all_pop = pop + children
        all_objs = objs + child_objs
        fronts = _non_dominated_sort(all_objs)
        new_pop, new_objs = [], []
        for front in fronts:
            if len(new_pop) + len(front) <= population:
                chosen = front
            else:
                cd = _crowding(all_objs, front)
                chosen = sorted(front, key=lambda i: cd[i], reverse=True)
                chosen = chosen[: population - len(new_pop)]
            for i in chosen:
                new_pop.append(all_pop[i])
                new_objs.append(all_objs[i])
            if len(new_pop) >= population:
                break
        pop, objs = new_pop, new_objs

    final_front = _non_dominated_sort(objs)[0]
    cands = [
        TempCandidate(temps=tuple(float(x) for x in pop[i]),
                      dcr=objs[i][0], quality=objs[i][1])
        for i in final_front
    ]
    # Duplicate objective pairs would re-enter via non-strict dominance;
    # keep one representative each.
    seen = set()
    unique = []
    for c in sorted(cands, key=lambda c: -c.dcr):
        key = (round(c.dcr, 12), round(c.quality, 12))
        if key not in seen:
            seen.add(key)
            unique.append(c)
    return unique


def write_front_csv(front: list[TempCandidate], path: str):
    if not front:
        raise ValueError("empty Pareto front")
    l = len(front[0].temps)
    write_rows(path, [f"temp_{j + 1}" for j in range(l)] + ["dcr", "quality"],
               ([f"{t:.6g}" for t in c.temps] + [f"{c.dcr:.6g}", f"{c.quality:.6g}"]
                for c in front))
