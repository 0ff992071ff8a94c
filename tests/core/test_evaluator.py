"""Seeded-random equivalence suite for the SplitEvaluator engine.

Every tier of the evaluator (scalar, incremental, batched, memoised) must
agree with the readable dict-based ``cost_for_split`` to 1e-9 across generated
instances of all four problem classes, including fractional-delta splits that
exercise the ceiling-snap logic.  The incremental tier, Python scalar code,
must also be bitwise-equal to its numpy formula (``NumpyIncremental``).
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Application,
    CloudPlatform,
    MinCostProblem,
    ProblemClass,
    SplitEvaluator,
    cost_for_split,
)
from repro.core.evaluator import _float64_sum, _snap_ceil, _snap_ceil_scalar
from repro.heuristics.neighborhood import (
    all_exchanges,
    exchange_move_arrays,
    exchange_moves,
    random_move,
    transfer,
)

# --------------------------------------------------------------------------- #
# instance generation (one builder per problem class of the paper)
# --------------------------------------------------------------------------- #


def _platform_for(types: list[int], rng: np.random.Generator) -> CloudPlatform:
    rows = [
        (t, int(rng.integers(5, 40)), int(rng.integers(1, 100)))
        for t in sorted(set(types))
    ]
    return CloudPlatform.from_table(rows)


def make_single_recipe(rng: np.random.Generator) -> MinCostProblem:
    types = [int(t) for t in rng.integers(1, 6, size=int(rng.integers(2, 7)))]
    app = Application.from_type_sequences([types], name="single")
    return MinCostProblem(app, _platform_for(types, rng), target_throughput=int(rng.integers(20, 120)))


def make_black_box(rng: np.random.Generator) -> MinCostProblem:
    num = int(rng.integers(2, 6))
    sequences = [[j + 1] for j in range(num)]
    flat = [j + 1 for j in range(num)]
    app = Application.from_type_sequences(sequences, name="blackbox")
    return MinCostProblem(app, _platform_for(flat, rng), target_throughput=int(rng.integers(20, 120)))


def make_no_shared_types(rng: np.random.Generator) -> MinCostProblem:
    num = int(rng.integers(2, 5))
    sequences, flat, next_type = [], [], 1
    for _ in range(num):
        size = int(rng.integers(2, 5))
        seq = [next_type + int(t) for t in rng.integers(0, 2, size=size)]
        next_type += 2
        sequences.append(seq)
        flat.extend(seq)
    app = Application.from_type_sequences(sequences, name="disjoint")
    return MinCostProblem(app, _platform_for(flat, rng), target_throughput=int(rng.integers(20, 120)))


def make_shared_types(rng: np.random.Generator) -> MinCostProblem:
    num = int(rng.integers(3, 7))
    pool = 4
    sequences = [
        [int(t) for t in rng.integers(1, pool + 1, size=int(rng.integers(2, 6)))]
        for _ in range(num)
    ]
    flat = list(range(1, pool + 1))
    app = Application.from_type_sequences(sequences, name="shared")
    return MinCostProblem(app, _platform_for(flat, rng), target_throughput=int(rng.integers(20, 120)))


MAKERS = {
    ProblemClass.SINGLE_RECIPE: make_single_recipe,
    ProblemClass.BLACK_BOX: make_black_box,
    ProblemClass.NO_SHARED_TYPES: make_no_shared_types,
    ProblemClass.SHARED_TYPES: make_shared_types,
}


def _reference_cost(problem: MinCostProblem, split: np.ndarray) -> float:
    """The readable dict-based cost — the oracle for every fast tier."""
    return cost_for_split(problem.application, problem.platform, split)


def _random_splits(problem: MinCostProblem, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Integer lattice splits plus fractional ones exercising the snap logic."""
    J, rho = problem.num_recipes, problem.target_throughput
    splits = []
    for _ in range(count):
        weights = rng.dirichlet(np.ones(J))
        integral = np.floor(weights * rho)
        integral[int(rng.integers(J))] += rho - integral.sum()
        splits.append(integral)
    # Fractional splits built from accumulated 0.1-sized transfers: sums like
    # 29.999999999999996 must still snap to the integer machine count.
    for _ in range(count):
        split = np.zeros(J)
        split[0] = float(rho)
        for _ in range(30):
            src, dst = rng.integers(J), rng.integers(J)
            if src != dst:
                split = transfer(split, int(src), int(dst), 0.1 * float(rng.integers(1, 9)))
        splits.append(split)
    return splits


# --------------------------------------------------------------------------- #
# equivalence of all tiers against the dict-based oracle
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("problem_class", sorted(MAKERS))
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestTierEquivalence:
    def _make(self, problem_class, seed):
        rng = np.random.default_rng(seed)
        problem = MAKERS[problem_class](rng)
        return problem, rng

    def test_generated_class_matches(self, problem_class, seed):
        problem, _ = self._make(problem_class, seed)
        assert problem.problem_class() == problem_class

    def test_scalar_evaluate_matches_oracle(self, problem_class, seed):
        problem, rng = self._make(problem_class, seed)
        evaluator = problem.evaluator
        for split in _random_splits(problem, rng, 8):
            assert evaluator.evaluate(split) == pytest.approx(
                _reference_cost(problem, split), abs=1e-9
            )
            # evaluate_split (validated slow path) agrees as well.
            assert problem.evaluate_split(split) == pytest.approx(
                _reference_cost(problem, split), abs=1e-9
            )

    def test_batched_evaluate_matches_oracle(self, problem_class, seed):
        problem, rng = self._make(problem_class, seed)
        splits = _random_splits(problem, rng, 6)
        costs = problem.evaluator.evaluate_batch(np.asarray(splits))
        for split, cost in zip(splits, costs):
            assert cost == pytest.approx(_reference_cost(problem, split), abs=1e-9)

    def test_incremental_walk_matches_oracle(self, problem_class, seed):
        problem, rng = self._make(problem_class, seed)
        evaluator = problem.evaluator
        split = np.zeros(problem.num_recipes)
        split[0] = problem.target_throughput
        cost = evaluator.reset(split)
        assert cost == pytest.approx(_reference_cost(problem, split), abs=1e-9)
        shadow = split.copy()
        for step in range(60):
            delta = float(rng.choice([0.1, 0.5, 1.0, 3.0, 10.0]))
            src, dst, moved = random_move(evaluator.current_split, delta, rng)
            scored, scored_moved = evaluator.score_exchange(src, dst, delta)
            cost, applied_moved = evaluator.apply_exchange(src, dst, delta)
            assert scored_moved == applied_moved
            shadow = transfer(shadow, src, dst, delta)
            expected = _reference_cost(problem, shadow)
            assert scored == pytest.approx(expected, abs=1e-9)
            assert cost == pytest.approx(expected, abs=1e-9)
            np.testing.assert_allclose(evaluator.current_split, shadow, atol=1e-12)
        # The maintained state never drifts from a cold recompute.
        assert cost == pytest.approx(evaluator.evaluate(shadow), abs=1e-9)

    def test_memoised_evaluate_matches_oracle(self, problem_class, seed):
        problem, rng = self._make(problem_class, seed)
        evaluator = SplitEvaluator.from_problem(problem, memo_capacity=1024)
        splits = _random_splits(problem, rng, 5)
        first = [evaluator.evaluate(s) for s in splits]
        again = [evaluator.evaluate(s) for s in splits]
        assert first == again
        assert evaluator.cache_hits >= len(splits)
        for split, cost in zip(splits, first):
            assert cost == pytest.approx(_reference_cost(problem, split), abs=1e-9)

    def test_batched_exchange_scores_match_scalar(self, problem_class, seed):
        problem, rng = self._make(problem_class, seed)
        evaluator = problem.evaluator
        split = _random_splits(problem, rng, 1)[0]
        evaluator.reset(split)
        delta = float(rng.choice([0.5, 1.0, 10.0]))
        srcs, dsts, moveds = exchange_move_arrays(split, delta)
        batch_costs = evaluator.score_exchanges(srcs, dsts, moveds)
        for k in range(srcs.size):
            scalar, _ = evaluator.score_exchange(int(srcs[k]), int(dsts[k]), delta)
            assert batch_costs[k] == pytest.approx(scalar, abs=1e-9)
            candidate = transfer(split, int(srcs[k]), int(dsts[k]), delta)
            assert batch_costs[k] == pytest.approx(_reference_cost(problem, candidate), abs=1e-9)


# --------------------------------------------------------------------------- #
# evaluator mechanics
# --------------------------------------------------------------------------- #


class TestEvaluatorMechanics:
    def test_requires_reset_before_incremental_use(self, illustrating_problem_70):
        evaluator = SplitEvaluator.from_problem(illustrating_problem_70)
        with pytest.raises(RuntimeError):
            evaluator.score_exchange(0, 1, 10)
        with pytest.raises(RuntimeError):
            _ = evaluator.current_split

    def test_noop_moves_keep_cost(self, illustrating_problem_70):
        evaluator = illustrating_problem_70.evaluator
        cost = evaluator.reset([70.0, 0.0, 0.0])
        assert evaluator.score_exchange(1, 2, 10) == (cost, 0.0)  # empty source
        assert evaluator.apply_exchange(0, 0, 10) == (cost, 0.0)  # src == dst
        assert evaluator.current_cost == cost

    def test_current_split_view_is_read_only(self, illustrating_problem_70):
        evaluator = illustrating_problem_70.evaluator
        evaluator.reset([70.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            evaluator.current_split[0] = 1.0

    def test_reset_does_not_alias_caller_array(self, illustrating_problem_70):
        evaluator = illustrating_problem_70.evaluator
        start = np.array([70.0, 0.0, 0.0])
        evaluator.reset(start)
        evaluator.apply_exchange(0, 1, 10)
        assert start.tolist() == [70.0, 0.0, 0.0]

    def test_negative_split_entries_never_subtract_cost(self):
        # The trusted hot path clamps non-positive loads to zero machines
        # (like the scalar _ceil_div_exact) instead of renting -1 machines.
        evaluator = SplitEvaluator(
            np.array([[1.0], [1.0]]), np.array([10.0]), np.array([5.0])
        )
        assert evaluator.evaluate(np.array([-50.0, 40.0])) == 0.0
        assert evaluator.evaluate(np.array([-50.0, 60.0])) == 5.0

    def test_clone_isolates_incremental_state(self, illustrating_problem_70):
        # Two interleaved searches on the same problem must not corrupt each
        # other's current split (the cached problem.evaluator is shared).
        walk_a = illustrating_problem_70.evaluator.clone()
        walk_b = illustrating_problem_70.evaluator.clone()
        cost_a = walk_a.reset([70.0, 0.0, 0.0])
        walk_b.reset([0.0, 70.0, 0.0])
        walk_b.apply_exchange(1, 2, 30)
        assert walk_a.current_split.tolist() == [70.0, 0.0, 0.0]
        assert walk_a.current_cost == cost_a
        assert walk_b.current_split.tolist() == [0.0, 40.0, 30.0]

    def test_memo_never_aliases_across_ceiling_boundary(self):
        # Two splits 4e-10 apart straddle a machine-count ceiling (load ratio
        # 1 - 1.6e-9 vs 1 + 1.6e-9 with the 1e-9 snap window): the memo must
        # not return the first's cached cost for the second.
        evaluator = SplitEvaluator(
            np.array([[40.0]]), np.array([5.0]), np.array([7.0]), memo_capacity=16
        )
        below = evaluator.evaluate(np.array([0.125 - 2e-10]))
        above = evaluator.evaluate(np.array([0.125 + 2e-10]))
        assert below == 7.0
        assert above == 14.0

    def test_memo_capacity_bounds_cache(self, illustrating_problem_70):
        evaluator = SplitEvaluator.from_problem(illustrating_problem_70, memo_capacity=4)
        for k in range(12):
            evaluator.evaluate([70.0 - k, float(k), 0.0])
        assert evaluator.cache_info()["size"] <= 4

    def test_batch_shape_validation(self, illustrating_problem_70):
        evaluator = illustrating_problem_70.evaluator
        with pytest.raises(ValueError):
            evaluator.evaluate_batch(np.zeros((3, 5)))

    def test_known_illustrating_costs(self, illustrating_problem_70):
        # Table III at rho = 70: the optimal split costs 124.
        evaluator = illustrating_problem_70.evaluator
        optimum = 124.0
        costs = evaluator.evaluate_batch(np.eye(3) * 70.0)
        assert float(costs.min()) >= optimum


# --------------------------------------------------------------------------- #
# index-move generators agree with the copying wrappers
# --------------------------------------------------------------------------- #


class TestMoveGenerators:
    def test_exchange_moves_matches_all_exchanges(self):
        split = np.array([10.0, 0.0, 5.0, 2.5])
        moves = list(exchange_moves(split, 4.0))
        wrapped = list(all_exchanges(split, 4.0))
        assert len(moves) == len(wrapped)
        for (src, dst, moved), (candidate, wsrc, wdst) in zip(moves, wrapped):
            assert (src, dst) == (wsrc, wdst)
            assert moved == min(4.0, split[src])
            np.testing.assert_allclose(candidate, transfer(split, src, dst, 4.0))

    def test_exchange_move_arrays_matches_generator(self):
        split = np.array([10.0, 0.0, 5.0, 2.5])
        srcs, dsts, moveds = exchange_move_arrays(split, 4.0)
        expected = list(exchange_moves(split, 4.0))
        assert list(zip(srcs.tolist(), dsts.tolist(), moveds.tolist())) == expected

    def test_exchange_move_arrays_empty_cases(self):
        srcs, dsts, moveds = exchange_move_arrays(np.zeros(3), 1.0)
        assert srcs.size == dsts.size == moveds.size == 0
        srcs, _, _ = exchange_move_arrays(np.array([5.0]), 1.0)
        assert srcs.size == 0


# --------------------------------------------------------------------------- #
# the scalar incremental tier is bitwise-equal to its numpy formula
# --------------------------------------------------------------------------- #


def _bits(value: float) -> bytes:
    """Packed IEEE bytes, so that -0.0 against 0.0 (and NaN) shows."""
    return struct.pack("<d", value)


class NumpyIncremental:
    """The incremental tier as numpy code: ``_snap_ceil`` over the pair's type mask."""

    def __init__(self, counts, rates, costs):
        self.counts = np.asarray(counts, dtype=float)
        self.inv_rates = 1.0 / np.asarray(rates, dtype=float)
        self.costs = np.asarray(costs, dtype=float)

    def reset(self, split):
        self.split = np.array(split, dtype=float)
        self.loads = self.split @ self.counts
        self.type_cost = _snap_ceil(self.loads * self.inv_rates) * self.costs
        self.cost = float(self.type_cost.sum())
        return self.cost

    def _move(self, src, dst, delta):
        moved = min(float(delta), float(self.split[src])) if src != dst else 0.0
        if moved <= 0.0:
            return moved, None, None
        idx = np.union1d(np.flatnonzero(self.counts[src]), np.flatnonzero(self.counts[dst]))
        new_loads = self.loads[idx] + moved * (self.counts[dst, idx] - self.counts[src, idx])
        new_type_cost = _snap_ceil(new_loads * self.inv_rates[idx]) * self.costs[idx]
        return moved, idx, (new_loads, new_type_cost)

    def score(self, src, dst, delta):
        moved, idx, new = self._move(src, dst, delta)
        if idx is None:
            return self.cost, 0.0
        return float(self.cost - self.type_cost[idx].sum() + new[1].sum()), moved

    def apply(self, src, dst, delta):
        moved, idx, new = self._move(src, dst, delta)
        if idx is None:
            return self.cost, 0.0
        self.split[src] -= moved
        self.split[dst] += moved
        self.loads[idx], self.type_cost[idx] = new
        self.cost = float(self.type_cost.sum())
        return self.cost, moved


@st.composite
def _near_boundary_walks(draw):
    """A (counts, rates, costs, start split, delta, walk seed) tuple.

    Splits, ``delta`` and rates are multiples of 0.1 (with accumulated
    rounding), and each rate is perturbed by a relative -2e-9..2e-9, so
    many loads sit within 1e-9 (relative) of a machine-count boundary, on
    either side of the snap.  One split entry is negative.
    """
    J = draw(st.integers(min_value=2, max_value=12))
    Q = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))
    counts = rng.integers(1, 4, size=(J, Q)) * (rng.random((J, Q)) < density)
    tilt = rng.choice([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9], size=Q)
    rates = 0.1 * rng.integers(1, 4, size=Q) * (1.0 + tilt)
    costs = rng.uniform(0.5, 60.0, size=Q)
    split = 0.1 * rng.integers(0, 200, size=J) * (rng.random(J) < 0.7)
    split[int(rng.integers(J))] = -0.1 * float(rng.integers(1, 50))
    delta = 0.1 * draw(st.integers(min_value=1, max_value=60))
    return counts, rates, costs, split, delta, int(rng.integers(2**32))


class TestScalarTierMatchesNumpy:
    @given(case=_near_boundary_walks())
    @settings(max_examples=120, deadline=None)
    def test_walk_costs_are_bitwise_equal(self, case):
        counts, rates, costs, split, delta, seed = case
        evaluator = SplitEvaluator(counts, rates, costs)
        reference = NumpyIncremental(counts, rates, costs)
        assert _bits(evaluator.reset(split)) == _bits(reference.reset(split))
        rng = np.random.default_rng(seed)
        J = split.size
        for _ in range(40):
            src, dst = int(rng.integers(J)), int(rng.integers(J))
            action = rng.integers(3)
            if action == 0:  # score only
                got, want = evaluator.score_exchange(src, dst, delta), reference.score(src, dst, delta)
            elif action == 1:  # score, then apply the scored move
                got, want = evaluator.score_exchange(src, dst, delta), reference.score(src, dst, delta)
                assert [_bits(v) for v in got] == [_bits(v) for v in want]
                got, want = evaluator.apply_exchange(src, dst, delta), reference.apply(src, dst, delta)
            else:  # apply unscored
                got, want = evaluator.apply_exchange(src, dst, delta), reference.apply(src, dst, delta)
            assert [_bits(v) for v in got] == [_bits(v) for v in want]
            assert _bits(evaluator.current_cost) == _bits(reference.cost)
            assert evaluator.current_split.tobytes() == reference.split.tobytes()
        # the batched tier reads the same state
        srcs, dsts, moveds = exchange_move_arrays(reference.split, delta)
        if srcs.size:
            batched = reference.loads + moveds[:, None] * (counts[dsts] - counts[srcs])
            expected = _snap_ceil(batched * (1.0 / rates)) @ costs
            assert evaluator.score_exchanges(srcs, dsts, moveds).tobytes() == expected.tobytes()

    def test_snap_ceil_scalar_matches_each_element(self):
        ints = np.arange(-3.0, 40.0)
        ratios = np.concatenate([
            ints,
            ints + 0.5,
            ints * (1 + 9e-10),
            ints * (1 - 9e-10),
            ints * (1 + 1.1e-9),
            np.nextafter(ints, np.inf),
            [0.0, -0.0, -1e-12, 1e-12, 2.0**51 + 0.5, 2.0**52, 2.0**52 + 2, -(2.0**53),
             1e300, -1e300, 5e-324, np.inf, -np.inf, np.nan],
        ])
        with np.errstate(invalid="ignore"):
            expected = _snap_ceil(ratios)
        got = [float(_snap_ceil_scalar(r)) for r in ratios.tolist()]
        assert [_bits(v) for v in got] == [_bits(v) for v in expected.tolist()]

    @pytest.mark.parametrize("length", [*range(0, 40), 64, 100, 127, 128, 129, 200, 300])
    def test_float64_sum_adds_in_numpys_order(self, length):
        rng = np.random.default_rng(length)
        for _ in range(20):
            values = rng.standard_normal(length) * 10.0 ** rng.integers(-8, 9, length)
            assert _bits(_float64_sum(values.tolist())) == _bits(float(values.sum()))
        zeros = np.full(length, -0.0)
        assert _bits(_float64_sum(zeros.tolist())) == _bits(float(zeros.sum()))
