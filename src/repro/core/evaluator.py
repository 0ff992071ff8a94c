"""Fast split evaluation: the incremental / batched / memoised engine.

Every local-search heuristic of Section VI and the enumeration-based exact
solvers score thousands to millions of candidate throughput splits.  The
readable dictionary-based formulas of :mod:`repro.core.cost` and the validated
:meth:`repro.core.problem.MinCostProblem.evaluate_split` stay the reference
slow path; this module provides the hot path all optimisation loops funnel
through, with three tiers:

1. **Incremental** (:meth:`SplitEvaluator.reset`,
   :meth:`SplitEvaluator.score_exchange`,
   :meth:`SplitEvaluator.apply_exchange`): the evaluator carries the current
   split, its per-type loads and its per-type rental costs.  A throughput
   exchange ``(src, dst, delta)`` only changes the loads of the types used by
   the two recipes involved, so scoring it costs ``O(|types(src) ∪
   types(dst)|)`` instead of a dense ``O(J·Q)`` matvec.  The pair's types and
   count differences are cached once per ``(src, dst)`` pair as Python lists,
   and the loads and per-type costs are kept as lists of Python floats: on
   masks of a handful of types, scalar arithmetic is several times cheaper
   than numpy's per-call overhead.  :func:`_snap_ceil_scalar` repeats
   :func:`_snap_ceil`'s IEEE operations element by element and
   :func:`_float64_sum` adds in ``ndarray.sum``'s order, so each cost is
   bitwise-equal to the vectorised formula's.
2. **Batched** (:meth:`SplitEvaluator.evaluate_batch`,
   :meth:`SplitEvaluator.score_exchanges`): a whole neighbourhood of ``K``
   candidates is scored with a single ``(K, J) @ (J, Q)`` GEMM (or, for
   exchange neighbourhoods, a rank-1 update of the current load vector),
   a vectorised snap-then-ceil and one matvec with the cost vector.
3. **Memoised** (:meth:`SplitEvaluator.evaluate` and
   :meth:`SplitEvaluator.score_exchange` when ``memo_capacity > 0``): lattice
   searches that re-score revisited states (H31 stochastic descent, simulated
   annealing, repeated full evaluations) hit a cache keyed on the exact split
   bytes instead of recomputing.  Only bitwise-identical revisits hit — a
   tolerance-based key could alias two splits that sit on opposite sides of a
   machine-count ceiling and return a wrong cached cost.

All tiers use the exact ceiling-snap formula of
:func:`repro.core.cost.machines_vector`, so their costs agree with
``evaluate_split`` to the model's 1e-9 tolerance (bitwise on the paper's
integer-cost instances).  :func:`_snap_ceil` serves :meth:`~SplitEvaluator.reset`
and the batched tiers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .problem import MinCostProblem

__all__ = ["SplitEvaluator"]


def _snap_ceil(ratio: np.ndarray) -> np.ndarray:
    """Vectorised ``ceil`` with the 1e-9 integer snap of ``_ceil_div_exact``.

    Returns a float array with integral values (kept float so the downstream
    dot products stay in one dtype; machine counts fit a double exactly).
    Non-positive loads need zero machines — the clamp mirrors the scalar
    ``_ceil_div_exact`` so a (garbage) negative split entry can never
    *subtract* cost.
    """
    nearest = np.rint(ratio)
    snapped = np.where(
        np.abs(ratio - nearest) <= 1e-9 * np.maximum(1.0, np.abs(nearest)),
        nearest,
        np.ceil(ratio),
    )
    return np.maximum(snapped, 0.0)


def _snap_ceil_scalar(ratio: float) -> int | float:
    """:func:`_snap_ceil` of one Python float, bit for bit.

    ``round`` rounds half to even as ``np.rint`` does, and ``math.ceil`` is
    ``np.ceil``; both return ints, which convert to the same doubles when the
    caller multiplies.  ``±inf`` and NaN, which ``round`` refuses, pass
    through ``np.rint`` and ``np.ceil`` unchanged.  The clamp keeps
    ``np.maximum(x, 0.0)``'s semantics: a zero of either sign becomes
    ``+0.0``, NaN stays NaN.
    """
    try:
        nearest = round(ratio)
    except (OverflowError, ValueError):
        snapped = ratio
    else:
        magnitude = abs(nearest)
        if abs(ratio - nearest) <= 1e-9 * (magnitude if magnitude > 1 else 1.0):
            snapped = nearest
        else:
            snapped = math.ceil(ratio)
    return 0.0 if snapped <= 0 else snapped


def _float64_sum(values: list[float]) -> float:
    """``np.sum`` of a float64 vector, bit for bit, over Python floats.

    numpy adds the vector's pairwise sum to 0.0: fewer than 8 terms left to
    right, up to 128 in eight interleaved accumulators combined pairwise and
    then the remaining terms, and longer vectors as two halves (the first a
    multiple of 8 long) summed the same way.  A left-to-right loop differs
    from that from 8 terms on, and the builtin ``sum`` compensates rounding
    error from Python 3.12 on.  numpy adds the 0.0 once, to the whole sum;
    adding it to each half as well only turns a ``-0.0`` half into ``+0.0``,
    which changes no total (a zero total is ``+0.0`` either way).
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _float64_sum(values[:half]) + _float64_sum(values[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    body = n - n % 8
    for i in range(8, body, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(body, n):
        total += values[i]
    return 0.0 + total


class SplitEvaluator:
    """Incremental + batched + memoised split scoring for one problem instance.

    Parameters
    ----------
    counts:
        ``(J, Q)`` matrix of ``n^j_q`` in canonical type order.
    rates:
        ``(Q,)`` throughput vector ``r_q``.
    costs:
        ``(Q,)`` cost vector ``c_q``.
    memo_capacity:
        Maximum number of memoised split costs (0 disables the cache).  The
        cache is cleared wholesale when full — revisit-heavy walks stay fast
        and memory stays bounded.  Keys are the exact float bytes of the
        split, so only bitwise-identical revisits hit (exact on the integer
        lattices the searches walk; never a wrong cost for continuous splits).
    """

    def __init__(
        self,
        counts: np.ndarray,
        rates: np.ndarray,
        costs: np.ndarray,
        *,
        memo_capacity: int = 0,
    ) -> None:
        counts = np.ascontiguousarray(counts, dtype=float)
        rates = np.ascontiguousarray(rates, dtype=float)
        costs = np.ascontiguousarray(costs, dtype=float)
        if counts.ndim != 2:
            raise ValueError(f"counts must be a (J, Q) matrix, got shape {counts.shape}")
        if rates.shape != (counts.shape[1],) or costs.shape != (counts.shape[1],):
            raise ValueError(
                f"rates/costs must have shape ({counts.shape[1]},), "
                f"got {rates.shape} and {costs.shape}"
            )
        if np.any(rates <= 0):
            raise ValueError("rates must be strictly positive")
        if memo_capacity < 0:
            raise ValueError(f"memo_capacity must be non-negative, got {memo_capacity}")
        self._counts = counts
        self._rates = rates
        self._inv_rates = 1.0 / rates
        self._costs = costs
        self.num_recipes, self.num_types = counts.shape
        # Python-float copies of the per-type constants for the scalar tier 1.
        self._inv_rate_list: list[float] = self._inv_rates.tolist()
        self._cost_list: list[float] = costs.tolist()
        # Lazily built per-(src, dst) union of used types and count difference.
        self._pair_cache: dict[tuple[int, int], tuple[list[int], list[float]]] = {}
        # Memo cache (tier 3).
        self._memo: dict[bytes, float] | None = {} if memo_capacity else None
        self._memo_capacity = int(memo_capacity)
        self.cache_hits = 0
        self.cache_misses = 0
        # Incremental state (tier 1); populated by reset().  The split stays an
        # array (its bytes are the memo key); loads and per-type costs are
        # Python floats.
        self._split: np.ndarray | None = None
        self._split_view: np.ndarray | None = None
        self._loads: list[float] | None = None
        self._type_cost: list[float] | None = None
        self._cost = np.inf
        # Last computed score, reused by apply_exchange() after score_exchange().
        self._scored: tuple[int, int, float, list[int], list[float], list[float]] | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_problem(cls, problem: "MinCostProblem", **kwargs) -> "SplitEvaluator":
        """Evaluator over a problem's cached ``counts`` / ``rates`` / ``costs``."""
        return cls(problem.counts, problem.rates, problem.costs, **kwargs)

    def clone(self) -> "SplitEvaluator":
        """A sibling evaluator with private incremental state and memo.

        The stateless tiers (:meth:`evaluate`, :meth:`evaluate_batch`) of a
        shared evaluator are safe to call from anywhere, but the incremental
        tier carries the *current* split of exactly one search.  Each search
        therefore clones the problem's evaluator: the immutable precomputes
        (count matrix, per-type constants, lazily filled pair cache) are
        shared, while ``reset``/``apply_exchange`` state and the memo are
        per-clone.
        """
        twin = object.__new__(SplitEvaluator)
        twin.__dict__.update(self.__dict__)
        twin._memo = {} if self._memo_capacity else None
        twin.cache_hits = 0
        twin.cache_misses = 0
        twin._split = None
        twin._split_view = None
        twin._loads = None
        twin._type_cost = None
        twin._cost = np.inf
        twin._scored = None
        return twin

    # ------------------------------------------------------------------ #
    # stateless tiers: single and batched evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, split: Sequence[float] | np.ndarray) -> float:
        """Cost of one split (memo-aware, no validation — the trusted hot path)."""
        values = np.ascontiguousarray(split, dtype=float)
        key = None
        if self._memo is not None:
            key = values.tobytes()
            cached = self._memo.get(key)
            if cached is not None:
                self.cache_hits += 1
                return cached
            self.cache_misses += 1
        loads = values @ self._counts
        cost = float((_snap_ceil(loads * self._inv_rates) * self._costs).sum())
        if key is not None:
            self._memo_store(key, cost)
        return cost

    def evaluate_batch(self, splits: np.ndarray) -> np.ndarray:
        """Costs of ``K`` stacked splits via one ``(K, J) @ (J, Q)`` GEMM.

        The memo cache is bypassed: per-row dictionary lookups would cost more
        than the GEMM itself for the neighbourhood sizes of Section VI.
        """
        stacked = np.asarray(splits, dtype=float)
        if stacked.ndim != 2 or stacked.shape[1] != self.num_recipes:
            raise ValueError(
                f"splits must have shape (K, {self.num_recipes}), got {stacked.shape}"
            )
        loads = stacked @ self._counts  # (K, Q)
        machines = _snap_ceil(loads * self._inv_rates)
        return machines @ self._costs

    # ------------------------------------------------------------------ #
    # incremental tier
    # ------------------------------------------------------------------ #
    def reset(self, split: Sequence[float] | np.ndarray) -> float:
        """Set the current split and return its cost (full O(J·Q) recompute)."""
        values = np.array(split, dtype=float)
        if values.shape != (self.num_recipes,):
            raise ValueError(
                f"split must have shape ({self.num_recipes},), got {values.shape}"
            )
        loads = values @ self._counts
        type_cost = _snap_ceil(loads * self._inv_rates) * self._costs
        self._split = values
        self._split_view = values.view()
        self._split_view.setflags(write=False)
        self._loads = loads.tolist()
        self._type_cost = type_cost.tolist()
        self._cost = float(type_cost.sum())
        self._scored = None
        return self._cost

    @property
    def current_split(self) -> np.ndarray:
        """Read-only view of the current split (call :meth:`reset` first)."""
        if self._split_view is None:
            raise RuntimeError("no current split: call reset() first")
        return self._split_view

    @property
    def current_cost(self) -> float:
        if self._split is None:
            raise RuntimeError("no current split: call reset() first")
        return self._cost

    def score_exchange(self, src: int, dst: int, delta: float) -> tuple[float, float]:
        """Cost after moving ``min(delta, split[src])`` from ``src`` to ``dst``.

        Does not change the current state.  Returns ``(cost, moved)``; only the
        types used by the two recipes are touched (O(Q) worst case, typically
        far fewer), and with the memo enabled a revisited lattice point is a
        dictionary hit.
        """
        if self._split is None:
            raise RuntimeError("no current split: call reset() first")
        moved = min(float(delta), float(self._split[src])) if src != dst else 0.0
        if moved <= 0.0:
            return self._cost, 0.0
        key = None
        if self._memo is not None:
            key = self._candidate_key(src, dst, moved)
            cached = self._memo.get(key)
            if cached is not None:
                self.cache_hits += 1
                self._scored = None
                return cached, moved
            self.cache_misses += 1
        types, new_loads, new_type_cost = self._exchange(src, dst, moved)
        type_cost = self._type_cost
        old_type_cost = [type_cost[t] for t in types]
        cost = self._cost - _float64_sum(old_type_cost) + _float64_sum(new_type_cost)
        if key is not None:
            self._memo_store(key, cost)
        self._scored = (src, dst, moved, types, new_loads, new_type_cost)
        return cost, moved

    def apply_exchange(self, src: int, dst: int, delta: float) -> tuple[float, float]:
        """Commit an exchange and return ``(new_cost, moved)`` (O(Q) update)."""
        if self._split is None:
            raise RuntimeError("no current split: call reset() first")
        moved = min(float(delta), float(self._split[src])) if src != dst else 0.0
        if moved <= 0.0:
            return self._cost, 0.0
        scored = self._scored
        if scored is not None and scored[0] == src and scored[1] == dst and scored[2] == moved:
            _, _, _, types, new_loads, new_type_cost = scored
        else:
            types, new_loads, new_type_cost = self._exchange(src, dst, moved)
        self._split[src] -= moved
        self._split[dst] += moved
        loads, type_cost = self._loads, self._type_cost
        for t, load, cost in zip(types, new_loads, new_type_cost):
            loads[t] = load
            type_cost[t] = cost
        # Summing the per-type costs (instead of accumulating deltas) keeps the
        # running cost bitwise-equal to a full recompute, with no drift.
        self._cost = _float64_sum(type_cost)
        self._scored = None
        return self._cost, moved

    def score_exchanges(
        self, srcs: np.ndarray, dsts: np.ndarray, moveds: np.ndarray
    ) -> np.ndarray:
        """Score ``K`` exchanges from the current state in one batched pass.

        ``loads_k = loads + moved_k * (counts[dst_k] - counts[src_k])`` is a
        rank-1 update per candidate, evaluated as one ``(K, Q)`` array
        expression — the engine behind the H32 full-neighbourhood descent.
        """
        if self._split is None:
            raise RuntimeError("no current split: call reset() first")
        srcs = np.asarray(srcs, dtype=np.intp)
        dsts = np.asarray(dsts, dtype=np.intp)
        moveds = np.asarray(moveds, dtype=float)
        if not (srcs.shape == dsts.shape == moveds.shape):
            raise ValueError("srcs, dsts and moveds must have identical shapes")
        if srcs.size == 0:
            return np.empty(0)
        loads = np.array(self._loads) + moveds[:, None] * (self._counts[dsts] - self._counts[srcs])
        machines = _snap_ceil(loads * self._inv_rates)
        return machines @ self._costs

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _pair_info(self, src: int, dst: int) -> tuple[list[int], list[float]]:
        """Types either recipe uses, ascending, and their count difference (cached)."""
        cached = self._pair_cache.get((src, dst))
        if cached is None:
            types = np.flatnonzero(np.logical_or(self._counts[src], self._counts[dst]))
            diff = self._counts[dst, types] - self._counts[src, types]
            cached = (types.tolist(), diff.tolist())
            self._pair_cache[(src, dst)] = cached
        return cached

    def _exchange(
        self, src: int, dst: int, moved: float
    ) -> tuple[list[int], list[float], list[float]]:
        """The pair's types with their loads and costs after moving ``moved``.

        Element for element the arithmetic of ``_snap_ceil((loads[types] +
        moved * diff) * inv_rates[types]) * costs[types]``.
        """
        types, diff = self._pair_info(src, dst)
        loads, inv_rates, costs = self._loads, self._inv_rate_list, self._cost_list
        new_loads = []
        new_type_cost = []
        for t, count_diff in zip(types, diff):
            load = loads[t] + moved * count_diff
            new_loads.append(load)
            new_type_cost.append(_snap_ceil_scalar(load * inv_rates[t]) * costs[t])
        return types, new_loads, new_type_cost

    def _candidate_key(self, src: int, dst: int, moved: float) -> bytes:
        # Exactly the arithmetic apply_exchange() performs, so a later apply of
        # the same move lands on the same key.
        candidate = self._split.copy()
        candidate[src] -= moved
        candidate[dst] += moved
        return candidate.tobytes()

    def _memo_store(self, key: bytes, cost: float) -> None:
        assert self._memo is not None
        if len(self._memo) >= self._memo_capacity:
            self._memo.clear()
        self._memo[key] = cost

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict[str, int]:
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._memo) if self._memo is not None else 0,
            "capacity": self._memo_capacity,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SplitEvaluator(J={self.num_recipes}, Q={self.num_types}, "
            f"memo={self._memo_capacity})"
        )
