"""Throughput-exchange moves shared by the local-search heuristics.

All iterative heuristics of Section VI explore the same neighbourhood: pick two
recipes ``j1 != j2`` and move an amount ``delta`` of throughput from ``j1`` to
``j2``.  Following the paper, when the source recipe holds less than ``delta``
its whole throughput is moved, so the total throughput is always preserved and
no component ever becomes negative.

Two families of primitives are provided:

* **index moves** (:func:`exchange_moves`, :func:`exchange_move_arrays`,
  :func:`random_move`) describe a move as ``(src, dst, moved)`` without
  materialising the resulting split — the form consumed by the O(Q)
  incremental and batched tiers of
  :class:`repro.core.evaluator.SplitEvaluator`.  :func:`random_move`, drawn
  once per iteration of H2, H31 and H4-SA, works on a Python list of the
  split and draws only with ``rng.integers``: the same draws, and the same
  generator state afterwards, as ``rng.choice`` over the loaded recipes, at
  a fraction of the cost on arrays of a few elements;
* **split copies** (:func:`transfer`, :func:`all_exchanges`,
  :func:`random_exchange`) build the full candidate array.  ``all_exchanges``
  and ``random_exchange`` are kept as thin compatibility wrappers over the
  index-move generators for external callers; the heuristics themselves no
  longer allocate one O(J) copy per neighbour.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "transfer",
    "random_move",
    "random_exchange",
    "exchange_moves",
    "exchange_move_arrays",
    "all_exchanges",
    "random_split",
]


def transfer(split: np.ndarray, src: int, dst: int, delta: float) -> np.ndarray:
    """Return a new split with ``delta`` moved from ``src`` to ``dst``.

    Mirrors the H2 description: "if rho_j1 < delta, rho_j1 becomes equal to
    zero and rho_j2 equal to rho_j2 + rho_j1".
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if src == dst:
        return split.copy()
    moved = min(delta, split[src])
    out = split.copy()
    out[src] -= moved
    out[dst] += moved
    return out


def random_move(
    split: np.ndarray, delta: float, rng: np.random.Generator, *, require_source_load: bool = True
) -> tuple[int, int, float]:
    """Draw one random exchange as an index move ``(src, dst, moved)``.

    Parameters
    ----------
    require_source_load:
        When true the source recipe is drawn among recipes that currently hold
        some throughput (otherwise the move would be a no-op); this matches the
        intent of the paper's random walk, which always changes the solution.
        When no recipe holds throughput (or there is a single recipe) the
        degenerate move ``(0, 0, 0.0)`` is returned.
    """
    n = split.size
    if n < 2:
        return 0, 0, 0.0
    values = split.tolist()
    if require_source_load:
        loaded = [j for j, held in enumerate(values) if held > 0]
        if not loaded:
            return 0, 0, 0.0
        # Generator.choice(loaded) draws exactly integers(0, len(loaded)).
        src = loaded[rng.integers(len(loaded))]
    else:
        src = int(rng.integers(n))
    dst = int(rng.integers(n - 1))
    if dst >= src:
        dst += 1
    return src, dst, float(min(delta, values[src]))


def random_exchange(
    split: np.ndarray, delta: float, rng: np.random.Generator, *, require_source_load: bool = True
) -> tuple[np.ndarray, int, int]:
    """One random throughput exchange between two distinct recipes.

    Compatibility wrapper over :func:`random_move` that materialises the
    resulting split array.
    """
    src, dst, moved = random_move(split, delta, rng, require_source_load=require_source_load)
    if moved <= 0 and src == dst:
        return split.copy(), src, dst
    return transfer(split, src, dst, delta), src, dst


def exchange_moves(split: np.ndarray, delta: float) -> Iterator[tuple[int, int, float]]:
    """Every distinct non-trivial exchange of ``delta`` as ``(src, dst, moved)``.

    The enumeration order (sources ascending, then destinations ascending,
    skipping ``dst == src``) matches :func:`all_exchanges`, so descent code
    switching to index moves keeps its tie-breaking behaviour.
    """
    n = split.size
    for src in range(n):
        held = split[src]
        if held <= 0:
            continue
        moved = min(delta, held)
        for dst in range(n):
            if dst == src:
                continue
            yield src, dst, moved


def exchange_move_arrays(
    split: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full exchange neighbourhood as ``(srcs, dsts, moveds)`` arrays.

    Vectorised counterpart of :func:`exchange_moves` (same order) in the shape
    expected by :meth:`repro.core.evaluator.SplitEvaluator.score_exchanges`.
    """
    n = split.size
    loaded = np.flatnonzero(split > 0)
    if n < 2 or loaded.size == 0:
        empty_idx = np.empty(0, dtype=np.intp)
        return empty_idx, empty_idx.copy(), np.empty(0)
    dst_grid = np.broadcast_to(np.arange(n), (loaded.size, n))
    keep = dst_grid != loaded[:, None]
    dsts = dst_grid[keep]
    srcs = np.repeat(loaded, n - 1)
    moveds = np.minimum(delta, split[srcs])
    return srcs, dsts, moveds


def all_exchanges(split: np.ndarray, delta: float) -> Iterator[tuple[np.ndarray, int, int]]:
    """Every distinct non-trivial exchange, as full candidate splits.

    Compatibility wrapper over :func:`exchange_moves` that allocates one O(J)
    split copy per neighbour — external callers and tests use it; the
    steepest-gradient heuristics (H32, H32Jump) score the index moves through
    the batched evaluator instead.
    """
    for src, dst, _moved in exchange_moves(split, delta):
        yield transfer(split, src, dst, delta), src, dst


def random_split(
    total: float, parts: int, step: float, rng: np.random.Generator
) -> np.ndarray:
    """A uniformly random split of ``total`` into ``parts`` multiples of ``step``.

    This is the H0 construction.  The last unit of rounding drift (when
    ``total`` is not a multiple of ``step``) is added to the largest component
    so the split always sums exactly to ``total``.
    """
    from ..utils.rng import random_partition

    return np.asarray(random_partition(rng, total, parts, step), dtype=float)
