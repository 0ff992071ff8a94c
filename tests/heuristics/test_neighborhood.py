"""Tests for the throughput-exchange neighbourhood primitives."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics import all_exchanges, random_exchange, random_move, random_split, transfer


def reference_random_move(split, delta, rng, *, require_source_load=True):
    """``random_move`` as it drew over numpy: ``rng.choice`` of the loaded recipes."""
    n = split.size
    if n < 2:
        return 0, 0, 0.0
    if require_source_load:
        loaded = np.flatnonzero(split > 0)
        if loaded.size == 0:
            return 0, 0, 0.0
        src = int(rng.choice(loaded))
    else:
        src = int(rng.integers(n))
    dst = int(rng.integers(n - 1))
    if dst >= src:
        dst += 1
    return src, dst, float(min(delta, split[src]))


def _splits(size: int):
    held = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 10.0]),
                     st.floats(min_value=0.0, max_value=100.0))
    single = st.tuples(st.integers(0, size - 1), st.floats(min_value=0.1, max_value=100.0))
    return st.one_of(
        st.lists(held, min_size=size, max_size=size),
        single.map(lambda pair: [pair[1] if j == pair[0] else 0.0 for j in range(size)]),
        st.just([0.0] * size),
    )


class TestTransfer:
    def test_basic_move(self):
        out = transfer(np.array([10.0, 0.0]), 0, 1, 4)
        assert out.tolist() == [6.0, 4.0]

    def test_caps_at_source_content(self):
        out = transfer(np.array([3.0, 7.0]), 0, 1, 10)
        assert out.tolist() == [0.0, 10.0]

    def test_same_indices_noop(self):
        split = np.array([3.0, 7.0])
        assert transfer(split, 1, 1, 5).tolist() == [3.0, 7.0]

    def test_original_not_mutated(self):
        split = np.array([3.0, 7.0])
        transfer(split, 0, 1, 1)
        assert split.tolist() == [3.0, 7.0]

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            transfer(np.array([1.0, 2.0]), 0, 1, -1)

    @given(
        values=st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), min_size=2, max_size=5),
        delta=st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_total_preserved_and_non_negative(self, values, delta):
        split = np.asarray(values)
        out = transfer(split, 0, len(values) - 1, delta)
        assert out.sum() == pytest.approx(split.sum())
        assert np.all(out >= 0)


class TestRandomExchange:
    def test_moves_between_distinct_recipes(self):
        rng = np.random.default_rng(0)
        split = np.array([50.0, 0.0, 0.0])
        out, src, dst = random_exchange(split, 10, rng)
        assert src != dst
        assert src == 0  # only loaded recipe
        assert out.sum() == pytest.approx(50)

    def test_all_zero_split_returned_unchanged(self):
        rng = np.random.default_rng(0)
        out, src, dst = random_exchange(np.zeros(3), 10, rng)
        assert out.tolist() == [0, 0, 0]

    def test_single_recipe_is_noop(self):
        rng = np.random.default_rng(0)
        out, _, _ = random_exchange(np.array([5.0]), 1, rng)
        assert out.tolist() == [5.0]

    def test_without_source_load_requirement(self):
        rng = np.random.default_rng(1)
        out, src, dst = random_exchange(np.array([0.0, 0.0, 9.0]), 3, rng, require_source_load=False)
        assert out.sum() == pytest.approx(9.0)

    def test_deterministic_for_fixed_seed(self):
        split = np.array([10.0, 20.0, 30.0])
        a = random_exchange(split, 5, np.random.default_rng(7))
        b = random_exchange(split, 5, np.random.default_rng(7))
        assert a[0].tolist() == b[0].tolist() and a[1:] == b[1:]


class TestRandomMoveStream:
    @given(
        split=st.integers(min_value=1, max_value=40).flatmap(_splits),
        delta=st.floats(min_value=0.05, max_value=50.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        require_source_load=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_moves_and_generator_state_as_rng_choice(
        self, split, delta, seed, require_source_load
    ):
        values = np.asarray(split, dtype=float)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(12):
            move = random_move(values, delta, rng, require_source_load=require_source_load)
            expected = reference_random_move(
                values, delta, reference_rng, require_source_load=require_source_load
            )
            assert move[:2] == expected[:2]
            assert struct.pack("<d", move[2]) == struct.pack("<d", expected[2])
            values = transfer(values, move[0], move[1], delta)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestAllExchanges:
    def test_enumerates_loaded_sources_only(self):
        split = np.array([10.0, 0.0, 5.0])
        moves = list(all_exchanges(split, 5))
        sources = {src for _, src, _ in moves}
        assert sources == {0, 2}
        # each loaded source can send to the two other recipes
        assert len(moves) == 4

    def test_moves_preserve_total(self):
        split = np.array([10.0, 0.0, 5.0])
        for candidate, _, _ in all_exchanges(split, 3):
            assert candidate.sum() == pytest.approx(15.0)
            assert np.all(candidate >= 0)

    def test_empty_for_zero_split(self):
        assert list(all_exchanges(np.zeros(3), 1)) == []


class TestRandomSplit:
    @given(
        total=st.integers(min_value=0, max_value=200),
        parts=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_sums_to_total_and_non_negative(self, total, parts, seed):
        rng = np.random.default_rng(seed)
        split = random_split(float(total), parts, 1.0, rng)
        assert split.shape == (parts,)
        assert split.sum() == pytest.approx(total)
        assert np.all(split >= 0)

    def test_respects_step_lattice(self):
        rng = np.random.default_rng(3)
        split = random_split(100.0, 4, 10.0, rng)
        assert np.allclose(split % 10, 0)

    def test_distribution_covers_multiple_recipes(self):
        rng = np.random.default_rng(0)
        seen_active = set()
        for _ in range(50):
            split = random_split(30.0, 3, 1.0, rng)
            seen_active |= {i for i, v in enumerate(split) if v > 0}
        assert seen_active == {0, 1, 2}
