"""Reservoir eviction policy, sampling, accounting, and the array layout."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentreplay.config import RunConfig
from latentreplay.engine import blank_state, state_arrays
from latentreplay.errors import ConfigError, ContractError, DataError
from latentreplay.reservoir import (
    Reservoir,
    as_mb,
    insert_with_eviction,
    memory_bytes,
    sample_batch,
)

SHAPE = (2, 2, 2)


def new_res(capacity, shape=SHAPE):
    return Reservoir(capacity, shape)


def put(res, label, rng, fill=0):
    return insert_with_eviction(res, np.full(res.codes.shape[1:], fill, np.uint8), label, rng)


def live_counts(res):
    return Counter(int(label) for label in res.labels[: len(res)])


class TestInsert:
    def test_fill_without_eviction(self):
        res = new_res(capacity=4)
        rng = np.random.default_rng(0)
        for i in range(4):
            assert put(res, i, rng) is None
        assert len(res) == 4

    def test_new_class_is_never_the_victim(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            res = new_res(capacity=4)
            for label in (0, 0, 1, 1):
                put(res, label, rng)
            evicted = put(res, 2, rng)
            assert evicted in (0, 1)
            assert len(res) == 4

    def test_max_class_always_loses(self):
        # counts {0: 3, 1: 1}: class 0 is the unique maximum
        rng = np.random.default_rng(1)
        hits = 0
        trials = 10_000
        for _ in range(trials):
            res = new_res(capacity=4)
            for label in (0, 0, 0, 1):
                put(res, label, rng)
            hits += put(res, 1, rng) == 0
        assert hits == trials

    def test_tied_classes_evicted_uniformly(self):
        rng = np.random.default_rng(2)
        from_zero = 0
        trials = 10_000
        for _ in range(trials):
            res = new_res(capacity=4)
            for label in (0, 0, 1, 1):
                put(res, label, rng)
            from_zero += put(res, 2, rng) == 0
        assert abs(from_zero / trials - 0.5) < 0.02

    def test_victim_count_was_maximal(self):
        rng = np.random.default_rng(3)
        res = new_res(capacity=6)
        for label in [0, 0, 0, 1, 1, 2]:
            put(res, label, rng)
        for step in range(50):
            before = live_counts(res)
            evicted = put(res, step % 3, rng)
            assert before[evicted] == max(before.values())
            assert len(res) == 6

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            new_res(capacity=0)


class TestSample:
    def _filled(self, n=10):
        res = new_res(capacity=n)
        rng = np.random.default_rng(0)
        for i in range(n):
            put(res, 0, rng, fill=i)
        return res

    def test_n_at_least_size_returns_everything_once(self):
        res = self._filled(6)
        idx = sample_batch(res, 10, np.random.default_rng(1))
        assert sorted(int(m) for m in res.codes[idx, 0, 0, 0]) == list(range(6))

    def test_n_zero_returns_empty(self):
        assert len(sample_batch(self._filled(), 0, np.random.default_rng(0))) == 0

    def test_empty_reservoir_returns_empty(self):
        assert len(sample_batch(new_res(4), 3, np.random.default_rng(0))) == 0

    def test_single_draws_are_uniform(self):
        res = self._filled(10)
        rng = np.random.default_rng(5)
        hits = np.zeros(10)
        trials = 100_000
        for _ in range(trials):
            idx = sample_batch(res, 1, rng)
            hits[int(res.codes[idx[0], 0, 0, 0])] += 1
        freqs = hits / trials
        assert np.all(np.abs(freqs - 0.1) < 0.01)

    def test_without_replacement_has_no_duplicates(self):
        res = self._filled(10)
        rng = np.random.default_rng(6)
        for _ in range(50):
            marks = res.codes[sample_batch(res, 5, rng), 0, 0, 0].tolist()
            assert len(set(marks)) == len(marks) == 5


class TestSnapshot:
    def test_round_trip_bit_identical(self):
        # a checkpoint stores the live rows `state_arrays` names, u1 codes and u2 labels; a
        # loader writes them through the views of a blank state sized to their count
        cfg = RunConfig(reservoir_capacity=5)
        rng = np.random.default_rng(0)
        state = blank_state(cfg, 0, rng)
        res = state.reservoir
        for i in range(9):
            put(res, i % 3, rng, fill=i)
        rows = dict(state_arrays(state))
        assert rows["reservoir.labels"].dtype == np.dtype("<u2")
        back = blank_state(cfg, 0, rng, rows=len(res))
        for name, dst in state_arrays(back):
            dst[...] = rows[name]
        assert len(back.reservoir) == len(res)
        for a, b in ((back.reservoir.codes, res.codes), (back.reservoir.labels, res.labels)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert put(back.reservoir, 0, np.random.default_rng(1)) == put(
            res, 0, np.random.default_rng(1))

    def test_blank_state_refuses_rows_past_capacity(self):
        cfg = RunConfig(reservoir_capacity=5)
        assert len(blank_state(cfg, 0, np.random.default_rng(0), rows=5).reservoir) == 5
        with pytest.raises(ContractError, match="6 reservoir rows exceed reservoir.capacity = 5"):
            blank_state(cfg, 0, np.random.default_rng(0), rows=6)


class ListReservoir:
    """Reference: the policy as a list of (mark, label) rows, pop + append."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rows = []

    def insert(self, row, rng):
        if len(self.rows) < self.capacity:
            self.rows.append(row)
            return None
        counts = Counter(label for _, label in self.rows)
        top = max(counts.values())
        tied = sorted(label for label, c in counts.items() if c == top)
        victim_class = tied[int(rng.integers(len(tied)))]
        members = [i for i, (_, label) in enumerate(self.rows) if label == victim_class]
        _, evicted = self.rows.pop(members[int(rng.integers(len(members)))])
        self.rows.append(row)
        return evicted

    def sample(self, n, rng):
        size = len(self.rows)
        if n <= 0 or size == 0:
            return []
        if n >= size:
            return list(range(size))
        return [int(i) for i in rng.choice(size, size=n, replace=False)]


class TestAgainstListReference:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 12),
        labels=st.lists(st.integers(0, 4), max_size=60),
        n=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_rows_evictions_and_samples(self, capacity, labels, n, seed):
        res = Reservoir(capacity, (1, 1, 2))
        ref = ListReservoir(capacity)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for i, label in enumerate(labels):
            mark = i % 256
            before = live_counts(res)
            evicted = insert_with_eviction(res, np.full((1, 1, 2), mark, np.uint8), label, rng)
            assert evicted == ref.insert((mark, label), ref_rng)
            if evicted is not None:
                assert before[evicted] == max(before.values())
            assert len(res) == len(ref.rows) <= capacity
            assert res.labels[: len(res)].tolist() == [lab for _, lab in ref.rows]
            assert res.codes[: len(res), 0, 0, 1].tolist() == [m for m, _ in ref.rows]
            picks = sample_batch(res, n, rng)
            assert [int(i) for i in picks] == ref.sample(n, ref_rng)


class TestMemoryAccounting:
    # (count, shape, displayed MB, display decimals)
    PAIRS = [
        (130_000, (8, 7, 7), "50.96", 2),
        (130_000, (32, 7, 7), "203.84", 2),
        (2_000, (3, 224, 224), "301.06", 2),
        (2_000, (3, 32, 32), "6.14", 2),
        (25_000, (4, 8, 8), "6.40", 2),
        (50_000, (4, 8, 8), "12.8", 1),
        (500, (3, 32, 32), "1.536", 3),
        (24_000, (1, 8, 8), "1.536", 3),
    ]

    @pytest.mark.parametrize("count,shape,shown,decimals", PAIRS)
    def test_published_pairs(self, count, shape, shown, decimals):
        mb = as_mb(memory_bytes(count, shape))
        assert f"{mb:.{decimals}f}" == shown

    def test_bytes_exact(self):
        assert memory_bytes(130_000, (8, 7, 7)) == 130_000 * 8 * 49

    def test_nonpositive_rejected(self):
        with pytest.raises(DataError):
            memory_bytes(0, (1,))
        with pytest.raises(DataError):
            memory_bytes(1, (0, 2))

    def test_preallocated_codes_match_budget(self):
        res = new_res(capacity=3, shape=(4, 8, 8))
        assert res.codes.dtype == np.uint8
        assert res.codes.nbytes == memory_bytes(3, (4, 8, 8))
