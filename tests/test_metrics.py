"""Accuracy and stream-summary metrics."""

import numpy as np
import pytest

from latentreplay.errors import DataError
from latentreplay.metrics import MetricRecord, aoc, boundary_top1, label_ranks

# per-step top-1 columns whose published means are 83.1 and 80.7
ICARL_STEPS = [99.3, 97.2, 93.5, 91.0, 87.5, 82.1, 77.1, 72.8, 67.1, 63.5]
REMIND_STEPS = [98.4, 91.6, 87.1, 82.2, 79.7, 77.7, 74.8, 72.8, 72.2, 70.9]


def topk_reference(logits, labels, k):
    """Full-sort oracle with explicit lowest-index tie handling."""
    hits = 0
    for row, label in zip(logits, labels):
        ranked = sorted(range(len(row)), key=lambda j: (-row[j], j))
        hits += label in ranked[:k]
    return hits / len(labels)


def lexsort_hits(logits, labels, k):
    """The full-sort rule: each row sorted on (-logit, class index), NaN last as in `np.sort`;
    a row hits if its label is among the first k."""
    n, c = logits.shape
    order = np.lexsort((np.broadcast_to(np.arange(c), (n, c)), -logits), axis=1)
    return (order[:, :k] == labels[:, None]).any(axis=1)


class TestLabelRanks:
    SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_full_sort_for_every_k(self, seed):
        # ties, +-0, +-inf and NaN on odd trials, normal draws on even ones; every fourth trial
        # puts one label outside 0..C-1, which fancy indexing would wrap or fail on
        rng = np.random.default_rng(seed)
        for trial in range(60):
            n, c = (int(v) for v in rng.integers(1, 9, size=2))
            drawn = rng.choice(self.SPECIAL, size=(n, c)) if trial % 2 else rng.normal(size=(n, c))
            logits = drawn.astype(rng.choice([np.float32, np.float64]))
            labels = rng.integers(0, c, size=n)
            if trial % 4 == 3:
                labels[rng.integers(n)] = rng.choice([-1, -c, c, c + 5])
                with pytest.raises(DataError, match="not integers in"):
                    label_ranks(logits, labels)
                continue
            ranks = label_ranks(logits, labels)
            for k in range(1, c + 1):
                assert np.array_equal(ranks < k, lexsort_hits(logits, labels, k)), (logits, labels)

    @pytest.mark.parametrize("logits, labels", [
        (np.zeros((0, 3)), np.zeros(0, dtype=int)),  # empty batch
        (np.zeros(3), np.zeros(3, dtype=int)),  # not (N, C)
        (np.zeros((2, 3)), np.zeros(3, dtype=int)),  # one label per row
        (np.zeros((2, 3)), np.array([0.0, 1.0])),  # labels index the classes
    ])
    def test_bad_batches_rejected(self, logits, labels):
        with pytest.raises(DataError):
            label_ranks(logits, labels)


def top_k(logits, labels, k):
    """Fraction of rows whose label ranks below k: the package's top-k rule."""
    return np.count_nonzero(label_ranks(logits, labels) < k) / len(labels)


class TestTopK:
    def test_perfect_logits(self):
        logits = np.eye(4) * 10
        assert top_k(logits, np.arange(4), 1) == 1.0

    def test_k_equal_class_count_is_always_one(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        assert top_k(logits, labels, 5) == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(16, 6))
        labels = rng.integers(0, 6, size=16)
        for k in (1, 2, 3, 6):
            assert top_k(logits, labels, k) == topk_reference(logits, labels, k)

    def test_ties_break_to_lowest_index(self):
        logits = np.zeros((1, 4))
        # all logits equal: rank is 0,1,2,3; only class 0 is in the top 1
        assert top_k(logits, np.array([0]), 1) == 1.0
        assert top_k(logits, np.array([1]), 1) == 0.0
        assert top_k(logits, np.array([1]), 2) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(12, 5))
        labels = rng.integers(0, 5, size=12)
        accs = [top_k(logits, labels, k) for k in range(1, 6)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))


class TestAoc:
    def test_published_step_columns(self):
        assert abs(aoc(ICARL_STEPS) - 83.11) < 0.005
        assert abs(aoc(REMIND_STEPS) - 80.74) < 0.005
        assert f"{aoc(ICARL_STEPS):.1f}" == "83.1"
        assert f"{aoc(REMIND_STEPS):.1f}" == "80.7"

    def test_single_entry(self):
        assert aoc([42.0]) == 42.0

    def test_constant_sequence(self):
        assert aoc([7.5] * 9) == 7.5

    def test_order_invariant(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 100, size=12).tolist()
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert abs(aoc(values) - aoc(shuffled)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aoc([])


def boundary_records(top1s):
    """One boundary record per accuracy, each followed by an intra-task record of accuracy 0."""
    records = []
    for task, top1 in enumerate(top1s, start=1):
        records.append(MetricRecord(10 * task, task, 2 * task, top1, 1.0))
        records.append(MetricRecord(10 * task + 5, task + 1, 2 * task + 2, 0.0, 0.0, False))
    return records


class TestLast:
    # LAST is boundary_top1(records)[-1]: the final boundary record's top1
    def test_single_record_identity(self):
        assert boundary_top1(boundary_records([5.0]))[-1] == 5.0

    def test_final_element(self):
        assert boundary_top1(boundary_records(ICARL_STEPS))[-1] == 63.5


class TestBoundaryTop1:
    def test_aoc_and_last_use_boundary_records_only(self):
        records = [
            MetricRecord(step=0, task=1, seen_classes=2, top1=0.9, top5=1.0),
            MetricRecord(step=5, task=2, seen_classes=4, top1=0.1, top5=0.5, boundary=False),
            MetricRecord(step=10, task=2, seen_classes=4, top1=0.7, top5=1.0),
        ]
        assert boundary_top1(records) == [0.9, 0.7]
        assert abs(aoc(boundary_top1(records)) - 0.8) < 1e-12
        assert boundary_top1(records)[-1] == 0.7

    def test_top5_is_required(self):
        with pytest.raises(TypeError, match="top5"):
            MetricRecord(0, 1, 2, 0.5)
