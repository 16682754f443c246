import numpy as np
import pytest

from xscene.errors import InputError
from xscene.metrics import (ConfusionMatrix, average_accuracy, cohen_kappa,
                            overall_accuracy)


def cm_from(counts):
    cm = ConfusionMatrix(len(counts))
    cm.counts[:] = counts
    return cm


def loop_counts(num_classes, true_labels, pred_labels):
    """Reference confusion counts, one Python increment per sample."""
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(true_labels, pred_labels):
        counts[t, p] += 1
    return counts


class TestAccumulate:
    def test_single_increment(self):
        cm = ConfusionMatrix.from_predictions(3, np.array([1]), np.array([2]))
        assert cm.counts[1, 2] == 1
        assert np.array_equal(cm.counts, loop_counts(3, [1], [2]))

    def test_total_grows_by_one(self):
        true, pred = np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])
        before = ConfusionMatrix.from_predictions(2, true, pred).total
        after = ConfusionMatrix.from_predictions(
            2, np.append(true, 0), np.append(pred, 0)).total
        assert after == before + 1

    def test_other_cells_untouched(self):
        rng = np.random.default_rng(13)
        true = rng.integers(0, 4, size=500)
        pred = rng.integers(0, 4, size=500)
        cm = ConfusionMatrix.from_predictions(4, true, pred)
        assert cm.counts.dtype == np.int64
        assert np.array_equal(cm.counts, loop_counts(4, true, pred))


class TestOverallAccuracy:
    def test_identity(self):
        assert overall_accuracy(cm_from([[5, 0], [0, 5]])) == 1.0

    def test_all_off_diagonal(self):
        assert overall_accuracy(cm_from([[0, 3], [3, 0]])) == 0.0


class TestAverageAccuracy:
    def test_identity(self):
        assert average_accuracy(cm_from([[2, 0], [0, 9]])) == 1.0

    def test_equals_oa_under_symmetry(self):
        cm = cm_from([[8, 2], [2, 8]])
        assert average_accuracy(cm) == pytest.approx(overall_accuracy(cm))

    def test_empty_class_named(self):
        with pytest.raises(InputError, match="class 1"):
            average_accuracy(cm_from([[4, 0], [0, 0]]))


class TestCohenKappa:
    def test_perfect_diagonal(self):
        assert cohen_kappa(cm_from([[7, 0], [0, 3]])) == pytest.approx(1.0)

    def test_degenerate_single_cell(self):
        assert cohen_kappa(cm_from([[10, 0], [0, 0]])) == 0.0

    def test_chance_term_matches_brute_force(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 20, size=(4, 4))
        counts[0, 0] += 1
        cm = cm_from(counts)
        total = counts.sum()
        p_e = 0.0
        for k in range(4):
            p_e += counts[k, :].sum() * counts[:, k].sum()
        p_e /= total * total
        p_o = np.trace(counts) / total
        expected = (p_o - p_e) / (1 - p_e)
        assert cohen_kappa(cm) == pytest.approx(expected, abs=1e-12)


class TestPermutationInvariance:
    def test_metrics_invariant_to_consistent_relabeling(self):
        rng = np.random.default_rng(9)
        counts = rng.integers(1, 30, size=(5, 5))
        cm = cm_from(counts)
        perm = rng.permutation(5)
        permuted = cm_from(counts[np.ix_(perm, perm)])
        assert overall_accuracy(permuted) == pytest.approx(overall_accuracy(cm))
        assert average_accuracy(permuted) == pytest.approx(average_accuracy(cm))
        assert cohen_kappa(permuted) == pytest.approx(cohen_kappa(cm))
