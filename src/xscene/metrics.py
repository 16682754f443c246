"""Classification metrics over a confusion matrix: overall accuracy,
average per-class recall, and Cohen's kappa."""

import numpy as np

from .errors import InputError


class ConfusionMatrix:
    """C x C integer counts; rows index the true class, columns the
    predicted class."""

    def __init__(self, num_classes):
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    @property
    def total(self):
        return int(self.counts.sum())

    @classmethod
    def from_predictions(cls, num_classes, true_labels, pred_labels):
        """Count the (true, predicted) pairs of two integer label arrays;
        every label lies in [0, num_classes)."""
        cm = cls(num_classes)
        c = num_classes
        cells = (true_labels * c + pred_labels).ravel()
        cm.counts += np.bincount(cells, minlength=c * c).reshape(c, c)
        return cm


def overall_accuracy(cm):
    """trace / total, of a matrix that counts at least one prediction:
    evaluate's dataset has rows (load_csv and TrainConfig check it)."""
    return float(np.trace(cm.counts) / cm.total)


def average_accuracy(cm):
    """Mean over classes of per-class recall counts[k][k] / rowsum[k]."""
    row_sums = cm.counts.sum(axis=1)
    empty = np.flatnonzero(row_sums == 0)
    if empty.size:
        raise InputError(f"class {int(empty[0])} has no samples")
    recalls = np.diag(cm.counts) / row_sums
    return float(recalls.mean())


def cohen_kappa(cm):
    """(p_o - p_e) / (1 - p_e) with chance agreement p_e from the
    marginals; 0 for the degenerate p_e == 1 case."""
    total = cm.total
    p_o = np.trace(cm.counts) / total
    row = cm.counts.sum(axis=1)
    col = cm.counts.sum(axis=0)
    p_e = float((row * col).sum() / (total * total))
    if p_e >= 1.0:
        return 0.0
    return float((p_o - p_e) / (1.0 - p_e))
