"""Classification metrics over a confusion matrix: overall accuracy,
average per-class recall, and Cohen's kappa."""

import numpy as np

from .errors import MetricError


class ConfusionMatrix:
    """C x C integer counts; rows index the true class, columns the
    predicted class."""

    def __init__(self, num_classes, counts=None):
        self.num_classes = int(num_classes)
        if counts is None:
            self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        else:
            self.counts = np.array(counts, dtype=np.int64)

    @property
    def total(self):
        return int(self.counts.sum())

    @classmethod
    def from_predictions(cls, num_classes, true_labels, pred_labels):
        cm = cls(num_classes)
        true_labels = np.asarray(true_labels, dtype=np.int64)
        pred_labels = np.asarray(pred_labels, dtype=np.int64)
        c = cm.num_classes
        if true_labels.size and (
                min(true_labels.min(), pred_labels.min()) < 0
                or max(true_labels.max(), pred_labels.max()) >= c):
            raise IndexError(f"label out of range [0, {c})")
        cells = (true_labels * c + pred_labels).ravel()
        cm.counts += np.bincount(cells, minlength=c * c).reshape(c, c)
        return cm


def overall_accuracy(cm):
    """trace / total."""
    total = cm.total
    if total == 0:
        raise ZeroDivisionError("empty confusion matrix")
    return float(np.trace(cm.counts) / total)


def average_accuracy(cm):
    """Mean over classes of per-class recall counts[k][k] / rowsum[k]."""
    row_sums = cm.counts.sum(axis=1)
    empty = np.flatnonzero(row_sums == 0)
    if empty.size:
        raise MetricError(f"class {int(empty[0])} has no samples")
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
