"""Disagreement machinery: the distance-correlation statistic, the
Disagreement Restriction (DiR) penalty it gives between the frozen shared
and the private feature batches, and the symmetric-KL distillation loss
for the ensemble student.

Distance correlation here is the biased (V-statistic) sample estimator:
double-center the pairwise Euclidean distance matrices A and B, then

    dCov^2 = mean(A*B),  dVar^2 = mean(A*A),  dCor = dCov / sqrt(dVarX*dVarY)

which lies in [0, 1] and is 0 only when the batches carry no detectable
dependence.
"""

import numpy as np

from .errors import DimensionError, SampleCountError

DVAR_FLOOR = 1e-15
# smoothing inside sqrt keeps the penalty differentiable at coincident rows
DIST_SMOOTHING = 1e-12


def _as_batch(x, name="batch"):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 2:
        raise SampleCountError(f"{name} needs at least 2 samples, got {x.shape[0]}")
    return x


def pairwise_distances(x):
    """n x n Euclidean distance matrix between rows; symmetric with a
    zero diagonal."""
    x = _as_batch(x)
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def double_center(d):
    """Subtract row means, column means, and add back the grand mean, so
    every row and column of the result sums to zero."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {d.shape}")
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    return d - row - col + d.mean()


def distance_correlation(x, y):
    """Sample distance correlation between two feature batches, in [0, 1].

    Returns 0 when either batch is (numerically) constant: a constant
    batch carries no dependence.
    """
    x = _as_batch(x, "x")
    y = _as_batch(y, "y")
    if x.shape[0] != y.shape[0]:
        raise SampleCountError(
            f"batches must have equal sample counts, got {x.shape[0]} and {y.shape[0]}"
        )
    a = double_center(pairwise_distances(x))
    b = double_center(pairwise_distances(y))
    vxx = (a * a).mean()
    vyy = (b * b).mean()
    if vxx < DVAR_FLOOR or vyy < DVAR_FLOOR:
        return 0.0
    r2 = (a * b).mean() / np.sqrt(vxx * vyy)
    return float(np.sqrt(max(r2, 0.0)))


def smoothed_distances(x):
    """n x n Euclidean distances between rows, computed as sqrt(d^2 + 1e-12):
    the smoothing keeps the DiR penalty differentiable where rows coincide."""
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1) + DIST_SMOOTHING)


def dcor_penalty(shared_dist, idx, y):
    """Disagreement Restriction: distance correlation between a batch of
    frozen shared features and the private batch `y`, with its gradient
    w.r.t. `y`.

    `shared_dist` is the smoothed distance table of the shared features
    over the rows the batch is drawn from, and `idx` the batch's row
    indices into it; `y[k]` is the private feature row of row `idx[k]`.
    A repeated row has a repeated feature row, so the private distances
    are built over the batch's unique rows and gathered back, exactly.
    Returns (loss, grad_y); a degenerate batch or the dCov <= 0 point
    gives (0.0, zeros).
    """
    y = _as_batch(y, "private")
    if len(idx) != y.shape[0]:
        raise SampleCountError(
            f"batch has {len(idx)} row indices but {y.shape[0]} private rows")
    n = y.shape[0]
    _, first, inverse = np.unique(idx, return_index=True, return_inverse=True)
    a = double_center(shared_dist[np.ix_(idx, idx)])
    dy = smoothed_distances(y[first])[np.ix_(inverse, inverse)]
    b = double_center(dy)
    vxy = (a * b).mean()
    vxx = (a * a).mean()
    vyy = (b * b).mean()
    if vxx < DVAR_FLOOR or vyy < DVAR_FLOOR:
        return 0.0, np.zeros_like(y)
    r2 = vxy / np.sqrt(vxx * vyy)
    if r2 <= 0.0:
        return 0.0, np.zeros_like(y)
    loss = float(np.sqrt(r2))
    # d loss / dB = loss/(2 n^2) * (A/vxy - B/vyy); then chain through the
    # centring (symmetric, so its own adjoint), the distances and the
    # squared distances to the rows of y
    db = loss / (2.0 * n * n) * (a / vxy - b / vyy)
    g = double_center(db) / (2.0 * dy)
    return loss, 4.0 * (g.sum(axis=1, keepdims=True) * y - g @ y)


def _log_softmax_rows(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def symmetric_kl(student_logits, teacher_logits, temp):
    """T^2 times the batch mean of KL(student||teacher) + KL(teacher||student)
    at temperature T, with the gradient w.r.t. the student logits.

    The teacher is a constant: no gradient flows into it. Returns
    (loss, grad_student).
    """
    s = np.asarray(student_logits, dtype=np.float64)
    t = np.asarray(teacher_logits, dtype=np.float64)
    n = s.shape[0]
    lp = _log_softmax_rows(s / temp)
    lq = _log_softmax_rows(t / temp)
    p = np.exp(lp)
    q = np.exp(lq)
    log_ratio = lp - lq
    kl_pq = (p * log_ratio).sum(axis=1, keepdims=True)
    kl_qp = -(q * log_ratio).sum(axis=1, keepdims=True)
    loss = float((kl_pq + kl_qp).mean())
    # d/ds KL(p||q) = p*(log_ratio - KL)/T ; d/ds KL(q||p) = (p - q)/T
    grad = (p * (log_ratio - kl_pq) + (p - q)) / (temp * n)
    loss *= temp * temp
    grad *= temp * temp
    return loss, grad

