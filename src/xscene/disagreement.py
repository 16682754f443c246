"""Disagreement machinery: distance-correlation restriction between the
shared and private feature batches, and the symmetric-KL distillation
loss for the ensemble student.

Distance correlation here is the biased (V-statistic) sample estimator:
double-center the pairwise Euclidean distance matrices A and B, then

    dCov^2 = mean(A*B),  dVar^2 = mean(A*A),  dCor = dCov / sqrt(dVarX*dVarY)

which lies in [0, 1] and is 0 only when the batches carry no detectable
dependence.
"""

import numpy as np

from .errors import ConfigError, DimensionError, SampleCountError

DVAR_FLOOR = 1e-15
# smoothing inside sqrt keeps the penalty differentiable at coincident rows
DIST_SMOOTHING = 1e-12


def _as_batch(x, name="batch"):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"{name} must be an n x d matrix, got shape {x.shape}")
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


def _smoothed_distances(x):
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1) + DIST_SMOOTHING)


def _dcor_input_grad(d_loss_d_centered, dist, x):
    # chain: centered matrix -> distances -> squared distances -> rows of x;
    # double centering is symmetric, so it is its own adjoint
    g = double_center(d_loss_d_centered) / (2.0 * dist)
    return 4.0 * (g.sum(axis=1, keepdims=True) * x - g @ x)


def _dcor_private(a, dy, y):
    """dCor penalty from the double-centred shared distance matrix `a`, the
    smoothed private distance matrix `dy` and the private batch `y`.

    Returns (loss, grad_private, d loss / dA); a degenerate batch or the
    dCov <= 0 point gives (0.0, zeros, None). A caller whose shared side is
    frozen builds `a` from precomputed distances and skips the shared-side
    input gradient.
    """
    n = y.shape[0]
    b = double_center(dy)
    vxy = (a * b).mean()
    vxx = (a * a).mean()
    vyy = (b * b).mean()
    zero = (0.0, np.zeros_like(y), None)
    if vxx < DVAR_FLOOR or vyy < DVAR_FLOOR:
        return zero
    r2 = vxy / np.sqrt(vxx * vyy)
    if r2 <= 0.0:
        return zero
    loss = float(np.sqrt(r2))
    # d loss / dA = loss/(2 n^2) * (B/vxy - A/vxx), and symmetrically for B
    scale = loss / (2.0 * n * n)
    da = scale * (b / vxy - a / vxx)
    db = scale * (a / vxy - b / vyy)
    return loss, _dcor_input_grad(db, dy, y), da


def dcor_loss(shared, private):
    """Distance-correlation penalty between two feature batches, with the
    exact analytic gradient w.r.t. both.

    Returns (loss, grad_shared, grad_private). The loss is the sample
    distance correlation computed on smoothed pairwise distances
    sqrt(d^2 + 1e-12), which keeps it differentiable when two rows
    coincide. Degenerate (constant) batches give loss 0 with zero
    gradients, as does the non-differentiable dCov = 0 point.
    """
    x = _as_batch(shared, "shared")
    y = _as_batch(private, "private")
    if x.shape[0] != y.shape[0]:
        raise SampleCountError(
            f"batches must have equal sample counts, got {x.shape[0]} and {y.shape[0]}"
        )
    dx = _smoothed_distances(x)
    loss, g_private, da = _dcor_private(double_center(dx), _smoothed_distances(y), y)
    if da is None:
        return loss, np.zeros_like(x), g_private
    return loss, _dcor_input_grad(da, dx, x), g_private


def _log_softmax_rows(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def symmetric_kl(student_logits, teacher_logits, temp):
    """T^2 times the batch mean of KL(student||teacher) + KL(teacher||student)
    at temperature T, with the gradient w.r.t. the student logits.

    The teacher is a constant: no gradient flows into it. Returns
    (loss, grad_student).
    """
    if temp <= 0.0:
        raise ConfigError(f"temperature must be positive, got {temp}")
    s = np.asarray(student_logits, dtype=np.float64)
    t = np.asarray(teacher_logits, dtype=np.float64)
    if s.shape != t.shape or s.ndim != 2 or s.shape[0] == 0:
        raise DimensionError(
            f"expected matching non-empty n x C logit matrices, "
            f"got {s.shape} and {t.shape}"
        )
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

