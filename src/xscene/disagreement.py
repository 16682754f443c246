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

DVAR_FLOOR = 1e-15
# smoothing inside sqrt keeps the penalty differentiable at coincident rows
DIST_SMOOTHING = 1e-12
# _pair_cells keeps the index arrays of row counts up to this: at most
# 24 * (n // 2) * n bytes each, 1.06 MB for all of 1..64 (the default
# batch size, so every unique-row count of a default private batch)
PAIR_CACHE_ROWS = 64
_PAIR_CELLS = {}


def _pair_cells(n):
    """Read-only index arrays (partners, cells) of the row pairs that
    _squared_distances visits: block k (k = 1 .. n // 2) pairs each row m
    with row (m + k) % n, so `partners` holds those rows block by block,
    and `cells` the flat table cells of each pair, (m, partner) for every
    pair and then (partner, m). For even n the last block visits each of
    its pairs twice, into the same two cells."""
    cached = _PAIR_CELLS.get(n)
    if cached is not None:
        return cached
    rows = np.tile(np.arange(n), n // 2)
    partners = rows + np.repeat(np.arange(1, n // 2 + 1), n)
    partners %= n
    cells = np.concatenate((rows * n + partners, partners * n + rows))
    partners.flags.writeable = cells.flags.writeable = False
    if n <= PAIR_CACHE_ROWS:
        _PAIR_CELLS[n] = partners, cells
    return partners, cells


def _squared_distances(x):
    """n x n squared Euclidean distances between the rows of a finite x,
    with a zero diagonal. Each pair of rows is subtracted, squared and
    summed over the row once, in one (n // 2 * n, d) array (about half
    the n x n x d broadcast), and the sum is written to both of the pair's
    cells. x_i - x_j is -(x_j - x_i) exactly, so the table has the bits of
    the broadcast it replaces."""
    n, d = x.shape
    partners, cells = _pair_cells(n)
    diff = x.take(partners, axis=0).reshape(n // 2, n, d)
    np.subtract(x, diff, out=diff)
    sums = np.add.reduce(np.square(diff, out=diff), axis=-1)
    table = np.zeros((n, n))
    table.put(cells, sums)   # put repeats `sums` over both halves of `cells`
    return table


def double_center(d):
    """Subtract row means, column means, and add back the grand mean, so
    every row and column of the result sums to zero. d is a square
    float64 array."""
    n = d.shape[0]
    out = d - np.add.reduce(d, axis=1, keepdims=True) / n
    out -= np.add.reduce(d, axis=0, keepdims=True) / n
    out += np.add.reduce(d, axis=None) / (n * n)
    return out


def _dcor(a, b):
    """The one dCor statistic, of two double-centred distance tables, with
    the dCov^2 and dVar^2(b) the DiR gradient needs: (dcor, vxy, vyy).
    dcor is 0.0 when either dVar^2 is under DVAR_FLOOR or dCov^2 <= 0."""
    pairs = a.size
    vxy = np.add.reduce(a * b, axis=None) / pairs
    vxx = np.add.reduce(a * a, axis=None) / pairs
    vyy = np.add.reduce(b * b, axis=None) / pairs
    if vxx < DVAR_FLOOR or vyy < DVAR_FLOOR:
        return 0.0, vxy, vyy
    return float(np.sqrt(max(vxy / np.sqrt(vxx * vyy), 0.0))), vxy, vyy


def distance_correlation(x, y):
    """Sample distance correlation between two float64 feature batches of
    equal row counts (at least 2), in [0, 1], on exact distances; 0 when
    either batch is (numerically) constant, which carries no dependence."""
    a, b = (double_center(np.sqrt(_squared_distances(v))) for v in (x, y))
    return _dcor(a, b)[0]


def smoothed_distances(x):
    """n x n Euclidean distances between rows, computed as sqrt(d^2 + 1e-12):
    the smoothing keeps the DiR penalty differentiable where rows coincide."""
    d2 = _squared_distances(x)
    d2 += DIST_SMOOTHING
    return np.sqrt(d2, out=d2)


def dcor_penalty(shared_dist, idx, y):
    """Disagreement Restriction: distance correlation between a batch of
    frozen shared features and the private batch `y`, with its gradient
    w.r.t. `y`.

    `shared_dist` is the smoothed distance table of the shared features
    over the rows the batch is drawn from, and `idx` the batch's row
    indices into it; `y[k]` is the private feature row of row `idx[k]`,
    and the batch has at least 2 rows.
    A repeated row has a repeated feature row, so the private distances
    are built over the batch's unique rows and gathered back, exactly.
    Returns (loss, grad_y); a degenerate batch or the dCov <= 0 point
    gives (0.0, zeros).
    """
    _, first, inverse = np.unique(idx, return_index=True, return_inverse=True)
    a = double_center(shared_dist.take(idx, axis=0).take(idx, axis=1))
    dy = smoothed_distances(y[first]).take(inverse, axis=0).take(inverse, axis=1)
    b = double_center(dy)
    loss, vxy, vyy = _dcor(a, b)
    if loss == 0.0:
        return 0.0, np.zeros_like(y)
    # d loss / dB = loss/(2 n^2) * (A/vxy - B/vyy); then chain through the
    # centring (symmetric, so its own adjoint), the distances and the
    # squared distances to the rows of y
    db = loss / (2.0 * a.size) * (a / vxy - b / vyy)
    g = double_center(db)
    g /= 2.0 * dy
    return loss, 4.0 * (np.add.reduce(g, axis=1, keepdims=True) * y - g @ y)


def log_softmax(z, temp):
    """Row-wise log softmax(z / temp)."""
    shifted = z / temp
    shifted -= np.maximum.reduce(shifted, axis=1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))


def symmetric_kl(student_logits, teacher_logp, temp):
    """T^2 times the batch mean of KL(student||teacher) + KL(teacher||student)
    at temperature T, with the gradient w.r.t. the student logits.

    The teacher is a constant, given as its log probabilities at T,
    log_softmax(teacher_logits, T): no gradient flows into it. Returns
    (loss, grad_student).
    """
    n = student_logits.shape[0]
    lp = log_softmax(student_logits, temp)
    p = np.exp(lp)
    q = np.exp(teacher_logp)
    log_ratio = lp - teacher_logp
    kl_pq = np.add.reduce(p * log_ratio, axis=1, keepdims=True)
    kl_qp = -np.add.reduce(q * log_ratio, axis=1, keepdims=True)
    loss = float(np.add.reduce(kl_pq + kl_qp, axis=None) / n)
    # d/ds KL(p||q) = p*(log_ratio - KL)/T ; d/ds KL(q||p) = (p - q)/T
    grad = (p * (log_ratio - kl_pq) + (p - q)) / (temp * n)
    loss *= temp * temp
    grad *= temp * temp
    return loss, grad
