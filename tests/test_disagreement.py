import math

import numpy as np
import pytest

from xscene.disagreement import (dcor_penalty, distance_correlation,
                                 double_center, log_softmax, pairwise_distances,
                                 smoothed_distances, symmetric_kl)
from xscene.errors import ConfigError, DimensionError, SampleCountError
from xscene.nn import make_rng


def naive_dcor(x, y):
    """Four-loop reference implementation, deliberately unvectorized."""
    n = len(x)

    def dist_matrix(rows):
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for a, b in zip(rows[i], rows[j]):
                    acc += (a - b) ** 2
                d[i][j] = math.sqrt(acc)
        return d

    def center(d):
        row = [sum(r) / n for r in d]
        col = [sum(d[i][j] for i in range(n)) / n for j in range(n)]
        grand = sum(row) / n
        return [[d[i][j] - row[i] - col[j] + grand for j in range(n)]
                for i in range(n)]

    a = center(dist_matrix([list(r) for r in x]))
    b = center(dist_matrix([list(r) for r in y]))
    vxy = vxx = vyy = 0.0
    for i in range(n):
        for j in range(n):
            vxy += a[i][j] * b[i][j]
            vxx += a[i][j] * a[i][j]
            vyy += b[i][j] * b[i][j]
    vxy /= n * n
    vxx /= n * n
    vyy /= n * n
    if vxx < 1e-15 or vyy < 1e-15:
        return 0.0
    return math.sqrt(max(vxy / math.sqrt(vxx * vyy), 0.0))


def dcor_loss(shared, private):
    """Reference two-sided DiR penalty: distance correlation on smoothed
    distances sqrt(d^2 + 1e-12), with the analytic gradient w.r.t. both
    batches. Returns (loss, grad_shared, grad_private); a degenerate batch
    or the dCov <= 0 point gives loss 0 with zero gradients."""
    def distances(v):
        diff = v[:, None, :] - v[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1) + 1e-12)

    def center(d):
        row = d.mean(axis=1, keepdims=True)
        col = d.mean(axis=0, keepdims=True)
        return d - row - col + d.mean()

    def input_grad(d_loss_d_centered, dist, v):
        g = center(d_loss_d_centered) / (2.0 * dist)
        return 4.0 * (g.sum(axis=1, keepdims=True) * v - g @ v)

    n = shared.shape[0]
    dx, dy = distances(shared), distances(private)
    a, b = center(dx), center(dy)
    vxy, vxx, vyy = (a * b).mean(), (a * a).mean(), (b * b).mean()
    if vxx < 1e-15 or vyy < 1e-15 or vxy / np.sqrt(vxx * vyy) <= 0.0:
        return 0.0, np.zeros_like(shared), np.zeros_like(private)
    loss = float(np.sqrt(vxy / np.sqrt(vxx * vyy)))
    # d loss / dA = loss/(2 n^2) * (B/vxy - A/vxx), and symmetrically for B
    scale = loss / (2.0 * n * n)
    return (loss, input_grad(scale * (b / vxy - a / vxx), dx, shared),
            input_grad(scale * (a / vxy - b / vyy), dy, private))


def penalty(shared, private):
    """dcor_penalty on a batch whose rows are the shared table's rows in
    order."""
    return dcor_penalty(smoothed_distances(shared), np.arange(len(shared)),
                        private)


def kl_divergence(p_logits, q_logits, temp, temp_scaled=True):
    """Reference KL(softmax(p/T) || softmax(q/T)) for one logit vector,
    scaled by T^2 when temp_scaled."""
    if temp <= 0.0:
        raise ConfigError(f"temperature must be positive, got {temp}")

    def log_softmax(v):
        shifted = np.asarray(v, dtype=np.float64) / temp
        shifted = shifted - shifted.max()
        return shifted - np.log(np.exp(shifted).sum())

    lp = log_softmax(p_logits)
    lq = log_softmax(q_logits)
    kl = float((np.exp(lp) * (lp - lq)).sum())
    return kl * temp * temp if temp_scaled else kl


class TestPairwiseDistances:
    def test_pythagoras(self):
        d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d[0, 1] == pytest.approx(5.0)

    def test_identical_rows(self):
        d = pairwise_distances(np.ones((4, 3)))
        assert np.all(d == 0.0)

    def test_metric_axioms(self):
        rng = make_rng(2)
        x = rng.normal(size=(6, 4))
        d = pairwise_distances(x)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_needs_two_samples(self):
        with pytest.raises(SampleCountError):
            pairwise_distances(np.ones((1, 3)))


class TestDoubleCenter:
    def test_constant_matrix_becomes_zero(self):
        out = double_center(np.full((4, 4), 7.0))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_hand_2x2(self):
        out = double_center(np.array([[0.0, 5.0], [5.0, 0.0]]))
        assert np.abs(out.sum(axis=0)).max() <= 1e-9
        assert np.abs(out.sum(axis=1)).max() <= 1e-9

    def test_idempotent(self):
        rng = make_rng(3)
        d = rng.normal(size=(5, 5))
        d = d + d.T
        once = double_center(d)
        np.testing.assert_allclose(double_center(once), once, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            double_center(np.ones((3, 4)))


class TestDistanceCorrelation:
    def test_self_dependence(self):
        rng = make_rng(5)
        x = rng.normal(size=(8, 3))
        assert distance_correlation(x, x) == pytest.approx(1.0)

    def test_affine_invariance(self):
        rng = make_rng(7)
        x = rng.normal(size=(10, 2))
        y = 2.0 * x + 3.0
        assert distance_correlation(x, y) == pytest.approx(1.0, abs=1e-9)

    def test_independent_samples_low(self):
        vals = []
        for seed in range(20):
            rng = make_rng(1000 + seed)
            x = rng.standard_normal((256, 1))
            y = rng.standard_normal((256, 1))
            vals.append(distance_correlation(x, y))
        assert np.mean(vals) < 0.15

    def test_range_and_symmetry(self):
        rng = make_rng(11)
        for _ in range(20):
            x = rng.normal(size=(7, 2))
            y = rng.normal(size=(7, 3))
            v = distance_correlation(x, y)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(distance_correlation(y, x))

    def test_constant_batch_gives_zero(self):
        rng = make_rng(13)
        y = rng.normal(size=(6, 2))
        assert distance_correlation(np.ones((6, 3)), y) == 0.0

    def test_invariant_to_one_sided_shift_and_scale(self):
        rng = make_rng(15)
        x = rng.normal(size=(9, 3))
        y = rng.normal(size=(9, 2))
        base = distance_correlation(x, y)
        shifted = distance_correlation(x + np.array([5.0, -2.0, 0.5]), y)
        scaled = distance_correlation(-3.0 * x, y)
        assert shifted == pytest.approx(base, abs=1e-12)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = make_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            x = rng.normal(size=(n, int(rng.integers(1, 5))))
            y = rng.normal(size=(n, int(rng.integers(1, 5))))
            assert distance_correlation(x, y) == pytest.approx(
                naive_dcor(x, y), abs=1e-10)

    def test_mismatched_counts(self):
        with pytest.raises(SampleCountError):
            distance_correlation(np.ones((4, 2)), np.ones((5, 2)))


class TestDcorPenalty:
    def test_identical_batches_max_penalty(self):
        rng = make_rng(19)
        x = rng.normal(size=(6, 3))
        loss, _ = penalty(x, x.copy())
        assert loss == pytest.approx(1.0)

    def test_gradients_match_finite_differences(self):
        rng = make_rng(23)
        for _ in range(6):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d))
            _, gy = penalty(x, y)
            h = 1e-5
            fd = np.zeros_like(gy)
            for i in range(n):
                for j in range(d):
                    yp, ym = y.copy(), y.copy()
                    yp[i, j] += h
                    ym[i, j] -= h
                    fd[i, j] = (penalty(x, yp)[0] - penalty(x, ym)[0]) / (2 * h)
            np.testing.assert_allclose(gy, fd, rtol=1e-4, atol=1e-7)

    def test_gradient_descent_decreases_dependence(self):
        rng = make_rng(29)
        x = rng.normal(size=(8, 3))
        y = x + 0.1 * rng.normal(size=(8, 3))
        losses = []
        lr = 0.05
        for _ in range(50):
            loss, gy = penalty(x, y)
            losses.append(loss)
            y = y - lr * gy
        assert losses[-1] < losses[0]
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
        assert drops >= 45

    def test_degenerate_batch_zero_gradients(self):
        loss, gy = penalty(np.ones((5, 2)), np.ones((5, 2)))
        assert loss == 0.0
        assert np.all(gy == 0.0)

    def test_index_count_must_match_rows(self):
        with pytest.raises(SampleCountError):
            dcor_penalty(smoothed_distances(np.eye(4)), np.arange(3),
                         np.ones((4, 2)))


class TestDcorPrivate:
    """The gathered path the private training phase takes: shared distances
    from a table over the split, private distances over a batch's unique
    rows, both gathered back to the batch."""

    def test_repeated_rows_match_dcor_loss_bit_for_bit(self):
        rng = make_rng(31)
        for _ in range(5):
            shared_table = rng.normal(size=(10, 4))
            private_table = rng.normal(size=(10, 3))
            idx = rng.integers(0, 10, size=16)
            assert len(np.unique(idx)) < len(idx)
            private = private_table[idx]
            loss, g_private = dcor_penalty(smoothed_distances(shared_table),
                                           idx, private)
            ref_loss, _, ref_g_private = dcor_loss(shared_table[idx], private)
            assert loss > 0.0
            assert loss == ref_loss
            assert np.array_equal(g_private, ref_g_private)

    def test_constant_side_gives_zero(self):
        rng = make_rng(37)
        idx = rng.integers(0, 6, size=9)
        varied = rng.normal(size=(6, 3))
        for shared_table, private_table in ((np.ones((6, 3)), varied),
                                            (varied, np.ones((6, 3)))):
            loss, g_private = dcor_penalty(smoothed_distances(shared_table),
                                           idx, private_table[idx])
            assert loss == 0.0
            assert g_private.shape == (9, 3) and np.all(g_private == 0.0)


class TestKlDivergence:
    def test_identical_zero(self):
        z = np.array([0.3, -0.7, 1.1])
        assert kl_divergence(z, z.copy(), 1.0) == pytest.approx(0.0)

    def test_hand_value(self):
        p = np.array([0.0, 0.0])                 # softmax -> (0.5, 0.5)
        q = np.array([np.log(9.0), 0.0])         # softmax -> (0.9, 0.1)
        expected = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
        assert kl_divergence(p, q, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5108, abs=1e-4)

    def test_nonnegative_random(self):
        rng = make_rng(31)
        for _ in range(1000):
            c = int(rng.integers(2, 7))
            p = rng.normal(size=c) * 3.0
            q = rng.normal(size=c) * 3.0
            assert kl_divergence(p, q, float(rng.uniform(0.05, 4.0))) >= 0.0

    def test_temperature_validated(self):
        with pytest.raises(ConfigError):
            kl_divergence(np.zeros(3), np.zeros(3), 0.0)


def kl_to_logits(student, teacher_logits, temp):
    """symmetric_kl against a teacher given by its logits."""
    return symmetric_kl(student, log_softmax(teacher_logits, temp), temp)


class TestSymmetricKl:
    def brute_force(self, s, t, temp):
        total = 0.0
        for i in range(s.shape[0]):
            es = np.exp(s[i] / temp - max(s[i] / temp))
            et = np.exp(t[i] / temp - max(t[i] / temp))
            p = es / es.sum()
            q = et / et.sum()
            total += sum(p[k] * math.log(p[k] / q[k]) for k in range(len(p)))
            total += sum(q[k] * math.log(q[k] / p[k]) for k in range(len(p)))
        loss = total / s.shape[0]
        return loss * temp * temp

    def test_matches_brute_force(self):
        rng = make_rng(37)
        s = rng.normal(size=(4, 3))
        t = rng.normal(size=(4, 3))
        for temp in (1.0, 2.0, 0.05):
            loss, _ = kl_to_logits(s, t, temp)
            assert loss == pytest.approx(self.brute_force(s, t, temp), abs=1e-12)

    def test_student_gradient_matches_finite_differences(self):
        rng = make_rng(41)
        for temp in (1.0, 0.05):
            s = rng.normal(size=(3, 4))
            t = rng.normal(size=(3, 4))
            _, grad = kl_to_logits(s, t, temp)
            h = 1e-5
            fd = np.zeros_like(s)
            for i in range(s.shape[0]):
                for j in range(s.shape[1]):
                    sp, sm = s.copy(), s.copy()
                    sp[i, j] += h
                    sm[i, j] -= h
                    fd[i, j] = (kl_to_logits(sp, t, temp)[0]
                                - kl_to_logits(sm, t, temp)[0]) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    def test_equals_batch_mean_of_both_kl_directions(self):
        # symmetric_kl is the T^2-scaled batch mean of both KL directions
        rng = make_rng(59)
        s = rng.normal(size=(5, 4)) * 2.0
        t = rng.normal(size=(5, 4)) * 2.0
        for temp in (1.0, 0.05):
            expected = np.mean([kl_divergence(a, b, temp) + kl_divergence(b, a, temp)
                                for a, b in zip(s, t)])
            loss, _ = kl_to_logits(s, t, temp)
            assert loss == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestEnsembleLosses:
    def test_zero_when_identical(self):
        rng = make_rng(43)
        z = rng.normal(size=(5, 4))
        assert kl_to_logits(z, z.copy(), 1.0)[0] == pytest.approx(0.0)
        assert kl_to_logits(z, z.copy(), 0.05)[0] == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_in_roles(self):
        rng = make_rng(47)
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(6, 3))
        assert kl_to_logits(a, b, 1.0)[0] == pytest.approx(
            kl_to_logits(b, a, 1.0)[0])

    def test_nonnegative(self):
        rng = make_rng(53)
        for _ in range(50):
            a = rng.normal(size=(4, 5))
            b = rng.normal(size=(4, 5))
            assert kl_to_logits(a, b, 0.05)[0] >= 0.0

    def test_sharp_teacher_hurts_uniform_student_more(self):
        student = np.zeros((1, 3))
        sharp_teacher = np.array([[8.0, 0.0, 0.0]])
        uniform_teacher = np.zeros((1, 3))
        l_sharp = kl_to_logits(student, sharp_teacher, 0.05)[0]
        l_uniform = kl_to_logits(student, uniform_teacher, 0.05)[0]
        assert l_sharp > l_uniform


# Bit-for-bit oracles: the kernels as they were written before they called
# numpy's reductions directly, gathered with take and took the teacher's
# log probabilities precomputed. The kernels must give these bits exactly;
# odd batch sizes make a changed division (x / n against x * (1 / n)) show.

def old_smoothed_distances(x):
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1) + 1e-12)


def old_pairwise_distances(x):
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def old_double_center(d):
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    return d - row - col + d.mean()


def old_dcor_penalty(shared_dist, idx, y):
    n = y.shape[0]
    _, first, inverse = np.unique(idx, return_index=True, return_inverse=True)
    a = old_double_center(shared_dist[np.ix_(idx, idx)])
    dy = old_smoothed_distances(y[first])[np.ix_(inverse, inverse)]
    b = old_double_center(dy)
    vxy, vxx, vyy = (a * b).mean(), (a * a).mean(), (b * b).mean()
    if vxx < 1e-15 or vyy < 1e-15:
        return 0.0, np.zeros_like(y)
    r2 = vxy / np.sqrt(vxx * vyy)
    if r2 <= 0.0:
        return 0.0, np.zeros_like(y)
    loss = float(np.sqrt(r2))
    db = loss / (2.0 * n * n) * (a / vxy - b / vyy)
    g = old_double_center(db) / (2.0 * dy)
    return loss, 4.0 * (g.sum(axis=1, keepdims=True) * y - g @ y)


def old_symmetric_kl(student_logits, teacher_logits, temp):
    def log_softmax_rows(z):
        shifted = z - z.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    n = student_logits.shape[0]
    lp = log_softmax_rows(student_logits / temp)
    lq = log_softmax_rows(teacher_logits / temp)
    p, q = np.exp(lp), np.exp(lq)
    log_ratio = lp - lq
    kl_pq = (p * log_ratio).sum(axis=1, keepdims=True)
    kl_qp = -(q * log_ratio).sum(axis=1, keepdims=True)
    loss = float((kl_pq + kl_qp).mean())
    grad = (p * (log_ratio - kl_pq) + (p - q)) / (temp * n)
    return loss * (temp * temp), grad * (temp * temp)


class TestMatchesOldFormulation:
    @pytest.mark.parametrize("n", [2, 5, 37, 50])
    def test_distances(self, n):
        rng = make_rng(61 + n)
        for d in (1, 3, 32):
            x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            assert np.array_equal(smoothed_distances(x), old_smoothed_distances(x))
            assert np.array_equal(pairwise_distances(x), old_pairwise_distances(x))

    @pytest.mark.parametrize("n", [2, 3, 37, 64])
    def test_double_center(self, n):
        rng = make_rng(67 + n)
        for _ in range(20):
            for d in (rng.normal(size=(n, n)) * 1e3,
                      old_smoothed_distances(rng.normal(size=(n, 4)))):
                assert np.array_equal(double_center(d), old_double_center(d))

    @pytest.mark.parametrize("split, batch", [(15, 37), (50, 37), (15, 2), (50, 64)])
    def test_dcor_penalty_on_repeated_rows(self, split, batch):
        rng = make_rng(71 + batch + split)
        shared_dist = smoothed_distances(rng.normal(size=(split, 32)))
        private_table = rng.normal(size=(split, 32))
        positive = 0
        for trial in range(20):
            idx = rng.integers(0, split, size=batch)
            if trial == 0:
                idx[-1] = idx[0]          # at least one repeated row
            y = private_table[idx]
            loss, grad = dcor_penalty(shared_dist, idx, y)
            ref_loss, ref_grad = old_dcor_penalty(shared_dist, idx, y)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)
            positive += loss > 0.0
        assert positive >= (1 if batch == 2 else 20)

    @pytest.mark.parametrize("temp", [1.0, 0.05])
    def test_symmetric_kl_on_gathered_teacher_log_probs(self, temp):
        # the teacher's log probabilities, taken once over a split and
        # gathered by a batch's rows, give what the teacher's gathered
        # logits gave
        rng = make_rng(73)
        for split, batch, classes in ((15, 37, 5), (50, 64, 7), (4, 2, 3)) * 10:
            teacher = rng.normal(size=(split, classes)) * 4.0
            idx = rng.integers(0, split, size=batch)
            student = rng.normal(size=(batch, classes)) * 4.0
            loss, grad = symmetric_kl(student, log_softmax(teacher, temp)[idx], temp)
            ref_loss, ref_grad = old_symmetric_kl(student, teacher[idx], temp)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)
