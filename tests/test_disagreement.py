import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xscene.disagreement import (dcor_penalty, distance_correlation,
                                 double_center, log_softmax, smoothed_distances,
                                 symmetric_kl)

from oracles import central_differences


def penalty(shared, private):
    """dcor_penalty on a batch whose rows are the shared table's rows in
    order."""
    return dcor_penalty(smoothed_distances(shared), np.arange(len(shared)),
                        private)


class TestDoubleCenter:
    def test_constant_matrix_becomes_zero(self):
        out = double_center(np.full((4, 4), 7.0))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_hand_2x2(self):
        out = double_center(np.array([[0.0, 5.0], [5.0, 0.0]]))
        assert np.abs(out.sum(axis=0)).max() <= 1e-9
        assert np.abs(out.sum(axis=1)).max() <= 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        d = rng.normal(size=(5, 5))
        d = d + d.T
        once = double_center(d)
        np.testing.assert_allclose(double_center(once), once, atol=1e-12)


class TestDistanceCorrelation:
    def test_self_dependence(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 3))
        assert distance_correlation(x, x) == pytest.approx(1.0)

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=(7, 2))
            y = rng.normal(size=(7, 3))
            v = distance_correlation(x, y)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(distance_correlation(y, x))

    def test_constant_batch_gives_zero(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=(6, 2))
        assert distance_correlation(np.ones((6, 3)), y) == 0.0

    def test_invariant_to_one_sided_shift_and_scale(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(9, 3))
        y = rng.normal(size=(9, 2))
        base = distance_correlation(x, y)
        shifted = distance_correlation(x + np.array([5.0, -2.0, 0.5]), y)
        scaled = distance_correlation(-3.0 * x, y)
        assert shifted == pytest.approx(base, abs=1e-12)
        assert scaled == pytest.approx(base, abs=1e-12)


class TestDcorPenalty:
    def test_identical_batches_max_penalty(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(6, 3))
        loss, _ = penalty(x, x.copy())
        assert loss == pytest.approx(1.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d))
            _, gy = penalty(x, y)
            fd = central_differences(lambda: penalty(x, y)[0], y)
            np.testing.assert_allclose(gy, fd, rtol=1e-4, atol=1e-7)

    def test_gradient_descent_decreases_dependence(self):
        rng = np.random.default_rng(29)
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


class TestDcorPrivate:
    """The gathered path the private training phase takes: shared distances
    from a table over the split, private distances over a batch's unique
    rows, both gathered back to the batch."""

    @pytest.mark.parametrize("split, batch, d_shared, d_private",
                             [(10, 16, 4, 3), (15, 37, 32, 32), (50, 37, 32, 32),
                              (15, 2, 32, 32), (50, 64, 32, 32)])
    def test_repeated_rows_match_dcor_loss_bit_for_bit(self, split, batch,
                                                       d_shared, d_private):
        rng = np.random.default_rng(71 + batch + split)
        shared_table = rng.normal(size=(split, d_shared))
        shared_dist = smoothed_distances(shared_table)
        private_table = rng.normal(size=(split, d_private))
        positive = 0
        for trial in range(20):
            idx = rng.integers(0, split, size=batch)
            if trial == 0:
                idx[-1] = idx[0]          # at least one repeated row
            private = private_table[idx]
            loss, g_private = dcor_penalty(shared_dist, idx, private)
            ref_loss, ref_g_private = dcor_loss(shared_table[idx], private)
            assert loss == ref_loss
            assert np.array_equal(g_private, ref_g_private)
            positive += loss > 0.0
        # a 2-row batch scores 0 whenever it draws one row twice
        assert positive >= (1 if batch == 2 else 20)

    def test_constant_side_gives_zero(self):
        rng = np.random.default_rng(37)
        idx = rng.integers(0, 6, size=9)
        varied = rng.normal(size=(6, 3))
        for shared_table, private_table in ((np.ones((6, 3)), varied),
                                            (varied, np.ones((6, 3)))):
            loss, g_private = dcor_penalty(smoothed_distances(shared_table),
                                           idx, private_table[idx])
            assert loss == 0.0
            assert g_private.shape == (9, 3) and np.all(g_private == 0.0)


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
        rng = np.random.default_rng(37)
        s = rng.normal(size=(4, 3))
        t = rng.normal(size=(4, 3))
        for temp in (1.0, 2.0, 0.05):
            loss, _ = kl_to_logits(s, t, temp)
            assert loss == pytest.approx(self.brute_force(s, t, temp), abs=1e-12)

    def test_student_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for temp in (1.0, 0.05):
            s = rng.normal(size=(3, 4))
            t = rng.normal(size=(3, 4))
            _, grad = kl_to_logits(s, t, temp)
            fd = central_differences(lambda: kl_to_logits(s, t, temp)[0], s)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)


class TestEnsembleLosses:
    def test_symmetric_in_roles(self):
        rng = np.random.default_rng(47)
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(6, 3))
        assert kl_to_logits(a, b, 1.0)[0] == pytest.approx(
            kl_to_logits(b, a, 1.0)[0])

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


def old_distance_correlation(x, y):
    a = old_double_center(old_pairwise_distances(x))
    b = old_double_center(old_pairwise_distances(y))
    vxx, vyy = (a * a).mean(), (b * b).mean()
    if vxx < 1e-15 or vyy < 1e-15:
        return 0.0
    r2 = np.mean(a * b) / np.sqrt(vxx * vyy)
    return float(np.sqrt(max(r2, 0.0)))


def dcor_loss(shared, private):
    """The DiR penalty without the unique-row gather: distance correlation
    on smoothed distances sqrt(d^2 + 1e-12) of the gathered batches, with
    its analytic gradient w.r.t. the private batch. Returns (loss,
    grad_private); a degenerate batch or the dCov <= 0 point gives loss 0
    with a zero gradient."""
    n = shared.shape[0]
    dy = old_smoothed_distances(private)
    a, b = old_double_center(old_smoothed_distances(shared)), old_double_center(dy)
    vxy, vxx, vyy = (a * b).mean(), (a * a).mean(), (b * b).mean()
    if vxx < 1e-15 or vyy < 1e-15 or vxy / np.sqrt(vxx * vyy) <= 0.0:
        return 0.0, np.zeros_like(private)
    loss = float(np.sqrt(vxy / np.sqrt(vxx * vyy)))
    # d loss / dB = loss/(2 n^2) * (A/vxy - B/vyy)
    g = old_double_center(loss / (2.0 * n * n) * (a / vxy - b / vyy)) / (2.0 * dy)
    return loss, 4.0 * (g.sum(axis=1, keepdims=True) * private - g @ private)


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
        rng = np.random.default_rng(61 + n)
        for d in (1, 3, 32):
            x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            assert np.array_equal(smoothed_distances(x), old_smoothed_distances(x))
            y = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            assert distance_correlation(x, y) == old_distance_correlation(x, y)

    @pytest.mark.parametrize("n", [2, 3, 37, 64])
    def test_double_center(self, n):
        rng = np.random.default_rng(67 + n)
        for _ in range(20):
            for d in (rng.normal(size=(n, n)) * 1e3,
                      old_smoothed_distances(rng.normal(size=(n, 4)))):
                assert np.array_equal(double_center(d), old_double_center(d))

    @pytest.mark.parametrize("temp", [1.0, 0.05])
    def test_symmetric_kl_on_gathered_teacher_log_probs(self, temp):
        # the teacher's log probabilities, taken once over a split and
        # gathered by a batch's rows, give what the teacher's gathered
        # logits gave
        rng = np.random.default_rng(73)
        for split, batch, classes in ((15, 37, 5), (50, 64, 7), (4, 2, 3)) * 10:
            teacher = rng.normal(size=(split, classes)) * 4.0
            idx = rng.integers(0, split, size=batch)
            student = rng.normal(size=(batch, classes)) * 4.0
            loss, grad = symmetric_kl(student, log_softmax(teacher, temp)[idx], temp)
            ref_loss, ref_grad = old_symmetric_kl(student, teacher[idx], temp)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)


@st.composite
def dcor_batches(draw):
    """(shared_dist, idx, y, perm): the smoothed shared distance table of
    a split of 2-8 rows, a batch of at least 2 row indices into it (with
    repeats), the batch's private rows and a permutation of the batch."""
    m = draw(st.integers(2, 8))
    idx = np.array(draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    shared = scale * rng.standard_normal((m, draw(st.integers(1, 4))))
    private = rng.standard_normal((m, draw(st.integers(1, 4))))
    perm = np.array(draw(st.permutations(range(len(idx)))))
    return smoothed_distances(shared), idx, private[idx], perm


@st.composite
def kl_logits(draw):
    """(student, teacher) logit arrays of one shape, and a temperature."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(2, 6)))
    logits = hnp.arrays(np.float64, shape, elements=st.floats(-30.0, 30.0))
    return draw(logits), draw(logits), draw(st.floats(0.05, 4.0))


class TestKernelProperties:
    @given(dcor_batches())
    @settings(max_examples=200)
    def test_dcor_penalty_bounded_and_permutation_free(self, batch):
        # the loss only: on a batch of 2 unique rows the gradient is
        # ~1e-16 noise that moves under a permutation
        shared_dist, idx, y, perm = batch
        loss, _ = dcor_penalty(shared_dist, idx, y)
        assert 0.0 <= loss <= 1.0 + 1e-12
        permuted, _ = dcor_penalty(shared_dist, idx[perm], y[perm])
        assert abs(permuted - loss) <= 1e-12

    @given(kl_logits())
    @settings(max_examples=200)
    def test_symmetric_kl_nonnegative_and_zero_at_the_teacher(self, logits):
        student, teacher, temp = logits
        assert kl_to_logits(student, teacher, temp)[0] >= 0.0
        loss, grad = kl_to_logits(student, student, temp)
        assert loss == 0.0
        assert not grad.any()
