import numpy as np
import pytest

from xscene.agreement import (ALPHA_LIMIT, NORM_EPS, ema_update, gradvac_update,
                              logitnorm, logitnorm_ce)
from xscene.nn import softmax_ce

from oracles import central_differences


# Reference oracles: the three primitives the training step once called one
# after another, and that sequence itself, with norms through np.linalg.norm.
# gradvac_update must give every field of it bit for bit, fired or not.

def cosine_similarity(g_s, g_t):
    ns = np.linalg.norm(g_s)
    nt = np.linalg.norm(g_t)
    if ns < NORM_EPS or nt < NORM_EPS:
        return 0.0
    return float(g_s @ g_t / (ns * nt))


def rotate(g_s, g_t, phi, alpha):
    """The old two-argument gradvac_update: phi is cos(g_s, g_t)."""
    alpha = float(np.clip(alpha, -ALPHA_LIMIT, ALPHA_LIMIT))
    if phi >= alpha:
        return g_s
    nt = np.linalg.norm(g_t)
    if nt < NORM_EPS:
        return g_s
    ns = np.linalg.norm(g_s)
    sin_alpha = np.sqrt(1.0 - alpha * alpha)
    sin_phi = np.sqrt(max(1.0 - phi * phi, 0.0))
    eta = ns * (alpha * sin_phi - phi * sin_alpha) / (nt * sin_alpha)
    return g_s + eta * g_t


def magnitude_similarity(g_s, g_t):
    ns = np.linalg.norm(g_s)
    nt = np.linalg.norm(g_t)
    denom = ns * ns + nt * nt
    if denom < NORM_EPS:
        return 0.0
    return float(2.0 * ns * nt / denom)


def reference_step(g_s, g_t, alpha, enabled):
    """(g, phi_raw, phi_post, mag_sim, gs_norm, gt_norm, gradvac_applied)
    as the training step computed them from the three primitives."""
    phi_raw = cosine_similarity(g_s, g_t)
    gt_norm = float(np.linalg.norm(g_t))
    applied = bool(enabled and phi_raw < alpha and gt_norm >= NORM_EPS)
    g_post = rotate(g_s, g_t, phi_raw, alpha) if applied else g_s
    return (g_post, float(phi_raw), float(cosine_similarity(g_post, g_t)),
            float(magnitude_similarity(g_s, g_t)), float(np.linalg.norm(g_s)),
            gt_norm, applied)


def old_ema_update(alpha_prev, phi_prev, beta):
    """ema_update as it clamped before: through np.clip."""
    alpha = (1.0 - beta) * alpha_prev + beta * phi_prev
    return float(np.clip(alpha, -ALPHA_LIMIT, ALPHA_LIMIT))


def old_logitnorm_ce(z, labels, tau):
    """logitnorm_ce as it was written before it called numpy's reductions
    directly: row norms through np.linalg.norm, sums through np.sum."""
    raw = np.linalg.norm(z, axis=1, keepdims=True)
    norms = np.maximum(raw, NORM_EPS)
    zh = z / (tau * norms)
    loss, gh = softmax_ce(zh, labels)
    dot = np.sum(zh * gh, axis=1, keepdims=True)
    grad_z = (gh - zh * dot * tau ** 2) / (tau * norms)
    live = raw[:, 0] >= NORM_EPS
    norm_err = (float(np.abs(np.linalg.norm(zh[live], axis=1) - 1.0 / tau).max())
                if live.any() else 0.0)
    return loss, grad_z, norm_err


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def assert_matches_reference(g_s, g_t, alpha, enabled):
    res = gradvac_update(g_s, g_t, alpha, enabled)
    want = reference_step(g_s, g_t, alpha, enabled)
    got = (res.g, res.phi_raw, res.phi_post, res.mag_sim, res.gs_norm,
           res.gt_norm, res.gradvac_applied)
    assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
    for name, a, b in zip(("phi_raw", "phi_post", "mag_sim", "gs_norm",
                           "gt_norm"), got[1:6], want[1:6]):
        assert type(a) is float and np.float64(a).tobytes() == np.float64(b).tobytes(), name
    assert got[6] is want[6]
    return res


class TestMatchesReference:
    def test_random_pairs(self):
        rng = np.random.default_rng(303)
        fired = 0
        for i in range(400):
            dim = 4192 if i % 50 == 0 else int(rng.integers(2, 65))
            g_s = rng.normal(size=dim) * 10.0 ** rng.uniform(-6, 3)
            g_t = rng.normal(size=dim) * 10.0 ** rng.uniform(-6, 3)
            if i % 3:
                alpha = float(rng.uniform(-ALPHA_LIMIT, ALPHA_LIMIT))
            else:  # close above or below the real cosine
                alpha = float(np.clip(cosine(g_s, g_t) + rng.uniform(-1e-3, 1e-3),
                                      -ALPHA_LIMIT, ALPHA_LIMIT))
            enabled = i % 4 != 0
            fired += assert_matches_reference(g_s, g_t, alpha, enabled).gradvac_applied
        assert 50 < fired < 350

    @pytest.mark.parametrize("g_s, g_t, alpha, enabled, fires", [
        ([1.0, 0.0], [-1.0, 1.0], 0.5, False, False),   # GradVac off
        ([3.0, 4.0], [4.0, 3.0], 0.5, True, False),     # phi = 0.96 >= alpha
        ([3.0, 4.0], [4.0, 3.0], 0.96, True, False),    # phi == alpha
        ([1.0, 0.0], [0.0, 1e-15], 0.5, True, False),   # |g_t| below NORM_EPS
        ([0.0, 0.0], [1.0, 2.0], 0.5, True, True),      # g_s all zero
        ([0.0, 0.0], [0.0, 0.0], 0.5, True, False),     # both zero
        ([1.0, 0.0], [-1.0, 1.0], 0.5, True, True),
    ])
    def test_edge_cases(self, g_s, g_t, alpha, enabled, fires):
        res = assert_matches_reference(np.array(g_s), np.array(g_t), alpha, enabled)
        assert res.gradvac_applied is fires


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert gradvac_update(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0,
                              True).phi_raw == 0.0

    def test_parallel_scale_free(self):
        res = gradvac_update(np.array([2.0, 0.0]), np.array([5.0, 0.0]), 0.5, True)
        assert res.phi_raw == pytest.approx(1.0)
        assert (res.gs_norm, res.gt_norm) == (2.0, 5.0)

    def test_hand_value(self):
        res = gradvac_update(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 0.0, False)
        assert res.phi_raw == pytest.approx(1.0 / np.sqrt(2.0))

    def test_zero_norm_returns_zero(self):
        assert gradvac_update(np.array([0.0, 0.0]), np.array([1.0, 2.0]), 0.0,
                              False).phi_raw == 0.0


class TestGradvacUpdate:
    def test_hand_case(self):
        g_s = np.array([1.0, 0.0])
        g_t = np.array([0.0, 1.0])
        res = gradvac_update(g_s, g_t, 0.5, True)
        eta = 0.5 / np.sqrt(0.75)
        assert res.gradvac_applied is True
        assert res.g == pytest.approx(np.array([1.0, eta]))
        assert cosine(res.g, g_t) == pytest.approx(0.5, abs=1e-12)
        assert res.phi_post == pytest.approx(0.5, abs=1e-12)
        assert res.phi_raw == 0.0

    # cos([3, 4], [4, 3]) is 24/25 = 0.96 exactly
    def test_guard_no_update_when_phi_at_least_alpha(self):
        g_s = np.array([3.0, 4.0])
        res = gradvac_update(g_s, np.array([4.0, 3.0]), 0.5, True)
        assert res.phi_raw == 0.96
        assert res.gradvac_applied is False
        assert np.array_equal(res.g, g_s)
        assert res.phi_post == res.phi_raw

    def test_alpha_equals_phi_is_noop(self):
        g_s = np.array([3.0, 4.0])
        res = gradvac_update(g_s, np.array([4.0, 3.0]), 0.96, True)
        assert res.phi_raw == 0.96
        assert res.gradvac_applied is False
        assert np.array_equal(res.g, g_s)

    def test_tiny_target_norm_left_unchanged(self):
        g_s = np.array([1.0, 0.0])
        res = gradvac_update(g_s, np.array([0.0, 1e-15]), 0.5, True)
        assert res.gradvac_applied is False
        assert np.array_equal(res.g, g_s)

    def test_disabled_measures_but_never_rotates(self):
        g_s = np.array([1.0, 0.0])
        g_t = np.array([-1.0, 1.0])
        off = gradvac_update(g_s, g_t, 0.9, False)
        on = gradvac_update(g_s, g_t, 0.9, True)
        assert off.gradvac_applied is False and on.gradvac_applied is True
        assert np.array_equal(off.g, g_s) and off.phi_post == off.phi_raw
        assert (off.phi_raw, off.mag_sim, off.gs_norm, off.gt_norm) == (
            on.phi_raw, on.mag_sim, on.gs_norm, on.gt_norm)

    def test_zero_source_gradient_stays_zero(self):
        res = gradvac_update(np.zeros(3), np.array([1.0, 2.0, 3.0]), 0.5, True)
        assert res.gradvac_applied is True
        assert not res.g.any()
        assert res.phi_post == 0.0 and res.mag_sim == 0.0

    def test_never_shrinks_agreement(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            g_s = rng.normal(size=8)
            g_t = rng.normal(size=8)
            phi = cosine(g_s, g_t)
            alpha = rng.uniform(phi, 1.0 - 1e-6)
            res = gradvac_update(g_s, g_t, alpha, True)
            assert cosine(res.g, g_t) >= phi - 1e-12


class TestGradvacMagSim:
    def test_equal_norms(self):
        res = gradvac_update(np.array([3.0, 0.0]), np.array([0.0, 3.0]), 0.0, False)
        assert res.mag_sim == pytest.approx(1.0)

    def test_two_to_one(self):
        res = gradvac_update(np.array([2.0, 0.0]), np.array([1.0, 0.0]), 0.0, False)
        assert res.mag_sim == pytest.approx(0.8)

    def test_zero_vector(self):
        res = gradvac_update(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 0.0, False)
        assert res.mag_sim == 0.0

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            s = float(rng.uniform(0.1, 10.0))
            mag = gradvac_update(a, b, 0.0, False).mag_sim
            assert gradvac_update(b, a, 0.0, False).mag_sim == pytest.approx(mag)
            assert gradvac_update(s * a, s * b, 0.0, False).mag_sim == pytest.approx(
                mag, rel=1e-9)


class TestEmaUpdate:
    def test_arithmetic(self):
        assert ema_update(0.0, 0.8, 0.1) == pytest.approx(0.08)

    def test_full_replacement(self):
        assert ema_update(0.3, -0.6, 1.0) == pytest.approx(-0.6)

    def test_fixed_point(self):
        assert ema_update(0.42, 0.42, 0.25) == pytest.approx(0.42)

    def test_convex_combination(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.uniform(-0.99, 0.99)
            phi = rng.uniform(-1.0, 1.0)
            beta = rng.uniform(1e-6, 1.0)
            out = ema_update(a, phi, beta)
            assert min(a, phi) - 1e-12 <= out <= max(a, phi) + 1e-12

    def test_clamped_near_one(self):
        assert ema_update(0.9999995, 1.0, 1.0) <= 1.0 - 1e-6


class TestEmaMatchesOldFormulation:
    @pytest.mark.parametrize("alpha_prev, phi_prev, beta", [
        (ALPHA_LIMIT, 1.0, 0.5),        # clamped at +ALPHA_LIMIT
        (-ALPHA_LIMIT, -1.0, 0.5),      # clamped at -ALPHA_LIMIT
        (0.3, 1.0, 1.0),                # full replacement, clamped
        (-0.3, -1.0, 1.0),
    ])
    def test_clamps(self, alpha_prev, phi_prev, beta):
        got = ema_update(alpha_prev, phi_prev, beta)
        want = old_ema_update(alpha_prev, phi_prev, beta)
        assert abs(want) == ALPHA_LIMIT
        assert type(got) is float and got == want

    def test_random_in_range(self):
        rng = np.random.default_rng(311)
        for _ in range(200):
            args = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                    float(rng.uniform(1e-3, 1.0)))
            got = ema_update(*args)
            assert type(got) is float and got == old_ema_update(*args)


class TestLogitNorm:
    def test_three_four_five(self):
        out = logitnorm(np.array([3.0, 4.0]), 2.0)
        assert out == pytest.approx(np.array([0.3, 0.4]))
        assert np.linalg.norm(out) == pytest.approx(0.5)

    def test_zero_vector_guarded(self):
        out = logitnorm(np.zeros(3), 2.0)
        assert np.array_equal(out, np.zeros(3))

    def test_scale_invariance(self):
        tau = 1.5
        rng = np.random.default_rng(23)
        z = rng.normal(size=7)
        for c in (0.5, 3.0, 1000.0):
            np.testing.assert_allclose(logitnorm(c * z, tau), logitnorm(z, tau),
                                       atol=1e-12)


class TestLogitNormCe:
    def test_gradient_matches_finite_differences(self):
        tau = 2.0
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            c = int(rng.integers(2, 6))
            z = rng.normal(size=(n, c))
            labels = rng.integers(0, c, size=n)
            grad = logitnorm_ce(z, labels, tau)[1]
            fd = central_differences(lambda: logitnorm_ce(z, labels, tau)[0], z)
            np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_dominant_correct_class_beats_uniform(self):
        tau = 2.0
        z = np.array([[4.0, -1.0, -1.0]])
        loss = logitnorm_ce(z, [0], tau)[0]
        assert loss < np.log(3.0)

    @pytest.mark.parametrize("n, c", [(37, 7), (64, 7), (5, 2), (2, 9)])
    def test_matches_old_formulation(self, n, c):
        # bit for bit, with an all-zero logit row among live ones, so the
        # left-out rows path runs
        rng = np.random.default_rng(43 + n + c)
        for trial in range(10):
            z = rng.normal(size=(n, c)) * 10.0 ** rng.uniform(-3, 3)
            if trial % 2 == 0:
                z[rng.integers(0, n)] = 0.0
            labels = rng.integers(0, c, size=n)
            loss, grad, err = logitnorm_ce(z, labels, 2.0)
            ref_loss, ref_grad, ref_err = old_logitnorm_ce(z, labels, 2.0)
            assert loss == ref_loss and err == ref_err
            assert np.array_equal(grad, ref_grad)

    def test_norm_err_is_the_deviation_of_the_normalized_rows(self):
        # bit for bit the max | |logitnorm(row)| - 1/tau | over the rows of
        # non-zero logits; all-zero rows are left out
        tau = 2.0
        rng = np.random.default_rng(41)
        z = rng.normal(size=(6, 4)) * np.array([[1e-3], [1.0], [50.0], [0.0],
                                                [7.0], [1e3]])
        labels = rng.integers(0, 4, size=6)
        live = np.linalg.norm(z, axis=1) > 0.0
        want = float(np.abs(np.linalg.norm(logitnorm(z[live], tau), axis=1)
                            - 1.0 / tau).max())
        assert logitnorm_ce(z, labels, tau)[2] == want
        assert logitnorm_ce(np.zeros((3, 4)), [0, 1, 2], tau)[2] == 0.0
