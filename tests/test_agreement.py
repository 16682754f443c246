import numpy as np
import pytest

from xscene.agreement import (cosine_similarity, ema_update, gradvac_update,
                              logitnorm, logitnorm_ce, magnitude_similarity)
from xscene.errors import ConfigError, DimensionError
from xscene.nn import make_rng


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_parallel_scale_free(self):
        assert cosine_similarity([2.0, 0.0], [5.0, 0.0]) == pytest.approx(1.0)

    def test_hand_value(self):
        phi = cosine_similarity([1.0, 0.0], [1.0, 1.0])
        assert phi == pytest.approx(1.0 / np.sqrt(2.0))

    def test_zero_norm_returns_zero(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])


class TestGradvacUpdate:
    def test_hand_case(self):
        g_s = np.array([1.0, 0.0])
        g_t = np.array([0.0, 1.0])
        out = gradvac_update(g_s, g_t, phi=0.0, alpha=0.5)
        eta = 0.5 / np.sqrt(0.75)
        assert out == pytest.approx(np.array([1.0, eta]))
        assert cosine_similarity(out, g_t) == pytest.approx(0.5, abs=1e-12)

    def test_guard_no_update_when_phi_at_least_alpha(self):
        g_s = np.array([1.0, 2.0])
        out = gradvac_update(g_s, np.array([3.0, 4.0]), phi=0.9, alpha=0.5)
        assert np.array_equal(out, g_s)

    def test_alpha_equals_phi_is_noop(self):
        g_s = np.array([1.0, 0.0])
        out = gradvac_update(g_s, np.array([0.0, 1.0]), phi=0.25, alpha=0.25)
        assert np.array_equal(out, g_s)

    def test_tiny_target_norm_left_unchanged(self):
        g_s = np.array([1.0, 0.0])
        out = gradvac_update(g_s, np.array([0.0, 1e-15]), phi=-0.5, alpha=0.5)
        assert np.array_equal(out, g_s)

    def test_alignment_guarantee_random(self):
        rng = make_rng(101)
        for _ in range(300):
            dim = int(rng.integers(2, 65))
            g_s = rng.normal(size=dim)
            g_t = rng.normal(size=dim)
            phi = cosine_similarity(g_s, g_t)
            alpha = rng.uniform(phi + 1e-6, 1.0 - 1e-6)
            out = gradvac_update(g_s, g_t, phi, alpha)
            assert cosine_similarity(out, g_t) == pytest.approx(alpha, abs=1e-9)

    def test_never_shrinks_agreement(self):
        rng = make_rng(202)
        for _ in range(100):
            g_s = rng.normal(size=8)
            g_t = rng.normal(size=8)
            phi = cosine_similarity(g_s, g_t)
            alpha = rng.uniform(phi, 1.0 - 1e-6)
            out = gradvac_update(g_s, g_t, phi, alpha)
            assert cosine_similarity(out, g_t) >= phi - 1e-12


class TestEmaUpdate:
    def test_arithmetic(self):
        assert ema_update(0.0, 0.8, 0.1) == pytest.approx(0.08)

    def test_full_replacement(self):
        assert ema_update(0.3, -0.6, 1.0) == pytest.approx(-0.6)

    def test_fixed_point(self):
        assert ema_update(0.42, 0.42, 0.25) == pytest.approx(0.42)

    def test_convex_combination(self):
        rng = make_rng(5)
        for _ in range(200):
            a = rng.uniform(-0.99, 0.99)
            phi = rng.uniform(-1.0, 1.0)
            beta = rng.uniform(1e-6, 1.0)
            out = ema_update(a, phi, beta)
            assert min(a, phi) - 1e-12 <= out <= max(a, phi) + 1e-12

    def test_clamped_near_one(self):
        assert ema_update(0.9999995, 1.0, 1.0) <= 1.0 - 1e-6

    @pytest.mark.parametrize("beta", [0.0, -0.1, 1.5])
    def test_beta_validated(self, beta):
        with pytest.raises(ConfigError):
            ema_update(0.0, 0.5, beta)


class TestMagnitudeSimilarity:
    def test_equal_norms(self):
        assert magnitude_similarity([3.0, 0.0], [0.0, 3.0]) == pytest.approx(1.0)

    def test_two_to_one(self):
        assert magnitude_similarity([2.0, 0.0], [1.0, 0.0]) == pytest.approx(0.8)

    def test_zero_vector(self):
        assert magnitude_similarity([1.0, 1.0], [0.0, 0.0]) == 0.0

    def test_symmetric_and_scale_invariant(self):
        rng = make_rng(17)
        for _ in range(50):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            s = float(rng.uniform(0.1, 10.0))
            assert magnitude_similarity(a, b) == pytest.approx(magnitude_similarity(b, a))
            assert magnitude_similarity(s * a, s * b) == pytest.approx(
                magnitude_similarity(a, b), rel=1e-9)


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
        rng = make_rng(23)
        z = rng.normal(size=7)
        for c in (0.5, 3.0, 1000.0):
            np.testing.assert_allclose(logitnorm(c * z, tau), logitnorm(z, tau),
                                       atol=1e-12)

    def test_norm_and_argmax_random(self):
        tau = 2.0
        rng = make_rng(29)
        for _ in range(100):
            z = rng.normal(size=int(rng.integers(2, 12)))
            out = logitnorm(z, tau)
            assert np.linalg.norm(out) == pytest.approx(1.0 / tau, abs=1e-12)
            assert np.argmax(out) == np.argmax(z)


class TestLogitNormCe:
    def test_gradient_matches_finite_differences(self):
        tau = 2.0
        rng = make_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            c = int(rng.integers(2, 6))
            z = rng.normal(size=(n, c))
            labels = rng.integers(0, c, size=n)
            grad = logitnorm_ce(z, labels, tau)[1]
            h = 1e-5
            fd = np.zeros_like(z)
            for i in range(n):
                for j in range(c):
                    zp, zm = z.copy(), z.copy()
                    zp[i, j] += h
                    zm[i, j] -= h
                    fd[i, j] = (logitnorm_ce(zp, labels, tau)[0]
                                - logitnorm_ce(zm, labels, tau)[0]) / (2 * h)
            np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_dominant_correct_class_beats_uniform(self):
        tau = 2.0
        z = np.array([[4.0, -1.0, -1.0]])
        loss = logitnorm_ce(z, [0], tau)[0]
        assert loss < np.log(3.0)

    def test_row_rescaling_leaves_loss_unchanged(self):
        tau = 2.0
        rng = make_rng(37)
        z = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        base = logitnorm_ce(z, labels, tau)[0]
        scaled = logitnorm_ce(10.0 * z, labels, tau)[0]
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_norm_err_is_the_deviation_of_the_normalized_rows(self):
        # bit for bit the max | |logitnorm(row)| - 1/tau | over the rows of
        # non-zero logits; all-zero rows are left out
        tau = 2.0
        rng = make_rng(41)
        z = rng.normal(size=(6, 4)) * np.array([[1e-3], [1.0], [50.0], [0.0],
                                                [7.0], [1e3]])
        labels = rng.integers(0, 4, size=6)
        live = np.linalg.norm(z, axis=1) > 0.0
        want = float(np.abs(np.linalg.norm(logitnorm(z[live], tau), axis=1)
                            - 1.0 / tau).max())
        assert logitnorm_ce(z, labels, tau)[2] == want
        assert logitnorm_ce(np.zeros((3, 4)), [0, 1, 2], tau)[2] == 0.0
