import numpy as np
import pytest

from xscene.errors import ConfigError, DimensionError
from xscene.nn import (Mlp, adam_step, ce_logit_grad, cross_entropy, make_rng,
                       softmax)


def hand_mlp(*layers):
    """Mlp whose layer i has the i-th given (weight, bias)."""
    weights = [np.array(w, dtype=float) for w, _ in layers]
    mlp = Mlp([weights[0].shape[0]] + [w.shape[1] for w in weights])
    for i, (w, (_, b)) in enumerate(zip(weights, layers)):
        mlp.weights[i][:] = w
        mlp.biases[i][:] = b
    return mlp


class TestLinear:
    def test_hand_multiply(self):
        mlp = hand_mlp(([[2.0], [3.0]], [1.0]))
        out = mlp.predict(np.array([[1.0, 0.0]]))
        assert out == pytest.approx(np.array([[3.0]]))

    def test_zero_input(self):
        mlp = Mlp([4, 3], make_rng(0))
        mlp.biases[0][:] = 0.0
        out = mlp.predict(np.zeros((5, 4)))
        assert np.all(out == 0.0)

    def test_identity_passthrough(self):
        mlp = hand_mlp(([[1.0]], [0.0]))
        x = np.array([[2.5], [-1.25]])
        assert np.array_equal(mlp.predict(x), x)

    def test_shape_mismatch(self):
        mlp = hand_mlp(([[1.0], [1.0]], [0.0]))
        with pytest.raises(DimensionError):
            mlp.predict(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            mlp.predict(np.ones(2))


# two identity layers: the output is relu(x), the input gradient relu'(x) * g
IDENTITY_RELU = (([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]),) * 2


class TestRelu:
    def test_forward_sign_split(self):
        out = hand_mlp(*IDENTITY_RELU).predict(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_backward_mask(self):
        mlp = hand_mlp(*IDENTITY_RELU)
        _, cache = mlp.forward(np.array([[-1.0, 2.0]]))
        grad_x = mlp.backward(cache, np.array([[5.0, 5.0]]))
        assert np.array_equal(grad_x, [[0.0, 5.0]])

    def test_zero_boundary_gives_zero_gradient(self):
        mlp = hand_mlp(([[1.0]], [0.0]), ([[1.0]], [0.0]))
        out, cache = mlp.forward(np.array([[0.0]]))
        assert out[0, 0] == 0.0
        assert mlp.backward(cache, np.array([[7.0]]))[0, 0] == 0.0
        assert mlp.grad_weights[0][0, 0] == 0.0
        assert mlp.grad_biases[0][0] == 0.0


class TestSoftmax:
    def test_symmetry(self):
        assert softmax(np.array([[0.0, 0.0]])) == pytest.approx(np.array([[0.5, 0.5]]))

    def test_ln2_case(self):
        out = softmax(np.array([[np.log(2.0), 0.0]]))
        assert out == pytest.approx(np.array([[2.0 / 3.0, 1.0 / 3.0]]))

    def test_large_logits_stable(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = make_rng(3)
        z = rng.normal(size=(40, 6)) * 10.0
        p = softmax(z)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
        assert p.min() >= 0.0 and p.max() <= 1.0


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert cross_entropy(np.array([[1.0, 0.0]]), [0]) == pytest.approx(0.0)

    def test_uniform(self):
        loss = cross_entropy(np.array([[0.5, 0.5]]), [1])
        assert loss == pytest.approx(np.log(2.0))

    def test_mean_invariance_for_identical_rows(self):
        row = np.array([[0.3, 0.7]])
        single = cross_entropy(row, [1])
        double = cross_entropy(np.vstack([row, row]), [1, 1])
        assert double == pytest.approx(single)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.array([[0.5, 0.5]]), [2])


class TestCeLogitGrad:
    def test_hand_case(self):
        grad = ce_logit_grad(np.array([[0.5, 0.5]]), [0])
        assert grad == pytest.approx(np.array([[-0.5, 0.5]]))

    def test_perfect_prediction_zero_grad(self):
        grad = ce_logit_grad(np.array([[0.0, 1.0]]), [1])
        assert grad == pytest.approx(np.array([[0.0, 0.0]]))

    def test_matches_finite_differences(self):
        rng = make_rng(7)
        z = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        analytic = ce_logit_grad(softmax(z), labels)
        h = 1e-5
        fd = np.zeros_like(z)
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                fd[i, j] = (cross_entropy(softmax(zp), labels)
                            - cross_entropy(softmax(zm), labels)) / (2 * h)
        np.testing.assert_allclose(analytic, fd, atol=1e-6)


class TestAdam:
    def one_param_mlp(self, value):
        mlp = Mlp([1, 1])
        mlp.weights[0][0, 0] = value
        return mlp

    def test_zero_gradient_only_decays(self):
        mlp = self.one_param_mlp(2.0)
        adam_step(mlp.params, lr=0.1, weight_decay=0.5, t=1)
        assert mlp.weights[0][0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_first_step_is_minus_lr(self):
        mlp = self.one_param_mlp(0.0)
        mlp.grad_weights[0][0, 0] = 1.0
        adam_step(mlp.params, lr=1e-3, beta1=0.9, beta2=0.999,
                  weight_decay=0.0, t=1)
        assert mlp.weights[0][0, 0] == pytest.approx(-1e-3, rel=1e-6)

    def test_determinism(self):
        results = []
        for _ in range(2):
            mlp = self.one_param_mlp(1.0)
            mlp.grad_weights[0][0, 0] = 0.37
            for t in range(1, 6):
                adam_step(mlp.params, lr=1e-2, weight_decay=1e-2, t=t)
            results.append(mlp.weights[0][0, 0])
        assert results[0] == results[1]

    def test_step_counter_validated(self):
        with pytest.raises(ConfigError):
            adam_step(self.one_param_mlp(1.0).params, lr=1e-3, t=0)


class TestParamSet:
    def test_flatten_round_trip_bit_exact(self):
        rng = make_rng(11)
        mlp = Mlp([5, 4, 3], rng)
        flat = mlp.params.flatten_params()
        probe = rng.normal(size=flat.shape)
        mlp.params.set_flat_params(probe)
        assert np.array_equal(mlp.params.flatten_params(), probe)
        mlp.params.set_flat_grads(probe)
        assert np.array_equal(mlp.params.flatten_grads(), probe)

    def test_layer_views_follow_flat_order(self):
        # weight row-major, then bias, layer by layer: the checkpoint order
        mlp = Mlp([2, 3, 2])
        mlp.params.set_flat_params(np.arange(17.0))
        mlp.params.set_flat_grads(-np.arange(17.0))
        expected = [np.arange(6.0).reshape(2, 3), np.arange(6.0, 9.0),
                    np.arange(9.0, 15.0).reshape(3, 2), np.arange(15.0, 17.0)]
        views = [mlp.weights[0], mlp.biases[0], mlp.weights[1], mlp.biases[1]]
        grads = [mlp.grad_weights[0], mlp.grad_biases[0],
                 mlp.grad_weights[1], mlp.grad_biases[1]]
        for view, grad, want in zip(views, grads, expected):
            assert np.array_equal(view, want)
            assert np.array_equal(grad, -want)

    def test_flatten_length_checked(self):
        mlp = Mlp([3, 2], make_rng(0))
        with pytest.raises(DimensionError):
            mlp.params.set_flat_params(np.zeros(5))


def mlp_loss(mlp, x, labels):
    out, _ = mlp.forward(x)
    return cross_entropy(softmax(out), labels)


class TestMlpGradients:
    def test_parameter_gradients_match_finite_differences(self):
        rng = make_rng(23)
        for _ in range(5):
            d = int(rng.integers(2, 9))
            h = int(rng.integers(2, 9))
            c = int(rng.integers(2, 5))
            n = int(rng.integers(1, 17))
            mlp = Mlp([d, h, c], rng)
            x = rng.normal(size=(n, d))
            labels = rng.integers(0, c, size=n)

            out, cache = mlp.forward(x)
            mlp.params.zero_grads()
            mlp.backward(cache, ce_logit_grad(softmax(out), labels))
            analytic = mlp.params.flatten_grads()

            flat = mlp.params.flatten_params()
            step = 1e-5
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[i] += step
                down[i] -= step
                mlp.params.set_flat_params(up)
                lp = mlp_loss(mlp, x, labels)
                mlp.params.set_flat_params(down)
                lm = mlp_loss(mlp, x, labels)
                fd[i] = (lp - lm) / (2 * step)
            mlp.params.set_flat_params(flat)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)

    def test_input_gradient_matches_finite_differences(self):
        rng = make_rng(29)
        mlp = Mlp([4, 6, 3], rng)
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        out, cache = mlp.forward(x)
        mlp.params.zero_grads()
        grad_x = mlp.backward(cache, ce_logit_grad(softmax(out), labels))
        step = 1e-5
        fd = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += step
                xm[i, j] -= step
                fd[i, j] = (mlp_loss(mlp, xp, labels) - mlp_loss(mlp, xm, labels)) / (2 * step)
        np.testing.assert_allclose(grad_x, fd, rtol=1e-4, atol=1e-8)
