import numpy as np
import pytest

from xscene.nn import PROB_FLOOR, Mlp, adam_step, n_params, softmax, softmax_ce

from oracles import central_differences


def reference_softmax(z):
    """softmax as it was written before it called numpy's reductions
    directly."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(probs, labels):
    """Reference batch-mean -log p[label], with p clamped at PROB_FLOOR."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def ce_logit_grad(pred_probs, labels):
    """Reference gradient of the batch-mean cross-entropy w.r.t. the
    logits: (softmax - one_hot) / n."""
    pred_probs = np.asarray(pred_probs, dtype=np.float64)
    n = pred_probs.shape[0]
    grad = pred_probs.copy()
    grad[np.arange(n), np.asarray(labels).astype(np.int64)] -= 1.0
    return grad / n


def make_mlp(dims, rng=None):
    """Standalone Mlp over a parameter block of its own."""
    return Mlp(dims, np.zeros((4, n_params(dims))), rng)


def hand_mlp(*layers):
    """Mlp whose layer i has the i-th given (weight, bias)."""
    weights = [np.array(w, dtype=float) for w, _ in layers]
    mlp = make_mlp([weights[0].shape[0]] + [w.shape[1] for w in weights])
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
        mlp = make_mlp([4, 3], np.random.default_rng(0))
        mlp.biases[0][:] = 0.0
        out = mlp.predict(np.zeros((5, 4)))
        assert np.all(out == 0.0)

    def test_identity_passthrough(self):
        mlp = hand_mlp(([[1.0]], [0.0]))
        x = np.array([[2.5], [-1.25]])
        assert np.array_equal(mlp.predict(x), x)

    def test_predict_is_forward_without_a_cache(self):
        mlp = make_mlp([5, 7, 4, 3], np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal((6, 5))
        out, cache = mlp.forward(x)
        assert len(cache) == 3
        assert mlp.forward(x, keep_cache=False)[1] is None
        assert np.array_equal(mlp.predict(x), out)


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
        rng = np.random.default_rng(3)
        z = rng.normal(size=(40, 6)) * 10.0
        p = softmax(z)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
        assert p.min() >= 0.0 and p.max() <= 1.0


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert softmax_ce(np.array([[1000.0, 0.0]]), [0])[0] == pytest.approx(0.0)

    def test_uniform(self):
        loss, _ = softmax_ce(np.array([[0.0, 0.0]]), [1])
        assert loss == pytest.approx(np.log(2.0))

    def test_mean_invariance_for_identical_rows(self):
        row = np.log(np.array([[0.3, 0.7]]))
        single, _ = softmax_ce(row, [1])
        double, _ = softmax_ce(np.vstack([row, row]), [1, 1])
        assert double == pytest.approx(single)

    def test_equals_reference_bit_for_bit(self):
        # one softmax shared by the loss and the gradient gives exactly the
        # separate reference loss and gradient
        rng = np.random.default_rng(5)
        for n in [37, 2, 64, *rng.integers(1, 65, size=20)]:
            c = int(rng.integers(2, 9))
            z = rng.normal(size=(n, c)) * float(rng.uniform(0.1, 30.0))
            labels = rng.integers(0, min(c, 3), size=n)   # labels repeat
            loss, dz = softmax_ce(z, labels)
            probs = reference_softmax(z)
            assert np.array_equal(softmax(z), probs)
            assert loss == cross_entropy(probs, labels)
            assert np.array_equal(dz, ce_logit_grad(probs, labels))

    def test_input_left_unchanged(self):
        z = np.random.default_rng(6).normal(size=(4, 3))
        before = z.copy()
        softmax_ce(z, [0, 1, 2, 0])
        assert np.array_equal(z, before)


class TestCeLogitGrad:
    def test_hand_case(self):
        _, grad = softmax_ce(np.array([[0.0, 0.0]]), [0])
        assert grad == pytest.approx(np.array([[-0.5, 0.5]]))

    def test_perfect_prediction_zero_grad(self):
        _, grad = softmax_ce(np.array([[0.0, 1000.0]]), [1])
        assert grad == pytest.approx(np.array([[0.0, 0.0]]))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        _, analytic = softmax_ce(z, labels)
        fd = central_differences(lambda: softmax_ce(z, labels)[0], z)
        np.testing.assert_allclose(analytic, fd, atol=1e-6)


class TestAdam:
    def one_param_mlp(self, value):
        mlp = make_mlp([1, 1])
        mlp.weights[0][0, 0] = value
        return mlp

    def test_zero_gradient_only_decays(self):
        mlp = self.one_param_mlp(2.0)
        adam_step(mlp.params, lr=0.1, weight_decay=0.5, t=1)
        assert mlp.weights[0][0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_first_step_is_minus_lr(self):
        # bias correction makes the first step lr * g / (|g| + eps), with
        # the code's eps of 1e-4
        mlp = self.one_param_mlp(0.0)
        mlp.grad_weights[0][0, 0] = 1.0
        adam_step(mlp.params, lr=1e-3, weight_decay=0.0, t=1)
        assert mlp.weights[0][0, 0] == pytest.approx(-1e-3 / (1 + 1e-4), rel=1e-6)

    def test_determinism(self):
        results = []
        for _ in range(2):
            mlp = self.one_param_mlp(1.0)
            mlp.grad_weights[0][0, 0] = 0.37
            for t in range(1, 6):
                adam_step(mlp.params, lr=1e-2, weight_decay=1e-2, t=t)
            results.append(mlp.weights[0][0, 0])
        assert results[0] == results[1]


class TestParamBlock:
    def test_values_and_grads_are_rows_of_the_block(self):
        rng = np.random.default_rng(11)
        mlp = make_mlp([5, 4, 3], rng)
        probe = rng.normal(size=(4, mlp.params.shape[1]))
        mlp.params[:] = probe
        assert mlp.values.tobytes() == probe[0].tobytes()
        assert mlp.grads.tobytes() == probe[1].tobytes()
        assert np.shares_memory(mlp.values, mlp.params)
        assert np.shares_memory(mlp.grads, mlp.params)

    def test_layer_views_follow_flat_order(self):
        # weight row-major, then bias, layer by layer: the checkpoint order
        mlp = make_mlp([2, 3, 2])
        mlp.values[:] = np.arange(17.0)
        mlp.grads[:] = -np.arange(17.0)
        expected = [np.arange(6.0).reshape(2, 3), np.arange(6.0, 9.0),
                    np.arange(9.0, 15.0).reshape(3, 2), np.arange(15.0, 17.0)]
        views = [mlp.weights[0], mlp.biases[0], mlp.weights[1], mlp.biases[1]]
        grads = [mlp.grad_weights[0], mlp.grad_biases[0],
                 mlp.grad_weights[1], mlp.grad_biases[1]]
        for view, grad, want in zip(views, grads, expected):
            assert np.array_equal(view, want)
            assert np.array_equal(grad, -want)

    def test_mlp_on_a_column_slice_writes_through(self):
        whole = np.zeros((4, 10))
        mlp = Mlp([1, 2], whole[:, 3:7])
        mlp.weights[0][:] = 1.0
        mlp.biases[0][:] = 1.0
        mlp.grad_weights[0][:] = 2.0
        mlp.grad_biases[0][:] = 2.0
        mlp.params[2:] = 3.0
        mask = np.array([0, 0, 0, 1, 1, 1, 1, 0, 0, 0])
        assert np.array_equal(whole, np.outer([1, 2, 3, 3], mask))

    def test_n_params_counts_weights_and_biases(self):
        # 2*3 + 3 + 3*2 + 2 = 17: the column count of the Mlp's block
        assert n_params([2, 3, 2]) == 17
        assert n_params([5, 1]) == 6

    def test_mlp_needs_a_4_by_n_params_block(self):
        assert Mlp([2, 3, 2], np.zeros((4, 17))).params.shape == (4, 17)

    def test_mlp_views_the_block_it_is_given(self):
        block = np.zeros((4, n_params([2, 3])))
        mlp = Mlp([2, 3], block, np.random.default_rng(0))
        assert mlp.params is block
        assert np.shares_memory(mlp.weights[0], block[0])
        assert np.array_equal(block[0, :6], mlp.weights[0].ravel())


def mlp_loss(mlp, x, labels):
    out, _ = mlp.forward(x)
    return softmax_ce(out, labels)[0]


class TestMlpGradients:
    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            d = int(rng.integers(2, 9))
            h = int(rng.integers(2, 9))
            c = int(rng.integers(2, 5))
            n = int(rng.integers(1, 17))
            mlp = make_mlp([d, h, c], rng)
            x = rng.normal(size=(n, d))
            labels = rng.integers(0, c, size=n)

            out, cache = mlp.forward(x)
            mlp.backward(cache, softmax_ce(out, labels)[1])
            analytic = mlp.grads.copy()
            fd = central_differences(lambda: mlp_loss(mlp, x, labels), mlp.values)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        mlp = make_mlp([4, 6, 3], rng)
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        out, cache = mlp.forward(x)
        grad_x = mlp.backward(cache, softmax_ce(out, labels)[1])
        fd = central_differences(lambda: mlp_loss(mlp, x, labels), x)
        np.testing.assert_allclose(grad_x, fd, rtol=1e-4, atol=1e-8)

    def test_backward_writes_gradients_instead_of_adding(self):
        # stale values in the buffers and a second call leave exactly what
        # one call on a fresh block writes
        rng = np.random.default_rng(31)
        mlp = make_mlp([5, 7, 6, 3], rng)
        x = rng.normal(size=(9, 5))
        upstream = rng.normal(size=(9, 3))
        fresh = make_mlp([5, 7, 6, 3])
        fresh.values[:] = mlp.values
        fresh.backward(fresh.forward(x)[1], upstream)
        want = fresh.grads.copy()
        assert want.any()
        mlp.grads[:] = rng.normal(size=mlp.grads.size)
        _, cache = mlp.forward(x)
        for _ in range(2):
            mlp.backward(cache, upstream)
            assert np.array_equal(mlp.grads, want)

    def test_input_grad_false_skips_only_the_input_gradient(self):
        rng = np.random.default_rng(37)
        for dims in ([4, 3], [4, 6, 5, 3]):
            mlp = make_mlp(dims, rng)
            x = rng.normal(size=(8, 4))
            upstream = rng.normal(size=(8, 3))
            _, cache = mlp.forward(x)
            grad_x = mlp.backward(cache, upstream)
            assert grad_x.shape == x.shape
            full = mlp.grads.copy()
            mlp.grads[:] = 0.0
            assert mlp.backward(cache, upstream, input_grad=False) is None
            assert mlp.grads.tobytes() == full.tobytes()

    def test_backward_leaves_upstream_and_cache_unchanged(self):
        rng = np.random.default_rng(41)
        mlp = make_mlp([3, 5, 4], rng)
        _, cache = mlp.forward(rng.normal(size=(6, 3)))
        upstream = rng.normal(size=(6, 4))
        saved = [upstream.copy()] + [a.copy() for pair in cache for a in pair]
        mlp.backward(cache, upstream)
        now = [upstream] + [a for pair in cache for a in pair]
        assert all(np.array_equal(a, b) for a, b in zip(now, saved))
