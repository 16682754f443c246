import numpy as np
import pytest

from xscene.agreement import LogitNormConfig, cosine_similarity
from xscene.errors import DataError, DimensionError
from xscene.model import (AGREEMENT_COMPONENTS, COMPONENT_ORDER,
                          ENSEMBLE_COMPONENTS, PRIVATE_COMPONENTS, ModelBundle,
                          forward_ensemble, forward_target_agree,
                          forward_target_disagree, shared_gradients)
from xscene.nn import cross_entropy, make_rng, softmax


def forward_source(bundle, x):
    """Reference source logits: source_head(shared_encoder(source_extractor(x)))."""
    feats = bundle.source_extractor.predict(x)
    return bundle.source_head.predict(bundle.shared_encoder.predict(feats))


def tiny_bundle(seed=0, bands_source=6, bands_target=5, classes_source=3,
                classes_target=3, feat_dim=4, hidden_dim=4, enc_dim=4):
    return ModelBundle.build(bands_source, bands_target, classes_source,
                             classes_target, feat_dim, hidden_dim, enc_dim,
                             make_rng(seed))


def hand_bundle():
    """All components single affine layers with hand-set weights."""
    bundle = tiny_bundle()
    dims = {
        "source_extractor": [2, 2], "target_extractor": [2, 2],
        "shared_encoder": [2, 2], "source_head": [2, 2],
        "target_head": [2, 2], "private_extractor": [2, 2],
        "private_encoder": [2, 2], "private_head": [2, 2],
        "ensemble_encoder": [2, 2], "ensemble_head": [2, 2],
    }
    bundle = ModelBundle.from_layout(dims)
    for name in COMPONENT_ORDER:
        mlp = getattr(bundle, name)
        mlp.weights[0][:] = np.array([[1.0, 2.0], [0.0, 1.0]])
        mlp.biases[0][:] = np.array([0.5, -0.5])
    return bundle


class TestForwards:
    def test_hand_chain(self):
        bundle = hand_bundle()
        x = np.array([[1.0, 1.0]])
        step = lambda v: v @ np.array([[1.0, 2.0], [0.0, 1.0]]) + np.array([0.5, -0.5])
        expected = step(step(step(x)))
        np.testing.assert_allclose(forward_source(bundle, x), expected)
        np.testing.assert_allclose(forward_target_agree(bundle, x), expected)

    def test_disagree_returns_features_and_logits(self):
        bundle = hand_bundle()
        x = np.array([[1.0, 1.0]])
        step = lambda v: v @ np.array([[1.0, 2.0], [0.0, 1.0]]) + np.array([0.5, -0.5])
        feats, logits = forward_target_disagree(bundle, x)
        np.testing.assert_allclose(feats, step(step(x)))
        np.testing.assert_allclose(logits, step(step(step(x))))

    def test_ensemble_uses_target_extractor_features(self):
        bundle = tiny_bundle(seed=3)
        x = make_rng(1).normal(size=(4, 5))
        base = bundle.target_extractor.predict(x)
        expected = bundle.ensemble_head.predict(bundle.ensemble_encoder.predict(base))
        np.testing.assert_allclose(forward_ensemble(bundle, x), expected)

    def test_identical_rows_identical_logits(self):
        bundle = tiny_bundle(seed=5)
        row = make_rng(2).normal(size=(1, 6))
        out = forward_source(bundle, np.repeat(row, 4, axis=0))
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[0], out[3])

    def test_band_mismatch(self):
        bundle = tiny_bundle()
        with pytest.raises(DimensionError):
            forward_source(bundle, np.ones((2, 7)))


class TestSharedGradients:
    def test_identical_tasks_give_identical_gradients(self):
        bundle = tiny_bundle(seed=7, bands_source=5, bands_target=5)
        src = bundle.source_extractor.params.flatten_params()
        bundle.target_extractor.params.set_flat_params(src)
        head = bundle.source_head.params.flatten_params()
        bundle.target_head.params.set_flat_params(head)
        rng = make_rng(11)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        g_s, g_t = shared_gradients(bundle, (x, y), (x.copy(), y.copy()))
        assert np.array_equal(g_s, g_t)
        assert cosine_similarity(g_s, g_t) == pytest.approx(1.0)

    def test_source_gradient_ignores_target_batch(self):
        bundle = tiny_bundle(seed=9)
        rng = make_rng(13)
        xs = rng.normal(size=(4, 6))
        ys = rng.integers(0, 3, size=4)
        xt1 = rng.normal(size=(5, 5))
        yt1 = rng.integers(0, 3, size=5)
        xt2 = rng.normal(size=(5, 5))
        yt2 = rng.integers(0, 3, size=5)
        g_s1, _ = shared_gradients(bundle, (xs, ys), (xt1, yt1))
        g_s2, _ = shared_gradients(bundle, (xs, ys), (xt2, yt2))
        assert np.array_equal(g_s1, g_s2)

    def _fd_shared(self, bundle, x, y, forward_parts, ln_cfg=None):
        extractor, head = forward_parts
        flat = bundle.shared_encoder.params.flatten_params()
        h = 1e-5

        def loss_at(vec):
            bundle.shared_encoder.params.set_flat_params(vec)
            feats = extractor.predict(x)
            z = head.predict(bundle.shared_encoder.predict(feats))
            if ln_cfg is None:
                return cross_entropy(softmax(z), y)
            from xscene.agreement import logitnorm_ce
            return logitnorm_ce(z, y, ln_cfg)[0]

        fd = np.zeros_like(flat)
        for i in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (loss_at(up) - loss_at(down)) / (2 * h)
        bundle.shared_encoder.params.set_flat_params(flat)
        return fd

    @pytest.mark.parametrize("use_ln", [False, True])
    def test_matches_finite_differences(self, use_ln):
        ln_cfg = LogitNormConfig(tau=2.0) if use_ln else None
        bundle = tiny_bundle(seed=21)
        rng = make_rng(23)
        xs = rng.normal(size=(5, 6))
        ys = rng.integers(0, 3, size=5)
        xt = rng.normal(size=(4, 5))
        yt = rng.integers(0, 3, size=4)
        g_s, g_t = shared_gradients(bundle, (xs, ys), (xt, yt), ln_cfg)
        fd_s = self._fd_shared(bundle, xs, ys,
                               (bundle.source_extractor, bundle.source_head), ln_cfg)
        fd_t = self._fd_shared(bundle, xt, yt,
                               (bundle.target_extractor, bundle.target_head), ln_cfg)
        np.testing.assert_allclose(g_s, fd_s, rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(g_t, fd_t, rtol=1e-4, atol=1e-8)

    def test_empty_batch_rejected(self):
        bundle = tiny_bundle()
        with pytest.raises(DataError):
            shared_gradients(bundle, (np.zeros((0, 6)), np.zeros(0, dtype=int)),
                             (np.ones((2, 5)), np.zeros(2, dtype=int)))


class TestStructure:
    def test_flatten_order_stable(self):
        bundle = tiny_bundle(seed=31)
        a = bundle.shared_encoder.params.flatten_params()
        b = bundle.shared_encoder.params.flatten_params()
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()

    def test_branches_share_no_arrays(self):
        bundle = tiny_bundle(seed=33)
        def views(names):
            out = []
            for name in names:
                mlp = getattr(bundle, name)
                out += mlp.weights + mlp.biases + mlp.grad_weights + mlp.grad_biases
            return out
        agree = views(AGREEMENT_COMPONENTS)
        private = views(PRIVATE_COMPONENTS)
        ens = views(ENSEMBLE_COMPONENTS)
        for a, b in ((agree, private), (agree, ens), (private, ens)):
            assert not any(np.shares_memory(x, y) for x in a for y in b)

    def test_layout_round_trip(self):
        bundle = tiny_bundle(seed=35)
        rebuilt = ModelBundle.from_layout(bundle.layout())
        assert rebuilt.layout() == bundle.layout()
        assert rebuilt.bands_source == 6
        assert rebuilt.classes_target == 3

    def test_gradvac_only_touches_shared_encoder_grads(self):
        # surgery output is written into the shared encoder's buffers by
        # the caller; extractor and head gradients are whatever their own
        # loss produced
        bundle = tiny_bundle(seed=37)
        rng = make_rng(39)
        xs = rng.normal(size=(4, 6))
        ys = rng.integers(0, 3, size=4)
        xt = rng.normal(size=(4, 5))
        yt = rng.integers(0, 3, size=4)
        shared_gradients(bundle, (xs, ys), (xt, yt))
        before = {name: getattr(bundle, name).params.flatten_grads()
                  for name in ("source_extractor", "target_extractor",
                               "source_head", "target_head")}
        bundle.shared_encoder.params.set_flat_grads(
            np.zeros(bundle.shared_encoder.params.n_params))
        for name, grads in before.items():
            assert np.array_equal(getattr(bundle, name).params.flatten_grads(),
                                  grads)
