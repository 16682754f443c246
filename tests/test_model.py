import numpy as np
import pytest

from xscene.agreement import gradvac_update, logitnorm_ce
from xscene.errors import DataError, DimensionError
from xscene.model import (COMPONENT_ORDER, ModelBundle, agreement_backward,
                          forward_ensemble, forward_target_agree,
                          forward_target_disagree)
from xscene.nn import adam_step, make_rng, softmax_ce

# each branch's contiguous run of components
BRANCHES = {"agreement": COMPONENT_ORDER[:5], "private": COMPONENT_ORDER[5:8],
            "ensemble": COMPONENT_ORDER[8:]}


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
    bundle = ModelBundle({name: [2, 2] for name in COMPONENT_ORDER})
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

    def test_disagree_returns_private_logits(self):
        bundle = tiny_bundle(seed=3)
        x = make_rng(1).normal(size=(4, 5))
        feats = bundle.private_encoder.predict(bundle.private_extractor.predict(x))
        expected = bundle.private_head.predict(feats)
        np.testing.assert_allclose(forward_target_disagree(bundle, x), expected)

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
        src = bundle.source_extractor.params.values.copy()
        bundle.target_extractor.params.set_flat_params(src)
        head = bundle.source_head.params.values.copy()
        bundle.target_head.params.set_flat_params(head)
        rng = make_rng(11)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        res = agreement_backward(bundle, (x, y), (x.copy(), y.copy()))
        g_s, g_t = res.g_s, res.g_t
        assert np.array_equal(g_s, g_t)
        assert gradvac_update(g_s, g_t, 0.0, False).phi_raw == pytest.approx(1.0)

    def test_source_gradient_ignores_target_batch(self):
        bundle = tiny_bundle(seed=9)
        rng = make_rng(13)
        xs = rng.normal(size=(4, 6))
        ys = rng.integers(0, 3, size=4)
        xt1 = rng.normal(size=(5, 5))
        yt1 = rng.integers(0, 3, size=5)
        xt2 = rng.normal(size=(5, 5))
        yt2 = rng.integers(0, 3, size=5)
        g_s1 = agreement_backward(bundle, (xs, ys), (xt1, yt1)).g_s
        g_s2 = agreement_backward(bundle, (xs, ys), (xt2, yt2)).g_s
        assert np.array_equal(g_s1, g_s2)

    def _fd_shared(self, bundle, x, y, forward_parts, tau=None):
        extractor, head = forward_parts
        flat = bundle.shared_encoder.params.values.copy()
        h = 1e-5

        def loss_at(vec):
            bundle.shared_encoder.params.set_flat_params(vec)
            feats = extractor.predict(x)
            z = head.predict(bundle.shared_encoder.predict(feats))
            if tau is None:
                return softmax_ce(z, y)[0]
            return logitnorm_ce(z, y, tau)[0]

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
        tau = 2.0 if use_ln else None
        bundle = tiny_bundle(seed=21)
        rng = make_rng(23)
        xs = rng.normal(size=(5, 6))
        ys = rng.integers(0, 3, size=5)
        xt = rng.normal(size=(4, 5))
        yt = rng.integers(0, 3, size=4)
        res = agreement_backward(bundle, (xs, ys), (xt, yt), tau)
        g_s, g_t = res.g_s, res.g_t
        fd_s = self._fd_shared(bundle, xs, ys,
                               (bundle.source_extractor, bundle.source_head), tau)
        fd_t = self._fd_shared(bundle, xt, yt,
                               (bundle.target_extractor, bundle.target_head), tau)
        np.testing.assert_allclose(g_s, fd_s, rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(g_t, fd_t, rtol=1e-4, atol=1e-8)

    def test_writes_every_agreement_gradient(self):
        # stale gradients left in the bundle by an earlier step change
        # nothing: each agreement component's gradient is written, and the
        # other branches' buffers are not touched
        rng = make_rng(25)
        xs, ys = rng.normal(size=(7, 6)), rng.integers(0, 3, size=7)
        xt, yt = rng.normal(size=(5, 5)), rng.integers(0, 3, size=5)
        clean = tiny_bundle(seed=27)
        want = agreement_backward(clean, (xs, ys), (xt, yt))
        stale = tiny_bundle(seed=27)
        stale.params.grads[:] = rng.normal(size=stale.params.n_params)
        others = np.concatenate([stale.private.grads, stale.ensemble.grads])
        res = agreement_backward(stale, (xs, ys), (xt, yt))
        assert np.array_equal(res.g_s, want.g_s)
        assert np.array_equal(res.g_t, want.g_t)
        assert np.array_equal(stale.agreement.grads, clean.agreement.grads)
        assert np.array_equal(
            np.concatenate([stale.private.grads, stale.ensemble.grads]), others)

    def test_empty_batch_rejected(self):
        bundle = tiny_bundle()
        with pytest.raises(DataError):
            agreement_backward(bundle, (np.zeros((0, 6)), np.zeros(0, dtype=int)),
                             (np.ones((2, 5)), np.zeros(2, dtype=int)))


class TestStructure:
    def test_flatten_order_stable(self):
        bundle = tiny_bundle(seed=31)
        a = bundle.shared_encoder.params.values.copy()
        b = bundle.shared_encoder.params.values.copy()
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
        agree, private, ens = (views(names) for names in BRANCHES.values())
        for a, b in ((agree, private), (agree, ens), (private, ens)):
            assert not any(np.shares_memory(x, y) for x in a for y in b)

    def test_layout_round_trip(self):
        bundle = tiny_bundle(seed=35)
        rebuilt = ModelBundle(bundle.layout())
        assert rebuilt.layout() == bundle.layout()
        assert rebuilt.bands_source == 6
        assert rebuilt.classes_target == 3
        assert not rebuilt.params.values.any()

    def test_build_without_rng_gives_zero_parameters(self):
        a = ModelBundle.build(6, 5, 3, 3, 4, 4, 4)
        b = ModelBundle.build(6, 5, 3, 3, 4, 4, 4)
        assert not a.params.values.any()
        assert np.array_equal(a.params.values, b.params.values)

    def test_branch_views_tile_the_bundle_vector(self):
        # entry i of every buffer holds i: each branch view, and each of its
        # components in COMPONENT_ORDER, must read back its own run of them
        bundle = tiny_bundle(seed=41)
        n = bundle.params.n_params
        for buf in ("values", "grads", "m", "v"):
            getattr(bundle.params, buf)[:] = np.arange(n)
            tiles = [getattr(getattr(bundle, branch), buf) for branch in BRANCHES]
            assert np.array_equal(np.concatenate(tiles), np.arange(n))
            for branch, names in BRANCHES.items():
                parts = [getattr(getattr(bundle, name).params, buf) for name in names]
                assert np.array_equal(np.concatenate(parts),
                                      getattr(getattr(bundle, branch), buf))
                for part in parts:
                    assert np.shares_memory(part, getattr(bundle.params, buf))

    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_adam_on_one_branch_leaves_the_others_bit_identical(self, branch):
        bundle = tiny_bundle(seed=43)
        rng = make_rng(45)
        n = bundle.params.n_params
        bundle.params.grads[:] = rng.normal(size=n)
        bundle.params.m[:] = rng.normal(size=n)
        bundle.params.v[:] = rng.random(n)
        before = {other: {buf: getattr(getattr(bundle, other), buf).tobytes()
                          for buf in ("values", "m", "v")}
                  for other in BRANCHES}
        adam_step(getattr(bundle, branch), lr=1e-2, weight_decay=1e-2, t=3)
        for other in BRANCHES:
            for buf, saved in before[other].items():
                now = getattr(getattr(bundle, other), buf).tobytes()
                assert (now == saved) == (other != branch), (other, buf)

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
        agreement_backward(bundle, (xs, ys), (xt, yt))
        before = {name: getattr(bundle, name).params.flatten_grads()
                  for name in ("source_extractor", "target_extractor",
                               "source_head", "target_head")}
        bundle.shared_encoder.params.set_flat_grads(
            np.zeros(bundle.shared_encoder.params.n_params))
        for name, grads in before.items():
            assert np.array_equal(getattr(bundle, name).params.flatten_grads(),
                                  grads)
