import numpy as np
import pytest

from xscene.agreement import gradvac_update, logitnorm_ce
from xscene.disagreement import (dcor_penalty, log_softmax, smoothed_distances,
                                 symmetric_kl)
from xscene.model import (BRANCHES, COMPONENT_ORDER, ModelBundle,
                          agreement_backward, ensemble_backward, predict,
                          private_backward)
from xscene.nn import Mlp, adam_step, softmax_ce

from oracles import central_differences


def forward_source(bundle, x):
    """Reference source logits: source_head(shared_encoder(source_extractor(x)))."""
    feats = bundle.source_extractor.predict(x)
    return bundle.source_head.predict(bundle.shared_encoder.predict(feats))


def tiny_bundle(seed=0, bands_source=6, bands_target=5, classes_source=3,
                classes_target=3, feat_dim=4, hidden_dim=4, enc_dim=4):
    return ModelBundle.build(bands_source, bands_target, classes_source,
                             classes_target, feat_dim, hidden_dim, enc_dim,
                             np.random.default_rng(seed))


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
        np.testing.assert_allclose(predict(bundle, "agree", x), expected)

    def test_agree_chains_the_shared_encoder(self):
        # every component has its own weights, so no other chain gives these
        bundle = tiny_bundle(seed=3)
        x = np.random.default_rng(1).normal(size=(4, 5))
        feats = bundle.shared_encoder.predict(bundle.target_extractor.predict(x))
        expected = bundle.target_head.predict(feats)
        np.testing.assert_allclose(predict(bundle, "agree", x), expected)

    def test_disagree_returns_private_logits(self):
        bundle = tiny_bundle(seed=3)
        x = np.random.default_rng(1).normal(size=(4, 5))
        feats = bundle.private_encoder.predict(bundle.private_extractor.predict(x))
        expected = bundle.private_head.predict(feats)
        np.testing.assert_allclose(predict(bundle, "disagree", x), expected)

    def test_ensemble_uses_target_extractor_features(self):
        bundle = tiny_bundle(seed=3)
        x = np.random.default_rng(1).normal(size=(4, 5))
        base = bundle.target_extractor.predict(x)
        expected = bundle.ensemble_head.predict(bundle.ensemble_encoder.predict(base))
        np.testing.assert_allclose(predict(bundle, "ensemble", x), expected)

    def test_identical_rows_identical_logits(self):
        bundle = tiny_bundle(seed=5)
        row = np.random.default_rng(2).normal(size=(1, 6))
        out = forward_source(bundle, np.repeat(row, 4, axis=0))
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[0], out[3])


class TestSharedGradients:
    def test_identical_tasks_give_identical_gradients(self):
        bundle = tiny_bundle(seed=7, bands_source=5, bands_target=5)
        bundle.target_extractor.values[:] = bundle.source_extractor.values
        bundle.target_head.values[:] = bundle.source_head.values
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        g_s, g_t, *_ = agreement_backward(bundle, (x, y), (x.copy(), y.copy()))
        assert np.array_equal(g_s, g_t)
        assert gradvac_update(g_s, g_t, 0.0, False)[1]["phi_raw"] == pytest.approx(1.0)

    def test_source_gradient_ignores_target_batch(self):
        bundle = tiny_bundle(seed=9)
        rng = np.random.default_rng(13)
        xs = rng.normal(size=(4, 6))
        ys = rng.integers(0, 3, size=4)
        xt1 = rng.normal(size=(5, 5))
        yt1 = rng.integers(0, 3, size=5)
        xt2 = rng.normal(size=(5, 5))
        yt2 = rng.integers(0, 3, size=5)
        g_s1 = agreement_backward(bundle, (xs, ys), (xt1, yt1))[0]
        g_s2 = agreement_backward(bundle, (xs, ys), (xt2, yt2))[0]
        assert np.array_equal(g_s1, g_s2)

    def _fd_shared(self, bundle, x, y, forward_parts, tau=None):
        extractor, head = forward_parts

        def loss():
            feats = extractor.predict(x)
            z = head.predict(bundle.shared_encoder.predict(feats))
            if tau is None:
                return softmax_ce(z, y)[0]
            return logitnorm_ce(z, y, tau)[0]

        return central_differences(loss, bundle.shared_encoder.values)

    @pytest.mark.parametrize("use_ln", [False, True])
    def test_matches_finite_differences(self, use_ln):
        tau = 2.0 if use_ln else None
        bundle = tiny_bundle(seed=21)
        rng = np.random.default_rng(23)
        xs = rng.normal(size=(5, 6))
        ys = rng.integers(0, 3, size=5)
        xt = rng.normal(size=(4, 5))
        yt = rng.integers(0, 3, size=4)
        g_s, g_t, *_ = agreement_backward(bundle, (xs, ys), (xt, yt), tau)
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
        rng = np.random.default_rng(25)
        xs, ys = rng.normal(size=(7, 6)), rng.integers(0, 3, size=7)
        xt, yt = rng.normal(size=(5, 5)), rng.integers(0, 3, size=5)
        clean = tiny_bundle(seed=27)
        want = agreement_backward(clean, (xs, ys), (xt, yt))
        stale = tiny_bundle(seed=27)
        stale.params[1] = rng.normal(size=stale.params.shape[1])
        others = np.concatenate([stale.private[1], stale.ensemble[1]])
        res = agreement_backward(stale, (xs, ys), (xt, yt))
        assert np.array_equal(res[0], want[0])
        assert np.array_equal(res[1], want[1])
        assert np.array_equal(stale.agreement[1], clean.agreement[1])
        assert np.array_equal(
            np.concatenate([stale.private[1], stale.ensemble[1]]), others)


def relu_margin(mlp, x):
    """Smallest |pre-activation| that feeds a ReLU in mlp over batch x."""
    _, cache = mlp.forward(x)
    return min(np.abs(a @ w + b).min()
               for a, w, b in zip(cache[:-1], mlp.weights, mlp.biases))


def private_loss(bundle, x, y, shared_dist=None, idx=None):
    """Reference private-step loss: cross-entropy, plus dCor with DiR on."""
    enc = bundle.private_encoder.predict(bundle.private_extractor.predict(x))
    loss = softmax_ce(bundle.private_head.predict(enc), y)[0]
    if shared_dist is not None:
        loss += dcor_penalty(shared_dist, idx, enc)[0]
    return loss


def ensemble_loss(bundle, base, y, agree, disagree):
    """Reference ensemble-step loss: cross-entropy plus both symmetric KLs."""
    z = bundle.ensemble_head.predict(bundle.ensemble_encoder.predict(base))
    return (softmax_ce(z, y)[0] + symmetric_kl(z, *agree)[0]
            + symmetric_kl(z, *disagree)[0])


def branch_draw(rng, shots=4, batch=7):
    """A few-shot split and a batch of row indices into it; with more rows
    than the split has, the batch repeats some of them."""
    bundle = ModelBundle.build(5, 5, 3, 3, feat_dim=4, hidden_dim=4, enc_dim=3,
                               rng=rng)
    x_all = rng.normal(size=(shots, 5))
    y_all = rng.integers(0, 3, size=shots)
    idx = rng.integers(0, shots, size=batch)
    return bundle, x_all, y_all, idx


class TestBranchBackward:
    """private_backward and ensemble_backward against finite differences
    of their step loss, over every parameter of their branch."""

    @pytest.mark.parametrize("use_dir", [False, True])
    def test_private_matches_finite_differences(self, use_dir):
        rng = np.random.default_rng(51 + use_dir)
        done = 0
        while done < 3:
            bundle, x_all, y_all, idx = branch_draw(rng)
            x, y = x_all[idx], y_all[idx]
            # central differences are only meaningful away from relu kinks
            feats = bundle.private_extractor.predict(x)
            if min(relu_margin(bundle.private_extractor, x),
                   relu_margin(bundle.private_encoder, feats)) < 1e-3:
                continue
            done += 1
            shared_dist = None
            if use_dir:
                shared_dist = smoothed_distances(rng.normal(size=(len(x_all), 3)))
            loss_ce, dcor = private_backward(bundle, x, y, shared_dist, idx)
            assert (dcor is not None) == use_dir
            if use_dir:
                assert dcor > 0.0
            assert loss_ce + (dcor or 0.0) == pytest.approx(
                private_loss(bundle, x, y, shared_dist, idx), rel=1e-12)
            fd = central_differences(
                lambda: private_loss(bundle, x, y, shared_dist, idx),
                bundle.private[0])
            np.testing.assert_allclose(bundle.private[1], fd,
                                       rtol=1e-4, atol=1e-8)

    def test_ensemble_matches_finite_differences(self):
        rng = np.random.default_rng(55)
        done = 0
        while done < 3:
            bundle, x_all, y_all, idx = branch_draw(rng)
            base = bundle.target_extractor.predict(x_all)[idx]
            if relu_margin(bundle.ensemble_encoder, base) < 1e-3:
                continue
            done += 1
            y = y_all[idx]
            agree = (log_softmax(rng.normal(size=(len(x_all), 3)), 1.0)[idx], 1.0)
            disagree = (log_softmax(3.0 * rng.normal(size=(len(x_all), 3)), 0.05)[idx],
                        0.05)
            loss_ce, e_agree, e_disagree = ensemble_backward(
                bundle, base, y, agree, disagree)
            assert loss_ce + e_agree + e_disagree == pytest.approx(
                ensemble_loss(bundle, base, y, agree, disagree), rel=1e-12)
            fd = central_differences(
                lambda: ensemble_loss(bundle, base, y, agree, disagree),
                bundle.ensemble[0])
            np.testing.assert_allclose(bundle.ensemble[1], fd,
                                       rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("branch", ["private", "ensemble"])
    def test_writes_every_branch_gradient(self, branch):
        # stale gradients left in the bundle by an earlier step change
        # nothing: each of the branch's gradients is written, and the other
        # branches' buffers are not touched
        rng = np.random.default_rng(57)
        x_all, y_all = rng.normal(size=(4, 5)), rng.integers(0, 3, size=4)
        idx = rng.integers(0, 4, size=7)
        teachers = (log_softmax(rng.normal(size=(7, 3)), 1.0),
                    log_softmax(rng.normal(size=(7, 3)), 0.05))

        def step(bundle):
            if branch == "private":
                shared_dist = smoothed_distances(x_all)
                private_backward(bundle, x_all[idx], y_all[idx], shared_dist, idx)
            else:
                base = bundle.target_extractor.predict(x_all)[idx]
                ensemble_backward(bundle, base, y_all[idx], (teachers[0], 1.0),
                                  (teachers[1], 0.05))

        clean = branch_draw(np.random.default_rng(59))[0]
        step(clean)
        stale = branch_draw(np.random.default_rng(59))[0]
        stale.params[1] = rng.normal(size=stale.params.shape[1])
        others = [getattr(stale, b)[1].copy() for b in BRANCHES if b != branch]
        step(stale)
        assert np.array_equal(getattr(stale, branch)[1],
                              getattr(clean, branch)[1])
        for before, now in zip(others, (getattr(stale, b)[1]
                                        for b in BRANCHES if b != branch)):
            assert np.array_equal(now, before)


class TestStructure:
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
        assert rebuilt.source_extractor.dims[0] == 6
        assert rebuilt.target_head.dims[-1] == 3
        assert not rebuilt.params.any()

    def test_build_without_rng_gives_zero_parameters(self):
        a = ModelBundle.build(6, 5, 3, 3, 4, 4, 4)
        b = ModelBundle.build(6, 5, 3, 3, 4, 4, 4)
        assert not a.params.any()
        assert np.array_equal(a.params, b.params)

    def test_branch_views_tile_the_bundle_vector(self):
        # column i of every row holds i: each branch block must start at its
        # first component's block and end at its last's, and each of its
        # components, in the model's table order, must read back its own run
        bundle = tiny_bundle(seed=41)
        n = bundle.params.shape[1]
        assert bundle.params.shape == (4, n) and bundle.params.dtype == np.float64
        bundle.params[:] = np.arange(n)
        # every network the bundle holds is in exactly one branch
        held = [name for name, v in vars(bundle).items() if isinstance(v, Mlp)]
        listed = [name for names in BRANCHES.values() for name in names]
        assert sorted(listed) == sorted(held) and len(set(listed)) == len(listed)
        tiles = [getattr(bundle, branch) for branch in BRANCHES]
        assert np.array_equal(np.concatenate(tiles, axis=1), bundle.params)
        for branch, names in BRANCHES.items():
            block = getattr(bundle, branch)
            parts = [getattr(bundle, name).params for name in names]
            assert block[0, 0] == parts[0][0, 0]
            assert block[0, -1] == parts[-1][0, -1]
            assert np.array_equal(np.concatenate(parts, axis=1), block)
            for view in [block, *parts]:
                assert np.shares_memory(view, bundle.params)

    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_adam_on_one_branch_leaves_the_others_bit_identical(self, branch):
        bundle = tiny_bundle(seed=43)
        rng = np.random.default_rng(45)
        n = bundle.params.shape[1]
        bundle.params[1:3] = rng.normal(size=(2, n))
        bundle.params[3] = rng.random(n)
        # rows 0, 2 and 3: values, Adam m and v
        before = {other: {row: getattr(bundle, other)[row].tobytes()
                          for row in (0, 2, 3)}
                  for other in BRANCHES}
        adam_step(getattr(bundle, branch), lr=1e-2, weight_decay=1e-2, t=3)
        for other in BRANCHES:
            for row, saved in before[other].items():
                now = getattr(bundle, other)[row].tobytes()
                assert (now == saved) == (other != branch), (other, row)

    def test_params_is_the_whole_trainable_state(self):
        # a copy of the block, restored, replays the same steps bit for bit
        bundle = tiny_bundle(seed=47)
        rng = np.random.default_rng(49)
        batches = [(rng.normal(size=(6, 6)), rng.integers(0, 3, size=6),
                    rng.normal(size=(6, 5)), rng.integers(0, 3, size=6))
                   for _ in range(5)]

        def step(t):
            xs, ys, xt, yt = batches[t - 1]
            g_s, g_t, *_ = agreement_backward(bundle, (xs, ys), (xt, yt), tau=2.0)
            bundle.shared_encoder.grads[:] = g_s + g_t
            private_backward(bundle, xt, yt, smoothed_distances(xt), np.arange(6))
            teachers = ((log_softmax(predict(bundle, "agree", xt), 1.0), 1.0),
                        (log_softmax(predict(bundle, "disagree", xt), 0.05), 0.05))
            ensemble_backward(bundle, bundle.target_extractor.predict(xt), yt,
                              *teachers)
            for branch in BRANCHES:
                adam_step(getattr(bundle, branch), lr=1e-2, weight_decay=1e-2, t=t)

        for t in (1, 2):
            step(t)
        snap = bundle.params.copy()
        for t in (3, 4, 5):
            step(t)
        first = bundle.params.copy()
        assert not np.array_equal(first[0], snap[0])
        bundle.params[:] = snap
        for t in (3, 4, 5):
            step(t)
        assert bundle.params.tobytes() == first.tobytes()

    def test_gradvac_only_touches_shared_encoder_grads(self):
        # surgery output is written into the shared encoder's buffers by
        # the caller; extractor and head gradients are whatever their own
        # loss produced
        bundle = tiny_bundle(seed=37)
        rng = np.random.default_rng(39)
        xs = rng.normal(size=(4, 6))
        ys = rng.integers(0, 3, size=4)
        xt = rng.normal(size=(4, 5))
        yt = rng.integers(0, 3, size=4)
        agreement_backward(bundle, (xs, ys), (xt, yt))
        before = {name: getattr(bundle, name).grads.copy()
                  for name in ("source_extractor", "target_extractor",
                               "source_head", "target_head")}
        bundle.shared_encoder.grads[:] = 0.0
        for name, grads in before.items():
            assert np.array_equal(getattr(bundle, name).grads, grads)
