"""The cross-scene network bundle and its forward/backward plumbing.

Three branches over per-pixel spectra:

  agreement:  source_extractor/target_extractor -> shared_encoder -> heads
  private:    private_extractor -> private_encoder -> private_head
              (captures target-only structure; no parameters shared with
              the agreement branch)
  ensemble:   ensemble_encoder -> ensemble_head, fed by the frozen
              target_extractor output

All ten components view one ParamSet, laid out in COMPONENT_ORDER (also
the checkpoint order). Each branch's components are a contiguous run of
it, so a branch takes its Adam step as one slice.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .agreement import logitnorm_ce
from .errors import DataError, DimensionError
from .nn import Mlp, ParamSet, n_params, softmax_ce

COMPONENT_ORDER = (
    "source_extractor",
    "target_extractor",
    "shared_encoder",
    "source_head",
    "target_head",
    "private_extractor",
    "private_encoder",
    "private_head",
    "ensemble_encoder",
    "ensemble_head",
)


class ModelBundle:
    """Every component network, built from a {name: dims} layout over one
    ParamSet. `params` is the whole vector; `agreement`, `private` and
    `ensemble` view each branch's slice of it. rng draws the weights in
    COMPONENT_ORDER, so a single seed reproduces the full initialization;
    without one every parameter is zero (checkpoint loading)."""

    def __init__(self, layout, rng=None):
        missing = [n for n in COMPONENT_ORDER if n not in layout]
        if missing:
            raise DimensionError(f"missing components: {missing}")
        bounds = [0, *accumulate(n_params(layout[n]) for n in COMPONENT_ORDER)]
        self.params = ParamSet(bounds[-1])
        for name, lo, hi in zip(COMPONENT_ORDER, bounds, bounds[1:]):
            setattr(self, name, Mlp(layout[name], self.params.view(lo, hi), rng))
        start = dict(zip(COMPONENT_ORDER, bounds))
        self.agreement = self.params.view(0, start["private_extractor"])
        self.private = self.params.view(start["private_extractor"],
                                        start["ensemble_encoder"])
        self.ensemble = self.params.view(start["ensemble_encoder"], bounds[-1])

    @classmethod
    def build(cls, bands_source, bands_target, classes_source, classes_target,
              feat_dim=32, hidden_dim=64, enc_dim=32, rng=None):
        return cls({
            "source_extractor": [bands_source, hidden_dim, feat_dim],
            "target_extractor": [bands_target, hidden_dim, feat_dim],
            "shared_encoder": [feat_dim, hidden_dim, enc_dim],
            "source_head": [enc_dim, classes_source],
            "target_head": [enc_dim, classes_target],
            "private_extractor": [bands_target, hidden_dim, feat_dim],
            "private_encoder": [feat_dim, hidden_dim, enc_dim],
            "private_head": [enc_dim, classes_target],
            "ensemble_encoder": [feat_dim, hidden_dim, enc_dim],
            "ensemble_head": [enc_dim, classes_target],
        }, rng)

    def layout(self):
        return {name: list(getattr(self, name).dims) for name in COMPONENT_ORDER}

    @property
    def bands_source(self):
        return self.source_extractor.in_dim

    @property
    def bands_target(self):
        return self.target_extractor.in_dim

    @property
    def classes_source(self):
        return self.source_head.out_dim

    @property
    def classes_target(self):
        return self.target_head.out_dim


def forward_target_agree(bundle, x):
    """Target logits through the shared (agreement) branch."""
    feats = bundle.target_extractor.predict(x)
    return bundle.target_head.predict(bundle.shared_encoder.predict(feats))


def forward_target_disagree(bundle, x):
    """Target logits through the private branch."""
    feats = bundle.private_extractor.predict(x)
    return bundle.private_head.predict(bundle.private_encoder.predict(feats))


def forward_ensemble(bundle, x):
    """Ensemble logits over the frozen target-extractor features."""
    feats = bundle.target_extractor.predict(x)
    return bundle.ensemble_head.predict(bundle.ensemble_encoder.predict(feats))


@dataclass
class AgreementGrads:
    """Backward-pass results for one agreement step: the two flattened
    shared-encoder gradients plus per-task diagnostics."""

    g_s: np.ndarray
    g_t: np.ndarray
    loss_s: float
    loss_t: float
    ln_err_s: float | None = None  # max | |zhat| - 1/tau | over batch rows
    ln_err_t: float | None = None


def _check_batch(x, y, bands, what):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[1] != bands:
        raise DimensionError(f"{what} batch shape {x.shape} does not match bands={bands}")
    if x.shape[0] == 0:
        raise DataError(f"{what} batch is empty")
    if y.shape != (x.shape[0],):
        raise DataError(f"{what} labels do not match batch size")
    return x, y


def _task_backward(extractor, encoder, head, x, y, tau):
    """Forward + backward for one task path; writes the gradients of the
    three components and returns (loss, logitnorm deviation)."""
    feats, c_ext = extractor.forward(x)
    enc, c_enc = encoder.forward(feats)
    z, c_head = head.forward(enc)
    if tau is None:
        loss, dz = softmax_ce(z, y)
        ln_err = None
    else:
        loss, dz, ln_err = logitnorm_ce(z, y, tau)
    d_enc = head.backward(c_head, dz)
    d_feats = encoder.backward(c_enc, d_enc)
    extractor.backward(c_ext, d_feats, input_grad=False)
    return loss, ln_err


def agreement_backward(bundle, batch_s, batch_t, tau=None):
    """Compute both task losses and write their gradients into the
    agreement components; with `tau`, each task's cross-entropy runs on
    logits normalized to norm 1/tau (LogitNorm).

    Each component's gradient is written by its own task's backward, so
    nothing is zeroed first. The shared encoder is written twice: g_s is
    copied out before the target task overwrites it, and after the call
    its buffers hold only the target-task gradient; the caller combines
    g_s and g_t (possibly after surgery) and writes the result back
    before stepping.
    """
    xs, ys = _check_batch(batch_s[0], batch_s[1], bundle.bands_source, "source")
    xt, yt = _check_batch(batch_t[0], batch_t[1], bundle.bands_target, "target")
    loss_s, ln_s = _task_backward(bundle.source_extractor, bundle.shared_encoder,
                                  bundle.source_head, xs, ys, tau)
    g_s = bundle.shared_encoder.params.flatten_grads()
    loss_t, ln_t = _task_backward(bundle.target_extractor, bundle.shared_encoder,
                                  bundle.target_head, xt, yt, tau)
    g_t = bundle.shared_encoder.params.flatten_grads()
    return AgreementGrads(g_s, g_t, loss_s, loss_t, ln_s, ln_t)
