"""The cross-scene network bundle and its forward/backward plumbing.

Three branches over per-pixel spectra:

  agreement:  source_extractor/target_extractor -> shared_encoder -> heads
  private:    private_extractor -> private_encoder -> private_head
              (captures target-only structure; no parameters shared with
              the agreement branch)
  ensemble:   ensemble_encoder -> ensemble_head, fed by the frozen
              target_extractor output

`shared_gradients` produces the two flattened shared-encoder gradients
(one per task loss) that drive the agreement machinery.
"""

from dataclasses import dataclass

import numpy as np

from .agreement import logitnorm, logitnorm_ce
from .errors import DataError, DimensionError
from .nn import Mlp, ce_logit_grad, cross_entropy, make_rng, softmax

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

AGREEMENT_COMPONENTS = COMPONENT_ORDER[:5]
PRIVATE_COMPONENTS = COMPONENT_ORDER[5:8]
ENSEMBLE_COMPONENTS = COMPONENT_ORDER[8:]


class ModelBundle:
    """Holds every component network; construction order is fixed so a
    single seed reproduces the full initialization."""

    def __init__(self, components):
        missing = [n for n in COMPONENT_ORDER if n not in components]
        if missing:
            raise DimensionError(f"missing components: {missing}")
        for name in COMPONENT_ORDER:
            setattr(self, name, components[name])

    @classmethod
    def build(cls, bands_source, bands_target, classes_source, classes_target,
              feat_dim=32, hidden_dim=64, enc_dim=32, rng=None):
        rng = make_rng(rng)
        dims = {
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
        }
        return cls({name: Mlp(dims[name], rng) for name in COMPONENT_ORDER})

    @classmethod
    def from_layout(cls, layout):
        """Zero-initialized bundle from a {name: dims} layout (checkpoint
        loading)."""
        return cls({name: Mlp(layout[name]) for name in COMPONENT_ORDER})

    def layout(self):
        return {name: list(getattr(self, name).dims) for name in COMPONENT_ORDER}

    def components(self):
        return {name: getattr(self, name) for name in COMPONENT_ORDER}

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
    """Private-branch features and logits for a target batch."""
    feats = bundle.private_encoder.predict(bundle.private_extractor.predict(x))
    return feats, bundle.private_head.predict(feats)


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


def _task_backward(extractor, encoder, head, x, y, ln_cfg):
    """Forward + backward for one task path; accumulates gradients into
    the three components and returns (loss, logitnorm deviation)."""
    feats, c_ext = extractor.forward(x)
    enc, c_enc = encoder.forward(feats)
    z, c_head = head.forward(enc)
    if ln_cfg is None:
        probs = softmax(z)
        loss = cross_entropy(probs, y)
        dz = ce_logit_grad(probs, y)
        ln_err = None
    else:
        loss, dz = logitnorm_ce(z, y, ln_cfg)
        # degenerate rows (all-dead paths give exactly zero logits) fall
        # back to the epsilon floor and carry no norm guarantee
        live = np.linalg.norm(z, axis=1) >= ln_cfg.epsilon
        norms = np.linalg.norm(logitnorm(z[live], ln_cfg), axis=1)
        ln_err = float(np.abs(norms - 1.0 / ln_cfg.tau).max()) if live.any() else 0.0
    d_enc = head.backward(c_head, dz)
    d_feats = encoder.backward(c_enc, d_enc)
    extractor.backward(c_ext, d_feats)
    return loss, ln_err


def agreement_backward(bundle, batch_s, batch_t, ln_cfg=None):
    """Compute both task losses and leave their gradients in the
    agreement components.

    After the call the shared encoder's gradient buffers hold only the
    target-task gradient; the caller combines g_s and g_t (possibly after
    surgery) and writes the result back before stepping.
    """
    xs, ys = _check_batch(batch_s[0], batch_s[1], bundle.bands_source, "source")
    xt, yt = _check_batch(batch_t[0], batch_t[1], bundle.bands_target, "target")
    for name in AGREEMENT_COMPONENTS:
        getattr(bundle, name).params.zero_grads()
    loss_s, ln_s = _task_backward(bundle.source_extractor, bundle.shared_encoder,
                                  bundle.source_head, xs, ys, ln_cfg)
    g_s = bundle.shared_encoder.params.flatten_grads()
    bundle.shared_encoder.params.zero_grads()
    loss_t, ln_t = _task_backward(bundle.target_extractor, bundle.shared_encoder,
                                  bundle.target_head, xt, yt, ln_cfg)
    g_t = bundle.shared_encoder.params.flatten_grads()
    return AgreementGrads(g_s, g_t, loss_s, loss_t, ln_s, ln_t)


def shared_gradients(bundle, batch_s, batch_t, ln_cfg=None):
    """Flattened shared-encoder gradients (g_s, g_t), one per task loss,
    in identical parameter order."""
    res = agreement_backward(bundle, batch_s, batch_t, ln_cfg)
    return res.g_s, res.g_t
