"""The cross-scene network bundle and its forward/backward plumbing.

Three branches over per-pixel spectra:

  agreement:  source_extractor/target_extractor -> shared_encoder -> heads
  private:    private_extractor -> private_encoder -> private_head
              (captures target-only structure; no parameters shared with
              the agreement branch)
  ensemble:   ensemble_encoder -> ensemble_head, fed by the frozen
              target_extractor output

All ten components view column slices of one (4, n) parameter block
(rows: values, grads, Adam m and v), laid out in COMPONENT_ORDER (also
the checkpoint order). Each branch's components are a contiguous run of
columns, so a branch takes its Adam step as one slice. Each branch's step
gradient is built here, by agreement_backward, private_backward and
ensemble_backward; the harness only draws batches, steps and logs.
"""

from itertools import accumulate

import numpy as np

from .agreement import logitnorm_ce
from .disagreement import dcor_penalty, symmetric_kl
from .nn import Mlp, n_params, softmax_ce

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
    """Every component network, built from a {name: dims} layout. `params`
    is the one (4, n) float64 block of the whole trainable state; each
    component's block and `agreement`, `private` and `ensemble` are column
    slices of it. rng draws the weights in COMPONENT_ORDER, so a single
    seed reproduces the full initialization; without one every parameter
    is zero (checkpoint loading)."""

    def __init__(self, layout, rng=None):
        bounds = [0, *accumulate(n_params(layout[n]) for n in COMPONENT_ORDER)]
        self.params = np.zeros((4, bounds[-1]))
        for name, lo, hi in zip(COMPONENT_ORDER, bounds, bounds[1:]):
            setattr(self, name, Mlp(layout[name], self.params[:, lo:hi], rng))
        start = dict(zip(COMPONENT_ORDER, bounds))
        private, ensemble = start["private_extractor"], start["ensemble_encoder"]
        self.agreement = self.params[:, :private]
        self.private = self.params[:, private:ensemble]
        self.ensemble = self.params[:, ensemble:]

    @classmethod
    def build(cls, bands_source, bands_target, classes_source, classes_target,
              feat_dim, hidden_dim, enc_dim, rng=None):
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


# the networks each evaluation head chains, input to logits
HEADS = {
    "agree": ("target_extractor", "shared_encoder", "target_head"),
    "disagree": ("private_extractor", "private_encoder", "private_head"),
    "ensemble": ("target_extractor", "ensemble_encoder", "ensemble_head"),
}


def predict(bundle, head, x):
    """Logits of evaluation head `head` (a HEADS key) for rows x; keeps
    no backward cache."""
    for name in HEADS[head]:
        x = getattr(bundle, name).predict(x)
    return x


def _task_backward(extractor, encoder, head, x, y, tau):
    """Forward + backward for one task path; writes the gradients of the
    three components and returns the loss."""
    feats, c_ext = extractor.forward(x)
    enc, c_enc = encoder.forward(feats)
    z, c_head = head.forward(enc)
    loss, dz = softmax_ce(z, y) if tau is None else logitnorm_ce(z, y, tau)
    d_enc = head.backward(c_head, dz)
    d_feats = encoder.backward(c_enc, d_enc)
    extractor.backward(c_ext, d_feats, input_grad=False)
    return loss


def agreement_backward(bundle, batch_s, batch_t, tau=None):
    """Compute both task losses and write their gradients into the
    agreement components; with `tau`, each task's cross-entropy runs on
    logits normalized to norm 1/tau (LogitNorm). Returns
    (g_s, g_t, loss_s, loss_t), the two flattened shared-encoder gradients
    and the two task losses.

    Each component's gradient is written by its own task's backward, so
    nothing is zeroed first. The shared encoder is written twice: g_s is
    copied out before the target task overwrites it, and g_t is the
    shared encoder's `grads` buffer itself, so the caller that combines
    g_s and g_t (possibly after surgery) writes the result into g_t
    before stepping.
    """
    loss_s = _task_backward(bundle.source_extractor, bundle.shared_encoder,
                            bundle.source_head, *batch_s, tau)
    g_s = bundle.shared_encoder.grads.copy()
    loss_t = _task_backward(bundle.target_extractor, bundle.shared_encoder,
                            bundle.target_head, *batch_t, tau)
    return g_s, bundle.shared_encoder.grads, loss_s, loss_t


def private_backward(bundle, x, y, shared_dist=None, idx=None):
    """Compute the private head's cross-entropy and write its gradient into
    the private components. With `shared_dist`, the DiR penalty between
    the frozen shared features (rows `idx` of that distance table, as
    dcor_penalty takes them) and the private encoder's output joins the
    loss, and its gradient joins at the encoder's output.

    Returns (loss_ce, dcor), with dcor None when DiR is off.
    """
    feats, c_ext = bundle.private_extractor.forward(x)
    enc, c_enc = bundle.private_encoder.forward(feats)
    z, c_head = bundle.private_head.forward(enc)
    loss_ce, dz = softmax_ce(z, y)
    d_enc = bundle.private_head.backward(c_head, dz)
    dcor = None
    if shared_dist is not None:
        dcor, g_private = dcor_penalty(shared_dist, idx, enc)
        d_enc += g_private
    d_feats = bundle.private_encoder.backward(c_enc, d_enc)
    bundle.private_extractor.backward(c_ext, d_feats, input_grad=False)
    return loss_ce, dcor


def ensemble_backward(bundle, base, y, agree, disagree):
    """Compute the ensemble head's cross-entropy and its symmetric-KL
    distances to two frozen teachers, and write the gradient of their sum
    into the ensemble components.

    `base` is the batch's frozen target-extractor features; `agree` and
    `disagree` are (teacher log probabilities, temperature) pairs, as
    symmetric_kl takes them. Returns (loss_ce, e_agree, e_disagree).
    """
    enc, c_enc = bundle.ensemble_encoder.forward(base)
    z, c_head = bundle.ensemble_head.forward(enc)
    loss_ce, dz = softmax_ce(z, y)
    e_agree, g_agree = symmetric_kl(z, *agree)
    e_disagree, g_disagree = symmetric_kl(z, *disagree)
    g_agree += g_disagree
    dz += g_agree
    d_enc = bundle.ensemble_head.backward(c_head, dz)
    bundle.ensemble_encoder.backward(c_enc, d_enc, input_grad=False)
    return loss_ce, e_agree, e_disagree
