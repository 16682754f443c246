"""Agreement machinery for two-task training on a shared encoder.

Covers gradient-direction surgery toward an EMA-tracked cosine target
(GradVac), which also measures the gradients' cosine and magnitude
similarity, and logit normalization (LogitNorm) folded into cross-entropy.
"""

import numpy as np

from .nn import softmax_ce

# below this a gradient or logit vector's norm counts as zero
NORM_EPS = 1e-12
# keeps sqrt(1 - alpha^2) well-conditioned in the surgery step
ALPHA_LIMIT = 1.0 - 1e-6


def gradvac_update(g_s, g_t, alpha, enabled):
    """GradVac on one step's shared-encoder gradients.

    Returns (g, figures): g is the source gradient to apply (g_s itself
    when surgery did not fire), and figures holds what the agree step
    logs: phi_raw = cos(g_s, g_t), phi_post = cos(g, g_t),
    mag_sim = 2|g_s||g_t| / (|g_s|^2 + |g_t|^2), gs_norm and gt_norm as
    floats, and gradvac_applied as a bool.

    Surgery fires when `enabled`, cos(g_s, g_t) < alpha and |g_t| is at
    least NORM_EPS: g = g_s + eta*g_t then has cosine alpha with g_t (up to
    rounding), with eta fixed by the sine rule on the gradient triangle.
    alpha must lie within +/-ALPHA_LIMIT, as ema_update returns it. A
    cosine is 0 when either norm is below the floor (no direction means no
    measurable conflict); mag_sim is 1 for equal magnitudes and 0 when one
    gradient dominates or both vanish. g_s and g_t are float64 vectors of
    one length.
    """
    ns = np.sqrt(g_s @ g_s)
    nt = np.sqrt(g_t @ g_t)
    phi = 0.0 if ns < NORM_EPS or nt < NORM_EPS else float(g_s @ g_t / (ns * nt))
    denom = ns * ns + nt * nt
    mag = 0.0 if denom < NORM_EPS else float(2.0 * ns * nt / denom)
    applied = bool(enabled and phi < alpha and nt >= NORM_EPS)
    g, phi_post = g_s, phi
    if applied:
        sin_alpha = np.sqrt(1.0 - alpha * alpha)
        sin_phi = np.sqrt(max(1.0 - phi * phi, 0.0))
        eta = ns * (alpha * sin_phi - phi * sin_alpha) / (nt * sin_alpha)
        g = g_s + eta * g_t
        n_post = np.sqrt(g @ g)
        phi_post = 0.0 if n_post < NORM_EPS else float(g @ g_t / (n_post * nt))
    return g, {"phi_raw": phi, "phi_post": phi_post, "mag_sim": mag,
               "gs_norm": float(ns), "gt_norm": float(nt),
               "gradvac_applied": applied}


def ema_update(alpha_prev, phi_prev, beta):
    """(1-beta)*alpha + beta*phi, clamped away from +/-1; beta lies in
    (0, 1]."""
    alpha = (1.0 - beta) * alpha_prev + beta * phi_prev
    return min(max(alpha, -ALPHA_LIMIT), ALPHA_LIMIT)


def _normalize(z, tau):
    """(z / scale, scale), scale = tau * max(|z|, eps) over the last axis."""
    scale = tau * np.maximum(
        np.sqrt(np.add.reduce(z * z, axis=-1, keepdims=True)), NORM_EPS)
    return z / scale, scale


def logitnorm(z, tau):
    """Rescale logits to norm 1/tau: z / (tau * max(|z|, eps)).

    Accepts a single logit vector or an n x C batch (row-wise).
    """
    return _normalize(z, tau)[0]


def logitnorm_ce(z, labels, tau):
    """Cross-entropy on normalized logits, with the exact gradient back
    through the normalization.

    Returns (loss, grad_z). Per row the normalization Jacobian is
    (I - tau^2 * zh zh^T) / (tau * |z|), applied to the usual
    (softmax - one_hot)/n logit gradient; rows of all-zero logits (all-dead
    paths) fall back to the epsilon floor.
    """
    zh, scale = _normalize(z, tau)
    loss, gh = softmax_ce(zh, labels)
    dot = np.add.reduce(zh * gh, axis=1, keepdims=True)
    return loss, (gh - zh * dot * tau ** 2) / scale
