"""Agreement machinery for two-task training on a shared encoder.

Covers gradient-direction surgery toward an EMA-tracked cosine target
(GradVac), gradient magnitude similarity, and logit normalization
(LogitNorm) folded into cross-entropy.
"""

import numpy as np

from .errors import ConfigError, DimensionError
from .nn import softmax_ce

# below this a gradient or logit vector's norm counts as zero
NORM_EPS = 1e-12
# keeps sqrt(1 - alpha^2) well-conditioned in the surgery step
ALPHA_LIMIT = 1.0 - 1e-6


def _check_pair(g_s, g_t):
    g_s = np.asarray(g_s, dtype=np.float64)
    g_t = np.asarray(g_t, dtype=np.float64)
    if g_s.shape != g_t.shape or g_s.ndim != 1:
        raise DimensionError(
            f"expected equal-length 1-D vectors, got {g_s.shape} and {g_t.shape}"
        )
    return g_s, g_t


def cosine_similarity(g_s, g_t):
    """Cosine of the angle between the two gradients; 0 when either norm
    is below the floor (no direction means no measurable conflict)."""
    g_s, g_t = _check_pair(g_s, g_t)
    ns = np.linalg.norm(g_s)
    nt = np.linalg.norm(g_t)
    if ns < NORM_EPS or nt < NORM_EPS:
        return 0.0
    return float(g_s @ g_t / (ns * nt))


def gradvac_update(g_s, g_t, phi, alpha):
    """Rotate g_s toward g_t so their cosine similarity lands on alpha.

    Applies only when phi < alpha; otherwise g_s is returned unchanged.
    phi must be the cosine similarity of the inputs. The returned vector
    g_s + eta*g_t satisfies cos(result, g_t) == alpha exactly (up to
    rounding), with eta fixed by the sine rule on the gradient triangle.
    """
    g_s, g_t = _check_pair(g_s, g_t)
    alpha = float(np.clip(alpha, -ALPHA_LIMIT, ALPHA_LIMIT))
    if phi >= alpha:
        return g_s
    nt = np.linalg.norm(g_t)
    if nt < NORM_EPS:
        return g_s
    ns = np.linalg.norm(g_s)
    sin_alpha = np.sqrt(1.0 - alpha * alpha)
    sin_phi = np.sqrt(max(1.0 - phi * phi, 0.0))
    eta = ns * (alpha * sin_phi - phi * sin_alpha) / (nt * sin_alpha)
    return g_s + eta * g_t


def ema_update(alpha_prev, phi_prev, beta):
    """(1-beta)*alpha + beta*phi, clamped away from +/-1."""
    if not 0.0 < beta <= 1.0:
        raise ConfigError(f"beta must lie in (0, 1], got {beta}")
    alpha = (1.0 - beta) * alpha_prev + beta * phi_prev
    return float(np.clip(alpha, -ALPHA_LIMIT, ALPHA_LIMIT))


def magnitude_similarity(g_s, g_t):
    """2|g_s||g_t| / (|g_s|^2 + |g_t|^2), in [0, 1]; 1 means equal
    magnitudes, 0 means one gradient dominates (or both vanish)."""
    g_s, g_t = _check_pair(g_s, g_t)
    ns = np.linalg.norm(g_s)
    nt = np.linalg.norm(g_t)
    denom = ns * ns + nt * nt
    if denom < NORM_EPS:
        return 0.0
    return float(2.0 * ns * nt / denom)


def logitnorm(z, tau):
    """Rescale logits to norm 1/tau: z / (tau * max(|z|, eps)).

    Accepts a single logit vector or an n x C batch (row-wise).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] < 2:
        raise DimensionError("need at least 2 classes of logits")
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    return z / (tau * np.maximum(norms, NORM_EPS))


def logitnorm_ce(z, labels, tau):
    """Cross-entropy on normalized logits, with the exact gradient back
    through the normalization.

    Returns (loss, grad_z, norm_err). Per row the normalization Jacobian
    is (I - tau^2 * zh zh^T) / (tau * |z|), applied to the usual
    (softmax - one_hot)/n logit gradient. norm_err is the largest
    | |zh| - 1/tau | over the rows; rows of all-zero logits (all-dead
    paths) fall back to the epsilon floor, carry no norm guarantee and
    are left out (0.0 when no row is left).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise DimensionError("logitnorm_ce expects an n x C matrix")
    raw = np.linalg.norm(z, axis=1, keepdims=True)
    norms = np.maximum(raw, NORM_EPS)
    zh = z / (tau * norms)
    loss, gh = softmax_ce(zh, labels)
    dot = np.sum(zh * gh, axis=1, keepdims=True)
    grad_z = (gh - zh * dot * tau ** 2) / (tau * norms)
    live = raw[:, 0] >= NORM_EPS
    norm_err = (float(np.abs(np.linalg.norm(zh[live], axis=1) - 1.0 / tau).max())
                if live.any() else 0.0)
    return loss, grad_z, norm_err
