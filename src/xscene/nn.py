"""Dense numeric core: affine layers, small MLPs with exact manual
backprop, softmax cross-entropy, and Adam with decoupled weight decay.

All arithmetic is float64 and every source of randomness flows through an
explicit seeded generator, so identical seeds give identical runs.
"""

import math

import numpy as np

from .errors import ConfigError, DimensionError

PROB_FLOOR = 1e-12


def make_rng(seed):
    """PCG64 generator from an int seed, SeedSequence, or Generator."""
    return np.random.default_rng(seed)


def glorot_uniform(fan_in, fan_out, rng):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class ParamSet:
    """The parameters of one MLP as a single float64 vector of length n,
    with its gradient and Adam moment vectors (m, v) of the same length.

    The owning Mlp views each layer's weight (row-major) and then its
    bias, layer after layer; this is also the checkpoint order.
    """

    def __init__(self, n):
        self.values = np.zeros(n)
        self.grads = np.zeros(n)
        self.m = np.zeros(n)
        self.v = np.zeros(n)

    @property
    def n_params(self):
        return self.values.size

    def zero_grads(self):
        self.grads.fill(0.0)

    def flatten_params(self):
        return self.values.copy()

    def flatten_grads(self):
        return self.grads.copy()

    def _copy_into(self, buf, vec):
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != buf.shape:
            raise DimensionError(
                f"flat vector has length {vec.shape}, expected {buf.shape}"
            )
        buf[:] = vec

    def set_flat_params(self, vec):
        self._copy_into(self.values, vec)

    def set_flat_grads(self, vec):
        self._copy_into(self.grads, vec)


def softmax(z):
    """Row-wise softmax with max-subtraction for stability."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise DimensionError("softmax expects an n x C matrix with C >= 2")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_labels(labels, num_classes):
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionError("labels must be a 1-D array of class indices")
    if labels.size == 0:
        raise DimensionError("empty batch")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise IndexError(f"label out of range [0, {num_classes})")
    return labels.astype(np.int64)


def cross_entropy(probs, labels):
    """Mean over the batch of -log p[label], with p clamped at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = _check_labels(labels, probs.shape[1])
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def ce_logit_grad(pred_probs, labels):
    """Gradient of the batch-mean cross-entropy w.r.t. the logits:
    (softmax - one_hot) / n."""
    pred_probs = np.asarray(pred_probs, dtype=np.float64)
    labels = _check_labels(labels, pred_probs.shape[1])
    n = pred_probs.shape[0]
    grad = pred_probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return grad / n


class Mlp:
    """Stack of affine layers with ReLU between them (none after the last).

    dims = [in, h1, ..., out]; a two-entry list is a bare affine map.
    rng=None builds zero-initialized layers (used when loading checkpoints).
    Layer i's weights[i] (dims[i] x dims[i+1]) and biases[i], and their
    grad_weights[i] and grad_biases[i], are views into params' buffers.
    """

    def __init__(self, dims, rng=None):
        if len(dims) < 2 or any(int(d) < 1 for d in dims):
            raise ConfigError(f"bad layer dims {dims!r}")
        self.dims = [int(d) for d in dims]
        shapes = list(zip(self.dims[:-1], self.dims[1:]))
        self.params = ParamSet(sum(fan_in * fan_out + fan_out
                                   for fan_in, fan_out in shapes))
        values, grads = self.params.values, self.params.grads
        self.weights, self.biases = [], []
        self.grad_weights, self.grad_biases = [], []
        offset = 0
        for fan_in, fan_out in shapes:
            mid = offset + fan_in * fan_out
            end = mid + fan_out
            self.weights.append(values[offset:mid].reshape(fan_in, fan_out))
            self.biases.append(values[mid:end])
            self.grad_weights.append(grads[offset:mid].reshape(fan_in, fan_out))
            self.grad_biases.append(grads[mid:end])
            if rng is not None:
                self.weights[-1][:] = glorot_uniform(fan_in, fan_out, rng)
            offset = end

    @property
    def in_dim(self):
        return self.dims[0]

    @property
    def out_dim(self):
        return self.dims[-1]

    def forward(self, x):
        """Returns (output, cache); the cache feeds backward()."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.in_dim:
            raise DimensionError(
                f"input shape {a.shape} incompatible with fan-in {self.in_dim}")
        cache = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            cache.append((a, z))
            a = np.maximum(z, 0.0) if i < last else z
        return a, cache

    def predict(self, x):
        return self.forward(x)[0]

    def backward(self, cache, upstream):
        """Accumulates parameter gradients; returns the gradient w.r.t.
        the forward input. The ReLU subgradient at 0 is 0."""
        g = np.asarray(upstream, dtype=np.float64)
        for i in reversed(range(len(self.weights))):
            self.grad_weights[i] += cache[i][0].T @ g
            self.grad_biases[i] += g.sum(axis=0)
            g = g @ self.weights[i].T
            if i > 0:
                g = np.where(cache[i - 1][1] > 0.0, g, 0.0)
        return g


def adam_step(params, lr, beta1=0.9, beta2=0.999, weight_decay=0.0,
              eps=1e-8, t=1):
    """One Adam update from the accumulated gradients.

    Decoupled weight decay shrinks parameters by lr*weight_decay before the
    bias-corrected Adam delta is applied.
    """
    if t < 1:
        raise ConfigError("adam step counter starts at 1")
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    w, g, m, v = params.values, params.grads, params.m, params.v
    if weight_decay:
        w -= lr * weight_decay * w
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    w -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
