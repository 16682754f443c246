"""Dense numeric core: affine layers, small MLPs with exact manual
backprop, softmax cross-entropy, and Adam with decoupled weight decay.

All arithmetic is float64 and every source of randomness flows through an
explicit seeded generator, so identical seeds give identical runs.
"""

import math

import numpy as np

from .errors import ConfigError, DimensionError, SampleCountError

PROB_FLOOR = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
# larger-than-usual Adam eps: tiny late-phase gradients otherwise turn into
# full-size Adam steps and random-walk the converged branches
ADAM_EPS = 1e-4


def make_rng(seed):
    """PCG64 generator from an int seed, SeedSequence, or Generator."""
    return np.random.default_rng(seed)


def glorot_uniform(fan_in, fan_out, rng):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def n_params(dims):
    """Parameter count of an MLP with layer dims [in, h1, ..., out]."""
    if len(dims) < 2 or any(int(d) < 1 for d in dims):
        raise ConfigError(f"bad layer dims {dims!r}")
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims, dims[1:]))


def check_nbytes(what, nbytes):
    """numpy refuses (with a plain ValueError) to build an array of more
    bytes than its index type holds; raise the MemoryError that any other
    allocation too big for memory gives instead."""
    if nbytes > np.iinfo(np.intp).max:
        raise MemoryError(f"{what} would take {nbytes} bytes")


def softmax(z):
    """Row-wise softmax with max-subtraction for stability."""
    e = np.exp(z - np.maximum.reduce(z, axis=1, keepdims=True))
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def _check_labels(labels, n_rows, num_classes):
    labels = np.asarray(labels)
    if n_rows == 0:
        raise SampleCountError("empty batch")
    if labels.size != n_rows:
        raise SampleCountError(f"{labels.size} labels for a batch of {n_rows} rows")
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= num_classes:
        raise IndexError(f"label out of range [0, {num_classes})")
    return labels.astype(np.int64)


def softmax_ce(z, labels):
    """Batch-mean cross-entropy of softmax(z), with p clamped at 1e-12,
    and its gradient w.r.t. the logits, (softmax - one_hot) / n.

    Returns (loss, dz) from one softmax and one label check: one label per
    row of z, each in [0, C).
    """
    probs = softmax(z)
    labels = _check_labels(labels, *probs.shape)
    n = probs.shape[0]
    rows = np.arange(n)
    picked = np.maximum(probs[rows, labels], PROB_FLOOR)
    loss = float(-np.add.reduce(np.log(picked)) / n)
    probs[rows, labels] -= 1.0
    probs /= n
    return loss, probs


class Mlp:
    """Stack of affine layers with ReLU between them (none after the last).

    dims = [in, h1, ..., out]; a two-entry list is a bare affine map.
    `params` is the given (4, n_params(dims)) block: rows values, grads,
    Adam m and v. Layer i's weights[i] (dims[i] x dims[i+1], row-major),
    then biases[i], view row 0 (`values`); grad_weights[i] and
    grad_biases[i] view row 1 (`grads`). rng, if given, draws the weights.
    """

    def __init__(self, dims, block, rng=None):
        n = n_params(dims)
        if block.shape != (4, n):
            raise DimensionError(f"layer dims {dims!r} need a (4, {n}) "
                                 f"parameter block, got {block.shape}")
        self.dims = [int(d) for d in dims]
        self.params = block
        self.values, self.grads = block[:2]
        self.weights, self.biases = [], []
        self.grad_weights, self.grad_biases = [], []
        offset = 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            mid = offset + fan_in * fan_out
            end = mid + fan_out
            self.weights.append(self.values[offset:mid].reshape(fan_in, fan_out))
            self.biases.append(self.values[mid:end])
            self.grad_weights.append(self.grads[offset:mid].reshape(fan_in, fan_out))
            self.grad_biases.append(self.grads[mid:end])
            if rng is not None:
                self.weights[-1][:] = glorot_uniform(fan_in, fan_out, rng)
            offset = end

    @property
    def in_dim(self):
        return self.dims[0]

    def forward(self, x, keep_cache=True):
        """Returns (output, cache); the cache feeds backward(). Without
        keep_cache the cache is None and each layer's input is freed once
        the next layer has it."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.in_dim:
            raise DimensionError(
                f"input shape {a.shape} incompatible with fan-in {self.in_dim}")
        cache = [] if keep_cache else None
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w
            z += b
            if keep_cache:
                cache.append((a, z))
            a = np.maximum(z, 0.0) if i < last else z
        return a, cache

    def predict(self, x):
        """The output alone; keeps no backward cache."""
        return self.forward(x, keep_cache=False)[0]

    def backward(self, cache, upstream, input_grad=True):
        """Writes (does not add to) the parameter gradients; returns the
        gradient w.r.t. the forward input, or None when input_grad is
        False and the first layer's input product is skipped. The ReLU
        subgradient at 0 is 0."""
        g = np.asarray(upstream, dtype=np.float64)
        for i in reversed(range(len(self.weights))):
            np.matmul(cache[i][0].T, g, out=self.grad_weights[i])
            np.add.reduce(g, axis=0, out=self.grad_biases[i])
            if i == 0 and not input_grad:
                return None
            g = g @ self.weights[i].T
            if i > 0:
                g *= cache[i - 1][1] > 0.0
        return g


def adam_step(block, lr, weight_decay=0.0, t=1):
    """One Adam update of a (4, n) block (values, grads, m, v).

    Decoupled weight decay shrinks parameters by lr*weight_decay before the
    bias-corrected Adam delta is applied. Every operation is elementwise,
    so one call over a block equals one per column slice of it, bit for bit.
    """
    if t < 1:
        raise ConfigError("adam step counter starts at 1")
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    w, g, m, v = block
    if weight_decay:
        w -= lr * weight_decay * w
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    w -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
