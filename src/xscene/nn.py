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


class Layer:
    """One affine layer: weight (fan_in, fan_out) and bias (fan_out,), with
    their gradient accumulators of the same shapes. All four are views into
    the owning ParamSet's flat buffers."""

    def __init__(self, weight, bias, grad_weight, grad_bias):
        self.weight = weight
        self.bias = bias
        self.grad_weight = grad_weight
        self.grad_bias = grad_bias

    @property
    def fan_in(self):
        return self.weight.shape[0]

    @property
    def fan_out(self):
        return self.weight.shape[1]


class ParamSet:
    """The parameters of one MLP as a single float64 vector, with its
    gradient and Adam moment vectors (m, v) of the same length.

    Layer fc{i} views its weight (row-major) and then its bias, layer
    after layer; this is also the flat and checkpoint order.
    """

    def __init__(self, shapes):
        n = sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
        self.values = np.zeros(n)
        self.grads = np.zeros(n)
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._layers = {}
        offset = 0
        for i, (fan_in, fan_out) in enumerate(shapes):
            mid = offset + fan_in * fan_out
            end = mid + fan_out
            self._layers[f"fc{i}"] = Layer(
                self.values[offset:mid].reshape(fan_in, fan_out),
                self.values[mid:end],
                self.grads[offset:mid].reshape(fan_in, fan_out),
                self.grads[mid:end])
            offset = end

    def layer(self, name):
        return self._layers[name]

    def __iter__(self):
        return iter(self._layers.values())

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


def linear_forward(x, layer):
    """x @ W + b with the bias broadcast per row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.fan_in:
        raise DimensionError(
            f"input shape {x.shape} incompatible with layer of fan-in {layer.fan_in}"
        )
    return x @ layer.weight + layer.bias


def relu_forward(x):
    return np.maximum(x, 0.0)


def relu_backward(x, upstream):
    """Masks upstream where x <= 0 (subgradient at 0 is 0)."""
    x = np.asarray(x)
    upstream = np.asarray(upstream)
    if x.shape != upstream.shape:
        raise DimensionError(f"shapes {x.shape} and {upstream.shape} differ")
    return np.where(x > 0.0, upstream, 0.0)


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
    """

    def __init__(self, dims, rng=None):
        if len(dims) < 2 or any(int(d) < 1 for d in dims):
            raise ConfigError(f"bad layer dims {dims!r}")
        self.dims = [int(d) for d in dims]
        self.params = ParamSet(list(zip(self.dims[:-1], self.dims[1:])))
        if rng is not None:
            for layer in self.params:
                layer.weight[:] = glorot_uniform(layer.fan_in, layer.fan_out, rng)

    @property
    def in_dim(self):
        return self.dims[0]

    @property
    def out_dim(self):
        return self.dims[-1]

    def forward(self, x):
        """Returns (output, cache); the cache feeds backward()."""
        a = np.asarray(x, dtype=np.float64)
        layers = list(self.params)
        cache = []
        for i, layer in enumerate(layers):
            z = linear_forward(a, layer)
            cache.append((a, z))
            a = relu_forward(z) if i < len(layers) - 1 else z
        return a, cache

    def predict(self, x):
        return self.forward(x)[0]

    def backward(self, cache, upstream):
        """Accumulates parameter gradients; returns the gradient w.r.t.
        the forward input."""
        layers = list(self.params)
        g = np.asarray(upstream, dtype=np.float64)
        for i in reversed(range(len(layers))):
            a_in, _ = cache[i]
            layer = layers[i]
            layer.grad_weight += a_in.T @ g
            layer.grad_bias += g.sum(axis=0)
            g = g @ layer.weight.T
            if i > 0:
                g = relu_backward(cache[i - 1][1], g)
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
