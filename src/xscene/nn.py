"""Dense numeric core: affine layers, small MLPs with exact manual
backprop, softmax cross-entropy, and Adam with decoupled weight decay.

All arithmetic is float64 and every source of randomness flows through an
explicit seeded generator, so identical seeds give identical runs.
"""

import math

import numpy as np

PROB_FLOOR = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
# larger-than-usual Adam eps: tiny late-phase gradients otherwise turn into
# full-size Adam steps and random-walk the converged branches
ADAM_EPS = 1e-4


def glorot_uniform(fan_in, fan_out, rng):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def n_params(dims):
    """Parameter count of an MLP with layer dims [in, h1, ..., out]."""
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


def softmax_ce(z, labels):
    """Batch-mean cross-entropy of softmax(z), with p clamped at 1e-12,
    and its gradient w.r.t. the logits, (softmax - one_hot) / n.

    Returns (loss, dz) from one softmax. The caller gives one label per
    row of a non-empty z, each in [0, C): a scene's labels are checked
    where the scene enters (load_csv) or is built (generate_pair).
    """
    probs = softmax(z)
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
        self.dims = dims
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

    def forward(self, x, keep_cache=True):
        """Returns (output, cache); the cache feeds backward(). Without
        keep_cache the cache is None and each layer's input is freed once
        the next layer has it. x is a float64 (rows, dims[0]) array."""
        cache = [] if keep_cache else None
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = x @ w
            z += b
            if keep_cache:
                cache.append((x, z))
            x = np.maximum(z, 0.0) if i < last else z
        return x, cache

    def predict(self, x):
        """The output alone; keeps no backward cache."""
        return self.forward(x, keep_cache=False)[0]

    def backward(self, cache, upstream, input_grad=True):
        """Writes (does not add to) the parameter gradients; returns the
        gradient w.r.t. the forward input, or None when input_grad is
        False and the first layer's input product is skipped. The ReLU
        subgradient at 0 is 0."""
        g = upstream
        for i in reversed(range(len(self.weights))):
            np.matmul(cache[i][0].T, g, out=self.grad_weights[i])
            np.add.reduce(g, axis=0, out=self.grad_biases[i])
            if i == 0 and not input_grad:
                return None
            g = g @ self.weights[i].T
            if i > 0:
                g *= cache[i - 1][1] > 0.0
        return g


def adam_step(block, lr, weight_decay, t):
    """One Adam update of a (4, n) block (values, grads, m, v).

    Decoupled weight decay shrinks parameters by lr*weight_decay before the
    bias-corrected Adam delta is applied. Every operation is elementwise,
    so one call over a block equals one per column slice of it, bit for bit.
    t counts the steps from 1.
    """
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    w, g, m, v = block
    w -= lr * weight_decay * w
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    w -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
