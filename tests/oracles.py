"""Finite-difference oracle shared by the gradient tests."""

import numpy as np


def central_differences(loss, x, h=1e-5):
    """Central-difference gradient of the scalar loss() in each entry of x.

    x is an array that loss() reads, or a view into one (a network's
    parameter values, a bundle's block row). Each entry is set to its
    value plus and minus h in place and then restored exactly, so x holds
    its original bits when this returns."""
    grad = np.zeros(x.shape)
    for i in np.ndindex(x.shape):
        saved = x[i]
        x[i] = saved + h
        up = loss()
        x[i] = saved - h
        down = loss()
        x[i] = saved
        grad[i] = (up - down) / (2 * h)
    return grad
