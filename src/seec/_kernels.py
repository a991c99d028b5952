"""The hot numeric kernels in numpy: Hermite evaluation and the entropy
quadrature sum."""

import numpy as np


def hermite_pair(n, z):
    """(H_n, H_{n-1}) at every element of ``z``, with H_{-1} = 0.

    One pass of the three-term recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1},
    vectorized over the evaluation points.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    h = np.ones_like(z)
    if n == 0:
        return h, np.zeros_like(z)
    h, h_prev = 2.0 * z, h
    for k in range(1, n):
        h, h_prev = 2.0 * z * h - (2.0 * k) * h_prev, h
    return h, h_prev


def hermite_values(n, z):
    """Physicists' Hermite polynomial H_n at every element of ``z``."""
    return hermite_pair(n, z)[0]


def entropy_weighted_sum(n, nodes, weights):
    """Weighted sum of e^{-z^2} H_n(z)^2 ln(H_n(z)^2) over the nodes.

    The integrand is continued by zero where H_n(z)^2 underflows to zero
    (u ln u -> 0 at the polynomial roots).
    """
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    h = hermite_pair(n, nodes)[0]
    h2 = h * h
    logs = np.log(np.where(h2 > 0.0, h2, 1.0))
    return float(np.dot(weights, np.exp(-nodes * nodes) * h2 * logs))
