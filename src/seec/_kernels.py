"""The hot numeric kernels in numpy: Hermite evaluation and the entropy
quadrature sum."""

import numpy as np


def hermite_pair(n, z):
    """(H_n, H_{n-1}) at every element of ``z``, with H_{-1} = 0, as two
    arrays of ``z``'s shape (0-d for a scalar).

    One pass of the three-term recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1},
    vectorized over the flattened evaluation points.  Each step runs in
    place in three rotating buffers, in the operation order of the formula.
    """
    shape = np.shape(z)
    z = np.ascontiguousarray(z, dtype=np.float64).reshape(-1)
    h_prev = np.ones_like(z)
    if n == 0:
        return h_prev.reshape(shape), np.zeros(shape)
    z2 = 2.0 * z
    h = z2.copy()
    spare = np.empty_like(z)
    for k in range(1, n):
        np.multiply(z2, h, out=spare)
        h_prev *= 2.0 * k
        spare -= h_prev
        h_prev, h, spare = h, spare, h_prev
    return h.reshape(shape), h_prev.reshape(shape)


def hermite_values(n, z):
    """Physicists' Hermite polynomial H_n at every element of ``z``."""
    return hermite_pair(n, z)[0]


def entropy_weighted_sum(n, nodes, weights):
    """Weighted sum of e^{-z^2} H_n(z)^2 ln(H_n(z)^2) over the nodes.

    The integrand is continued by zero where H_n(z)^2 underflows to zero
    (u ln u -> 0 at the polynomial roots).  The products run in place, in
    the order e^{-z^2} * h^2 * ln(h^2).
    """
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    h2 = hermite_pair(n, nodes)[0]
    h2 *= h2
    logs = np.where(h2 > 0.0, h2, 1.0)
    np.log(logs, out=logs)
    terms = -nodes
    terms *= nodes
    np.exp(terms, out=terms)
    terms *= h2
    terms *= logs
    return float(np.dot(weights, terms))
