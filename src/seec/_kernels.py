"""The hot numeric kernels in numpy: Hermite evaluation, the
Hermite-Gaussian product of the eigenfunctions and their marginals, and
the entropy quadrature sum."""

import numpy as np

from .errors import DomainError


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


def hermite_gaussian(pref, n, t1, x1, m, t2, x2):
    """pref e^{-(a1^2 + a2^2)/2} H_n(a1) H_m(a2) with a_i = t_i x_i, over
    the broadcast of the coordinates: a float when both are 0-d, else an
    array.  The one array home of the product behind criterion.marginal
    and oscillator.wavefunction; oscillator._wavefunction_rows is its list
    twin on a tensor grid.

    Each Hermite factor is evaluated on its own coordinate as given,
    before the product broadcasts, so a tensor grid (g[:, None],
    g[None, :]) costs 2 x steps Hermite evaluations, not steps^2.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
        raise DomainError("coordinates must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = t1 * x1
        a2 = t2 * x2
        gauss = np.exp(-0.5 * (a1 * a1 + a2 * a2))
        value = pref * gauss * hermite_values(n, a1) * hermite_values(m, a2)
    # far out the recurrence overflows to inf (or inf - inf) where the
    # Gaussian has underflowed to 0; the product, whose true value rounds
    # to 0 there, is then nan
    value = np.where(np.isnan(value) & (gauss == 0.0), 0.0, value)
    return float(value) if value.ndim == 0 else value


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
