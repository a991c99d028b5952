"""The hot numeric kernels in numpy: Hermite evaluation, the normalized
Hermite function psi_k behind the eigenfunctions and their marginals, the
entropy quadrature sum, and the one fixed-order sum behind every
quadrature."""

import math

import numpy as np

from .errors import DomainError
from .scalars import _norm_constant


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


def hermite_function(k, t, x):
    """psi_k(a) = c_k e^{-a^2/2} H_k(a) with a = t x, the normalized
    Hermite function: a float for a 0-d ``x``, else an array of its shape.
    The one array home of the per-axis factor of the eigenfunction, behind
    criterion.marginal and oscillator.wavefunction;
    oscillator._hermite_function_list is its list twin.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DomainError("coordinates must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        a = t * x
        gauss = np.exp(-0.5 * (a * a))
        # c_k last: c_k e^{-a^2/2} would underflow before H_k restores it
        value = gauss * hermite_values(k, a) * _norm_constant(k)
    # far out the recurrence overflows to inf (or inf - inf) where the
    # Gaussian has underflowed to 0; the product, whose true value rounds
    # to 0 there, is then nan
    value = np.where(np.isnan(value) & (gauss == 0.0), 0.0, value)
    return float(value) if value.ndim == 0 else value


def panel_sum(terms):
    """Sum of ``terms`` laid out as (..., panel, point): ``np.add.reduce``
    over the points of each panel, then ``math.fsum`` over the panel sums.
    A 1-D ``terms`` is one panel.  A float, or an array of the leading
    shape for more than two axes.

    The order of every addition is fixed by the shape alone: no BLAS call,
    whose threaded sum splits by the thread count, and the fsum over the
    panels is correctly rounded.
    """
    sums = np.add.reduce(np.atleast_2d(terms), axis=-1)
    totals = [math.fsum(row) for row in sums.reshape(-1, sums.shape[-1]).tolist()]
    return totals[0] if sums.ndim == 1 else np.array(totals).reshape(sums.shape[:-1])


def entropy_weighted_sum(n, nodes, weights):
    """Weighted sum of e^{-z^2} H_n(z)^2 ln(H_n(z)^2) over the nodes, by
    ``panel_sum``: nodes and weights of shape (panel, point), or 1-D for
    one panel.

    The integrand is continued by zero where H_n(z)^2 underflows to zero
    (u ln u -> 0 at the polynomial roots).  The products run in place, in
    the order e^{-z^2} * h^2 * ln(h^2) * w.
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
    terms *= weights
    return panel_sum(terms)
