"""The hot numeric kernels in numpy: Hermite evaluation, the normalized
Hermite function psi_k behind the eigenfunctions, their marginals and the
entropy quadrature, and the one fixed-order sum behind every
quadrature."""

import math

import numpy as np

from .errors import DomainError
from .scalars import _PI_M_QUARTER, _psi_steps


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
    """psi_k(a) with a = t x, the normalized Hermite function: a float for
    a 0-d ``x``, else an array of its shape.  The one array home of the
    per-axis factor of the eigenfunction, behind criterion.marginal,
    oscillator.wavefunction and the entropy quadrature;
    oscillator._hermite_function_list is its list twin.

    psi_0 = pi^{-1/4} e^{-a^2/2}, then the steps of scalars._psi_steps in
    place in three rotating buffers.  No psi_j exceeds 1, so nothing
    overflows; psi_k is +0.0 where the Gaussian is 0, a = +-inf included.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DomainError("coordinates must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        a = t * x.reshape(-1)  # 1-D even for a 0-d x: the steps run in place
        psi = a * a
        psi *= -0.5
        np.exp(psi, out=psi)
        zero = psi == 0.0
        psi *= _PI_M_QUARTER
        psi_prev, spare = np.zeros_like(a), np.empty_like(a)
        for c1, c2 in _psi_steps(k):
            np.multiply(a, psi, out=spare)
            spare *= c1
            psi_prev *= c2
            spare -= psi_prev
            psi_prev, psi, spare = psi, spare, psi_prev
    psi[zero] = 0.0
    return float(psi[0]) if x.ndim == 0 else psi.reshape(x.shape)


def panel_sum(terms):
    """Sum of ``terms`` laid out as (panel, point), a float:
    ``np.add.reduce`` over the points of each panel, then ``math.fsum``
    over the panel sums.  A 1-D ``terms`` is one panel.

    The order of every addition is fixed by the shape alone: no BLAS call,
    whose threaded sum splits by the thread count, and the fsum over the
    panels is correctly rounded.
    """
    return math.fsum(np.add.reduce(np.atleast_2d(terms), axis=-1).tolist())
