"""Hermite polynomials and their roots, the Gauss-Legendre base rule (built
without numpy.polynomial) and its composite panel rule, and the logarithmic
potential V_n with the closed-form entropy integral built on it.  The order
cap, the order check, the constants, ln(n!) and the Hermite norm come from
``scalars``.

Everything here is a pure function of its arguments.  Cached values (root
sets, base rules) are immutable after construction, so sharing across
threads is safe: a raced cache fill can only ever install identical objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import DomainError
from .scalars import CONSTANTS, DEFAULT_PANEL_ORDER, N_MAX
from .scalars import _check_order, _LN2, _ln_norm
from .scalars import ln_factorial  # noqa: F401  (public here too)


def hermite_values(n, z):
    """H_n at every point of ``z`` by the recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1}
    (never expanded coefficients, which lose precision and overflow near n = 30).
    A float for a scalar ``z``, else an array of its shape."""
    n = _check_order(n, N_MAX)
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise DomainError("evaluation points must be finite")
    h = _kernels.hermite_values(n, z)
    return float(h) if h.ndim == 0 else h


@dataclass(frozen=True, eq=False)
class RootSet:
    """All real roots of H_n, ascending.  Construction validates the count,
    ordering, symmetry about zero, and the Newton residual of every root."""

    n: int
    roots: np.ndarray

    def __post_init__(self):
        r = self.roots
        if len(r) != self.n:
            raise DomainError(f"expected {self.n} roots, got {len(r)}")
        if self.n == 0:
            return
        if not np.all(np.diff(r) > 0.0):
            raise DomainError("roots must be strictly increasing")
        if np.max(np.abs(r + r[::-1])) > 1e-13:
            raise DomainError("roots must be symmetric about zero")
        hn, hm1 = _kernels.hermite_pair(self.n, r)
        bad = np.abs(hn) > 1e-10 * np.maximum(1.0, np.abs(2.0 * self.n * hm1))
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(f"root {r[i]} has residual {hn[i]} above tolerance")


def hermite_roots(n):
    """RootSet of H_n for 0 <= n <= N_MAX (n = 0 gives an empty set), the
    Gauss-Hermite nodes too.  Validated on every call, then built once."""
    return _root_set(_check_order(n, N_MAX))


@lru_cache(maxsize=None)
def _root_set(n):
    # Jacobi-matrix eigenvalues (off-diagonal sqrt(k/2)) polished by two
    # Newton steps with H_n' = 2 n H_{n-1}
    if n == 0:
        roots = np.empty(0)
    elif n == 1:
        roots = np.zeros(1)
    else:
        band = np.sqrt(np.arange(1, n) / 2.0)
        jacobi = np.diag(band, 1) + np.diag(band, -1)
        roots = np.linalg.eigvalsh(jacobi)
        for _ in range(2):
            hn, hm1 = _kernels.hermite_pair(n, roots)
            roots = roots - hn / (2.0 * n * hm1)
        roots = 0.5 * (roots - roots[::-1])
    roots.setflags(write=False)
    return RootSet(n=n, roots=roots)


def _legendre_series(x, coef):
    # sum_j coef[j] P_j(x) by the Clenshaw recurrence, in the operation order
    # of numpy.polynomial.legendre.legval
    if len(coef) == 1:
        return coef[0] + 0.0 * x
    c0, c1 = coef[-2], coef[-1]
    nd = len(coef)
    for c in coef[-3::-1]:
        nd -= 1
        c0, c1 = c - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _leggauss(order):
    # the Gauss-Legendre base rule on [-1, 1], built once per order and
    # shared by the entropy panel quadrature and the k rule of V_n.  The
    # steps of numpy.polynomial.legendre.leggauss in its operation order, so
    # the rule equals numpy's bit for bit without importing numpy.polynomial:
    # eigenvalues of the symmetric companion matrix of P_order, one Newton
    # step, weights from P_{order-1} and P_order' (taken before the step),
    # then symmetrized and scaled to sum to 2.
    p_n = [0.0] * order + [1.0]
    # P_n' = sum (2j - 1) P_{j-1} over j = n, n - 2, ... >= 1
    dp_n = [0.0] * order
    for j in range(order, 0, -2):
        dp_n[j - 1] = 2.0 * j - 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    band = np.arange(1, order) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(band, 1) + np.diag(band, -1))
    df = _legendre_series(x, dp_n)
    x -= _legendre_series(x, p_n) / df
    fm = _legendre_series(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(order, edges):
    # (nodes, weights) of the composite rule with ``order`` Gauss-Legendre
    # points on each panel between consecutive edges, in ascending order,
    # one row per panel: the layout _kernels.panel_sum sums
    base_x, base_w = _leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * base_x
    weights = half[:, None] * base_w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _entropy_window(n):
    # half-width of the z window outside which e^{-z^2} H_n^2 is negligible
    return math.sqrt(2.0 * n + 1.0) + 10.0


def _k_cutoff(n):
    # e^{-k^2/4} L_n(k^2/2) oscillates up to k = 2 sqrt(2n + 1) and has
    # decayed below 1e-21 twelve units beyond
    return 2.0 * math.sqrt(2.0 * n + 1.0) + 12.0


# ln|y| = _LN_ABS_C0 + int_0^inf (e^{-k^2/4} - cos ky) / k dk
_LN_ABS_C0 = -(_LN2 + 0.5 * CONSTANTS.euler_gamma)
# radians of integrand phase per k panel: 48-point panels stay at roundoff
# up to about 120
_K_PANEL_PHASE = 80.0


def _fourier_laguerre_rule(n, panels):
    """(k, c, a) for V_n on ``panels`` equal Gauss-Legendre panels over
    [0, 2 sqrt(2n+1) + 12]: the nodes k, one row per panel, the constant
    c = ln-constant + sum w e^{-k^2/4} / k, and a = w e^{-k^2/4} L_n(k^2/2) / k,
    so that -V_n(x) / (2^n n! sqrt(pi)) = c - sum a cos(k x)."""
    # the panel quadrature's default order, so the two share one base rule
    k, w = _panel_nodes(DEFAULT_PANEL_ORDER, np.linspace(0.0, _k_cutoff(n), panels + 1))
    w_over_k = w / k
    t = 0.5 * k * k
    gauss = np.exp(-0.5 * t)
    # e^{-t/2} L_j(t) by (j + 1) L_{j+1} = (2j + 1 - t) L_j - j L_{j-1};
    # bounded by 1 in magnitude, so nothing overflows or cancels
    lag_prev, lag = np.zeros_like(k), gauss
    for j in range(n):
        lag_prev, lag = lag, ((2.0 * j + 1.0 - t) * lag - j * lag_prev) / (j + 1.0)
    return k, _LN_ABS_C0 + _kernels.panel_sum(w_over_k * gauss), w_over_k * lag


def log_potential(n, x):
    """Logarithmic potential V_n(x) = -int e^{-z^2} H_n(z)^2 ln|z - x| dz.

    Exact to roundoff by the Fourier-Frullani form of the logarithm and the
    characteristic function int e^{-z^2} H_n^2 e^{ikz} dz
    = 2^n n! sqrt(pi) e^{-k^2/4} L_n(k^2/2):

        V_n(x) = -2^n n! sqrt(pi) [ -(ln 2 + gamma/2)
                 + int_0^inf e^{-k^2/4} (1 - L_n(k^2/2) cos kx) / k dk ]

    The integrand is smooth and bounded; the k integral takes a composite
    Gauss-Legendre rule whose panel count grows with max |x|, summed for
    each x by ``_kernels.panel_sum``.  Accepts a scalar or an array of
    points with |x| <= sqrt(2n + 1) + 10 (the entropy window); returns a
    float or an array of the same shape.
    """
    n = _check_order(n, N_MAX)
    if n == 0:
        raise DomainError("V_n requires n >= 1 (H_0 has no roots)")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DomainError("evaluation points must be finite")
    reach = float(np.max(np.abs(x), initial=0.0))
    window = _entropy_window(n)
    if reach > window:
        raise DomainError(
            f"|x| must be at most sqrt(2n + 1) + 10 = {window:.6g} for n = {n}, got {reach}"
        )
    # the integrand's phase rate in k is at most |x| + sqrt(2n + 1)
    rate = reach + math.sqrt(2.0 * n + 1.0)
    panels = math.ceil(rate * _k_cutoff(n) / _K_PANEL_PHASE)
    k, constant, amplitude = _fourier_laguerre_rule(n, panels)
    wave = _kernels.panel_sum(np.cos(np.multiply.outer(x, k)) * amplitude)
    v = -math.exp(_ln_norm(n)) * (constant - wave)
    return float(v) if np.ndim(v) == 0 else v


def entropy_integral_closed_form(n):
    """The integral of e^{-z^2} H_n^2 ln(H_n^2) assembled from V_n:

        2^n n! sqrt(pi) ln(2^{2n}) - 2 sum_k V_n(x_{n,k})

    summed over the roots x_{n,k} of H_n, from one log_potential call.  The
    independent oracle of the panel quadrature in ``quadrature``, which
    stays the normative route.
    """
    n = _check_order(n, N_MAX)
    if n == 0:
        return 0.0
    v_sum = math.fsum(log_potential(n, hermite_roots(n).roots))
    return math.exp(_ln_norm(n)) * (2.0 * n * _LN2) - 2.0 * v_sum
