"""Hermite polynomials, their roots, factorial helpers, the Gauss-argument
hypergeometric functions 1F1(1; 1/2; -x^2) and 2F2(1, 1; 3/2, 2; -x^2), and
the logarithmic potential V_n with the closed-form entropy integral built
on it.

Everything here is a pure function of its arguments.  Cached values (root
sets) are immutable after construction, so sharing across threads is safe:
a raced cache fill can only ever install identical objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import DomainError, UnsupportedOrderError

ROOTS_N_MAX = 32  # largest order with root-finding support
EVAL_N_MAX = 64  # largest order for polynomial evaluation

HYP1F1_VALID_RANGE = 8.0
HYP2F2_VALID_RANGE = 3.0

_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)


@dataclass(frozen=True)
class MathConstants:
    """High-precision constants used throughout the entropy formulas."""

    euler_gamma: float = 0.57721566490153286061
    sqrt_pi: float = 1.77245385090551602730
    ln_2pi_e: float = 2.83787706640934548356


CONSTANTS = MathConstants()


def _check_order(n, n_max, what="order"):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"{what} must be an integer, got {n!r}")
    n = int(n)
    if n < 0 or n > n_max:
        raise UnsupportedOrderError(f"{what} must be in [0, {n_max}], got {n}")
    return n


def hermite_eval(n, z):
    """H_n(z) by the recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1}.

    The recurrence is used verbatim (never expanded coefficients, which
    lose precision and overflow near n = 30).
    """
    n = _check_order(n, EVAL_N_MAX)
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"evaluation point must be finite, got {z}")
    if n == 0:
        return 1.0
    h_prev, h = 1.0, 2.0 * z
    for k in range(1, n):
        h, h_prev = 2.0 * z * h - (2.0 * k) * h_prev, h
    return h


def hermite_values(n, z):
    """Vectorized H_n over an array of points (kernel-backed)."""
    n = _check_order(n, EVAL_N_MAX)
    z = np.ascontiguousarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise DomainError("evaluation points must be finite")
    return _kernels.hermite_values(n, z)


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


def _roots_array(n):
    # Jacobi-matrix eigenvalues (off-diagonal sqrt(k/2)) polished by two
    # Newton steps with H_n' = 2 n H_{n-1}; supports n <= EVAL_N_MAX for
    # internal quadrature use.
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
    return roots


@lru_cache(maxsize=None)
def hermite_roots(n):
    """RootSet of H_n for 0 <= n <= ROOTS_N_MAX (n = 0 gives an empty set)."""
    n = _check_order(n, ROOTS_N_MAX)
    return RootSet(n=n, roots=_roots_array(n))


def ln_factorial(n):
    """ln(n!): exact-to-double through 20! by integer product, log-gamma
    beyond (relative error below 1e-14)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n <= 20:
        return math.log(math.factorial(n))
    return math.lgamma(n + 1.0)


@dataclass(frozen=True)
class SeriesValue:
    """Series evaluation with accuracy metadata.

    ``degraded`` is set when the argument lies outside the validated range
    (or the estimated error exceeds the advertised accuracy)."""

    value: float
    error_estimate: float
    degraded: bool = False

    def __float__(self):
        return self.value


def hyp1f1_gauss(x):
    """1F1(1; 1/2; -x^2) via the Kummer-transformed series
    e^{-x^2} * 1F1(-1/2; 1/2; x^2).

    After the first term the transformed series is sign-definite, so the
    alternating cancellation of the direct series never appears.  Relative
    accuracy is 1e-12 or better for |x| <= 8; larger arguments carry the
    degraded flag.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    y = x * x
    if y == 0.0:
        return SeriesValue(1.0, 0.0, False)
    degraded = abs(x) > HYP1F1_VALID_RANGE
    if y > 700.0:
        # e^{-x^2} underflows; fall back to the leading large-argument
        # behaviour -1/(2x^2) (1 + 3/(2x^2)) rather than returning zero
        v = -0.5 / y * (1.0 + 1.5 / y)
        return SeriesValue(v, abs(v) * 15.0 / (y * y), True)
    w = math.exp(-y)
    # sum_{k>=1} y^k / ((2k-1) k!) with the e^{-x^2} factor folded into the
    # terms; Neumaier compensation on the (positive) partial sums
    term = y * w
    total = 0.0
    comp = 0.0
    k = 1
    while term > 1e-20 * (total + w) and k < 500:
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        k += 1
        term *= y * (2.0 * k - 3.0) / ((2.0 * k - 1.0) * k)
    total += comp
    value = w - total
    err = 4.0 * np.finfo(float).eps * (w + total)
    return SeriesValue(value, err, degraded)


def hyp2f2_gauss(x):
    """2F2(1, 1; 3/2, 2; -x^2) by its alternating series.

    x^2 times it is int_0^inf e^{-k^2/4} (1 - cos kx) / k dk, the k
    integral of V_0; log_potential reaches every order through that
    integral, not through this series.

    No sign-definite transformation exists here, so the sum is accumulated
    in extended precision with Neumaier compensation; cancellation grows
    like e^{x^2}, and the result always carries an estimated absolute
    error.  Guaranteed to 1e-12 relative for |x| <= 3.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    y = x * x
    if y == 0.0:
        return SeriesValue(1.0, 0.0, False)
    ld = np.longdouble
    eps_ld = float(np.finfo(ld).eps)
    yl = ld(y)
    term = ld(1.0)
    total = ld(0.0)
    comp = ld(0.0)
    sum_abs = ld(0.0)
    k = 0
    while k < 1000:
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        sum_abs += abs(term)
        # term_{k+1}/term_k = -y (k+1) / ((k + 3/2)(k + 2))
        term = term * (-yl) * (k + 1) / ((k + ld(1.5)) * (k + 2))
        k += 1
        if abs(term) < 1e-24 * max(float(abs(total)), 1e-300):
            break
    value = float(total + comp)
    err = max(eps_ld * k * float(sum_abs), abs(value) * eps_ld)
    degraded = abs(x) > HYP2F2_VALID_RANGE or err > 1e-12 * max(abs(value), 1e-300)
    return SeriesValue(value, err, degraded)



@lru_cache(maxsize=None)
def _leggauss(order):
    # the Gauss-Legendre base rule on [-1, 1], built once per order and
    # shared by the entropy panel quadrature and the k rule of V_n
    nodes, weights = np.polynomial.legendre.leggauss(order)
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
_K_PANEL_ORDER = 48  # the panel quadrature's default, so its base rule is shared
# radians of integrand phase per k panel: 48-point panels stay at roundoff
# up to about 120
_K_PANEL_PHASE = 80.0


@lru_cache(maxsize=None)
def _fourier_laguerre_rule(n, panels):
    """(k, c, a) for V_n on ``panels`` equal Gauss-Legendre panels over
    [0, 2 sqrt(2n+1) + 12]: the nodes k, the constant
    c = ln-constant + sum w e^{-k^2/4} / k, and a = w e^{-k^2/4} L_n(k^2/2) / k,
    so that -V_n(x) / (2^n n! sqrt(pi)) = c - sum a cos(k x)."""
    base_x, base_w = _leggauss(_K_PANEL_ORDER)
    edges = np.linspace(0.0, _k_cutoff(n), panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    k = (mid[:, None] + half[:, None] * base_x).ravel()
    w_over_k = (half[:, None] * base_w).ravel() / k
    t = 0.5 * k * k
    gauss = np.exp(-0.5 * t)
    # e^{-t/2} L_j(t) by (j + 1) L_{j+1} = (2j + 1 - t) L_j - j L_{j-1};
    # bounded by 1 in magnitude, so nothing overflows or cancels
    lag_prev, lag = np.zeros_like(k), gauss
    for j in range(n):
        lag_prev, lag = lag, ((2.0 * j + 1.0 - t) * lag - j * lag_prev) / (j + 1.0)
    k.setflags(write=False)
    amplitude = w_over_k * lag
    amplitude.setflags(write=False)
    return k, _LN_ABS_C0 + float(np.dot(w_over_k, gauss)), amplitude


def log_potential(n, x):
    """Logarithmic potential V_n(x) = -int e^{-z^2} H_n(z)^2 ln|z - x| dz.

    Exact to roundoff by the Fourier-Frullani form of the logarithm and the
    characteristic function int e^{-z^2} H_n^2 e^{ikz} dz
    = 2^n n! sqrt(pi) e^{-k^2/4} L_n(k^2/2):

        V_n(x) = -2^n n! sqrt(pi) [ -(ln 2 + gamma/2)
                 + int_0^inf e^{-k^2/4} (1 - L_n(k^2/2) cos kx) / k dk ]

    The integrand is smooth and bounded; the k integral takes a composite
    Gauss-Legendre rule whose panel count grows with max |x|.  Accepts a
    scalar or an array of points with |x| <= sqrt(2n + 1) + 10 (the
    entropy window); returns a float or an array of the same shape.
    """
    n = _check_order(n, ROOTS_N_MAX)
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
    norm = math.exp(n * _LN2 + ln_factorial(n) + 0.5 * _LN_PI)
    v = -norm * (constant - np.cos(np.multiply.outer(x, k)) @ amplitude)
    return float(v) if v.ndim == 0 else v


def entropy_integral_closed_form(n):
    """The integral of e^{-z^2} H_n^2 ln(H_n^2) assembled from V_n:

        2^n n! sqrt(pi) ln(2^{2n}) - 2 sum_k V_n(x_{n,k})

    summed over the roots x_{n,k} of H_n, from one log_potential call.  The
    independent oracle of the panel quadrature in ``quadrature``, which
    stays the normative route.
    """
    n = _check_order(n, ROOTS_N_MAX)
    if n == 0:
        return 0.0
    v_sum = math.fsum(log_potential(n, hermite_roots(n).roots))
    prefactor = math.exp(n * _LN2 + ln_factorial(n) + 0.5 * _LN_PI)
    return prefactor * (2.0 * n * _LN2) - 2.0 * v_sum
