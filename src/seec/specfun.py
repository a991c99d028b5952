"""Hermite polynomials, their roots, factorial helpers, and the two
hypergeometric functions entering the logarithmic potential V_n.

Everything here is a pure function of its arguments.  Cached values (root
sets) are immutable after construction, so sharing across threads is safe:
a raced cache fill can only ever install identical objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class LogPotentialValue:
    """V_n evaluation; ``experimental`` is always set because this closed
    form only reproduces the quadrature oracle at n = 1 (its binomial sum
    is inconsistent for n >= 2), so consumers must gate it per order
    against the oracle."""

    value: float
    experimental: bool
    hyp_degraded: bool

    def __float__(self):
        return self.value


@lru_cache(maxsize=None)
def _binomial_sum(n):
    # sum_{k=1..n} C(n,k) (-2)^k / k, exact rational then one rounding
    return float(sum(Fraction(math.comb(n, k) * (-2) ** k, k) for k in range(1, n + 1)))


def log_potential(n, x):
    """Logarithmic potential V_n(x) of the Hermite polynomial H_n:

        2^n n! sqrt(pi) [ ln 2 + gamma/2 - x^2 2F2(1,1;3/2,2;-x^2)
                          + (1/2) sum_{k=1..n} C(n,k) (-2)^k / k
                            * 1F1(1;1/2;-x^2) ]

    Experimental path: see LogPotentialValue.
    """
    n = _check_order(n, ROOTS_N_MAX)
    if n == 0:
        raise DomainError("V_n requires n >= 1 (H_0 has no roots)")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"evaluation point must be finite, got {x}")
    f22 = hyp2f2_gauss(x)
    f11 = hyp1f1_gauss(x)
    prefactor = math.exp(n * _LN2 + ln_factorial(n) + 0.5 * _LN_PI)
    bracket = (
        _LN2
        + 0.5 * CONSTANTS.euler_gamma
        - x * x * f22.value
        + 0.5 * _binomial_sum(n) * f11.value
    )
    return LogPotentialValue(
        value=prefactor * bracket,
        experimental=True,
        hyp_degraded=f11.degraded or f22.degraded,
    )


def entropy_integral_closed_form(n):
    """The integral of e^{-z^2} H_n^2 ln(H_n^2) assembled from V_n:

        2^n n! sqrt(pi) ln(2^{2n}) - 2 sum_k V_n(x_{n,k})

    summed over the roots x_{n,k} of H_n.  Inherits the experimental
    status of log_potential; the panel quadrature in ``quadrature`` is the
    normative route.
    """
    n = _check_order(n, ROOTS_N_MAX)
    if n == 0:
        return 0.0
    v_sum = math.fsum(log_potential(n, x).value for x in hermite_roots(n).roots)
    prefactor = math.exp(n * _LN2 + ln_factorial(n) + 0.5 * _LN_PI)
    return prefactor * (2.0 * n * _LN2) - 2.0 * v_sum
