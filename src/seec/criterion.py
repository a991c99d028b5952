"""The entanglement criterion engine.

Marginal densities of the sum/difference coordinates, their Shannon
entropies, the criterion function

    f(eta) = H[w-] + H[v+] - ln(2 pi e) = eta0 - eta,

the threshold table eta0(n, m) and the verdict (entangled iff f < 0).

The eta dependence of each entropy is analytic (a pure -ln t scale term
with t = e^{eta/2}/sqrt(2)), so entropies decompose as S_k - ln t where
S_k is the unit-scale level entropy.  Sweeps over eta therefore never
re-integrate, and f(eta) = eta0 - eta holds exactly by construction.
S_k and its closed-form oracle are read from the frozen tables in
``scalars``, so standard_entropy, threshold_eta0 and criterion_f never
import numpy; the array routes import it when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError
from .scalars import (
    CONSTANTS,
    I3_CLOSED_TABLE,
    ROOTS_N_MAX,
    S_TABLE,
    _check_order,
    _LN2,
    _ln_norm,
)

MODE_N_MAX = ROOTS_N_MAX
LN_2PI_E = CONSTANTS.ln_2pi_e

_SIDES = ("w_minus", "v_plus")


@dataclass(frozen=True)
class ScalingTransform:
    """Coordinate scaling with t = e^{eta/2}/sqrt(2): position maps
    z1 = t x-, z2 = x+/(2t); momentum maps p1 = p-/(2t), p2 = t p+."""

    eta: float
    t: float = field(init=False)
    ln_t: float = field(init=False)

    def __post_init__(self):
        eta = float(self.eta)
        if not math.isfinite(eta):
            raise DomainError(f"eta must be finite, got {self.eta}")
        try:
            t = math.exp(0.5 * eta) / math.sqrt(2.0)
        except OverflowError:
            raise DomainError(f"eta too large: e^(eta/2) overflows, got {eta}") from None
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "ln_t", _ln_t(eta))

    def z1(self, x_minus):
        return self.t * x_minus

    def z2(self, x_plus):
        return x_plus / (2.0 * self.t)

    def p1(self, p_minus):
        return p_minus / (2.0 * self.t)

    def p2(self, p_plus):
        return self.t * p_plus


def _ln_t(eta):
    # kept linear in eta (not log(t)) so entropies are exactly linear, and
    # finite for every finite eta, where t itself overflows above ~1419
    return 0.5 * eta - 0.5 * _LN2


def _check_mode(n, m):
    return _check_order(n, MODE_N_MAX, "n"), _check_order(m, MODE_N_MAX, "m")


@dataclass(frozen=True)
class IntegralBundle:
    """Closed-form integrals I0..I2 / J0..J2, the entropy integrals I3/J3
    (panel quadrature) with their closed-form oracle values, and the
    marginal prefactors q_nm, r_nm.

    The I-side lives in the difference coordinate (order n), the J-side is
    its momentum-sum mirror (order m), so I0 = J1-at-n and so on with
    n <-> m swapped.
    """

    n: int
    m: int
    eta: float
    I0: float
    I1: float
    I2: float
    I3: float
    J0: float
    J1: float
    J2: float
    J3: float
    q_nm: float
    r_nm: float
    i3_closed_form: float
    j3_closed_form: float


def integral_bundle(n, m, eta=0.0):
    """Assemble the integral bundle for mode pair (n, m) at coupling eta.

    I3/J3 come from the normative panel quadrature; the closed form from
    the logarithmic potential is recorded alongside as its oracle.

    The prefactors use the normalization-preserving constant
    q_nm = t I0 / (pi n! m! 2^{n+m}) (and the r_nm mirror): 2^{n+m} is the
    unique power for which the marginals integrate to one.
    """
    from . import quadrature

    n, m = _check_mode(n, m)
    tr = ScalingTransform(eta)
    ln_n, ln_m = _ln_norm(n), _ln_norm(m)
    i1 = math.exp(ln_n)  # 2^n n! sqrt(pi)
    j1 = math.exp(ln_m)
    return IntegralBundle(
        n=n,
        m=m,
        eta=tr.eta,
        I0=j1,
        I1=i1,
        I2=-i1 * (n + 0.5),
        I3=quadrature.entropy_integral_numeric(n),
        J0=i1,
        J1=j1,
        J2=-j1 * (m + 0.5),
        J3=quadrature.entropy_integral_numeric(m),
        q_nm=math.exp(tr.ln_t - ln_n),
        r_nm=math.exp(tr.ln_t - ln_m),
        i3_closed_form=_closed_form_oracle(n)[0],
        j3_closed_form=_closed_form_oracle(m)[0],
    )


def marginal(side, n, m, eta, u):
    """Marginal density value: w-(x-) = q_nm e^{-z1^2} H_n^2(z1) for side
    'w_minus', or v+(p+) = r_nm e^{-p2^2} H_m^2(p2) for side 'v_plus'.

    Accepts a scalar or array of coordinates; nonnegative everywhere.
    """
    import numpy as np

    from . import _kernels

    n, m = _check_mode(n, m)
    if side not in _SIDES:
        raise DomainError(f"side must be one of {_SIDES}, got {side!r}")
    tr = ScalingTransform(eta)
    order = n if side == "w_minus" else m
    ln_pref = tr.ln_t - _ln_norm(order)
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise DomainError("coordinate must be finite")
    scalar = u.ndim == 0
    z = tr.t * np.atleast_1d(u)
    with np.errstate(over="ignore", invalid="ignore"):
        gauss = np.exp(-z * z)
        h = _kernels.hermite_values(order, np.ascontiguousarray(z))
        value = math.exp(ln_pref) * gauss * h * h
    # nan where H_n overflows and the Gaussian has underflowed to 0; the
    # true value rounds to 0 there
    value[np.isnan(value) & (gauss == 0.0)] = 0.0
    if scalar:
        return float(value[0])
    return value.reshape(u.shape)


def _entropy_from_i3(k, i3):
    # S_k = ln(sqrt(pi) k! 2^k) + k + 1/2 - I3(k) / (2^k k! sqrt(pi))
    ln_norm = _ln_norm(k)
    return ln_norm + k + 0.5 - i3 * math.exp(-ln_norm)


def standard_entropy(k):
    """Entropy S_k of the unit-scale level-k density c_k^2 e^{-z^2} H_k^2(z):

        S_k = ln(sqrt(pi) k! 2^k) + k + 1/2 - I3(k) / (2^k k! sqrt(pi))

    with I3 from the normative panel quadrature at its default order, read
    from the frozen ``scalars.S_TABLE``.  k is validated on every call, and
    the lookup is cached on the validated order, so (k) and (np.int64(k))
    share one entry.  Another panel order is
    _entropy_from_i3(k, quadrature.entropy_integral_numeric(k, order)).
    """
    return _table_entropy(_check_order(k, MODE_N_MAX, "k"))


@lru_cache(maxsize=None)
def _table_entropy(k):
    # cached so that standard_entropy.cache_info() counts the table lookups
    return S_TABLE[k]


standard_entropy.cache_info = _table_entropy.cache_info
standard_entropy.cache_clear = _table_entropy.cache_clear


@lru_cache(maxsize=None)
def _entropy_excess(k):
    # S_k - S_0; exactly zero at k = 0, which keeps eta0(0, 0) an exact 0.0
    return standard_entropy(k) - standard_entropy(0)


def shannon_entropy(side, n, m, eta=0.0, bundle=None):
    """Shannon entropy of the chosen marginal via the integral expansion

        H = -(q/t) { (ln q) I1 + I2 + I3 }        (w- side, r/J mirror)

    using the bundle's I3/J3 provenance.  Algebraically this equals the
    scaling decomposition standard_entropy(order) - ln t, which criterion_f
    uses for exact eta linearity; the expansion here is the cross-checkable
    route.
    """
    n, m = _check_mode(n, m)
    if side not in _SIDES:
        raise DomainError(f"side must be one of {_SIDES}, got {side!r}")
    if bundle is None:
        bundle = integral_bundle(n, m, eta)
    tr = ScalingTransform(eta)
    if side == "w_minus":
        ln_q = tr.ln_t - _ln_norm(n)
        c2 = math.exp(-_ln_norm(n))  # q_nm / t
        return -c2 * (ln_q * bundle.I1 + bundle.I2 + bundle.I3)
    ln_r = tr.ln_t - _ln_norm(m)
    c2 = math.exp(-_ln_norm(m))
    return -c2 * (ln_r * bundle.J1 + bundle.J2 + bundle.J3)


@lru_cache(maxsize=None)
def _closed_form_oracle(k):
    # (I3(k) by the closed form, |S_k(table) - S_k(closed form)|),
    # computed once per order
    from . import specfun

    i3 = specfun.entropy_integral_closed_form(k)
    return i3, _oracle_delta(k, i3)


def _oracle_delta(k, i3):
    # |S_k from the table - S_k from the closed-form I3(k)|
    return abs(standard_entropy(k) - _entropy_from_i3(k, i3))


@dataclass(frozen=True)
class EntropyReport:
    """Full criterion evaluation at one (n, m, eta).

    ``f`` is the criterion function (entangled iff f < 0), ``eta0`` its
    eta-intercept, ``alt_f`` the alternate pairing H[w+] + H[v-] -
    ln(2 pi e) (reported, never substituted: its analytic form is
    eta0 + eta, not eta0 - eta), and ``oracle_delta`` the larger of the
    two disagreements between the closed-form and the tabulated entropy
    (both read from the frozen tables, which verify checks live).
    """

    n: int
    m: int
    eta: float
    H_w_minus: float
    H_v_plus: float
    f: float
    eta0: float
    entangled: bool
    alt_f: float
    oracle_delta: float


def threshold_eta0(n, m):
    """Threshold eta0(n, m) = f(0), symmetric in (n, m).

    Equals S_n + S_m + ln 2 - ln(2 pi e); written as excess entropies
    (S_k - S_0) because 2 S_0 + ln 2 - ln(2 pi e) vanishes identically,
    which keeps the ground-state threshold an exact zero.
    """
    n, m = _check_mode(n, m)
    return _entropy_excess(n) + _entropy_excess(m)


def criterion_f(n, m, eta):
    """EntropyReport at coupling eta; f = eta0 - eta exactly."""
    n, m = _check_mode(n, m)
    eta = float(eta)
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta}")
    eta0 = threshold_eta0(n, m)
    ln_t = _ln_t(eta)
    h_w = standard_entropy(n) - ln_t
    h_v = standard_entropy(m) - ln_t
    f = eta0 - eta
    return EntropyReport(
        n=n,
        m=m,
        eta=eta,
        H_w_minus=h_w,
        H_v_plus=h_v,
        f=f,
        eta0=eta0,
        entangled=f < 0.0,
        alt_f=eta0 + eta,
        oracle_delta=max(
            _oracle_delta(n, I3_CLOSED_TABLE[n]), _oracle_delta(m, I3_CLOSED_TABLE[m])
        ),
    )


def criterion_curve(n, m, etas):
    """Criterion curve of mode pair (n, m) over an array of couplings.

    Returns the arrays (f, entangled) with f = eta0(n, m) - etas, the
    values criterion_f reports point by point, from one cached threshold
    and one array subtraction.
    """
    import numpy as np

    etas = np.asarray(etas, dtype=np.float64)
    if not np.isfinite(etas).all():
        raise DomainError("eta must be finite")
    f = threshold_eta0(n, m) - etas
    return f, f < 0.0


def is_entangled(n, m, eta):
    """True iff the criterion detects entanglement: f(n, m, eta) < 0."""
    return criterion_f(n, m, eta).f < 0.0
