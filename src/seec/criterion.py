"""The entanglement criterion engine.

Marginal densities of the sum/difference coordinates, their Shannon
entropies, the criterion function

    f(eta) = H[w-] + H[v+] - ln(2 pi e) = eta0 - eta,

the threshold table eta0(n, m) and the verdict (entangled iff f < 0).

The eta dependence of each entropy is analytic (a pure -ln t scale term
with t = e^{eta/2}/sqrt(2)), so entropies decompose as S_k - ln t where
S_k is the unit-scale level entropy.  Sweeps over eta therefore never
re-integrate, and f(eta) = eta0 - eta holds exactly by construction.
This S_k - ln t is the one route to each entropy.  S_k and the
closed-form I3(k) of its oracle are read from the frozen tables in
``scalars`` (``verification`` checks both against their live routes), so
standard_entropy, threshold_eta0 and criterion_f never import numpy; the
array routes import it when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .scalars import (
    I3_CLOSED_TABLE,
    ROOTS_N_MAX,
    S_TABLE,
    _check_order,
    _LN2,
    _ln_norm,
    _mode_scale,
)

MODE_N_MAX = ROOTS_N_MAX

_SIDES = ("w_minus", "v_plus")


def _ln_t(eta):
    # kept linear in eta (not log(t)) so entropies are exactly linear, and
    # finite for every finite eta, where t itself overflows above ~1419
    return 0.5 * eta - 0.5 * _LN2


def _check_mode(n, m):
    return _check_order(n, MODE_N_MAX, "n"), _check_order(m, MODE_N_MAX, "m")


def marginal(side, n, m, eta, u):
    """Marginal density value: w-(x-) = q_nm e^{-z1^2} H_n^2(z1) for side
    'w_minus', or v+(p+) = r_nm e^{-p2^2} H_m^2(p2) for side 'v_plus',
    with z1 = t x-, p2 = t p+ and t = e^{eta/2}/sqrt(2).

    Accepts a scalar or array of coordinates; nonnegative everywhere.
    """
    import numpy as np

    from . import _kernels

    n, m = _check_mode(n, m)
    if side not in _SIDES:
        raise DomainError(f"side must be one of {_SIDES}, got {side!r}")
    eta = float(eta)
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta}")
    t = _mode_scale(eta)
    order = n if side == "w_minus" else m
    ln_pref = _ln_t(eta) - _ln_norm(order)
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise DomainError("coordinate must be finite")
    z = t * u
    with np.errstate(over="ignore", invalid="ignore"):
        gauss = np.exp(-z * z)
        h = _kernels.hermite_values(order, z)
        value = math.exp(ln_pref) * gauss * h * h
    # nan where H_n overflows and the Gaussian has underflowed to 0; the
    # true value rounds to 0 there
    value = np.where(np.isnan(value) & (gauss == 0.0), 0.0, value)
    return float(value) if value.ndim == 0 else value


def _entropy_from_i3(k, i3):
    # S_k = ln(sqrt(pi) k! 2^k) + k + 1/2 - I3(k) / (2^k k! sqrt(pi))
    ln_norm = _ln_norm(k)
    return ln_norm + k + 0.5 - i3 * math.exp(-ln_norm)


def standard_entropy(k):
    """Entropy S_k of the unit-scale level-k density c_k^2 e^{-z^2} H_k^2(z):

        S_k = ln(sqrt(pi) k! 2^k) + k + 1/2 - I3(k) / (2^k k! sqrt(pi))

    with I3 from the normative panel quadrature at its default order: the
    frozen ``scalars.S_TABLE`` entry of k, validated on every call (an
    integer, np.int64(k) too).  Another panel order is
    _entropy_from_i3(k, quadrature.entropy_integral_numeric(k, order)).
    """
    return S_TABLE[_check_order(k, MODE_N_MAX, "k")]


def _eta0(n, m):
    # eta0 of validated orders, as excess entropies S_k - S_0; each excess
    # is exactly zero at k = 0, which keeps eta0(0, 0) an exact 0.0
    return (S_TABLE[n] - S_TABLE[0]) + (S_TABLE[m] - S_TABLE[0])


def _oracle_delta(k, i3):
    # |S_k from the table - S_k from the closed-form I3(k)|, k validated
    return abs(S_TABLE[k] - _entropy_from_i3(k, i3))


@dataclass(frozen=True)
class EntropyReport:
    """Full criterion evaluation at one (n, m, eta).

    ``f`` is the criterion function (entangled iff f < 0), ``eta0`` its
    eta-intercept, ``alt_f`` the alternate pairing H[w+] + H[v-] -
    ln(2 pi e) (reported, never substituted: its analytic form is
    eta0 + eta, not eta0 - eta), and ``oracle_delta`` the larger of the
    two disagreements between the closed-form and the tabulated entropy
    (both read from the frozen tables, which verify checks live).  The
    fields, in this order, are the keys of ``seec criterion``'s JSON.
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
    return _eta0(*_check_mode(n, m))


def _verdict(eta0, eta):
    """True where the criterion detects entanglement at coupling eta, for
    a float or an array eta: f = eta0 - eta < 0.  The one home of the
    verdict; criterion_f, criterion_curve and the sweep all read it."""
    return eta0 - eta < 0.0


def criterion_f(n, m, eta):
    """EntropyReport at coupling eta; f = eta0 - eta exactly."""
    n, m = _check_mode(n, m)
    eta = float(eta)
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta}")
    eta0 = _eta0(n, m)
    ln_t = _ln_t(eta)
    h_w = S_TABLE[n] - ln_t
    h_v = S_TABLE[m] - ln_t
    f = eta0 - eta
    return EntropyReport(
        n=n,
        m=m,
        eta=eta,
        H_w_minus=h_w,
        H_v_plus=h_v,
        f=f,
        eta0=eta0,
        entangled=_verdict(eta0, eta),
        alt_f=eta0 + eta,
        oracle_delta=max(
            _oracle_delta(n, I3_CLOSED_TABLE[n]), _oracle_delta(m, I3_CLOSED_TABLE[m])
        ),
    )


def criterion_curve(n, m, etas):
    """Criterion curve of mode pair (n, m) over an array of couplings.

    Returns the arrays (f, entangled) with f = eta0(n, m) - etas, the
    values criterion_f reports point by point, from one threshold lookup
    and array arithmetic.
    """
    import numpy as np

    etas = np.asarray(etas, dtype=np.float64)
    if not np.isfinite(etas).all():
        raise DomainError("eta must be finite")
    eta0 = threshold_eta0(n, m)
    return eta0 - etas, _verdict(eta0, etas)


def is_entangled(n, m, eta):
    """True iff the criterion detects entanglement: f(n, m, eta) < 0."""
    return criterion_f(n, m, eta).entangled
