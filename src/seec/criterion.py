"""The entanglement criterion engine.

Marginal densities of the sum/difference coordinates, their Shannon
entropies, the criterion function

    f(eta) = H[w-] + H[v+] - ln(2 pi e) = eta0 - eta,

the threshold table eta0(n, m), the verdict (entangled iff f < 0), the
product-variance criterion's threshold eta_var(n, m) beside it, and the
critical coupling 2 tanh(2 eta0(n, m)) of the regime m1 = m2, A = B.

The eta dependence of each entropy is analytic (a pure -ln t scale term
with t = e^{eta/2}/sqrt(2)), so entropies decompose as S_k - ln t where
S_k is the unit-scale level entropy.  Sweeps over eta therefore never
re-integrate, and f(eta) = eta0 - eta holds exactly by construction.
This S_k - ln t is the one route to each entropy.  S_k, the entropy of
the density that marginal evaluates, taken at unit scale, is read from
the frozen table in ``_tables`` (``verification`` checks it against its
live quadrature), so standard_entropy, threshold_eta0 and criterion_f
never import numpy; only marginal imports it, when called.

criterion_f is the route to the verdict at one point, and ``seec sweep``
the route to a curve.  The array answer is one subtraction from the
threshold: f = threshold_eta0(n, m) - etas, entangled where f < 0.
"""

import math
from collections import namedtuple

from ._tables import S_TABLE
from .errors import DomainError
from .scalars import (
    N_MAX,
    S_TABLE_REF_ULPS,
    _check_eta,
    _check_mode_pair,
    _check_order,
    _LN2,
    _mode_scale,
)

_SIDES = ("w_minus", "v_plus")


def _ln_t(eta):
    # kept linear in eta (not log(t)) so entropies are exactly linear, and
    # finite for every finite eta, where t itself overflows above ~1419
    return 0.5 * eta - 0.5 * _LN2


def marginal(side, n, m, eta, u):
    """Marginal density value: w-(x-) = t psi_n(t x-)^2 for side 'w_minus',
    or v+(p+) = t psi_m(t p+)^2 for side 'v_plus', with psi_k the
    normalized Hermite function and t = e^{eta/2}/sqrt(2).

    Accepts a scalar or array of coordinates; nonnegative everywhere.
    """
    from ._kernels import hermite_function

    n, m = _check_mode_pair(n, m)
    if side not in _SIDES:
        raise DomainError(f"side must be one of {_SIDES}, got {side!r}")
    t = _mode_scale(_check_eta(eta))
    psi = hermite_function(n if side == "w_minus" else m, t, u)
    return t * psi * psi


def standard_entropy(k):
    """Entropy S_k = -int psi_k^2 ln psi_k^2 of the unit-scale level-k
    density psi_k^2 = e^{-z^2} H_k^2(z) / (sqrt(pi) k! 2^k): the frozen
    ``_tables.S_TABLE`` entry of k, the exact S_k correctly rounded,
    validated on every call (an integer, np.int64(k) too).  The live panel
    quadrature is quadrature._entropy(k, order), which verify holds to it.
    """
    return S_TABLE[_check_order(k, N_MAX, "k")]


def _eta0(n, m):
    # eta0 of validated orders, as excess entropies S_k - S_0; each excess
    # is exactly zero at k = 0, which keeps eta0(0, 0) an exact 0.0
    return (S_TABLE[n] - S_TABLE[0]) + (S_TABLE[m] - S_TABLE[0])


class EntropyReport(
    namedtuple("EntropyReport", "n m eta H_w_minus H_v_plus f eta0 entangled alt_f oracle_delta")
):
    """Full criterion evaluation at one (n, m, eta).

    ``f`` is the criterion function (entangled iff f < 0), ``eta0`` its
    eta-intercept, ``alt_f`` the alternate pairing H[w+] + H[v-] -
    ln(2 pi e) (reported, never substituted: its analytic form is
    eta0 + eta, not eta0 - eta), and ``oracle_delta`` how far either
    entropy's S_k can be off the exact one: S_TABLE_REF_ULPS ulps of the
    larger of the two table entries, the bound the tests hold the table to
    against a 40-digit reference, at most 4.4e-16.  The fields, in this
    order, are the keys of ``seec criterion``'s JSON.
    """

    __slots__ = ()


def threshold_eta0(n, m):
    """Threshold eta0(n, m) = f(0), symmetric in (n, m).

    Equals S_n + S_m + ln 2 - ln(2 pi e); written as excess entropies
    (S_k - S_0) because 2 S_0 + ln 2 - ln(2 pi e) vanishes identically,
    which keeps the ground-state threshold an exact zero.
    """
    return _eta0(*_check_mode_pair(n, m))


def variance_threshold(n, m):
    """Threshold eta_var(n, m) = 1/2 ln((2n + 1)(2m + 1)) of the
    product-variance criterion on the same pair (w-, v+), which detects
    entanglement iff eta > eta_var (Mancini, Giovannetti, Vitali and
    Tombesi, PRL 88, 120401 (2002)).

    The level-k density has variance k + 1/2, and no density of that
    variance has more entropy than the Gaussian's 1/2 ln(pi e (2k + 1)), so
    threshold_eta0(n, m) <= eta_var(n, m): SEEC never detects later.
    """
    n, m = _check_mode_pair(n, m)
    return 0.5 * math.log((2 * n + 1) * (2 * m + 1))


def critical_coupling(n, m):
    """Critical coupling |C|/a = 2 tanh(2 eta0(n, m)) of the regime
    m1 = m2, A = B = a, where diagonalize gives tanh(2 eta) = |C| / 2a.

    On that regime SEEC detects the pair (n, m) iff |C|/a exceeds it; bound
    modes need |C|/a < 2.  It is 0.0 at (0, 0), so the ground state is
    detected at every nonzero coupling, and it rises with n and with m.
    The detection window 2 - critical = 4 / (1 + e^{4 eta0}) has no
    cancellation.  Every eigenstate with C != 0 is entangled: this is
    where SEEC starts to detect it, not where entanglement starts.
    """
    return 2.0 * math.tanh(2.0 * threshold_eta0(n, m))


def _verdict(eta0, eta):
    """True iff the criterion detects entanglement at the float coupling
    eta: f = eta0 - eta < 0.  The one home of the verdict; criterion_f
    and the sweep both read it."""
    return eta0 - eta < 0.0


def criterion_f(n, m, eta):
    """EntropyReport at coupling eta; f = eta0 - eta exactly."""
    n, m = _check_mode_pair(n, m)
    eta = _check_eta(eta)
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
        oracle_delta=S_TABLE_REF_ULPS * math.ulp(max(S_TABLE[n], S_TABLE[m])),
    )
