"""Coupled-oscillator normal modes and eigenfunctions.

Transforms the physical Hamiltonian

    H = P1^2/2m1 + P2^2/2m2 + (A/2) X1^2 + (B/2) X2^2 + (C/2) X1 X2

to its diagonal dimensionless form and evaluates eigenenergies and the
position/momentum eigenfunctions in sum/difference coordinates.  Internally
everything is dimensionless (hbar = M = K = omega = 1); raw-unit couplings
are scaled on entry and the scales (M, K, omega) are reported alongside.
Only the array form ``wavefunction`` imports numpy, through
``_kernels.hermite_function``; ``seec wavefunction`` evaluates the two
factors of its tensor grid as lists of floats and never imports it.
"""

import math
from collections import namedtuple

from .errors import DomainError, UnboundModeError, UnsupportedRegimeError
from .scalars import _PI_M_QUARTER, _check_eta, _check_mode_pair, _mode_scale, _psi_steps


def _checked_tuple(typename, field_names):
    # a namedtuple base whose _make, and so _replace, builds through the
    # subclass's validating __new__ rather than tuple.__new__
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class CoupledHamiltonian(_checked_tuple("CoupledHamiltonian", "m1 m2 A B C")):
    """Raw couplings (m1, m2, A, B, C) of two harmonically coupled masses."""

    __slots__ = ()

    def __new__(cls, m1, m2, A, B, C):
        for name, v in (("m1", m1), ("m2", m2), ("A", A), ("B", B)):
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {v}")
        if not math.isfinite(C):
            raise DomainError(f"C must be finite, got {C}")
        disc = 4.0 * A * B - C * C
        if math.isnan(disc):
            # 4AB and C^2 both overflow, so the sign of the difference is unknown
            raise DomainError(
                f"the discriminant 4AB - C^2 is not finite in floating point, got {disc}"
            )
        if disc <= 0.0:
            raise UnboundModeError(f"bound normal modes require 4AB - C^2 > 0, got {disc}")
        return super().__new__(cls, m1, m2, A, B, C)


class DiagonalizedSystem(
    _checked_tuple("DiagonalizedSystem", "M K omega eta alpha degenerate_branch")
):
    """Normal-mode description: mass scale M, stiffness scale K, frequency
    omega = sqrt(K/M), frequency-splitting parameter eta, and the rotation
    angle alpha (radians) that decouples the coordinates."""

    __slots__ = ()

    def __new__(cls, M, K, omega, eta, alpha, degenerate_branch=False):
        if not (0.0 < M < math.inf and 0.0 < K < math.inf):
            raise DomainError(f"M and K must be positive and finite, got {M}, {K}")
        if not (math.isfinite(eta) and math.isfinite(alpha)):
            raise DomainError(f"eta and alpha must be finite, got {eta}, {alpha}")
        ref = math.sqrt(K / M)
        # written as "not within" so that a nan omega is rejected too
        if not abs(omega - ref) <= 1e-14 * ref:
            raise DomainError(f"omega must equal sqrt(K/M) = {ref}, got {omega}")
        return super().__new__(cls, M, K, omega, eta, alpha, degenerate_branch)


def diagonalize(h):
    """Normal-mode data for a valid CoupledHamiltonian.

    e^{2 |eta|} = (A + B + disc) / 2K, with disc = sqrt((A-B)^2 + C^2) and
    2K = sqrt(4AB - C^2), is the one formula for eta at every bound
    coupling, evaluated through log1p with no cancelling term.  eta takes
    the sign of A - B, and tan(2 alpha) = C / (B - A) with 2 alpha on the
    principal branch, which is exactly the branch that makes reconstruct()
    a round trip.

    tan(2 alpha) is undefined at A = B exactly, so there alpha = +/-45
    degrees (+ for C < 0), or 0 when C = 0, and eta >= 0: the tie selects
    only these two, and degenerate_branch records it.
    """
    M = math.sqrt(h.m1 * h.m2)
    k2 = h.A * h.B - 0.25 * h.C * h.C
    if not (0.0 < M < math.inf and 0.0 < k2 < math.inf):
        # m1 m2 underflows or overflows, or AB - C^2/4 does (nan when AB
        # and C^2 both overflow)
        raise DomainError(
            f"the scales M^2 = m1 m2 and K^2 = AB - C^2/4 must be positive and "
            f"finite in floating point, got M^2 = {h.m1 * h.m2}, K^2 = {k2}"
        )
    K = math.sqrt(k2)
    omega = math.sqrt(K / M)
    # e^{2 |eta|} - 1 = (A + B + disc - 2K) / 2K, and A + B - 2K =
    # disc^2 / s since disc^2 = (A + B)^2 - 4K^2: every term is positive
    disc = math.hypot(h.A - h.B, h.C)
    eta = 0.5 * math.log1p(disc / (2.0 * K) * (1.0 + disc / (h.A + h.B + 2.0 * K)))
    if h.A == h.B:
        alpha = 0.0 if h.C == 0.0 else math.copysign(math.pi / 4.0, -h.C)
        return DiagonalizedSystem(M, K, omega, eta, alpha, True)
    if h.A < h.B:
        eta = -eta
    alpha = 0.5 * math.atan(h.C / (h.B - h.A))
    return DiagonalizedSystem(M, K, omega, eta, alpha, False)


def reconstruct(d):
    """Couplings (A, B, C) regenerated from the diagonal form by rotating
    the potential K (e^{2 eta} y1^2 + e^{-2 eta} y2^2) / 2 back through
    alpha; the round-trip oracle for diagonalize."""
    lam1 = d.K * math.exp(2.0 * d.eta)
    lam2 = d.K * math.exp(-2.0 * d.eta)
    mid = 0.5 * (lam1 + lam2)
    half = 0.5 * (lam1 - lam2)
    c2a = math.cos(2.0 * d.alpha)
    s2a = math.sin(2.0 * d.alpha)
    return (mid + half * c2a, mid - half * c2a, s2a * (lam2 - lam1))


class ModePair(_checked_tuple("ModePair", "n m")):
    """Quantum numbers (n, m) of the two normal modes, stored as ints."""

    __slots__ = ()

    def __new__(cls, n, m):
        return super().__new__(cls, *_check_mode_pair(n, m))


def energy(mode, eta):
    """Eigenenergy e^{eta} (n + 1/2) + e^{-eta} (m + 1/2) in units of
    hbar omega."""
    eta = float(eta)
    try:
        e = math.exp(eta) * (mode.n + 0.5) + math.exp(-eta) * (mode.m + 0.5)
    except OverflowError:
        e = math.inf
    if not math.isfinite(e):  # nan or infinite eta, or an overflow
        raise DomainError(f"eta must be finite and keep the energy finite, got {eta}")
    return e


def _sum_difference_scales(space, eta, alpha_deg):
    # the mode scales (t1, t2) after the checks both eigenfunction routes
    # make before any coordinate: t1 = t(sign eta) and t2 = t(-sign eta),
    # with sign +1 in position and -1 in momentum space.  The angle test is
    # written as "not within" so that a nan angle is rejected too.
    if not abs(abs(alpha_deg) - 45.0) <= 1e-9:
        raise UnsupportedRegimeError(
            f"sum/difference form requires alpha = +/-45 degrees, got {alpha_deg}"
        )
    sign = {"position": 1.0, "momentum": -1.0}.get(space)
    if sign is None:
        raise DomainError(f"space must be 'position' or 'momentum', got {space!r}")
    eta = _check_eta(eta)
    return _mode_scale(eta, sign), _mode_scale(eta, -sign)


def wavefunction(mode, eta, space, u_plus, u_minus, alpha_deg=45.0):
    """Eigenfunction in sum/difference coordinates, alpha = +/-45 regime.

    space 'position' gives Psi_nm(x_plus, x_minus); 'momentum' gives
    Phi_nm(p_plus, p_minus), which is the same form with eta negated.
    Normalization: the squared modulus integrates to one against the
    coordinate-change Jacobian 1/2 (the double integral of |Psi|^2 over
    the plane equals 2).

    Accepts scalars or broadcastable arrays for the coordinates; a float
    when both are scalars, else an array of their broadcast shape.  The
    state is separable, psi_n(t1 x1) psi_m(t2 x2), so each factor is one
    _kernels.hermite_function call on its own coordinate, before the
    product broadcasts.  The general-alpha eigenfunction is deliberately
    not provided: callers outside |alpha| = 45 degrees get
    UnsupportedRegimeError instead of a silently wrong formula.
    """
    from ._kernels import hermite_function

    t1, t2 = _sum_difference_scales(space, eta, alpha_deg)
    if alpha_deg > 0.0:
        x1, x2 = u_minus, u_plus
    else:
        # alpha = -45: mode 1 couples to the sum coordinate and the
        # difference coordinate enters with a sign flip, carried by its scale
        x1, x2, t2 = u_plus, u_minus, -t2
    return hermite_function(mode.n, t1, x1) * hermite_function(mode.m, t2, x2)


def _hermite_function_list(k, zs):
    """psi_k at every float of ``zs`` as a list, without numpy: the list
    twin of _kernels.hermite_function on scaled coordinates, the same
    recurrence in its operation order, and +0.0 where the Gaussian is 0.
    The values equal the array form's bit for bit wherever math.exp and
    numpy's exp agree; the two may differ by 1 ulp."""
    gauss = [math.exp(-0.5 * (z * z)) for z in zs]
    psi_prev, psi = [0.0] * len(zs), [g * _PI_M_QUARTER for g in gauss]
    for c1, c2 in _psi_steps(k):
        psi, psi_prev = [c1 * (z * p) - c2 * q for z, p, q in zip(zs, psi, psi_prev)], psi
    return [0.0 if g == 0.0 else p for g, p in zip(gauss, psi)]


def _wavefunction_axes(mode, eta, space, grid):
    """The factors (f1, f2) of wavefunction(mode, eta, space, grid[:, None],
    grid[None, :]) at alpha = +45 degrees, as lists of floats, without
    numpy: the value at (u_plus, u_minus) = (grid[i], grid[j]) is
    f2[i] * f1[j], since mode 1 reads only u_minus and mode 2 only u_plus.
    """
    t1, t2 = _sum_difference_scales(space, eta, 45.0)
    return (
        _hermite_function_list(mode.n, [t1 * u for u in grid]),
        _hermite_function_list(mode.m, [t2 * u for u in grid]),
    )
