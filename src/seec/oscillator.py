"""Coupled-oscillator normal modes and eigenfunctions.

Transforms the physical Hamiltonian

    H = P1^2/2m1 + P2^2/2m2 + (A/2) X1^2 + (B/2) X2^2 + (C/2) X1 X2

to its diagonal dimensionless form and evaluates eigenenergies and the
position/momentum eigenfunctions in sum/difference coordinates.  Internally
everything is dimensionless (hbar = M = K = omega = 1); raw-unit couplings
are scaled on entry and the scales (M, K, omega) are reported alongside.
Only the array form ``wavefunction`` imports numpy; ``seec wavefunction``
evaluates its tensor grid as lists of floats and never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, UnboundModeError, UnsupportedRegimeError
from .scalars import EVAL_N_MAX, _check_order, _ln_norm, _mode_scale

DEGENERACY_THRESHOLD = 1e-12


@dataclass(frozen=True)
class CoupledHamiltonian:
    """Raw couplings (m1, m2, A, B, C) of two harmonically coupled masses."""

    m1: float
    m2: float
    A: float
    B: float
    C: float

    def __post_init__(self):
        for name in ("m1", "m2", "A", "B"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {v}")
        if not math.isfinite(self.C):
            raise DomainError(f"C must be finite, got {self.C}")
        disc = 4.0 * self.A * self.B - self.C * self.C
        if math.isnan(disc):
            # 4AB and C^2 both overflow, so the sign of the difference is unknown
            raise DomainError(
                f"the discriminant 4AB - C^2 is not finite in floating point, got {disc}"
            )
        if disc <= 0.0:
            raise UnboundModeError(f"bound normal modes require 4AB - C^2 > 0, got {disc}")


@dataclass(frozen=True)
class DiagonalizedSystem:
    """Normal-mode description: mass scale M, stiffness scale K, frequency
    omega = sqrt(K/M), frequency-splitting parameter eta, and the rotation
    angle alpha (radians) that decouples the coordinates."""

    M: float
    K: float
    omega: float
    eta: float
    alpha: float
    degenerate_branch: bool = False

    def __post_init__(self):
        if not (0.0 < self.M < math.inf and 0.0 < self.K < math.inf):
            raise DomainError(f"M and K must be positive and finite, got {self.M}, {self.K}")
        if not (math.isfinite(self.eta) and math.isfinite(self.alpha)):
            raise DomainError(f"eta and alpha must be finite, got {self.eta}, {self.alpha}")
        ref = math.sqrt(self.K / self.M)
        # written as "not within" so that a nan omega is rejected too
        if not abs(self.omega - ref) <= 1e-14 * ref:
            raise DomainError(f"omega must equal sqrt(K/M) = {ref}, got {self.omega}")


def diagonalize(h):
    """Normal-mode data for a valid CoupledHamiltonian.

    e^{2 eta} = (A + B + sgn(A - B) sqrt((A-B)^2 + C^2)) / sqrt(4AB - C^2),
    tan(2 alpha) = C / (B - A) with 2 alpha on the principal branch, which
    is exactly the branch that makes reconstruct() a round trip.

    The formula above is undefined at A = B, so inside the degeneracy
    threshold the A -> B limit e^{2 eta} = sqrt((2A + |C|)/(2A - |C|)) is
    used with eta >= 0 and alpha = +/-45 degrees (+ for C < 0).
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
    if abs(h.A - h.B) <= DEGENERACY_THRESHOLD * (h.A + h.B):
        if h.C == 0.0:
            return DiagonalizedSystem(M, K, omega, 0.0, 0.0, True)
        a_bar = 0.5 * (h.A + h.B)
        eta = 0.25 * math.log((2.0 * a_bar + abs(h.C)) / (2.0 * a_bar - abs(h.C)))
        alpha = math.pi / 4.0 if h.C < 0.0 else -math.pi / 4.0
        return DiagonalizedSystem(M, K, omega, eta, alpha, True)
    # for A < B, A + B - disc cancels near C^2 = 4AB; its conjugate
    # 4K^2 / (A + B + disc) turns e^{2 eta} into 2K / (A + B + disc)
    disc = math.hypot(h.A - h.B, h.C)
    eta = 0.5 * math.log((h.A + h.B + disc) / (2.0 * K))
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


def _norm_constant(k):
    # 1 / sqrt(sqrt(pi) k! 2^k), computed in the log domain
    return math.exp(-0.5 * _ln_norm(k))


@dataclass(frozen=True)
class ModePair:
    """Quantum numbers (n, m) of the two normal modes with their
    normalization constants c1 = 1/sqrt(sqrt(pi) n! 2^n) and the m-mirror."""

    n: int
    m: int
    c1: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self):
        n = _check_order(self.n, EVAL_N_MAX, "n")
        m = _check_order(self.m, EVAL_N_MAX, "m")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "c1", _norm_constant(n))
        object.__setattr__(self, "c2", _norm_constant(m))


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
    eta = float(eta)
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta}")
    return _mode_scale(eta, sign), _mode_scale(eta, -sign)


def wavefunction(mode, eta, space, u_plus, u_minus, alpha_deg=45.0):
    """Eigenfunction in sum/difference coordinates, alpha = +/-45 regime.

    space 'position' gives Psi_nm(x_plus, x_minus); 'momentum' gives
    Phi_nm(p_plus, p_minus), which is the same form with eta negated.
    Normalization: the squared modulus integrates to one against the
    coordinate-change Jacobian 1/2 (the double integral of |Psi|^2 over
    the plane equals 2).

    Accepts scalars or broadcastable arrays for the coordinates; a float
    when both are scalars, else an array of their broadcast shape.  Each
    Hermite factor is evaluated on its own coordinate as given, before
    broadcasting, so a tensor grid (u_plus[:, None], u_minus[None, :])
    costs 2 x steps Hermite evaluations, not steps^2.  The general-alpha
    eigenfunction is deliberately not provided: callers outside
    |alpha| = 45 degrees get UnsupportedRegimeError instead of a silently
    wrong formula.
    """
    import numpy as np

    from . import _kernels

    t1, t2 = _sum_difference_scales(space, eta, alpha_deg)
    up = np.asarray(u_plus, dtype=np.float64)
    um = np.asarray(u_minus, dtype=np.float64)
    if not (np.all(np.isfinite(up)) and np.all(np.isfinite(um))):
        raise DomainError("coordinates must be finite")
    if alpha_deg > 0.0:
        g1, g2 = um, up
    else:
        # alpha = -45: mode 1 couples to the sum coordinate and the
        # difference coordinate enters with a sign flip
        g1, g2 = up, -um
    with np.errstate(over="ignore", invalid="ignore"):
        arg1 = t1 * g1
        arg2 = t2 * g2
        gauss = np.exp(-0.5 * (arg1 * arg1 + arg2 * arg2))
        h1 = _kernels.hermite_values(mode.n, arg1)
        h2 = _kernels.hermite_values(mode.m, arg2)
        value = mode.c1 * mode.c2 * gauss * h1 * h2
    # far out the recurrence overflows to inf (or inf - inf) where the
    # Gaussian has underflowed to 0; the product, whose true value rounds
    # to 0 there, is then nan
    value = np.where(np.isnan(value) & (gauss == 0.0), 0.0, value)
    return float(value) if value.ndim == 0 else value


def _hermite_list(n, zs):
    """H_n at every float of ``zs`` as a list, without numpy: the recurrence
    of ``_kernels.hermite_pair`` in its operation order, so each value
    equals hermite_pair(n, zs)[0] bit for bit, overflows to inf and
    inf - inf included."""
    h_prev, h = [1.0] * len(zs), [2.0 * z for z in zs]
    if n == 0:
        return h_prev
    z2 = h
    for k in range(1, n):
        c = 2.0 * k
        h, h_prev = [a * b - c * p for a, b, p in zip(z2, h, h_prev)], h
    return h


def _wavefunction_rows(mode, eta, space, grid):
    """wavefunction(mode, eta, space, grid[:, None], grid[None, :]) at
    alpha = +45 degrees as a list of rows of floats, without numpy.

    Row i holds u_plus = grid[i] against every u_minus in ``grid``, a list
    of finite floats.  On this tensor grid mode 1 reads only u_minus and
    mode 2 only u_plus, so each Hermite factor is evaluated once per axis
    (2 x steps points, not steps^2).  Each point is then
    c1 c2 e^{-(a1^2 + a2^2)/2} H_n(a1) H_m(a2) in wavefunction's operation
    order, with its rule that a nan where the Gaussian is 0 is 0.  The
    values equal the array form's bit for bit wherever math.exp and numpy's
    exp agree; the two may differ by 1 ulp.
    """
    t1, t2 = _sum_difference_scales(space, eta, 45.0)
    a1 = [t1 * u for u in grid]
    a2 = [t2 * u for u in grid]
    columns = list(zip([a * a for a in a1], _hermite_list(mode.n, a1)))
    c = mode.c1 * mode.c2
    exp = math.exp
    rows = []
    for s2, h2 in zip([a * a for a in a2], _hermite_list(mode.m, a2)):
        row = [c * exp(-0.5 * (s1 + s2)) * h1 * h2 for s1, h1 in columns]
        # the sum is finite unless some value is nan or inf (or the sum
        # overflows, which only costs this second pass)
        if not math.isfinite(sum(row)):
            row = [
                0.0 if v != v and exp(-0.5 * (s1 + s2)) == 0.0 else v
                for v, (s1, _) in zip(row, columns)
            ]
        rows.append(row)
    return rows
