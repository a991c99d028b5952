"""The scalar decisions that load without numpy: the order cap and the one
order check, the one eta check, the constants, the Hermite norm, the
coefficients of the normalized psi_k recurrence, the mode scale
t = e^{eta/2}/sqrt(2), and the bound on ``_tables.S_TABLE``.

``criterion``, ``oscillator`` and ``cli`` answer their scalar questions
(the threshold table, the criterion report, the normal modes) from here,
so those commands never import numpy; every other module imports these names
from here rather than redefining them.
"""

import math
import sys

from .errors import DomainError, UnsupportedOrderError

N_MAX = 64  # largest Hermite order: of every root set, rule, mode, entropy and table entry
DEFAULT_PANEL_ORDER = 48  # Gauss-Legendre points per panel of the entropy quadrature

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.57721566490153286061
_SQRT_PI = 1.77245385090551602730
_PI_M_QUARTER = 0.75112554446494248286  # pi^{-1/4} = psi_0(0)


def _check_int(n, what):
    # the type rule of every order: a Python or numpy integer (never a bool,
    # a numpy bool, an array or a float), returned as an int.  A numpy
    # integer can only exist once numpy is imported, so the check looks
    # numpy up in sys.modules instead of importing it.
    np = sys.modules.get("numpy")
    if isinstance(n, bool) or not (
        isinstance(n, int) or (np is not None and isinstance(n, np.integer))
    ):
        raise DomainError(f"{what} must be an integer, got {n!r}")
    return int(n)


def _check_order(n, n_max, what="order", n_min=0):
    # the one order check: _check_int's integer, in [n_min, n_max]
    n = _check_int(n, what)
    if not n_min <= n <= n_max:
        raise UnsupportedOrderError(f"{what} must be in [{n_min}, {n_max}], got {n}")
    return n


def _check_mode_pair(n, m):
    return _check_order(n, N_MAX, "n"), _check_order(m, N_MAX, "m")


def _norm(k):
    # sqrt(pi) k! 2^k, the orthogonality norm of H_k: the exact integer
    # k! 2^k rounded once to a double, finite through k = 150
    return _SQRT_PI * float(math.factorial(k) << k)


def _psi_steps(k):
    # (sqrt(2/(j+1)), sqrt(j/(j+1))), j < k, of psi_{j+1} = sqrt(2/(j+1))
    # (a psi_j) - sqrt(j/(j+1)) psi_{j-1} from psi_{-1} = 0: the recurrence
    # of both Hermite-function twins, in this operation order (6.06 ulps of
    # worst S_k error, where (sqrt(2/(j+1)) a) psi_j leaves 6.30)
    return [(math.sqrt(2.0 / (j + 1)), math.sqrt(j / (j + 1))) for j in range(k)]


def _check_eta(eta):
    # the one finite-eta check, returning eta as a float
    eta = float(eta)
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta}")
    return eta


def _mode_scale(eta, sign=1.0):
    # t = e^{sign eta/2}/sqrt(2): a mode coordinate is t times a sum or
    # difference coordinate (sign -1 for the other mode, or momentum space)
    try:
        return math.exp(0.5 * sign * eta) / math.sqrt(2.0)
    except OverflowError:
        raise DomainError(f"eta too large: e^(|eta|/2) overflows, got {eta}") from None


# how far each S_TABLE entry may sit from the exact S_k, in ulps of the
# entry: correctly rounded, the worst is 0.49 ulp (k = 8)
S_TABLE_REF_ULPS = 1
