"""The scalar decisions that load without numpy: the order cap and the one
order check, the one eta check, the constants, the Hermite norm, the
coefficients of the normalized psi_k recurrence, the mode scale
t = e^{eta/2}/sqrt(2), and the frozen table of the exact S_k.

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


# S_k = -int psi_k^2 ln psi_k^2, the Shannon entropy of the unit-scale
# level-k density psi_k^2 = e^{-z^2} H_k(z)^2 / (2^k k! sqrt(pi)), for
# k = 0..N_MAX: the exact S_k correctly rounded, written with repr, as
# printed from the 40-digit stdlib decimal reference tests/reference.py by
#   [float(reference.entropy(k)) for k in range(N_MAX + 1)]
# whose digits decide every rounding (tests/test_reference.py checks it).
# verify holds each entry to the live panel quadrature within
# verification.S_TABLE_ULPS.
S_TABLE = (
    1.0723649429247002,
    1.3427277883861783,
    1.4986092332517278,
    1.6097118413016531,
    1.6965506306803753,
    1.768061253238333,
    1.8289684902728387,
    1.8820845209089812,
    1.92922335310886,
    1.9716255549652706,
    2.0101781254674376,
    2.045537879584483,
    2.0782051612898367,
    2.108570143178773,
    2.136943125810583,
    2.1635750574934765,
    2.188671840910942,
    2.212404560180587,
    2.2349169520665058,
    2.2563309688724686,
    2.2767509907938237,
    2.2962670638319675,
    2.3149574224033236,
    2.332890478661436,
    2.3501264086259797,
    2.366718429574322,
    2.3827138382640367,
    2.398154861898926,
    2.413079361043363,
    2.4275214144213826,
    2.4415118086939316,
    2.4550784511980077,
    2.4682467197757583,
    2.4810397608837893,
    2.4934787449139337,
    2.50558308590496,
    2.5173706314553477,
    2.528857827568838,
    2.5400598623091697,
    2.550990791457576,
    2.561663648817998,
    2.5720905433716617,
    2.582282745122333,
    2.5922507611792014,
    2.6020044033826153,
    2.611552848578428,
    2.620904692481404,
    2.6300679979304853,
    2.639050338223671,
    2.6478588361236857,
    2.656500199044258,
    2.6649807508580268,
    2.6733064607087327,
    2.6814829691606294,
    2.689515611975629,
    2.6974094417723076,
    2.7051692477896636,
    2.7127995739515733,
    2.7203047354046435,
    2.727688833681975,
    2.734955770627857,
    2.742109261203156,
    2.749152845277849,
    2.75608989850552,
    2.7629236423644126,
)

# how far each S_TABLE entry may sit from the exact S_k, in ulps of the
# entry: correctly rounded, the worst is 0.49 ulp (k = 8)
S_TABLE_REF_ULPS = 1
