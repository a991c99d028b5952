"""The scalar decisions that load without numpy: the order cap and the one
order check, the one eta check, the constants, the Hermite norm and its
constant c_k, the mode scale t = e^{eta/2}/sqrt(2), and the frozen
table of S_k with its bound against the exact entropies.

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
PANEL_ORDER_MAX = 256  # largest panel order: its base rule is an order x order eigenproblem

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.57721566490153286061
_SQRT_PI = 1.77245385090551602730


def _check_order(n, n_max, what="order", n_min=0):
    # the one order check: a Python or numpy integer (never a bool, a numpy
    # bool, an array or a float) in [n_min, n_max], returned as an int.  A
    # numpy integer can only exist once numpy is imported, so the check
    # looks numpy up in sys.modules instead of importing it.
    np = sys.modules.get("numpy")
    if isinstance(n, bool) or not (
        isinstance(n, int) or (np is not None and isinstance(n, np.integer))
    ):
        raise DomainError(f"{what} must be an integer, got {n!r}")
    n = int(n)
    if not n_min <= n <= n_max:
        raise UnsupportedOrderError(f"{what} must be in [{n_min}, {n_max}], got {n}")
    return n


def _check_mode_pair(n, m):
    return _check_order(n, N_MAX, "n"), _check_order(m, N_MAX, "m")


def _norm(k):
    # sqrt(pi) k! 2^k, the orthogonality norm of H_k: the exact integer
    # k! 2^k rounded once to a double, finite through k = 150
    return _SQRT_PI * float(math.factorial(k) << k)


def _norm_constant(k):
    # c_k = 1 / sqrt(sqrt(pi) k! 2^k): the factor that makes
    # c_k e^{-z^2/2} H_k(z) the normalized psi_k
    return 1.0 / math.sqrt(_norm(k))


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
# k = 0..N_MAX at DEFAULT_PANEL_ORDER: the panel quadrature's own values,
# written out with repr so that each literal reads back as the same double,
# as printed by
#   [quadrature._entropy(k, DEFAULT_PANEL_ORDER) for k in range(N_MAX + 1)]
# verify checks every row against the live quadrature, tests/test_criterion.py
# recomputes the whole table, and tests/test_reference.py holds every entry
# to the exact S_k of a stdlib decimal reference within S_TABLE_REF_ULPS.
S_TABLE = (
    1.0723649429246993,
    1.3427277883861772,
    1.4986092332517265,
    1.6097118413016518,
    1.696550630680374,
    1.768061253238332,
    1.8289684902728376,
    1.8820845209089798,
    1.9292233531088587,
    1.9716255549652695,
    2.0101781254674367,
    2.045537879584482,
    2.0782051612898353,
    2.108570143178772,
    2.136943125810581,
    2.1635750574934756,
    2.1886718409109407,
    2.2124045601805857,
    2.234916952066504,
    2.256330968872467,
    2.2767509907938233,
    2.296267063831966,
    2.3149574224033223,
    2.3328904786614344,
    2.350126408625979,
    2.3667184295743207,
    2.382713838264036,
    2.398154861898926,
    2.4130793610433616,
    2.4275214144213804,
    2.4415118086939316,
    2.4550784511980064,
    2.468246719775757,
    2.4810397608837875,
    2.4934787449139324,
    2.505583085904958,
    2.5173706314553486,
    2.5288578275688374,
    2.540059862309169,
    2.5509907914575742,
    2.561663648817996,
    2.5720905433716603,
    2.5822827451223316,
    2.5922507611791983,
    2.602004403382617,
    2.611552848578427,
    2.6209046924814037,
    2.630067997930485,
    2.639050338223669,
    2.6478588361236852,
    2.656500199044258,
    2.6649807508580263,
    2.6733064607087322,
    2.681482969160626,
    2.6895156119756263,
    2.697409441772305,
    2.7051692477896627,
    2.712799573951573,
    2.720304735404644,
    2.7276888336819742,
    2.734955770627858,
    2.7421092612031552,
    2.7491528452778473,
    2.7560898985055187,
    2.7629236423644112,
)

# how far each S_TABLE entry may sit from the exact S_k, in ulps of the
# entry: the worst is 8.27 ulps (k = 53), against the 40-digit reference
S_TABLE_REF_ULPS = 9
