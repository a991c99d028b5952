"""The scalar decisions that load without numpy: the order cap and the one
order check, the one eta check, the constants, the Hermite norm and its
constant c_k, the mode scale t = e^{eta/2}/sqrt(2), and the frozen
tables of S_k and of its oracle I3(k).

``criterion``, ``oscillator`` and ``cli`` answer their scalar questions
(the threshold table, the criterion report, the normal modes) from here,
so those commands never import numpy; every other module imports these names
from here rather than redefining them.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, UnsupportedOrderError

N_MAX = 64  # largest Hermite order: of every root set, rule, mode, entropy and table entry
DEFAULT_PANEL_ORDER = 48  # Gauss-Legendre points per panel of the entropy quadrature
PANEL_ORDER_MAX = 256  # largest panel order: its base rule is an order x order eigenproblem

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.57721566490153286061
_SQRT_PI = 1.77245385090551602730


def _check_order(n, n_max=math.inf, what="order", n_min=0):
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
        bound = f">= {n_min}" if n_max == math.inf else f"in [{n_min}, {n_max}]"
        raise UnsupportedOrderError(f"{what} must be {bound}, got {n}")
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
# verify checks every row against the live quadrature and against the
# closed form, and tests/test_criterion.py recomputes the whole table.
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


# I3(k) by the closed form from the logarithmic potential, for
# k = 0..N_MAX: the independent oracle of the quadrature behind
# S_TABLE, written out with repr as printed by
#   [specfun.entropy_integral_closed_form(k) for k in range(N_MAX + 1)]
# criterion_f reports its disagreement with S_TABLE as oracle_delta; verify
# checks every row against the live closed form, and
# tests/test_criterion.py recomputes the whole table.
I3_CLOSED_TABLE = (
    0.0,
    5.043639147506609,
    51.80098829022174,
    538.8702774158004,
    6347.794323984259,
    85469.35592856043,
    1305286.3050714247,
    22374336.455456004,
    426146961.6090957,
    8937828949.721745,
    204819536667.14404,
    5093687703977.231,
    136664242949874.33,
    3935524810704552.5,
    1.210904788308505e+17,
    3.9649600894996127e+18,
    1.3767117027783098e+20,
    5.052885310925209e+21,
    1.954718942884689e+23,
    7.949752884787227e+24,
    3.390993776600389e+26,
    1.5138200306070293e+28,
    7.059016006739431e+29,
    3.4320607242160534e+31,
    1.736945655418725e+33,
    9.136336082063916e+34,
    4.987640876530306e+36,
    2.8221609628346175e+38,
    1.6530927288743704e+40,
    1.0012489894193766e+42,
    6.263959388662837e+43,
    4.043702943658291e+45,
    2.6910446262680585e+47,
    1.8445305631458385e+49,
    1.3010922985342065e+51,
    9.437171942416979e+52,
    7.033313176621752e+54,
    5.382107023343816e+56,
    4.225954174440655e+58,
    3.402497146980224e+60,
    2.8074067080678006e+62,
    2.3724340389588852e+64,
    2.0522139436609558e+66,
    1.816185382125762e+68,
    1.643563093476581e+70,
    1.5201639230216899e+72,
    1.4363835711281367e+74,
    1.3859033140175174e+76,
    1.3648733396018776e+78,
    1.3714201107262304e+80,
    1.4053879824542744e+82,
    1.4682665617713733e+84,
    1.5632848965290837e+86,
    1.6956779410460986e+88,
    1.8731546388832501e+90,
    2.106624709017311e+92,
    2.4112776723247486e+94,
    2.808159232532944e+96,
    3.3264661761704525e+98,
    4.006895760975944e+100,
    4.90656150029412e+102,
    6.106259917217557e+104,
    7.721299462695034e+106,
    9.917776202171523e+108,
    1.2937252941486647e+111,
)
