"""The scalar decisions that load without numpy: the order cap and the one
order check, the one eta check, the constants, ln(n!), the Hermite norm
and its constant c_k, the mode scale t = e^{eta/2}/sqrt(2), and the frozen
tables of S_k and of its oracle I3(k).

``criterion``, ``oscillator`` and ``cli`` answer their scalar questions
(the threshold table, the criterion report, the normal modes) from here,
so those commands never import numpy; every other module imports these names
from here rather than redefining them.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError, UnsupportedOrderError

N_MAX = 64  # largest Hermite order: of every root set, rule, mode, entropy and table entry
DEFAULT_PANEL_ORDER = 48  # Gauss-Legendre points per panel of the entropy quadrature
PANEL_ORDER_MAX = 256  # largest panel order: its base rule is an order x order eigenproblem

_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)


class MathConstants(
    namedtuple(
        "MathConstants",
        "euler_gamma sqrt_pi ln_2pi_e",
        defaults=(0.57721566490153286061, 1.77245385090551602730, 2.83787706640934548356),
    )
):
    """High-precision constants used throughout the entropy formulas."""

    __slots__ = ()


CONSTANTS = MathConstants()


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


def _check_panel_order(order):
    return _check_order(order, PANEL_ORDER_MAX, "panel order", n_min=1)


def ln_factorial(n):
    """ln(n!): exact-to-double through 20! by integer product, log-gamma
    beyond (relative error below 1e-14)."""
    n = _check_order(n, what="n")
    if n <= 20:
        return math.log(math.factorial(n))
    return math.lgamma(n + 1.0)


def _ln_norm(k):
    # ln(sqrt(pi) k! 2^k); its exponential is the orthogonality norm of H_k
    return 0.5 * _LN_PI + ln_factorial(k) + k * _LN2


def _norm_constant(k):
    # c_k = 1 / sqrt(sqrt(pi) k! 2^k), computed in the log domain: the
    # factor that makes c_k e^{-z^2/2} H_k(z) the normalized psi_k
    return math.exp(-0.5 * _ln_norm(k))


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


# S_k, the Shannon entropy of the unit-scale level-k density
# e^{-z^2} H_k(z)^2 / (2^k k! sqrt(pi)), for k = 0..N_MAX at
# DEFAULT_PANEL_ORDER: the panel quadrature's own values, written out with
# repr so that each literal reads back as the same double, as printed by
#   [criterion._entropy_from_i3(k, quadrature.entropy_integral_numeric(k))
#    for k in range(N_MAX + 1)]
# verify checks every row against the live quadrature and against the
# closed form, and tests/test_criterion.py recomputes the whole table.
S_TABLE = (
    1.0723649429247,
    1.3427277883861777,
    1.4986092332517247,
    1.6097118413016513,
    1.6965506306803775,
    1.768061253238324,
    1.8289684902728265,
    1.8820845209089647,
    1.9292233531088563,
    1.9716255549652786,
    2.010178125467437,
    2.045537879584508,
    2.078205161289695,
    2.1085701431786816,
    2.1369431258104044,
    2.1635750574933894,
    2.1886718409109847,
    2.212404560180495,
    2.2349169520663565,
    2.256330968872547,
    2.2767509907939996,
    2.2962670638317064,
    2.314957422402969,
    2.3328904786617954,
    2.3501264086254565,
    2.3667184295745614,
    2.382713838263925,
    2.3981548618981634,
    2.4130793610410564,
    2.427521414419232,
    2.4415118086940026,
    2.45507845119684,
    2.4682467197741005,
    2.481039760881231,
    2.4934787449122098,
    2.5055830859031403,
    2.517370631453474,
    2.5288578275674354,
    2.54005986230527,
    2.550990791456968,
    2.5616636488116455,
    2.5720905433695407,
    2.582282745122228,
    2.5922507611778087,
    2.602004403381329,
    2.6115528485800894,
    2.620904692485226,
    2.6300679979297,
    2.63905033822428,
    2.647858836128819,
    2.6565001990517487,
    2.6649807508458423,
    2.673306460716816,
    2.6814829691643354,
    2.689515611964339,
    2.6974094417715833,
    2.7051692477932647,
    2.7127995739574544,
    2.720304735400134,
    2.7276888336797924,
    2.734955770639658,
    2.74210926120395,
    2.749152845276001,
    2.7560898985059907,
    2.7629236423775865,
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
    5.043639147506628,
    51.80098829022162,
    538.8702774158014,
    6347.794323984273,
    85469.35592856038,
    1305286.3050714254,
    22374336.45545599,
    426146961.6090964,
    8937828949.72175,
    204819536667.14407,
    5093687703977.22,
    136664242949873.72,
    3935524810704543.0,
    1.2109047883085005e+17,
    3.964960089499607e+18,
    1.3767117027783108e+20,
    5.0528853109252e+21,
    1.954718942884683e+23,
    7.94975288478724e+24,
    3.3909937766003964e+26,
    1.5138200306070236e+28,
    7.059016006739396e+29,
    3.432060724216066e+31,
    1.7369456554187172e+33,
    9.136336082063935e+34,
    4.987640876530303e+36,
    2.822160962834601e+38,
    1.6530927288743378e+40,
    1.0012489894193583e+42,
    6.263959388662837e+43,
    4.043702943658249e+45,
    2.691044626268025e+47,
    1.844530563145804e+49,
    1.30109229853419e+51,
    9.437171942416865e+52,
    7.033313176621672e+54,
    5.382107023343772e+56,
    4.2259541744405495e+58,
    3.40249714698021e+60,
    2.807406708067697e+62,
    2.3724340389588565e+64,
    2.052213943660952e+66,
    1.8161853821257493e+68,
    1.6435630934765696e+70,
    1.5201639230217009e+72,
    1.4363835711281628e+74,
    1.3859033140175114e+76,
    1.3648733396018802e+78,
    1.3714201107262607e+80,
    1.4053879824543196e+82,
    1.4682665617712984e+84,
    1.563284896529134e+86,
    1.6956779410461233e+88,
    1.8731546388831676e+90,
    2.1066247090173049e+92,
    2.4112776723247812e+94,
    2.808159232533005e+96,
    3.326466176170398e+98,
    4.006895760975912e+100,
    4.906561500294319e+102,
    6.106259917217572e+104,
    7.721299462694985e+106,
    9.917776202171531e+108,
    1.2937252941487194e+111,
)
