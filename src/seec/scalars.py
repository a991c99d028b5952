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

from .errors import DomainError, UnsupportedOrderError

N_MAX = 64  # largest Hermite order: of every root set, rule, mode, entropy and table entry
DEFAULT_PANEL_ORDER = 48  # Gauss-Legendre points per panel of the entropy quadrature
PANEL_ORDER_MAX = 256  # largest panel order: its base rule is an order x order eigenproblem

_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)
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


def _ln_factorial(n):
    # ln(n!) of a checked order: exact-to-double through 20! by integer
    # product, log-gamma beyond (relative error below 1e-14)
    if n <= 20:
        return math.log(math.factorial(n))
    return math.lgamma(n + 1.0)


def _ln_norm(k):
    # ln(sqrt(pi) k! 2^k); its exponential is the orthogonality norm of H_k
    return 0.5 * _LN_PI + _ln_factorial(k) + k * _LN2


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
    1.3427277883861806,
    1.498609233251727,
    1.6097118413016522,
    1.6965506306803775,
    1.768061253238324,
    1.8289684902728176,
    1.8820845209089647,
    1.929223353108842,
    1.971625554965268,
    2.010178125467423,
    2.045537879584458,
    2.0782051612896524,
    2.108570143178653,
    2.13694312581039,
    2.1635750574933468,
    2.188671840910949,
    2.2124045601804383,
    2.2349169520662997,
    2.256330968872504,
    2.2767509907939427,
    2.2962670638316354,
    2.3149574224028555,
    2.332890478661753,
    2.3501264086253997,
    2.366718429574533,
    2.3827138382638395,
    2.398154861898135,
    2.4130793610409285,
    2.4275214144192034,
    2.4415118086938037,
    2.4550784511967265,
    2.468246719774015,
    2.4810397608812593,
    2.4934787449121245,
    2.505583085903197,
    2.517370631453332,
    2.5288578275673217,
    2.540059862305071,
    2.550990791456883,
    2.5616636488115034,
    2.5720905433693417,
    2.582282745121944,
    2.5922507611779793,
    2.602004403380903,
    2.611552848579919,
    2.6209046924849417,
    2.6300679979295296,
    2.6390503382242514,
    2.647858836128762,
    2.6565001990514077,
    2.664980750845757,
    2.6733064607165886,
    2.681482969164648,
    2.6895156119643673,
    2.69740944177164,
    2.705169247793208,
    2.7127995739574544,
    2.720304735399793,
    2.727688833679508,
    2.7349557706392034,
    2.742109261203723,
    2.749152845276285,
    2.7560898985057634,
    2.762923642377473,
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
    5.0436391475066085,
    51.80098829022172,
    538.8702774158005,
    6347.794323984262,
    85469.3559285604,
    1305286.3050714238,
    22374336.455455996,
    426146961.6090957,
    8937828949.721748,
    204819536667.14404,
    5093687703977.232,
    136664242949873.84,
    3935524810704544.0,
    1.2109047883085005e+17,
    3.964960089499607e+18,
    1.3767117027783108e+20,
    5.0528853109252e+21,
    1.954718942884684e+23,
    7.949752884787233e+24,
    3.390993776600396e+26,
    1.5138200306070236e+28,
    7.059016006739396e+29,
    3.432060724216067e+31,
    1.7369456554187157e+33,
    9.136336082063937e+34,
    4.987640876530297e+36,
    2.8221609628345986e+38,
    1.6530927288743363e+40,
    1.0012489894193583e+42,
    6.263959388662838e+43,
    4.043702943658253e+45,
    2.691044626268025e+47,
    1.844530563145805e+49,
    1.3010922985341912e+51,
    9.437171942416864e+52,
    7.033313176621673e+54,
    5.382107023343772e+56,
    4.2259541744405534e+58,
    3.402497146980211e+60,
    2.8074067080676988e+62,
    2.3724340389588565e+64,
    2.0522139436609524e+66,
    1.8161853821257488e+68,
    1.6435630934765696e+70,
    1.5201639230217009e+72,
    1.4363835711281626e+74,
    1.3859033140175113e+76,
    1.3648733396018815e+78,
    1.3714201107262614e+80,
    1.4053879824543196e+82,
    1.4682665617712984e+84,
    1.5632848965291342e+86,
    1.695677941046124e+88,
    1.8731546388831662e+90,
    2.1066247090173046e+92,
    2.4112776723247816e+94,
    2.808159232533005e+96,
    3.326466176170397e+98,
    4.006895760975911e+100,
    4.906561500294319e+102,
    6.106259917217572e+104,
    7.721299462694994e+106,
    9.917776202171531e+108,
    1.2937252941487194e+111,
)
