"""Hermite roots, the Gauss-Legendre base rule and its composite panel
rule, and the logarithmic potential V_n with the closed-form entropy
integral built on it.  The base rules of orders 32, 48 and 96, the three
seec uses, are frozen tables; any other order is built live without
numpy.polynomial, bit for bit numpy's.  H_n itself is
``_kernels.hermite_values``.  The order cap, the order check,
the constants and the Hermite norm come from ``scalars``.

Everything here is a pure function of its arguments.  Cached values (root
sets, base rules) are immutable after construction, so sharing across
threads is safe: a raced cache fill can only ever install identical objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import DomainError
from .scalars import DEFAULT_PANEL_ORDER, N_MAX
from .scalars import _EULER_GAMMA, _check_order, _LN2, _ln_norm


@dataclass(frozen=True, eq=False)
class RootSet:
    """All real roots of H_n, ascending.  Construction validates the count,
    ordering, symmetry about zero, and the Newton residual of every root."""

    n: int
    roots: np.ndarray
    # H_{n-1} at the roots, kept from the residual check: the Gauss-Hermite
    # weights of order n are built from it (empty for n = 0)
    _h_prev: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r = self.roots
        if len(r) != self.n:
            raise DomainError(f"expected {self.n} roots, got {len(r)}")
        if self.n == 0:
            object.__setattr__(self, "_h_prev", np.empty(0))
            return
        if not np.all(np.diff(r) > 0.0):
            raise DomainError("roots must be strictly increasing")
        if np.max(np.abs(r + r[::-1])) > 1e-13:
            raise DomainError("roots must be symmetric about zero")
        hn, hm1 = _kernels.hermite_pair(self.n, r)
        bad = np.abs(hn) > 1e-10 * np.maximum(1.0, np.abs(2.0 * self.n * hm1))
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(f"root {r[i]} has residual {hn[i]} above tolerance")
        hm1.setflags(write=False)
        object.__setattr__(self, "_h_prev", hm1)


# public while the benchmark harness calls it by name (ROADMAP item 4)
def hermite_roots(n):
    """RootSet of H_n for 0 <= n <= N_MAX (n = 0 gives an empty set), the
    Gauss-Hermite nodes too.  Validated on every call, then built once."""
    return _root_set(_check_order(n, N_MAX))


@lru_cache(maxsize=None)
def _root_set(n):
    # Jacobi-matrix eigenvalues (off-diagonal sqrt(k/2)) polished by two
    # Newton steps with H_n' = 2 n H_{n-1}
    if n == 0:
        roots = np.empty(0)
    elif n == 1:
        roots = np.zeros(1)
    else:
        band = np.sqrt(np.arange(1, n) / 2.0)
        jacobi = np.diag(band, 1) + np.diag(band, -1)
        roots = np.linalg.eigvalsh(jacobi)
        for _ in range(2):
            hn, hm1 = _kernels.hermite_pair(n, roots)
            roots = roots - hn / (2.0 * n * hm1)
        roots = 0.5 * (roots - roots[::-1])
    roots.setflags(write=False)
    return RootSet(n=n, roots=roots)


def _legendre_series(x, coef):
    # sum_j coef[j] P_j(x) by the Clenshaw recurrence, in the operation order
    # of numpy.polynomial.legendre.legval
    if len(coef) == 1:
        return coef[0] + 0.0 * x
    c0, c1 = coef[-2], coef[-1]
    nd = len(coef)
    for c in coef[-3::-1]:
        nd -= 1
        c0, c1 = c - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _build_leggauss(order):
    # the Gauss-Legendre base rule on [-1, 1] built live, for the orders
    # _LEGGAUSS_HALVES does not hold.  The steps of
    # numpy.polynomial.legendre.leggauss in its operation order, so the rule
    # equals numpy's bit for bit without importing numpy.polynomial:
    # eigenvalues of the symmetric companion matrix of P_order, one Newton
    # step, weights from P_{order-1} and P_order' (taken before the step),
    # then symmetrized and scaled to sum to 2.
    p_n = [0.0] * order + [1.0]
    # P_n' = sum (2j - 1) P_{j-1} over j = n, n - 2, ... >= 1
    dp_n = [0.0] * order
    for j in range(order, 0, -2):
        dp_n[j - 1] = 2.0 * j - 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    band = np.arange(1, order) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(band, 1) + np.diag(band, -1))
    df = _legendre_series(x, dp_n)
    x -= _legendre_series(x, p_n) / df
    fm = _legendre_series(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


# The three base rules seec uses, frozen: 32 points (the marginal
# normalization rows of verify), 48 (DEFAULT_PANEL_ORDER, and the k rule
# of _log_potential) and 96 (verify's convergence reference).  Each is
# (nodes, weights) over its non-negative nodes, ascending: the symmetrized
# nodes are exactly antisymmetric and the weights exactly symmetric, so the
# half fixes the rule.  Written out with repr so that each literal reads
# back as the same double, as printed by
#   {q: tuple(tuple(map(float, a[q // 2:])) for a in _build_leggauss(q))
#    for q in (32, 48, 96)}
# tests/test_specfun.py checks each against the live construction and
# numpy's leggauss, bit for bit.
_LEGGAUSS_HALVES = {
    32: (
        (
            0.048307665687738324, 0.1444719615827965, 0.23928736225213706,
            0.33186860228212767, 0.42135127613063533, 0.5068999089322294,
            0.5877157572407623, 0.6630442669302152, 0.7321821187402897,
            0.7944837959679424, 0.84936761373257, 0.8963211557660521,
            0.9349060759377397, 0.9647622555875064, 0.9856115115452684,
            0.9972638618494816,
        ),
        (
            0.09654008851472766, 0.09563872007927471, 0.09384439908080451,
            0.09117387869576378, 0.08765209300440378, 0.08331192422694671,
            0.07819389578707023, 0.07234579410884834, 0.06582222277636168,
            0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
            0.034273862913021765, 0.025392065309262024, 0.016274394730905743,
            0.007018610009470506,
        ),
    ),
    48: (
        (
            0.03238017096286937, 0.0970046992094627, 0.1612223560688917,
            0.22476379039468905, 0.28736248735545555, 0.3487558862921607,
            0.4086864819907167, 0.4669029047509584, 0.523160974722233,
            0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
            0.7240341309238146, 0.7671590325157404, 0.8070662040294426,
            0.8435882616243935, 0.8765720202742479, 0.9058791367155696,
            0.9313866907065543, 0.9529877031604308, 0.9705915925462473,
            0.9841245837228269, 0.9935301722663508, 0.9987710072524261,
        ),
        (
            0.06473769681268365, 0.06446616443594982, 0.06392423858464787,
            0.06311419228625373, 0.06203942315989242, 0.0607044391658936,
            0.059114839698395344, 0.057277292100402916, 0.05519950369998403,
            0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
            0.04467456085669423, 0.04154508294346455, 0.0382413510658305,
            0.034777222564770394, 0.031167227832798097, 0.027426509708357034,
            0.023570760839324047, 0.019616160457356056, 0.015579315722943226,
            0.011477234579234614, 0.007327553901276135, 0.0031533460523098414,
        ),
    ),
    96: (
        (
            0.016276744849602967, 0.04881298513604974, 0.08129749546442555,
            0.11369585011066592, 0.14597371465489695, 0.17809688236761861,
            0.2100313104605672, 0.24174315616384, 0.27319881259104917,
            0.30436494435449635, 0.3352085228926254, 0.3656968614723136,
            0.3957976498289086, 0.42547898840730053, 0.454709422167743,
            0.48345797392059636, 0.5116941771546677, 0.5393881083243575,
            0.5665104185613972, 0.593032364777572, 0.6189258401254686,
            0.6441634037849671, 0.6687183100439161, 0.6925645366421715,
            0.7156768123489676, 0.7380306437444001, 0.7596023411766475,
            0.7803690438674332, 0.8003087441391408, 0.8194003107379316,
            0.8376235112281871, 0.8549590334346014, 0.8713885059092965,
            0.8868945174024204, 0.9014606353158523, 0.9150714231208981,
            0.9277124567223087, 0.9393703397527552, 0.9500327177844377,
            0.9596882914487426, 0.9683268284632642, 0.9759391745851365,
            0.9825172635630147, 0.9880541263296237, 0.9925439003237626,
            0.9959818429872093, 0.9983643758631817, 0.9996895038832307,
        ),
        (
            0.03255061449236328, 0.03251611871386895, 0.0324471637140644,
            0.03234382256857602, 0.03220620479403032, 0.032034456231992796,
            0.03182875889441112, 0.03158933077072725, 0.03131642559686141,
            0.03101033258631393, 0.030671376123669266, 0.03029991542082777,
            0.029896344136328506, 0.029461089958168016, 0.02899461415055532,
            0.028497411065085413, 0.02797000761684837, 0.027412962726029232,
            0.02682686672559185, 0.026212340735672593, 0.025570036005349364,
            0.024900633222483814, 0.02420484179236482, 0.023483399085926292,
            0.022737069658329466, 0.02196664443874457, 0.021172939892191354,
            0.020356797154333365, 0.019519081140145382, 0.01866067962741174,
            0.017782502316045286, 0.016885479864245195, 0.015970562902562345,
            0.015038721026994927, 0.014090941772314894, 0.013128229566961646,
            0.012151604671088057, 0.01116210209983861, 0.010160770535008306,
            0.009148671230783011, 0.0081268769256983, 0.007096470791153821,
            0.006058545504235195, 0.005014202742928604, 0.003964554338444405,
            0.0029107318179352943, 0.0018539607889441585, 0.0007967920655518723,
        ),
    ),
}


@lru_cache(maxsize=None)
def _leggauss(order):
    # the Gauss-Legendre base rule on [-1, 1], once per order and shared by
    # the entropy panel quadrature and the k rule of V_n: unfolded from
    # _LEGGAUSS_HALVES where it holds the order, built live otherwise
    half = _LEGGAUSS_HALVES.get(order)
    if half is None:
        x, w = _build_leggauss(order)
    else:
        pos, w_pos = np.array(half[0]), np.array(half[1])
        x = np.concatenate((-pos[::-1], pos))
        w = np.concatenate((w_pos[::-1], w_pos))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(order, edges):
    # (nodes, weights) of the composite rule with ``order`` Gauss-Legendre
    # points on each panel between consecutive edges, in ascending order,
    # one row per panel: the layout _kernels.panel_sum sums
    base_x, base_w = _leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * base_x
    weights = half[:, None] * base_w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _entropy_window(n):
    # half-width of the z window outside which e^{-z^2} H_n^2 is negligible
    return math.sqrt(2.0 * n + 1.0) + 10.0


def _k_cutoff(n):
    # e^{-k^2/4} L_n(k^2/2) oscillates up to k = 2 sqrt(2n + 1) and has
    # decayed below 1e-21 twelve units beyond
    return 2.0 * math.sqrt(2.0 * n + 1.0) + 12.0


# ln|y| = _LN_ABS_C0 + int_0^inf (e^{-k^2/4} - cos ky) / k dk
_LN_ABS_C0 = -(_LN2 + 0.5 * _EULER_GAMMA)
# radians of integrand phase per k panel: 48-point panels stay at roundoff
# up to about 120
_K_PANEL_PHASE = 80.0


def _fourier_laguerre_rule(n, panels):
    """(k, c, a) for V_n on ``panels`` equal Gauss-Legendre panels over
    [0, 2 sqrt(2n+1) + 12]: the nodes k, one row per panel, the constant
    c = ln-constant + sum w e^{-k^2/4} / k, and a = w e^{-k^2/4} L_n(k^2/2) / k,
    so that -V_n(x) / (2^n n! sqrt(pi)) = c - sum a cos(k x)."""
    # the panel quadrature's default order, so the two share one base rule
    k, w = _panel_nodes(DEFAULT_PANEL_ORDER, np.linspace(0.0, _k_cutoff(n), panels + 1))
    w_over_k = w / k
    t = 0.5 * k * k
    gauss = np.exp(-0.5 * t)
    # e^{-t/2} L_j(t) by (j + 1) L_{j+1} = (2j + 1 - t) L_j - j L_{j-1};
    # bounded by 1 in magnitude, so nothing overflows or cancels
    lag_prev, lag = np.zeros_like(k), gauss
    for j in range(n):
        lag_prev, lag = lag, ((2.0 * j + 1.0 - t) * lag - j * lag_prev) / (j + 1.0)
    return k, _LN_ABS_C0 + _kernels.panel_sum(w_over_k * gauss), w_over_k * lag


def _log_potential(n, x):
    """Logarithmic potential V_n(x) = -int e^{-z^2} H_n(z)^2 ln|z - x| dz
    for n >= 1, at finite points x (a float or an array of them) within
    the entropy window |x| <= sqrt(2n + 1) + 10, such as the roots of H_n.

    Exact to roundoff by the Fourier-Frullani form of the logarithm and the
    characteristic function int e^{-z^2} H_n^2 e^{ikz} dz
    = 2^n n! sqrt(pi) e^{-k^2/4} L_n(k^2/2):

        V_n(x) = -2^n n! sqrt(pi) [ -(ln 2 + gamma/2)
                 + int_0^inf e^{-k^2/4} (1 - L_n(k^2/2) cos kx) / k dk ]

    The integrand is smooth and bounded; the k integral takes a composite
    Gauss-Legendre rule whose panel count grows with max |x|, summed for
    each x by ``_kernels.panel_sum``.  A float, or an array of x's shape.
    """
    x = np.asarray(x, dtype=np.float64)
    # the integrand's phase rate in k is at most |x| + sqrt(2n + 1)
    rate = float(np.max(np.abs(x), initial=0.0)) + math.sqrt(2.0 * n + 1.0)
    panels = math.ceil(rate * _k_cutoff(n) / _K_PANEL_PHASE)
    k, constant, amplitude = _fourier_laguerre_rule(n, panels)
    wave = _kernels.panel_sum(np.cos(np.multiply.outer(x, k)) * amplitude)
    return -math.exp(_ln_norm(n)) * (constant - wave)


def entropy_integral_closed_form(n):
    """The integral of e^{-z^2} H_n^2 ln(H_n^2) assembled from V_n:

        2^n n! sqrt(pi) ln(2^{2n}) - 2 sum_k V_n(x_{n,k})

    summed over the roots x_{n,k} of H_n, from one _log_potential call.  The
    independent oracle of the panel quadrature in ``quadrature``, which
    stays the normative route.
    """
    n = _check_order(n, N_MAX)
    if n == 0:
        return 0.0
    v_sum = math.fsum(_log_potential(n, hermite_roots(n).roots))
    return math.exp(_ln_norm(n)) * (2.0 * n * _LN2) - 2.0 * v_sum
