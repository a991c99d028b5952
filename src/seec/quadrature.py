"""Deterministic numerical integration: the Hermite root sets, the
Gauss-Hermite and Gauss-Legendre rules, and the entropy panel layout.

The checked root set of H_n, built once per order, gives both the nodes of
the Gauss-Hermite rule of order n, exact for the polynomial-weight
integrals, and the cuts of the panels on which the log-singular entropy
integrand -psi_n^2 ln(psi_n^2), whence I3(n), is integrated: continuous
but not smooth at each root, each side graded toward it by a ratio of 8,
on the z >= 0 half of a mirror-exact layout, where alone the even
integrand is evaluated.  The Gauss-Legendre base rules of orders 32, 48
and 96 are frozen tables; any other order is numpy.polynomial's leggauss,
imported only then.  H_n itself is ``_kernels.hermite_values``, and psi_n
``_kernels.hermite_function``.  Every sum
is ``_kernels.panel_sum``: numpy's pairwise ``np.add.reduce`` within a
panel, ``math.fsum`` across panels, so its bits do not depend on the BLAS
thread count; only numpy's SIMD ``exp`` and ``log`` can still round
differently on another CPU.

All results are pure functions of their inputs, and every cached value is
immutable once built, so a raced cache fill can only install identical
objects.
"""

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import DomainError
from .scalars import (
    DEFAULT_PANEL_ORDER,
    N_MAX,
    PANEL_ORDER_MAX,
    _SQRT_PI,
    _check_order,
    _norm,
)


class RootSet(namedtuple("RootSet", "n roots")):
    """All real roots of H_n, ascending, as a read-only array.  Built only
    by ``_checked_roots``, which checks their count, order, symmetry about
    zero and Newton residual."""

    __slots__ = ()


# public while the benchmark harness calls it by name (ROADMAP item 4)
def hermite_roots(n):
    """RootSet of H_n for 0 <= n <= N_MAX (n = 0 gives an empty set), the
    Gauss-Hermite nodes too.  Validated on every call, then built once."""
    return _root_set(_check_order(n, N_MAX))[0]


@lru_cache(maxsize=None)
def _root_set(n):
    # (RootSet, H_{n-1} at the roots) of H_n: Jacobi-matrix eigenvalues
    # (off-diagonal sqrt(k/2)) polished by two Newton steps with H_n' = 2 n H_{n-1}
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
    return _checked_roots(n, roots)


def _checked_roots(n, roots):
    # (RootSet, H_{n-1} at the roots) once candidate roots of H_n pass every
    # check (each fails on nan), made read-only; H_{n-1}, kept from the
    # residual check, gives the Gauss-Hermite weights of order n
    if len(roots) != n:
        raise DomainError(f"expected {n} roots, got {len(roots)}")
    if not np.all(np.diff(roots) > 0.0):
        raise DomainError("roots must be strictly increasing")
    if not np.max(np.abs(roots + roots[::-1]), initial=0.0) <= 1e-13:
        raise DomainError("roots must be symmetric about zero")
    hn, hm1 = _kernels.hermite_pair(n, roots)
    bad = ~(np.abs(hn) <= 1e-10 * np.maximum(1.0, np.abs(2.0 * n * hm1)))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"root {roots[i]} has residual {hn[i]} above tolerance")
    roots.setflags(write=False)
    hm1.setflags(write=False)
    return RootSet(n, roots), hm1


# The three base rules seec uses, frozen: 32 points (the marginal
# normalization rows of verify), 48 (DEFAULT_PANEL_ORDER) and 96 (verify's
# convergence reference).  Each is (nodes, weights) over its non-negative
# nodes, ascending: the symmetrized nodes are exactly antisymmetric and the
# weights exactly symmetric, so the half fixes the rule.  Written out with
# repr so that each literal reads back as the same double, as printed by
#   {q: tuple(tuple(map(float, a[q // 2:]))
#             for a in numpy.polynomial.legendre.leggauss(q))
#    for q in (32, 48, 96)}
# tests/test_specfun.py checks each against numpy's leggauss, bit for bit.
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
    # the entropy quadrature and verify's normalization rows: unfolded from
    # _LEGGAUSS_HALVES where it holds the order, numpy's otherwise.  Only
    # that branch imports numpy.polynomial, so no command loads it.
    half = _LEGGAUSS_HALVES.get(order)
    if half is None:
        from numpy.polynomial.legendre import leggauss

        x, w = leggauss(order)
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
    return mid[:, None] + half[:, None] * base_x, half[:, None] * base_w


def _entropy_window(n):
    # half-width of the z window outside which e^{-z^2} H_n^2 is negligible
    return math.sqrt(2.0 * n + 1.0) + 10.0


class QuadratureRule(namedtuple("QuadratureRule", "nodes weights")):
    """Nodes and weights of a Gauss-Hermite rule, as read-only arrays:
    sum w_i f(x_i) approximates the integral of f(z) e^{-z^2}.  Built only
    by ``_gauss_hermite_rule``, which checks that the weights are finite,
    positive and sum to sqrt(pi)."""

    __slots__ = ()


# public while the benchmark harness calls it by name (ROADMAP item 4)
def gauss_hermite_rule(order):
    """Gauss-Hermite rule of the given order (1 <= order <= N_MAX).

    The nodes are the array of the validated root set of H_order (checked
    for count, order, symmetry and Newton residual); weights come from the
    analytic identity w_i = 2^{n-1} n! sqrt(pi) / (n H_{n-1}(x_i))^2 from
    the exact norm and must sum to sqrt(pi).  A rule of order
    q integrates z^p e^{-z^2} exactly (to roundoff) for p <= 2q - 1.
    Validated on every call, then built once per order.
    """
    return _gauss_hermite_rule(_check_order(order, N_MAX, n_min=1))


@lru_cache(maxsize=None)
def _gauss_hermite_rule(order):
    # H_{order-1} at the nodes, from the root set's residual check
    root_set, h_prev = _root_set(order)
    # w_i = 2^{n-1} n! sqrt(pi) / (n H_{n-1})^2; a square that overflows
    # gives a 0 weight, which the check below refuses
    with np.errstate(over="ignore"):
        weights = _norm(order) / (2.0 * np.square(order * h_prev))
    if not np.all(np.isfinite(weights) & (weights > 0.0)):
        raise DomainError("all quadrature weights must be finite and strictly positive")
    if abs(float(np.sum(weights)) - _SQRT_PI) > 1e-12 * _SQRT_PI:
        raise DomainError("Gauss-Hermite weights must sum to sqrt(pi)")
    weights.setflags(write=False)
    return QuadratureRule(root_set.roots, weights)


_MAX_PANEL_WIDTH = 2.0
_GRADING_LEVELS = 3
# grading factors by a ratio of 8: away from a root (8^-3 .. 8^0) and
# toward one (8^-1 .. 8^-3)
_GRADE_AWAY = 8.0 ** -np.arange(_GRADING_LEVELS, -1, -1)
_GRADE_TOWARD = 8.0 ** -np.arange(1, _GRADING_LEVELS + 1)


@lru_cache(maxsize=None)
def _entropy_panel_boundaries(n):
    """Panel boundaries for the entropy integrand of a checked order n on
    z >= 0, as one read-only array built once per order.

    The window [0, L] with L = sqrt(2n + 1) + 10 is split at every root
    of H_n, and each root-adjacent half-gap is graded toward the root by a
    ratio of 8 in three levels: on every graded subpanel [d, 8d] the factor
    ln(H_n^2) is analytic, its nearest singularity at distance d from the
    panel's end, so Gauss-Legendre of q points converges like 2.09^(-2q)
    (about 1e-31 at q = 48) and only the innermost sliver (width 2^-9 of
    the half-gap, holding an O(width^3 ln width) share of the integral)
    sees the singularity at all.  Panels away from roots are at most 2
    wide.  The roots and base rules are antisymmetric, so the half negated
    is its mirror on z < 0, every node there the exact negative of one here.
    """
    roots = hermite_roots(n).roots
    cut = _entropy_window(n)
    # from 0, exactly: the middle root (odd n) or middle gap's midpoint (even n)
    raw = np.concatenate(([-cut], roots, [cut]))[(n + 1) // 2 :]
    a, b = raw[:-1], raw[1:]
    mid = 0.5 * (a + b)
    # one row per gap between consecutive raw points: the points graded
    # away from its left root, those graded toward its right root, then b
    rows = np.hstack(
        (
            a[:, None] + (mid - a)[:, None] * _GRADE_AWAY,
            b[:, None] - (b - mid)[:, None] * _GRADE_TOWARD,
            b[:, None],
        )
    )
    keep = np.ones(rows.shape, dtype=bool)
    # for even n the half enters the first gap at its midpoint, 0; the
    # window edge is not a root, so the last gap is not graded toward it
    keep[0, : _GRADING_LEVELS + 1] = n % 2 == 1
    keep[-1, _GRADING_LEVELS + 1 : -1] = False
    graded = np.concatenate(([0.0], rows[keep]))
    width = graded[1:] - graded[:-1]
    # the guarantees of a panel rule, decided here once per order: the
    # split below cuts a gap wider than 2 into equal pieces 1 to 2 wide, so
    # finite, strictly increasing graded points give finite, strictly
    # increasing boundaries, and with them finite nodes and positive weights
    if not (np.all(np.isfinite(graded)) and np.all(width > 0.0)):
        raise DomainError(
            f"entropy panel boundaries of order {n} must be finite and strictly increasing"
        )
    pieces = np.maximum(1, np.ceil(width / _MAX_PANEL_WIDTH)).astype(np.int64)
    # piece j of a gap split into `pieces` starts at a + (b - a) * j / pieces
    j = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    step = np.repeat(width, pieces) * j / np.repeat(pieces, pieces)
    edges = np.append(np.repeat(graded[:-1], pieces) + step, cut)
    edges.setflags(write=False)
    return edges


# public while the benchmark harness calls it by name (ROADMAP item 4)
def entropy_integral_numeric(n, panel_order=DEFAULT_PANEL_ORDER):
    """Integral I3(n) of e^{-z^2} H_n^2(z) ln(H_n^2(z)) over the real line,
    N_n (ln N_n + n + 1/2 - S_n) from the panel quadrature's entropy S_n.

    Panels split at the roots of H_n; per-panel Gauss-Legendre of
    ``panel_order`` points on a mirror-exact layout, the even integrand
    evaluated once per mirrored pair.  Truncation at |z| = sqrt(2n + 1) + 10
    leaves a Gaussian tail below 1e-40 of the result.  Each (n, panel_order) is
    integrated once per process, however the call spells it.
    """
    n = _check_order(n, N_MAX)
    panel_order = _check_order(panel_order, PANEL_ORDER_MAX, "panel order", n_min=1)
    return _i3_from_entropy(n, _entropy(n, panel_order))


def _i3_from_entropy(k, s_k):
    # I3(k) = N_k (ln N_k + k + 1/2 - S_k), N_k = sqrt(pi) k! 2^k: the one
    # identity between S_k and I3(k)
    return _norm(k) * (math.log(_norm(k)) + k + 0.5 - s_k)


@lru_cache(maxsize=None)
def _entropy(n, panel_order):
    # S_n = -int p ln p, p = psi_n^2 the level-n density: the one entropy
    # quadrature, with -p ln p continued by its limit 0 where p is 0.  Keyed
    # on validated ints, so (k), (k, 48) and (np.int64(k), 48) share one
    # entry; the z >= 0 nodes, one row per panel, are dropped after the sum
    nodes, weights = _panel_nodes(panel_order, _entropy_panel_boundaries(n))
    p = _kernels.hermite_function(n, 1.0, nodes)
    p *= p
    terms = np.log(np.where(p > 0.0, p, 1.0))
    terms *= p
    terms *= weights
    return -_kernels.panel_sum(np.concatenate((np.flip(terms), terms)))
