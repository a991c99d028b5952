"""Deterministic numerical integration: the Hermite root sets, the
Gauss-Hermite and Gauss-Legendre rules, and the entropy panel layout.

The root set of H_n, unfolded once per order from a frozen table of the
exact roots correctly rounded, gives both the nodes of the Gauss-Hermite
rule of order n, exact for the polynomial-weight integrals, and the cuts
of the panels on which the log-singular entropy integrand
-psi_n^2 ln(psi_n^2), whence I3(n), is integrated: continuous but not
smooth at each root, each side graded toward it by a ratio of 8, on the
z >= 0 half of a mirror-exact layout, where alone the even integrand is
evaluated.  The Gauss-Legendre base rules, of orders 32, 48 and 96
alone, are frozen tables too, so no route calls LAPACK; both tables are
read from ``_tables``.  The tests prove each guarantee of this frozen
data once, at every order, so no process re-checks it.  H_n itself is
``_kernels.hermite_values``, and psi_n ``_kernels.hermite_function``.
Every sum is ``_kernels.panel_sum``: numpy's pairwise ``np.add.reduce``
within a panel, ``math.fsum`` across panels, so its bits do not depend
on the BLAS thread count; only numpy's SIMD ``exp`` and ``log`` can
still round differently on another CPU.

All results are pure functions of their inputs, and every cached value is
immutable once built, so a raced cache fill can only install identical
objects.
"""

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import _kernels
from ._tables import _LEGGAUSS_HALVES, _ROOT_HALVES
from .errors import UnsupportedOrderError
from .scalars import DEFAULT_PANEL_ORDER, N_MAX, _check_int, _check_order, _norm


class RootSet(namedtuple("RootSet", "n roots")):
    """All real roots of H_n, ascending, as a read-only array: the frozen
    roots, each the exact root correctly rounded, exactly antisymmetric.
    Built only by ``_root_set``."""

    __slots__ = ()


# public while the benchmark harness calls it by name (ROADMAP item 4)
def hermite_roots(n):
    """RootSet of H_n for 0 <= n <= N_MAX (n = 0 gives an empty set), the
    Gauss-Hermite nodes too: the frozen roots, whose count, order,
    symmetry and residual the tests prove at every order.  The order is
    validated on every call, the set built once."""
    return _root_set(_check_order(n, N_MAX))[0]


@lru_cache(maxsize=None)
def _root_set(n):
    # (RootSet, H_{n-1} at the roots) of H_n, both read-only: the frozen
    # half of _ROOT_HALVES (none for n = 0) with its mirror, the negated
    # roots above 0, so the set is exactly antisymmetric; H_{n-1} gives
    # the Gauss-Hermite weights of order n
    half = np.array(_ROOT_HALVES.get(n, ()))
    roots = np.concatenate((-half[::-1][: n // 2], half))
    hm1 = _kernels.hermite_pair(n, roots)[1]
    roots.setflags(write=False)
    hm1.setflags(write=False)
    return RootSet(n, roots), hm1


@lru_cache(maxsize=None)
def _leggauss(order):
    # the Gauss-Legendre base rule on [-1, 1] of an order in
    # _LEGGAUSS_HALVES, once per order and shared by the entropy quadrature
    # and verify's normalization rows: the frozen half with its mirror
    pos, w_pos = map(np.array, _LEGGAUSS_HALVES[order])
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
    by ``_gauss_hermite_rule``."""

    __slots__ = ()


# public while the benchmark harness calls it by name (ROADMAP item 4)
def gauss_hermite_rule(order):
    """Gauss-Hermite rule of the given order (1 <= order <= N_MAX).

    The nodes are the array of the root set of H_order; weights come from
    the analytic identity w_i = 2^{n-1} n! sqrt(pi) / (n H_{n-1}(x_i))^2
    from the exact norm, finite, positive and summing to sqrt(pi) at every
    order, as the tests prove.  A rule of order q integrates z^p e^{-z^2}
    exactly (to roundoff) for p <= 2q - 1.  The order is validated on
    every call, the rule built once per order.
    """
    return _gauss_hermite_rule(_check_order(order, N_MAX, n_min=1))


@lru_cache(maxsize=None)
def _gauss_hermite_rule(order):
    # w_i = 2^{n-1} n! sqrt(pi) / (n H_{n-1})^2, H_{n-1} at the nodes kept
    # with the root set
    root_set, h_prev = _root_set(order)
    weights = _norm(order) / (2.0 * np.square(order * h_prev))
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
    # a gap wider than 2 is cut into equal pieces 1 to 2 wide
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
    ``panel_order`` points, 32, 48 or 96 (the frozen base rules), on a
    mirror-exact layout, the even integrand evaluated once per mirrored
    pair.  Truncation at |z| = sqrt(2n + 1) + 10 leaves a Gaussian tail
    below 1e-40 of the result.  Each (n, panel_order) is integrated once
    per process, however the call spells it.
    """
    n = _check_order(n, N_MAX)
    panel_order = _check_int(panel_order, "panel order")
    if panel_order not in _LEGGAUSS_HALVES:
        raise UnsupportedOrderError(f"panel order must be 32, 48 or 96, got {panel_order}")
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
