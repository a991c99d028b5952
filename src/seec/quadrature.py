"""Deterministic numerical integration.

Gauss-Hermite rules handle the polynomial-weight integrals exactly; the
panel-based Gauss-Legendre engine integrates the log-singular entropy
integrand by splitting at the Hermite roots, where ln(H_n^2) is continuous
but not smooth, and grading each side of a root geometrically toward it by
a ratio of 8.  All results are pure functions of their inputs.  Every sum
is ``_kernels.panel_sum``: numpy's pairwise ``np.add.reduce`` within a
panel, ``math.fsum`` across panels, so its bits do not depend on the BLAS
thread count; only numpy's SIMD ``exp`` and ``log`` can still round
differently on another CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels, specfun
from .errors import DomainError
from .scalars import (
    DEFAULT_PANEL_ORDER,
    N_MAX,
    _SQRT_PI,
    _check_order,
    _check_panel_order,
    _ln_factorial,
)

_MAX_PANEL_WIDTH = 2.0


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of a Gauss-Hermite rule, finite and with every
    weight positive: sum w_i f(x_i) approximates the integral of
    f(z) e^{-z^2}.  Built only by gauss_hermite_rule, which checks what
    else its rule guarantees."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.nodes)) and np.all(np.isfinite(self.weights))):
            raise DomainError("quadrature nodes and weights must be finite")
        if not np.all(self.weights > 0.0):
            raise DomainError("all quadrature weights must be strictly positive")


# public while the benchmark harness calls it by name (ROADMAP item 4)
def gauss_hermite_rule(order):
    """Gauss-Hermite rule of the given order (1 <= order <= N_MAX).

    The nodes are the roots of H_order from the validated root set that
    ``specfun.hermite_roots`` shares (the same array object, checked for
    count, order, symmetry and Newton residual); weights come from the
    analytic identity w_i = 2^{n-1} n! sqrt(pi) / (n H_{n-1}(x_i))^2
    evaluated in the log domain and must sum to sqrt(pi).  A rule of order
    q integrates z^p e^{-z^2} exactly (to roundoff) for p <= 2q - 1.
    Validated on every call, then built once per order.
    """
    return _gauss_hermite_rule(_check_order(order, N_MAX, n_min=1))


@lru_cache(maxsize=None)
def _gauss_hermite_rule(order):
    root_set = specfun._root_set(order)
    nodes = root_set.roots
    ln_pref = (
        (order - 1) * math.log(2.0) + _ln_factorial(order) + 0.5 * math.log(math.pi)
    )
    # H_{order-1} at the nodes, from the root set's residual check
    weights = np.exp(ln_pref - 2.0 * np.log(np.abs(order * root_set._h_prev)))
    weights.setflags(write=False)
    rule = QuadratureRule(nodes, weights)
    if abs(float(np.sum(weights)) - _SQRT_PI) > 1e-12 * _SQRT_PI:
        raise DomainError("Gauss-Hermite weights must sum to sqrt(pi)")
    return rule


_GRADING_LEVELS = 3
# grading factors by a ratio of 8: away from a root (8^-3 .. 8^0) and
# toward one (8^-1 .. 8^-3)
_GRADE_AWAY = 8.0 ** -np.arange(_GRADING_LEVELS, -1, -1)
_GRADE_TOWARD = 8.0 ** -np.arange(1, _GRADING_LEVELS + 1)


@lru_cache(maxsize=None)
def _entropy_panel_boundaries(n):
    """Panel boundaries for the entropy integrand of a checked order n, as
    one read-only array built once per order.

    The window [-L, L] with L = sqrt(2n + 1) + 10 is split at every root
    of H_n, and each root-adjacent half-gap is graded toward the root by a
    ratio of 8 in three levels: on every graded subpanel [d, 8d] the factor
    ln(H_n^2) is analytic, its nearest singularity at distance d from the
    panel's end, so Gauss-Legendre of q points converges like 2.09^(-2q)
    (about 1e-31 at q = 48) and only the innermost sliver (width 2^-9 of
    the half-gap, holding an O(width^3 ln width) share of the integral)
    sees the singularity at all.  Panels away from roots are at most 2
    wide.
    """
    roots = specfun.hermite_roots(n).roots
    cut = specfun._entropy_window(n)
    raw = np.concatenate(([-cut], roots, [cut]))
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
    # the window edges are not roots: the first gap starts at its midpoint
    # (set exactly, since a + (mid - a) need not round to mid), and the last
    # one is not graded toward its right end
    keep[0, :_GRADING_LEVELS] = False
    rows[0, _GRADING_LEVELS] = mid[0]
    keep[-1, _GRADING_LEVELS + 1 : -1] = False
    graded = np.concatenate(([-cut], rows[keep]))
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
    refined = np.repeat(graded[:-1], pieces) + step
    edges = np.append(refined, cut)
    edges.setflags(write=False)
    return edges


# public while the benchmark harness calls it by name (ROADMAP item 4)
def entropy_integral_numeric(n, panel_order=DEFAULT_PANEL_ORDER):
    """Integral of e^{-z^2} H_n^2(z) ln(H_n^2(z)) over the real line.

    Panels split at the roots of H_n (the integrand is continued by its
    limit 0 there); per-panel Gauss-Legendre of ``panel_order`` points.
    Truncation at |z| = sqrt(2n + 1) + 10 leaves a Gaussian tail below
    1e-40 of the result.  Each (n, panel_order) is integrated once per
    process, however the call spells it.
    """
    n = _check_order(n, N_MAX)
    return _entropy_integral(n, _check_panel_order(panel_order))


@lru_cache(maxsize=None)
def _entropy_integral(n, panel_order):
    # keyed on validated ints, so (k), (k, 48) and (np.int64(k), 48) share
    # one entry; the nodes, one row per panel, are dropped after the sum
    nodes, weights = specfun._panel_nodes(panel_order, _entropy_panel_boundaries(n))
    return _kernels.entropy_weighted_sum(n, nodes, weights)
