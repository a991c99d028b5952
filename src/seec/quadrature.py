"""Deterministic numerical integration.

Gauss-Hermite rules handle the polynomial-weight integrals exactly; the
panel-based Gauss-Legendre engine integrates the log-singular entropy
integrand by splitting at the Hermite roots, where ln(H_n^2) is continuous
but not smooth.  All results are pure functions of their inputs, and
repeated calls in one process give the same bits.  Each sum ends in one
``np.dot``; above 10,000 points that is OpenBLAS's threaded ddot, which
splits the sum by the BLAS thread count, so a run under another thread
count (``OPENBLAS_NUM_THREADS=1``, say) can round the last bit of a long
sum differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels, specfun
from .errors import DomainError, IntegrandEvaluationError
from .scalars import (
    CONSTANTS,
    DEFAULT_PANEL_ORDER,
    EVAL_N_MAX,
    ROOTS_N_MAX,
    _check_order,
    _check_panel_order,
    ln_factorial,
)

GAUSS_HERMITE_MAX_ORDER = EVAL_N_MAX
_MAX_PANEL_WIDTH = 2.0
_SQRT_PI = CONSTANTS.sqrt_pi


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of a rule, finite and with every weight positive:
    sum w_i f(x_i) approximates the integral of f, times e^{-z^2} for
    gauss_hermite_rule, which checks what else its rule guarantees."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.nodes)) and np.all(np.isfinite(self.weights))):
            raise DomainError("quadrature nodes and weights must be finite")
        if not np.all(self.weights > 0.0):
            raise DomainError("all quadrature weights must be strictly positive")


def _check_panel_boundaries(boundaries):
    # at least one panel, with finite widths between finite, strictly
    # increasing boundaries; in Python floats, whose overflow is a silent inf
    if len(boundaries) < 2:
        raise DomainError("panel rule requires at least one panel")
    widths = [b - a for a, b in zip(boundaries, boundaries[1:])]
    if not all(map(math.isfinite, (*boundaries, *widths))):
        raise DomainError("panel boundaries and their widths must be finite")
    if not all(w > 0.0 for w in widths):
        raise DomainError("panel boundaries must be strictly increasing")


def gauss_hermite_rule(order):
    """Gauss-Hermite rule of the given order (1 <= order <= 64).

    The nodes are the roots of H_order from the validated root set that
    ``specfun.hermite_roots`` shares (the same array object, checked for
    count, order, symmetry and Newton residual); weights come from the
    analytic identity w_i = 2^{n-1} n! sqrt(pi) / (n H_{n-1}(x_i))^2
    evaluated in the log domain and must sum to sqrt(pi).  A rule of order
    q integrates z^p e^{-z^2} exactly (to roundoff) for p <= 2q - 1.
    Validated on every call, then built once per order.
    """
    return _gauss_hermite_rule(_check_order(order, GAUSS_HERMITE_MAX_ORDER, n_min=1))


@lru_cache(maxsize=None)
def _gauss_hermite_rule(order):
    nodes = specfun._root_set(order).roots
    h_prev = _kernels.hermite_values(order - 1, nodes)
    ln_pref = (
        (order - 1) * math.log(2.0) + ln_factorial(order) + 0.5 * math.log(math.pi)
    )
    weights = np.exp(ln_pref - 2.0 * np.log(np.abs(order * h_prev)))
    weights.setflags(write=False)
    rule = QuadratureRule(nodes, weights)
    if abs(float(np.sum(weights)) - _SQRT_PI) > 1e-12 * _SQRT_PI:
        raise DomainError("Gauss-Hermite weights must sum to sqrt(pi)")
    return rule


def legendre_panel_rule(order, boundaries):
    """Composite Gauss-Legendre rule with ``order`` points per panel."""
    order = _check_panel_order(order)
    boundaries = tuple(float(b) for b in boundaries)
    _check_panel_boundaries(boundaries)
    nodes, weights = specfun._panel_nodes(order, np.array(boundaries))
    return QuadratureRule(nodes, weights)


def integrate_panels(f, rule):
    """Weighted sum of f over all nodes of the rule.

    The nodes are evaluated in a fixed order and summed by one ``np.dot``,
    so identical inputs give the same bits under one BLAS thread count;
    above 10,000 nodes OpenBLAS splits the dot product by that count, and
    another count can move the last bit.  A non-finite integrand value
    raises IntegrandEvaluationError carrying the offending node.
    """
    nodes = rule.nodes
    try:
        values = np.asarray(f(nodes), dtype=np.float64)
        if values.shape != nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        values = np.array([float(f(x)) for x in nodes])
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise IntegrandEvaluationError(node=float(nodes[i]), value=float(values[i]))
    return float(np.dot(rule.weights, values))


_GRADING_LEVELS = 10
# dyadic grading factors: away from a root (2^-10 .. 2^0) and toward one
# (2^-1 .. 2^-10)
_GRADE_AWAY = 2.0 ** -np.arange(_GRADING_LEVELS, -1, -1)
_GRADE_TOWARD = 2.0 ** -np.arange(1, _GRADING_LEVELS + 1)


def entropy_panel_boundaries(n):
    """Panel boundaries for the entropy integrand of order n.

    The window [-L, L] with L = sqrt(2n + 1) + 10 is split at every root
    of H_n, and each root-adjacent side is refined dyadically toward the
    root: on every graded subpanel [d, 2d] the factor ln(H_n^2) is
    analytic, so per-panel Gauss-Legendre converges geometrically and only
    the innermost sliver (width 2^-10 of the half-gap, holding an
    O(width^3 ln width) share of the integral) sees the singularity at
    all.  Panels away from roots are at most 2 wide.  Validated on every
    call, then built once per order.
    """
    return _entropy_panel_boundaries(_check_order(n, ROOTS_N_MAX))[0]


@lru_cache(maxsize=None)
def _entropy_panel_boundaries(n):
    # (boundaries as a tuple, the same as a read-only array)
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
    return tuple(edges.tolist()), edges


def entropy_integral_numeric(n, panel_order=DEFAULT_PANEL_ORDER):
    """Integral of e^{-z^2} H_n^2(z) ln(H_n^2(z)) over the real line.

    Panels split at the roots of H_n (the integrand is continued by its
    limit 0 there); per-panel Gauss-Legendre of ``panel_order`` points.
    Truncation at |z| = sqrt(2n + 1) + 10 leaves a Gaussian tail below
    1e-40 of the result.  Each (n, panel_order) is integrated once per
    process, however the call spells it.
    """
    n = _check_order(n, ROOTS_N_MAX)
    return _entropy_integral(n, _check_panel_order(panel_order))


@lru_cache(maxsize=None)
def _entropy_integral(n, panel_order):
    # keyed on validated ints, so (k), (k, 48) and (np.int64(k), 48) share
    # one entry; the nodes are dropped after the sum
    nodes, weights = specfun._panel_nodes(panel_order, _entropy_panel_boundaries(n)[1])
    return _kernels.entropy_weighted_sum(n, nodes, weights)
