"""Self-verification: checks the Gauss-Hermite integrals I0, I1 and I2
against their exact norms, the panel quadrature of each entropy against
its order-96 convergence reference and its analytic anchors, and the
frozen S_k table, ``_tables.S_TABLE``, against its live quadrature and
against the Gaussian entropy bound.  The table's independent oracle, a
40-digit stdlib reference, lives with the tests (tests/reference.py),
which hold every entry to it.

Its marginal normalization rows take one integral per (order, eta),
shared by both sides and by every (n, m) row that needs it."""

import math
from collections import namedtuple

import numpy as np

from . import _kernels, criterion, quadrature
from ._tables import S_TABLE
from .scalars import _check_order, _mode_scale, _norm
from .scalars import _EULER_GAMMA, _SQRT_PI

VERIFY_N_MAX = 12
# the frozen table against its live route: the table holds the exact S_k
# correctly rounded, and the live panel quadrature is at most 6 ulps off it
# over n <= 64 (k = 54), on numpy's AVX-512 and AVX2 paths alike
S_TABLE_ULPS = 6
_NORMALIZATION_CAP = 5  # (n, m) grid cap for the marginal-normalization block


class Check(namedtuple("Check", "name value reference delta tol normative status")):
    """One verification row.  Every row is normative: one 'FAIL' makes
    ``seec verify`` exit 2.  The fields, in this order, are the keys of
    each check in ``seec verify --format json``.  ``status`` is 'ok' or
    'FAIL'; ``normative`` is True on every row, kept while the benchmark
    harness filters on it (ROADMAP item 4)."""

    __slots__ = ()


def _check(name, value, reference, tol, scale=1.0):
    delta = abs(value - reference)
    status = "ok" if delta <= tol * scale else "FAIL"
    return Check(name, value, reference, delta, tol * scale, True, status)


def _check_at_most(name, value, bound, tol):
    # a one-sided row: value may lie anywhere below bound, and above it by
    # at most tol; delta is the excess over bound
    excess = max(0.0, value - bound)
    return Check(name, value, bound, excess, tol, True, "ok" if excess <= tol else "FAIL")


def _marginal_residual(order, eta):
    # the rule: the u >= 0 half of the density support, the z >= 0 edges
    # scaled by 1/t > 0: finite, increasing, mirror-exact; raveled, one panel.
    # A marginal depends only on its own side's order, and v_plus(n, m) is
    # w_minus(m, n) bit for bit, so one side stands for both: the other
    # order is passed as the same and does not enter.  The density is
    # even: the half, mirrored, is the whole line's panel
    edges = quadrature._entropy_panel_boundaries(order) / _mode_scale(eta)
    nodes, weights = (a.ravel() for a in quadrature._panel_nodes(32, edges))
    terms = weights * criterion.marginal("w_minus", order, order, eta, nodes)
    return abs(_kernels.panel_sum(np.concatenate((np.flip(terms), terms))) - 1.0)


def collect_checks(n_max):
    """All verification rows for orders up to n_max (<= 12)."""
    n_max = _check_order(n_max, VERIFY_N_MAX, "n_max")
    checks = []
    for n in range(n_max + 1):
        norm = _norm(n)
        rule = quadrature.gauss_hermite_rule(n + 1)
        i0 = _kernels.panel_sum(rule.weights * _kernels.hermite_values(n, rule.nodes) ** 2)
        checks.append(_check(f"I0[{n}]", i0, norm, 1e-10, scale=norm))
        # I1 and I2 share the order-(n + 2) rule and one H_n pass on it
        rule = quadrature.gauss_hermite_rule(n + 2)
        h2 = _kernels.hermite_values(n, rule.nodes) ** 2
        i1 = _kernels.panel_sum(rule.weights * h2)
        checks.append(_check(f"I1[{n}]", i1, norm, 1e-10, scale=norm))
        i2 = _kernels.panel_sum(rule.weights * (-(rule.nodes * rule.nodes) * h2))
        checks.append(_check(f"I2[{n}]", i2, -norm * (n + 0.5), 1e-10, scale=norm * (n + 0.5)))
        i3 = quadrature.entropy_integral_numeric(n)
        i3_fine = quadrature.entropy_integral_numeric(n, 2 * quadrature.DEFAULT_PANEL_ORDER)
        checks.append(
            _check(f"I3conv[{n}]", i3, i3_fine, 1e-9, scale=max(1.0, abs(i3_fine)))
        )
        if n == 0:
            checks.append(_check("I3anchor[0]", i3, 0.0, 1e-12))
        if n == 1:
            analytic = 4.0 * _SQRT_PI * (1.0 - 0.5 * _EULER_GAMMA)
            checks.append(_check("I3anchor[1]", i3, analytic, 1e-9))
        s_live = quadrature._entropy(n, quadrature.DEFAULT_PANEL_ORDER)  # the S_n of i3
        checks.append(_check(f"S_table[{n}]", S_TABLE[n], s_live, S_TABLE_ULPS, math.ulp(s_live)))
        # the level-n density has variance n + 1/2, so its entropy is at most
        # the Gaussian's, with equality at n = 0 (a few ulps of rounding)
        gauss = 0.5 * math.log(math.pi * math.e * (2 * n + 1))
        checks.append(
            _check_at_most(f"S_gauss_bound[{n}]", S_TABLE[n], gauss, 4 * math.ulp(gauss))
        )
    cap = min(n_max, _NORMALIZATION_CAP)
    etas = (0.0, 0.5)
    # a marginal's rule and residual depend only on its own order and eta:
    # one integral each, shared by both sides and every (n, m) row
    residuals = {(k, eta): _marginal_residual(k, eta) for k in range(cap + 1) for eta in etas}
    for n in range(cap + 1):
        for m in range(cap + 1):
            for eta in etas:
                for tag, order in (("w", n), ("v", m)):
                    res = residuals[order, eta]
                    checks.append(
                        _check(f"norm_{tag}[{n},{m},eta={eta}]", 1.0 + res, 1.0, 1e-8)
                    )
    return checks

