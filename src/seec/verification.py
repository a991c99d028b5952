"""Self-verification: cross-checks every closed form against the numeric
oracle, the panel quadrature of the entropy integral against its
closed-form oracle from the logarithmic potential, the frozen S_k table
against both and against the Gaussian entropy bound, and the frozen
closed-form table against its live route.

collect_checks visits each order once, so it calls the live closed form
of I3 directly, once per order, with no cache of its own.  Its marginal
normalization rows take one integral per (side, order, eta), shared by
every (n, m) row that needs it."""

from __future__ import annotations

import math
from collections import namedtuple

from . import _kernels, criterion, quadrature, specfun
from .scalars import I3_CLOSED_TABLE, S_TABLE, _check_order, _ln_norm, _mode_scale
from .scalars import _EULER_GAMMA, _SQRT_PI

VERIFY_N_MAX = 12
# I3 closed form vs panel quadrature, relative to max(1, |I3|); both agree
# to below 1.5e-13 through n = 64 (worst n = 58)
I3_CLOSED_RTOL = 1e-12
# the same bound carried to S_k = ... - I3 / (2^k k! sqrt(pi)): |I3| / norm
# stays below 40 for n <= 12, so 1e-12 on I3 is at most 4e-11 on S_k
S_CLOSED_TOL = 1e-10
# the frozen S_k against the live default-order quadrature, and the frozen
# closed-form I3 against its live route (relative to max(1, |I3|)); equal
# to the last bit on the platform that wrote the tables, so this bounds
# only how a CPU or numpy build rounds the two sums
S_TABLE_TOL = 1e-13
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


def _gh_integral(order, f):
    rule = quadrature.gauss_hermite_rule(order)
    return _kernels.panel_sum(rule.weights * f(rule.nodes))


def _marginal_rule(order, eta):
    # the density support in u is the z-window scaled by 1/t > 0, which
    # keeps the edges finite and increasing; raveled, the rule is one panel
    edges = quadrature._entropy_panel_boundaries(order) / _mode_scale(eta)
    nodes, weights = specfun._panel_nodes(32, edges)
    return nodes.ravel(), weights.ravel()


def _marginal_residual(side, order, eta, rule):
    # a marginal depends only on its own side's order: the other one is
    # passed as the same order and does not enter
    nodes, weights = rule
    density = criterion.marginal(side, order, order, eta, nodes)
    return abs(_kernels.panel_sum(weights * density) - 1.0)


def collect_checks(n_max):
    """All verification rows for orders up to n_max (<= 12)."""
    n_max = _check_order(n_max, VERIFY_N_MAX, "n_max")
    checks = []
    for n in range(n_max + 1):
        norm = math.exp(_ln_norm(n))
        i0 = _gh_integral(n + 1, lambda z, n=n: _kernels.hermite_values(n, z) ** 2)
        checks.append(_check(f"I0[{n}]", i0, norm, 1e-10, scale=norm))
        i1 = _gh_integral(n + 2, lambda z, n=n: _kernels.hermite_values(n, z) ** 2)
        checks.append(_check(f"I1[{n}]", i1, norm, 1e-10, scale=norm))
        i2 = _gh_integral(n + 2, lambda z, n=n: -(z * z) * _kernels.hermite_values(n, z) ** 2)
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
        s_live = criterion._entropy_from_i3(n, i3)
        checks.append(_check(f"S_table[{n}]", S_TABLE[n], s_live, S_TABLE_TOL))
        # the level-n density has variance n + 1/2, so its entropy is at most
        # the Gaussian's, with equality at n = 0 (a few ulps of rounding)
        gauss = 0.5 * math.log(math.pi * math.e * (2 * n + 1))
        checks.append(
            _check_at_most(f"S_gauss_bound[{n}]", S_TABLE[n], gauss, 4 * math.ulp(gauss))
        )
        closed = specfun.entropy_integral_closed_form(n)
        s_delta = criterion._oracle_delta(n, closed)
        checks.append(
            _check(f"I3closed[{n}]", closed, i3, I3_CLOSED_RTOL, scale=max(1.0, abs(i3)))
        )
        checks.append(
            _check(
                f"I3closed_table[{n}]", I3_CLOSED_TABLE[n], closed, S_TABLE_TOL,
                scale=max(1.0, abs(closed)),
            )
        )
        # the table against the closed form
        checks.append(_check(f"S_closed_delta[{n}]", s_delta, 0.0, S_CLOSED_TOL))
    cap = min(n_max, _NORMALIZATION_CAP)
    etas = (0.0, 0.5)
    # a marginal's rule and residual depend only on its side, its own order
    # and eta: one integral each, shared by every (n, m) row that needs it
    residuals = {}
    for k in range(cap + 1):
        for eta in etas:
            rule = _marginal_rule(k, eta)
            for tag, side in (("w", "w_minus"), ("v", "v_plus")):
                residuals[tag, k, eta] = _marginal_residual(side, k, eta, rule)
    for n in range(cap + 1):
        for m in range(cap + 1):
            for eta in etas:
                for tag, order in (("w", n), ("v", m)):
                    res = residuals[tag, order, eta]
                    checks.append(
                        _check(f"norm_{tag}[{n},{m},eta={eta}]", 1.0 + res, 1.0, 1e-8)
                    )
    return checks


def all_normative_pass(checks):
    return all(c.status == "ok" for c in checks)
