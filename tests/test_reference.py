"""The stdlib reference of ``reference.py`` against 20-digit values, and the
frozen entropy table, the frozen Hermite roots, the frozen Gauss-Legendre
rules and the threshold grid against it, with no numpy.

This module imports nothing that loads numpy, nor pytest.  Its ledger is
computed once, in a child interpreter where numpy cannot be imported (the
``stdlib_ledger`` fixture of conftest.py).  The child runs the checks
below on it, and this process runs them again, each as its own test.
"""

import ast
import math
import os
import sys
from decimal import ROUND_CEILING, Decimal, localcontext
from functools import lru_cache

import reference
from seec import criterion, scalars

# 20-digit references: S_k, and I3(k), the integral of e^{-z^2} H_k^2 ln(H_k^2)
S_REFERENCE = {
    0: "1.0723649429247000871",
    1: "1.3427277883861782571",
    2: "1.4986092332517278406",
    3: "1.6097118413016531148",
    4: "1.6965506306803752611",
    5: "1.7680612532383330453",
    12: "2.0782051612898364613",
    20: "2.2767509907938236804",
    32: "2.4682467197757582830",
    51: "2.6649807508580267869",
    58: "2.7203047354046436439",
    60: "2.7349557706278570865",
    64: "2.7629236423644124643",
}
I3_REFERENCE = {
    0: "0.0",
    1: "5.0436391475066444583",
    2: "51.800988290221849756",
    3: "538.87027741580162596",
    4: "6347.7943239842902189",
    5: "85469.355928560770588",
    6: "1305286.3050714251221",
}

# |threshold_eta0(n, m) - eta0(n, m)| over the whole (N_MAX + 1)^2 grid: the
# worst is 6.58e-16, at (60, 6), from the correctly rounded table entries
# and the rounding of the three subtractions and the sum
ETA0_TOL = 7e-16

# each frozen Gauss-Legendre rule against the exact one, per order: the
# worst node's ulps off its root and the worst weight's relative error,
# 1.16 ulps and 5.83e-14 (32), 0.77 and 1.27e-12 (48), 0.87 and 1.49e-12 (96)
LEGGAUSS_NODE_ULPS = {32: 2, 48: 1, 96: 1}
LEGGAUSS_WEIGHT_RTOL = {32: 5.9e-14, 48: 1.3e-12, 96: 1.5e-12}


def ledger():
    """The reference and the package side by side.  Per order k: S_k and
    I3(k) to 40 digits, the non-negative roots of H_k, the digits to which
    the reference's two precisions agree, and the ulps of S_TABLE[k] off
    S_k; over the grid, the worst threshold error and its pair; per
    Gauss-Legendre order q, [q, the worst node's ulps, the worst weight's
    relative error] of the frozen rule against the exact one."""
    entropies = [reference.entropy(k) for k in range(scalars.N_MAX + 1)]
    worst = (0.0, 0, 0)
    for n in range(scalars.N_MAX + 1):
        for m in range(scalars.N_MAX + 1):
            exact = reference.threshold(n, m)
            error = abs(float(Decimal(criterion.threshold_eta0(n, m)) - exact))
            worst = max(worst, (error, n, m))
    return {
        "entropy": [str(s_k) for s_k in entropies],
        "roots": [
            [str(x) for x in reference.hermite_roots(k)[k // 2 :]]
            for k in range(scalars.N_MAX + 1)
        ],
        "i3": [str(reference.entropy_integral(k)) for k in range(scalars.N_MAX + 1)],
        "agreement": [reference.agreement(k) for k in range(scalars.N_MAX + 1)],
        "s_ulps": [reference.ulps(s_k, exact) for s_k, exact in zip(scalars.S_TABLE, entropies)],
        "eta0_worst": worst,
        "leggauss": [
            _leggauss_errors(q, *rule) for q, rule in sorted(_frozen("_LEGGAUSS_HALVES").items())
        ],
        "numpy": sys.modules.get("numpy") is not None,
    }


def check(ledger):
    """Every check of this module that reads a ledger."""
    test_matches_the_20_digit_values(ledger)
    test_two_precisions_agree(ledger)
    test_entropy_table_within_its_bound(ledger)
    test_entropy_table_is_correctly_rounded(ledger)
    test_root_table_is_correctly_rounded(ledger)
    test_bound_is_the_measured_worst_rounded_up(ledger)
    test_thresholds_within_their_bound(ledger)
    test_leggauss_tables_within_their_bounds(ledger)
    test_leggauss_bounds_are_the_measured_worst_rounded_up(ledger)


def test_the_checks_pass_where_numpy_cannot_load(stdlib_ledger):
    code, stderr = stdlib_ledger["child"]
    assert stdlib_ledger["numpy"] is False
    assert code == 0, stderr


def _within_half_a_unit(value, expected):
    # a 40-digit value, rounded to the digits written in ``expected``
    expected = Decimal(expected)
    return abs(Decimal(value) - expected) <= Decimal(5).scaleb(expected.adjusted() - 20)


def test_matches_the_20_digit_values(stdlib_ledger):
    for k, expected in S_REFERENCE.items():
        assert _within_half_a_unit(stdlib_ledger["entropy"][k], expected), k
    for k, expected in I3_REFERENCE.items():
        assert _within_half_a_unit(stdlib_ledger["i3"][k], expected), k


def test_two_precisions_agree(stdlib_ledger):
    # to more digits than the reference returns, at every order
    assert min(stdlib_ledger["agreement"]) >= reference.REF_DIGITS


def test_entropy_table_within_its_bound(stdlib_ledger):
    ulps = stdlib_ledger["s_ulps"]
    assert len(ulps) == scalars.N_MAX + 1 == len(scalars.S_TABLE)
    off = {k: u for k, u in enumerate(ulps) if not abs(u) <= scalars.S_TABLE_REF_ULPS}
    assert not off, off


def test_entropy_table_is_correctly_rounded(stdlib_ledger):
    # every entry is the exact S_k rounded once to a double: float() of a
    # Decimal is correctly rounded, and the reference's digits decide every
    # rounding, since S_k +- one unit in its last digit round alike
    exact = [Decimal(s_k) for s_k in stdlib_ledger["entropy"]]
    with localcontext() as ctx:
        ctx.prec = 2 * reference.REF_DIGITS
        for s_k in exact:
            unit = Decimal(1).scaleb(s_k.adjusted() - reference.REF_DIGITS + 1)
            assert float(s_k - unit) == float(s_k) == float(s_k + unit), s_k
    assert list(scalars.S_TABLE) == [float(s_k) for s_k in exact]


@lru_cache(maxsize=None)
def _frozen(name):
    # a frozen table of quadrature, read from its source: quadrature
    # imports numpy
    path = os.path.join(os.path.dirname(scalars.__file__), "quadrature.py")
    with open(path) as source:
        tree = ast.parse(source.read())
    (table,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == name
    ]
    return table


def _leggauss_errors(q, nodes, weights):
    # [q, worst |ulps| of a node, worst relative error of a weight] of the
    # frozen half rule of order q against the exact rule
    exact_nodes, exact_weights = reference.legendre_rule(q, nodes)
    return [
        q,
        max(abs(reference.ulps(x, exact)) for x, exact in zip(nodes, exact_nodes)),
        max(float(abs(Decimal(w) - exact) / exact) for w, exact in zip(weights, exact_weights)),
    ]


def test_root_table_is_correctly_rounded(stdlib_ledger):
    # every frozen root is the exact root of H_k rounded once to a double,
    # and the reference decides each rounding: its root +- one unit in its
    # 40th digit rounds alike (0, the middle root of odd k, is exact)
    halves = {k: [Decimal(x) for x in roots] for k, roots in enumerate(stdlib_ledger["roots"])}
    with localcontext() as ctx:
        ctx.prec = 2 * reference.REF_DIGITS
        for k, half in halves.items():
            for x in half:
                unit = Decimal(1).scaleb(x.adjusted() - reference.REF_DIGITS + 1)
                assert x == 0 or float(x - unit) == float(x) == float(x + unit), (k, x)
    assert _frozen("_ROOT_HALVES") == {
        k: tuple(map(float, half)) for k, half in halves.items() if k
    }


def test_bound_is_the_measured_worst_rounded_up(stdlib_ledger):
    # a tighter table must bring its bound down with it
    assert math.ceil(max(map(abs, stdlib_ledger["s_ulps"]))) == scalars.S_TABLE_REF_ULPS


def test_thresholds_within_their_bound(stdlib_ledger):
    error, n, m = stdlib_ledger["eta0_worst"]
    assert error <= ETA0_TOL, (n, m)


def test_leggauss_tables_within_their_bounds(stdlib_ledger):
    # every node and weight of the three frozen rules, held to the exact
    # rule, whose nodes an exact sign change of P_q certifies
    errors = stdlib_ledger["leggauss"]
    assert [q for q, _, _ in errors] == sorted(LEGGAUSS_NODE_ULPS) == [32, 48, 96]
    for q, node_ulps, weight_rtol in errors:
        assert node_ulps <= LEGGAUSS_NODE_ULPS[q], q
        assert weight_rtol <= LEGGAUSS_WEIGHT_RTOL[q], q


def _rounded_up(value, digits):
    # ``value`` rounded up to ``digits`` significant digits
    exact = Decimal(value)
    return float(exact.quantize(Decimal(1).scaleb(exact.adjusted() - digits + 1), ROUND_CEILING))


def test_leggauss_bounds_are_the_measured_worst_rounded_up(stdlib_ledger):
    # tighter tables must bring their bounds down with them
    for q, node_ulps, weight_rtol in stdlib_ledger["leggauss"]:
        assert math.ceil(node_ulps) == LEGGAUSS_NODE_ULPS[q], q
        assert _rounded_up(weight_rtol, 2) == LEGGAUSS_WEIGHT_RTOL[q], q


def test_the_precision_check_has_teeth():
    # summed with too few digits, order 20 loses the last of its 40 to the
    # cancellation in the sum over r, and the two precisions disagree
    short = reference._entropy_and_i3(20, 45)[0]
    exact = reference._sums(20)[1][0]
    assert abs(short - exact) > Decimal(10) ** -reference.REF_DIGITS


def test_reference_imports_the_stdlib_alone():
    with open(reference.__file__) as source:
        tree = ast.parse(source.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported and imported <= set(sys.stdlib_module_names), imported


def test_constants():
    assert str(reference.pi(40)) == "3.141592653589793238462643383279502884197"
    assert str(reference.euler_gamma(40)) == "0.5772156649015328606065120900824024310422"


if __name__ == "__main__":
    # the ledger, one order a line: k, S_k, and S_TABLE[k]'s ulps off it
    ledger = ledger()
    for k, (s_k, ulps) in enumerate(zip(ledger["entropy"], ledger["s_ulps"])):
        print(f"{k:2d} {s_k} {ulps:+6.2f}")
    print("worst threshold error %.3g at (%d, %d)" % tuple(ledger["eta0_worst"]))
