import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import seec
from seec import _kernels, criterion, errors, oscillator, quadrature, scalars, verification
from seec.errors import DomainError, UnsupportedOrderError

import oracles
import reference


class TestHermiteEval:
    def test_degree_zero_is_one(self):
        assert _kernels.hermite_values(0, [1.7]).tolist() == [1.0]

    def test_known_low_orders(self):
        assert _kernels.hermite_values(2, [1.0]).tolist() == [2.0]  # 4z^2 - 2
        assert _kernels.hermite_values(3, [0.5]).tolist() == [-5.0]  # 8z^3 - 12z
        assert _kernels.hermite_values(1, [-2.25]).tolist() == [-4.5]

    @given(
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    )
    # near z = 0 with n even, H_{n+-1} vanish and the residual's scale sits
    # far below |H_n| itself; numpy's series is then 1 ulp of H_n off
    @example(n=24, z=3.6279513255451832e-09)
    def test_recurrence_consistency(self, n, z):
        h_np1, h_n, h_nm1 = (_kernels.hermite_values(k, [z])[0] for k in (n + 1, n, n - 1))
        residual = h_np1 - 2.0 * z * h_n + 2.0 * n * h_nm1
        scale = max(abs(h_np1), abs(2.0 * z * h_n), abs(2.0 * n * h_nm1), 1.0)
        assert abs(residual) <= 1e-9 * scale
        # and numpy's Hermite series, an independent route, agrees
        assert abs(h_n - float(oracles.hermite_polynomial(n, z))) <= 1e-9 * max(scale, abs(h_n))

    @given(
        st.integers(min_value=0, max_value=40),
        st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    )
    def test_parity_exact(self, n, z):
        # bitwise, not approximate: every recurrence step is sign-symmetric
        h = _kernels.hermite_values(n, [z, -z])
        assert h[1] == (-1.0) ** n * h[0]

    def test_array_matches_scalar_bitwise(self):
        # each element is the value at that point alone, and hermite_pair
        # carries the same recurrence
        z = np.linspace(-5.0, 5.0, 101)
        ref = [
            np.array([_kernels.hermite_values(n, [x])[0] for x in z])
            for n in range(scalars.N_MAX + 1)
        ]
        for n in (0, 1, 5, 17, 32):
            assert np.array_equal(_kernels.hermite_values(n, z), ref[n])
        for n in range(1, scalars.N_MAX + 1):
            hn, hm1 = _kernels.hermite_pair(n, z)
            assert np.array_equal(hn, ref[n]) and np.array_equal(hm1, ref[n - 1])


class TestHermiteRoots:
    def test_small_orders(self):
        assert quadrature.hermite_roots(1).roots.tolist() == [0.0]
        np.testing.assert_allclose(
            quadrature.hermite_roots(2).roots, [-0.7071067811865476, 0.7071067811865476], atol=1e-14
        )
        np.testing.assert_allclose(
            quadrature.hermite_roots(3).roots, [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-14
        )

    def test_zero_order_is_empty(self):
        assert len(quadrature.hermite_roots(0).roots) == 0

    def test_order_above_cap_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            quadrature.hermite_roots(scalars.N_MAX + 1)

    @pytest.mark.parametrize("n", range(1, scalars.N_MAX + 1))
    def test_rootset_invariants(self, n):
        roots = quadrature.hermite_roots(n).roots
        assert len(roots) == n
        assert np.all(np.diff(roots) > 0)
        assert np.max(np.abs(roots + roots[::-1])) <= 1e-13
        for x in roots:
            h_n = _kernels.hermite_values(n, [x])[0]
            h_prime = 2.0 * n * _kernels.hermite_values(n - 1, [x])[0]
            assert abs(h_n) <= 1e-10 * max(1.0, abs(h_prime))

    def test_cached_object_reused(self):
        assert quadrature.hermite_roots(7) is quadrature.hermite_roots(7)

    def test_every_node_matches_the_stdlib_reference(self):
        # every node of H_n, n <= N_MAX, is the 70-digit root of the stdlib
        # reference correctly rounded, the same double on every machine
        for n in range(1, scalars.N_MAX + 1):
            exact = [float(x) for x in reference.hermite_roots(n)]
            assert quadrature.hermite_roots(n).roots.tolist() == exact, n

    @pytest.mark.parametrize(
        "n,roots,message",
        [
            (2, [0.0], "expected 2 roots, got 1"),
            (2, [0.7071067811865476, -0.7071067811865476], "strictly increasing"),
            (1, [1e-6], "symmetric"),
            (1, [math.nan], "symmetric"),
            (2, [-0.8, 0.8], "above tolerance"),
        ],
    )
    def test_rejects_roots_off_their_guarantees(self, n, roots, message):
        # the checks of the one builder of a RootSet, each fed roots that
        # pass every check before it; nan fails rather than slips through
        with pytest.raises(DomainError, match=message):
            quadrature._checked_roots(n, np.array(roots))

    def test_records_hold_read_only_arrays(self):
        # H_{n-1} at the roots is cached with them, for the weights
        roots = quadrature.hermite_roots(5)
        rule = quadrature.gauss_hermite_rule(5)
        for array in (roots.roots, quadrature._root_set(5)[1], rule.nodes, rule.weights):
            assert not array.flags.writeable
        # the records are bare tuples: no field is rebound, no attribute added
        for record, field in ((roots, "roots"), (rule, "weights")):
            for name in (field, "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, np.zeros(5))


class TestGaussLegendre:
    @pytest.mark.parametrize("order", [32, 48, 96])
    def test_base_rule_is_numpys_bit_for_bit(self, order):
        nodes, weights = quadrature._leggauss(order)
        ref_nodes, ref_weights = oracles.leggauss(order)
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()
        assert not (nodes.flags.writeable or weights.flags.writeable)
        # the three frozen tables are the only base rules
        assert sorted(quadrature._LEGGAUSS_HALVES) == [32, 48, 96]

    @pytest.mark.parametrize("order", [32, 48, 96])
    def test_tabulated_rule_is_the_live_one_bit_for_bit(self, order):
        # each table holds the recipe its comment gives, numpy's live rule
        # cut at order // 2, literal for literal
        half_nodes, half_weights = quadrature._LEGGAUSS_HALVES[order]
        live_nodes, live_weights = oracles.leggauss(order)
        assert half_nodes == tuple(map(float, live_nodes[order // 2:]))
        assert half_weights == tuple(map(float, live_weights[order // 2:]))


class TestOrthogonality:
    def test_spot_check(self):
        # quadrature of H_a H_b e^{-z^2}: zero off the diagonal (relative to
        # the diagonal norm scale), 2^a a! sqrt(pi) on it
        from seec import quadrature

        rule = quadrature.gauss_hermite_rule(12)
        norms = {}
        for a in range(11):
            norms[a] = math.exp(0.5 * math.log(math.pi) + math.lgamma(a + 1.0) + a * math.log(2.0))
        for a in range(11):
            ha = _kernels.hermite_values(a, rule.nodes)
            for b in range(a, 11):
                hb = _kernels.hermite_values(b, rule.nodes)
                integral = float(np.dot(rule.weights, ha * hb))
                if a == b:
                    assert abs(integral - norms[a]) <= 1e-10 * norms[a]
                else:
                    assert abs(integral) <= 1e-8 * math.sqrt(norms[a] * norms[b])


class TestConstants:
    def test_literal_values(self):
        assert scalars._EULER_GAMMA == 0.5772156649015329
        assert abs(scalars._SQRT_PI - math.sqrt(math.pi)) < 1e-15


# |entropy_integral_numeric(n) - I3(n)| / max(1, |I3(n)|) against the
# reference, n <= N_MAX: the worst is 1.2e-15, at n = 0
I3_REF_TOL = 4e-15


class TestLogPotential:
    """The quadrature's I3(n) against the closed form of the logarithmic
    potential, int e^{-z^2} H_j ln (z - x)^2 = 2 Q_{j-1}(x) over Dawson's
    integral, summed at the roots of H_n by the stdlib reference."""

    def test_closed_form_entropy_integral_matches_oracle_at_n1(self, stdlib_ledger):
        closed = float(stdlib_ledger["i3"][1])
        assert abs(closed - quadrature.entropy_integral_numeric(1)) <= 1e-9
        analytic = 4.0 * scalars._SQRT_PI * (1.0 - 0.5 * scalars._EULER_GAMMA)
        assert abs(closed - analytic) <= 1e-12

    @pytest.mark.parametrize("n", range(scalars.N_MAX + 1))
    def test_closed_form_matches_quadrature(self, stdlib_ledger, n):
        closed = Decimal(stdlib_ledger["i3"][n])
        error = abs(Decimal(quadrature.entropy_integral_numeric(n)) - closed)
        assert float(error / max(1, abs(closed))) <= I3_REF_TOL

    def test_closed_form_zero_at_order_zero(self, stdlib_ledger):
        assert Decimal(stdlib_ledger["i3"][0]) == 0


# every public entry that takes an order, as a call of the order alone,
# with its cap
ORDER_ENTRIES = {
    "hermite_roots": (quadrature.hermite_roots, scalars.N_MAX),
    "gauss_hermite_rule": (quadrature.gauss_hermite_rule, scalars.N_MAX),
    "entropy_integral_numeric": (quadrature.entropy_integral_numeric, scalars.N_MAX),
    "standard_entropy": (criterion.standard_entropy, scalars.N_MAX),
    "threshold_eta0": (lambda n: criterion.threshold_eta0(n, 0), scalars.N_MAX),
    "variance_threshold": (lambda n: criterion.variance_threshold(0, n), scalars.N_MAX),
    "mode_pair": (lambda n: oscillator.ModePair(0, n), scalars.N_MAX),
    "collect_checks": (verification.collect_checks, verification.VERIFY_N_MAX),
}
REMOVED_NAMES = (
    "SeriesValue",
    "hyp1f1_gauss",
    "hyp2f2_gauss",
    "HYP1F1_VALID_RANGE",
    "HYP2F2_VALID_RANGE",
    "IntegralBundle",
    "integral_bundle",
    "shannon_entropy",
    "hermite_eval",
    "ScalingTransform",
    "legendre_panel_rule",
    "integrate_panels",
    "IntegrandEvaluationError",
    "entropy_panel_boundaries",
    "hermite_values",
    "log_potential",
    "entropy_integral_closed_form",
    "I3_CLOSED_TABLE",
    "I3_CLOSED_RTOL",
    "S_CLOSED_TOL",
    "I3_TABLE_RTOL",
    "MathConstants",
    "CONSTANTS",
    "ln_factorial",
    "criterion_curve",
    "is_entangled",
    "all_normative_pass",
    "_check_panel_order",
)


@pytest.mark.parametrize("entry", sorted(ORDER_ENTRIES))
def test_order_entries_share_one_check(entry):
    call, cap = ORDER_ENTRIES[entry]
    # numpy integers are orders; warming 1 and 2 this way also puts equal
    # keys in any cache, which must not answer for True or 2.0
    call(np.int64(1))
    call(np.int64(2))
    for bad in (True, np.True_, np.array(2), 2.0, -1):
        with pytest.raises(DomainError):
            call(bad)
    with pytest.raises(UnsupportedOrderError):
        call(-1)
    call(cap)
    with pytest.raises(UnsupportedOrderError):
        call(cap + 1)


def test_public_names():
    assert "variance_threshold" in seec.__all__
    assert "critical_coupling" in seec.__all__
    for name in seec.__all__:
        assert hasattr(seec, name), name
    for name in REMOVED_NAMES:
        assert name not in seec.__all__, name
        for module in (seec, criterion, quadrature, scalars, errors, verification):
            assert not hasattr(module, name), name
