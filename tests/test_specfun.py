import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import seec
from seec import _kernels, criterion, errors, oscillator, quadrature, scalars, specfun, verification
from seec.errors import DomainError, UnsupportedOrderError

import oracles

V1_AT_ZERO = -0.064676794897770027658
I3_QUADRATURE = {
    1: 5.0436391475066444583,
    2: 51.800988290221849756,
    3: 538.87027741580162596,
    4: 6347.7943239842902189,
}


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
        assert specfun.hermite_roots(1).roots.tolist() == [0.0]
        np.testing.assert_allclose(
            specfun.hermite_roots(2).roots, [-0.7071067811865476, 0.7071067811865476], atol=1e-14
        )
        np.testing.assert_allclose(
            specfun.hermite_roots(3).roots, [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-14
        )

    def test_zero_order_is_empty(self):
        assert len(specfun.hermite_roots(0).roots) == 0

    def test_order_above_cap_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            specfun.hermite_roots(scalars.N_MAX + 1)

    @pytest.mark.parametrize("n", range(1, scalars.N_MAX + 1))
    def test_rootset_invariants(self, n):
        roots = specfun.hermite_roots(n).roots
        assert len(roots) == n
        assert np.all(np.diff(roots) > 0)
        assert np.max(np.abs(roots + roots[::-1])) <= 1e-13
        for x in roots:
            h_n = _kernels.hermite_values(n, [x])[0]
            h_prime = 2.0 * n * _kernels.hermite_values(n - 1, [x])[0]
            assert abs(h_n) <= 1e-10 * max(1.0, abs(h_prime))

    def test_cached_object_reused(self):
        assert specfun.hermite_roots(7) is specfun.hermite_roots(7)


class TestGaussLegendre:
    @pytest.mark.parametrize("order", [*range(1, 97), 128, 200, scalars.PANEL_ORDER_MAX])
    def test_base_rule_is_numpys_bit_for_bit(self, order):
        nodes, weights = specfun._leggauss(order)
        ref_nodes, ref_weights = oracles.leggauss(order)
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()
        assert not (nodes.flags.writeable or weights.flags.writeable)

    @pytest.mark.parametrize("order", [32, 48, 96])
    def test_tabulated_rule_is_the_live_one_bit_for_bit(self, order):
        assert order in specfun._LEGGAUSS_HALVES
        nodes, weights = specfun._leggauss(order)
        live_nodes, live_weights = specfun._build_leggauss(order)
        ref_nodes, ref_weights = oracles.leggauss(order)
        assert nodes.tobytes() == live_nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == live_weights.tobytes() == ref_weights.tobytes()
        assert not (nodes.flags.writeable or weights.flags.writeable)

    def test_cold_verify_never_builds_a_rule_live(self):
        # a fresh process: every base rule collect_checks reads comes from
        # the tables, so the live construction and its Legendre series,
        # patched to fail, never run
        script = (
            "import sys\n"
            "from seec import specfun, verification\n"
            "def refuse(*args):\n"
            "    raise AssertionError('a base rule built live')\n"
            "specfun._build_leggauss = specfun._legendre_series = refuse\n"
            "sys.exit(not verification.all_normative_pass(verification.collect_checks(12)))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(seec.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr


class TestOrthogonality:
    def test_spot_check(self):
        # quadrature of H_a H_b e^{-z^2}: zero off the diagonal (relative to
        # the diagonal norm scale), 2^a a! sqrt(pi) on it
        from seec import quadrature

        rule = quadrature.gauss_hermite_rule(12)
        norms = {}
        for a in range(11):
            norms[a] = math.exp(
                0.5 * math.log(math.pi) + scalars._ln_factorial(a) + a * math.log(2.0)
            )
        for a in range(11):
            ha = _kernels.hermite_values(a, rule.nodes)
            for b in range(a, 11):
                hb = _kernels.hermite_values(b, rule.nodes)
                integral = float(np.dot(rule.weights, ha * hb))
                if a == b:
                    assert abs(integral - norms[a]) <= 1e-10 * norms[a]
                else:
                    assert abs(integral) <= 1e-8 * math.sqrt(norms[a] * norms[b])


class TestLnFactorial:
    def test_anchors(self):
        assert scalars._ln_factorial(0) == 0.0
        assert scalars._ln_factorial(1) == 0.0
        assert abs(scalars._ln_factorial(5) - math.log(120.0)) < 1e-15
        assert abs(scalars._ln_factorial(20) - 42.335616460753485) < 1e-13

    def test_matches_lgamma_in_product_range(self):
        for n in range(0, 21):
            assert abs(scalars._ln_factorial(n) - math.lgamma(n + 1.0)) <= 1e-14 * max(
                1.0, scalars._ln_factorial(n)
            )

    def test_large_argument_uses_lgamma(self):
        assert scalars._ln_factorial(64) == math.lgamma(65.0)


class TestConstants:
    def test_literal_values(self):
        assert scalars._EULER_GAMMA == 0.5772156649015329
        assert abs(scalars._SQRT_PI - math.sqrt(math.pi)) < 1e-15


class TestLogPotential:
    def test_value_at_origin_order_one(self):
        v = specfun._log_potential(1, 0.0)
        assert isinstance(v, float)
        assert abs(v - V1_AT_ZERO) <= 1e-12

    def test_even_in_x(self):
        left = specfun._log_potential(2, -0.7071068)
        right = specfun._log_potential(2, 0.7071068)
        assert left == right

    def test_array_keeps_its_shape(self):
        x = np.array([[0.0, 0.5], [-1.5, 2.25]])
        v = specfun._log_potential(3, x)
        assert v.shape == x.shape
        norm = 48.0 * math.sqrt(math.pi)  # 2^3 3! sqrt(pi)
        for p, vp in zip(x.ravel(), v.ravel()):
            assert abs(vp - specfun._log_potential(3, p)) <= 1e-13 * norm

    @pytest.mark.parametrize("n", [1, 5, 12, 32])
    def test_matches_direct_integral_off_the_roots(self, n):
        # across the whole window, including its edges, against the z
        # integral graded toward the logarithmic singularity
        window = math.sqrt(2.0 * n + 1.0) + 10.0
        x = np.concatenate((np.linspace(-window, window, 23) + 0.0137, [-window, window, 1e-9]))
        x = x[np.abs(x) <= window]
        norm = math.exp(n * math.log(2.0) + scalars._ln_factorial(n) + 0.5 * math.log(math.pi))
        expected = np.array([oracles.log_potential_direct(n, float(p)) for p in x])
        assert np.max(np.abs(specfun._log_potential(n, x) - expected)) <= 1e-13 * norm

    def test_closed_form_entropy_integral_matches_oracle_at_n1(self):
        from seec import quadrature

        closed = specfun.entropy_integral_closed_form(1)
        assert abs(closed - quadrature.entropy_integral_numeric(1)) <= 1e-9
        analytic = 4.0 * scalars._SQRT_PI * (1.0 - 0.5 * scalars._EULER_GAMMA)
        assert abs(closed - analytic) <= 1e-12

    @pytest.mark.parametrize("n", range(scalars.N_MAX + 1))
    def test_closed_form_matches_quadrature(self, n):
        from seec import quadrature

        closed = specfun.entropy_integral_closed_form(n)
        reference = quadrature.entropy_integral_numeric(n)
        assert abs(closed - reference) <= 1e-12 * max(1.0, abs(reference))

    def test_closed_form_frozen_references(self):
        for n, expected in I3_QUADRATURE.items():
            closed = specfun.entropy_integral_closed_form(n)
            assert abs(closed - expected) <= 1e-13 * expected

    def test_closed_form_zero_at_order_zero(self):
        assert specfun.entropy_integral_closed_form(0) == 0.0


# every public entry that takes an order, as a call of the order alone,
# with its cap
ORDER_ENTRIES = {
    "hermite_roots": (specfun.hermite_roots, scalars.N_MAX),
    "gauss_hermite_rule": (quadrature.gauss_hermite_rule, scalars.N_MAX),
    "entropy_integral_numeric": (quadrature.entropy_integral_numeric, scalars.N_MAX),
    "entropy_integral_closed_form": (specfun.entropy_integral_closed_form, scalars.N_MAX),
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
    "MathConstants",
    "CONSTANTS",
    "ln_factorial",
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
    for name in seec.__all__:
        assert hasattr(seec, name), name
    for name in REMOVED_NAMES:
        assert name not in seec.__all__, name
        for module in (seec, specfun, criterion, quadrature, scalars, errors):
            assert not hasattr(module, name), name
