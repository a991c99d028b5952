import math
from types import SimpleNamespace

import numpy as np
import pytest

from seec import _kernels, quadrature, scalars, specfun
from seec.errors import DomainError, UnsupportedOrderError

import oracles

SQRT_PI = scalars._SQRT_PI
EULER_GAMMA = scalars._EULER_GAMMA

# 40-digit quadrature of e^{-z^2} H_n^2 ln(H_n^2)
I3_REFERENCE = {
    0: 0.0,
    1: 5.0436391475066444583,
    2: 51.800988290221849756,
    3: 538.87027741580162596,
    4: 6347.7943239842902189,
    5: 85469.355928560770588,
    6: 1305286.3050714251221,
}


def _double_factorial_moment(k):
    # int z^{2k} e^{-z^2} dz = sqrt(pi) (2k-1)!! / 2^k
    value = SQRT_PI
    for j in range(1, k + 1):
        value *= (2.0 * j - 1.0) / 2.0
    return value


class TestGaussHermiteRule:
    def test_order_one(self):
        rule = quadrature.gauss_hermite_rule(1)
        assert rule.nodes.tolist() == [0.0]
        assert abs(rule.weights[0] - SQRT_PI) < 1e-15

    def test_order_two(self):
        rule = quadrature.gauss_hermite_rule(2)
        np.testing.assert_allclose(rule.nodes, [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [SQRT_PI / 2.0, SQRT_PI / 2.0], rtol=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 21, 34, 48, 64])
    def test_weights_sum_to_sqrt_pi(self, order):
        rule = quadrature.gauss_hermite_rule(order)
        assert np.all(rule.weights > 0)
        assert abs(float(np.sum(rule.weights)) - SQRT_PI) <= 1e-12 * SQRT_PI

    @pytest.mark.parametrize("order", [3, 8, 20, 40])
    def test_moment_exactness(self, order):
        rule = quadrature.gauss_hermite_rule(order)
        for p in range(0, 2 * order):
            computed = float(np.dot(rule.weights, rule.nodes**p))
            if p % 2:
                assert abs(computed) <= 1e-12 * _double_factorial_moment(p // 2 + 1)
            else:
                exact = _double_factorial_moment(p // 2)
                assert abs(computed - exact) <= 1e-12 * exact

    def test_nodes_are_the_shared_root_set(self):
        for n in range(1, scalars.N_MAX + 1):
            assert quadrature.gauss_hermite_rule(n).nodes is specfun.hermite_roots(n).roots

    def test_weights_equal_a_separate_recurrence_pass_bit_for_bit(self):
        # the weights, built from the H_{n-1} the root set kept from its
        # residual check, are those of w_i = 2^{n-1} n! sqrt(pi) / (n H_{n-1})^2
        # with H_{n-1} from a pass of its own
        for order in range(1, scalars.N_MAX + 1):
            rule = quadrature.gauss_hermite_rule(order)
            ln_pref = (
                (order - 1) * math.log(2.0) + scalars._ln_factorial(order) + 0.5 * math.log(math.pi)
            )
            h_prev = _kernels.hermite_values(order - 1, rule.nodes)
            expected = np.exp(ln_pref - 2.0 * np.log(np.abs(order * h_prev)))
            assert rule.weights.tobytes() == expected.tobytes(), order

    def test_order_bounds(self):
        with pytest.raises(UnsupportedOrderError):
            quadrature.gauss_hermite_rule(0)
        with pytest.raises(UnsupportedOrderError):
            quadrature.gauss_hermite_rule(65)

    @pytest.mark.parametrize(
        "order,nodes,message",
        [
            (2, [-0.8, 0.8], "sum to sqrt"),  # symmetric, weights sum to sqrt(pi) / 1.28
            (1, [1e-6], "symmetric"),  # the order-1 weight is sqrt(pi) at any node
        ],
    )
    def test_rejects_a_rule_off_its_guarantees(self, monkeypatch, order, nodes, message):
        # the asymmetric node meets RootSet's checks; the symmetric pair off
        # the roots is patched in bare (with H_{n-1} as RootSet keeps it), so
        # the weight-sum check must catch it
        def bare(n, roots):
            return SimpleNamespace(n=n, roots=roots, _h_prev=_kernels.hermite_pair(n, roots)[1])

        make = specfun.RootSet if message == "symmetric" else bare
        monkeypatch.setattr(specfun, "_root_set", lambda n: make(n=n, roots=np.array(nodes)))
        quadrature._gauss_hermite_rule.cache_clear()
        try:
            with pytest.raises(DomainError, match=message):
                quadrature.gauss_hermite_rule(order)
        finally:
            quadrature._gauss_hermite_rule.cache_clear()

    def test_closed_form_agreement_through_n12(self):
        # sum w H_n^2 = 2^n n! sqrt(pi) and the z^2-weighted mirror
        for n in range(13):
            rule = quadrature.gauss_hermite_rule(n + 2)
            h2 = _kernels.hermite_values(n, rule.nodes) ** 2
            norm = math.exp(0.5 * math.log(math.pi) + scalars._ln_factorial(n) + n * math.log(2.0))
            i1 = float(np.dot(rule.weights, h2))
            assert abs(i1 - norm) <= 1e-10 * norm
            i2 = -float(np.dot(rule.weights, rule.nodes**2 * h2))
            exact = -norm * (n + 0.5)
            assert abs(i2 - exact) <= 1e-10 * abs(exact)


def _panel_rule(order, boundaries):
    # the composite Gauss-Legendre rule as one panel of (nodes, weights)
    nodes, weights = specfun._panel_nodes(order, np.array(boundaries, dtype=np.float64))
    return nodes.ravel(), weights.ravel()


def _panel_integral(f, order, boundaries):
    nodes, weights = _panel_rule(order, boundaries)
    return _kernels.panel_sum(weights * f(nodes))


class TestPanelRule:
    @pytest.mark.parametrize(
        "boundaries",
        [
            (-1.0, 1.0),
            (0.0, 1e-300, 1.0),
            (-3.5, -0.1, 0.0, 2.0 / 3.0, 7.25),
            tuple(np.linspace(-9.0, 13.0, 23)),
            tuple(np.sort(np.random.default_rng(7).uniform(-20.0, 20.0, 41))),
        ],
    )
    @pytest.mark.parametrize("order", [1, 5, 32])
    def test_bit_identical_to_panel_loop(self, order, boundaries):
        rule_nodes, rule_weights = _panel_rule(order, boundaries)
        nodes, weights = oracles.panel_rule_loop(order, boundaries)
        assert rule_nodes.tobytes() == nodes.tobytes()
        assert rule_weights.tobytes() == weights.tobytes()

    def test_gaussian_integral(self):
        total = _panel_integral(lambda z: np.exp(-z * z), 32, (-10.0, 0.0, 10.0))
        assert abs(total - SQRT_PI) <= 1e-12

    def test_normal_density_normalizes(self):
        density = lambda z: np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        assert abs(_panel_integral(density, 32, np.linspace(-10.0, 10.0, 11)) - 1.0) <= 1e-12

    def test_weighted_hermite_square(self):
        f = lambda z: np.exp(-z * z) * _kernels.hermite_values(2, z) ** 2
        total = _panel_integral(f, 32, np.linspace(-10.0, 10.0, 11))
        assert abs(total - 8.0 * SQRT_PI) <= 1e-12 * 8.0 * SQRT_PI

    def test_determinism(self):
        f = lambda z: np.exp(-z * z) * (1.0 + np.sin(3.0 * z))
        first = _panel_integral(f, 24, (-6.0, -1.0, 0.5, 6.0))
        second = _panel_integral(f, 24, (-6.0, -1.0, 0.5, 6.0))
        assert first == second


class TestEntropyIntegral:
    def test_order_zero_is_exactly_zero(self):
        assert quadrature.entropy_integral_numeric(0) == 0.0

    def test_analytic_anchor_at_order_one(self):
        analytic = 4.0 * SQRT_PI * (1.0 - 0.5 * EULER_GAMMA)
        assert abs(quadrature.entropy_integral_numeric(1) - analytic) <= 1e-9

    @pytest.mark.parametrize("n,expected", sorted(I3_REFERENCE.items()))
    def test_reference_values(self, n, expected):
        value = quadrature.entropy_integral_numeric(n)
        assert abs(value - expected) <= 1e-11 * max(1.0, abs(expected))

    def test_panel_order_self_convergence_small_n(self):
        # absolute agreement at modest order, where the integral is O(10)
        delta = abs(
            quadrature.entropy_integral_numeric(2, 32) - quadrature.entropy_integral_numeric(2, 64)
        )
        assert delta <= 1e-9

    @pytest.mark.parametrize("n", range(0, 13))
    def test_panel_order_doubling(self, n):
        coarse = quadrature.entropy_integral_numeric(n, 48)
        fine = quadrature.entropy_integral_numeric(n, 96)
        assert abs(coarse - fine) <= 1e-9 * max(1.0, abs(fine))

    def test_coarse_panel_orders_converge_at_every_order(self):
        # on the ratio-8 grading, 24, 32 and 48 points per panel already
        # agree with 96 to roundoff for every k <= N_MAX
        for k in range(scalars.N_MAX + 1):
            fine = quadrature.entropy_integral_numeric(k, 96)
            for order in (24, 32, 48):
                coarse = quadrature.entropy_integral_numeric(k, order)
                assert abs(coarse - fine) <= 1e-14 * max(1.0, abs(fine)), (k, order)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            quadrature.entropy_integral_numeric(scalars.N_MAX + 1)

    def test_panel_order_cap(self):
        # refused before its order x order base rule is built
        built = specfun._leggauss.cache_info().currsize
        with pytest.raises(UnsupportedOrderError):
            quadrature.entropy_integral_numeric(0, scalars.PANEL_ORDER_MAX + 1)
        assert specfun._leggauss.cache_info().currsize == built

    @pytest.mark.parametrize("n", range(0, 33))
    def test_is_the_kernel_over_the_public_panel_rule(self, n):
        # over the panel rule built one panel at a time from the edges
        edges = quadrature._entropy_panel_boundaries(n)
        for order in (32, 48, 96):
            nodes, weights = oracles.panel_rule_loop(order, edges)
            # the kernel sums one panel (a row of `order` points) at a time
            panels = (nodes.reshape(-1, order), weights.reshape(-1, order))
            expected = _kernels.entropy_weighted_sum(n, *panels)
            assert quadrature.entropy_integral_numeric(n, order) == expected

    @pytest.mark.parametrize("window", [math.inf, math.nan, 0.5])
    def test_boundaries_must_be_finite_and_increasing(self, window, monkeypatch):
        # a window inside the outer roots of H_3 (+-1.22) folds the edges back
        monkeypatch.setattr(specfun, "_entropy_window", lambda n: window)
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="increasing"):
            quadrature._entropy_panel_boundaries.__wrapped__(3)

    def test_boundary_array_is_cached_read_only(self):
        edges = quadrature._entropy_panel_boundaries(5)
        assert quadrature._entropy_panel_boundaries(5) is edges
        assert not edges.flags.writeable

    def test_boundaries_cover_window_and_roots(self):
        n = 4
        bounds = quadrature._entropy_panel_boundaries(n)
        cut = math.sqrt(2.0 * n + 1.0) + 10.0
        assert bounds[0] == -cut and bounds[-1] == cut
        for root in specfun.hermite_roots(n).roots:
            assert any(abs(b - root) < 1e-12 for b in bounds)
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("n", range(0, 33))
    def test_boundaries_and_rules_bit_identical_to_loops(self, n):
        edges = quadrature._entropy_panel_boundaries(n)
        reference = oracles.entropy_panel_boundaries_loop(n, specfun.hermite_roots(n).roots)
        assert edges.tobytes() == np.array(reference).tobytes()
        for order in (32, 48, 96):
            rule_nodes, rule_weights = _panel_rule(order, edges)
            nodes, weights = oracles.panel_rule_loop(order, reference)
            assert rule_nodes.tobytes() == nodes.tobytes()
            assert rule_weights.tobytes() == weights.tobytes()

    def test_one_integration_per_order_and_panel_order(self, monkeypatch):
        calls = []
        weighted_sum = _kernels.entropy_weighted_sum

        def counted(*args):
            calls.append(args[0])
            return weighted_sum(*args)

        monkeypatch.setattr(_kernels, "entropy_weighted_sum", counted)
        quadrature._entropy_integral.cache_clear()
        values = {
            quadrature.entropy_integral_numeric(7),
            quadrature.entropy_integral_numeric(7, 48),
            quadrature.entropy_integral_numeric(np.int64(7), 48),
        }
        assert calls == [7] and len(values) == 1
        # the cached (7, 48) entry must not answer for a malformed order
        for bad in (48.0, True):
            with pytest.raises(DomainError):
                quadrature.entropy_integral_numeric(7, bad)
