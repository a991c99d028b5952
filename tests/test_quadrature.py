import math
from decimal import Decimal

import numpy as np
import pytest

import seec
from seec import _kernels, _tables, criterion, errors, oscillator, quadrature, scalars, verification
from seec.errors import DomainError, UnsupportedOrderError

import oracles
import reference
from test_reference import I3_REFERENCE

SQRT_PI = scalars._SQRT_PI
EULER_GAMMA = scalars._EULER_GAMMA

# every Gauss-Hermite weight of order <= N_MAX against the stdlib
# reference's, relative: the worst is 3.6e-14 (order 54)
WEIGHT_RTOL = 1e-13


def _double_factorial_moment(k):
    # int z^{2k} e^{-z^2} dz = sqrt(pi) (2k-1)!! / 2^k
    value = SQRT_PI
    for j in range(1, k + 1):
        value *= (2.0 * j - 1.0) / 2.0
    return value


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
        # the guarantees of every frozen root set, which no process
        # re-checks: n roots, strictly increasing, exactly antisymmetric,
        # each a root to its Newton residual (nan fails each)
        roots = quadrature.hermite_roots(n).roots
        assert len(roots) == n
        assert np.all(np.diff(roots) > 0)
        assert np.array_equal(roots, -roots[::-1])
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


class TestGaussHermiteRule:
    def test_order_one(self):
        rule = quadrature.gauss_hermite_rule(1)
        assert rule.nodes.tolist() == [0.0]
        assert abs(rule.weights[0] - SQRT_PI) < 1e-15

    def test_order_two(self):
        rule = quadrature.gauss_hermite_rule(2)
        np.testing.assert_allclose(rule.nodes, [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [SQRT_PI / 2.0, SQRT_PI / 2.0], rtol=1e-14)

    @pytest.mark.parametrize("order", range(1, scalars.N_MAX + 1))
    def test_weights_sum_to_sqrt_pi(self, order):
        # at every order: finite, positive weights that sum to sqrt(pi)
        rule = quadrature.gauss_hermite_rule(order)
        assert np.all(np.isfinite(rule.weights) & (rule.weights > 0))
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
            assert quadrature.gauss_hermite_rule(n).nodes is quadrature.hermite_roots(n).roots

    def test_weights_equal_a_separate_recurrence_pass_bit_for_bit(self):
        # the weights, built from the H_{n-1} kept with the root set, are
        # those of w_i = 2^{n-1} n! sqrt(pi) / (n H_{n-1})^2 with H_{n-1}
        # from a pass of its own
        for order in range(1, scalars.N_MAX + 1):
            rule = quadrature.gauss_hermite_rule(order)
            h_prev = _kernels.hermite_values(order - 1, rule.nodes)
            expected = scalars._norm(order) / (2.0 * np.square(order * h_prev))
            assert rule.weights.tobytes() == expected.tobytes(), order

    def test_every_weight_matches_the_stdlib_reference(self):
        for order in range(1, scalars.N_MAX + 1):
            exact = reference.gauss_hermite_weights(order)
            for w, w_ref in zip(quadrature.gauss_hermite_rule(order).weights.tolist(), exact):
                assert abs(Decimal(w) - w_ref) <= Decimal(WEIGHT_RTOL) * w_ref, (order, w)

    def test_order_bounds(self):
        with pytest.raises(UnsupportedOrderError):
            quadrature.gauss_hermite_rule(0)
        with pytest.raises(UnsupportedOrderError):
            quadrature.gauss_hermite_rule(65)

    def test_closed_form_agreement_through_n12(self):
        # sum w H_n^2 = 2^n n! sqrt(pi) and the z^2-weighted mirror
        for n in range(13):
            rule = quadrature.gauss_hermite_rule(n + 2)
            h2 = _kernels.hermite_values(n, rule.nodes) ** 2
            norm = math.exp(0.5 * math.log(math.pi) + math.lgamma(n + 1.0) + n * math.log(2.0))
            i1 = float(np.dot(rule.weights, h2))
            assert abs(i1 - norm) <= 1e-10 * norm
            i2 = -float(np.dot(rule.weights, rule.nodes**2 * h2))
            exact = -norm * (n + 0.5)
            assert abs(i2 - exact) <= 1e-10 * abs(exact)


class TestOrthogonality:
    def test_spot_check(self):
        # quadrature of H_a H_b e^{-z^2}: zero off the diagonal (relative to
        # the diagonal norm scale), 2^a a! sqrt(pi) on it
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


class TestGaussLegendre:
    @pytest.mark.parametrize("order", [32, 48, 96])
    def test_base_rule_is_numpys_bit_for_bit(self, order):
        nodes, weights = quadrature._leggauss(order)
        ref_nodes, ref_weights = oracles.leggauss(order)
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()
        assert not (nodes.flags.writeable or weights.flags.writeable)
        # the three frozen tables are the only base rules
        assert sorted(_tables._LEGGAUSS_HALVES) == [32, 48, 96]

    @pytest.mark.parametrize("order", [32, 48, 96])
    def test_tabulated_rule_is_the_live_one_bit_for_bit(self, order):
        # each table holds the recipe its comment gives, numpy's live rule
        # cut at order // 2, literal for literal
        half_nodes, half_weights = _tables._LEGGAUSS_HALVES[order]
        live_nodes, live_weights = oracles.leggauss(order)
        assert half_nodes == tuple(map(float, live_nodes[order // 2:]))
        assert half_weights == tuple(map(float, live_weights[order // 2:]))


def _panel_rule(order, boundaries):
    # the composite Gauss-Legendre rule as one panel of (nodes, weights)
    nodes, weights = quadrature._panel_nodes(order, np.array(boundaries, dtype=np.float64))
    return nodes.ravel(), weights.ravel()


def _panel_integral(f, order, boundaries):
    nodes, weights = _panel_rule(order, boundaries)
    return _kernels.panel_sum(weights * f(nodes))


@pytest.fixture
def any_panel_order(monkeypatch):
    # I3(n, panel_order) by the package's panel quadrature at any panel
    # order, those it refuses too: the base rule of an untabulated order is
    # the oracle's, patched in for the calling test, and each integral
    # bypasses the (n, panel_order) cache
    tabulated = quadrature._leggauss
    monkeypatch.setattr(
        quadrature,
        "_leggauss",
        lambda q: tabulated(q) if q in _tables._LEGGAUSS_HALVES else oracles.leggauss(q),
    )
    return lambda n, q: quadrature._i3_from_entropy(n, quadrature._entropy.__wrapped__(n, q))


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
    @pytest.mark.parametrize("order", [32, 48, 96])
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
        first = _panel_integral(f, 48, (-6.0, -1.0, 0.5, 6.0))
        second = _panel_integral(f, 48, (-6.0, -1.0, 0.5, 6.0))
        assert first == second


class TestEntropyIntegral:
    def test_order_zero_is_zero_to_rounding(self):
        # I3(0) = N_0 (ln N_0 + 1/2 - S_0) = 0, derived from the direct S_0,
        # which is a few ulps off: 1.2e-15
        assert abs(quadrature.entropy_integral_numeric(0)) <= 8 * math.ulp(SQRT_PI)

    def test_analytic_anchor_at_order_one(self):
        analytic = 4.0 * SQRT_PI * (1.0 - 0.5 * EULER_GAMMA)
        assert abs(quadrature.entropy_integral_numeric(1) - analytic) <= 1e-9

    @pytest.mark.parametrize("n,expected", sorted((n, float(s)) for n, s in I3_REFERENCE.items()))
    def test_reference_values(self, n, expected):
        value = quadrature.entropy_integral_numeric(n)
        assert abs(value - expected) <= 1e-11 * max(1.0, abs(expected))

    def test_panel_order_self_convergence_small_n(self, any_panel_order):
        # absolute agreement at modest order, where the integral is O(10)
        delta = abs(quadrature.entropy_integral_numeric(2, 32) - any_panel_order(2, 64))
        assert delta <= 1e-9

    @pytest.mark.parametrize("n", range(0, 13))
    def test_panel_order_doubling(self, n):
        coarse = quadrature.entropy_integral_numeric(n, 48)
        fine = quadrature.entropy_integral_numeric(n, 96)
        assert abs(coarse - fine) <= 1e-9 * max(1.0, abs(fine))

    def test_coarse_panel_orders_converge_at_every_order(self, any_panel_order):
        # on the ratio-8 grading, 24, 32 and 48 points per panel already
        # agree with 96 to roundoff for every k <= N_MAX: 24, no panel order,
        # integrated with the oracle's base rule, shows the margin that the
        # tabulated 32 and 48 hold
        for k in range(scalars.N_MAX + 1):
            fine = quadrature.entropy_integral_numeric(k, 96)
            for order in (24, 32, 48):
                coarse = any_panel_order(k, order)
                assert abs(coarse - fine) <= 1e-14 * max(1.0, abs(fine)), (k, order)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            quadrature.entropy_integral_numeric(scalars.N_MAX + 1)

    def test_panel_order_cap(self):
        # the panel orders are the three tabulated base rules: every other
        # integer is refused, with one message, before a base rule is built
        built = quadrature._leggauss.cache_info().currsize
        for order in range(0, 258):
            if order not in (32, 48, 96):
                message = f"^panel order must be 32, 48 or 96, got {order}$"
                with pytest.raises(UnsupportedOrderError, match=message):
                    quadrature.entropy_integral_numeric(0, order)
        assert quadrature._leggauss.cache_info().currsize == built
        assert quadrature.entropy_integral_numeric(0, np.int64(96)) == (
            quadrature.entropy_integral_numeric(0, 96)
        )

    @pytest.mark.parametrize("n", range(0, 33))
    def test_is_the_kernel_over_the_public_panel_rule(self, n):
        # over the panel rule built one panel at a time from the whole line
        edges = oracles.whole_line(quadrature._entropy_panel_boundaries(n))
        for order in (32, 48, 96):
            nodes, weights = oracles.panel_rule_loop(order, edges)
            # the sum runs one panel (a row of `order` points) at a time
            panels = (nodes.reshape(-1, order), weights.reshape(-1, order))
            expected = quadrature._i3_from_entropy(n, oracles.entropy_sum_allocating(n, *panels))
            assert quadrature.entropy_integral_numeric(n, order) == expected

    def test_boundary_array_is_cached_read_only(self):
        edges = quadrature._entropy_panel_boundaries(5)
        assert quadrature._entropy_panel_boundaries(5) is edges
        assert not edges.flags.writeable

    @pytest.mark.parametrize("n", range(0, scalars.N_MAX + 1))
    def test_boundaries_cover_window_and_roots(self, n):
        # the z >= 0 half: finite, from +0.0 to the window edge, strictly
        # increasing, every non-negative root an edge exactly
        bounds = quadrature._entropy_panel_boundaries(n)
        assert np.all(np.isfinite(bounds))
        assert bounds[:1].tobytes() == np.zeros(1).tobytes()
        assert bounds[-1] == math.sqrt(2.0 * n + 1.0) + 10.0
        roots = quadrature.hermite_roots(n).roots
        assert np.isin(roots[roots >= 0.0], bounds).all()
        assert np.all(bounds[1:] > bounds[:-1])

    @pytest.mark.parametrize("n", range(0, 33))
    def test_boundaries_and_rules_bit_identical_to_loops(self, n):
        edges = quadrature._entropy_panel_boundaries(n)
        reference = oracles.entropy_panel_boundaries_loop(n, quadrature.hermite_roots(n).roots)
        assert edges.tobytes() == np.array(reference).tobytes()
        for order in (32, 48, 96):
            rule_nodes, rule_weights = _panel_rule(order, edges)
            nodes, weights = oracles.panel_rule_loop(order, reference)
            assert rule_nodes.tobytes() == nodes.tobytes()
            assert rule_weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("n", range(0, scalars.N_MAX + 1))
    def test_boundaries_are_mirror_exact(self, n):
        # 0.0 - x negates every edge but the one at 0, which stays +0.0
        # (-edges[::-1] would turn it into -0.0, another bit pattern), so
        # the whole line is mirror-exact only if the half starts at +0.0
        half = quadrature._entropy_panel_boundaries(n)
        edges = oracles.whole_line(half)
        assert edges.tobytes() == (0.0 - edges[::-1]).tobytes()
        assert np.count_nonzero(edges == 0.0) == 1
        # the half is the z >= 0 half of the whole-line layout, split from
        # the left end of each gap on both sides of 0
        layout = oracles.entropy_panel_layout_loop(n, quadrature.hermite_roots(n).roots)
        right = np.array([b for b in layout if b >= 0.0])
        assert half.tobytes() == right.tobytes()

    @pytest.mark.parametrize("n", range(0, scalars.N_MAX + 1))
    def test_half_evaluation_is_the_whole_line_sum_bit_for_bit(self, n):
        # psi_n^2 is even and each node the exact negative of its mirror's,
        # so the z >= 0 terms, mirrored, are every panel of the whole line
        edges = oracles.whole_line(quadrature._entropy_panel_boundaries(n))
        for order in (48, 96):
            nodes, weights = oracles.panel_rule_loop(order, edges)
            panels = (nodes.reshape(-1, order), weights.reshape(-1, order))
            assert quadrature._entropy(n, order) == oracles.entropy_sum_allocating(n, *panels)

    def test_psi_is_evaluated_on_half_the_nodes(self, monkeypatch):
        sizes = []
        hermite_function = _kernels.hermite_function

        def counted(*args):
            sizes.append(np.size(args[2]))
            return hermite_function(*args)

        monkeypatch.setattr(_kernels, "hermite_function", counted)
        for n in (0, 1, 8, 64):
            panels = len(quadrature._entropy_panel_boundaries(n)) - 1
            for order in (48, 96):
                quadrature._entropy.__wrapped__(n, order)
                assert sizes.pop() == panels * order and not sizes, (n, order)

    def test_one_integration_per_order_and_panel_order(self, monkeypatch):
        # one psi_n evaluation on the panel nodes per integration
        calls = []
        hermite_function = _kernels.hermite_function

        def counted(*args):
            calls.append(args[0])
            return hermite_function(*args)

        monkeypatch.setattr(_kernels, "hermite_function", counted)
        quadrature._entropy.cache_clear()
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
