import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
import reference
from seec import _kernels, cli, oscillator, quadrature, scalars

# panel-like points, exact roots and zeros, and points where H_n overflows
_GRID = np.concatenate(
    (np.linspace(-12.0, 12.0, 4001), [0.0, -0.0, 1e-300, 1.0 / np.sqrt(2.0), 40.0, -1e3])
)


def _recurrence_points():
    # zero, denormals, the scaled points t1 u and t2 u of the golden
    # wavefunction grids, and |z| up to 1e200, where the Gaussian has
    # underflowed to 0 and, from about 1.3e154, z^2 overflows to inf
    from test_golden import GOLDEN

    points = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308]
    points += [s * 10.0**k for k in range(-300, 201, 10) for s in (1.0, -1.0)]
    for command, _, _ in GOLDEN:
        if command.startswith("wavefunction"):
            args = cli.build_parser().parse_args(command.split())
            grid = cli._eta_grid(args.u_min, args.u_max, args.steps)
            for sign in (1.0, -1.0):
                t = scalars._mode_scale(args.eta, sign)
                points += [t * u for u in grid]
    return points


def _panel_inputs(n):
    # the rule on the whole line, which the entropy quadrature sums as its
    # z >= 0 half and that half's mirror
    edges = oracles.whole_line(quadrature._entropy_panel_boundaries(n))
    nodes, weights = quadrature._panel_nodes(32, edges)
    return nodes.ravel(), weights.ravel()


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


class TestHermiteValues:
    def test_low_orders(self):
        z = np.array([0.0, 0.5, 1.0, -2.0])
        np.testing.assert_array_equal(_kernels.hermite_values(0, z), np.ones(4))
        np.testing.assert_array_equal(_kernels.hermite_values(1, z), 2.0 * z)
        np.testing.assert_array_equal(_kernels.hermite_values(2, z), 4.0 * z * z - 2.0)

    def test_determinism(self):
        z = np.linspace(-6.0, 6.0, 2001)
        first = _kernels.hermite_values(23, z)
        second = _kernels.hermite_values(23, z)
        np.testing.assert_array_equal(first, second)


class TestHermitePairShape:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 32])
    def test_keeps_the_input_shape(self, n):
        # 0-d in, 0-d out, and each shape has the bits of the flattened call
        z = np.linspace(-7.0, 7.0, 24)
        for shaped in (1.25, np.array(z[5]), z, z.reshape(4, 6), z.reshape(6, 4).T):
            shape = np.shape(shaped)
            flat = _kernels.hermite_pair(n, np.ravel(shaped))
            for got, expected in zip(_kernels.hermite_pair(n, shaped), flat):
                assert got.shape == shape
                assert got.tobytes() == expected.tobytes()


class TestHermiteFunction:
    @pytest.mark.parametrize("k", [64, 151, 200])
    def test_matches_the_decimal_reference(self, k):
        # past the cap too, where sqrt(pi) k! 2^k no longer fits a double
        # from k = 151: psi_k on 1001 points over its whole oscillating
        # range and into the tail, against H_k of the reference's recurrence
        # times e^{-z^2/2} / sqrt(sqrt(pi) k! 2^k) at 60 digits.  The worst
        # absolute error is 2.4e-15 at k = 64 and 5.3e-15 at k = 151 and
        # 200, where |psi_k| peaks near 0.41
        cut = math.sqrt(2 * k + 1) + 3.0
        z = np.linspace(-cut, cut, 1001)
        got = _kernels.hermite_function(k, 1.0, z)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            norm = (reference.pi(60).sqrt() * (math.factorial(k) << k)).sqrt()
            for x, value in zip(z.tolist(), got.tolist()):
                x = decimal.Decimal(x)
                exact = reference._hermite_pair(k, x)[0] * (-(x * x) / 2).exp() / norm
                assert abs(decimal.Decimal(value) - exact) <= decimal.Decimal("6e-15"), x

    @pytest.mark.parametrize("k", [0, 1, 2, 33, 64])
    def test_an_underflowed_gaussian_gives_positive_zero(self, k):
        # t x overflows to +-inf at the first two points, and e^{-a^2/2}
        # underflows at every one: psi_k is +0.0 there, not nan or -0.0
        x = np.array([1e300, -1e300, 40.0, -40.0, -100.0])
        for values in (_kernels.hermite_function(k, 1e10, x),
                       oscillator._hermite_function_list(k, [1e10 * v for v in x.tolist()]),
                       _kernels.hermite_function(k, 1.0, x[2:]),
                       oscillator._hermite_function_list(k, x[2:].tolist())):
            assert np.asarray(values).tobytes() == bytes(8 * len(values))


class TestEntropyWeightedSum:
    """The entropy quadrature's sum -sum w p ln p with p = psi_n^2, from
    _kernels.hermite_function and _kernels.panel_sum."""

    def test_matches_explicit_formula(self):
        nodes, weights = _panel_inputs(3)
        h = _kernels.hermite_values(3, nodes)
        p = np.exp(-nodes * nodes) * h * h / scalars._norm(3)
        expected = -float(np.dot(weights, p * np.log(p)))
        got = quadrature._entropy(3, 32)
        assert abs(got - expected) <= 1e-13 * abs(expected)

    def test_order_zero_is_the_gaussian_entropy(self):
        # the ground state is Gaussian: S_0 = ln sqrt(pi) + 1/2
        base = math.log(scalars._SQRT_PI) + 0.5
        assert abs(quadrature._entropy(0, 48) - base) <= 4 * math.ulp(base)

    def test_determinism(self):
        first = quadrature._entropy.__wrapped__(5, 48)
        assert first == quadrature._entropy.__wrapped__(5, 48) == quadrature._entropy(5, 48)

    def test_zero_polynomial_value_contributes_zero(self, monkeypatch):
        # force an exact root onto a node: H_1(0) = 0, so p = 0 there and
        # -p ln p is continued by its limit 0, not 0 * -inf = nan.  The one
        # patched panel is the z >= 0 half, summed with its mirror: twice
        nodes, weights = np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]])
        monkeypatch.setattr(quadrature, "_panel_nodes", lambda order, edges: (nodes, weights))
        value = quadrature._entropy.__wrapped__(1, 48)
        p = math.exp(-1.0) * 4.0 / scalars._norm(1)
        expected = -2.0 * p * math.log(p)
        assert abs(value - expected) <= 4e-16 * expected


class TestPanelSum:
    def test_sums_each_panel_then_fsums_the_panels(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            panels = rng.standard_normal((40, 48)) * 10.0 ** rng.integers(-8, 9, (40, 1))
            expected = math.fsum(float(np.add.reduce(row)) for row in panels)
            got = _kernels.panel_sum(panels)
            assert type(got) is float and got == expected

    def test_one_dimensional_terms_are_one_panel(self):
        terms = np.linspace(-1.0, 3.0, 1001) ** 3
        assert _kernels.panel_sum(terms) == float(np.add.reduce(terms))
        assert type(_kernels.panel_sum(terms)) is float


class TestInPlaceBitIdentity:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 32, 64])
    def test_hermite_pair_matches_allocating_recurrence(self, n):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _kernels.hermite_pair(n, _GRID)
            expected = oracles.hermite_pair_allocating(n, _GRID)
        for g, e in zip(got, expected):
            assert g.tobytes() == e.tobytes()

    def test_psi_twins_match_bit_for_bit(self):
        # the two implementations of the one psi_k recurrence:
        # hermite_function, and the list form behind the wavefunction
        # command.  Equal bit for bit wherever math.exp and numpy's exp
        # give one Gaussian, and so one psi_0; compared as bit patterns, so
        # the sign of a zero counts.  Every value is finite, and +0.0 where
        # the Gaussian underflows
        points = _recurrence_points()
        z = np.array(points)
        with np.errstate(over="ignore"):
            gauss = -0.5 * (z * z)
        same = np.exp(gauss) == [math.exp(g) for g in gauss.tolist()]
        far = np.exp(gauss) == 0.0
        assert same.sum() >= 0.9 * len(points) and far.sum() >= 40
        for k in range(scalars.N_MAX + 1):
            expected = _kernels.hermite_function(k, 1.0, z)
            got = np.array(oscillator._hermite_function_list(k, points))
            assert got[same].tobytes() == expected[same].tobytes(), k
            assert np.all(np.isfinite(got)) and np.all(np.isfinite(expected))
            for values in (got, expected):
                assert values[far].tobytes() == bytes(8 * far.sum()), k

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 32])
    def test_weighted_sum_matches_allocating_formula(self, n):
        # one row per 32-point panel; each panel summed on its own, then
        # the panel sums by fsum
        nodes, weights = (a.reshape(-1, 32) for a in _panel_inputs(n))
        assert quadrature._entropy(n, 32) == oracles.entropy_sum_allocating(n, nodes, weights)
