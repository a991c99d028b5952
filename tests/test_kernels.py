import math

import numpy as np
import pytest

import oracles
from seec import _kernels, cli, oscillator, scalars

# panel-like points, exact roots and zeros, and points where H_n overflows
_GRID = np.concatenate(
    (np.linspace(-12.0, 12.0, 4001), [0.0, -0.0, 1e-300, 1.0 / np.sqrt(2.0), 40.0, -1e3])
)


def _recurrence_points():
    # zero, denormals, the scaled points t1 u and t2 u of the golden
    # wavefunction grids, and |z| up to 1e200, where H_n overflows to inf
    # and the recurrence then meets inf - inf
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
    from seec import quadrature, specfun

    nodes, weights = specfun._panel_nodes(32, quadrature._entropy_panel_boundaries(n))
    return nodes.ravel(), weights.ravel()


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


class TestEntropyWeightedSum:
    def test_matches_explicit_formula(self):
        nodes, weights = _panel_inputs(3)
        h = _kernels.hermite_values(3, nodes)
        h2 = h * h
        expected = float(np.dot(weights, np.exp(-nodes * nodes) * h2 * np.log(h2)))
        got = _kernels.entropy_weighted_sum(3, nodes, weights)
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_order_zero_is_exactly_zero(self):
        nodes, weights = _panel_inputs(0)
        assert _kernels.entropy_weighted_sum(0, nodes, weights) == 0.0

    def test_determinism(self):
        nodes, weights = _panel_inputs(5)
        assert _kernels.entropy_weighted_sum(5, nodes, weights) == _kernels.entropy_weighted_sum(
            5, nodes, weights
        )

    def test_zero_polynomial_value_contributes_zero(self):
        # force an exact root onto a node: H_1(0) = 0
        nodes = np.array([0.0, 1.0])
        weights = np.array([1.0, 1.0])
        value = _kernels.entropy_weighted_sum(1, nodes, weights)
        expected = np.exp(-1.0) * 4.0 * np.log(4.0)
        assert abs(value - expected) <= 1e-15 * expected


class TestPanelSum:
    def test_sums_each_panel_then_fsums_the_panels(self):
        rng = np.random.default_rng(7)
        terms = rng.standard_normal((3, 5, 40, 48)) * 10.0 ** rng.integers(-8, 9, (3, 5, 40, 1))
        got = _kernels.panel_sum(terms)
        assert got.shape == (3, 5)
        for index in np.ndindex(3, 5):
            panels = terms[index]
            expected = math.fsum(float(np.add.reduce(row)) for row in panels)
            assert got[index] == expected == _kernels.panel_sum(panels)

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

    def test_pure_python_recurrence_matches_hermite_pair(self):
        # the two implementations of the one recurrence: hermite_pair, and
        # the list form behind the wavefunction command; compared as bit
        # patterns, so a nan in the same place counts as equal
        points = _recurrence_points()
        z = np.array(points)
        reached = set()
        for n in range(scalars.N_MAX + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                expected = _kernels.hermite_pair(n, z)[0]
            got = np.array(oscillator._hermite_list(n, points))
            assert got.tobytes() == expected.tobytes(), n
            reached.update(str(v) for v in expected[~np.isfinite(expected)])
        assert reached == {"inf", "-inf", "nan"}

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 32])
    def test_weighted_sum_matches_allocating_formula(self, n):
        # one row per 32-point panel; each panel summed on its own, then
        # the panel sums by fsum
        nodes, weights = (a.reshape(-1, 32) for a in _panel_inputs(n))
        h = oracles.hermite_pair_allocating(n, nodes)[0]
        h2 = h * h
        logs = np.log(np.where(h2 > 0.0, h2, 1.0))
        terms = np.exp(-nodes * nodes) * h2 * logs * weights
        expected = math.fsum(float(np.add.reduce(row)) for row in terms)
        assert _kernels.entropy_weighted_sum(n, nodes, weights) == expected
