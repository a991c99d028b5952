import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from seec import oscillator, scalars
from seec.errors import (
    DomainError,
    UnboundModeError,
    UnsupportedOrderError,
    UnsupportedRegimeError,
)

# 40-digit references
ETA_DEGENERATE = 0.127706405941498  # 0.25 ln(5/3), couplings (1,1,1,1,-0.5)
E2ETA_211 = 1.66841590285253  # (3+sqrt2)/sqrt7, couplings (1,1,2,1,1)
ETA_211 = 0.255937307546837
K_211 = 1.3228756555323
PI_50 = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")


def _eta_decimal(A, B, C):
    """|eta| = 1/2 ln((A + B + disc) / 2K) at 80 digits, from the exact
    values of the floats: the textbook formula, whose cancellations 80
    digits absorb."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        a, b, c = map(decimal.Decimal, (A, B, C))
        disc = ((a - b) ** 2 + c * c).sqrt()
        two_k = 2 * (a * b - c * c / 4).sqrt()
        return float(((a + b + disc) / two_k).ln() / 2)


def _rel_roundtrip_error(h):
    rec = oscillator.reconstruct(oscillator.diagonalize(h))
    scale = max(abs(h.A), abs(h.B), abs(h.C))
    return max(abs(rec[0] - h.A), abs(rec[1] - h.B), abs(rec[2] - h.C)) / scale


class TestCoupledHamiltonian:
    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(DomainError):
            oscillator.CoupledHamiltonian(-1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            oscillator.CoupledHamiltonian(1.0, 1.0, 0.0, 1.0, 0.0)

    def test_rejects_unbound_modes(self):
        with pytest.raises(UnboundModeError):
            oscillator.CoupledHamiltonian(1.0, 1.0, 1.0, 1.0, 2.0)
        with pytest.raises(UnboundModeError):
            oscillator.CoupledHamiltonian(1.0, 1.0, 1.0, 1.0, -2.5)

    def test_rejects_nan_discriminant(self):
        # 4AB and C^2 both overflow to inf, and inf - inf is nan
        with pytest.raises(DomainError, match="discriminant 4AB - C\\^2 is not finite.*nan"):
            oscillator.CoupledHamiltonian(1e273, 1e273, 1e273, 1e273, 1.7e308)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_coupling(self, c):
        # 4AB - C^2 is -inf or nan here, which the discriminant checks
        # would report as an unbound or unknown sign instead
        with pytest.raises(DomainError, match="C must be finite"):
            oscillator.CoupledHamiltonian(1.0, 1.0, 1.0, 1.0, c)

    def test_replace_and_make_validate(self):
        h = oscillator.CoupledHamiltonian(1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(UnboundModeError):
            h._replace(C=5.0)  # C^2 >= 4AB
        with pytest.raises(UnboundModeError):
            oscillator.CoupledHamiltonian._make((1.0, 1.0, 1.0, 1.0, 2.0))
        assert h._replace(C=0.5) == (1.0, 1.0, 1.0, 1.0, 0.5)


class TestDiagonalize:
    def test_degenerate_example(self):
        d = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, 1.0, 1.0, -0.5))
        assert d.M == 1.0
        assert abs(d.K - math.sqrt(0.9375)) < 1e-15
        assert abs(d.eta - ETA_DEGENERATE) < 1e-12
        assert d.alpha == math.pi / 4.0
        assert d.degenerate_branch

    def test_decoupled(self):
        d = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, 1.0, 1.0, 0.0))
        assert d.eta == 0.0 and d.alpha == 0.0 and d.K == 1.0

    def test_asymmetric_example(self):
        d = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, 2.0, 1.0, 1.0))
        assert abs(d.K - K_211) < 1e-12
        assert abs(math.exp(2.0 * d.eta) - E2ETA_211) < 1e-12
        assert abs(d.eta - ETA_211) < 1e-12
        assert abs(math.degrees(2.0 * d.alpha) - (-45.0)) < 1e-12
        assert not d.degenerate_branch

    def test_positive_c_flips_alpha_sign(self):
        d = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, 1.0, 1.0, 0.5))
        assert d.alpha == -math.pi / 4.0
        assert abs(d.eta - ETA_DEGENERATE) < 1e-12  # eta independent of sign(C)

    def test_eta_sign_law_near_degeneracy(self):
        up = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, 1.001, 1.0, 0.3))
        down = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, 0.999, 1.0, 0.3))
        assert up.eta > 0.0
        assert down.eta < 0.0

    def test_degenerate_branch_is_the_exact_tie(self):
        # A == B is the one input where tan(2 alpha) = C / (B - A) is
        # undefined: alpha is -45 degrees for C > 0 and eta >= 0.  One ulp
        # more of B is already the general route: eta takes the sign of
        # A - B, alpha that of C, and |eta| moves by at most an ulp or so
        a = 1.0
        tie = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, a, a, 0.1))
        assert tie.degenerate_branch and tie.eta > 0.0 and tie.alpha == -math.pi / 4.0
        b = math.nextafter(a, math.inf)
        past = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, a, b, 0.1))
        assert not past.degenerate_branch and past.eta < 0.0 and past.alpha > 0.0
        assert abs(past.eta + tie.eta) <= 1e-15

    def test_limit_formula_consistency(self):
        # the general route against its A -> B limit, 1e-8 from the tie
        a = 1.0 + 1e-8
        d = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, a, 1.0, -0.5))
        assert not d.degenerate_branch
        a_bar = 0.5 * (a + 1.0)
        limit = 0.25 * math.log((2.0 * a_bar + 0.5) / (2.0 * a_bar - 0.5))
        assert abs(d.eta - limit) <= 1e-6
        assert abs(d.eta - ETA_DEGENERATE) <= 1e-6

    @pytest.mark.parametrize("c", [1e-300, -1e-300])
    def test_weak_coupling_is_not_rounded_to_zero(self, c):
        # eta = 1/2 atanh(|C| / 2a) = |C| / 4a to first order: a coupled
        # ground state must not read eta = 0
        d = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, 1.0, 1.0, c))
        assert d.eta == 2.5e-301

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.none() | st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-15.0, -6.0)),
        st.sampled_from((-1.0, 1.0)),
        st.floats(min_value=-30.0, max_value=math.log10(1.8)),
    )
    @example(0.0, None, -1.0, -30.0)
    @example(0.0, (1.0, -14.0), 1.0, -20.0)
    @example(0.0, (-1.0, -7.0), 1.0, -10.0)
    def test_eta_against_80_digits_near_degeneracy(self, ln_a, split, sign, log_c):
        # A / B - 1 in +-10^[-15, -6] or exactly 0, and |C| / a >= 1e-30;
        # |C| / a <= 1.8 keeps K = sqrt(AB - C^2/4) itself accurate
        a = math.exp(ln_a)
        b = a if split is None else a * (1.0 + split[0] * 10.0**split[1])
        c = sign * 10.0**log_c * a
        d = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, a, b, c))
        expected = _eta_decimal(a, b, c)
        assert abs(abs(d.eta) - expected) <= 1e-14 * expected
        assert (d.eta < 0.0) == (a < b)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-300.0, max_value=math.log10(1.8)),
    )
    @example(0.0, -300.0)
    def test_equal_stiffness_against_atanh(self, ln_a, log_c):
        # A = B: e^{4 eta} = (2a + |C|) / (2a - |C|), so eta = 1/2 atanh(|C| / 2a),
        # down to |C| / a = 1e-300
        a = math.exp(ln_a)
        c = 10.0**log_c * a
        d = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, a, a, c))
        atanh = 0.5 * math.atanh(c / (a + a))
        assert abs(d.eta - atanh) <= 1e-14 * atanh

    @given(
        st.floats(min_value=-300.0, max_value=300.0),
        st.floats(min_value=-1e-12, max_value=1e-12),
        st.integers(min_value=0, max_value=4),
        st.sampled_from((-1.0, 1.0)),
    )
    @example(0.0, 2.220446049250313e-16, 0, 1.0)  # A = 1, B = 1 + 2^-52, C = 2
    def test_unbound_edge_is_finite_or_a_domain_error(self, ln_a, split, ulps, sign):
        # C at most 4 ulps below 2 sqrt(AB) with A and B within 1e-12:
        # A + B - |C| may round to 0 there, and no route may divide by it
        a = math.exp(ln_a)
        b = a * (1.0 + split)
        c = 2.0 * math.sqrt(a * b)
        for _ in range(ulps):
            c = math.nextafter(c, 0.0)
        try:
            d = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, a, b, sign * c))
        except DomainError:
            return
        assert all(math.isfinite(v) for v in d[:5])

    def test_mass_scale(self):
        d = oscillator.diagonalize(oscillator.CoupledHamiltonian(4.0, 9.0, 1.0, 1.0, 0.0))
        assert d.M == 6.0
        assert abs(d.omega - math.sqrt(d.K / d.M)) <= 1e-14 * d.omega


class TestReconstruct:
    def test_identity_rotation(self):
        d = oscillator.DiagonalizedSystem(M=1.0, K=1.0, omega=1.0, eta=0.0, alpha=0.0)
        a, b, c = oscillator.reconstruct(d)
        assert (a, b, c) == (1.0, 1.0, 0.0)

    def test_roundtrip_asymmetric(self):
        h = oscillator.CoupledHamiltonian(1.0, 1.0, 2.0, 1.0, 1.0)
        assert _rel_roundtrip_error(h) <= 1e-9

    def test_roundtrip_degenerate(self):
        h = oscillator.CoupledHamiltonian(1.0, 1.0, 1.0, 1.0, -0.5)
        assert _rel_roundtrip_error(h) <= 1e-6

    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=-0.85, max_value=0.85),
    )
    def test_roundtrip_random(self, a, b, c_frac):
        if abs(a - b) <= 1e-6 * (a + b):
            a = a * 1.01 + 0.01
        c = c_frac * 2.0 * math.sqrt(a * b)
        h = oscillator.CoupledHamiltonian(1.3, 0.7, a, b, c)
        assert _rel_roundtrip_error(h) <= 1e-9

    def test_unbound_edge_seeded(self):
        # C = +-2 sqrt(AB) up to rounding: 4AB - C^2 is a few ulps either
        # side of zero, where A + B - disc cancels to <= 0 when A < B
        rng = np.random.default_rng(2002)
        finite = 0
        for _ in range(2000):
            a, b = 10.0 ** rng.uniform(-3.0, 3.0, 2)
            c = float(rng.choice([-1.0, 1.0])) * 2.0 * math.sqrt(a * b)
            try:
                h = oscillator.CoupledHamiltonian(1.0, 1.0, a, b, c)
            except DomainError:
                continue
            assert math.isfinite(oscillator.diagonalize(h).eta)
            assert _rel_roundtrip_error(h) <= 1e-12
            finite += 1
        assert finite >= 100

    def test_near_tie_seeded(self):
        # 0 < |A - B| <= 1e-12 (A + B): the general route, no special case,
        # gives back A, B and C to within about an ulp of the largest
        rng = np.random.default_rng(38)
        for _ in range(2000):
            a = 10.0 ** rng.uniform(-3.0, 3.0)
            b = a * (1.0 + float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-16.0, -11.7))
            c = rng.uniform(-0.99, 0.99) * 2.0 * math.sqrt(a * b)
            if a != b:
                assert _rel_roundtrip_error(oscillator.CoupledHamiltonian(1.0, 1.0, a, b, c)) <= 1e-15

    def test_omega_consistency_enforced(self):
        with pytest.raises(DomainError):
            oscillator.DiagonalizedSystem(M=1.0, K=4.0, omega=1.0, eta=0.0, alpha=0.0)

    def test_negative_scales_rejected(self):
        # sqrt(K/M) = 2 = omega: only the sign check can refuse these
        with pytest.raises(DomainError, match="M and K must be positive"):
            oscillator.DiagonalizedSystem(-1.0, -4.0, 2.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "fields",
        [
            (math.inf, math.inf, 1.0, 0.0, 0.0),  # sqrt(inf/inf) is nan
            (1.0, math.inf, math.inf, 0.0, 0.0),
            (math.nan, 1.0, 1.0, 0.0, 0.0),
            (1.0, 1.0, math.nan, 0.0, 0.0),
            (1.0, 1.0, 1.0, math.nan, 0.0),
            (1.0, 1.0, 1.0, math.inf, 0.0),
            (1.0, 1.0, 1.0, 0.0, math.nan),
            (1.0, 1.0, 1.0, 0.0, -math.inf),
        ],
    )
    def test_nonfinite_fields_rejected(self, fields):
        with pytest.raises(DomainError, match="finite|omega"):
            oscillator.DiagonalizedSystem(*fields)
        with pytest.raises(DomainError, match="finite|omega"):
            oscillator.DiagonalizedSystem._make(fields)

    def test_replace_and_make_validate(self):
        with pytest.raises(DomainError, match="eta and alpha must be finite"):
            oscillator.DiagonalizedSystem._make((1.0, 1.0, 1.0, math.nan, 0.0))
        d = oscillator.DiagonalizedSystem(1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError, match="omega"):
            d._replace(K=4.0)
        assert d._replace(degenerate_branch=True).degenerate_branch is True

    def test_nonfinite_eta_from_diagonalize_rejected(self):
        # disc / 2K overflows, so e^{2 eta} is inf
        h = oscillator.CoupledHamiltonian(1.0, 1.0, 1.7e308, 1e-320, 0.0)
        with pytest.raises(DomainError, match="eta and alpha must be finite"):
            oscillator.diagonalize(h)

    def test_largest_stiffness_ratio_gives_finite_eta(self):
        # eta = 1/4 ln(A/B) at C = 0, where A + B + disc overflows but
        # disc / 2K does not (reference from 80-digit arithmetic)
        d = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, 1.7e308, 1e-300, 0.0))
        assert d.eta == 350.1255911978605 == _eta_decimal(1.7e308, 1e-300, 0.0)


class TestModePair:
    def test_normalization_constants(self):
        # the ulp ledger, against a 50-digit decimal reference, of the
        # Hermite norm N_k = sqrt(pi) k! 2^k with k! 2^k exact (off by at
        # most 1.01 ulps), of psi_0(0) = pi^{-1/4} (correctly rounded) and
        # of the coefficients sqrt(2/(j+1)) and sqrt(j/(j+1)) of the psi_k
        # recurrence, each the square root of a rounded quotient (at most
        # 0.75 ulp off)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            sqrt_pi = PI_50.sqrt()
            steps = scalars._psi_steps(scalars.N_MAX)
            pairs = [(scalars._PI_M_QUARTER, 1 / sqrt_pi.sqrt(), 0.5)]
            for k in range(scalars.N_MAX + 1):
                pairs.append((scalars._norm(k), sqrt_pi * (math.factorial(k) << k), 2))
            for j, (c1, c2) in enumerate(steps):
                pairs.append((c1, (decimal.Decimal(2) / (j + 1)).sqrt(), 0.75))
                pairs.append((c2, (decimal.Decimal(j) / (j + 1)).sqrt(), 0.75))
            for value, exact, ulps in pairs:
                ulp = decimal.Decimal(math.ulp(float(exact)))
                assert abs(decimal.Decimal(value) - exact) <= decimal.Decimal(ulps) * ulp, value

    def test_order_cap(self):
        with pytest.raises(DomainError):
            oscillator.ModePair(-1, 0)
        with pytest.raises(DomainError):
            oscillator.ModePair(0, 65)
        with pytest.raises(UnsupportedOrderError):
            oscillator.ModePair(65, 0)

    def test_stores_ints(self):
        mode = oscillator.ModePair(np.int64(3), 2)
        assert type(mode.n) is int and mode == (3, 2)
        assert type(mode._replace(m=np.int64(4)).m) is int
        with pytest.raises(UnsupportedOrderError):
            mode._replace(n=65)
        with pytest.raises(DomainError):
            oscillator.ModePair._make((1.0, 2))


class TestEnergy:
    def test_anchors(self):
        assert oscillator.energy(oscillator.ModePair(0, 0), 0.0) == 1.0
        assert oscillator.energy(oscillator.ModePair(2, 1), 0.0) == 4.0
        assert abs(oscillator.energy(oscillator.ModePair(0, 0), 0.5) - math.cosh(0.5)) < 1e-15

    def test_mode_swap_changes_energy_at_nonzero_eta(self):
        for n, m in ((0, 1), (1, 2), (0, 3)):
            e1 = oscillator.energy(oscillator.ModePair(n, m), 0.7)
            e2 = oscillator.energy(oscillator.ModePair(m, n), 0.7)
            assert e1 != e2

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, 1000.0, -1000.0, 709.0])
    def test_rejects_nonfinite_and_overflowing_eta(self, eta):
        # e^{709} is finite but times n + 1/2 = 64.5 it is not
        with pytest.raises(DomainError):
            oscillator.energy(oscillator.ModePair(64, 64), eta)

    def test_largest_finite_energy_is_returned(self):
        e = oscillator.energy(oscillator.ModePair(0, 0), 709.0)
        assert math.isfinite(e) and e == 0.5 * math.exp(709.0) + 0.5 * math.exp(-709.0)


def _norm_2d(mode, eta, space, alpha_deg=45.0, half_width=12.0):
    nodes, weights = oracles.panel_rule_loop(24, np.linspace(-half_width, half_width, 13))
    psi = oscillator.wavefunction(
        mode, eta, space, nodes[:, None], nodes[None, :], alpha_deg=alpha_deg
    )
    return 0.5 * float(weights @ (psi * psi) @ weights)


class TestWavefunction:
    def test_ground_state_at_origin(self):
        value = oscillator.wavefunction(oscillator.ModePair(0, 0), 0.0, "position", 0.0, 0.0)
        assert abs(value - 1.0 / math.sqrt(math.pi)) < 1e-15

    def test_difference_coordinate_parity_is_exact(self):
        rng = np.random.default_rng(7)
        for n, m in ((1, 0), (2, 2), (3, 1)):
            mode = oscillator.ModePair(n, m)
            for _ in range(5):
                up, um = rng.uniform(-3, 3, size=2)
                plus = oscillator.wavefunction(mode, 0.3, "position", up, um)
                minus = oscillator.wavefunction(mode, 0.3, "position", up, -um)
                assert minus == (-1.0) ** n * plus

    def test_2d_normalization_with_half_jacobian(self):
        assert abs(_norm_2d(oscillator.ModePair(1, 0), 0.4, "position") - 1.0) <= 1e-8

    def test_momentum_normalization(self):
        assert abs(_norm_2d(oscillator.ModePair(2, 1), 0.6, "momentum") - 1.0) <= 1e-8

    def test_negative_alpha_branch_normalized(self):
        assert abs(_norm_2d(oscillator.ModePair(2, 1), 0.5, "position", alpha_deg=-45.0) - 1.0) <= 1e-8

    def test_rejects_general_alpha(self):
        with pytest.raises(UnsupportedRegimeError):
            oscillator.wavefunction(oscillator.ModePair(0, 0), 0.1, "position", 0.0, 0.0, alpha_deg=30.0)

    @pytest.mark.parametrize("alpha_deg", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, alpha_deg):
        # a nan angle compares false with everything, so no branch may be its default
        with pytest.raises(UnsupportedRegimeError):
            oscillator.wavefunction(
                oscillator.ModePair(0, 0), 0.1, "position", 0.0, 0.0, alpha_deg=alpha_deg
            )

    def test_rejects_nan_eta(self):
        # without the check every factor, and so the value, would be nan
        with pytest.raises(DomainError, match="eta must be finite"):
            oscillator.wavefunction(oscillator.ModePair(0, 0), math.nan, "position", 0.0, 0.0)

    def test_rejects_unknown_space(self):
        with pytest.raises(DomainError):
            oscillator.wavefunction(oscillator.ModePair(0, 0), 0.1, "phase", 0.0, 0.0)

    def test_broadcasting_shape(self):
        grid = np.linspace(-1.0, 1.0, 5)
        values = oscillator.wavefunction(
            oscillator.ModePair(1, 1), 0.2, "position", grid[:, None], grid[None, :]
        )
        assert values.shape == (5, 5)

    @pytest.mark.parametrize("space", ["position", "momentum"])
    @pytest.mark.parametrize("alpha_deg", [45.0, -45.0])
    def test_tensor_grid_equals_broadcast_grid_bit_for_bit(self, space, alpha_deg):
        # each Hermite factor is evaluated on its own axis before the
        # product broadcasts; the values are those of the full grid, with
        # far-out points where H_n overflows and the Gaussian underflows
        grid = np.concatenate((np.linspace(-8.0, 8.0, 77), [-5e4, -40.0, 40.0, 5e4]))
        for n, m in ((0, 0), (3, 1), (12, 11), (64, 40)):
            mode = oscillator.ModePair(n, m)
            outer = oscillator.wavefunction(
                mode, 0.4, space, grid[:, None], grid[None, :], alpha_deg
            )
            full = oscillator.wavefunction(
                mode, 0.4, space, *np.broadcast_arrays(grid[:, None], grid[None, :]), alpha_deg
            )
            assert outer.shape == (81, 81)
            assert outer.tobytes() == full.tobytes()

    def test_far_tail_point(self):
        # c_n c_m e^{-(a1^2 + a2^2)/2} underflows here before H_n H_m
        # could restore it; the per-axis factors do not (reference from
        # 60-digit arithmetic)
        value = oscillator.wavefunction(oscillator.ModePair(33, 7), -2.0, "position", -19.0, -54.0)
        assert abs(value - 1.4435363662537536e-299) <= 1e-11 * 1.4435363662537536e-299

    def test_tail_grid_against_log_domain_oracle(self):
        # the grid of wavefunction --n 33 --m 7 --eta -2 --u-min=-60
        # --u-max=60 --steps 121, by the array route and by the CLI's
        # per-axis lists, wherever the true value is at least 1e-300
        mode = oscillator.ModePair(33, 7)
        grid = np.linspace(-60.0, 60.0, 121)
        ln1, sign1 = oracles.log_hermite_function(33, math.exp(-1.0) / math.sqrt(2.0) * grid)
        ln2, sign2 = oracles.log_hermite_function(7, math.exp(1.0) / math.sqrt(2.0) * grid)
        ln = ln2[:, None] + ln1[None, :]
        expected = np.outer(sign2, sign1) * np.exp(ln)
        f1, f2 = oscillator._wavefunction_axes(mode, -2.0, "position", grid.tolist())
        routes = (
            oscillator.wavefunction(mode, -2.0, "position", grid[:, None], grid[None, :]),
            np.outer(f2, f1),
        )
        checked = ln >= math.log(1e-300)
        assert checked.sum() > 4000
        for got in routes:
            error = np.abs(got - expected)[checked]
            assert np.all(error <= 1e-11 * np.abs(expected[checked]))
