import hashlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seec import _kernels, criterion, quadrature, scalars, specfun, verification
from seec.errors import DomainError, UnsupportedOrderError

from oracles import (
    density_entropy,
    gauss_entropy,
    hermite_polynomial,
    log_hermite_function,
    uniform_panel_integral,
)

SQRT_PI = scalars._SQRT_PI
LN_2PI_E = math.log(2.0 * math.pi) + 1.0
EULER_GAMMA = scalars._EULER_GAMMA

# 40-digit references
S_REFERENCE = {
    0: 1.0723649429247000871,
    1: 1.3427277883861782571,
    2: 1.4986092332517278406,
    3: 1.6097118413016531148,
    4: 1.6965506306803752611,
    5: 1.7680612532383330453,
}
ETA0_REFERENCE = {
    (1, 0): 0.270362845461478,
    (1, 1): 0.540725690922956,
    (2, 1): 0.696607135788506,
    (2, 2): 0.852488580654056,
    (3, 3): 1.07469379675391,
    (4, 2): 1.0504299780827,
}
H_W_MINUS_00 = 1.4189385332046727418  # 0.5 ln(2 pi e)
H_W_MINUS_1M = 1.6893013786661509118  # ln(2 sqrt(pi)) + gamma - 1/2 + ln(sqrt 2)


class TestScalingTransform:
    """The mode scale t = e^{eta/2}/sqrt(2) of scalars._mode_scale."""

    def test_maps(self):
        assert abs(scalars._mode_scale(0.0) - 1.0 / math.sqrt(2.0)) < 1e-16
        # the marginals are functions of z1 = t x- and p2 = t p+: at order 1
        # the density is proportional to z^2 e^{-z^2}
        t = scalars._mode_scale(0.6)
        for side in ("w_minus", "v_plus"):
            ratio = criterion.marginal(side, 1, 1, 0.6, 2.0) / criterion.marginal(side, 1, 1, 0.6, 1.0)
            z1, z2 = t * 1.0, t * 2.0
            expected = (z2 * z2 * math.exp(-z2 * z2)) / (z1 * z1 * math.exp(-z1 * z1))
            assert abs(ratio - expected) <= 1e-13 * expected

    def test_scale_product_is_unity(self):
        for eta in (-1.0, 0.0, 0.7, 2.0):
            t = scalars._mode_scale(eta)
            assert (2.0 * t) * (1.0 / (2.0 * t)) == 1.0
            # the other mode's scale is e^{-eta/2}/sqrt(2)
            assert abs(2.0 * t * scalars._mode_scale(eta, -1.0) - 1.0) <= 1e-15

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError, match="finite"):
            criterion.marginal("w_minus", 0, 0, math.inf, 0.0)
        with pytest.raises(DomainError, match="^coordinates must be finite$"):
            criterion.marginal("w_minus", 0, 0, 0.0, [0.0, math.nan])
        with pytest.raises(DomainError, match="overflows, got -1500.0"):
            scalars._mode_scale(-1500.0, -1.0)
        with pytest.raises(DomainError, match="overflows"):
            criterion.marginal("v_plus", 0, 0, 1500.0, 0.0)


class TestIntegralBundle:
    """The integrals of the entropy expansion H = -(q/t){(ln q) I1 + I2 + I3}
    and the marginal prefactors q_nm, r_nm, pinned where they are still
    computed: verify's rows, the quadrature and closed form behind the
    reported entropies, and marginal."""

    def test_closed_forms(self):
        # I1 = 2^n n! sqrt(pi) and I2 = -I1 (n + 1/2) as verify's references
        rows = {c.name: c for c in verification.collect_checks(2)}
        for n, norm in ((1, 2.0 * SQRT_PI), (2, 8.0 * SQRT_PI)):
            assert abs(rows[f"I1[{n}]"].reference - norm) <= 1e-12 * norm
            assert abs(rows[f"I2[{n}]"].reference + norm * (n + 0.5)) <= 1e-12 * norm * (n + 0.5)
            assert rows[f"I1[{n}]"].status == rows[f"I2[{n}]"].status == "ok"

    def test_i2_anchor_order_one(self):
        row = {c.name: c for c in verification.collect_checks(1)}["I2[1]"]
        assert abs(row.reference + 3.0 * SQRT_PI) <= 1e-12 * 3.0 * SQRT_PI
        assert abs(row.value + 3.0 * SQRT_PI) <= 1e-10 * 3.0 * SQRT_PI

    def test_i3_zero_at_ground_state(self):
        assert quadrature.entropy_integral_numeric(0) == 0.0
        assert criterion.standard_entropy(0) == criterion._entropy_from_i3(0, 0.0)

    def test_quadrature_is_normative_source(self):
        rep = criterion.criterion_f(3, 2, 0.4)
        ln_t = criterion._ln_t(0.4)
        for h, k in ((rep.H_w_minus, 3), (rep.H_v_plus, 2)):
            assert h == criterion._entropy_from_i3(k, quadrature.entropy_integral_numeric(k)) - ln_t

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (7, 0), (12, 32)])
    def test_closed_form_recorded_at_every_order(self, n, m):
        closed = {k: specfun.entropy_integral_closed_form(k) for k in (n, m)}
        for k, i3 in closed.items():
            reference = quadrature.entropy_integral_numeric(k)
            assert abs(i3 - reference) <= 1e-12 * max(1.0, abs(reference))
        delta = max(criterion._oracle_delta(k, i3) for k, i3 in closed.items())
        assert criterion.criterion_f(n, m, 0.0).oracle_delta == delta

    def test_prefactor_matches_expanded_constant(self):
        # q_nm = t I0 / (pi n! m! 2^{n+m}) with I0 = 2^m m! sqrt(pi); r_nm mirror
        u = np.array([-1.3, 0.2, 0.9])
        for n, m, eta in ((0, 0, 0.0), (2, 1, 0.5), (3, 4, -0.3)):
            t = scalars._mode_scale(eta)
            denom = math.pi * math.factorial(n) * math.factorial(m) * 2.0 ** (n + m)
            for side, k, other in (("w_minus", n, m), ("v_plus", m, n)):
                pref = t * 2.0**other * math.factorial(other) * SQRT_PI / denom
                z = t * u
                h = hermite_polynomial(k, z)
                np.testing.assert_allclose(
                    criterion.marginal(side, n, m, eta, u), pref * np.exp(-z * z) * h * h,
                    rtol=1e-13,
                )

    def test_order_cap(self):
        criterion.criterion_f(scalars.N_MAX, 0, 0.0)
        with pytest.raises(UnsupportedOrderError):
            criterion.criterion_f(scalars.N_MAX + 1, 0, 0.0)
        with pytest.raises(UnsupportedOrderError):
            criterion.marginal("v_plus", 0, scalars.N_MAX + 1, 0.0, 0.0)


class TestMarginal:
    def test_ground_state_is_standard_normal(self):
        value = criterion.marginal("w_minus", 0, 0, 0.0, 0.0)
        assert abs(value - 0.39894228040143267794) <= 1e-14
        xs = np.linspace(-4, 4, 9)
        np.testing.assert_allclose(
            criterion.marginal("w_minus", 0, 0, 0.0, xs),
            np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi),
            rtol=1e-13,
        )

    def test_parity_even_order(self):
        for u in (0.3, 1.1, 2.7):
            assert criterion.marginal("w_minus", 2, 1, 0.4, u) == criterion.marginal(
                "w_minus", 2, 1, 0.4, -u
            )

    def test_nonnegative(self):
        # far out H_32 overflows where the Gaussian underflows to 0
        xs = np.append(np.linspace(-8, 8, 401), 1e10)
        for n, m in ((3, 2), (32, 32)):
            assert np.all(criterion.marginal("w_minus", n, m, 0.6, xs) >= 0.0)
            assert np.all(criterion.marginal("v_plus", n, m, 0.6, xs) >= 0.0)
        # at eta = 5, t ~ 8.6, so t u itself overflows at u = 1e308: the
        # density is exactly 0 there, with no overflow warning
        xs = np.append(xs, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for side in ("w_minus", "v_plus"):
                values = criterion.marginal(side, 3, 2, 5.0, xs)
                assert np.all(values >= 0.0) and values[-1] == 0.0
                value = criterion.marginal(side, scalars.N_MAX, scalars.N_MAX, 5.0, 1e308)
                assert type(value) is float and value == 0.0

    def test_far_tail_point(self):
        # c_k^2 e^{-z^2} underflows here before H_k^2 could restore it; one
        # factor psi_k does not (reference from 60-digit arithmetic)
        value = criterion.marginal("w_minus", 64, 64, 0.0, 32.0)
        assert abs(value - 9.362550814329894e-122) <= 1e-11 * 9.362550814329894e-122

    @pytest.mark.parametrize("k", [33, 64])
    def test_tail_against_log_domain_oracle(self, k):
        # t psi_k(t u)^2 on u in [0, 40] at eta = 0, wherever the true value
        # is at least 1e-300
        u = np.linspace(0.0, 40.0, 401)
        t = 1.0 / math.sqrt(2.0)
        ln_psi, _ = log_hermite_function(k, t * u)
        ln = math.log(t) + 2.0 * ln_psi
        expected = np.exp(ln)
        checked = ln >= math.log(1e-300)
        assert checked.sum() > 350
        for side, n, m in (("w_minus", k, 0), ("v_plus", 0, k)):
            error = np.abs(criterion.marginal(side, n, m, 0.0, u) - expected)[checked]
            assert np.all(error <= 1e-11 * expected[checked])

    def test_normalization_against_uniform_panels(self):
        # independent oracle: equal panels, no root splitting
        total = uniform_panel_integral(
            lambda u: criterion.marginal("w_minus", 3, 1, 0.7, u), -15.0, 15.0
        )
        assert abs(total - 1.0) <= 1e-8
        total_v = uniform_panel_integral(
            lambda u: criterion.marginal("v_plus", 3, 1, 0.7, u), -15.0, 15.0
        )
        assert abs(total_v - 1.0) <= 1e-8

    def test_rejects_unknown_side(self):
        with pytest.raises(DomainError):
            criterion.marginal("w_plus", 0, 0, 0.0, 0.0)

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (3, 2), (7, 32)])
    @pytest.mark.parametrize("eta", [-1.3, 0.0, 0.4, 5.0])
    def test_sides_swap_with_the_orders(self, n, m, eta):
        # each side reads only its own order, through the same scale and norm
        u = np.append(np.linspace(-9.0, 9.0, 181), [1e-300, 40.0])
        v_plus = criterion.marginal("v_plus", n, m, eta, u)
        assert v_plus.tobytes() == criterion.marginal("w_minus", m, n, eta, u).tobytes()
        assert criterion.marginal("v_plus", n, m, eta, 0.7) == criterion.marginal(
            "w_minus", m, n, eta, 0.7
        )


class TestShannonEntropy:
    """The marginal entropies H[w-] and H[v+] that criterion_f reports."""

    def test_ground_state_anchor(self):
        rep = criterion.criterion_f(0, 0, 0.0)
        for h in (rep.H_w_minus, rep.H_v_plus):
            assert abs(h - H_W_MINUS_00) <= 1e-10
            assert abs(h - gauss_entropy(1.0)) <= 1e-10

    def test_first_excited_anchor(self):
        for k in (0, 2, 5):
            assert abs(criterion.criterion_f(1, k, 0.0).H_w_minus - H_W_MINUS_1M) <= 1e-8
            assert abs(criterion.criterion_f(k, 1, 0.0).H_v_plus - H_W_MINUS_1M) <= 1e-8

    def test_eta_shift_is_half_eta(self):
        for n, m in ((0, 0), (2, 1), (4, 4)):
            base = criterion.criterion_f(n, m, 0.0)
            for eta in (0.3, 1.0, -0.8):
                shifted = criterion.criterion_f(n, m, eta)
                assert abs((shifted.H_w_minus - base.H_w_minus) + 0.5 * eta) <= 1e-12
                assert abs((shifted.H_v_plus - base.H_v_plus) + 0.5 * eta) <= 1e-12

    def test_against_direct_entropy_oracle(self):
        # 1024 uniform panels: enough to push the oracle's own error at the
        # density zeros (t^2 ln t behaviour) below the 1e-8 comparison
        cases = ((0, 0, 0.0), (1, 1, 0.0), (2, 1, 0.5), (3, 2, -0.3))
        for n, m, eta in cases:
            rep = criterion.criterion_f(n, m, eta)
            for side, h in (("w_minus", rep.H_w_minus), ("v_plus", rep.H_v_plus)):
                direct = density_entropy(
                    lambda u, side=side: criterion.marginal(side, n, m, eta, u),
                    -16.0, 16.0, panels=1024,
                )
                assert abs(h - direct) <= 1e-8, (n, m, eta, side)


class TestStandardEntropy:
    @pytest.mark.parametrize("k,expected", sorted(S_REFERENCE.items()))
    def test_reference_values(self, k, expected):
        assert abs(criterion.standard_entropy(k) - expected) <= 1e-10

    def test_analytic_anchors(self):
        assert abs(criterion.standard_entropy(0) - 0.5 * math.log(math.pi * math.e)) <= 1e-10
        s1 = math.log(2.0 * SQRT_PI) + EULER_GAMMA - 0.5
        assert abs(criterion.standard_entropy(1) - s1) <= 1e-8

    def test_monotone_growth(self):
        values = [criterion.standard_entropy(k) for k in range(9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_validates_before_the_cache(self):
        # a spelling that is not an order must not index the table: True would
        # read S_1 and np.array(3) S_3
        criterion.standard_entropy(3)
        criterion.standard_entropy(1)
        for bad in (3.0, True, np.True_, np.array(3), np.float64(3.0)):
            with pytest.raises(DomainError):
                criterion.standard_entropy(bad)

    def test_integer_spellings_read_the_table(self):
        for k in (4, np.int64(4), np.int32(4)):
            assert criterion.standard_entropy(k) == scalars.S_TABLE[4]
        for bad in (4.0, True, np.True_, np.array(4), -1, scalars.N_MAX + 1):
            with pytest.raises(DomainError):
                criterion.standard_entropy(bad)

    def test_reads_agree_across_threads(self):
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(criterion.standard_entropy, [3] * 64))
        assert results == [scalars.S_TABLE[3]] * 64


class TestEntropyTable:
    def test_one_entry_per_mode_order(self):
        assert len(scalars.S_TABLE) == scalars.N_MAX + 1

    def test_every_entry_is_below_the_gaussian_bound(self):
        # the level-k density has variance k + 1/2, and no density of that
        # variance has more entropy than the Gaussian's 1/2 ln(pi e (2k + 1));
        # only the ground state is Gaussian.  Exact, with no quadrature
        for k, s_k in enumerate(scalars.S_TABLE):
            bound = 0.5 * math.log(math.pi * math.e * (2 * k + 1))
            if k == 0:
                assert abs(s_k - bound) <= 4 * math.ulp(bound)
            else:
                assert bound - s_k >= 0.27, k

    def test_threshold_is_below_the_variance_threshold(self):
        # eta0(n, m) <= 1/2 ln((2n + 1)(2m + 1)), the same bound on the
        # excess entropies: the product-variance criterion never detects first
        for n in range(scalars.N_MAX + 1):
            for m in range(scalars.N_MAX + 1):
                eta_var = 0.5 * math.log((2 * n + 1) * (2 * m + 1))
                assert criterion.threshold_eta0(n, m) <= eta_var, (n, m)

    @pytest.mark.parametrize("k", range(scalars.N_MAX + 1))
    def test_is_the_default_quadrature_bit_for_bit(self, k):
        # the assumption tests/test_golden.py makes: the quadrature rounds
        # here as it did where the table was written
        i3 = quadrature.entropy_integral_numeric(k, scalars.DEFAULT_PANEL_ORDER)
        assert scalars.S_TABLE[k] == criterion._entropy_from_i3(k, i3)

    @pytest.mark.parametrize("k", range(scalars.N_MAX + 1))
    def test_closed_form_table_is_the_live_closed_form_bit_for_bit(self, k):
        assert len(scalars.I3_CLOSED_TABLE) == scalars.N_MAX + 1
        assert scalars.I3_CLOSED_TABLE[k] == specfun.entropy_integral_closed_form(k)

    def test_oracle_delta_is_the_live_one(self):
        # criterion_f reads the tables; the live route gives the same bits
        live = [
            criterion._oracle_delta(k, specfun.entropy_integral_closed_form(k))
            for k in range(scalars.N_MAX + 1)
        ]
        for n in range(scalars.N_MAX + 1):
            for m in range(scalars.N_MAX + 1):
                assert criterion.criterion_f(n, m, 0.25).oracle_delta == max(live[n], live[m])


class TestClosedFormOracle:
    def test_collect_checks_computes_each_order_once(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return closed_form(n)

        closed_form = specfun.entropy_integral_closed_form
        monkeypatch.setattr(specfun, "entropy_integral_closed_form", counted)
        checks = verification.collect_checks(4)
        criterion.criterion_f(2, 1, 0.3)
        assert calls == [0, 1, 2, 3, 4]
        names = {c.name: c for c in checks}
        for n in range(5):
            assert names[f"I3closed[{n}]"].normative and names[f"I3closed[{n}]"].status == "ok"
            assert names[f"S_closed_delta[{n}]"].normative
            assert names[f"S_closed_delta[{n}]"].status == "ok"
            assert names[f"I3closed_table[{n}]"].normative
            assert names[f"I3closed_table[{n}]"].status == "ok"


class TestNormalizationRows:
    def test_one_integral_per_side_order_and_eta(self, monkeypatch):
        calls = []
        residual = verification._marginal_residual

        def counted(side, order, eta, rule):
            calls.append((side, order, eta))
            return residual(side, order, eta, rule)

        monkeypatch.setattr(verification, "_marginal_residual", counted)
        checks = verification.collect_checks(12)
        # sides x orders 0..5 x two etas, each once
        assert len(calls) == len(set(calls)) == 2 * 6 * 2
        rows = [c for c in checks if c.name.startswith("norm_")]
        assert len(rows) == 2 * 6 * 6 * 2
        # every row as its own integral over the marginal of its (n, m)
        sides = {"w": "w_minus", "v": "v_plus"}
        for row in rows:
            tag, rest = row.name[len("norm_"):].split("[")
            nm, eta = rest.rstrip("]").split(",eta=")
            n, m = (int(k) for k in nm.split(","))
            eta = float(eta)
            order = n if tag == "w" else m
            t = scalars._mode_scale(eta)
            # the rule raveled to one panel, as verify sums it
            edges = quadrature._entropy_panel_boundaries(order) / t
            nodes, weights = specfun._panel_nodes(32, edges)
            density = criterion.marginal(sides[tag], n, m, eta, nodes.ravel())
            total = _kernels.panel_sum(weights.ravel() * density)
            assert row.value == 1.0 + abs(total - 1.0), row.name
            assert row.status == "ok"


class TestCriterionF:
    def test_ground_state_line_is_exact(self):
        for eta in np.arange(0.0, 2.01, 0.25):
            rep = criterion.criterion_f(0, 0, float(eta))
            assert rep.f == -float(eta)

    def test_paper_scale_thresholds(self):
        assert abs(criterion.criterion_f(1, 1, 0.0).f - 0.541) <= 2e-3
        assert abs(criterion.criterion_f(2, 2, 0.0).f - 0.852) <= 2e-3
        assert abs(criterion.criterion_f(3, 3, 0.0).f - 1.07) <= 1e-2

    def test_report_consistency(self):
        rep = criterion.criterion_f(2, 1, 0.8)
        parts = rep.H_w_minus + rep.H_v_plus - LN_2PI_E
        assert abs(rep.f - parts) <= 1e-13
        assert abs(rep.f - (rep.eta0 - rep.eta)) == 0.0
        assert rep.entangled == (rep.f < 0.0)
        alt_parts = (
            criterion.standard_entropy(rep.m)
            + criterion.standard_entropy(rep.n)
            + math.log(2.0)
            + rep.eta
            - LN_2PI_E
        )
        assert abs(rep.alt_f - alt_parts) <= 1e-12

    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    def test_linearity(self, n, m, eta):
        f_eta = criterion.criterion_f(n, m, eta).f
        f_zero = criterion.criterion_f(n, m, 0.0).f
        assert abs(f_eta - (f_zero - eta)) <= 1e-9

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (2, 2), (2, 1), (12, 5), (32, 32)])
    def test_oracle_delta_bounded_at_every_order(self, n, m):
        delta = criterion.criterion_f(n, m, 0.2).oracle_delta
        assert isinstance(delta, float)
        assert 0.0 <= delta <= 1e-10

    def test_rejects_nonfinite_eta(self):
        with pytest.raises(DomainError):
            criterion.criterion_f(0, 0, math.nan)

    def test_every_field_of_the_table_is_pinned(self):
        # the repr of each field of every report over the 33x33 mode pairs
        # n, m <= 32 at three couplings, hashed
        digest = hashlib.sha256()
        for n in range(33):
            for m in range(33):
                for eta in (-1.3, 0.0, 0.4):
                    digest.update(repr(tuple(criterion.criterion_f(n, m, eta))).encode())
        assert digest.hexdigest() == (
            "59bb009c174772319b07fae8512200487b4e00d2dd2167371899c7caf7bc33d9"
        )

    def test_finite_where_the_scale_overflows(self):
        rep = criterion.criterion_f(1, 2, 2000.0)  # e^{eta/2} overflows a double
        assert rep.f == criterion.threshold_eta0(1, 2) - 2000.0
        assert math.isfinite(rep.H_w_minus) and math.isfinite(rep.H_v_plus)


class TestCriterionCurve:
    @pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (3, 2), (32, 7)])
    def test_matches_pointwise_reports(self, n, m):
        etas = np.concatenate([np.linspace(-3.0, 3.0, 61), [0.0, -0.0, 1e-300, 1e308]])
        f, entangled = criterion.criterion_curve(n, m, etas)
        reports = [criterion.criterion_f(n, m, eta) for eta in etas.tolist()]
        assert f.tolist() == [r.f for r in reports]
        assert entangled.tolist() == [r.entangled for r in reports]

    def test_validates_once(self):
        with pytest.raises(DomainError):
            criterion.criterion_curve(0, 0, [0.0, math.inf])
        with pytest.raises(UnsupportedOrderError):
            criterion.criterion_curve(scalars.N_MAX + 1, 0, [0.0])


class TestThreshold:
    def test_ground_state_is_exact_zero(self):
        assert criterion.threshold_eta0(0, 0) == 0.0

    @pytest.mark.parametrize("pair,expected", sorted(ETA0_REFERENCE.items()))
    def test_reference_values(self, pair, expected):
        assert abs(criterion.threshold_eta0(*pair) - expected) <= 1e-9

    def test_symmetry(self):
        for n in range(9):
            for m in range(9):
                assert criterion.threshold_eta0(n, m) == criterion.threshold_eta0(m, n)

    def test_monotone_in_each_quantum_number(self):
        for n in range(7):
            for m in range(8):
                assert criterion.threshold_eta0(n + 1, m) > criterion.threshold_eta0(n, m)

    def test_decomposition_identity(self):
        for n, m in ((0, 0), (1, 1), (3, 2), (5, 5), (8, 4)):
            direct = (
                criterion.standard_entropy(n)
                + criterion.standard_entropy(m)
                + math.log(2.0)
                - LN_2PI_E
            )
            assert abs(criterion.threshold_eta0(n, m) - direct) <= 1e-9

    def test_analytic_value_for_11(self):
        analytic = 2.0 * (math.log(2.0 * SQRT_PI) + EULER_GAMMA - 0.5) + math.log(2.0) - LN_2PI_E
        assert abs(criterion.threshold_eta0(1, 1) - analytic) <= 1e-8


class TestVarianceThreshold:
    def test_ground_state_is_exact_zero(self):
        assert criterion.variance_threshold(0, 0) == 0.0

    def test_values_and_symmetry(self):
        for n in range(9):
            for m in range(9):
                expected = 0.5 * (math.log(2 * n + 1) + math.log(2 * m + 1))
                got = criterion.variance_threshold(n, m)
                assert abs(got - expected) <= 1e-15 * max(1.0, expected)
                assert got == criterion.variance_threshold(m, n)

    @pytest.mark.parametrize("pair,ratio", [((1, 0), 0.49), ((2, 2), 0.53), ((64, 64), 0.70)])
    def test_ratio_of_the_thresholds(self, pair, ratio):
        got = criterion.threshold_eta0(*pair) / criterion.variance_threshold(*pair)
        assert round(got, 2) == ratio

    def test_order_checked(self):
        with pytest.raises(UnsupportedOrderError):
            criterion.variance_threshold(scalars.N_MAX + 1, 0)
        with pytest.raises(DomainError):
            criterion.variance_threshold(1.0, 0)


class TestGaussianBoundRows:
    def test_one_row_per_order_equality_at_zero(self):
        checks = {c.name: c for c in verification.collect_checks(12)}
        for k in range(13):
            row = checks[f"S_gauss_bound[{k}]"]
            assert row.status == "ok" and row.value == scalars.S_TABLE[k]
            assert row.reference == 0.5 * math.log(math.pi * math.e * (2 * k + 1))
            if k == 0:
                assert abs(row.value - row.reference) <= 4 * math.ulp(row.reference)
            else:
                assert row.reference - row.value >= 0.27 and row.delta == 0.0

    def test_an_entropy_above_the_bound_fails(self):
        bound = 1.0
        assert verification._check_at_most("x", bound - 0.5, bound, 1e-15).status == "ok"
        over = verification._check_at_most("x", bound + 1e-12, bound, 1e-15)
        assert over.status == "FAIL" and over.delta == bound + 1e-12 - bound


class TestIsEntangled:
    def test_ground_state_weak_coupling(self):
        assert criterion.is_entangled(0, 0, 0.1)

    def test_below_threshold(self):
        assert not criterion.is_entangled(1, 1, 0.5)  # 0.5 < 0.5407...

    def test_above_threshold(self):
        assert criterion.is_entangled(1, 1, 0.6)

    def test_no_coupling_never_entangled(self):
        for n in range(6):
            for m in range(6):
                assert not criterion.is_entangled(n, m, 0.0)
