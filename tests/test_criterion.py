import hashlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seec import _kernels, _tables, criterion, quadrature, scalars, verification
from seec.errors import DomainError, UnsupportedOrderError

from oracles import (
    density_entropy,
    gauss_entropy,
    hermite_polynomial,
    log_hermite_function,
    uniform_panel_integral,
    whole_line,
)
from test_reference import S_REFERENCE

SQRT_PI = scalars._SQRT_PI
LN_2PI_E = math.log(2.0 * math.pi) + 1.0
EULER_GAMMA = scalars._EULER_GAMMA

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


def _s_table_tol(s_k):
    # verify's bound on a frozen S_k against its live quadrature
    return verification.S_TABLE_ULPS * math.ulp(s_k)


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
    computed: verify's rows, the quadrature behind the reported entropies,
    and marginal."""

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
        # I3(0) = 0 and S_0 = ln sqrt(pi) + 1/2 exactly.  I3 is derived from
        # the direct S_0, I3(0) = N_0 (ln N_0 + 1/2 - S_0), which carries the
        # few ulps S_0 is off by, scaled by N_0 = sqrt(pi)
        norm = scalars._norm(0)
        base = math.log(norm) + 0.5
        assert abs(quadrature.entropy_integral_numeric(0)) <= 8 * math.ulp(norm * base)
        assert abs(criterion.standard_entropy(0) - base) <= 4 * math.ulp(base)

    def test_quadrature_is_normative_source(self):
        rep = criterion.criterion_f(3, 2, 0.4)
        ln_t = criterion._ln_t(0.4)
        for h, k in ((rep.H_w_minus, 3), (rep.H_v_plus, 2)):
            assert h == _tables.S_TABLE[k] - ln_t
            live = quadrature._entropy(k, scalars.DEFAULT_PANEL_ORDER)
            assert abs(_tables.S_TABLE[k] - live) <= _s_table_tol(live)

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
        # e^{-z^2} / (sqrt(pi) k! 2^k) underflows here before H_k^2 could
        # restore it; psi_k from its normalized recurrence, squared last,
        # does not (reference from 60-digit arithmetic)
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
    @pytest.mark.parametrize("k,expected", sorted((k, float(s)) for k, s in S_REFERENCE.items()))
    def test_reference_values(self, k, expected):
        # the frozen table is the exact S_k correctly rounded, and so each
        # 20-digit value rounded to a double
        assert criterion.standard_entropy(k) == expected

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
            assert criterion.standard_entropy(k) == _tables.S_TABLE[4]
        for bad in (4.0, True, np.True_, np.array(4), -1, scalars.N_MAX + 1):
            with pytest.raises(DomainError):
                criterion.standard_entropy(bad)

    def test_reads_agree_across_threads(self):
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(criterion.standard_entropy, [3] * 64))
        assert results == [_tables.S_TABLE[3]] * 64


class TestEntropyTable:
    def test_one_entry_per_mode_order(self):
        assert len(_tables.S_TABLE) == scalars.N_MAX + 1

    def test_every_entry_is_below_the_gaussian_bound(self):
        # the level-k density has variance k + 1/2, and no density of that
        # variance has more entropy than the Gaussian's 1/2 ln(pi e (2k + 1));
        # only the ground state is Gaussian.  Exact, with no quadrature
        for k, s_k in enumerate(_tables.S_TABLE):
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

    # The table holds the exact S_k correctly rounded, not any CPU's
    # quadrature, so each entry is held to its live route at verify's
    # stated bound, on numpy's AVX-512 and AVX2 paths alike
    @pytest.mark.parametrize("k", range(scalars.N_MAX + 1))
    def test_is_the_default_quadrature_bit_for_bit(self, k):
        live = quadrature._entropy(k, scalars.DEFAULT_PANEL_ORDER)
        assert abs(_tables.S_TABLE[k] - live) <= _s_table_tol(live)

    def test_verify_bound_is_the_measured_worst_rounded_up(self):
        # a more accurate live route must bring verify's bound down with it
        # (6.0 ulps at k = 54 on both numpy paths)
        worst = 0.0
        for k, s_k in enumerate(_tables.S_TABLE):
            live = quadrature._entropy(k, scalars.DEFAULT_PANEL_ORDER)
            worst = max(worst, abs(s_k - live) / math.ulp(live))
        assert math.ceil(worst) == verification.S_TABLE_ULPS

    def test_oracle_delta_is_the_ledger_bound(self):
        # how far the larger of the two entries can be off the exact S_k:
        # S_TABLE_REF_ULPS of its ulps, the bound tests/test_reference.py
        # holds the table to
        for n in range(scalars.N_MAX + 1):
            for m in range(scalars.N_MAX + 1):
                larger = max(_tables.S_TABLE[n], _tables.S_TABLE[m])
                reported = criterion.criterion_f(n, m, 0.25).oracle_delta
                assert reported == scalars.S_TABLE_REF_ULPS * math.ulp(larger)


class TestNormalizationRows:
    def test_one_integral_per_side_order_and_eta(self, monkeypatch):
        calls = []
        residual = verification._marginal_residual

        def counted(order, eta):
            calls.append((order, eta))
            return residual(order, eta)

        monkeypatch.setattr(verification, "_marginal_residual", counted)
        checks = verification.collect_checks(12)
        # orders 0..5 x two etas, each once, shared by both sides
        assert len(calls) == len(set(calls)) == 6 * 2
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
            # the rule raveled to one panel, as verify sums it: its u >= 0
            # half and that half's mirror
            edges = whole_line(quadrature._entropy_panel_boundaries(order)) / t
            nodes, weights = quadrature._panel_nodes(32, edges)
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

    @pytest.mark.parametrize("eta", [1, np.float64(0.5)])
    def test_reports_eta_as_a_float(self, eta):
        rep = criterion.criterion_f(0, 0, eta)
        assert type(rep.eta) is float and rep.eta == eta

    def test_every_field_of_the_table_is_pinned(self):
        # the repr of each field of every report over the 33x33 mode pairs
        # n, m <= 32 at three couplings, hashed
        digest = hashlib.sha256()
        for n in range(33):
            for m in range(33):
                for eta in (-1.3, 0.0, 0.4):
                    digest.update(repr(tuple(criterion.criterion_f(n, m, eta))).encode())
        assert digest.hexdigest() == (
            "28f0c0a4282733d407c66149b1549b8454a2a0515376965d267145d48dcee4d9"
        )

    def test_finite_where_the_scale_overflows(self):
        rep = criterion.criterion_f(1, 2, 2000.0)  # e^{eta/2} overflows a double
        assert rep.f == criterion.threshold_eta0(1, 2) - 2000.0
        assert math.isfinite(rep.H_w_minus) and math.isfinite(rep.H_v_plus)


class TestCriterionCurve:
    """The array answer, one subtraction from the threshold: f =
    threshold_eta0(n, m) - etas and its verdict f < 0 are what criterion_f
    reports point by point."""

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (3, 2), (32, 7)])
    def test_matches_pointwise_reports(self, n, m):
        etas = np.concatenate([np.linspace(-3.0, 3.0, 61), [0.0, -0.0, 1e-300, 1e308]])
        f = criterion.threshold_eta0(n, m) - etas
        reports = [criterion.criterion_f(n, m, eta) for eta in etas.tolist()]
        assert f.tolist() == [r.f for r in reports]
        assert (f < 0.0).tolist() == [r.entangled for r in reports]


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

    def test_critical_couplings_of_the_two_criteria(self):
        # on m1 = m2, A = B the variance criterion detects iff |C|/a >
        # 2 tanh(2 eta_var) = 2 (P^2 - 1) / (P^2 + 1), P = (2n + 1)(2m + 1),
        # and SEEC never needs the stronger coupling
        for n in range(scalars.N_MAX + 1):
            for m in range(scalars.N_MAX + 1):
                p2 = ((2 * n + 1) * (2 * m + 1)) ** 2
                variance = 2.0 * math.tanh(2.0 * criterion.variance_threshold(n, m))
                assert math.isclose(variance, 2.0 * (p2 - 1) / (p2 + 1), rel_tol=1e-15)
                assert criterion.critical_coupling(n, m) <= variance
        assert math.isclose(2.0 * math.tanh(2.0 * criterion.variance_threshold(1, 0)), 1.6)


class TestCriticalCoupling:
    """2 tanh(2 eta0): the |C|/a above which SEEC detects (n, m) on
    m1 = m2, A = B = a."""

    @pytest.mark.parametrize(
        "pair,value",
        [((1, 0), 0.987074), ((1, 1), 1.587473), ((2, 2), 1.872057),
         ((4, 4), 1.973055), ((64, 64), 1.999995)],
    )
    def test_values(self, pair, value):
        assert round(criterion.critical_coupling(*pair), 6) == value
        assert criterion.critical_coupling(*pair) == criterion.critical_coupling(*pair[::-1])

    def test_ground_state_detected_at_any_coupling(self):
        assert criterion.critical_coupling(0, 0) == 0.0

    def test_window_without_cancellation(self):
        for n in range(scalars.N_MAX + 1):
            eta0 = criterion.threshold_eta0(n, n)
            window = 4.0 / (1.0 + math.exp(4.0 * eta0))
            assert abs(2.0 - criterion.critical_coupling(n, n) - window) <= 4e-16

    def test_order_checked(self):
        with pytest.raises(UnsupportedOrderError):
            criterion.critical_coupling(0, scalars.N_MAX + 1)
        with pytest.raises(DomainError):
            criterion.critical_coupling(1, 0.5)


class TestVerifyRows:
    def test_row_names_in_order(self):
        # the 224 rows of verify --n-max 12, rebuilt from their spec: six
        # per order, the two I3 anchors, then w and v for each (n, m) <= 5
        # at eta 0 and 0.5
        names = []
        for n in range(13):
            names += [f"I0[{n}]", f"I1[{n}]", f"I2[{n}]", f"I3conv[{n}]"]
            names += [f"I3anchor[{n}]"] if n <= 1 else []
            names += [f"S_table[{n}]", f"S_gauss_bound[{n}]"]
        names += [f"norm_{tag}[{n},{m},eta={eta}]"
                  for n in range(6) for m in range(6) for eta in (0.0, 0.5) for tag in "wv"]
        assert len(names) == 224
        assert [c.name for c in verification.collect_checks(12)] == names


class TestGaussianBoundRows:
    def test_one_row_per_order_equality_at_zero(self):
        checks = {c.name: c for c in verification.collect_checks(12)}
        for k in range(13):
            row = checks[f"S_gauss_bound[{k}]"]
            assert row.status == "ok" and row.value == _tables.S_TABLE[k]
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
    """The verdict criterion_f reports: entangled iff f < 0."""

    def test_ground_state_weak_coupling(self):
        assert criterion.criterion_f(0, 0, 0.1).entangled

    def test_below_threshold(self):
        assert not criterion.criterion_f(1, 1, 0.5).entangled  # 0.5 < 0.5407...

    def test_above_threshold(self):
        assert criterion.criterion_f(1, 1, 0.6).entangled

    def test_no_coupling_never_entangled(self):
        for n in range(6):
            for m in range(6):
                assert not criterion.criterion_f(n, m, 0.0).entangled
