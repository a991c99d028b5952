"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check uses the tolerance stated with it.
"""

import json
import math
import subprocess
import sys

import numpy as np

import oracles
from seec import _kernels, criterion, oscillator, quadrature, scalars, specfun

SQRT_PI = scalars._SQRT_PI
EULER_GAMMA = scalars._EULER_GAMMA
LN_2PI_E = math.log(2.0 * math.pi) + 1.0


def _report(number, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {number:2d}: {description}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, f"acceptance {number}: {description} {detail}"


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "seec", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_01_threshold_table():
    checks = [
        (abs(criterion.threshold_eta0(0, 0)), 1e-9),
        (abs(criterion.threshold_eta0(1, 0) - 0.270), 2e-3),
        (abs(criterion.threshold_eta0(0, 1) - 0.270), 2e-3),
        (abs(criterion.threshold_eta0(1, 1) - 0.541), 2e-3),
        (abs(criterion.threshold_eta0(2, 2) - 0.852), 2e-3),
        (abs(criterion.threshold_eta0(3, 3) - 1.07), 1e-2),
    ]
    ok = all(delta <= tol for delta, tol in checks)
    _report(1, "threshold table eta0 at the reference values", ok, f"deltas={checks}")


def test_criterion_02_ground_state_line():
    etas = np.arange(0.0, 2.0 + 1e-12, 0.25)
    worst = max(abs(criterion.criterion_f(0, 0, float(e)).f + float(e)) for e in etas)
    _report(2, "f(0,0,eta) = -eta within 1e-12 on the eta grid", worst <= 1e-12, f"worst={worst}")


def test_criterion_03_linearity():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(0, 9))
        m = int(rng.integers(0, 9))
        eta = float(rng.uniform(-2.0, 2.0))
        delta = abs(criterion.criterion_f(n, m, eta).f - (criterion.criterion_f(n, m, 0.0).f - eta))
        worst = max(worst, delta)
    _report(3, "linearity |f(eta) - (f(0) - eta)| <= 1e-9 on 100 random cases", worst <= 1e-9, f"worst={worst}")


def test_criterion_04_symmetry():
    worst = max(
        abs(criterion.threshold_eta0(n, m) - criterion.threshold_eta0(m, n))
        for n in range(9)
        for m in range(9)
    )
    _report(4, "eta0(n, m) = eta0(m, n) within 1e-9 for n, m <= 8", worst <= 1e-9, f"worst={worst}")


def test_criterion_05_monotone_thresholds():
    ok = all(
        criterion.threshold_eta0(n + 1, m) > criterion.threshold_eta0(n, m)
        and criterion.threshold_eta0(m, n + 1) > criterion.threshold_eta0(m, n)
        for n in range(7)
        for m in range(8)
    )
    _report(5, "thresholds grow monotonically in each quantum number (n, m <= 7)", ok)


def test_criterion_06_oracle_equivalence():
    worst_closed = 0.0
    for n in range(13):
        rule = quadrature.gauss_hermite_rule(n + 2)
        h2 = _kernels.hermite_values(n, rule.nodes) ** 2
        norm = math.exp(0.5 * math.log(math.pi) + scalars._ln_factorial(n) + n * math.log(2.0))
        i1 = float(np.dot(rule.weights, h2))
        i2 = -float(np.dot(rule.weights, rule.nodes**2 * h2))
        worst_closed = max(
            worst_closed,
            abs(i1 - norm) / norm,
            abs(i2 + norm * (n + 0.5)) / (norm * (n + 0.5)),
        )
    worst_conv = max(
        abs(quadrature.entropy_integral_numeric(n, 48) - quadrature.entropy_integral_numeric(n, 96))
        / max(1.0, abs(quadrature.entropy_integral_numeric(n, 96)))
        for n in range(13)
    )
    anchor = abs(
        quadrature.entropy_integral_numeric(1) - 4.0 * SQRT_PI * (1.0 - 0.5 * EULER_GAMMA)
    )
    ok = worst_closed <= 1e-10 and worst_conv <= 1e-9 and anchor <= 1e-9
    _report(
        6,
        "closed forms vs quadrature 1e-10; panel doubling 1e-9; I3(1) anchor 1e-9",
        ok,
        f"closed={worst_closed} conv={worst_conv} anchor={anchor}",
    )


def test_criterion_07_entropy_anchors():
    s0 = abs(criterion.standard_entropy(0) - 0.5 * math.log(math.pi * math.e))
    s1 = abs(
        criterion.standard_entropy(1) - (math.log(2.0 * SQRT_PI) + EULER_GAMMA - 0.5)
    )
    eta0_11 = (
        criterion.standard_entropy(1) * 2.0 + math.log(2.0) - LN_2PI_E
    )
    ok = s0 <= 1e-10 and s1 <= 1e-8 and abs(eta0_11 - 0.541) <= 2e-3
    _report(
        7,
        "S0 = ln(pi e)/2 (1e-10); S1 = ln(2 sqrt(pi)) + gamma - 1/2 (1e-8); eta0(1,1) rebuild (2e-3)",
        ok,
        f"s0={s0} s1={s1} eta0_11={eta0_11}",
    )


def test_criterion_08_normalization():
    worst_marginal = 0.0
    for n in range(6):
        for m in range(6):
            for eta in (0.0, 0.5, 1.0):
                t = math.exp(0.5 * eta) / math.sqrt(2.0)
                for side, order in (("w_minus", n), ("v_plus", m)):
                    edges = quadrature._entropy_panel_boundaries(order) / t
                    nodes, weights = specfun._panel_nodes(32, edges)
                    density = criterion.marginal(side, n, m, eta, nodes)
                    total = _kernels.panel_sum(weights * density)
                    worst_marginal = max(worst_marginal, abs(total - 1.0))
    nodes, weights = oracles.panel_rule_loop(24, np.linspace(-12.0, 12.0, 13))
    worst_wavefn = 0.0
    for n in range(4):
        for m in range(4):
            for eta in (0.0, 0.5, 1.0):
                mode = oscillator.ModePair(n, m)
                for space in ("position", "momentum"):
                    psi = oscillator.wavefunction(mode, eta, space, nodes[:, None], nodes[None, :])
                    total = 0.5 * float(weights @ (psi * psi) @ weights)
                    worst_wavefn = max(worst_wavefn, abs(total - 1.0))
    ok = worst_marginal <= 1e-8 and worst_wavefn <= 1e-8
    _report(
        8,
        "marginals normalize to 1 (n, m <= 5); 2-D wavefunctions with Jacobian 1/2 (n, m <= 3)",
        ok,
        f"marginal={worst_marginal} wavefunction={worst_wavefn}",
    )


def test_criterion_09_diagonalization_roundtrip():
    rng = np.random.default_rng(715)
    worst = 0.0
    count = 0
    while count < 1000:
        a = float(rng.uniform(0.2, 5.0))
        b = float(rng.uniform(0.2, 5.0))
        if abs(a - b) <= 1e-6 * (a + b):
            continue
        c = float(rng.uniform(-0.9, 0.9)) * 2.0 * math.sqrt(a * b)
        m1 = float(rng.uniform(0.3, 3.0))
        m2 = float(rng.uniform(0.3, 3.0))
        h = oscillator.CoupledHamiltonian(m1, m2, a, b, c)
        rec = oscillator.reconstruct(oscillator.diagonalize(h))
        scale = max(a, b, abs(c))
        worst = max(
            worst,
            max(abs(rec[0] - a), abs(rec[1] - b), abs(rec[2] - c)) / scale,
        )
        count += 1
    d = oscillator.diagonalize(oscillator.CoupledHamiltonian(1.0, 1.0, 1.0 + 1e-8, 1.0, -0.5))
    limit_delta = abs(d.eta - 0.1277064)
    ok = worst <= 1e-9 and limit_delta <= 1e-6
    _report(
        9,
        "round-trip <= 1e-9 over 1000 random couplings; near-degenerate limit eta check",
        ok,
        f"worst={worst} limit_delta={limit_delta}",
    )


def test_criterion_10_cli_reproduction():
    code, out, err = _run_cli(
        "sweep", "--modes", "0:0,1:1,2:2,3:3", "--eta-min", "0", "--eta-max", "2",
        "--steps", "201",
    )
    sweep_ok = code == 0
    brackets_ok = True
    if sweep_ok:
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        thresholds = {(0, 0): 0.0, (1, 1): 0.541, (2, 2): 0.852, (3, 3): 1.07}
        for (n, m), eta0 in thresholds.items():
            series = [(float(r[0]), float(r[3])) for r in rows if (int(r[1]), int(r[2])) == (n, m)]
            crossing = None
            for (eta_a, f_a), (eta_b, f_b) in zip(series, series[1:]):
                if f_a >= 0.0 > f_b:
                    crossing = (eta_a, eta_b)
                    break
            if crossing is None:
                brackets_ok = False
            else:
                tol = 1e-2 if (n, m) == (3, 3) else 2e-3
                if not (crossing[0] - tol <= eta0 <= crossing[1] + tol):
                    brackets_ok = False
    code_thr, out_thr, _ = _run_cli("threshold", "--n-max", "5", "--m-max", "5")
    grid_rows = out_thr.strip().split("\n")[1:]
    threshold_ok = code_thr == 0 and len(grid_rows) == 36
    code_ver, out_ver, _ = _run_cli("verify", "--n-max", "8", "--format", "json")
    verify_ok = code_ver == 0
    if verify_ok:
        payload = json.loads(out_ver)
        closed = {c["name"]: c for c in payload["checks"] if c["name"].startswith("I3closed[")}
        verify_ok = (
            payload["pass"] is True
            and all(c["status"] == "ok" for c in payload["checks"])
            and sorted(closed) == sorted(f"I3closed[{n}]" for n in range(9))
            and all(c["normative"] and c["status"] == "ok" for c in closed.values())
        )
    ok = sweep_ok and brackets_ok and threshold_ok and verify_ok
    _report(
        10,
        "CLI sweep brackets the thresholds; threshold emits the 6x6 grid; verify passes with normative I3closed rows",
        ok,
        f"sweep={sweep_ok} brackets={brackets_ok} threshold={threshold_ok} verify={verify_ok}",
    )
