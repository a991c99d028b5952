import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seec import cli, criterion, oscillator, svgplot
from seec.errors import DomainError
from seec.scalars import N_MAX
from test_golden import GOLDEN


def run_cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "seec", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSweep:
    def test_ground_state_line(self):
        code, out, err = run_cli(
            "sweep", "--modes", "0:0", "--eta-min", "0", "--eta-max", "2", "--steps", "3"
        )
        assert code == 0, err
        header, rows = parse_csv(out)
        assert header == ["eta", "n", "m", "f", "entangled"]
        assert [float(r[3]) for r in rows] == [0.0, -1.0, -2.0]
        assert [r[4] for r in rows] == ["false", "true", "true"]

    def test_two_step_grid_contract(self):
        code, out, _ = run_cli(
            "sweep", "--modes", "1:1,2:0", "--eta-min", "0.5", "--eta-max", "1.5", "--steps", "2"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4  # two rows per mode
        assert [r[0] for r in rows] == ["0.5", "1.5", "0.5", "1.5"]

    def test_round_trip_against_threshold(self):
        code, out, _ = run_cli(
            "sweep", "--modes", "1:1,3:2", "--eta-min", "0", "--eta-max", "2", "--steps", "41"
        )
        assert code == 0
        _, rows = parse_csv(out)
        for eta_s, n_s, m_s, f_s, _ in rows:
            eta0 = criterion.threshold_eta0(int(n_s), int(m_s))
            assert abs(float(f_s) - (eta0 - float(eta_s))) <= 1e-9

    def test_deterministic_output(self):
        args = ("sweep", "--modes", "1:1", "--steps", "11")
        assert run_cli(*args) == run_cli(*args)

    def test_json_format(self):
        code, out, _ = run_cli("sweep", "--modes", "2:2", "--steps", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3
        assert set(payload[0]) == {"eta", "n", "m", "f", "entangled"}

    def test_svg_output(self, tmp_path):
        svg_path = tmp_path / "sweep.svg"
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            "sweep", "--steps", "21", "--out", str(out_path), "--svg", str(svg_path)
        )
        assert code == 0
        svg = svg_path.read_text()
        assert 'viewBox="0 0 800 600"' in svg
        assert svg.count("<polyline") == 4  # default four modes
        assert ">eta</text>" in svg and ">f</text>" in svg
        assert "stroke-dasharray" in svg  # zero line
        assert out_path.read_text().startswith("eta,n,m,f,entangled\n")

    def test_invalid_steps_leaves_no_file(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli("sweep", "--steps", "1", "--out", str(out_path))
        assert code == 1
        assert "steps" in err
        assert not out_path.exists()

    def test_bad_mode_syntax(self):
        code, _, err = run_cli("sweep", "--modes", "1-1")
        assert code == 1
        assert "n:m" in err

    def test_mode_order_out_of_range(self):
        code, _, err = run_cli("sweep", "--modes", f"{N_MAX + 1}:0")
        assert code == 1


_BOUNDS = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2, unique=True
).map(sorted)


class TestSweepGrid:
    """The sweep's eta grid and f column are the values np.linspace and
    criterion_curve give, bit for bit."""

    @given(bounds=_BOUNDS, steps=st.integers(2, 3000) | st.sampled_from((2, 3, 100_001)))
    @settings(max_examples=300)
    @example(bounds=[0.0, 1.0], steps=2)
    @example(bounds=[-2.5, -0.25], steps=100_001)
    @example(bounds=[0.0, 5e-324], steps=3)  # step == 0: numpy's denormal branch
    @example(bounds=[-5e-324, 5e-324], steps=7)
    @example(bounds=[1e-310, 1.5e-310], steps=1001)
    @example(bounds=[-1e308, 1e308], steps=11)  # hi - lo overflows
    @example(bounds=[-1.7976931348623157e308, 1.7976931348623157e308], steps=2)
    def test_grid_equals_linspace(self, bounds, steps):
        lo, hi = bounds
        with np.errstate(all="ignore"):
            expected = np.linspace(lo, hi, steps)
        if not np.isfinite(expected).all():
            with pytest.raises(DomainError, match="finite grid"):
                cli._eta_grid(lo, hi, steps)
            return
        grid = np.array(cli._eta_grid(lo, hi, steps), dtype=np.float64)
        np.testing.assert_array_equal(grid.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize(
        "lo,hi,steps,message",
        [
            (0.0, 1.0, 1, "steps must be >= 2, got 1"),
            (0.0, 1.0, -3, "steps must be >= 2, got -3"),
            (1.0, 1.0, 5, "eta-min must be below eta-max, got [1.0, 1.0]"),
            (2.0, -1.0, 5, "eta-min must be below eta-max, got [2.0, -1.0]"),
            (math.nan, 1.0, 5, "eta-min must be below eta-max, got [nan, 1.0]"),
        ],
    )
    def test_grid_checks_its_arguments(self, lo, hi, steps, message):
        with pytest.raises(DomainError) as info:
            cli._eta_grid(lo, hi, steps)
        assert str(info.value) == message

    @pytest.mark.parametrize("modes", ["0:0", "1:1,2:0", "0:0,1:1,2:3,5:0,7:7,32:32"])
    @pytest.mark.parametrize("bounds", [(0.0, 2.0), (-2.5, -0.25), (-0.7, 1e-3)])
    def test_f_column_equals_criterion_curve(self, modes, bounds, capsys):
        lo, hi = bounds
        argv = ["sweep", "--modes", modes, "--steps", "257", "--format", "json",
                f"--eta-min={lo!r}", f"--eta-max={hi!r}"]
        assert cli.main(argv) == 0
        records = json.loads(capsys.readouterr().out)
        grid = np.linspace(lo, hi, 257)
        pairs = cli._parse_modes(modes)
        expected = np.concatenate([criterion.criterion_curve(n, m, grid)[0] for n, m in pairs])
        f = np.array([r["f"] for r in records], dtype=np.float64)
        np.testing.assert_array_equal(f.view(np.uint64), expected.view(np.uint64))
        assert [r["entangled"] for r in records] == (expected < 0.0).tolist()
        eta = np.array([r["eta"] for r in records], dtype=np.float64)
        np.testing.assert_array_equal(eta.view(np.uint64), np.tile(grid, len(pairs)).view(np.uint64))


_MODES = st.lists(st.tuples(st.integers(0, N_MAX), st.integers(0, N_MAX)), min_size=1, max_size=4)
_ETA0_11 = criterion.threshold_eta0(1, 1)


def _sweep_reference(modes, lo, hi, steps):
    """The sweep's CSV and JSON text, one record at a time: JSON from
    json.dumps, CSV from the %-template of one row per record."""
    records = [
        {"eta": eta, "n": n, "m": m, "f": f, "entangled": f < 0.0}
        for n, m in modes
        for eta in np.linspace(lo, hi, steps).tolist()
        for f in [criterion.threshold_eta0(n, m) - eta]
    ]
    csv = "eta,n,m,f,entangled\n" + "".join(
        "%s,%d,%d,%.12g,%s\n"
        % ("%.12g" % r["eta"], r["n"], r["m"], r["f"], "true" if r["entangled"] else "false")
        for r in records
    )
    return csv, json.dumps(records, indent=2) + "\n"


class TestSweepFormat:
    """The sweep's blocks of precomputed pieces write the bytes of one
    record at a time."""

    @given(modes=_MODES, lo=st.floats(-3.0, 3.0), width=st.floats(1e-3, 4.0),
           steps=st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    @example(modes=[(2, 3)], lo=0.5, width=1.0, steps=2)  # one mode, two steps
    # f == 0 exactly and the verdict flips mid-curve: eta0(0, 0) is 0.0
    @example(modes=[(0, 0)], lo=-1.0, width=2.0, steps=5)
    @example(modes=[(1, 1), (0, 0)], lo=0.0, width=_ETA0_11, steps=7)  # f == 0 at eta-max
    def test_equals_one_record_at_a_time(self, modes, lo, width, steps):
        hi = lo + width
        csv, records = _sweep_reference(modes, lo, hi, steps)
        mode_text = ",".join(f"{n}:{m}" for n, m in modes)
        for fmt, expected in (("csv", csv), ("json", records)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["sweep", "--modes", mode_text, f"--eta-min={lo!r}",
                                 f"--eta-max={hi!r}", "--steps", str(steps), "--format", fmt])
            assert code == 0
            assert out.getvalue() == expected


class TestSvgPlot:
    def test_array_and_pairs_give_the_same_bytes(self):
        x = np.linspace(-0.5, 2.0, 101)
        arrays = [("a", np.column_stack((x, 0.3 - x))), ("b", np.column_stack((x, np.sin(x))))]
        pairs = [(label, [tuple(p) for p in pts.tolist()]) for label, pts in arrays]
        svg = svgplot.line_plot(arrays, "eta", "f")
        assert svg == svgplot.line_plot(pairs, "eta", "f")
        assert svg.count("<polyline") == 2
        # other dtypes convert as np.asarray(pts, dtype=float64) would; mapping
        # float32 points in float32 would move some of them by 0.01 px
        pts32 = np.random.default_rng(0).standard_normal((2000, 2)).astype(np.float32)
        assert svgplot.line_plot([("a", pts32)], "x", "y") == svgplot.line_plot(
            [("a", pts32.astype(np.float64))], "x", "y")
        ints = [("i", [(0, 1), (2, -3), (5, 4)])]
        assert svgplot.line_plot(ints, "x", "y") == svgplot.line_plot(
            [("i", np.array(ints[0][1], dtype=np.float64))], "x", "y")


def _float_options():
    """(subcommand, option) for every option whose type is float."""
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return [
        (name, action.option_strings[0])
        for name, parser in subparsers.choices.items()
        for action in parser._actions
        if action.type is float
    ]


class TestNegativeNumbers:
    def test_every_float_option_is_covered(self):
        assert len(_float_options()) == 11

    @pytest.mark.parametrize("cmd,option", _float_options())
    @pytest.mark.parametrize("value", ["-1e-3", "-5E-1", "-.5e+1", "-0.001"])
    def test_separate_value_reads_like_attached(self, cmd, option, value, capsys):
        # sweep's eta-max needs a lower eta-min to give a grid
        extra = ["--eta-min=-10"] if option == "--eta-max" else []

        def run(*args):
            try:
                code = cli.main([cmd, *extra, *args])
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return code, out, err

        separate = run(option, value)
        assert separate == run(f"{option}={value}")
        assert "expected one argument" not in separate[2]


class TestThreshold:
    def test_small_grid_values(self):
        code, out, _ = run_cli("threshold", "--n-max", "1", "--m-max", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "m", "eta0"]
        assert [(r[0], r[1]) for r in rows] == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        assert float(rows[0][2]) == 0.0
        assert abs(float(rows[1][2]) - 0.270362845461478) <= 1e-9
        assert abs(float(rows[2][2]) - 0.270362845461478) <= 1e-9
        assert abs(float(rows[3][2]) - 0.540725690922956) <= 1e-9

    def test_single_cell_grid(self):
        code, out, _ = run_cli("threshold", "--n-max", "0", "--m-max", "0")
        assert code == 0
        assert out == "n,m,eta0\n0,0,0\n"

    def test_grid_symmetry(self):
        code, out, _ = run_cli("threshold", "--n-max", "4", "--m-max", "4")
        assert code == 0
        _, rows = parse_csv(out)
        table = {(r[0], r[1]): r[2] for r in rows}
        for n in range(5):
            for m in range(5):
                assert table[(str(n), str(m))] == table[(str(m), str(n))]

    def test_rejects_out_of_range(self):
        code, _, err = run_cli("threshold", "--n-max", str(N_MAX + 1))
        assert code == 1
        assert "n-max" in err


class TestCriterionCommand:
    def test_report_keys_and_values(self):
        code, out, _ = run_cli("criterion", "--n", "1", "--m", "1", "--eta", "0.3")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "n", "m", "eta", "H_w_minus", "H_v_plus", "f", "eta0",
            "entangled", "alt_f", "oracle_delta",
        ]
        assert payload["entangled"] is False
        assert abs(payload["f"] - (payload["eta0"] - 0.3)) <= 1e-12
        assert abs(payload["alt_f"] - (payload["eta0"] + 0.3)) <= 1e-12

    def test_oracle_delta_reported_at_every_order(self):
        for k in range(N_MAX + 1):
            delta = criterion.criterion_f(k, k, 0.1).oracle_delta
            assert isinstance(delta, float) and 0.0 <= delta <= 1e-10, k
        top = str(N_MAX)
        code, out, _ = run_cli("criterion", "--n", top, "--m", top, "--eta", "0.1")
        assert code == 0
        assert json.loads(out)["oracle_delta"] == delta


class TestDiagonalize:
    def test_degenerate_example(self):
        code, out, _ = run_cli("diagonalize", "--C", "-0.5")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "M", "K", "omega", "eta", "alpha_deg", "degenerate_branch", "roundtrip_error",
        ]
        assert abs(payload["eta"] - 0.1277064059) <= 1e-9
        assert payload["alpha_deg"] == 45.0
        assert payload["degenerate_branch"] is True
        assert payload["roundtrip_error"] <= 1e-9

    def test_decoupled(self):
        code, out, _ = run_cli("diagonalize")
        payload = json.loads(out)
        assert code == 0 and payload["eta"] == 0.0

    def test_unbound_rejected_with_message(self):
        code, _, err = run_cli("diagonalize", "--C", "2")
        assert code == 1
        assert "4AB - C^2" in err

    def test_asymmetric_couplings(self):
        code, out, _ = run_cli("diagonalize", "--A", "2", "--B", "1", "--C", "1")
        payload = json.loads(out)
        assert abs(payload["eta"] - 0.255937307546837) <= 1e-9
        assert abs(payload["alpha_deg"] - (-22.5)) <= 1e-9
        assert payload["roundtrip_error"] <= 1e-9


class TestVerify:
    def test_exit_zero_with_normative_closed_form_rows(self):
        code, out, _ = run_cli("verify", "--n-max", "2")
        assert code == 0
        rows = {line.split()[0]: line.split()[-1] for line in out.splitlines()[1:-2]}
        for n in range(3):
            assert rows[f"I3closed[{n}]"] == "ok"
            assert rows[f"S_closed_delta[{n}]"] == "ok"
        assert set(rows.values()) <= {"ok"}
        assert out.splitlines()[-1] == "normative checks: all passed"

    def test_json_format(self):
        code, out, _ = run_cli("verify", "--n-max", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "I3anchor[1]" in names
        statuses = {c["status"] for c in payload["checks"]}
        assert statuses <= {"ok"}
        closed = [c for c in payload["checks"] if c["name"].startswith("I3closed[")]
        assert len(closed) == 2 and all(c["normative"] for c in closed)
        assert all(c["tol"] == 1e-12 * max(1.0, abs(c["reference"])) for c in closed)

    def test_json_check_keys_in_field_order(self):
        code, out, _ = run_cli("verify", "--n-max", "1", "--format", "json")
        assert code == 0
        keys = ["name", "value", "reference", "delta", "tol", "normative", "status"]
        checks = json.loads(out)["checks"]
        assert checks and all(list(c) == keys for c in checks)

    def test_gaussian_only_case_all_deltas_vanish(self):
        code, out, _ = run_cli("verify", "--n-max", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        for check in payload["checks"]:
            if check["normative"]:
                assert check["delta"] <= 1e-12

    def test_rejects_large_n_max(self):
        code, _, err = run_cli("verify", "--n-max", "13")
        assert code == 1

    def test_nonfinite_integrand_fails_rows_without_a_traceback(self, monkeypatch, capsys):
        # a marginal that is nan everywhere: the table shows its
        # normalization rows as FAIL (exit 2), and the JSON, which cannot
        # hold nan, is one error line (exit 1)
        nan_marginal = lambda side, n, m, eta, u: np.full(np.shape(u), np.nan)
        monkeypatch.setattr(criterion, "marginal", nan_marginal)
        assert cli.main(["verify", "--n-max", "1"]) == 2
        out, err = capsys.readouterr()
        failed = [line.split()[0] for line in out.splitlines() if line.endswith("FAIL")]
        assert failed and all(name.startswith("norm_") for name in failed)
        assert out.splitlines()[-1] == "normative checks: FAILURES PRESENT"
        assert err == ""
        assert cli.main(["verify", "--n-max", "1", "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "seec: error: the result is not finite for these inputs\n"


class TestWavefunction:
    def test_grid_and_origin_value(self):
        code, out, _ = run_cli("wavefunction", "--steps", "5", "--u-min", "-2", "--u-max", "2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["u_plus", "u_minus", "value"]
        assert len(rows) == 25
        origin = [r for r in rows if r[0] == "0" and r[1] == "0"]
        assert len(origin) == 1
        assert abs(float(origin[0][2]) - 1.0 / math.sqrt(math.pi)) <= 1e-12

    def test_momentum_space(self):
        code, out, _ = run_cli(
            "wavefunction", "--n", "1", "--m", "0", "--eta", "0.4", "--space", "momentum",
            "--steps", "3",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 9

    @pytest.mark.parametrize(
        "command",
        [c for c, _, _ in GOLDEN if c.startswith("wavefunction")]
        + [
            "wavefunction --n 12 --m 11 --space momentum --steps 401",
            # where the Gaussian underflows, and where H_64 overflows
            "wavefunction --n 33 --m 7 --eta -2 --u-min=-60 --u-max=60 --steps 121",
            "wavefunction --n 64 --m 40 --u-min=-6e4 --u-max=6e4 --steps 41",
        ],
    )
    def test_grid_route_matches_array_route(self, command, capsys):
        # the command's values f2[i] * f1[j], from the per-axis list
        # route, against the array form on the same points: equal up to
        # the 1 ulp by which math.exp and numpy's exp may differ, with
        # zeros in the same places
        argv = command.split()
        args = cli.build_parser().parse_args(argv)
        grid = cli._eta_grid(args.u_min, args.u_max, args.steps)
        mode = oscillator.ModePair(args.n, args.m)
        f1, f2 = oscillator._wavefunction_axes(mode, args.eta, args.space, grid)
        rows = np.array([[v * a for a in f1] for v in f2])
        u = np.array(grid)
        expected = oscillator.wavefunction(mode, args.eta, args.space, u[:, None], u[None, :])
        assert np.array_equal(rows == 0.0, expected == 0.0)
        assert np.all(np.abs(rows - expected) <= 1e-15 * np.abs(expected))
        assert cli.main(argv) == 0
        printed = [line.rsplit(",", 1)[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert printed == ["%.12g" % v for v in rows.ravel().tolist()]

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--u-min=-inf"], "u-min and u-max must span a finite grid, got [-inf, 4.0]"),
            (["--steps", "1"], "steps must be >= 2, got 1"),
            (["--u-min", "4"], "u-min must be below u-max, got [4.0, 4.0]"),
        ],
    )
    def test_grid_is_checked_before_the_orders(self, args, message, capsys):
        assert cli.main(["wavefunction", "--n", str(N_MAX + 1), *args]) == 1
        assert capsys.readouterr() == ("", f"seec: error: {message}\n")

    def test_far_tail_grid(self, capsys):
        # |u| up to 1e155: the Hermite recurrence overflows to inf and nan
        # where the Gaussian is 0, and those points print as 0; the digest
        # is the array route's output
        argv = "wavefunction --n 64 --m 64 --u-min=-1e155 --u-max=1e155 --steps 5".split()
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "40216ae1d298072ed3aedbcb23845080becfe158be853e7a22f6696946886af1"
        )
        values = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
        assert values == ["0"] * 12 + ["0.0560504036239"] + ["0"] * 12


def _failing_chunks():
    yield "eta,n,m,f,entangled\n"
    raise DomainError("raised after the first chunk")


class TestStreamedOutput:
    """Output is written in chunks after every check has run: a failing
    command writes no byte to stdout and leaves --out as it was."""

    def test_failing_stream_creates_no_file(self, tmp_path):
        out_path = tmp_path / "new.csv"
        with pytest.raises(DomainError):
            cli._write_text(_failing_chunks(), str(out_path))
        assert list(tmp_path.iterdir()) == []

    def test_failing_stream_keeps_an_existing_file(self, tmp_path):
        out_path = tmp_path / "old.csv"
        out_path.write_bytes(b"old bytes\n")
        with pytest.raises(DomainError):
            cli._write_text(_failing_chunks(), str(out_path))
        assert out_path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]

    def test_chunks_and_one_string_write_the_same_bytes(self, tmp_path):
        chunks = ["a,b\n", "", "1,2\n", "3,4\n"]
        cli._write_text(iter(chunks), str(tmp_path / "chunks.csv"))
        cli._write_text("".join(chunks), str(tmp_path / "text.csv"))
        assert (tmp_path / "chunks.csv").read_bytes() == (tmp_path / "text.csv").read_bytes()

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        out_path = tmp_path / "new.csv"
        old = os.umask(umask)
        try:
            cli._write_text(iter(["a\n", "b\n"]), str(out_path))
        finally:
            os.umask(old)
        assert out_path.stat().st_mode & 0o7777 == mode

    def test_existing_file_keeps_its_mode(self, tmp_path):
        out_path = tmp_path / "old.csv"
        out_path.write_bytes(b"old bytes\n")
        out_path.chmod(0o640)
        old = os.umask(0o022)
        try:
            cli._write_text("new bytes\n", str(out_path))
        finally:
            os.umask(old)
        assert out_path.stat().st_mode & 0o7777 == 0o640
        assert out_path.read_bytes() == b"new bytes\n"

    def _patch_axes(self, monkeypatch, patch):
        axes_of = oscillator._wavefunction_axes
        monkeypatch.setattr(oscillator, "_wavefunction_axes", lambda *a: patch(*axes_of(*a)))

    def _assert_not_finite(self, capsys):
        assert cli.main(["wavefunction", "--steps", "7"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "seec: error: wavefunction value is not finite for these inputs\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_last_row_writes_nothing(self, value, monkeypatch, capsys):
        # the last row's factor f2[-1] is not finite
        self._patch_axes(monkeypatch, lambda f1, f2: (f1, f2[:-1] + [value]))
        self._assert_not_finite(capsys)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_last_column_writes_nothing(self, value, monkeypatch, capsys):
        # the last column's factor f1[-1] is not finite; max() would pass
        # over a nan there, so the factors are checked on their own
        self._patch_axes(monkeypatch, lambda f1, f2: (f1[:-1] + [value], f2))
        self._assert_not_finite(capsys)

    def test_overflowing_product_writes_nothing(self, monkeypatch, capsys):
        # every factor finite, but the product of one pair overflows
        self._patch_axes(monkeypatch, lambda f1, f2: (f1[:-1] + [1e200], f2[:-1] + [-1e200]))
        self._assert_not_finite(capsys)

    def test_row_whose_sum_overflows_is_written(self, monkeypatch, capsys):
        # every value finite, but each row sums to inf
        self._patch_axes(monkeypatch, lambda f1, f2: (f1[:-2] + [1.7e308] * 2, [1.0] * len(f2)))
        assert cli.main(["wavefunction", "--steps", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 50 and lines[-1].endswith(",1.7e+308")

    def test_wavefunction_memory_does_not_grow_with_the_grid(self):
        # peak traced memory of a 1601 x 1601 grid to a null stdout, after
        # a warm-up call: the two factor lists and one row, not the grid
        argv = ["wavefunction", "--n", "12", "--m", "11", "--space", "momentum", "--steps", "1601"]
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            assert cli.main(argv[:-1] + ["5"]) == 0
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert cli.main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert peak < 2_000_000, peak


NON_FINITE_FIELDS = {"nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-Infinity"}

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ORDER = st.integers(-2, 70)
_STEPS = st.integers(-1, 60)  # grids stay small


def _command(name, options):
    """argv lists for one subcommand, each option present or left at its
    default; '--key=value' keeps a negative value from reading as an option."""
    return st.fixed_dictionaries({}, optional=options).map(
        lambda opts: [name] + [f"--{key}={value}" for key, value in opts.items()]
    )


CLI_ARGV = st.one_of(
    _command("sweep", {
        "modes": st.lists(st.tuples(_ORDER, _ORDER), min_size=1, max_size=3).map(
            lambda modes: ",".join(f"{n}:{m}" for n, m in modes)),
        "eta-min": _FINITE,
        "eta-max": _FINITE,
        "steps": _STEPS,
        "format": st.sampled_from(("csv", "json")),
    }),
    _command("threshold", {
        "n-max": st.integers(-1, N_MAX + 1),
        "m-max": st.integers(-1, N_MAX + 1),
        "format": st.sampled_from(("csv", "json")),
    }),
    _command("criterion", {"n": _ORDER, "m": _ORDER, "eta": _FINITE}),
    _command("diagonalize", {key: _FINITE for key in ("m1", "m2", "A", "B", "C")}),
    _command("verify", {
        "n-max": st.integers(-1, 13),
        "format": st.sampled_from(("table", "json")),
    }),
    _command("wavefunction", {
        "n": _ORDER,
        "m": _ORDER,
        "eta": _FINITE,
        "space": st.sampled_from(("position", "momentum")),
        "u-min": _FINITE,
        "u-max": _FINITE,
        "steps": _STEPS,
    }),
)


class TestOutputGate:
    """For finite input the CLI writes finite numbers or exits 1 with one
    'seec: error:' line."""

    @pytest.mark.parametrize(
        "args,flag",
        [
            (("sweep", "--eta-max", "inf"), "eta-max"),
            (("sweep", "--eta-min", "nan"), "eta-min"),
            (("sweep", "--eta-min=-1e308", "--eta-max=1e308"), "eta-max"),
            (("diagonalize", "--A", "1e308", "--B", "1e308", "--C", "1"), None),
            (("diagonalize", "--m1", "1e-268", "--m2", "1e-143", "--A", "3e16",
              "--B", "1e-268", "--C", "1e-268"), None),
            (("diagonalize", "--m1", "1e273", "--m2", "1e273", "--A", "1e273",
              "--B", "1e273", "--C", "1.7e308"), None),
            (("wavefunction", "--eta", "1500"), "eta"),
            (("wavefunction", "--eta=-1500", "--space", "momentum"), "eta"),
        ],
    )
    def test_non_finite_is_a_one_line_domain_error(self, args, flag):
        code, out, err = run_cli(*args)
        assert code == 1
        assert out == ""
        assert err.startswith("seec: error: ") and err.count("\n") == 1
        if flag is not None:
            assert flag in err

    def test_unplottable_span_writes_no_file(self, tmp_path):
        # finite grid and f, but the pixel map of a 3e305-wide span overflows
        out_path, svg_path = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        code, out, err = run_cli(
            "sweep", "--modes", "0:0,1:1", "--eta-min=-3e305", "--eta-max", "0",
            "--steps", "5", "--out", str(out_path), "--svg", str(svg_path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("seec: error: ") and err.count("\n") == 1
        assert not out_path.exists() and not svg_path.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("criterion", "--n", "1", "--m", "2", "--eta", "2000"),
            ("sweep", "--eta-max", "1e308"),
            ("wavefunction", "--n", "60", "--eta", "30"),
        ],
    )
    def test_large_finite_eta_gives_finite_output(self, args, capsys):
        from seec import cli

        assert cli.main(list(args)) == 0
        out = capsys.readouterr().out
        assert "nan" not in out.lower() and "inf" not in out.lower()

    @given(argv=CLI_ARGV)
    @settings(max_examples=100)
    def test_finite_arguments_keep_the_contract(self, argv):
        from seec import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            # fields, not substrings: verify's table prints "informational"
            fields = set(re.split(r'[\s,:"\[\]{}]+', out.getvalue()))
            assert not fields & NON_FINITE_FIELDS, argv


class TestUsageErrors:
    def test_unknown_command_exits_one(self):
        code, _, err = run_cli("nonsense")
        assert code == 1
        assert "error" in err

    def test_missing_command_exits_one(self):
        code, _, _ = run_cli()
        assert code == 1

    def test_unwritable_out_path_exits_one(self, tmp_path):
        code, _, err = run_cli(
            "threshold", "--n-max", "0", "--out", str(tmp_path / "missing" / "t.csv")
        )
        assert code == 1
        assert "cannot write output" in err


class TestInProcess:
    def test_verification_failure_maps_to_exit_two(self, monkeypatch, capsys):
        from seec import cli, verification

        failing = verification.Check(
            name="I1[3]", value=1.0, reference=2.0, delta=1.0, tol=1e-10,
            normative=True, status="FAIL",
        )
        monkeypatch.setattr(verification, "collect_checks", lambda n_max: [failing])
        assert cli.main(["verify", "--n-max", "3"]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and "FAILURES PRESENT" in out

    def test_domain_error_maps_to_exit_one(self, capsys):
        from seec import cli

        assert cli.main(["criterion", "--n", str(N_MAX + 1)]) == 1
        assert "error" in capsys.readouterr().err
