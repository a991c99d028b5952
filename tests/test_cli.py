import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seec import cli, criterion, oscillator, svgplot, verification
from seec.errors import DomainError
from seec.scalars import N_MAX
from test_golden import GOLDEN


# the directory seec is imported from, for a child run in another directory
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_cli(*args, env=None, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "seec", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
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

    def test_empty_mode_chunks_are_skipped(self):
        # a trailing comma, or a blank chunk, is accepted; a list of
        # nothing but commas is not
        for modes in ("0:0,", "0:0, "):
            code, out, _ = run_cli("sweep", "--modes", modes, "--steps", "2")
            assert code == 0 and out.count("\n") == 3
        code, out, err = run_cli("sweep", "--modes", ",")
        assert code == 1 and out == ""
        assert "no modes given" in err

    def test_mode_order_out_of_range(self):
        code, _, err = run_cli("sweep", "--modes", f"{N_MAX + 1}:0")
        assert code == 1


_BOUNDS = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2, unique=True
).map(sorted)


class TestSweepGrid:
    """The sweep's eta grid and f column are the values np.linspace and
    threshold_eta0(n, m) - grid give, bit for bit."""

    @given(bounds=_BOUNDS, steps=st.integers(2, 3000) | st.sampled_from((2, 3, 100_001)))
    @settings(max_examples=300)
    @example(bounds=[0.0, 1.0], steps=2)
    @example(bounds=[-2.5, -0.25], steps=100_001)
    @example(bounds=[0.0, 5e-324], steps=3)  # step == 0: numpy's denormal branch
    @example(bounds=[-5e-324, 5e-324], steps=7)
    @example(bounds=[1e-310, 1.5e-310], steps=1001)
    @example(bounds=[-1e308, 1e308], steps=11)  # hi - lo overflows
    @example(bounds=[-1.7976931348623157e308, 1.7976931348623157e308], steps=2)
    # hi - lo is DBL_MAX itself: finite, and so is every point
    @example(bounds=[-1e308, 7.976931348623157e307], steps=3)
    @example(bounds=[-1e308, 7.976931348623157e307], steps=100_001)
    @example(bounds=[-5e-324, 5e-324], steps=100_001)  # step == 0 in every block
    def test_grid_equals_linspace(self, bounds, steps):
        lo, hi = bounds
        with np.errstate(all="ignore"):
            expected = np.linspace(lo, hi, steps)
        if not np.isfinite(expected).all():
            with pytest.raises(DomainError, match="finite grid"):
                cli._eta_grid(lo, hi, steps)
            return
        grid = cli._eta_grid(lo, hi, steps)
        assert grid.typecode == "d"
        np.testing.assert_array_equal(np.array(grid).view(np.uint64), expected.view(np.uint64))

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
    def test_f_column_equals_the_pointwise_reports(self, modes, bounds, capsys):
        lo, hi = bounds
        argv = ["sweep", "--modes", modes, "--steps", "257", "--format", "json",
                f"--eta-min={lo!r}", f"--eta-max={hi!r}"]
        assert cli.main(argv) == 0
        records = json.loads(capsys.readouterr().out)
        grid = np.linspace(lo, hi, 257)
        pairs = cli._parse_modes(modes)
        expected = np.concatenate([criterion.threshold_eta0(n, m) - grid for n, m in pairs])
        reports = [criterion.criterion_f(n, m, eta) for n, m in pairs for eta in grid.tolist()]
        f = np.array([r["f"] for r in records], dtype=np.float64)
        np.testing.assert_array_equal(f.view(np.uint64), expected.view(np.uint64))
        pointwise = np.array([r.f for r in reports], dtype=np.float64)
        np.testing.assert_array_equal(f.view(np.uint64), pointwise.view(np.uint64))
        entangled = [r["entangled"] for r in records]
        assert entangled == (expected < 0.0).tolist() == [r.entangled for r in reports]
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


class TestSweepVerdict:
    """The entangled column is cut once, where f first falls below 0, and
    each curve's finiteness is checked at its two ends."""

    @given(bounds=_BOUNDS, steps=st.integers(2, 300), modes=_MODES, rows=st.integers(1, 9),
           fmt=st.sampled_from(["csv", "json"]))
    @settings(max_examples=150, deadline=None)
    @example(bounds=[-1.0, 1.0], steps=3, modes=[(0, 0)], rows=1, fmt="csv")  # eta0(0, 0) = 0.0
    @example(bounds=[0.0, 2.0], steps=201, modes=[(0, 0), (1, 1)], rows=7, fmt="csv")
    @example(bounds=[-2.5, -0.25], steps=99, modes=[(0, 0), (3, 1)], rows=4, fmt="csv")  # all < 0
    @example(bounds=[-1e16, 1.5], steps=5, modes=[(0, 0), (32, 32)], rows=2, fmt="csv")  # wide
    @example(bounds=[-1e16, 1.5], steps=300, modes=[(2, 3)], rows=9, fmt="csv")
    @example(bounds=[0.0, _ETA0_11], steps=7, modes=[(1, 1)], rows=3, fmt="csv")  # eta0 at the top
    @example(bounds=[-1.0, 1.0], steps=3, modes=[(0, 0)], rows=1, fmt="json")
    @example(bounds=[0.0, 2.0], steps=201, modes=[(0, 0), (1, 1)], rows=7, fmt="json")
    def test_cut_equals_the_verdict_at_every_point(self, bounds, steps, modes, rows, fmt):
        lo, hi = bounds
        assume(math.isfinite(hi - lo))
        grid = cli._eta_grid(lo, hi, steps)
        mode_text = ",".join(f"{n}:{m}" for n, m in modes)
        out = io.StringIO()
        # blocks of a few rows put the cut before, inside and after a block;
        # the sweep reads _SWEEP_ROWS when it runs, for its grid, its eta
        # column's texts and its blocks alike
        with mock.patch.object(cli, "_SWEEP_ROWS", rows), contextlib.redirect_stdout(out):
            code = cli.main(["sweep", "--modes", mode_text, f"--eta-min={lo!r}",
                             f"--eta-max={hi!r}", "--steps", str(steps), "--format", fmt])
        assert code == 0
        reports = [criterion.criterion_f(n, m, eta) for n, m in modes for eta in grid]
        if fmt == "json":
            # the JSON writer joins its blocks into one document of records
            records = json.loads(out.getvalue())
            column = [r["entangled"] for r in records]
            assert [r["f"] for r in records] == [rep.f for rep in reports]
        else:
            column = [r[4] == "true" for r in parse_csv(out.getvalue())[1]]
        verdicts = [criterion._verdict(criterion.threshold_eta0(n, m), eta)
                    for n, m in modes for eta in grid]
        assert column == verdicts == [rep.entangled for rep in reports]

    @pytest.mark.parametrize(
        "eta0,bounds",
        [
            (math.inf, []),
            (-math.inf, []),
            (math.nan, []),
            (1e308, ["--eta-min=-1e308", "--eta-max=0"]),  # f overflows at eta-min only
            (-1e308, ["--eta-max=1e308"]),  # and at eta-max only
        ],
    )
    @pytest.mark.parametrize("svg", [False, True])
    def test_non_finite_curve_writes_nothing(self, eta0, bounds, svg, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(criterion, "threshold_eta0", lambda n, m: eta0)
        out_path, svg_path = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        for argv in (["sweep", *bounds], ["sweep", *bounds, "--out", str(out_path)]):
            if svg:
                argv += ["--svg", str(svg_path)]
            assert cli.main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "seec: error: f is not finite for these inputs\n"
        assert list(tmp_path.iterdir()) == []


def _svg(*args):
    """The SVG text of line_plot(*args), whose lines it joins."""
    lines = svgplot.line_plot(*args)
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    return "".join(lines)


# the sweeps whose SVG the golden digests pin, and two more grids: one
# across zero with a small negative start, and one over a denormal span
_SVG_SWEEPS = sorted({c for c, _, svg_sha in GOLDEN if svg_sha is not None} | {
    "sweep --eta-min -1e-3 --steps 201 --svg",
    "sweep --modes 0:0,1:1 --eta-min 0 --eta-max 1e-310 --steps 9 --svg",
    # f moves by less than an ulp: a flat curve, whose y span is widened
    "sweep --modes 1:1 --eta-min 0 --eta-max 1e-300 --steps 2 --svg",
})


def _segment_distance(p, a, b):
    """The distance from point p to the segment from a to b."""
    (x, y), (ax, ay), (bx, by) = p, a, b
    dx, dy = bx - ax, by - ay
    t = ((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy)
    t = min(max(t, 0.0), 1.0)
    return math.hypot(x - ax - t * dx, y - ay - t * dy)


class TestSvgPlot:
    def test_int_pairs_plot_as_the_float_pairs_they_equal(self):
        ints = [("i", [(0, 1), (2, -3), (5, 4)])]
        assert _svg(ints, "x", "y") == _svg([("i", [(0.0, 1.0), (2.0, -3.0), (5.0, 4.0)])], "x", "y")
        # numpy ints too, whose pixel products would wrap around in int64
        big = [("i", [(np.int64(0), np.int64(0)), (np.int64(2**62), np.int64(1))])]
        assert _svg(big, "x", "y") == _svg([("i", [(0.0, 0.0), (2.0**62, 1.0)])], "x", "y")

    def test_one_point_plots_on_unit_spans(self):
        # both spans vanish, so each is widened to 1 (then y padded by 5%)
        svg = _svg([("a", [(1.0, 2.0)])], "x", "y")
        assert svg.count("<polyline") == 1
        assert svgplot._spans([(1.0, 2.0)]) == (1.0, 2.0, 1.95, 3.05)

    @pytest.mark.parametrize("series", [[], [("a", [])]])
    def test_no_point_to_plot_is_a_domain_error(self, series):
        with pytest.raises(DomainError, match="there is no point to plot"):
            svgplot.line_plot(series, "x", "y")

    @pytest.mark.parametrize("command", _SVG_SWEEPS)
    def test_sweep_draws_each_curve_as_its_segment(self, command, tmp_path):
        svg_path = tmp_path / "plot.svg"
        argv = command.split() + [str(svg_path), "--out", str(tmp_path / "records")]
        args = cli.build_parser().parse_args(argv)
        assert cli.main(argv) == 0
        svg = svg_path.read_text()
        grid = cli._eta_grid(args.eta_min, args.eta_max, args.steps)
        curves = [(f"(n,m)=({n},{m})", [(x, criterion.threshold_eta0(n, m) - x) for x in grid])
                  for n, m in cli._parse_modes(args.modes)]
        # every grid point drawn gives the same plot but for the polylines'
        # points: the axes, labels, spans and zero line are the segments' own
        attribute = re.compile(r'points="([^"]*)"')
        assert attribute.sub("", svg) == attribute.sub("", _svg(curves, "eta", "f"))
        drawn = [[tuple(map(float, p.split(","))) for p in points.split()]
                 for points in attribute.findall(svg)]
        assert [len(ends) for ends in drawn] == [2] * len(curves)
        # each grid point, at its unrounded pixel, lies on the drawn segment
        x0, x1, y0, y1 = svgplot._spans([p for _, pts in curves for p in pts])
        width, height = svgplot._RIGHT - svgplot._LEFT, svgplot._BOTTOM - svgplot._TOP
        for ends, (_, pts) in zip(drawn, curves):
            worst = max(
                _segment_distance((svgplot._LEFT + width * (x - x0) / (x1 - x0),
                                   svgplot._BOTTOM - height * (y - y0) / (y1 - y0)), *ends)
                for x, y in pts
            )
            assert worst < 0.01, worst

    def test_series_with_their_own_x_values(self):
        # each series draws over its own x values, and the x span covers all
        svg = _svg([("a", [(0.0, 1.0), (1.0, 2.0)]), ("b", [(2.0, 0.0), (4.0, 1.0)])], "x", "y")
        assert ">0</text>" in svg and ">4</text>" in svg
        a, b = ([p.split(",")[0] for p in points.split()]
                for points in re.findall(r'points="([^"]*)"', svg))
        assert (a, b) == (["70.00", "247.50"], ["425.00", "780.00"])


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

    def test_unbound_edge_exits_zero(self):
        # A + B - |C| rounds to 0 here: the route may not divide by it.
        # A < B by one ulp, so eta is negative and the tie is not taken
        code, out, err = run_cli("diagonalize", "--A", "1", "--B", "1.0000000000000002", "--C", "2")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["eta"] == -9.357486937559262
        assert payload["degenerate_branch"] is False

    def test_asymmetric_couplings(self):
        code, out, _ = run_cli("diagonalize", "--A", "2", "--B", "1", "--C", "1")
        payload = json.loads(out)
        assert abs(payload["eta"] - 0.255937307546837) <= 1e-9
        assert abs(payload["alpha_deg"] - (-22.5)) <= 1e-9
        assert payload["roundtrip_error"] <= 1e-9


class TestVerify:
    def test_exit_zero_with_normative_closed_form_rows(self):
        # I0 to I2 against their closed forms, and the entropy against its
        # convergence reference and the frozen table; the table is a header,
        # one line per row, a blank line and the summary
        code, out, _ = run_cli("verify", "--n-max", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["check", "value", "reference", "delta", "status"]
        assert lines[-2:] == ["", "normative checks: all passed"]
        rows = {line.split()[0]: line.split()[-1] for line in lines[1:-2]}
        for n in range(3):
            for name in ("I0", "I1", "I2", "I3conv", "S_table"):
                assert rows[f"{name}[{n}]"] == "ok"
        assert not any(name.startswith(("I3closed", "S_closed")) for name in rows)
        assert set(rows.values()) <= {"ok"}

    def test_json_format(self):
        code, out, _ = run_cli("verify", "--n-max", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "I3anchor[1]" in names
        statuses = {c["status"] for c in payload["checks"]}
        assert statuses <= {"ok"}
        table = [c for c in payload["checks"] if c["name"].startswith("S_table[")]
        assert len(table) == 2 and all(c["normative"] for c in table)
        ulps = verification.S_TABLE_ULPS
        assert all(c["tol"] == ulps * math.ulp(c["reference"]) for c in table)

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
        # route, against the array form on the same points: bit for bit
        # where math.exp and numpy's exp give both factors one Gaussian,
        # with zeros in the same places.  Where they differ by 1 ulp, the
        # recurrence carries it to at most 1.1e-15 of the grid's largest
        # value (at n = 12, m = 11), within 2e-15 of it
        argv = command.split()
        args = cli.build_parser().parse_args(argv)
        grid = cli._eta_grid(args.u_min, args.u_max, args.steps)
        mode = oscillator.ModePair(args.n, args.m)
        f1, f2 = oscillator._wavefunction_axes(mode, args.eta, args.space, grid)
        rows = np.array([[v * a for a in f1] for v in f2])
        u = np.array(grid)
        expected = oscillator.wavefunction(mode, args.eta, args.space, u[:, None], u[None, :])
        assert np.array_equal(rows == 0.0, expected == 0.0)
        t1, t2 = oscillator._sum_difference_scales(args.space, args.eta, 45.0)
        with np.errstate(over="ignore"):
            same = [np.exp(g) == [math.exp(v) for v in g.tolist()]
                    for g in (-0.5 * np.square(t * u) for t in (t1, t2))]
        agree = same[1][:, None] & same[0][None, :]
        assert rows[agree].tobytes() == expected[agree].tobytes()
        assert np.all(np.abs(rows - expected) <= 2e-15 * np.abs(expected).max())
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
        # |u| up to 1e155: t u overflows to inf and the Gaussian is 0, and
        # those points print as 0; the digest is the array route's output
        argv = "wavefunction --n 64 --m 64 --u-min=-1e155 --u-max=1e155 --steps 5".split()
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "40216ae1d298072ed3aedbcb23845080becfe158be853e7a22f6696946886af1"
        )
        values = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
        assert values == ["0"] * 12 + ["0.0560504036239"] + ["0"] * 12

    def test_underflowed_gaussian_prints_zero(self, capsys):
        # psi_1 is +0.0 where its Gaussian underflows, at u = -100 too, so
        # no product prints as -0
        argv = "wavefunction --n 1 --m 0 --u-min=-100 --u-max=100 --steps 3".split()
        assert cli.main(argv) == 0
        values = [line.rsplit(",", 1)[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert values == ["0"] * 9


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
            found = os.umask(old)
        assert out_path.stat().st_mode & 0o7777 == mode
        assert found == umask  # the umask is read, and left as it was

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

    def test_symlink_is_written_through_to_its_target(self, tmp_path, capsys):
        # a rename over the link would turn it into a file and leave the
        # target as it was
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"old bytes\n")
        target.chmod(0o640)
        link.symlink_to(target)
        assert cli.main(["threshold"]) == 0
        expected = capsys.readouterr().out.encode()
        assert cli.main(["threshold", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == expected
        assert target.stat().st_mode & 0o7777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        old = os.umask(0o022)
        try:
            cli._write_text("new bytes\n", str(link))
        finally:
            os.umask(old)
        assert link.is_symlink() and target.read_bytes() == b"new bytes\n"
        assert target.stat().st_mode & 0o7777 == 0o644

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        # a rename would replace the FIFO with a file, and its reader would
        # get nothing; the reader is a daemon, so a failing write cannot
        # hang the suite
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert cli.main(["threshold", "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert cli.main(["threshold"]) == 0
        assert received == [capsys.readouterr().out.encode()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_pipe_behind_a_proc_link_is_written_in_place(self):
        # /dev/stdout links to /proc/self/fd/1: behind it a pipe has no path
        # that realpath could name, but open() follows the link
        r, w = os.pipe()
        try:
            cli._write_text(iter(["a\n", "b\n"]), f"/proc/self/fd/{w}")
            assert os.read(r, 100) == b"a\nb\n"
        finally:
            os.close(r)
            os.close(w)

    # --out naming one of the process's own descriptors, which the shell
    # opened in append mode on a file that already holds a line: the table
    # follows that line, as it does without --out, and a later write of the
    # shell through its descriptor follows the table
    _TABLE = b"n,m,eta0\n0,0,0\n"

    def _appended(self, tmp_path, out):
        # the file after "earlier", the command with its descriptor {fd},
        # else its stdout, appending to the file, and "after"; and the
        # command's stdout
        log = tmp_path / "log.txt"
        log.write_bytes(b"earlier\n")
        argv = [sys.executable, "-m", "seec", "threshold", "--n-max", "0", "--m-max", "0"]
        with open(log, "ab") as fh:
            proc = subprocess.run(
                [*argv, "--out", out.format(fd=fh.fileno())],
                stdout=subprocess.PIPE if "{fd}" in out else fh,
                stderr=subprocess.PIPE,
                pass_fds=(fh.fileno(),),
                env=dict(os.environ, PYTHONPATH=SRC),
            )
            assert (proc.returncode, proc.stderr) == (0, b"")
            os.write(fh.fileno(), b"after\n")
        assert [p.name for p in tmp_path.iterdir()] == ["log.txt"]
        return log.read_bytes(), proc.stdout

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_out_through_appended_stdout_keeps_the_earlier_bytes(self, tmp_path):
        # echo earlier > log; seec ... --out /dev/stdout >> log
        log, _ = self._appended(tmp_path, "/dev/stdout")
        assert log.startswith(b"earlier\n" + self._TABLE)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_out_through_appended_stdout_keeps_the_later_writes(self, tmp_path):
        # (seec ... --out /dev/stdout; echo after) >> log: a rename left the
        # shell's descriptor on the replaced inode, and "after" was lost too
        log, _ = self._appended(tmp_path, "/dev/stdout")
        assert log.endswith(self._TABLE + b"after\n")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("out", ["/dev/fd/{fd}", "/proc/self/fd/{fd}"])
    def test_out_through_an_appended_descriptor(self, out, tmp_path):
        # seec ... --out /dev/fd/3 3>> log, with stdout elsewhere
        assert self._appended(tmp_path, out) == (b"earlier\n" + self._TABLE + b"after\n", b"")

    def test_named_file_is_replaced_whatever_stdout_appends_to(self, tmp_path):
        # keyed by the path's spelling: --out log with stdout appending to
        # log still replaces the file atomically, as --out does for any name
        log, _ = self._appended(tmp_path, str(tmp_path / "log.txt"))
        assert log == self._TABLE

    def test_dev_null_is_written_in_place(self, capsys):
        assert cli.main(["threshold", "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

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

    def _traced_peak(self, warm_up, argv):
        # peak traced memory of cli.main(argv) to a null stdout, after a
        # warm-up call
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            assert cli.main(warm_up) == 0
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

    def test_wavefunction_memory_does_not_grow_with_the_grid(self):
        # a 401 x 401 grid holds the two factor lists and one row (about
        # 180 KB), not the grid (8.8 MB when the chunks are joined).  CI
        # repeats this at 1601 steps under 2 MB
        argv = ["wavefunction", "--n", "12", "--m", "11", "--space", "momentum", "--steps"]
        peak = self._traced_peak(argv + ["5"], argv + ["401"])
        assert peak < 1_000_000, peak

    def test_sweep_memory_does_not_grow_with_the_modes(self):
        # a 20,001-step sweep holds its grid, its eta column and one block of
        # rows (about 0.4 MB), for 8 modes as for 1 (8 modes peak at 4.8 MB
        # with each mode's text in one block, 2.2 MB with the grid a list
        # and the column one str per point).  CI runs a larger sweep with
        # --svg under an RSS bound
        argv = ["sweep", "--steps", "20001", "--modes"]
        warm_up = ["sweep", "--steps", "5"]
        one = self._traced_peak(warm_up, argv + ["0:0"])
        eight = self._traced_peak(warm_up, argv + ["0:0,1:1,2:3,5:0,7:7,12:3,4:9,32:32"])
        assert eight < 1_000_000, eight
        assert eight < 1.1 * one, (one, eight)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_memory_per_step(self, fmt):
        # what grows with the steps is the grid, 8 B a point, and the eta
        # column, one text of about len + 1 B a point per block: about 16 B
        # (CSV) and 23 B (JSON) a step.  A list of floats and one str per
        # point held about 100 B a step
        argv = ["sweep", "--modes", "0:0", "--format", fmt, "--steps"]
        small, large = (self._traced_peak(argv + ["5"], argv + [str(steps)])
                        for steps in (20_001, 100_001))
        assert (large - small) / 80_000 <= 32, (small, large)


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


COMMANDS = ("sweep", "threshold", "criterion", "diagonalize", "verify", "wavefunction")


class TestUsageErrors:
    def test_unknown_command_exits_one(self):
        code, _, err = run_cli("nonsense")
        assert code == 1
        assert "error" in err

    def test_missing_command_exits_one(self):
        code, _, _ = run_cli()
        assert code == 1

    def test_unwritable_out_path_exits_one(self, tmp_path):
        # the error names the path given, not the random temp file beside
        # it, so two runs print the same line
        path = str(tmp_path / "missing" / "t.csv")
        runs = [run_cli("threshold", "--n-max", "0", "--out", path) for _ in range(2)]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 1 and out == ""
        assert err == f"seec: error: cannot write output: [Errno 2] No such file or directory: {path!r}\n"

    def test_unwritable_svg_path_exits_one_after_the_csv(self, tmp_path):
        # the SVG is written after the CSV, which is already on stdout
        path = str(tmp_path / "missing" / "x.svg")
        runs = [run_cli("sweep", "--steps", "3", "--svg", path) for _ in range(2)]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 1 and out.startswith("eta,n,m,f,entangled\n")
        assert err == f"seec: error: cannot write output: [Errno 2] No such file or directory: {path!r}\n"

    @pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["no --out", "--out -"])
    def test_svg_to_stdout_with_the_records_exits_one(self, out, capsys):
        # '-' for both would write the SVG after the records, into one stream
        assert cli.main(["sweep", "--steps", "3", "--svg", "-", *out]) == 1
        assert capsys.readouterr() == (
            "", "seec: error: --svg - needs --out PATH: the records already go to stdout\n")

    @pytest.mark.parametrize("svg", ["P", "./P"])
    def test_svg_and_out_naming_one_file_exit_one_before_any_work(self, svg, tmp_path):
        # the SVG, written second, would overwrite the records; two
        # spellings of one path are one file
        code, out, err = run_cli(
            "sweep", "--steps", "3", "--out", "P", "--svg", svg,
            env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path,
        )
        assert (code, out) == (1, "")
        assert err == (
            "seec: error: --svg and --out name one file: the plot would overwrite the records\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_svg_naming_the_target_of_the_out_link_exits_one(self, tmp_path, capsys):
        # written through, the link and its target are one file
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"old bytes\n")
        link.symlink_to(target)
        argv = ["sweep", "--steps", "3", "--out", str(link), "--svg", str(target)]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", "seec: error: --svg and --out name one file: the plot would overwrite the records\n"
        )
        assert link.is_symlink() and target.read_bytes() == b"old bytes\n"

    def test_svg_to_stdout_with_the_records_in_a_file(self, tmp_path, capsys):
        argv = ["sweep", "--steps", "3"]
        records, svg = tmp_path / "records.csv", tmp_path / "plot.svg"
        assert cli.main([*argv, "--out", str(records), "--svg", str(svg)]) == 0
        out_path = tmp_path / "sweep.csv"
        assert cli.main([*argv, "--out", str(out_path), "--svg", "-"]) == 0
        assert capsys.readouterr() == (svg.read_text(), "")
        assert out_path.read_bytes() == records.read_bytes()

    @pytest.mark.parametrize(
        "args",
        [("--svg", "/dev/stdout"), ("--out", "/dev/stdout", "--svg", "-")],
        ids=" ".join,
    )
    def test_stdout_spelled_as_its_file_with_the_records_exits_one(self, args):
        # /dev/stdout opens stdout's own file, here the pipe run_cli reads:
        # the SVG would follow the records into it
        code, out, err = run_cli("sweep", "--modes", "1:1", "--steps", "3", *args)
        assert (code, out) == (1, "")
        assert err == (
            f"seec: error: --svg {args[-1]} needs --out PATH: the records already go to stdout\n"
        )

    def test_svg_to_stdout_spelled_as_its_file_with_the_records_in_a_file(self, tmp_path):
        records = tmp_path / "records.csv"
        code, out, err = run_cli("sweep", "--steps", "3", "--out", str(records),
                                 "--svg", "/dev/stdout")
        assert (code, err) == (0, "")
        assert out.startswith("<svg") and records.read_text().startswith("eta,n,m,f,entangled\n")

    def test_svg_naming_a_hard_link_of_the_out_file_exits_one(self, tmp_path, capsys):
        # two names of one inode are one file
        records, link = tmp_path / "records.csv", tmp_path / "link.csv"
        records.write_bytes(b"old bytes\n")
        os.link(records, link)
        assert cli.main(["sweep", "--steps", "3", "--out", str(records), "--svg", str(link)]) == 1
        assert capsys.readouterr() == (
            "", "seec: error: --svg and --out name one file: the plot would overwrite the records\n"
        )
        assert records.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize(
        "argv",
        [[command, "--out="] for command in COMMANDS] + [["sweep", "--svg="]],
        ids=" ".join,
    )
    def test_empty_path_exits_one_before_any_work(self, argv, tmp_path):
        # '' names no file: taken as a path, it put the temp file in the
        # directory above the working one
        work = tmp_path / "work"
        work.mkdir()
        code, out, err = run_cli(*argv, env=dict(os.environ, PYTHONPATH=SRC), cwd=work)
        assert (code, out) == (1, "")
        option = argv[1].rstrip("=")
        assert err == f"seec {argv[0]}: error: argument {option}: the path must not be empty\n"
        assert list(tmp_path.iterdir()) == [work] and list(work.iterdir()) == []

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_closed_stdout_exits_one_without_a_traceback(self, command, unbuffered):
        # stdout is a pipe whose reader is already gone; buffered, a small
        # output would otherwise first fail in the flush at exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "seec", command],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == "seec: error: cannot write output: [Errno 32] Broken pipe\n"


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

    @pytest.mark.parametrize("command", ["sweep", "wavefunction"])
    def test_memory_error_is_a_one_line_error(self, command, monkeypatch, capsys):
        # a grid too large for memory, such as --steps 100000000 under a
        # small address-space limit, exits 1 without a traceback
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_eta_grid", no_memory)
        assert cli.main([command]) == 1
        assert capsys.readouterr() == ("", "seec: error: not enough memory for these inputs\n")

    def test_domain_error_maps_to_exit_one(self, capsys):
        from seec import cli

        assert cli.main(["criterion", "--n", str(N_MAX + 1)]) == 1
        assert "error" in capsys.readouterr().err
