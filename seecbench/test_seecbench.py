"""Tests of the benchmark itself: run with ``python3 -m pytest seecbench``."""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import seec  # noqa: E402
import seec.cli  # noqa: E402
import seec.verification  # noqa: E402


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_same_ops(workload):
    first = ops.first_ops(workload, 7, 50)
    assert first == ops.first_ops(workload, 7, 50)
    assert first != ops.first_ops(workload, 8, 50)


def test_block_composition_does_not_depend_on_seed():
    def shape(seed):
        block = next(ops.blocks("cli_bulk", seed))
        return sorted((op["cmd"], op["params"].get("modes", "").count(":"), bool(op["svg"]))
                      for op in block)

    assert shape(1) == shape(2)


@pytest.mark.parametrize("size", [11, 12, 40, 100, 101])
def test_tail_has_ten_samples_beyond(size):
    latencies = [float(i) for i in range(size, 0, -1)]
    value, pct, beyond = run.tail(latencies)
    assert beyond == 10
    assert sum(x > value for x in latencies) == 10
    assert pct == pytest.approx(100.0 * (size - 10) / size)
    # no higher sample would still have ten beyond it
    assert sum(x > value + 1.0 for x in latencies) < 10


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


@pytest.fixture(scope="module")
def ref():
    return checks.Reference(seec)


@pytest.fixture()
def root(tmp_path):
    (tmp_path / ops.WORK_DIR).mkdir(parents=True)
    return str(tmp_path)


def _sweep(fmt="csv"):
    params = {"modes": "0:0,1:1", "eta_min": -0.5, "eta_max": 1.5, "steps": 21, "format": fmt}
    op = ops.cli_op("sweep", params, "ok", "stdout")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert seec.cli.main(op["argv"]) == 0
    return op, buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_real_output_passes(ref, root, fmt):
    op, text = _sweep(fmt)
    outcome = checks.check_cli(op, 0, text, "", ref, root)
    assert outcome.ok, outcome.reason
    assert outcome.rows == 42


def _replace_f(text, row, new):
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[3] = new(fields[3])
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def test_rejects_nan_row(ref, root):
    op, text = _sweep()
    bad = _replace_f(text, 5, lambda f: "nan")
    outcome = checks.check_cli(op, 0, bad, "", ref, root)
    assert not outcome.ok and "non-finite" in outcome.reason


def test_rejects_truncated_csv(ref, root):
    op, text = _sweep()
    for cut in (len(text) // 2, len(text) - 1, text.rindex("\n", 0, len(text) - 1) + 1):
        outcome = checks.check_cli(op, 0, text[:cut], "", ref, root)
        assert not outcome.ok, cut


def test_rejects_traceback(ref, root):
    op, text = _sweep()
    stderr = 'Traceback (most recent call last):\n  File "x", line 1\nOverflowError: math range error\n'
    for code in (0, 1):
        outcome = checks.check_cli(op, code, text, stderr, ref, root)
        assert not outcome.ok and outcome.reason.startswith("traceback")


def test_rejects_wrong_f(ref, root):
    op, text = _sweep()
    bad = _replace_f(text, 7, lambda f: repr(float(f) + 1e-6))
    outcome = checks.check_cli(op, 0, bad, "", ref, root)
    assert not outcome.ok and outcome.reason.startswith("f = ")


def test_domain_error_passes_only_on_edge_ops(ref, root):
    params = {"n": 33, "m": 0, "eta": 0.0}
    message = "seec: error: n must be in [0, 32], got 33\n"
    edge = ops.cli_op("criterion", params, "any")
    assert checks.check_cli(edge, 1, "", message, ref, root).domain_error
    assert not checks.check_cli(dict(edge, expect="ok"), 1, "", message, ref, root).ok
    assert not checks.check_cli(edge, 1, "", "warning\n" + message, ref, root).ok
    assert not checks.check_cli(edge, 2, "", message, ref, root).ok


def test_pinned_values_hold(ref):
    assert ref.pinned_failures() == []


def test_trace_records_self_time_and_reports_missing_functions(monkeypatch, tmp_path):
    import seec.svgplot
    import spans

    layers = {
        "svgplot": ("seec.svgplot", ("line_plot", "_spans", "no_such_function")),
        "gone": ("seec.no_such_module", ("f",)),
    }
    names = tuple(f"{layer}.{fn}" for layer, (_, fns) in layers.items() for fn in fns)
    monkeypatch.setattr(spans, "LAYERS", layers)
    monkeypatch.setattr(spans, "SPAN_NAMES", names)
    for fn in ("line_plot", "_spans"):
        monkeypatch.setattr(seec.svgplot, fn, getattr(seec.svgplot, fn))

    recorder = spans.Recorder(3, {"numpy": 0.0, "seec": 0.0})
    recorder.install()
    assert recorder.absent == ["svgplot.no_such_function", "gone.f"]
    seec.svgplot.line_plot([("a", [(0.0, 1.0), (1.0, 2.0), (2.0, 0.5)])], "x", "y")
    recorder.save(tmp_path / "op.npz")

    totals = spans.Totals()
    totals.add(tmp_path / "op.npz")
    plot, inner = totals.span("svgplot.line_plot"), totals.span("svgplot._spans")
    assert totals.calls[plot] == 1 and totals.calls[inner] == 1
    assert totals.count[plot] == 3  # points plotted
    assert totals.self_[plot] == pytest.approx(totals.incl[plot] - totals.incl[inner])
    assert totals.absent == {"svgplot.no_such_function", "gone.f"}
