"""The seec benchmark: runs one workload and prints its metrics.

Usage, from the root of a checkout:

    python3 seecbench/run.py --workload cli_small --seed 1 --seconds 30 --trace 0
    python3 seecbench/run.py --workload lib_cold --seed 1 --list-ops 12

Each workload is a closed loop with one client: the next op starts when
the previous one has finished and been checked.  Ops are drawn from the
seed in blocks (see ``ops.py``) and every output is checked (see
``checks.py``).  With ``--trace 0`` the run measures as many whole blocks
as take about ``--seconds`` on the reference host and prints the
end-to-end metrics; with ``--trace 1`` it runs the first block once
untraced and once with layer spans (see ``spans.py``) and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary.  The full result, with provenance and
every failure, goes to ``.bench_build/seecbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import ops
import spawner
import spans

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "seecbench"
HERE = Path(__file__).resolve().parent

SETUP_SPAWNS = 15  # per run, at least
WALL_LIMIT_S = 150.0  # no op starts later than this into a run

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class OpRecord:
    """One executed op: its time, peak memory and checked outcome."""

    index: int
    cli: bool
    seconds: float
    rss_mb: float
    outcome: checks.Outcome


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for key in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "PYTHONINSPECT"):
        env.pop(key, None)
    return env


def read_text(path):
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        return fh.read()


class Runner:
    """Executes and checks ops for one workload run.

    Children are started by ``spawner.py``, a small process of its own, so
    that their max-RSS does not start from this process's; use as a context
    manager, which stops the spawner on exit.
    """

    def __init__(self, ref):
        self.ref = ref
        self.work = ROOT / ops.WORK_DIR
        self.stdout = BUILD / "stdout"
        self.stderr = BUILD / "stderr"
        self.setup_samples = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=spawner.TIMEOUT_S)

    def spawn(self, argv):
        """Run argv to completion; its output goes to self.stdout/stderr."""
        request = {"argv": argv, "stdout": str(self.stdout), "stderr": str(self.stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        return json.loads(reply)

    def _clean_work(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def run_op(self, index, op, span_path=None):
        self._clean_work()
        if op["kind"] == "cli":
            if span_path is None:
                argv = [sys.executable, "-m", "seec", *op["argv"]]
            else:
                argv = [sys.executable, str(HERE / "clihost.py"), str(span_path), str(index), *op["argv"]]
            done = self.spawn(argv)
            outcome = checks.check_cli(op, done["code"], read_text(self.stdout),
                                       read_text(self.stderr), self.ref, str(ROOT))
            return OpRecord(index, True, done["seconds"], done["maxrss_kb"] / 1024.0, outcome)
        argv = [sys.executable, str(HERE / "libhost.py"), json.dumps(op)]
        if span_path is not None:
            argv += [str(span_path), str(index)]
        done = self.spawn(argv)
        seconds = done["seconds"]
        payload = None
        try:
            lines = read_text(self.stdout).strip().splitlines()
            payload = json.loads(lines[-1]) if lines else None
        except ValueError:
            pass
        outcome = checks.check_lib(op, done["code"], payload, read_text(self.stderr), self.ref)
        if payload is not None:
            # the child's import counts as set-up, not as op time
            self.setup_samples.append(payload["ready"] - done["spawned"])
            seconds = payload["batch_s"]
        return OpRecord(index, False, seconds, done["maxrss_kb"] / 1024.0, outcome)

    def measure_setup(self, count):
        """Seconds from spawning a fresh interpreter until ``import seec``
        returns, ``count`` times."""
        code = "import time, seec; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
        for _ in range(count):
            done = self.spawn([sys.executable, "-c", code])
            if done["code"] != 0:
                raise RuntimeError(f"import seec failed:\n{read_text(self.stderr)}")
            self.setup_samples.append(float(read_text(self.stdout)) - done["spawned"])

    def warm_up(self):
        """Compile the package's bytecode once, outside every measurement."""
        for argv in (["-m", "seec", "--version"], ["-c", "import seec.verification"]):
            if self.spawn([sys.executable, *argv])["code"] != 0:
                raise RuntimeError(f"seec does not start:\n{read_text(self.stderr)}")


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile that has
    at least ten samples beyond it.  With ten or fewer samples there is
    none, and the maximum is reported with its true count beyond (0)."""
    ordered = sorted(latencies)
    size = len(ordered)
    if size <= 10:
        return ordered[-1], 100.0, 0
    return ordered[size - 11], 100.0 * (size - 10) / size, 10


def end_to_end(records, setup_samples):
    latencies = [r.seconds for r in records]
    value, pct, beyond = tail(latencies)
    rows = sum(r.outcome.rows for r in records if r.outcome.ok)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * value,
        "rows_per_s": rows / sum(latencies),
        "peak_rss_mb": max(r.rss_mb for r in records),
    }
    notes = {"tail_percentile": pct, "tail_samples_beyond": beyond, "samples": len(latencies),
             "setup_samples": len(setup_samples), "rows": rows}
    return metrics, notes


def per_layer(totals, untraced, traced):
    """Per-layer metrics from span totals and the two passes' op records."""
    m = {}
    absent = set()

    def span(name, field):
        i = totals.span(name)
        if name in totals.absent:
            absent.add(name)
        return float(getattr(totals, field)[i])

    def layer_self(layer):
        return 1000.0 * sum(float(totals.self_[i]) for i in totals.layer(layer))

    ms = 1000.0
    m["import.numpy_ms"] = ms * totals.imports.get("numpy", 0.0)
    m["import.seec_ms"] = ms * totals.imports.get("seec", 0.0)
    m["cli.self_ms"] = ms * span("cli.main", "self_")
    m["cli.write_ms"] = ms * span("cli._write_text", "incl")
    cli_ops = [r for r in traced if r.cli]
    m["cli.bytes_out"] = float(sum(r.outcome.bytes_out for r in cli_ops))
    m["cli.rows_out"] = float(sum(r.outcome.rows for r in cli_ops if r.outcome.ok))
    m["cli.domain_errors"] = float(sum(r.outcome.domain_error for r in cli_ops))
    calls = sum(float(totals.calls[i]) for i in totals.layer("criterion"))
    m["criterion.calls"] = calls
    m["criterion.self_ms"] = layer_self("criterion")
    m["criterion.us_per_call"] = 1000.0 * m["criterion.self_ms"] / calls if calls else 0.0
    hits, misses = totals.caches.get("criterion.standard_entropy", (0, 0))
    if "criterion.standard_entropy" not in totals.caches:
        absent.add("criterion.standard_entropy")
    m["criterion.entropy_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["quadrature.self_ms"] = layer_self("quadrature")
    m["quadrature.entropy_integral_numeric.calls"] = span("quadrature.entropy_integral_numeric", "calls")
    m["quadrature.entropy_integral_numeric.ms"] = ms * span("quadrature.entropy_integral_numeric", "incl")
    m["quadrature.legendre_panel_rule.ms"] = ms * span("quadrature.legendre_panel_rule", "incl")
    m["quadrature.entropy_panel_boundaries.ms"] = ms * span("quadrature.entropy_panel_boundaries", "incl")
    m["quadrature.nodes"] = span("quadrature.legendre_panel_rule", "count")
    m["specfun.self_ms"] = layer_self("specfun")
    m["specfun.entropy_integral_closed_form.calls"] = span("specfun.entropy_integral_closed_form", "calls")
    m["specfun.entropy_integral_closed_form.ms"] = ms * span("specfun.entropy_integral_closed_form", "incl")
    m["specfun.hermite_roots.ms"] = ms * span("specfun.hermite_roots", "incl")
    m["kernels.self_ms"] = layer_self("kernels")
    m["kernels.hermite_values.calls"] = span("kernels.hermite_values", "calls")
    m["kernels.hermite_values.points"] = span("kernels.hermite_values", "count")
    m["kernels.hermite_values.ms"] = ms * span("kernels.hermite_values", "incl")
    m["kernels.entropy_weighted_sum.points"] = span("kernels.entropy_weighted_sum", "count")
    m["kernels.entropy_weighted_sum.ms"] = ms * span("kernels.entropy_weighted_sum", "incl")
    m["kernels.flops_computed"] = span("kernels.hermite_values", "flops") + span("kernels.entropy_weighted_sum", "flops")
    m["kernels.bytes_computed"] = span("kernels.hermite_values", "bytes") + span("kernels.entropy_weighted_sum", "bytes")
    m["oscillator.self_ms"] = layer_self("oscillator")
    m["oscillator.wavefunction.ms"] = ms * span("oscillator.wavefunction", "incl")
    m["oscillator.wavefunction.points"] = span("oscillator.wavefunction", "count")
    m["oscillator.diagonalize.calls"] = span("oscillator.diagonalize", "calls")
    m["verification.collect_checks.ms"] = ms * span("verification.collect_checks", "incl")
    m["verification.checks"] = span("verification.collect_checks", "count")
    m["svgplot.line_plot.ms"] = ms * span("svgplot.line_plot", "incl")
    m["svgplot.points"] = span("svgplot.line_plot", "count")
    plain = sum(r.seconds for r in untraced)
    with_spans = sum(r.seconds for r in traced)
    m["trace.ops"] = float(len(traced))
    m["trace.op_ms"] = ms * with_spans
    m["trace.overhead_frac"] = with_spans / plain - 1.0
    return m, sorted(absent)


UNITS = {
    "calls": "count", "points": "count", "nodes": "count", "checks": "count",
    "bytes_out": "bytes", "rows_out": "count", "domain_errors": "count", "ops": "count",
    "us_per_call": "us", "entropy_hit_ratio": "ratio", "overhead_frac": "ratio",
    "flops_computed": "flop", "bytes_computed": "bytes",
}


def unit_of(name):
    last = name.rsplit(".", 1)[-1]
    return "ms" if last.endswith("ms") else UNITS[last]


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def importable(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def provenance(seec, args):
    import numpy

    backend = getattr(seec, "backend", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "seec_version": getattr(seec, "__version__", None),
        "seec_backend": backend() if callable(backend) else None,
        # baseline figures use the numpy fallback; flag compiled runs
        "compiled_core_importable": importable("seec._kernels._core"),
        "SEEC_BACKEND": os.environ.get("SEEC_BACKEND"),
    }


def run_blocks(runner, workload, seed, count, deadline, span_dir=None, setup_spawns=0):
    """Run the first ``count`` blocks of the seed's op stream, taking
    ``setup_spawns`` set-up samples before each block so that they spread
    over the run like the ops do.  No op starts after ``deadline``."""
    records = []
    for block in itertools.islice(ops.blocks(workload, seed), count):
        runner.measure_setup(setup_spawns)
        for op in block:
            if time.perf_counter() > deadline:
                return records
            index = len(records)
            span_path = span_dir / f"op{index:05d}.npz" if span_dir is not None else None
            records.append(runner.run_op(index, op, span_path))
    return records


def parse_args(argv):
    parser = argparse.ArgumentParser(description="seec benchmark")
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-ops", type=int, metavar="N",
                        help="print the first N ops for this seed as JSON lines and exit")
    return parser.parse_args(argv)


def main(argv=None):
    deadline = time.perf_counter() + WALL_LIMIT_S
    args = parse_args(argv)
    if args.list_ops is not None:
        for op in ops.first_ops(args.workload, args.seed, args.list_ops):
            print(json.dumps(op))
        return 0
    if not (ROOT / "src" / "seec" / "__init__.py").is_file():
        print(f"seecbench: no seec source tree at {ROOT / 'src' / 'seec'}", file=sys.stderr)
        return 2
    BUILD.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    import seec
    import seec.verification  # noqa: F401

    ref = checks.Reference(seec)
    prov = provenance(seec, args)
    pinned = ref.pinned_failures()
    with Runner(ref) as runner:
        runner.warm_up()
        if args.trace:
            span_dir = BUILD / "spans" / f"{args.workload}-seed{args.seed}"
            shutil.rmtree(span_dir, ignore_errors=True)
            span_dir.mkdir(parents=True)
            untraced = run_blocks(runner, args.workload, args.seed, 1, deadline)
            traced = run_blocks(runner, args.workload, args.seed, 1, deadline, span_dir=span_dir)
            totals = spans.Totals()
            for path in sorted(span_dir.glob("op*.npz")):
                totals.add(path)
            records = untraced + traced
            metrics, absent = per_layer(totals, untraced, traced)
            notes = {"span_dir": str(span_dir.relative_to(ROOT)), "absent": absent,
                     "span_files": totals.ops}
        else:
            count = ops.block_count(args.workload, args.seconds)
            records = run_blocks(runner, args.workload, args.seed, count, deadline,
                                 setup_spawns=-(-SETUP_SPAWNS // count))
            metrics, notes = end_to_end(records, runner.setup_samples)
            absent = []
        shutil.rmtree(runner.work, ignore_errors=True)

    failures = [(r.index, r.outcome.reason) for r in records if not r.outcome.ok]
    attempted = len(records)
    failed = len(failures)
    correct = failed == 0 and not pinned
    units = END_TO_END if not args.trace else {k: unit_of(k) for k in metrics}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    print(f"provenance {json.dumps(prov)}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  latency_tail_ms is p{notes['tail_percentile']:.1f}: {notes['tail_samples_beyond']} "
              f"of {notes['samples']} samples beyond it; setup_s is the median of "
              f"{notes['setup_samples']} interpreter starts")
    print(f"  failed_frac {failed / attempted:.4g} ({failed} of {attempted} ops failed)")
    for index, reason in failures[:20]:
        print(f"  FAILED op {index}: {reason}")
    for reason in pinned:
        print(f"  FAILED pinned value: {reason}")
    if absent:
        print(f"  absent (reported as 0): {', '.join(absent)}")

    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    full = dict(result, provenance=prov, notes=notes, failed_frac=failed / attempted,
                failures=failures, pinned_failures=pinned, setup_samples=runner.setup_samples,
                latencies_s=[r.seconds for r in records])
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
