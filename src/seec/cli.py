"""Command-line front end.

Subcommands: sweep (criterion curves over an eta grid), threshold (the
eta0(n, m) table), criterion (single-point JSON report), diagonalize
(couplings to normal-mode report), verify (closed forms against the
numeric oracle), wavefunction (grid samples of the eigenfunctions).

Output is deterministic: identical invocations produce byte-identical
CSV/JSON, files are written atomically (temp + rename), numeric CSV fields
carry 12 significant digits.  Exit codes: 0 success, 1 usage or domain
error, 2 verification failure.

Each subcommand imports the modules it uses when it runs: sweep (its SVG
included), threshold, criterion and diagonalize work on floats alone and
never import numpy, and tempfile and json load only for the output that needs them.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from . import __version__
from .errors import DomainError


_BOOL_TEXT = ("false", "true")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read -1e-3 as a negative number, not an option: argparse's own
        # pattern (Python 3.11 and 3.13 alike) knows only -1 and -0.001
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_text(text, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".seec-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_modes(text):
    modes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n_str, m_str = chunk.split(":")
            modes.append((int(n_str), int(m_str)))
        except ValueError:
            raise DomainError(f"modes must look like 'n:m[,n:m...]', got {text!r}")
    if not modes:
        raise DomainError(f"no modes given in {text!r}")
    return modes


def _finite(name, values):
    """The list of floats values; a DomainError if any is nan or inf."""
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{name} is not finite for these inputs")
    return values


def _eta_grid(lo, hi, steps):
    """np.linspace(lo, hi, steps) as a list, bit for bit, for steps >= 2;
    a DomainError where that grid is not finite."""
    div = steps - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        # a denormal span: numpy scales each index before multiplying
        grid = [i / div * delta + lo for i in range(div)]
    else:
        grid = [i * step + lo for i in range(div)]
    grid.append(hi)
    if not all(map(math.isfinite, grid)):
        # an infinite bound, or finite bounds whose span overflows
        raise DomainError(f"eta-min and eta-max must span a finite grid, got [{lo}, {hi}]")
    return grid


def _array_command(func):
    """Run the subcommand with numpy's floating-point warnings off.

    Overflow shows up as nan or inf in the result, which the output gate
    turns into one DomainError line; numpy's warnings would only add lines
    before it.
    """

    @functools.wraps(func)
    def run(args):
        import numpy as np

        with np.errstate(all="ignore"):
            return func(args)

    return run


def _csv(header, row, columns):
    """CSV text: the header line, then one line row % fields per row of columns."""
    return ",".join(header) + "\n" + "".join(map(row.__mod__, zip(*columns)))


def _json_records(columns):
    """json.dumps(records, indent=2) + "\n" for the records whose fields are
    columns [(key, values)], written from one template per record.

    Keys are plain identifiers.  Values are lists of bools, ints, finite
    floats or JSON literals already formatted as str; every field goes
    through %s, and str of a float is its repr, the digits json writes.
    """
    if not columns[0][1]:
        return "[]\n"
    fields = []
    for _, values in columns:
        if type(values[0]) is bool:
            values = [_BOOL_TEXT[v] for v in values]
        fields.append(values)
    record = "  {\n" + ",\n".join(f'    "{key}": %s' for key, _ in columns) + "\n  }"
    return "[\n" + ",\n".join(map(record.__mod__, zip(*fields))) + "\n]\n"


def _json_text(payload):
    import json

    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError("the result is not finite for these inputs") from None


def _cmd_sweep(args):
    from . import criterion, svgplot

    modes = _parse_modes(args.modes)
    if args.steps < 2:
        raise DomainError(f"steps must be >= 2, got {args.steps}")
    if not args.eta_min < args.eta_max:
        raise DomainError(
            f"eta-min must be below eta-max, got [{args.eta_min}, {args.eta_max}]"
        )
    grid = _eta_grid(args.eta_min, args.eta_max, args.steps)
    # f = eta0 - eta, the values criterion_curve gives
    eta0 = [criterion.threshold_eta0(n, m) for n, m in modes]
    curves = [[e0 - e for e in grid] for e0 in eta0]
    f = _finite("f", [v for curve in curves for v in curve])
    entangled = [v < 0.0 for v in f]
    ns = [n for n, _ in modes for _ in range(args.steps)]
    ms = [m for _, m in modes for _ in range(args.steps)]
    if args.format == "json":
        etas = list(map(repr, grid)) * len(modes)
        text = _json_records(
            [("eta", etas), ("n", ns), ("m", ms), ("f", f), ("entangled", entangled)]
        )
    else:
        etas = list(map("%.12g".__mod__, grid)) * len(modes)
        text = _csv(
            ["eta", "n", "m", "f", "entangled"],
            "%s,%d,%d,%.12g,%s\n",
            (etas, ns, ms, f, [_BOOL_TEXT[e] for e in entangled]),
        )
    if args.svg:
        # built before either file is written, so a plot error writes neither
        series = [
            (f"(n,m)=({n},{m})", list(zip(grid, curve))) for (n, m), curve in zip(modes, curves)
        ]
        svg = svgplot.line_plot(series, "eta", "f")
    _write_text(text, args.out)
    if args.svg:
        _write_text(svg, args.svg)
    return 0


def _cmd_threshold(args):
    from . import criterion
    from .scalars import _check_order

    for name, v in (("n-max", args.n_max), ("m-max", args.m_max)):
        _check_order(v, criterion.MODE_N_MAX, name)
    ns = [n for n in range(args.n_max + 1) for _ in range(args.m_max + 1)]
    ms = list(range(args.m_max + 1)) * (args.n_max + 1)
    eta0 = _finite("eta0", list(map(criterion.threshold_eta0, ns, ms)))
    if args.format == "json":
        text = _json_records([("n", ns), ("m", ms), ("eta0", eta0)])
    else:
        text = _csv(["n", "m", "eta0"], "%d,%d,%.12g\n", (ns, ms, eta0))
    _write_text(text, args.out)
    return 0


def _cmd_criterion(args):
    from . import criterion

    rep = criterion.criterion_f(args.n, args.m, args.eta)
    _write_text(_json_text(vars(rep)), args.out)
    return 0


def _cmd_diagonalize(args):
    from . import oscillator

    h = oscillator.CoupledHamiltonian(args.m1, args.m2, args.A, args.B, args.C)
    d = oscillator.diagonalize(h)
    rec_a, rec_b, rec_c = oscillator.reconstruct(d)
    scale = max(abs(args.A), abs(args.B), abs(args.C))
    roundtrip = max(abs(rec_a - args.A), abs(rec_b - args.B), abs(rec_c - args.C)) / scale
    payload = {
        "M": d.M,
        "K": d.K,
        "omega": d.omega,
        "eta": d.eta,
        "alpha_deg": math.degrees(d.alpha),
        "degenerate_branch": d.degenerate_branch,
        "roundtrip_error": roundtrip,
    }
    _write_text(_json_text(payload), args.out)
    return 0


@_array_command
def _cmd_verify(args):
    from . import verification

    checks = verification.collect_checks(args.n_max)
    passed = verification.all_normative_pass(checks)
    if args.format == "json":
        payload = {
            "n_max": args.n_max,
            "pass": passed,
            "checks": [vars(c) for c in checks],
        }
        text = _json_text(payload)
    else:
        width = max(len(c.name) for c in checks)
        lines = [
            f"{'check':<{width}}  {'value':>22}  {'reference':>22}  {'delta':>12}  status"
        ]
        for c in checks:
            lines.append(
                f"{c.name:<{width}}  {c.value:>22.15g}  {c.reference:>22.15g}  "
                f"{c.delta:>12.3e}  {c.status}"
            )
        lines.append("")
        lines.append(f"normative checks: {'all passed' if passed else 'FAILURES PRESENT'}")
        text = "\n".join(lines) + "\n"
    _write_text(text, args.out)
    return 0 if passed else 2


@_array_command
def _cmd_wavefunction(args):
    import numpy as np

    from . import oscillator

    if args.steps < 2:
        raise DomainError(f"steps must be >= 2, got {args.steps}")
    if not args.u_min < args.u_max:
        raise DomainError(f"u-min must be below u-max, got [{args.u_min}, {args.u_max}]")
    mode = oscillator.ModePair(args.n, args.m)
    grid = np.linspace(args.u_min, args.u_max, args.steps)
    values = oscillator.wavefunction(
        mode, args.eta, args.space, grid[:, None], grid[None, :]
    )
    if not np.isfinite(values).all():
        raise DomainError("wavefunction value is not finite for these inputs")
    values = values.ravel().tolist()
    u = list(map("%.12g".__mod__, grid.tolist()))
    u_plus = [x for x in u for _ in u]
    text = _csv(["u_plus", "u_minus", "value"], "%s,%s,%.12g\n", (u_plus, u * len(u), values))
    _write_text(text, args.out)
    return 0


def build_parser():
    parser = _Parser(prog="seec", description="Entropic entanglement criterion for coupled oscillators")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="criterion f over an eta grid (curve data)")
    p.add_argument("--modes", default="0:0,1:1,2:2,3:3", help="mode list n:m[,n:m...]")
    p.add_argument("--eta-min", type=float, default=0.0)
    p.add_argument("--eta-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=201)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--svg", metavar="PATH", help="also write an SVG line plot")
    p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("threshold", help="threshold table eta0(n, m)")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("criterion", help="single-point JSON entropy report")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_criterion)

    p = sub.add_parser("diagonalize", help="normal-mode report from raw couplings")
    p.add_argument("--m1", type=float, default=1.0)
    p.add_argument("--m2", type=float, default=1.0)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--C", type=float, default=0.0)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_diagonalize)

    p = sub.add_parser("verify", help="cross-check closed forms against quadrature")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("wavefunction", help="grid samples of the eigenfunction")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--space", choices=("position", "momentum"), default="position")
    p.add_argument("--u-min", type=float, default=-4.0)
    p.add_argument("--u-max", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_wavefunction)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"seec: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"seec: error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
