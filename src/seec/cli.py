"""Command-line front end.

Subcommands: sweep (criterion curves over an eta grid), threshold (the
eta0(n, m) table), criterion (single-point JSON report), diagonalize
(couplings to normal-mode report), verify (closed forms against the
numeric oracle), wavefunction (grid samples of the eigenfunctions).

Output is deterministic: identical invocations produce byte-identical
CSV/JSON, files are written atomically (temp + rename), numeric CSV fields
carry 12 significant digits.  Exit codes: 0 success, 1 usage or domain
error, 2 verification failure.

sweep and wavefunction write their output as a stream of chunks, one per
mode or grid row, built from pieces formatted once (the eta column of a
sweep serves every mode), so the whole document is never held in memory.
Every check that can fail runs before the first byte: a failing command
writes nothing to stdout and leaves --out as it was.

Each subcommand imports the modules it uses when it runs: only verify
imports numpy.  sweep (its SVG included), threshold, criterion, diagonalize
and wavefunction work on floats alone, and tempfile and json load only for
the output that needs them.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from itertools import chain, repeat

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
    """Write text, a str or an iterable of str chunks, to stdout or to
    out_path.  A file is written atomically: an error while writing, or
    raised by a chunk, leaves out_path as it was and no temp file.  It
    ends with the mode open(out_path, "w") would leave: an existing
    target's, else 0o666 less the umask."""
    chunks = (text,) if isinstance(text, str) else text
    if out_path is None or out_path == "-":
        sys.stdout.writelines(chunks)
        return
    import tempfile

    try:
        mode = os.stat(out_path).st_mode & 0o7777
    except FileNotFoundError:
        # mkstemp's file is 0600, whatever the umask
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".seec-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.writelines(chunks)
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


def _eta_grid(lo, hi, steps, names=("eta-min", "eta-max")):
    """np.linspace(lo, hi, steps) as a list, bit for bit; a DomainError,
    naming the options ``names`` of lo and hi, unless steps >= 2,
    lo < hi and that grid is finite."""
    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps}")
    if not lo < hi:
        raise DomainError(f"{names[0]} must be below {names[1]}, got [{lo}, {hi}]")
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
        raise DomainError(f"{names[0]} and {names[1]} must span a finite grid, got [{lo}, {hi}]")
    return grid


def _rows(fields, end, sep):
    """The text of one block of rows, each row reading prefix, cell, prefix,
    cell, ..., end, and sep between rows.

    fields is [(prefix, cells)]: cells is a list of str, one per row, or a
    str that every row of the block shares; at least one cells is a list.
    Shared cells and the prefixes around them fold into constant pieces,
    and the block is one join over a flat list of pieces: no string or
    template per row.
    """
    literals, columns = [""], []
    for prefix, cells in fields:
        if isinstance(cells, str):
            literals[-1] += prefix + cells
        else:
            literals[-1] += prefix
            literals.append("")
            columns.append(cells)
    literals[-1] += end
    if not columns[0]:
        return ""
    width = 2 * len(columns)
    parts = [None] * width
    parts[1::2] = literals[1:]
    parts[-1] += sep + literals[0]
    parts *= len(columns[0])
    for j, cells in enumerate(columns):
        parts[2 * j::width] = cells
    parts[-1] = literals[-1]
    return literals[0] + "".join(parts)


def _csv(header, blocks):
    """CSV text in chunks: the header line, then one chunk per block.

    A block is its cells per header column, as _rows takes them: a list of
    the formatted fields of each row, or one str every row shares.
    """
    yield ",".join(header) + "\n"
    prefixes = [""] + [","] * (len(header) - 1)
    for cells in blocks:
        yield _rows(zip(prefixes, cells), "\n", "")


def _json_records(keys, blocks):
    """json.dumps(records, indent=2) + "\n" in chunks, one per block of
    records whose fields are keys.

    A block is its cells per key, as _rows takes them: the JSON text of the
    field in each record, or one text every record of the block shares.
    Keys are plain identifiers; a float's repr is the text json writes.
    """
    prefixes = ['  {\n    "%s": ' % keys[0]] + [',\n    "%s": ' % key for key in keys[1:]]
    head = "[\n"
    for cells in blocks:
        text = _rows(zip(prefixes, cells), "\n  }", ",\n")
        if text:
            yield head + text
            head = ",\n"
    yield "[]\n" if head == "[\n" else "\n]\n"


# --format of sweep and threshold: the text of a number, and the writer
_RECORDS = {"csv": ("%.12g".__mod__, _csv), "json": (repr, _json_records)}


def _json_text(payload):
    import json

    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError("the result is not finite for these inputs") from None


def _cmd_sweep(args):
    from . import criterion, svgplot

    modes = _parse_modes(args.modes)
    grid = _eta_grid(args.eta_min, args.eta_max, args.steps)
    # f = eta0 - eta, the values criterion_curve gives; every check runs
    # before the first byte is written
    eta0 = [criterion.threshold_eta0(n, m) for n, m in modes]
    curves = [_finite("f", [e0 - e for e in grid]) for e0 in eta0]
    if args.svg:
        # built before either file is written, so a plot error writes neither
        svg = svgplot.line_plot(
            [(f"(n,m)=({n},{m})", list(zip(grid, curve))) for (n, m), curve in zip(modes, curves)],
            "eta",
            "f",
        )
    number, records = _RECORDS[args.format]
    # one block per mode: the eta column formatted once for every mode, n
    # and m one shared cell each
    etas = list(map(number, grid))
    blocks = (
        [
            etas,
            str(n),
            str(m),
            list(map(number, curve)),
            list(map(_BOOL_TEXT.__getitem__, map(criterion._verdict, repeat(e0), grid))),
        ]
        for (n, m), e0, curve in zip(modes, eta0, curves)
    )
    _write_text(records(("eta", "n", "m", "f", "entangled"), blocks), args.out)
    if args.svg:
        _write_text(svg, args.svg)
    return 0


def _cmd_threshold(args):
    from . import criterion
    from .scalars import N_MAX, _check_order

    # checked once here, so each entry is a bare table read
    for name, v in (("n-max", args.n_max), ("m-max", args.m_max)):
        _check_order(v, N_MAX, name)
    ms = range(args.m_max + 1)
    table = [
        _finite("eta0", [criterion._eta0(n, m) for m in ms])
        for n in range(args.n_max + 1)
    ]
    number, records = _RECORDS[args.format]
    # one block per n: n one shared cell, the m column formatted once
    m_cells = list(map(str, ms))
    blocks = ([str(n), m_cells, list(map(number, row))] for n, row in enumerate(table))
    _write_text(records(("n", "m", "eta0"), blocks), args.out)
    return 0


def _cmd_criterion(args):
    from . import criterion

    rep = criterion.criterion_f(args.n, args.m, args.eta)
    _write_text(_json_text(rep._asdict()), args.out)
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


def _cmd_verify(args):
    import numpy as np

    from . import verification

    # overflow shows up as nan or inf in a check, which the output gate
    # turns into one DomainError line; numpy's warnings would only add
    # lines before it
    with np.errstate(all="ignore"):
        checks = verification.collect_checks(args.n_max)
    passed = verification.all_normative_pass(checks)
    if args.format == "json":
        payload = {
            "n_max": args.n_max,
            "pass": passed,
            "checks": [c._asdict() for c in checks],
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


def _cmd_wavefunction(args):
    from . import oscillator

    grid = _eta_grid(args.u_min, args.u_max, args.steps, ("u-min", "u-max"))
    mode = oscillator.ModePair(args.n, args.m)
    f1, f2 = oscillator._wavefunction_axes(mode, args.eta, args.space, grid)
    # every value is a product f2[i] * f1[j]: all are finite if and only if
    # every factor is and the largest product is
    _finite("wavefunction value", [*f1, *f2, max(map(abs, f1)) * max(map(abs, f2))])
    u = list(map("%.12g".__mod__, grid))
    # one % template per grid row: its u_plus, then each u_minus and a value
    cells = [",%s,%%.12g\n" % x for x in u]
    lines = ((x + x.join(cells)) % tuple([v * a for a in f1]) for x, v in zip(u, f2))
    _write_text(chain(["u_plus,u_minus,value\n"], lines), args.out)
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
