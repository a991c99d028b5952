"""Command-line front end.

Subcommands: sweep (criterion curves over an eta grid), threshold (the
eta0(n, m) table), criterion (single-point JSON report), diagonalize
(couplings to normal-mode report), verify (the quadrature and the frozen
entropy table against their references), wavefunction (grid samples of
the eigenfunctions).

Identical invocations produce byte-identical CSV/JSON, numeric CSV fields
carry 12 significant digits.  A file or a symlink's target is written
atomically (temp + rename), a FIFO or a device in place.  Exit codes: 0
success, 1 usage or domain error, 2 verification failure.

sweep, threshold and wavefunction stream their rows in blocks, each one
replace and one %, so the whole document is never held in memory.  A
sweep block is at most _SWEEP_ROWS rows of one mode: its memory is the
eta grid, an array('d') of 8 B a point, and its eta column, formatted once
for every mode as one text per block, plus one block; its --svg plot
draws each curve as one segment.  A threshold block is one n, and a
wavefunction block one grid row.
Every check that can fail runs before the first byte: a command that
fails a check writes nothing to stdout and leaves --out as it was.  A
write can still fail after that: sweep writes its records, to stdout or
--out, before its --svg file, so a failed --svg write exits 1 with the
records already written.  --svg and --out must not name one destination,
however spelled: --svg - or /dev/stdout needs --out PATH for the records.

Each subcommand imports the modules it uses when it runs: only verify
imports numpy, and exits 1 with one line without it.  sweep (its SVG
included), threshold, criterion, diagonalize and wavefunction work on
floats alone; tempfile and json load only for the output that needs them.
"""

import argparse
import math
import os
import re
import stat
import sys

from . import __version__
from .errors import DomainError


_BOOL_TEXT = ("false", "true")
_CELLS = "\0"  # marks the column of cells among a block's texts


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read -1e-3 as a negative number, not an option: argparse's own
        # pattern (Python 3.11 and 3.13 alike) knows only -1 and -0.001
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


_STREAMS = {"/dev/stdin": 0, "/dev/stdout": 1, "/dev/stderr": 2}


def _write_text(text, out_path):
    """Write text, a str or an iterable of str chunks, to stdout or to
    out_path, an OSError naming out_path.  A file or a symlink's target is
    written atomically, left as it was and no temp file on an error, with
    the mode open() would leave: an existing file's, else 0o666 less the
    umask.  A FIFO or a device is written in place: a rename would replace it.
    A path spelled as one of this process's descriptors (/dev/stdout,
    /dev/fd/N, /proc/self/fd/N) is written through that descriptor."""
    chunks = (text,) if isinstance(text, str) else text
    if out_path is None or out_path == "-":
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()  # a write error surfaces here, not at exit
        except OSError:
            # what is still buffered then goes to devnull at exit, where it
            # cannot fail a second time with a traceback
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise
        return
    import tempfile

    # the descriptor that out_path names by its spelling alone, else None
    match = re.fullmatch(r"/(?:dev|proc/self)/fd/([0-9]{1,9})", out_path)
    fd = int(match[1]) if match else _STREAMS.get(out_path)
    try:
        if fd is not None:  # keeps its O_APPEND and offset: open() would truncate
            with open(fd, "w", encoding="utf-8", newline="", closefd=False) as fh:
                fh.writelines(chunks)
            return
        try:
            st_mode = os.stat(out_path).st_mode
        except FileNotFoundError:
            # a new file; mkstemp's is 0600, whatever the umask
            umask = os.umask(0)
            os.umask(umask)
            st_mode = stat.S_IFREG | 0o666 & ~umask
        # out_path, not its realpath: a pipe behind /dev/stdout has no path
        if not stat.S_ISREG(st_mode):
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
            return
        target = os.path.realpath(out_path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".seec-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                os.fchmod(fh.fileno(), stat.S_IMODE(st_mode))
                fh.writelines(chunks)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # name out_path, not the temp file, whose name differs every run
        raise OSError(exc.errno, exc.strerror, out_path) from None


def _path(text):
    # checked at parsing, before any work: _write_text would take '' as a
    # file in the directory above the working one
    if not text:
        raise argparse.ArgumentTypeError("the path must not be empty")
    return text


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
    """np.linspace(lo, hi, steps) as an array('d'), bit for bit; a
    DomainError, naming the options ``names`` of lo and hi, unless steps >= 2,
    lo < hi and that grid is finite."""
    from array import array

    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps}")
    if not lo < hi:
        raise DomainError(f"{names[0]} must be below {names[1]}, got [{lo}, {hi}]")
    delta = hi - lo
    if not math.isfinite(delta):
        # an infinite bound, or finite bounds whose span overflows: only then
        # is a point not finite, as each lies between lo and hi
        raise DomainError(f"{names[0]} and {names[1]} must span a finite grid, got [{lo}, {hi}]")
    div = steps - 1
    step = delta / div
    grid = array("d")
    # a block of points at a time: one list of them all would hold 32 B a
    # point on the way
    for a in range(0, div, _SWEEP_ROWS):
        block = range(a, min(a + _SWEEP_ROWS, div))
        if step == 0.0:
            # a denormal span: numpy scales each index before multiplying
            grid.fromlist([i / div * delta + lo for i in block])
        else:
            grid.fromlist([i * step + lo for i in block])
    grid.append(hi)
    return grid


def _block(before, cells, after, values, sep=""):
    """Rows reading before, the i-th cell, after, with sep between them
    and values[i] in the one % field of before or after: one replace builds
    the template, one % fills it.  cells is the block's cells joined by
    _CELLS, and no text but that % field may contain "%"."""
    return (before + cells.replace(_CELLS, after + sep + before) + after) % tuple(values)


def _csv(header, blocks):
    """CSV text in chunks: the header line, then one per block.  A block is
    (texts, cells, values): each column's text, shared by the block's rows,
    with _CELLS for the column of cells and one % field for that of values."""
    yield ",".join(header) + "\n"
    for texts, cells, values in blocks:
        before, after = ",".join(texts).split(_CELLS)
        yield _block(before, cells, after + "\n", values)


def _json_records(keys, blocks):
    """json.dumps(records, indent=2) + "\n" in chunks, one per block of
    records, as _csv takes it, with each field's JSON text.  Keys are plain
    identifiers; "%r" of a float is the text json writes."""
    prefixes = ['    "%s": ' % key for key in keys]
    head = "[\n"
    for texts, cells, values in blocks:
        fields = ",\n".join(map(str.__add__, prefixes, texts))
        before, after = ("  {\n" + fields + "\n  }").split(_CELLS)
        yield head + _block(before, cells, after, values, ",\n")
        head = ",\n"
    yield "\n]\n"


# --format of sweep and threshold: the % field of a number, and the writer
_RECORDS = {"csv": ("%.12g", _csv), "json": ("%r", _json_records)}

# the rows of one block of sweep records, and of the grid's build: a JSON
# block holds about 0.45 KB per row at once (its template, the filled text,
# that text encoded and the value tuple)
_SWEEP_ROWS = 512


def _destination(path):
    # a key that every spelling of one destination shares: the file's
    # (st_dev, st_ino), stdout's own for None or "-"; the realpath of a path
    # not yet made, and "-" for a stdout with no file
    stdout = path in (None, "-")
    try:
        st = os.stat(sys.stdout.fileno() if stdout else path)
    except (OSError, ValueError):
        return "-" if stdout else os.path.realpath(path)
    return st.st_dev, st.st_ino


def _json_text(payload):
    import json

    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError("the result is not finite for these inputs") from None


def _cmd_sweep(args):
    from bisect import bisect_left
    from functools import partial

    from . import criterion, svgplot

    if args.svg and _destination(args.svg) == _destination(args.out):
        if "-" in (args.svg, args.out or "-"):
            raise DomainError(f"--svg {args.svg} needs --out PATH: the records already go to stdout")
        raise DomainError("--svg and --out name one file: the plot would overwrite the records")
    modes = _parse_modes(args.modes)
    grid = _eta_grid(args.eta_min, args.eta_max, args.steps)
    # f = eta0 - eta, the f that criterion_f reports at each grid point,
    # falls along the rising grid: a curve is finite if its two ends are.
    # Every check runs before the first byte is written
    eta0 = [criterion.threshold_eta0(n, m) for n, m in modes]
    for e0 in eta0:
        _finite("f", [e0 - grid[0], e0 - grid[-1]])
    if args.svg:
        # built before either file is written, so a plot error writes neither;
        # f = eta0 - eta is straight in eta: each curve is drawn as the
        # segment between its two ends, which hold its extremes
        curves = [(f"(n,m)=({n},{m})", [(grid[0], e0 - grid[0]), (grid[-1], e0 - grid[-1])])
                  for (n, m), e0 in zip(modes, eta0)]
        svg = svgplot.line_plot(curves, "eta", "f")
    field, records = _RECORDS[args.format]
    # the eta column, formatted once for every mode: one text per block of
    # _SWEEP_ROWS rows, its cells joined by _CELLS
    rows = _SWEEP_ROWS
    starts = range(0, len(grid), rows)
    etas = [_CELLS.join(map(field.__mod__, grid[a:a + rows])) for a in starts]

    def blocks():
        # blocks of at most _SWEEP_ROWS rows, each f computed and formatted
        # when the writer takes it; n, m and the verdict are shared texts.
        # f falls, so the verdict flips once, at the first point where it
        # holds: the one block that holds that cut is split there
        for (n, m), e0 in zip(modes, eta0):
            cut = bisect_left(grid, True, key=partial(criterion._verdict, e0))
            for a, cells in zip(starts, etas):
                b = min(a + rows, len(grid))
                if a < cut < b:
                    tail = cells.split(_CELLS, cut - a)[-1]
                    parts = ((a, cut, cells[:-len(tail) - 1]), (cut, b, tail))
                else:
                    parts = ((a, b, cells),)
                for start, stop, text in parts:
                    texts = (_CELLS, str(n), str(m), field, _BOOL_TEXT[start >= cut])
                    yield texts, text, map(e0.__sub__, grid[start:stop])

    _write_text(records(("eta", "n", "m", "f", "entangled"), blocks()), args.out)
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
    field, records = _RECORDS[args.format]
    # one block per n: n a shared text, the m column formatted once
    m_cells = _CELLS.join(map(str, ms))
    blocks = (((str(n), _CELLS, field), m_cells, row) for n, row in enumerate(table))
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
    try:
        import numpy as np
    except ModuleNotFoundError:
        raise DomainError("seec verify needs numpy: pip install numpy") from None

    from . import verification

    # overflow shows up as nan or inf in a check, which the output gate
    # turns into one DomainError line; numpy's warnings would only add
    # lines before it
    with np.errstate(all="ignore"):
        checks = verification.collect_checks(args.n_max)
    passed = all(c.status == "ok" for c in checks)
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
    # one block per grid row: its u_plus a shared text, the u_minus column
    # formatted and joined once
    u_cells = _CELLS.join(u)
    rows = (((x, _CELLS, "%.12g"), u_cells, [v * a for a in f1]) for x, v in zip(u, f2))
    _write_text(_csv(("u_plus", "u_minus", "value"), rows), args.out)
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
    p.add_argument("--svg", metavar="PATH", type=_path, help="also write an SVG line plot")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("threshold", help="threshold table eta0(n, m)")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("criterion", help="single-point JSON entropy report")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--eta", type=float, default=0.0)
    p.set_defaults(func=_cmd_criterion)

    p = sub.add_parser("diagonalize", help="normal-mode report from raw couplings")
    p.add_argument("--m1", type=float, default=1.0)
    p.add_argument("--m2", type=float, default=1.0)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--C", type=float, default=0.0)
    p.set_defaults(func=_cmd_diagonalize)

    p = sub.add_parser("verify", help="check the quadrature and the frozen entropy table")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("wavefunction", help="grid samples of the eigenfunction")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--space", choices=("position", "momentum"), default="position")
    p.add_argument("--u-min", type=float, default=-4.0)
    p.add_argument("--u-max", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=41)
    p.set_defaults(func=_cmd_wavefunction)

    for p in sub.choices.values():
        p.add_argument("--out", metavar="PATH", type=_path, help="output file (default: stdout)")
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
    except MemoryError:
        print("seec: error: not enough memory for these inputs", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
