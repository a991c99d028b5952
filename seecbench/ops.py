"""Seeded op lists for the seec benchmark workloads.

An op is a JSON-serialisable dict.  A CLI op carries the subcommand, its
typed parameters (which the output checks read), the exact argv after
``seec`` and what exit it must have.  A lib op carries the library calls
that one fresh child process makes.  Ops come in blocks with a fixed
composition, so every run of a workload sees the same mix of sizes and
subcommands; the seed draws the values inside each block and its order.
The same (workload, seed) always gives the same ops, so
``run.py --list-ops N`` replays a run exactly.
"""

from __future__ import annotations

import math
import random

# relative to the checkout root, which is the children's working directory
WORK_DIR = ".bench_build/seecbench/work"

MODE_MAX = 32  # criterion.MODE_N_MAX
EVAL_MAX = 64  # specfun.EVAL_N_MAX
VERIFY_MAX = 12  # verification.VERIFY_N_MAX

WORKLOADS = ("cli_small", "cli_bulk", "lib_cold", "edges")

# wall seconds one block takes, checks included, on a 2-core x86-64 host with
# Python 3.11 and the numpy kernels; a run of --seconds S measures
# round(S / this) whole blocks, so a seed always runs the same ops and the
# op count does not drift with the machine's load
BLOCK_SECONDS = {"cli_small": 4.9, "cli_bulk": 6.4, "lib_cold": 2.9}


def _f(x):
    return repr(float(x))


def _modes_text(pairs):
    return ",".join(f"{n}:{m}" for n, m in pairs)


def cli_op(cmd, params, expect="ok", dest="stdout"):
    """Build a CLI op from typed parameters.

    ``expect`` is 'ok' (must exit 0) or 'any' (exit 0 with checked output,
    or exit 1 with a one-line error).  ``dest`` is 'stdout' or 'file'.
    """
    p = dict(params)
    argv = [cmd]
    fmt = p.get("format")
    svg = None
    if cmd == "sweep":
        argv += [
            f"--modes={p['modes']}",
            f"--eta-min={_f(p['eta_min'])}",
            f"--eta-max={_f(p['eta_max'])}",
            f"--steps={p['steps']}",
            f"--format={fmt}",
        ]
        if p.get("svg"):
            svg = f"{WORK_DIR}/op.svg"
            argv.append(f"--svg={svg}")
    elif cmd == "threshold":
        argv += [f"--n-max={p['n_max']}", f"--m-max={p['m_max']}", f"--format={fmt}"]
    elif cmd == "criterion":
        argv += [f"--n={p['n']}", f"--m={p['m']}", f"--eta={_f(p['eta'])}"]
    elif cmd == "diagonalize":
        argv += [f"--{k}={_f(p[k])}" for k in ("m1", "m2", "A", "B", "C")]
    elif cmd == "verify":
        argv += [f"--n-max={p['n_max']}", f"--format={fmt}"]
    elif cmd == "wavefunction":
        argv += [
            f"--n={p['n']}",
            f"--m={p['m']}",
            f"--eta={_f(p['eta'])}",
            f"--space={p['space']}",
            f"--u-min={_f(p['u_min'])}",
            f"--u-max={_f(p['u_max'])}",
            f"--steps={p['steps']}",
        ]
    else:
        raise ValueError(f"unknown subcommand {cmd!r}")
    out = None
    if dest == "file":
        out = f"{WORK_DIR}/op.out"
        argv.append(f"--out={out}")
    return {"kind": "cli", "cmd": cmd, "params": p, "argv": argv, "expect": expect,
            "out": out, "svg": svg}


# ---------------------------------------------------------------- cli_small


def _small_default(cmd, rng):
    """One op of ``cmd`` at the subcommand's default sizes."""
    if cmd == "sweep":
        eta_min = rng.uniform(-1.0, 0.5)
        params = {
            "modes": _modes_text([(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(4)]),
            "eta_min": eta_min,
            "eta_max": eta_min + rng.uniform(0.5, 2.5),
            "steps": 201,
            "format": rng.choice(("csv", "json")),
            "svg": rng.random() < 0.5,
        }
    elif cmd == "threshold":
        params = {"n_max": 5, "m_max": 5, "format": rng.choice(("csv", "json"))}
    elif cmd == "criterion":
        params = {"n": rng.randint(0, 8), "m": rng.randint(0, 8), "eta": rng.uniform(-2.0, 2.0)}
    elif cmd == "diagonalize":
        a, b = 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)
        params = {
            "m1": 10.0 ** rng.uniform(-1, 1),
            "m2": 10.0 ** rng.uniform(-1, 1),
            "A": a,
            "B": b,
            "C": 2.0 * math.sqrt(a * b) * rng.uniform(-0.95, 0.95),
        }
    elif cmd == "verify":
        params = {"n_max": 8, "format": rng.choice(("table", "json"))}
    else:
        params = {
            "n": rng.randint(0, 8),
            "m": rng.randint(0, 8),
            "eta": rng.uniform(-1.0, 1.0),
            "space": rng.choice(("position", "momentum")),
            "u_min": -rng.uniform(3.0, 5.0),
            "u_max": rng.uniform(3.0, 5.0),
            "steps": 41,
        }
    return cmd, params


def _edge_table(rng):
    """(cmd, params) at the boundaries the CLI validates: the smallest and
    largest accepted order, count or interval, and the first value beyond."""
    n, m = rng.randint(0, 8), rng.randint(0, 8)
    eta = rng.uniform(-2.0, 2.0)
    sweep = {"modes": "0:0,1:1", "eta_min": 0.0, "eta_max": 2.0, "steps": 201, "format": "csv"}
    wave = {"n": n, "m": m, "eta": rng.uniform(-1.0, 1.0), "space": "position",
            "u_min": -4.0, "u_max": 4.0, "steps": 41}
    a, b = 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)
    bound = 2.0 * math.sqrt(a * b)
    diag = {"m1": 1.0, "m2": 1.0, "A": a, "B": b, "C": 0.0}
    return [
        ("sweep", dict(sweep, steps=2)),
        ("sweep", dict(sweep, steps=1)),
        ("sweep", dict(sweep, eta_max=0.0)),
        ("sweep", dict(sweep, modes=f"{MODE_MAX}:{MODE_MAX},0:{MODE_MAX}")),
        ("sweep", dict(sweep, modes=f"{MODE_MAX + 1}:0")),
        ("sweep", dict(sweep, modes=f"{n}-{m}")),
        ("threshold", {"n_max": 0, "m_max": 0, "format": "csv"}),
        ("threshold", {"n_max": MODE_MAX, "m_max": 0, "format": "json"}),
        ("threshold", {"n_max": 0, "m_max": MODE_MAX, "format": "csv"}),
        ("threshold", {"n_max": MODE_MAX + 1, "m_max": 0, "format": "csv"}),
        ("threshold", {"n_max": 0, "m_max": -1, "format": "csv"}),
        ("criterion", {"n": MODE_MAX, "m": MODE_MAX, "eta": eta}),
        ("criterion", {"n": MODE_MAX + 1, "m": m, "eta": eta}),
        ("criterion", {"n": n, "m": -1, "eta": eta}),
        ("criterion", {"n": n, "m": m, "eta": 0.0}),
        ("diagonalize", dict(diag, A=a, B=a)),
        ("diagonalize", dict(diag, C=bound * (1.0 - 1e-9))),
        ("diagonalize", dict(diag, C=-bound * (1.0 + 1e-9))),
        ("diagonalize", dict(diag, A=0.0)),
        ("diagonalize", dict(diag, m1=-1.0)),
        ("verify", {"n_max": 0, "format": "table"}),
        ("verify", {"n_max": VERIFY_MAX, "format": "json"}),
        ("verify", {"n_max": VERIFY_MAX + 1, "format": "table"}),
        ("wavefunction", dict(wave, steps=2)),
        ("wavefunction", dict(wave, steps=1)),
        ("wavefunction", dict(wave, u_max=-4.0)),
        ("wavefunction", dict(wave, n=EVAL_MAX)),
        ("wavefunction", dict(wave, m=EVAL_MAX + 1)),
    ]


def _probe_edges(rng):
    """Inputs that hit known defects on the seed commit, so only the
    ``edges`` probe runs them: float arguments at the extremes of the finite
    range, which the CLI does not validate, and couplings exactly on the
    unbound edge C^2 = 4AB, where rounding can pass the CLI's check and then
    fail K = sqrt(AB - C^2/4)."""
    sweep = {"modes": "1:1", "eta_min": 0.0, "steps": 11, "format": "csv"}
    a, b = 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)
    return [
        ("criterion", {"n": 1, "m": 1, "eta": 2000.0}),
        ("criterion", {"n": 1, "m": 1, "eta": -1e308}),
        ("sweep", dict(sweep, eta_max=1e308)),
        ("sweep", dict(sweep, eta_max=math.inf)),
        ("diagonalize", {"m1": 1.0, "m2": 1.0, "A": 1e308, "B": 1e308, "C": 1.0}),
        ("diagonalize", {"m1": 1e-308, "m2": 1.0, "A": 1.0, "B": 1.0, "C": 0.5}),
        ("diagonalize", {"m1": 1.0, "m2": 1.0, "A": a, "B": b, "C": 2.0 * math.sqrt(a * b)}),
        ("diagonalize", {"m1": 1.0, "m2": 1.0, "A": a, "B": b, "C": -2.0 * math.sqrt(a * b)}),
        ("wavefunction", {"n": 60, "m": 0, "eta": 30.0, "space": "position",
                          "u_min": -4.0, "u_max": 4.0, "steps": 5}),
        ("wavefunction", {"n": 1, "m": 1, "eta": 0.0, "space": "momentum",
                          "u_min": -1e300, "u_max": 1e300, "steps": 5}),
    ]


def _cli_small_block(rng, start):
    # 18 default ops (each subcommand three times) plus 2 edge ops: one op
    # in ten comes from the domain edges
    picks = [_small_default(cmd, rng) for cmd in ("sweep", "threshold", "criterion",
                                                  "diagonalize", "verify", "wavefunction") * 3]
    ops = [cli_op(cmd, params, "ok", rng.choice(("stdout", "file"))) for cmd, params in picks]
    for cmd, params in rng.sample(_edge_table(rng), 2):
        ops.append(cli_op(cmd, params, "any", rng.choice(("stdout", "file"))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- cli_bulk

# (modes, lowest steps, highest steps, format, svg): sweeps from the corners
# and the middle of 2-8 modes x 5k-20k steps, each about 40k rows, and
# wavefunction grids of 201-401 points a side.  Most ops in a block then
# take about as long as each other, so a run's median and tail sit inside
# one cluster of ops rather than between two of different size.
_BULK_SWEEPS = (
    (2, 19800, 20000, "csv", False),
    (4, 9900, 10100, "json", True),
    (6, 6600, 6700, "csv", True),
    (8, 5000, 5050, "json", False),
)
_BULK_GRIDS = ((201, 205), (397, 401), (397, 401))


def _cli_bulk_block(rng, start):
    picks = []
    for k, lo, hi, fmt, svg in _BULK_SWEEPS:
        eta_min = rng.uniform(-1.0, 0.5)
        picks.append(("sweep", {
            "modes": _modes_text([(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(k)]),
            "eta_min": eta_min,
            "eta_max": eta_min + rng.uniform(1.0, 3.0),
            "steps": rng.randint(lo, hi),
            "format": fmt,
            "svg": svg,
        }))
    for lo, hi in _BULK_GRIDS:
        half = rng.uniform(4.0, 6.0)
        picks.append(("wavefunction", {
            "n": rng.randint(0, 12),
            "m": rng.randint(0, 12),
            "eta": rng.uniform(-1.0, 1.0),
            "space": rng.choice(("position", "momentum")),
            "u_min": -half,
            "u_max": half,
            "steps": rng.randint(lo, hi),
        }))
    picks.append(("threshold", {"n_max": MODE_MAX, "m_max": MODE_MAX,
                                "format": rng.choice(("csv", "json"))}))
    rng.shuffle(picks)
    # output alternates between stdout and --out files, op by op
    return [cli_op(cmd, params, "ok", "stdout" if (start + i) % 2 == 0 else "file")
            for i, (cmd, params) in enumerate(picks)]


# ---------------------------------------------------------------- lib_cold


def _stratified_orders(rng, count, top=MODE_MAX):
    # one order from each of ``count`` equal strata of [0, top], shuffled,
    # so every batch spans cheap and expensive orders alike
    edges = [round(i * (top + 1) / count) for i in range(count + 1)]
    orders = [rng.randrange(edges[i], edges[i + 1]) for i in range(count)]
    rng.shuffle(orders)
    return orders


def _lib_op(rng):
    calls = []
    orders = _stratified_orders(rng, 8)
    for n, m in zip(orders[::2], orders[1::2]):
        calls.append(["criterion_f", n, m, rng.uniform(-2.0, 2.0)])
    orders = _stratified_orders(rng, 8)
    for n, m in zip(orders[::2], orders[1::2]):
        calls.append(["threshold_eta0", n, m])
    for n in _stratified_orders(rng, 2):
        calls.append(["entropy_integral_numeric", n, 48])
        calls.append(["entropy_integral_numeric", n, 96])
    calls.append(["gauss_hermite_rule", rng.randint(1, EVAL_MAX)])
    calls.append(["hermite_roots", rng.randint(0, MODE_MAX)])
    for side in ("w_minus", "v_plus"):
        half = rng.uniform(2.0, 6.0)
        calls.append(["marginal", side, rng.randint(0, MODE_MAX), rng.randint(0, MODE_MAX),
                      rng.uniform(-2.0, 2.0), -half, half, 64])
    calls.append(["collect_checks", VERIFY_MAX])
    rng.shuffle(calls)
    return {"kind": "lib", "calls": calls}


def _lib_cold_block(rng, start):
    return [_lib_op(rng) for _ in range(6)]


# ---------------------------------------------------------------- edges probe


def _edges_block(rng, start):
    # the edge table several times over, since some defects show only for
    # some of the values drawn
    picks = [pick for _ in range(4) for pick in _edge_table(rng) + _probe_edges(rng)]
    rng.shuffle(picks)
    return [cli_op(cmd, params, "any", "stdout" if (start + i) % 2 == 0 else "file")
            for i, (cmd, params) in enumerate(picks)]


_BLOCKS = {
    "cli_small": _cli_small_block,
    "cli_bulk": _cli_bulk_block,
    "lib_cold": _lib_cold_block,
    "edges": _edges_block,
}


def block_count(workload, seconds):
    """Whole blocks a run of ``seconds`` measures; the edges probe is one."""
    if workload not in BLOCK_SECONDS:
        return 1
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def blocks(workload, seed):
    """Endless stream of op blocks for ``workload`` drawn from ``seed``."""
    make = _BLOCKS[workload]
    rng = random.Random(f"seecbench:{workload}:{seed}")
    start = 0
    while True:
        block = make(rng, start)
        start += len(block)
        yield block


def first_ops(workload, seed, count):
    """The first ``count`` ops of the stream, in run order."""
    out = []
    for block in blocks(workload, seed):
        out.extend(block)
        if len(out) >= count:
            return out[:count]
