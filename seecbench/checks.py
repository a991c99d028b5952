"""Output checks for benchmark ops.

Every op is classed by its exit code and output:

* pass: exit 0 with finite, parseable output whose header, row count and
  values match the request; every ``f`` equals ``eta0 - eta`` at 12-digit
  precision and every ``eta0`` matches the library's ``threshold_eta0``;
* pass: exit 1 with a one-line ``seec: error:`` message, for ops that may
  hit a domain edge;
* fail: a traceback, a NaN or infinity in the output, a wrong value, a
  partial output file, or any other exit.

The checker never raises on bad output; it returns the reason instead.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

import ops

LN_2PI_E = math.log(2.0 * math.pi * math.e)

# the acceptance gate's pinned thresholds: (n, m) -> (value, tolerance)
PINNED = {
    (0, 0): (0.0, 1e-9),
    (1, 0): (0.270, 2e-3),
    (0, 1): (0.270, 2e-3),
    (1, 1): (0.541, 2e-3),
    (2, 2): (0.852, 2e-3),
    (3, 3): (1.07, 1e-2),
}

CSV_RTOL = 1e-11  # values printed with 12 significant digits
JSON_RTOL = 1e-12

_NONFINITE = re.compile(r"(?<![A-Za-z])(nan|NaN|inf|Inf|Infinity)(?![A-Za-z])")


def nonfinite(text):
    """The first NaN or infinity token in ``text``, or None."""
    if not any(token in text for token in ("nan", "NaN", "inf", "Inf")):
        return None
    match = _NONFINITE.search(text)
    return match.group(0) if match else None
_ERROR_LINE = re.compile(r"^seec(?: [a-z]+)?: error: \S.*$")


class CheckFailed(Exception):
    """A check found wrong output; the message is the reason."""


def require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


def close(value, reference, rtol, atol=0.0):
    return abs(value - reference) <= rtol * abs(reference) + atol


def f_ok(f, eta0, eta, rtol):
    """f = eta0 - eta to ``rtol`` of the operands (works elementwise)."""
    return abs(f - (eta0 - eta)) <= rtol * (abs(eta0) + abs(eta)) + 1e-300


@dataclass(frozen=True)
class Outcome:
    """Result of checking one op."""

    ok: bool
    reason: str = ""
    rows: int = 0
    bytes_out: int = 0
    domain_error: bool = False


class Reference:
    """Library values the checks compare against, computed in the run.py
    process from the same source tree the children run."""

    def __init__(self, seec):
        self.seec = seec
        self._eta0 = lru_cache(maxsize=None)(seec.threshold_eta0)
        self._verify_count = lru_cache(maxsize=None)(
            lambda n_max: len(seec.verification.collect_checks(n_max))
        )

    def eta0(self, n, m):
        return self._eta0(n, m)

    def verify_count(self, n_max):
        return self._verify_count(n_max)

    def wavefunction(self, n, m, eta, space, up, um):
        mode = self.seec.oscillator.ModePair(n, m)
        with np.errstate(all="ignore"):
            return self.seec.oscillator.wavefunction(mode, eta, space, up, um)

    def pinned_failures(self):
        """Pinned acceptance values the library misses, as reasons."""
        return [
            f"eta0{nm} = {self.eta0(*nm)!r}, pinned {value} +- {tol}"
            for nm, (value, tol) in PINNED.items()
            if not abs(self.eta0(*nm) - value) <= tol
        ]

    def check_eta0(self, n, m, value, rtol):
        ref = self.eta0(n, m)
        require(close(value, ref, rtol, 1e-15), f"eta0({n},{m}) = {value!r}, library {ref!r}")
        if (n, m) in PINNED:
            pin, tol = PINNED[(n, m)]
            require(abs(value - pin) <= tol, f"eta0({n},{m}) = {value!r} misses pinned {pin}")


# ---------------------------------------------------------------- CLI ops


def _parse_modes(text):
    pairs = []
    for chunk in text.split(","):
        n, m = chunk.split(":")
        pairs.append((int(n), int(m)))
    return pairs


def _csv_columns(text, header):
    """The CSV body's columns, each a list of strings."""
    require(text.endswith("\n"), "output does not end with a newline (truncated?)")
    first, _, body = text[:-1].partition("\n")
    require(first == ",".join(header), f"header {first!r}, expected {','.join(header)!r}")
    if not body:
        return [[] for _ in header]
    rows = body.count("\n") + 1
    fields = body.replace("\n", ",").split(",")
    require(len(fields) == rows * len(header), "a CSV row has the wrong field count")
    return [fields[i::len(header)] for i in range(len(header))]


def _json(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"unparseable JSON: {exc}") from None


def _check_sweep(p, text, ref, svg_text):
    modes = _parse_modes(p["modes"])
    grid = np.linspace(p["eta_min"], p["eta_max"], p["steps"])
    count = len(modes) * len(grid)
    want_n = np.repeat([n for n, _ in modes], len(grid))
    want_m = np.repeat([m for _, m in modes], len(grid))
    want_eta = np.tile(grid, len(modes))
    want_eta0 = np.repeat([ref.eta0(n, m) for n, m in modes], len(grid))
    want_f = want_eta0 - want_eta
    if p["format"] == "json":
        records = _json(text)
        require(isinstance(records, list) and len(records) == count,
                f"{len(records) if isinstance(records, list) else 'no'} records, expected {count}")
        try:
            eta = np.array([r["eta"] for r in records], dtype=float)
            n = np.array([r["n"] for r in records])
            m = np.array([r["m"] for r in records])
            f = np.array([r["f"] for r in records], dtype=float)
            ent = np.array([r["entangled"] for r in records], dtype=bool)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"malformed sweep record: {exc!r}") from None
        rtol = JSON_RTOL
    else:
        cols = _csv_columns(text, ("eta", "n", "m", "f", "entangled"))
        require(len(cols[0]) == count, f"{len(cols[0])} rows, expected {count}")
        try:
            eta = np.array(cols[0], dtype=float)
            n = np.array(cols[1], dtype=int)
            m = np.array(cols[2], dtype=int)
            f = np.array(cols[3], dtype=float)
        except ValueError as exc:
            raise CheckFailed(f"unparseable CSV value: {exc}") from None
        require(set(cols[4]) <= {"true", "false"}, "entangled column is not true/false")
        ent = np.array(cols[4]) == "true"
        rtol = CSV_RTOL
    require(np.all(np.isfinite(eta)) and np.all(np.isfinite(f)), "non-finite sweep value")
    require(np.array_equal(n, want_n) and np.array_equal(m, want_m), "mode columns do not match --modes")
    require(np.all(np.abs(eta - want_eta) <= rtol * np.abs(want_eta) + 1e-300), "eta column is not the grid")
    bad = ~f_ok(f, want_eta0, want_eta, rtol)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(f"f = {f[i]!r} at eta {want_eta[i]!r}, (n,m)=({want_n[i]},{want_m[i]}); "
                          f"eta0 - eta = {want_f[i]!r}")
    require(np.array_equal(ent, want_f < 0.0), "entangled flag disagrees with the sign of f")
    if svg_text is not None:
        require(svg_text.startswith("<svg") and svg_text.endswith("</svg>\n"), "SVG is truncated")
        require(svg_text.count("<polyline") == len(modes), "SVG has the wrong number of curves")
        require(nonfinite(svg_text) is None, "non-finite number in the SVG")
    return count


def _check_threshold(p, text, ref):
    pairs = [(n, m) for n in range(p["n_max"] + 1) for m in range(p["m_max"] + 1)]
    if p["format"] == "json":
        records = _json(text)
        require(isinstance(records, list) and len(records) == len(pairs), "wrong number of threshold records")
        try:
            got = [(r["n"], r["m"], float(r["eta0"])) for r in records]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"malformed threshold record: {exc!r}") from None
        rtol = JSON_RTOL
    else:
        cols = _csv_columns(text, ("n", "m", "eta0"))
        require(len(cols[0]) == len(pairs), f"{len(cols[0])} rows, expected {len(pairs)}")
        try:
            got = [(int(a), int(b), float(c)) for a, b, c in zip(*cols)]
        except ValueError as exc:
            raise CheckFailed(f"unparseable CSV value: {exc}") from None
        rtol = CSV_RTOL
    for (n, m, eta0), want in zip(got, pairs):
        require((n, m) == want, f"row ({n},{m}) where ({want[0]},{want[1]}) belongs")
        require(math.isfinite(eta0), f"non-finite eta0 at ({n},{m})")
        ref.check_eta0(n, m, eta0, rtol)
    return len(pairs)


def _check_criterion(p, text, ref):
    rec = _json(text)
    keys = {"n", "m", "eta", "H_w_minus", "H_v_plus", "f", "eta0", "entangled", "alt_f", "oracle_delta"}
    require(isinstance(rec, dict) and set(rec) == keys, "criterion report has the wrong fields")
    require(rec["n"] == p["n"] and rec["m"] == p["m"] and rec["eta"] == p["eta"], "report is for other inputs")
    for k in ("eta", "H_w_minus", "H_v_plus", "f", "eta0", "alt_f"):
        require(isinstance(rec[k], (int, float)) and math.isfinite(rec[k]), f"{k} is not a finite number")
    ref.check_eta0(p["n"], p["m"], rec["eta0"], JSON_RTOL)
    require(f_ok(rec["f"], rec["eta0"], rec["eta"], JSON_RTOL),
            f"f = {rec['f']!r}, eta0 - eta = {rec['eta0'] - rec['eta']!r}")
    require(close(rec["alt_f"], rec["eta0"] + rec["eta"], JSON_RTOL, 1e-15), "alt_f is not eta0 + eta")
    require(abs(rec["H_w_minus"] + rec["H_v_plus"] - LN_2PI_E - rec["f"]) <= 1e-9, "entropies do not sum to f")
    require(rec["entangled"] is (rec["f"] < 0.0), "entangled flag disagrees with the sign of f")
    delta = rec["oracle_delta"]
    require(delta is None or (math.isfinite(delta) and delta >= 0.0), "bad oracle_delta")
    return 1


def _check_diagonalize(p, text, ref):
    rec = _json(text)
    keys = {"M", "K", "omega", "eta", "alpha_deg", "degenerate_branch", "roundtrip_error"}
    require(isinstance(rec, dict) and set(rec) == keys, "diagonalize report has the wrong fields")
    for k in keys - {"degenerate_branch"}:
        require(isinstance(rec[k], (int, float)) and math.isfinite(rec[k]), f"{k} is not a finite number")
    a, b, c = p["A"], p["B"], p["C"]
    require(close(rec["M"], math.sqrt(p["m1"] * p["m2"]), 1e-12), "M is not sqrt(m1 m2)")
    k_ref = math.sqrt(a * b - 0.25 * c * c)
    require(close(rec["K"], k_ref, 1e-12), f"K = {rec['K']!r}, sqrt(AB - C^2/4) = {k_ref!r}")
    require(close(rec["omega"], math.sqrt(rec["K"] / rec["M"]), 1e-12), "omega is not sqrt(K/M)")
    # the potential's eigenvalues are K e^{+-2 eta}; near the unbound edge
    # 4AB - C^2 -> 0 the inputs fix K, eta and the round trip only to
    # about eps * cond, so both tolerances grow with cond
    cond = (a + b) ** 2 / (4.0 * a * b - c * c)
    lam_hi = 0.5 * (a + b + math.hypot(a - b, c))
    eta_ref = 0.5 * math.log(lam_hi / k_ref)
    tol = 1e-9 * max(1.0, eta_ref) + 1e-14 * cond
    require(abs(abs(rec["eta"]) - eta_ref) <= tol, f"|eta| = {abs(rec['eta'])!r}, expected {eta_ref!r} +- {tol:.2g}")
    limit = 1e-9 + 1e-14 * cond
    require(0.0 <= rec["roundtrip_error"] <= limit, f"roundtrip_error {rec['roundtrip_error']!r} above {limit:.2g}")
    return 1


def _check_verify(p, text, ref):
    count = ref.verify_count(p["n_max"])
    if p["format"] == "json":
        rec = _json(text)
        require(isinstance(rec, dict) and rec.get("pass") is True and rec.get("n_max") == p["n_max"],
                "verify JSON does not report a pass")
        checks = rec.get("checks")
        require(isinstance(checks, list) and len(checks) == count, "wrong number of verify checks")
        require(all(c["status"] == "ok" for c in checks if c["normative"]), "a normative check failed")
    else:
        lines = text.rstrip("\n").split("\n")
        require(len(lines) == count + 3, f"{len(lines) - 3} verify rows, expected {count}")
        require(lines[-1].startswith("normative checks: all passed"), "verify table does not report a pass")
    return count


def _check_wavefunction(p, text, ref):
    cols = _csv_columns(text, ("u_plus", "u_minus", "value"))
    steps = p["steps"]
    require(len(cols[0]) == steps * steps, f"{len(cols[0])} rows, expected {steps * steps}")
    try:
        up, um, value = (np.array(c, dtype=float) for c in cols)
    except ValueError as exc:
        raise CheckFailed(f"unparseable CSV value: {exc}") from None
    require(np.all(np.isfinite(value)), "non-finite wavefunction value")
    grid = np.linspace(p["u_min"], p["u_max"], steps)
    want_up = np.repeat(grid, steps)
    want_um = np.tile(grid, steps)
    require(np.all(np.abs(up - want_up) <= CSV_RTOL * np.abs(want_up) + 1e-300)
            and np.all(np.abs(um - want_um) <= CSV_RTOL * np.abs(want_um) + 1e-300),
            "coordinate columns are not the grid")
    sample = np.unique(np.linspace(0, len(value) - 1, 64).astype(int))
    want = ref.wavefunction(p["n"], p["m"], p["eta"], p["space"], want_up[sample], want_um[sample])
    got = value[sample]
    require(np.all(np.abs(got - want) <= CSV_RTOL * np.abs(want) + 1e-300),
            "wavefunction values differ from the library")
    return len(value)


_CHECKERS = {
    "threshold": _check_threshold,
    "criterion": _check_criterion,
    "diagonalize": _check_diagonalize,
    "verify": _check_verify,
    "wavefunction": _check_wavefunction,
}


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _leftover_temp(root):
    work = os.path.join(root, ops.WORK_DIR)
    return [name for name in os.listdir(work) if name.startswith(".seec-")]


def check_cli(op, code, stdout, stderr, ref, root):
    """Class one finished CLI op; ``stdout`` and ``stderr`` are text."""
    if "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return Outcome(False, f"traceback: {last}")
    out_path = os.path.join(root, op["out"]) if op["out"] else None
    svg_path = os.path.join(root, op["svg"]) if op["svg"] else None
    if code == 1:
        lines = stderr.strip().splitlines()
        if op["expect"] != "any":
            return Outcome(False, f"exit 1 on a valid request: {stderr.strip()[:200]}")
        if len(lines) != 1 or not _ERROR_LINE.match(lines[0]):
            return Outcome(False, f"exit 1 without a one-line 'seec: error:' message: {stderr.strip()[:200]!r}")
        if any(path and os.path.exists(path) for path in (out_path, svg_path)):
            return Outcome(False, "exit 1 left an output file behind")
        return Outcome(True, lines[0], domain_error=True)
    if code != 0:
        return Outcome(False, f"exit {code}: {stderr.strip()[-200:]!r}")
    try:
        text = _read(out_path) if out_path else stdout
        require(not (out_path and stdout), "output written to stdout as well as to --out")
        require(not _leftover_temp(root), "temporary file left behind")
        token = nonfinite(text)
        require(token is None, f"non-finite value {token!r} in the output")
        if op["cmd"] == "sweep":
            svg_text = _read(svg_path) if svg_path else None
            rows = _check_sweep(op["params"], text, ref, svg_text)
        else:
            rows = _CHECKERS[op["cmd"]](op["params"], text, ref)
    except CheckFailed as exc:
        return Outcome(False, str(exc))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(False, f"unreadable output: {exc!r}")
    return Outcome(True, rows=rows, bytes_out=len(text.encode("utf-8")))


# ---------------------------------------------------------------- lib ops


def _check_call(call, result, ref):
    name = call[0]
    if name == "criterion_f":
        _, n, m, eta = call
        rn, rm, reta, f, eta0, h_w, h_v, entangled, alt_f = result
        require((rn, rm, reta) == (n, m, eta), "report is for other inputs")
        require(all(math.isfinite(x) for x in (f, eta0, h_w, h_v, alt_f)), "non-finite report value")
        ref.check_eta0(n, m, eta0, JSON_RTOL)
        require(f_ok(f, eta0, eta, JSON_RTOL), f"f = {f!r}, eta0 - eta = {eta0 - eta!r}")
        require(abs(h_w + h_v - LN_2PI_E - f) <= 1e-9, "entropies do not sum to f")
        require(entangled is (f < 0.0), "entangled flag disagrees with the sign of f")
        return 1
    if name == "threshold_eta0":
        _, n, m = call
        require(math.isfinite(result), "non-finite eta0")
        ref.check_eta0(n, m, result, JSON_RTOL)
        return 1
    if name == "entropy_integral_numeric":
        _, n, order = call
        require(math.isfinite(result), "non-finite entropy integral")
        fine, coarse = result, result
        if order != 48:
            coarse = ref.seec.quadrature.entropy_integral_numeric(n, 48)
        else:
            fine = ref.seec.quadrature.entropy_integral_numeric(n, 96)
        # the verify gate's panel-doubling tolerance, I3conv
        require(abs(coarse - fine) <= 1e-9 * max(1.0, abs(fine)), f"I3({n}) differs between orders 48 and 96")
        if n == 0:
            require(abs(result) <= 1e-12, "I3(0) is not 0")
        if n == 1:
            anchor = 4.0 * math.sqrt(math.pi) * (1.0 - 0.5 * 0.57721566490153286061)
            require(abs(result - anchor) <= 1e-9, "I3(1) misses its analytic value")
        return 1
    if name == "gauss_hermite_rule":
        order = call[1]
        nodes, weights = np.array(result[0]), np.array(result[1])
        x_ref, w_ref = np.polynomial.hermite.hermgauss(order)
        require(len(nodes) == order, "wrong node count")
        require(np.allclose(nodes, x_ref, rtol=1e-10, atol=1e-12), "nodes differ from numpy's hermgauss")
        require(np.allclose(weights, w_ref, rtol=1e-8, atol=1e-14 * w_ref.max()),
                "weights differ from numpy's hermgauss")
        require(close(weights.sum(), math.sqrt(math.pi), 1e-12), "weights do not sum to sqrt(pi)")
        return 1
    if name == "hermite_roots":
        n = call[1]
        roots = np.array(result)
        require(len(roots) == n and np.all(np.diff(roots) > 0), "roots are not n ascending values")
        if n:
            require(np.allclose(roots, np.polynomial.hermite.hermgauss(n)[0], rtol=1e-10, atol=1e-12),
                    "roots differ from numpy's hermgauss")
        return 1
    if name == "marginal":
        _, side, n, m, eta, lo, hi, count = call
        values = np.array(result)
        u = np.linspace(lo, hi, count)
        order = n if side == "w_minus" else m
        t = math.exp(0.5 * eta) / math.sqrt(2.0)
        z = t * u
        coef = np.zeros(order + 1)
        coef[order] = 1.0
        h = np.polynomial.hermite.hermval(z, coef)
        ln_norm = 0.5 * math.log(math.pi) + math.lgamma(order + 1) + order * math.log(2.0)
        want = math.exp(math.log(t) - ln_norm) * np.exp(-z * z) * h * h
        require(values.shape == u.shape and np.all(values >= 0.0), "marginal is not a nonnegative array")
        require(np.all(np.abs(values - want) <= 1e-8 * np.max(want) + 1e-300), "marginal differs from its formula")
        return 1
    if name == "collect_checks":
        count, passed, failures = result
        require(count == ref.verify_count(call[1]), "wrong number of verification checks")
        require(passed, f"normative checks failed: {failures}")
        return count
    raise CheckFailed(f"unknown call {name!r}")


def check_lib(op, code, payload, stderr, ref):
    """Class one finished lib op from the child's JSON payload."""
    if "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return Outcome(False, f"traceback: {last}")
    if code != 0 or payload is None:
        return Outcome(False, f"exit {code}: {stderr.strip()[-200:]!r}")
    results = payload["results"]
    if len(results) != len(op["calls"]):
        return Outcome(False, "child returned the wrong number of results")
    rows = 0
    for call, result in zip(op["calls"], results):
        try:
            rows += _check_call(call, result, ref)
        except CheckFailed as exc:
            return Outcome(False, f"{call[0]}{tuple(call[1:])}: {exc}")
        except (TypeError, ValueError, IndexError) as exc:
            return Outcome(False, f"{call[0]}: malformed result {exc!r}")
    return Outcome(True, rows=rows)
