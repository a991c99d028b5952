"""Child process for one ``lib_cold`` op.

Usage: python3 libhost.py OP_JSON [SPANS_OUT OP_ID]

Imports seec, notes the monotonic clock when the import has returned, then
times one batch of cold library calls in this fresh process.  Prints one
JSON line: the clock reading, the batch time, the import times and every
call's result.  With SPANS_OUT the calls are traced and the spans written
there on exit.
"""

import json
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402  (timed apart from seec)

t1 = time.perf_counter()
import seec  # noqa: E402
import seec.verification  # noqa: E402

t2 = time.perf_counter()
ready = time.clock_gettime(time.CLOCK_MONOTONIC)


def _call(call):
    name, args = call[0], call[1:]
    if name == "marginal":
        side, n, m, eta, lo, hi, count = args
        return seec.marginal(side, n, m, eta, numpy.linspace(lo, hi, count))
    if name == "collect_checks":
        return seec.verification.collect_checks(*args)
    return getattr(seec, name)(*args)


def _plain(call, result):
    name = call[0]
    if name == "criterion_f":
        r = result
        return [r.n, r.m, r.eta, r.f, r.eta0, r.H_w_minus, r.H_v_plus, r.entangled, r.alt_f]
    if name == "gauss_hermite_rule":
        return [result.nodes.tolist(), result.weights.tolist()]
    if name == "hermite_roots":
        return result.roots.tolist()
    if name == "marginal":
        return result.tolist()
    if name == "collect_checks":
        failed = [c.name for c in result if c.normative and c.status != "ok"]
        return [len(result), not failed, failed]
    return float(result)


def main():
    op = json.loads(sys.argv[1])
    recorder = None
    if len(sys.argv) > 2:
        import spans

        recorder = spans.Recorder(int(sys.argv[3]), {"numpy": t1 - t0, "seec": t2 - t1})
        recorder.install()
    try:
        start = time.perf_counter()
        results = [_call(call) for call in op["calls"]]
        batch = time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.save(sys.argv[2])
    payload = {
        "ready": ready,
        "batch_s": batch,
        "import_s": {"numpy": t1 - t0, "seec": t2 - t1},
        "results": [_plain(c, r) for c, r in zip(op["calls"], results)],
    }
    sys.stdout.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
