"""Run one ``seec`` CLI invocation with layer spans recorded.

Usage: python3 clihost.py SPANS_OUT OP_ID SEEC_ARGS...

Behaves like ``python3 -m seec SEEC_ARGS...`` (same output, exit code and
tracebacks) and writes the op's spans to SPANS_OUT when it exits.
"""

import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401  (timed apart from seec)

t1 = time.perf_counter()
import seec.cli  # noqa: E402

t2 = time.perf_counter()

import spans  # noqa: E402

if __name__ == "__main__":
    recorder = spans.Recorder(int(sys.argv[2]), {"numpy": t1 - t0, "seec": t2 - t1})
    recorder.install()
    try:
        code = seec.cli.main(sys.argv[3:])
    finally:
        recorder.save(sys.argv[1])
    sys.exit(code)
