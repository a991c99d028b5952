"""Starts the benchmark's child processes and reports how each one ended.

run.py runs this as a separate, small process.  On Linux a child's max-RSS
(``os.wait4``) starts from the high-water mark of the process that spawned
it, and run.py holds whole op outputs in memory, so run.py must not
spawn the children it measures itself.

Protocol: one JSON request per stdin line, ``{"argv", "stdout", "stderr"}``
(the two output file paths); one JSON reply per stdout line,
``{"code", "spawned", "seconds", "maxrss_kb"}`` where ``spawned`` is the
monotonic clock just before the child started.  Children inherit this
process's working directory and environment.  EOF on stdin ends it.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120.0


def run(argv, stdout_path, stderr_path):
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "spawned": spawned, "seconds": seconds,
            "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
