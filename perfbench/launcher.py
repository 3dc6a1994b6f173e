"""Starts the benchmark's CLI invocations from a small process.

On Linux a child's peak RSS, as os.wait4 reports it, also counts the
high-water mark of the process that spawned it: exec records the RSS of the
address space it replaces.  The benchmark process imports numpy and may
hold large traced runs, so it does not spawn the measured processes itself.
This process imports no numpy and runs with `python -S`, so the floor it
sets (~10 MB) sits far below any CLI process.

Protocol: one JSON request per stdin line,
{"argv", "cwd", "stdout", "stderr", "timeout"} (stdout and stderr are file
paths), and one JSON reply per stdout line, {"code", "wall", "cpu",
"maxrss_kb"}; cpu is the child's user plus system time in seconds.
The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
            timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                 "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
