"""Run commands one at a time for ``run.py``; report each one's exit code,
wall time and peak RSS.

Reads one JSON request per line on stdin (``argv``, ``env``, ``cwd``,
``log``, ``timeout``) and answers with one JSON line on stdout.  It lives
in its own small process, started before the benchmark imports numpy,
because Linux carries a process's peak RSS over into the rusage of the
children it spawns: measured from the benchmark process itself, a small
CLI child would report the benchmark's size.  Exits at end of input.
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
        with open(req["log"], "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT, env=req["env"], cwd=req["cwd"])
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
