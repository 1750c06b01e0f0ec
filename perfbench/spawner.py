"""Runs program processes one at a time for the benchmark runner (run.py).

The runner grows large while it checks outputs, and a child's peak RSS as
the kernel reports it includes the pages of the parent it was spawned
from.  So the runner starts this small process first and has it spawn the
program; program peaks then carry only this process's few megabytes.

Protocol, one JSON object per line: a request ``{"argv": [...],
"timeout": seconds}`` is answered with ``{"rc", "wall_s", "stdout",
"stderr"}``, where ``wall_s`` runs from spawn to exit and ``rc`` is null
for a process killed at the timeout.  A request ``{"rss": true}`` is answered with
``{"peak_rss_kb"}``, the largest peak RSS of any process run so far.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("rss"):
            reply = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        else:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    req["argv"], capture_output=True, text=True, timeout=req["timeout"]
                )
                rc, out, err = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired:
                rc, out, err = None, "", f"killed after {req['timeout']} s"
            reply = {"rc": rc, "wall_s": time.perf_counter() - t0, "stdout": out, "stderr": err}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
