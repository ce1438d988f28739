"""Run one command; report its exit code, wall time and peak RSS.

    spawn.py OUT_PREFIX ARGV...

The command's stdout and stderr go to OUT_PREFIX.stdout and
OUT_PREFIX.stderr; this process prints one JSON line
{"code", "wall", "maxrss_kib"}. Wall time runs from just before the
command starts to its exit; peak RSS is the command's own, from wait4.

Launching through this small process keeps the memory of run.py out of
the figure: a child's peak RSS as Linux reports it includes the
resident memory of the process it was forked from.
"""

import json
import os
import subprocess
import sys
import time


def main():
    prefix, argv = sys.argv[1], sys.argv[2:]
    with open(prefix + ".stdout", "wb") as out, open(prefix + ".stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall": wall, "maxrss_kib": usage.ru_maxrss}))


if __name__ == "__main__":
    main()
