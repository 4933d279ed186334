"""A small helper process that starts the CLI jobs for ``run.py``.

    python -S bench/launcher.py       # started by run.py; reads requests on stdin

A child's peak RSS, as ``wait4`` reports it, includes the memory of the
process that started it: a ``vfork`` child counts its parent's peak, a
``fork`` child its parent's size at the fork.  The benchmark process holds
numpy, the library and the workload, more than a CLI job needs, so the CLI
jobs are started from this process instead, by ``fork``, and it stays small.
It also takes the ``MEMORY`` calibration samples (see ``calibrate.py``),
whose pages would otherwise count in the benchmark process's own peak.

One JSON request per line on stdin, one JSON reply per line on stdout:

    {"op": "touch"}                     -> {"s": seconds of one MEMORY unit}
    {"op": "run", "argv": [...]}        -> {"code": .., "s": .., "maxrss_kb": .., "out": .., "err": ..}

``s`` is the child's wall time from start to exit, ``maxrss_kb`` the
largest peak RSS of the children so far, ``out`` and ``err`` the child's
bytes decoded as latin-1.  The process ends when stdin closes.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from time import perf_counter

import calibrate

# fork, so a child starts from this process's current size, not its peak
subprocess._USE_VFORK = False
subprocess._USE_POSIX_SPAWN = False


def run(argv: list[str]) -> dict:
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate()
    elapsed = perf_counter() - start
    # the reaped children's peak so far: the largest of them
    maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"code": proc.returncode, "s": elapsed, "maxrss_kb": maxrss,
            "out": out.decode("latin-1"), "err": err.decode("latin-1")}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "touch":
            reply = {"s": calibrate.MEMORY.sample()}
        else:
            reply = run(req["argv"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
