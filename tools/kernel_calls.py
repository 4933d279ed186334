"""Time the weight kernel on the calls one pass of a benchmark workload makes.

The script builds the jobs of the ``reduce`` benchmark workload (the default)
or of the ``tables`` one from ``bench/workloads.py`` (read only, as the
benchmark builds them), runs each job once with the private kernel
``matchings._weight_table`` wrapped so that every call's graph and masks are
recorded, and then replays the recorded calls on the unwrapped kernel.  Of
the ``tables`` jobs it runs those an untraced benchmark pass runs, so the
verifies, whole tables and colouring lookups, and not the trace-only
baseline verifies.  It prints the number of calls, how many
returned no entry, one entry or more, the best and median microseconds per
call over the replays, and one digest of every returned table (keys, key
order, each value's type and exact parts), so two versions of the kernel can
be compared for identical output as well as for speed.  The last line of
stdout is one JSON object with the same numbers.

    python3 tools/kernel_calls.py --seed 1 --repeats 7
    python3 tools/kernel_calls.py --workload tables --seed 1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import ghzgraphs.matchings  # noqa: E402
import ghzgraphs.reduction  # noqa: E402
import ghzgraphs.structure  # noqa: E402
import workloads  # noqa: E402
from ghzgraphs import GaussianRational, GhzGraphError  # noqa: E402


JOBS = {"reduce": workloads.reduce_jobs, "tables": workloads.tables_jobs}


def record(workload: str, seed: int) -> list:
    """The arguments, graph and masks, of every kernel call of one pass of
    the workload's jobs that an untraced pass runs."""
    kernel = ghzgraphs.matchings._weight_table
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return kernel(*args, **kwargs)

    # reduction and structure import the kernel by name; matchings calls its own global
    modules = (ghzgraphs.matchings, ghzgraphs.reduction, ghzgraphs.structure)
    for module in modules:
        module._weight_table = recording
    try:
        for job in JOBS[workload](seed):
            if job.trace_only:
                continue
            try:
                job.call(job.make())
            except (GhzGraphError, ValueError):
                if job.expect_error is None:
                    raise
    finally:
        for module in modules:
            module._weight_table = kernel
    return calls


def digest(tables) -> str:
    """sha256 over every table's keys in order and each value's exact parts."""
    h = hashlib.sha256()
    for table in tables:
        for vc, w in table.items():
            parts = w._v if isinstance(w, GaussianRational) else (w.real.hex(), w.imag.hex())
            h.update(repr((vc, type(w).__name__, parts)).encode())
        h.update(b"|")
    return h.hexdigest()


def replay(calls, repeats: int) -> list[float]:
    """Seconds per replay of every call, one entry per repeat."""
    kernel = ghzgraphs.matchings._weight_table
    times = []
    for _ in range(repeats):
        gc.collect()
        start = perf_counter()
        for args, kwargs in calls:
            kernel(*args, **kwargs)
        times.append(perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(JOBS), default="reduce",
                        help="whose jobs' kernel calls to replay (default reduce)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--repeats", type=int, default=7, help="timed replays of the calls (default 7)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    calls = record(args.workload, args.seed)
    kernel = ghzgraphs.matchings._weight_table
    tables = [kernel(*call_args, **kwargs) for call_args, kwargs in calls]
    sizes = [len(t) for t in tables]
    times = replay(calls, args.repeats)
    per_call = [t / len(calls) * 1e6 for t in times]
    result = {
        "seed": args.seed,
        "calls": len(calls),
        "empty": sizes.count(0),
        "one_entry": sizes.count(1),
        "more": sum(s > 1 for s in sizes),
        "entries": sum(sizes),
        "repeats": args.repeats,
        "us_per_call_best": round(min(per_call), 3),
        "us_per_call_median": round(statistics.median(per_call), 3),
        "digest": digest(tables),
    }
    print(f"{args.workload} workload, seed {args.seed}: {result['calls']} kernel calls "
          f"({result['empty']} empty, {result['one_entry']} with one entry, {result['more']} with more; "
          f"{result['entries']} entries)")
    print(f"replayed {args.repeats} times: {result['us_per_call_best']} us per call best, "
          f"{result['us_per_call_median']} us median")
    print(f"tables digest: {result['digest']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
