"""Measure the spread of the end-to-end metrics and record a baseline.

    python3 bench/baseline.py                    # seeds 91-100, print only
    python3 bench/baseline.py --write            # ... and rewrite baseline.json
    python3 bench/baseline.py --workloads search --seeds 11-15

For each workload, one ``--trace 0`` run per seed, one after another, then
(with ``--write``) one ``--trace 1`` run with seed 1.  For every end-to-end
metric it prints the median over the seeds and the spread: the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) over the median, the figure a run-to-run comparison is held to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / "bench-results"
WORKLOADS = ("tables", "reduce", "search", "cli")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}, result {result}")
    return json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("91-100"))
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--write", action="store_true", help="rewrite baseline.json")
    args = parser.parse_args()
    out = {"end_to_end": {}, "baseline_jobs_ms": {}, "per_layer_seed1": {}}
    for workload in args.workloads:
        runs = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        metrics = {name: dict(unit=m["unit"], **summary([r["result"]["metrics"][name]["value"] for r in runs]))
                   for name, m in runs[0]["result"]["metrics"].items()}
        out["end_to_end"][workload] = {
            "seeds": args.seeds,
            "metrics": metrics,
            "error_rate": [r["extra"]["error_rate"] for r in runs],
            **({"converged_ratio": [r["extra"]["converged_ratio"] for r in runs]}
               if "converged_ratio" in runs[0]["extra"] else {}),
        }
        for job in runs[0]["job_latency_ms"]:
            if job.startswith("baseline."):
                out["baseline_jobs_ms"][job] = statistics.median(r["job_latency_ms"][job] for r in runs)
        print(f"{workload}: {len(runs)} runs, error rates {sorted(set(out['end_to_end'][workload]['error_rate']))}")
        for name, m in metrics.items():
            print(f"  {name:14s} median {m['median']:12.6g} {m['unit']:5s} spread {m['spread']:.3f}")
        if args.write:
            traced = run(workload, 1, args.seconds, 1)
            out["per_layer_seed1"][workload] = {k: m["value"] for k, m in traced["result"]["metrics"].items()}
            for job, ms in traced["job_latency_ms"].items():
                if job.startswith("baseline."):
                    out["baseline_jobs_ms"].setdefault(job, ms)
            out["env"] = traced["env"]
    if args.write:
        out["note"] = (f"Numbers at the commit that added the benchmark. end_to_end: median and quartiles over "
                       f"--trace 0 runs of --seconds {args.seconds}, one seed after another, one workload after "
                       f"another; spread is the quartile distance over the median. per_layer_seed1: one --trace 1 "
                       f"run per workload with seed 1. baseline_jobs_ms: the ROADMAP baseline jobs' latencies, median "
                       f"over the --trace 0 runs (at reference speed), and for the two K8 verifies, which run in "
                       f"traced runs only, the raw median over the untraced passes of the traced run.")
        order = ("note", "env", "end_to_end", "baseline_jobs_ms", "per_layer_seed1")
        (BENCH / "baseline.json").write_text(json.dumps({k: out[k] for k in order}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
