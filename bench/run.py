"""ghzgraphs benchmark: four closed-loop workloads, one process each.

    python3 bench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all               # every workload, each in a fresh process

A run is a closed loop with one client: jobs run one at a time, the next
starting when the last has finished, in passes over the workload's job
list.  The number of passes is fixed by ``--seconds`` and the workload's
nominal pass time (``NOMINAL_PASS_S``, measured on the baseline machine), so
every run of a workload times the same jobs the same number of times.  The
whole run is pinned to one CPU, CLI children included.

On a shared machine the same work can take up to twice as long from one
second to the next.  A calibration unit is therefore timed before every job
and after the last, and every job time is scaled to the reference
machine's speed by the unit's times around it (see ``calibrate.py``); the
raw times are kept in the full results.  A job's latency is the median of
its scaled times over the run's passes.  ``wall_s`` is the sum of the
jobs' latencies, one pass's worth; ``job_p50_ms`` is their median and
``job_tail_ms`` their highest percentile with at least ten jobs beyond it.
``setup_s`` is the median over set-ups in fresh processes, each scaled by
MEMORY calibration samples taken right after it in the same process.

Inputs come from ``--seed``; the library only receives the generated graphs
and documents.  Every job's output is checked (see ``checks.py``), and
against the stored reference digests for ``DEFAULT_SEED``.  Seed 7919 is
held out: it was not used while the benchmark was tuned, so a later claim
can be checked on it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs traced and
untraced passes alternately and prints the per-layer metrics.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are for people.  Full results, per-job
times and (traced) spans go to ``bench-results/`` at the repository root.

The library is imported from ``src/`` next to this directory; without it
the run fails before printing a result.
"""

from __future__ import annotations

import os

# single process, single thread: BLAS pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_tmp"
RESULTS = ROOT / "bench-results"
REFERENCE = BENCH / "reference.json"

WORKLOAD_NAMES = ("tables", "reduce", "search", "cli")
DEFAULT_SEED = 1
#: seconds per untraced pass, calibration included, on the reference
#: machine (2-core Xeon, Python 3.11)
NOMINAL_PASS_S = {"tables": 3.9, "reduce": 2.2, "search": 4.0, "cli": 5.2}
MIN_PASSES = 3
#: no pass starts after this share of ``--seconds``, so a slower machine
#: makes fewer passes rather than a longer run
PASS_START_LIMIT = 1.15
#: the calibration unit each workload's jobs are scaled by (see calibrate.py):
#: several interpreter units per sample where the jobs are long, fresh pages
#: where the jobs are process starts
CALIBRATION = {
    "tables": calibrate.INTERPRETER,
    "reduce": calibrate.INTERPRETER,
    "search": calibrate.INTERPRETER.times(8),
    "cli": None,  # MEMORY, run in the launcher: see main
}
#: a job running longer than this is stopped and counted as failed
JOB_BUDGET_S = {"tables": 40.0, "reduce": 15.0, "search": 20.0, "cli": 30.0}
#: no job starts later than this after the run began; the rest count as failed
RUN_DEADLINE_S = 150.0
SETUP_REPEATS = 5
PROBE_REPEATS = 5
TAIL_BEYOND = 10

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, workdir: Path, run_cli, traced: bool = False):
    """Import the library and build the workload's jobs and first inputs
    (those of the trace-only jobs too when ``traced``).

    Returns (jobs, first-pass inputs, seconds taken)."""
    start = perf_counter()
    if not (SRC / "ghzgraphs").is_dir():
        raise SystemExit(f"bench: no library at {SRC / 'ghzgraphs'}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.WORKLOADS[workload](seed, workdir, run_cli)
    inputs = make_inputs(jobs, 0, traced)
    return jobs, inputs, perf_counter() - start


def make_inputs(jobs, p: int, traced: bool = False) -> list:
    """Fresh inputs for pass p; None for a job that skips the pass."""
    return [job.make() if p % job.every == 0 and (traced or not job.trace_only) else None for job in jobs]


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process at reference speed, measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# running jobs


class Launcher:
    """The helper process ``launcher.py``, started on first use: it runs
    the CLI jobs and the MEMORY calibration samples (see its docstring)."""

    def __init__(self):
        self.proc = None

    def request(self, **req) -> dict:
        if self.proc is None:
            self.proc = subprocess.Popen([sys.executable, "-S", str(BENCH / "launcher.py")], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True, env=CHILD_ENV, cwd=ROOT,
                                         start_new_session=True)
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BaseException:
            self.stop(kill=True)  # a job over its budget: stop it and its launcher
            raise
        if not line:
            self.stop(kill=True)
            raise RuntimeError("the launcher exited")
        return json.loads(line)

    def touch(self) -> None:
        """One MEMORY calibration unit, run in the launcher."""
        self.request(op="touch")

    def stop(self, kill: bool = False) -> None:
        """End the launcher, and with ``kill`` the job it is running, and
        wait for the launcher to exit."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if kill:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        with contextlib.suppress(OSError):  # a launcher that died leaves a broken pipe
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()


def run_cli_subprocess(launcher: Launcher, argv):
    """``python -m ghzgraphs`` in a child started by the launcher."""
    from workloads import CliResult

    reply = launcher.request(op="run", argv=[sys.executable, "-m", "ghzgraphs", *argv])
    return CliResult(reply["code"], reply["out"].encode("latin-1"), reply["err"].encode("latin-1"),
                     reply["maxrss_kb"])


def run_cli_inprocess(argv):
    """``ghzgraphs.cli.main`` in this process, looked up at call time so a
    traced pass sees the wrapped function."""
    from workloads import CliResult

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["ghzgraphs.cli"].main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue().encode(), err.getvalue().encode())


class CliRunner:
    """Runs a cli job as ``python -m ghzgraphs`` in a child process, or
    in-process when ``in_process`` is set (traced runs, whose spans cannot
    cross processes)."""

    def __init__(self, launcher: Launcher, in_process: bool):
        self.launcher = launcher
        self.in_process = in_process

    def __call__(self, argv):
        return run_cli_inprocess(argv) if self.in_process else run_cli_subprocess(self.launcher, argv)


class Run:
    def __init__(self, workload: str, seed: int, jobs, deadline: float, calibration=None):
        self.workload = workload
        self.seed = seed
        self.jobs = jobs
        self.deadline = deadline
        self.budget = JOB_BUDGET_S[workload]
        self.calibration = calibration
        self.attempted = 0
        self.failures: list[str] = []
        #: raw seconds per job, and the same at reference speed
        self.job_times: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.job_scaled: dict[str, list[float]] = {job.name: [] for job in jobs}
        #: each calibrated pass's unit samples, one before every job and one after the last
        self.calibs: list[list[float]] = []
        self.child_rss_kb = 0
        self.digests: dict[str, dict] = {}
        self.cases = 0
        self.converged = 0
        self.reference = self._load_reference()

    def _load_reference(self) -> dict:
        if not REFERENCE.exists():
            return {}
        ref = json.loads(REFERENCE.read_text()).get(self.workload, {})
        if self.seed == DEFAULT_SEED:
            return ref
        return {name: d for name, d in ref.items() if name.startswith("baseline.")}

    def run_job(self, job, inp):
        """One timed call; returns (outcome, seconds or None when the job was
        not started, error text or None)."""
        from workloads import ExpectedError

        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            return None, None, "not started: run deadline passed"
        signal.setitimer(signal.ITIMER_REAL, min(self.budget, remaining))
        error = None
        out = None
        start = perf_counter()
        try:
            out = job.call(inp)
        except JobTimeout:
            error = f"exceeded its {min(self.budget, remaining):g} s budget"
        except Exception as exc:  # a failing job is recorded and the pass goes on
            if job.expect_error == type(exc).__name__:
                out = ExpectedError(type(exc).__name__)
            else:
                error = f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        return out, elapsed, error

    def one_pass(self, inputs, tracer=None, calibrated=False):
        """Run every job with an input once; returns (pass wall seconds,
        outcomes), with None for the jobs that skip the pass.  A calibrated
        pass samples the calibration unit before every job and after the
        last, and each outcome carries the job's factor to reference speed."""
        outcomes = []
        calibs = []
        gc.collect()
        if tracer is not None:
            tracer.install()
            root = tracer.open("bench", "pass")
        start = perf_counter()
        if calibrated:
            calibs.append(self.calibration.sample())
        try:
            for job, inp in zip(self.jobs, inputs):
                if inp is None:
                    outcomes.append(None)
                    continue
                span = tracer.open("bench", job.name) if tracer is not None else None
                outcomes.append(self.run_job(job, inp))
                if span is not None:
                    tracer.close(span)
                if calibrated:
                    calibs.append(self.calibration.sample())
        finally:
            wall = perf_counter() - start
            if tracer is not None:
                wall = tracer.close(root)
                tracer.uninstall()
        if calibrated:
            factors = iter(self.calibration.factors(calibs, [o[1] or 0.0 for o in outcomes if o is not None]))
            outcomes = [None if o is None else (*o, next(factors)) for o in outcomes]
            self.calibs.append(calibs)
        else:
            outcomes = [None if o is None else (*o, None) for o in outcomes]
        return wall, outcomes

    def record(self, inputs, outcomes, timed: bool, first: bool) -> None:
        """Check every outcome; failures count toward the error rate."""
        from checks import compare_digest

        for job, inp, outcome in zip(self.jobs, inputs, outcomes):
            if outcome is None:
                continue
            out, elapsed, error, factor = outcome
            self.attempted += 1
            if timed and elapsed is not None:
                self.job_times[job.name].append(elapsed)
                if factor is not None:
                    self.job_scaled[job.name].append(elapsed * factor)
            if hasattr(out, "maxrss_kb"):
                self.child_rss_kb = max(self.child_rss_kb, out.maxrss_kb)
            problems = [error] if error else job.check(inp, out)
            if job.converged is not None and not error and timed:
                self.cases += 1
                self.converged += job.converged(out)
            if not problems and job.digest is not None:
                digest = job.digest(out)
                if first:
                    self.digests[job.name] = digest
                if job.name in self.reference:
                    problems = compare_digest(digest, self.reference[job.name])
            if problems:
                self.failures.append(f"{job.name}: {'; '.join(problems)}")

    def exact_digest(self) -> str:
        """One digest over the exact parts of the first pass's outputs."""
        text = "\n".join(f"{name}:{d.get('exact')}" for name, d in self.digests.items())
        return hashlib.sha256(text.encode()).hexdigest()[:32]


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def tail(samples: list[float]):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload: str, seed: int, seconds: float, jobs, inputs, calibration) -> dict:
    """The end-to-end metrics, from untraced passes only."""
    from selftest import corrupted_table_is_flagged

    run = Run(workload, seed, jobs, perf_counter() + RUN_DEADLINE_S, calibration)
    setups = [probe_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    selftest_ok = corrupted_table_is_flagged()
    calibration.run()  # warm-up, and the launcher's start, outside any sample
    walls = []
    start = perf_counter()
    for p in range(pass_count(workload, seconds)):
        if p >= MIN_PASSES and perf_counter() - start > PASS_START_LIMIT * seconds:
            break
        if p:
            inputs = make_inputs(jobs, p)
        wall, outcomes = run.one_pass(inputs, calibrated=True)
        walls.append(wall)
        run.record(inputs, outcomes, timed=True, first=p == 0)
        del inputs, outcomes
    latency = {name: statistics.median(ts) for name, ts in run.job_scaled.items() if ts}
    tail_value, tail_pct, n = tail(list(latency.values()))
    if workload == "cli":
        rss_kb = run.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(sum(latency.values()), "s"),
        "job_p50_ms": metric(statistics.median(latency.values()) * 1e3, "ms"),
        "job_tail_ms": metric(tail_value * 1e3, "ms"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups in fresh processes",
        "wall_s": f"one pass of {n} jobs, each at its median over {len(walls)} passes",
        "job_p50_ms": f"median of {n} jobs, each at its median over {len(walls)} passes",
        "job_tail_ms": f"p{tail_pct:.1f}: {TAIL_BEYOND} of {n} jobs beyond it",
        "peak_rss_mb": "max over the CLI child processes" if workload == "cli" else "this process",
    }
    extra = {"error_rate": f"{len(run.failures)}/{run.attempted}"}
    if run.cases:
        extra["converged_ratio"] = f"{run.converged / run.cases:.4f} ({run.converged}/{run.cases} cases)"
    return _finish(workload, seed, run, metrics, notes, extra, selftest_ok, {
        "pass_walls_s": walls,
        "setups_s": setups,
        "job_latency_ms": {k: v * 1e3 for k, v in latency.items()},
        "job_times_s": run.job_times,
        "job_scaled_s": run.job_scaled,
        "calibration_s": run.calibs,
    })


def traced(workload: str, seed: int, seconds: float, jobs, inputs, workdir: Path) -> dict:
    """The per-layer metrics, from traced passes alternating with untraced ones."""
    import tracer as tr
    from selftest import corrupted_table_is_flagged, coverage, self_times_cover_wall

    run = Run(workload, seed, jobs, perf_counter() + RUN_DEADLINE_S)
    selftest_ok = corrupted_table_is_flagged()
    passes = max(4, 2 * ((pass_count(workload, seconds) + 1) // 2))
    tracers, traced_walls, plain_walls, coverages = [], [], [], []
    for p in range(passes):
        if p:
            inputs = make_inputs(jobs, p, traced=True)
        t = tr.Tracer() if p % 2 == 0 else None
        wall, outcomes = run.one_pass(inputs, t)
        if t is not None:
            tracers.append(t)
            traced_walls.append(wall)
            self_times = t.self_times()
            coverages.append(coverage(self_times, wall))
            selftest_ok &= self_times_cover_wall(self_times, wall)
        else:
            plain_walls.append(wall)
        run.record(inputs, outcomes, timed=t is None, first=p == 0)
        del inputs, outcomes
    probes = cli_probes(workdir)
    metrics = layer_metrics(tracers, probes)
    metrics["trace.overhead_ratio"] = metric(statistics.median(traced_walls) / statistics.median(plain_walls), "ratio")
    RESULTS.mkdir(exist_ok=True)
    tr.dump(tracers, RESULTS / f"spans-{workload}-seed{seed}.json")
    notes = {"trace.overhead_ratio": f"median of {len(traced_walls)} traced over {len(plain_walls)} untraced passes"}
    return _finish(workload, seed, run, metrics, notes, {"self_time_coverage": coverages}, selftest_ok, {
        "traced_walls_s": traced_walls,
        "untraced_walls_s": plain_walls,
        "job_latency_ms": {k: statistics.median(v) * 1e3 for k, v in run.job_times.items() if v},
        "calls_first_pass": {f"{layer}.{name}": n for (layer, name), n in tracers[0].calls.items()},
        "counts_first_pass": dict(tracers[0].counts),
    })


#: per-layer metrics taken from one traced pass: name -> (unit, value)
def _pass_layer_values(t) -> dict:
    c, calls, st = t.counts, t.calls, t.self_times()
    restarts = c["search.restarts_used"]
    return {
        "exact.ops": ("count", c["exact.ops"]),
        "exact.self_s": ("s", st.get("exact", 0.0)),
        "graphs.calls": ("count", t.layer_calls("graphs")),
        "graphs.self_s": ("s", st.get("graphs", 0.0)),
        "matchings.calls": ("count", t.layer_calls("matchings")),
        "matchings.matchings_enumerated": ("count", c["matchings.matchings_enumerated"]),
        "matchings.table_calls": ("count", calls["matchings", "colouring_weight_table"]),
        "matchings.table_entries": ("count", c["matchings.table_entries"]),
        "matchings.self_s": ("s", st.get("matchings", 0.0)),
        "ghz.verify_calls": ("count", calls["ghz", "verify"]),
        "ghz.verify_exact_s": ("s", c["ghz.verify_exact_s"]),
        "ghz.verify_float_s": ("s", c["ghz.verify_float_s"]),
        "ghz.scale_calls": ("count", calls["ghz", "scale_to_ghz"]),
        "ghz.self_s": ("s", st.get("ghz", 0.0)),
        "structure.connectivity_calls": ("count", calls["structure", "vertex_connectivity"]),
        "structure.cuts_yielded": ("count", c["structure.iter_cuts.yielded"]),
        "structure.self_s": ("s", st.get("structure", 0.0)),
        "reduction.reduce_calls": ("count", calls["reduction", "reduce"]),
        "reduction.cuts_tried": ("count", calls["reduction", "reduce_easy"] + calls["reduction", "reduce_hard"]),
        "reduction.weight_lookups": ("count", c["reduction.weight_lookups"]),
        "reduction.self_s": ("s", st.get("reduction", 0.0)),
        "search.build_s": ("s", c["search.build_s"]),
        "search.monomials": ("count", c["search.monomials"]),
        "search.gradient_calls": ("count", calls["search", "gradient"]),
        "search.restarts_used": ("count", restarts),
        "search.useful_restart_ratio": ("ratio", c["search.converged"] / restarts if restarts else 0.0),
        "search.converged_ratio": ("ratio", c["search.converged"] / c["search.cases"] if c["search.cases"] else 0.0),
        "search.exactify_s": ("s", c["search.exactify_s"]),
        "search.self_s": ("s", st.get("search", 0.0)),
        "io.parse_s": ("s", c["io.parse_s"]),
        "io.serialize_s": ("s", c["io.serialize_s"]),
        "io.bytes": ("B", c["io.bytes"]),
    }


def layer_metrics(tracers, probes: dict) -> dict:
    """Counts from the first traced pass; times as the median over traced passes."""
    per_pass = [_pass_layer_values(t) for t in tracers]
    out = {}
    for name, (unit, value) in per_pass[0].items():
        if unit == "s":
            value = statistics.median(p[name][1] for p in per_pass)
        out[name] = metric(value, unit)
    for name, value in probes.items():
        out[f"cli.{name}"] = metric(value, "ms")
    return out


def _time_child(code: str) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, cwd=ROOT, timeout=60, check=True)
    return perf_counter() - start


def cli_probes(workdir: Path) -> dict:
    """Interpreter start, ``import ghzgraphs`` and an in-process ``cli.main``
    verify of C6, each the median of PROBE_REPEATS, in milliseconds."""
    import workloads

    bare = statistics.median(_time_child("pass") for _ in range(PROBE_REPEATS))
    imported = statistics.median(_time_child("import ghzgraphs") for _ in range(PROBE_REPEATS))
    doc = workdir / "probe-c6.json"
    doc.write_text(json.dumps(workloads._doc(workloads.plain_cycle(6))))
    mains = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        if run_cli_inprocess(["verify", str(doc)]).code != 0:
            raise RuntimeError("cli.main probe failed")
        mains.append(perf_counter() - start)
    return {"interpreter_ms": bare * 1e3, "import_ms": (imported - bare) * 1e3,
            "main_ms": statistics.median(mains) * 1e3}


# ---------------------------------------------------------------------------
# reporting


def _finish(workload, seed, run, metrics, notes, extra, selftest_ok, details) -> dict:
    env = environment(seed)
    correct = selftest_ok and not run.failures
    print(f"env {json.dumps(env)}")
    print(f"workload {workload}: closed loop, 1 client, {len(run.jobs)} jobs per pass, seed {seed}")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:32s} {m['value']:14.6f} {m['unit']:6s} {note}")
    for name, value in extra.items():
        print(f"  {name:32s} {value}")
    baseline = {k: v for k, v in details["job_latency_ms"].items() if k.startswith("baseline.")}
    scaled = "at reference speed" if "job_scaled_s" in details else "raw"
    for name, ms in baseline.items():
        print(f"  job {name:28s} {ms:14.3f} ms     median of the run's untraced passes, {scaled}")
    print(f"  exact_digest {run.exact_digest()}   self-tests {'passed' if selftest_ok else 'FAILED'}")
    for line in run.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": run.attempted, "failed": len(run.failures), "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int('trace.overhead_ratio' in metrics)}.json"
    path.write_text(json.dumps({"env": env, "result": result, "notes": notes, "extra": extra,
                                "failures": run.failures, "exact_digest": run.exact_digest(),
                                "digests": run.digests, **details}, indent=1))
    return result


def write_reference(workload: str, jobs, inputs) -> int:
    """Store the first pass's digests for DEFAULT_SEED in reference.json."""
    run = Run(workload, DEFAULT_SEED, jobs, perf_counter() + RUN_DEADLINE_S)
    run.reference = {}
    _, outcomes = run.one_pass(inputs)
    run.record(inputs, outcomes, timed=False, first=True)
    if run.failures:
        print("\n".join(run.failures), file=sys.stderr)
        return 1
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref[workload] = run.digests
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(run.digests)} {workload} digests to {REFERENCE.name}")
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, then one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.write_reference:
            cmd.append("--write-reference")
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
        lines = done.stdout.rstrip("\n").splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        if args.write_reference:
            print("\n".join(lines))
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    if not args.write_reference:
        print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the outputs' digests for seed {DEFAULT_SEED} as the reference")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    launcher = Launcher()
    run_cli = CliRunner(launcher, in_process=bool(args.trace))
    try:
        jobs, inputs, setup_s = setup(args.workload, args.seed, workdir, run_cli,
                                      traced=bool(args.trace) or args.write_reference)
        if args.probe_setup:
            print(repr(setup_s * calibrate.MEMORY.speed_scale(3)))
            return 0
        if args.write_reference:
            if args.seed != DEFAULT_SEED:
                parser.error(f"the reference is for seed {DEFAULT_SEED}")
            return write_reference(args.workload, jobs, inputs)
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, jobs, inputs, workdir)
        else:
            calibration = CALIBRATION[args.workload] or calibrate.Unit(launcher.touch, calibrate.MEMORY.ref_s)
            result = untraced(args.workload, args.seed, args.seconds, jobs, inputs, calibration)
    finally:
        launcher.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
