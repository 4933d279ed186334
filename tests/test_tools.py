"""The measurement scripts under ``tools/``, and the benchmark's self-test,
run against the library in src/."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(path, *args):
    """The stdout lines of one script run in a subprocess from the
    repository root, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / path), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def run_tool(name, *args):
    """The last-line JSON of one tool run in a subprocess."""
    return json.loads(run_script(Path("tools") / name, *args)[-1])


def test_the_benchmark_self_test_passes():
    """A corrupted table entry is flagged, and a traced pass's self times
    sum to its wall time."""
    flagged, covered = run_script(Path("bench") / "selftest.py")
    assert flagged == "corrupted table entry flagged: True"
    assert covered.startswith("self times cover traced wall: True ")


def test_search_layer_measures_k4_at_d2():
    (result,) = run_tool("search_layer.py", "--case", "4:2")
    assert result["case"] == "K4 d=2" and result["monomials"] == 48


def test_search_recall_reports_each_field_of_one_case():
    (result,) = run_tool("search_recall.py", "--case", "K4:2", "--seed", "0")
    assert set(result) == {
        "case", "seeds", "monomials", "converged_share", "exact_share", "worst_residual", "wall_s",
    }
    assert result["case"] == "K4 d=2" and result["seeds"] == [0] and result["monomials"] == 48
    for share in ("converged_share", "exact_share"):
        assert result[share] in (0.0, 1.0)
    assert result["worst_residual"] >= 0.0 and result["wall_s"] >= 0.0


def test_kernel_calls_counts_and_digests_one_reduce_pass():
    result = run_tool("kernel_calls.py", "--seed", "1", "--repeats", "1")
    assert result["seed"] == 1 and result["repeats"] == 1
    assert result["calls"] == result["empty"] + result["one_entry"] + result["more"]
    assert len(result["digest"]) == 64 and set(result["digest"]) <= set("0123456789abcdef")


def test_kernel_calls_replays_the_untraced_tables_jobs():
    result = run_tool("kernel_calls.py", "--workload", "tables", "--seed", "1", "--repeats", "1")
    assert result["seed"] == 1 and result["repeats"] == 1
    assert result["calls"] == result["empty"] + result["one_entry"] + result["more"]
    # the colouring lookups' calls return at most one entry each, the whole tables more
    assert result["one_entry"] and result["more"]
    assert len(result["digest"]) == 64 and set(result["digest"]) <= set("0123456789abcdef")
