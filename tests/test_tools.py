"""The measurement scripts under ``tools/``, and the benchmark's self-test,
run against the library in src/."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["layers.py", "search_recall.py"])
def test_each_tool_describes_itself_on_help(name):
    """``--help`` prints the first paragraph of the tool's docstring, so
    README can name each tool in one line and point to ``--help``."""
    path = Path("tools") / name
    first = ast.get_docstring(ast.parse((ROOT / path).read_text(encoding="utf-8"))).split("\n\n")[0]
    assert " ".join(first.split()) in " ".join(" ".join(run_script(path, "--help")).split())


def test_the_benchmark_self_test_passes():
    """A corrupted table entry is flagged, and a traced pass's self times
    sum to its wall time."""
    flagged, covered = run_script(Path("bench") / "selftest.py")
    assert flagged == "corrupted table entry flagged: True"
    assert covered.startswith("self times cover traced wall: True ")


def test_the_search_row_measures_k4_at_d2():
    result = run_tool("layers.py", "--row", "search.K4.d2")["search.K4.d2"]
    assert set(result) == {
        "case", "monomials", "build_s", "evaluate_gradient_s", "descent_iterations", "descent_ms_per_iteration",
        "max_rss_mib_after_imports", "max_rss_mib_after_build", "max_rss_mib_after_evaluate_gradient",
        "max_rss_mib_after_descent", "digest",
    }
    assert result["case"] == "K4 d=2" and result["monomials"] == 48
    assert result["descent_iterations"] == 5 and result["descent_ms_per_iteration"] > 0
    assert result["max_rss_mib_after_descent"] >= result["max_rss_mib_after_evaluate_gradient"]


def test_search_recall_reports_each_field_of_one_case():
    (result,) = run_tool("search_recall.py", "--case", "K4:2", "--seed", "0")
    assert set(result) == {
        "case", "seeds", "monomials", "converged_share", "exact_share", "worst_residual", "wall_s",
    }
    assert result["case"] == "K4 d=2" and result["seeds"] == [0] and result["monomials"] == 48
    for share in ("converged_share", "exact_share"):
        assert result[share] in (0.0, 1.0)
    assert result["worst_residual"] >= 0.0 and result["wall_s"] >= 0.0


@pytest.mark.parametrize(
    "workload, counts, digest",
    [
        ("reduce", (540, 187, 248, 105, 501), "f0498c0160675bf273e0c807f6afad9deaf5b513646b86ecf8400709064c709b"),
        ("tables", (102, 32, 40, 30, 8964), "400defb29a514a6200574348a3472dcea8991999632ea5c113c5d8595a435596"),
    ],
    ids=["reduce", "tables"],
)
def test_the_replay_rows_count_and_digest_the_kernel_calls_of_one_pass(workload, counts, digest):
    """One seed-1 pass's kernel calls, pinned: how many, how many return no
    entry, one entry and more, their entries, and the digest of every
    returned table.  A change to the kernel's output, to the calls a pass
    makes or to the workload's jobs moves them."""
    result = run_tool("layers.py", "--row", f"replay.{workload}")[f"replay.{workload}"]
    assert tuple(result[k] for k in ("calls", "empty", "one_entry", "more", "entries")) == counts
    assert result["digest"] == digest
    assert 0 < result["us_per_call_best"] <= result["us_per_call_median"]


def test_an_a_a_run_reports_both_sides_and_equal_digests():
    result = run_tool("layers.py", "--row", "arith.add", "--against", ".", "--rounds", "2")["arith.add"]
    assert result["key"] == "ms_best" and result["rounds"] == 2 and result["digests_agree"]
    assert len(result["parent"]) == len(result["change"]) == 2
    assert 0 <= result["change_wins"] <= 2 and result["parent_iqr"] >= 0
    assert min(result["parent"]) <= result["parent_median"] <= max(result["parent"])
