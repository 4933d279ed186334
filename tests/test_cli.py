"""CLI contract: JSON on stdout, deterministic bytes, exit codes 0/1/2."""

import argparse
import inspect
import json
import subprocess
import sys
import textwrap

import pytest

from ghzgraphs import (
    cancelling_square,
    complete_ghz_k4,
    cycle_ghz,
    octahedron,
    parallel_ghz_k2,
    parse_document,
    scale_to_ghz,
    serialize_graph,
    skeleton,
    verify,
)
from ghzgraphs.cli import build_parser, main

from conftest import bogdanov_instance, fresh_interpreter


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in [
        ("k4", complete_ghz_k4()),
        ("c6", cycle_ghz(6)),
        ("square", cancelling_square()),
        ("oct", octahedron()),
        ("k2skel", skeleton(parallel_ghz_k2(2))),
        ("bog", bogdanov_instance(0)),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(serialize_graph(g))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_accepts_a_ghz_graph(files, capsys):
    code, out, err = run(["verify", files["k4"]], capsys)
    assert code == 0 and err == ""
    blob = json.loads(out)
    assert blob == {"is_ghz": True, "is_g_ghz": True, "dimension": 3, "violations": []}


def test_verify_gates_on_the_requested_property(files, capsys):
    code, out, _ = run(["verify", files["square"]], capsys)
    assert code == 1  # strict gate fails
    blob = json.loads(out)
    assert blob["violations"][0]["kind"] == "mono_zero"
    code, _, _ = run(["verify", "--g-ghz", files["square"]], capsys)
    assert code == 0  # generalized gate passes


def test_dimension_command(files, capsys):
    code, out, _ = run(["dimension", files["c6"]], capsys)
    assert code == 0
    assert json.loads(out) == {"dimension": 2}


def test_weights_table_and_single_colouring(files, capsys):
    code, out, _ = run(["weights", files["c6"]], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["graph_weight"] == ["2", "1", "0", "1"]
    assert len(blob["table"]) == 2
    code, out, _ = run(["weights", "--colouring", "0,0,0,0,0,0", files["c6"]], capsys)
    blob = json.loads(out)
    assert blob == {
        "colouring": [0, 0, 0, 0, 0, 0],
        "weight": ["1", "1", "0", "1"],
        "feasible": True,
    }


def test_filter_emits_a_graph_document(files, capsys):
    code, out, _ = run(["filter", "--colouring", "0,0,0,0,0,0", files["c6"]], capsys)
    assert code == 0
    g = parse_document(out)
    assert len(g.edges) == 3  # the even-position cycle edges


def test_structural_commands(files, capsys):
    code, out, _ = run(["connectivity", files["c6"]], capsys)
    assert code == 0 and json.loads(out) == {"kappa": 2}
    code, out, _ = run(["cut", "--size", "2", files["c6"]], capsys)
    assert json.loads(out) == {"s": [0, 2], "v1": [1], "v2": [3, 4, 5], "parity": "odd"}
    code, out, _ = run(["cut", files["oct"]], capsys)
    assert json.loads(out) == "none"
    code, out, _ = run(["mcg", files["square"]], capsys)
    assert len(parse_document(out).edges) == 4
    code, out, _ = run(["merge", files["k4"]], capsys)
    assert parse_document(out) == complete_ghz_k4()
    code, out, _ = run(["drop-zeros", files["k4"]], capsys)
    assert parse_document(out) == complete_ghz_k4()


def test_reduce_then_verify_end_to_end(files, capsys, tmp_path):
    code, out, _ = run(["reduce", files["c6"]], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["case"] == "easy"
    assert report["kappa"] == 2 and report["mu_bound"] == 2
    assert report["classification"] == {"c1": [], "c2": [0, 1]}
    reduced_path = tmp_path / "reduced.json"
    reduced_path.write_text(json.dumps(report["graph"]))
    code, out, _ = run(["verify", str(reduced_path)], capsys)
    assert code == 0
    assert json.loads(out)["dimension"] == 2
    # the float rescaling that ships in the same report also verifies
    scaled = parse_document(json.dumps(report["scaled"]))
    assert verify(scaled).is_ghz


def test_reduce_irreducible_is_a_domain_error(files, capsys):
    code, out, err = run(["reduce", files["oct"]], capsys)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"]["type"] == "IrreducibleError"


def test_scale_command(files, capsys):
    code, out, _ = run(["scale", files["c6"]], capsys)
    assert code == 0
    scaled = parse_document(out)
    assert not scaled.is_exact
    assert verify(scaled).dimension == 2


def test_bogdanov_command(files, capsys):
    code, out, _ = run(["bogdanov", files["bog"]], capsys)
    assert code == 0
    blob = json.loads(out)
    assert len(set(blob["colouring"])) > 1
    code, _, err = run(["bogdanov", files["c6"]], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "BogdanovHypothesisError"


def test_search_command(files, capsys):
    code, out, _ = run(
        ["search", "--skeleton", files["k2skel"], "--dim", "2", "--restarts", "5"],
        capsys,
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["converged"] is True
    assert blob["residual"] < 1e-9
    assert blob["verdict"]["dimension"] == 2
    assert parse_document(json.dumps(blob["graph"])).n == 2


def test_search_rejects_a_negative_iteration_budget(files, capsys):
    code, out, err = run(
        ["search", "--skeleton", files["k2skel"], "--dim", "2", "--iters", "-5"],
        capsys,
    )
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"]["type"] == "ValueError"
    assert "max_iters" in blob["error"]["message"]


@pytest.mark.parametrize("option, value, name", [
    ("--seed", "-1", "seed"), ("--restarts", "0", "restarts"),
])
def test_search_rejects_a_negative_seed_or_no_restarts(files, capsys, option, value, name):
    code, out, err = run(
        ["search", "--skeleton", files["k2skel"], "--dim", "2", option, value],
        capsys,
    )
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"]["type"] == "ValueError"
    assert blob["error"]["message"].startswith(f"{name} must be at least")


def test_cut_rejects_a_negative_size(files, capsys):
    code, out, err = run(["cut", "--size", "-1", files["c6"]], capsys)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"]["type"] == "ValueError"
    assert blob["error"]["message"] == "cut size must be at least 0, got -1"


@pytest.mark.parametrize("tol", ["nan", "-0.001", "-1e-3"])
def test_search_rejects_a_tolerance_below_0_or_nan(files, capsys, tol):
    code, out, err = run(
        ["search", "--skeleton", files["k2skel"], "--dim", "2", "--tol", tol],
        capsys,
    )
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"]["type"] == "ValueError"
    assert "tol" in blob["error"]["message"]


def test_verify_rejects_a_negative_epsilon(files, capsys, tmp_path):
    ghz = tmp_path / "c6_scaled.json"
    ghz.write_text(serialize_graph(scale_to_ghz(cycle_ghz(6))))
    assert run(["verify", str(ghz)], capsys)[0] == 0
    code, out, err = run(["verify", "--epsilon", "-1", str(ghz)], capsys)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"]["type"] == "ValueError"
    assert "epsilon" in blob["error"]["message"]


@pytest.mark.parametrize("command", ["verify", "scale"])
def test_an_exponent_form_negative_epsilon_reaches_the_library(files, capsys, command):
    # argparse would read "-1e-3" as an option name and exit 2
    code, out, err = run([command, "--epsilon", "-1e-3", files["c6"]], capsys)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"]["type"] == "ValueError"
    assert "epsilon" in blob["error"]["message"]


def test_document_errors_surface_code_and_path(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "n": 2, "colour_universe": [0], "edges": [{"u": 0, "v": 1, "cu": 0, "cv": 0, "w": ["1", "0", "0", "1"]}]}')
    code, out, err = run(["verify", str(bad)], capsys)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"]["code"] == "ZERO_DENOMINATOR"
    assert blob["error"]["path"] == "$.edges[0].w[1]"


def test_missing_file_is_a_domain_error(capsys):
    code, out, err = run(["verify", "/definitely/not/here.json"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_usage_errors_exit_two(files, capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()


def test_every_option_is_read_by_its_handler():
    """An option that no handler reads changes nothing, so none may stay."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, command in commands.choices.items():
        source = inspect.getsource(command.get_default("func"))
        for action in command._actions:
            if action.dest != "help" and f"args.{action.dest}" not in source:
                unread.append((name, action.dest))
    assert len(commands.choices) == 13 and unread == []


def test_output_is_byte_deterministic(files, capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(["reduce", files["c6"]], capsys)
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        _, out, _ = run(["search", "--skeleton", files["k2skel"], "--dim", "2", "--restarts", "3"], capsys)
        outputs.append(out)
    assert outputs[2] == outputs[3]


def test_console_entry_point_runs(files, console_script):
    proc = subprocess.run(
        ["ghzgraphs", "dimension", files["k4"]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"dimension": 3}
    proc = subprocess.run(
        [sys.executable, "-m", "ghzgraphs", "verify", files["square"]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1


COLD_START = textwrap.dedent("""
    import contextlib, io, sys, types
    import ghzgraphs, ghzgraphs.cli
    c6, k2skel = sys.argv[1:]
    with contextlib.redirect_stdout(io.StringIO()):
        assert ghzgraphs.cli.main(["verify", c6]) == 0
        assert ghzgraphs.cli.main(["reduce", c6]) == 0
    assert "numpy" not in sys.modules
    with contextlib.redirect_stdout(io.StringIO()):
        assert ghzgraphs.cli.main(
            ["search", "--skeleton", k2skel, "--dim", "2", "--restarts", "3"]
        ) == 0
    assert "numpy" in sys.modules
    assert isinstance(ghzgraphs.search, types.FunctionType)
    module = sys.modules["ghzgraphs.search"]
    assert isinstance(module, types.ModuleType) and module.search is ghzgraphs.search
""")


def test_only_search_loads_numpy(files):
    proc = fresh_interpreter(COLD_START, files["c6"], files["k2skel"])
    assert proc.returncode == 0, proc.stderr


# the modules a command adds, counted from before `import ghzgraphs`: site may
# load some of them first (typing, through a .pth file)
LOADED_BY = textwrap.dedent("""
    import contextlib, io, json, sys
    before = set(sys.modules)
    import ghzgraphs.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = ghzgraphs.cli.main(sys.argv[1:])
    print(json.dumps({"code": code, "modules": sorted(set(sys.modules) - before)}))
""")

ON_FIRST_USE = {"ghzgraphs.structure", "ghzgraphs.reduction", "ghzgraphs.instances", "numpy"}

#: only `search` may load these, through numpy
SLOW_TO_IMPORT = {"dataclasses", "inspect", "typing"}


@pytest.mark.parametrize("command, loaded", [
    ("verify", set()),
    ("weights", set()),
    ("scale", set()),
    ("connectivity", {"ghzgraphs.structure"}),
    ("reduce", {"ghzgraphs.structure", "ghzgraphs.reduction"}),
    ("dimension", set()),
    ("filter", set()),
    ("mcg", {"ghzgraphs.structure"}),
    ("merge", set()),
    ("drop-zeros", set()),
    ("cut", {"ghzgraphs.structure"}),
    ("bogdanov", set()),
])
def test_each_command_loads_only_the_modules_it_needs(files, command, loaded):
    document = files["bog" if command == "bogdanov" else "c6"]  # c6 fails bogdanov's hypothesis
    extra = ["--colouring", "0,0,0,0,0,0"] if command == "filter" else []
    proc = fresh_interpreter(LOADED_BY, command, document, *extra)
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["code"] == 0
    added = set(blob["modules"])
    assert ON_FIRST_USE & added == loaded
    assert not SLOW_TO_IMPORT & added
