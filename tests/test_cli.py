"""CLI contract: JSON on stdout, deterministic bytes, exit codes 0/1/2."""

import inspect
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ghzgraphs.reduction
from ghzgraphs import (
    DEFAULT_EPSILON,
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
from ghzgraphs.cli import COMMANDS, main, parse_args

from conftest import bogdanov_instance, fresh_interpreter, hard_family_member, slow_build_parser


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


@pytest.mark.parametrize("command", ["weights", "filter"])
def test_a_colouring_of_the_wrong_length_is_a_value_error(files, capsys, command):
    code, out, err = run([command, "--colouring", "0,0", files["c6"]], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": {"type": "ValueError", "message": "colouring has 2 entries for 6 vertices"}
    }


@pytest.mark.parametrize("command", ["weights", "filter"])
@pytest.mark.parametrize("entry", ["0_0", "+1", " 1", "\uff11"], ids=["underscore", "plus", "space", "fullwidth"])
def test_a_colouring_entry_is_ascii_digits_alone(files, capsys, command, entry):
    """A colour is written as a graph document writes one, so each entry
    that Python's int would read otherwise is refused."""
    text = ",".join([entry] + ["0"] * 5)
    code, out, err = run([command, "--colouring", text, files["c6"]], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {
        "type": "ValueError", "message": f"colouring must be comma-separated integers, got {text!r}"}}


@pytest.mark.parametrize("option, value", [
    ("--size", "0_3"), ("--dim", "\uff12"), ("--seed", "+1"), ("--restarts", " 1"), ("--iters", "1_0"),
], ids=["size", "dim", "seed", "restarts", "iters"])
def test_an_integer_option_is_ascii_digits_alone(files, capsys, option, value):
    if option == "--size":
        argv = ["cut", option, value, files["c6"]]
    else:  # argparse reads an option's last value; a one-step budget, were the value read
        argv = ["search", "--skeleton", files["k2skel"], "--dim", "2", "--restarts", "1", "--iters", "1",
                option, value]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(f"invalid int value: {value!r}\n")


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


def test_reduce_all_cuts_prints_the_librarys_report_with_or_without_checks(monkeypatch, capsys, tmp_path):
    g, _ = hard_family_member(0)
    path = tmp_path / "hard.json"
    path.write_text(serialize_graph(g))
    expected = ghzgraphs.reduction.reduce(g, all_cuts=True)
    real, calls = ghzgraphs.reduction.reduce, []

    def recording(h, all_cuts=False, check=True):
        calls.append((all_cuts, check))
        return real(h, all_cuts, check)

    monkeypatch.setattr(ghzgraphs.reduction, "reduce", recording)
    code, out, err = run(["reduce", "--all-cuts", str(path)], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    cut = expected.cut
    assert report["cut"] == {"s": list(cut.s), "v1": list(cut.v1), "v2": list(cut.v2), "parity": cut.parity}
    assert parse_document(json.dumps(report["graph"])) == expected.graph
    code, unchecked, err = run(["reduce", "--all-cuts", "--no-check", str(path)], capsys)
    assert code == 0 and err == "" and unchecked == out
    assert calls == [(True, True), (True, False)]


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


def matching_document(n, weight):
    """n vertices paired 0-1, 2-3, ... by edges of colour 0 with the given weight strings."""
    edges = [{"u": u, "v": u + 1, "cu": 0, "cv": 0, "w": weight} for u in range(0, n, 2)]
    return json.dumps({"version": 1, "n": n, "colour_universe": [0], "edges": edges})


@pytest.mark.parametrize("weight", [
    ["1" + "0" * 400, "1", "0", "1"],  # overflows a float
    ["1", "1" + "0" * 400, "0", "1"],  # non-zero, underflows to 0
])
def test_scale_refuses_a_weight_outside_the_float_range(tmp_path, capsys, weight):
    path = tmp_path / "g.json"
    path.write_text(matching_document(2, weight))
    code, out, err = run(["scale", str(path)], capsys)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"]["type"] == "ValueError"
    assert "monochromatic weight of colour 0" in blob["error"]["message"]


def test_a_recursion_too_deep_is_reported_as_json(tmp_path, capsys):
    """The weight kernel recurses once per matched pair: 1,100 levels here."""
    path = tmp_path / "g.json"
    path.write_text(matching_document(2200, ["1", "1", "0", "1"]))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "RecursionError"


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


def test_search_reports_the_connectivity_bound_as_json(files, capsys):
    """C6 has vertex connectivity 2, so no weighting of it is GHZ of
    dimension 3: the error carries the theorem's code and no document path."""
    code, out, err = run(["search", "--skeleton", files["c6"], "--dim", "3"], capsys)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert set(blob["error"]) == {"type", "message", "code"}
    assert blob["error"]["type"] == "ConnectivityBoundError"
    assert blob["error"]["code"] == "KRENN_GU_CONNECTIVITY_2"
    assert "dimension at most 2" in blob["error"]["message"]


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


def test_a_nan_weight_is_a_document_error(capsys, tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text('{"version": 1, "n": 2, "colour_universe": [0], "edges": [{"u": 0, "v": 1, "cu": 0, "cv": 0, "w": ["nan", "0"]}]}')
    code, out, err = run(["verify", str(bad)], capsys)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"]["code"] == "BAD_WEIGHT"
    assert blob["error"]["path"] == "$.edges[0].w[0]"


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
    """An option that no handler reads changes nothing, so none may stay.
    Every command's document, ``file``, is read by ``main``, which loads it."""
    main_source = inspect.getsource(main)
    unread = [] if "args.file" in main_source else [("main", "file")]
    for name, (handler, _, options) in COMMANDS.items():
        source = inspect.getsource(handler)
        for _, dest, *_ in options:
            reader = main_source if dest == "file" else source
            if f"args.{dest}" not in reader:
                unread.append((name, dest))
    assert len(COMMANDS) == 13 and unread == []


def test_search_defaults_are_the_librarys():
    """The CLI's search budget and tolerance are the library's defaults, so a
    change to either is made in both modules."""
    from ghzgraphs import search

    defaults = {dest: default for _, dest, _, default, _, _ in COMMANDS["search"][2]}
    parameters = inspect.signature(search).parameters
    for option, name in (("seed", "seed"), ("restarts", "restarts"), ("iters", "max_iters"), ("tol", "tol")):
        default = defaults[option]
        assert (type(default), default) == (type(parameters[name].default), parameters[name].default)


@pytest.mark.parametrize("command", ["verify", "dimension", "scale"])
def test_the_epsilon_default_is_the_librarys(command):
    """The CLI writes the default out, so that a command that never calls
    ``ghz`` does not load it to read the default."""
    epsilon = parse_args([command, "g.json"]).epsilon
    assert (type(epsilon), epsilon) == (type(DEFAULT_EPSILON), DEFAULT_EPSILON)


# argv the parser accepts: every command, the file before and after options,
# "=" values, unique prefixes, repeated options (the last counts), negative
# and exponent-form values, and "--"
ACCEPTED = [
    ["verify", "g.json"], ["verify", "--g-ghz", "g.json"], ["verify", "g.json", "--g-ghz"],
    ["verify", "--epsilon", "1e-6", "g.json"], ["verify", "g.json", "--epsilon=-1e-3"],
    ["verify", "--eps", "-1", "g.json"], ["verify", "--g", "--e", "-.5", "g.json", "--g-ghz"],
    ["verify", "--epsilon", "1", "g.json", "--epsilon", "2"], ["verify", "--epsilon", "nan", "g.json"],
    ["verify", "--epsilon", "1_0", "g.json"], ["verify", "--", "--g-ghz"], ["verify", "g.json", "--"],
    ["verify", "--g-ghz", "--", "-g.json"], ["verify", "-"], ["verify", "-1"], ["verify", "-x y"], ["verify", ""],
    ["verify", "--", "-h"], ["verify", "--", "--"], ["verify", "--g-ghz", "x", "--"], ["cut", "--size", "3", "--", "x"],
    ["dimension", "g.json"], ["dimension", "--epsilon=0", "g.json"], ["dimension", "g.json", "--epsilon", "-1E-3"],
    ["weights", "g.json"], ["weights", "--colouring", "0,1", "g.json"], ["weights", "g.json", "--col=-1,0"],
    ["weights", "--colouring", "", "g.json"], ["weights", "--colouring=a=b", "g.json"],
    ["weights", "--colouring", "0", "--colouring", "1,1", "g.json"],
    ["filter", "--colouring", "0,0", "g.json"], ["filter", "g.json", "--c", "-1"],
    ["mcg", "g.json"], ["merge", "--", "g.json"], ["drop-zeros", "g.json"], ["connectivity", "g.json"],
    ["bogdanov", "g.json"],
    ["cut", "g.json"], ["cut", "--size", "2", "g.json"], ["cut", "g.json", "--size=-1"], ["cut", "--s", "4", "g.json"],
    ["cut", "--size", "1", "--size", "5", "g.json"], ["cut", "--size", "007", "g.json"], ["cut", "--si=-0", "g.json"],
    ["reduce", "g.json"], ["reduce", "--all-cuts", "--no-check", "g.json"], ["reduce", "g.json", "--no", "--all"],
    ["reduce", "--a", "g.json", "--all-cuts"],
    ["scale", "--epsilon", "-1e-3", "g.json"], ["scale", "g.json"],
    ["search", "--skeleton", "k.json", "--dim", "2"],
    ["search", "--dim=3", "--skeleton=k.json", "--seed", "-1", "--restarts", "0", "--iters", "-5", "--tol", "-1e-3"],
    ["search", "--sk", "k.json", "--d", "2", "--r", "3", "--i", "1", "--t", "nan", "--se", "9"],
    ["search", "--skeleton", "a", "--skeleton", "b", "--dim", "1", "--dim", "2"],
    ["search", "--skeleton", "-1", "--dim", "-2"],
]

# argv the parser refuses with exit code 2
REFUSED = [
    [], ["--foo"],  # no command
    ["frobnicate"], ["frobnicate", "g.json"], ["Verify", "g.json"], ["ver", "g.json"], ["--", "verify", "g.json"],
    ["-1", "verify", "g.json"], ["-.5", "-h"],  # an unknown command
    ["verify"], ["cut", "--size", "2"], ["verify", "--"], ["verify", "--g-ghz"],  # a missing file
    ["verify", "a", "b"], ["reduce", "a", "--all-cuts", "b"], ["verify", "a", "--", "b"], ["verify", "--", "--", "a"],
    ["search", "x", "--skeleton", "k", "--dim", "2"], ["verify", "a", "b", "--", "c"],  # an extra file
    ["search", "--skeleton", "k", "--dim", "2", "--"], ["verify", "x", "--g-ghz", "--"], ["verify", "--", "x", "--"],
    ["cut", "x", "--size", "3", "--"], ["mcg", "--", "--", "--"], ["verify", "--g-ghz", "--"],  # a "--" not by the file
    ["verify", "--foo", "g.json"], ["verify", "-x", "g.json"], ["--foo", "verify", "g.json"],
    ["cut", "--sizes", "2", "g.json"], ["connectivity", "--epsilon", "1", "g.json"],
    ["verify", "g.json", "-1e-3x"],  # an unknown option
    ["search", "--s", "k", "--dim", "2"], ["search", "--skeleton", "k", "--dim", "2", "--s=1"],
    ["search", "--skeleton", "k", "--dim", "2", "-h", "--s", "1"], ["cut", "--=3", "g.json"],  # an ambiguous prefix
    ["cut", "g.json", "--size"], ["verify", "--epsilon", "--g-ghz", "g.json"], ["cut", "--size", "--", "3", "g.json"],
    ["verify", "--epsilon", "-inf", "g.json"], ["search", "--dim", "2", "--skeleton"],  # a missing value
    ["verify", "--g-ghz=x", "g.json"], ["reduce", "--no-check=", "g.json"], ["verify", "--help=x"],
    ["--help=1"],  # --flag=x
    ["cut", "--size", "0_3", "g.json"], ["cut", "--size", "x", "g.json"], ["cut", "--size", "-.5", "g.json"],
    ["cut", "--size", " 1", "g.json"], ["cut", "--size=", "g.json"],
    ["search", "--skeleton", "k", "--dim", "\uff12"], ["search", "--skeleton", "k", "--dim", "2", "--seed", "+1"],
    ["cut", "--size", "x", "-h"],  # a bad int, read before -h
    ["verify", "--epsilon", "abc", "g.json"], ["scale", "--epsilon=", "g.json"],
    ["search", "--skeleton", "k", "--dim", "2", "--tol", "1e"],  # a bad float
    ["filter", "g.json"], ["filter"], ["search", "--dim", "2"], ["search", "--skeleton", "k"], ["search"],
]

# argv that print help to stdout and exit 0
HELP = [
    ["-h"], ["--help"], ["--he"], ["--foo", "-h"], ["-h", "frobnicate"], ["-1e-3", "-h"], ["verify", "-h"],
    ["verify", "g.json", "--help"], ["search", "--h"], ["cut", "-h", "--size", "x"], ["filter", "--help"],
]


def parsed(parse, argv, capsys):
    """(exit code, attributes, (stdout, stderr)): code None for a parse that
    returns, attributes None for one that exits.  Each attribute is its type
    and repr, so a nan equals a nan and 1 differs from 1.0."""
    try:
        args = parse(argv)
    except SystemExit as exit:
        return exit.code, None, capsys.readouterr()
    return None, {k: (type(v), repr(v)) for k, v in vars(args).items()}, capsys.readouterr()


CORPUS = [(argv, None) for argv in ACCEPTED] + [(argv, 2) for argv in REFUSED] + [(argv, 0) for argv in HELP]


@pytest.mark.parametrize("argv, code", CORPUS, ids=lambda x: " ".join(x) or "(none)" if isinstance(x, list) else str(x))
def test_parse_args_is_the_argparse_parser(argv, code, capsys):
    """The same exit code, and on an accepted argv the same attributes, as
    the argparse parser the CLI used to build."""
    ours = parsed(parse_args, argv, capsys)
    assert ours[:2] == parsed(slow_build_parser().parse_args, argv, capsys)[:2]
    assert ours[0] == code
    out, err = ours[2]
    if code == 2:  # "usage: <prog> ..." and "<prog>: error: ...", prog "ghzgraphs[ <command>]"
        usage, message = err.splitlines()
        prog = message.partition(": error: ")[0]
        assert out == "" and usage.startswith(f"usage: {prog} ")
        assert prog == "ghzgraphs" or prog.removeprefix("ghzgraphs ") in COMMANDS
    elif code == 0:
        assert err == "" and out.startswith("usage: ghzgraphs ")
    else:
        assert out == err == ""


def in_common_form(argv):
    """Whether an accepted argv takes the common form: after the command,
    each token that starts with "-" is an option's full name, and its "="
    value, if any, does not start with "-"."""
    names = {option[0] for option in COMMANDS[argv[0]][2]}
    for token in argv[1:]:
        name, _, value = token.partition("=")
        if token.startswith("-") and (name not in names or value.startswith("-")):
            return False
    return True


def attributes(args):
    """Each attribute as its type's name and its repr, a function's name for
    its repr, so that two interpreters give the same."""
    return {k: [type(v).__name__, v.__name__ if callable(v) else repr(v)] for k, v in vars(args).items()}


#: the argv of the benchmark's cli jobs, written for a directory
BENCH_CLI_ARGV = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    sys.path.insert(0, sys.argv[1])
    import workloads
    print(json.dumps([job.make() for job in workloads.cli_jobs(1, Path(sys.argv[2]), None)]))
""")

#: run after the source of ``attributes``
PARSE_EACH = textwrap.dedent("""
    import json, sys
    from ghzgraphs.cli import parse_args
    parsed = [attributes(parse_args(argv)) for argv in json.loads(sys.argv[1])]
    print(json.dumps({"parsed": parsed, "loaded": sorted({"argparse", "gettext", "locale"} & set(sys.modules))}))
""")


def test_the_common_form_never_loads_argparse(tmp_path):
    """The benchmark's argv and every accepted argv in the common form parse
    to the reference parser's attributes without loading argparse.  The
    differential test cannot see a parser that hands these to argparse too,
    since argparse gives the same attributes."""
    root = Path(__file__).resolve().parent.parent
    proc = fresh_interpreter(BENCH_CLI_ARGV, str(root / "bench"), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(proc.stdout)
    assert bench and all(in_common_form(argv) for argv in bench)
    argvs = bench + [argv for argv in ACCEPTED if in_common_form(argv)]
    proc = fresh_interpreter(inspect.getsource(attributes) + PARSE_EACH, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["loaded"] == []
    assert blob["parsed"] == [attributes(slow_build_parser().parse_args(argv)) for argv in argvs]


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
    assert "fractions" not in sys.modules
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


SEARCH_A_MALFORMED_SKELETON = textwrap.dedent("""
    import sys
    import ghzgraphs.cli
    code = ghzgraphs.cli.main(["search", "--skeleton", sys.argv[1], "--dim", "2"])
    print("numpy" in sys.modules)
    sys.exit(code)
""")


def test_search_reports_a_malformed_skeleton_before_numpy_loads(files):
    bad = files["dir"] / "bad.json"
    bad.write_text("{not json")
    proc = fresh_interpreter(SEARCH_A_MALFORMED_SKELETON, str(bad))
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"]["code"] == "MALFORMED_JSON"
    assert proc.stdout == "False\n"


# the modules a command adds, counted from before `import ghzgraphs`
LOADED_BY = textwrap.dedent("""
    import contextlib, io, json, sys
    before = set(sys.modules)
    import ghzgraphs.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = ghzgraphs.cli.main(sys.argv[1:])
    print(json.dumps({"code": code, "modules": sorted(set(sys.modules) - before)}))
""")

ON_FIRST_USE = {
    "ghzgraphs.ghz", "ghzgraphs.structure", "ghzgraphs.reduction", "ghzgraphs.instances", "ghzgraphs.search", "numpy",
}

#: only `search` may load these, through numpy or `GaussianRational.from_float`
SLOW_TO_IMPORT = {"dataclasses", "inspect", "typing", "fractions", "decimal", "numbers"}

#: no command loads these: argparse and the modules its messages load
ARGPARSE = {"argparse", "gettext", "locale"}


LIBRARY_ALONE = textwrap.dedent("""
    import json, sys
    import ghzgraphs.cli, ghzgraphs.structure, ghzgraphs.reduction, ghzgraphs.instances
    print(json.dumps(sorted(sys.modules)))
""")


def test_importing_the_library_loads_no_slow_module_numpy_or_argparse():
    """Importing the CLI and the ``structure``, ``reduction`` and
    ``instances`` modules loads none of the slow stdlib modules, no numpy
    and no argparse."""
    proc = fresh_interpreter(LIBRARY_ALONE)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not SLOW_TO_IMPORT & loaded
    assert "numpy" not in loaded
    assert not ARGPARSE & loaded


CLI_ALONE = textwrap.dedent("""
    import json, sys
    import ghzgraphs.cli
    print(json.dumps(sorted(name for name in sys.modules if name.startswith("ghzgraphs."))))
""")


def test_importing_the_cli_loads_only_io_and_what_it_imports():
    """Library names reach the CLI through the package's lazy table; only
    ``weight_to_strings`` is imported, from ``io``."""
    proc = fresh_interpreter(CLI_ALONE)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) <= {
        "ghzgraphs.cli", "ghzgraphs.io", "ghzgraphs.errors", "ghzgraphs.exact", "ghzgraphs.graphs",
    }


@pytest.mark.parametrize("command, loaded", [
    ("verify", {"ghzgraphs.ghz"}),
    ("weights", set()),
    ("scale", {"ghzgraphs.ghz"}),
    ("connectivity", {"ghzgraphs.structure"}),
    ("reduce", {"ghzgraphs.ghz", "ghzgraphs.structure", "ghzgraphs.reduction"}),
    ("dimension", {"ghzgraphs.ghz"}),
    ("filter", set()),
    ("mcg", {"ghzgraphs.structure"}),
    ("merge", set()),
    ("drop-zeros", set()),
    ("cut", {"ghzgraphs.structure"}),
    ("bogdanov", {"ghzgraphs.ghz"}),
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
    assert not ARGPARSE & added


NUMPY_ALONE = "import json, sys, numpy; print(json.dumps(sorted(sys.modules)))"


def test_search_loads_numpy_but_not_numpy_random(files):
    """``search`` draws its restarts' starts without ``numpy.random``, and its
    ``exactify`` loads it neither.  numpy before 2.0 loads ``numpy.random``
    on ``import numpy``, so there the test has nothing to see."""
    proc = fresh_interpreter(NUMPY_ALONE)
    assert proc.returncode == 0, proc.stderr
    if "numpy.random" in json.loads(proc.stdout):
        pytest.skip("import numpy alone loads numpy.random")
    proc = fresh_interpreter(LOADED_BY, "search", "--skeleton", files["k4"], "--dim", "3")
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["code"] == 0
    added = set(blob["modules"])
    assert ON_FIRST_USE & added == {"ghzgraphs.ghz", "ghzgraphs.structure", "ghzgraphs.search", "numpy"}
    assert not {name for name in added if name == "numpy.random" or name.startswith("numpy.random.")}
    assert not ARGPARSE & added
