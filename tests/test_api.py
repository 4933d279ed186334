"""The package's public names: every re-export stays reachable as
``ghzgraphs.<name>``, whether its module is imported eagerly or on first use."""

import importlib
import json
import textwrap
import types
import typing

import pytest

import ghzgraphs

from conftest import fresh_interpreter

# submodule -> the names ``ghzgraphs`` re-exports from it
EXPORTS = {
    "errors": [
        "BogdanovHypothesisError", "DocumentError", "GhzGraphError", "InvariantViolation",
        "IrreducibleError", "NotGhzError", "UnscalableColourError", "WrongCaseError",
    ],
    "exact": ["GaussianRational"],
    "graphs": [
        "Colour", "Edge", "InducedSubgraph", "Multigraph", "VertexColouring", "adjacency_sets",
        "build_graph", "drop_zero_edges", "induced_subgraph", "merge_parallel_edges",
        "mono_colouring", "skeleton",
    ],
    "matchings": [
        "PerfectMatching", "colouring_weight", "colouring_weight_table",
        "enumerate_perfect_matchings", "filter_graph", "graph_weight", "induced_colouring",
        "is_feasible", "matching_weight",
    ],
    "ghz": [
        "DEFAULT_EPSILON", "GhzVerdict", "Violation", "dimension", "find_bogdanov_witness",
        "mono_weights", "scale_to_ghz", "verify",
    ],
    "structure": [
        "CutSpec", "SquareDecomposition", "find_cut", "iter_cuts", "make_cut", "mcg",
        "square_decomposition_even", "square_decomposition_odd", "vertex_connectivity",
    ],
    "reduction": [
        "ColourClassification", "ReductionReport", "TypeWeights", "classify_colours", "reduce",
        "reduce_easy", "reduce_hard", "type_weights",
    ],
    "search": [
        "Exactification", "Residual", "SearchProblem", "SearchResult", "assignment_graph",
        "exactify", "gradient", "residual", "search",
    ],
    "io": [
        "document_to_graph", "graph_to_document", "load_graph", "parse_document",
        "serialize_graph",
    ],
    "instances": [
        "cancelling_square", "complete_ghz_k4", "cycle_ghz", "cycle_ghz_on", "octahedron",
        "parallel_ghz_k2",
    ],
}

EVERY_NAME = textwrap.dedent("""
    import importlib, json, sys
    import ghzgraphs
    on_first_use = ["ghzgraphs.structure", "ghzgraphs.reduction", "ghzgraphs.instances"]
    assert not set(on_first_use) & set(sys.modules)
    assert next(ghzgraphs.structure.iter_cuts(ghzgraphs.cycle_ghz(6), 2)).s == (0, 2)
    exports = json.loads(sys.argv[1])
    listed, star = set(dir(ghzgraphs)), {}
    exec("from ghzgraphs import *", star)
    for module, names in exports.items():
        source = importlib.import_module(f"ghzgraphs.{module}")
        # the package's `search` is the function of that name, not the module
        assert module == "search" or getattr(ghzgraphs, module) is source, module
        for name in names:
            assert getattr(ghzgraphs, name) is getattr(source, name), name
            assert name in listed and name in ghzgraphs.__all__, name
            assert star[name] is getattr(source, name), name
            one = {}
            exec(f"from ghzgraphs import {name}", one)
            assert one[name] is getattr(source, name), name
""")


def test_every_re_exported_name_resolves_in_a_fresh_interpreter():
    proc = fresh_interpreter(EVERY_NAME, json.dumps(EXPORTS))
    assert proc.returncode == 0, proc.stderr


SEARCH_SUBMODULE_FIRST = textwrap.dedent("""
    import types
    import ghzgraphs.search
    import ghzgraphs
    assert isinstance(ghzgraphs.search, types.FunctionType), ghzgraphs.search
""")


def test_search_is_the_function_after_importing_its_submodule_first():
    proc = fresh_interpreter(SEARCH_SUBMODULE_FIRST)
    assert proc.returncode == 0, proc.stderr


def test_the_package_lists_no_name_beyond_its_re_exports():
    assert sorted(ghzgraphs.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        ghzgraphs.frobnicate


def test_a_name_rebound_in_its_submodule_is_seen_through_the_package(monkeypatch):
    original = ghzgraphs.reduce

    def stand_in(*args, **kwargs):
        return None

    monkeypatch.setattr(ghzgraphs.reduction, "reduce", stand_in)
    assert ghzgraphs.reduce is stand_in
    monkeypatch.undo()
    assert ghzgraphs.reduce is original is ghzgraphs.reduction.reduce


def defined_in(module):
    """Every function, class and method that ``module`` defines."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield obj
        elif isinstance(obj, type):
            yield obj
            for attr in vars(obj).values():
                func = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                if isinstance(func, types.FunctionType):
                    yield func


# `search` is left out: numpy loads inside its functions, so the module has no
# `np` to resolve its `np.ndarray` annotations against
@pytest.mark.parametrize("module", ["ghzgraphs", "ghzgraphs.cli"] + [
    f"ghzgraphs.{name}" for name in EXPORTS if name != "search"
])
def test_every_annotation_resolves(module):
    source = importlib.import_module(module)
    checked = list(defined_in(source))
    assert checked
    for obj in checked:
        typing.get_type_hints(obj)
