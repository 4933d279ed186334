"""The package's public names: every re-export stays reachable as
``ghzgraphs.<name>``, its module imported on first use."""

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
    exports = json.loads(sys.argv[1])
    on_first_use = {f"ghzgraphs.{module}" for module in exports}
    assert not on_first_use & set(sys.modules), sorted(on_first_use & set(sys.modules))
    assert next(ghzgraphs.structure.iter_cuts(ghzgraphs.cycle_ghz(6), 2)).s == (0, 2)
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


# each way the submodule `ghzgraphs.search` can be loaded first
SEARCH_LOADED_FIRST_BY = {
    "import-submodule": "import ghzgraphs.search",
    # binds m through the package attribute: m is the function too
    "import-submodule-as": "import ghzgraphs.search as m; import types; assert isinstance(m, types.FunctionType), m",
    # as bench/tracer.py loads each layer
    "import_module-after-the-package": (
        "import ghzgraphs, importlib; importlib.import_module('ghzgraphs.search')"
    ),
    "from-submodule-import-before-the-package": "from ghzgraphs.search import SearchProblem",
    "star-import": "from ghzgraphs import *",
}

SEARCH_STAYS_THE_FUNCTION = textwrap.dedent("""
    import sys, types
    exec(sys.argv[1], {})
    import ghzgraphs
    assert isinstance(ghzgraphs.search, types.FunctionType), ghzgraphs.search
    module = sys.modules["ghzgraphs.search"]
    assert isinstance(module, types.ModuleType), module
    assert module.search is ghzgraphs.search
""")


@pytest.mark.parametrize("first", SEARCH_LOADED_FIRST_BY.values(), ids=SEARCH_LOADED_FIRST_BY)
def test_search_is_the_function_after_importing_its_submodule_first(first):
    proc = fresh_interpreter(SEARCH_STAYS_THE_FUNCTION, first)
    assert proc.returncode == 0, proc.stderr


def test_the_package_lists_no_name_beyond_its_re_exports():
    assert sorted(ghzgraphs.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        ghzgraphs.frobnicate


# one name per submodule that ``import ghzgraphs`` used to load, and `reduce`
REBOUND = {
    "GhzGraphError": "errors",
    "GaussianRational": "exact",
    "build_graph": "graphs",
    "colouring_weight": "matchings",
    "verify": "ghz",
    "load_graph": "io",
    "reduce": "reduction",
}


@pytest.mark.parametrize("name", REBOUND)
def test_a_name_rebound_in_its_submodule_is_seen_through_the_package(monkeypatch, name):
    module = importlib.import_module(f"ghzgraphs.{REBOUND[name]}")
    original = getattr(ghzgraphs, name)
    stand_in = object()

    monkeypatch.setattr(module, name, stand_in)
    assert getattr(ghzgraphs, name) is stand_in
    monkeypatch.undo()
    assert getattr(ghzgraphs, name) is original is getattr(module, name)
    # nothing resolved through the package is kept on it
    assert name not in vars(ghzgraphs)


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


@pytest.mark.parametrize("module", ["ghzgraphs", "ghzgraphs.cli"] + [
    f"ghzgraphs.{name}" for name in EXPORTS
])
def test_every_annotation_resolves(module):
    source = importlib.import_module(module)
    checked = list(defined_in(source))
    assert checked
    for obj in checked:
        typing.get_type_hints(obj)
