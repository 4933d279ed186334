"""Exact combinatorics of edge-coloured weighted multigraphs.

The library studies graphs whose edges carry a colour on each half and a
complex weight: which vertex colourings are induced by perfect matchings,
with what total weight, whether the graph has the GHZ property (every
monochromatic colouring weighs 1, everything else 0), how to rescale and
reduce such graphs across small vertex cuts, and how to search numerically
for GHZ weight assignments on a fixed skeleton.

``structure``, ``reduction`` and ``instances`` load on first use, since a
command such as ``verify`` needs none of them and every CLI run is a new
process.  The module ``__getattr__`` below (PEP 562) resolves their names.
It reads the submodule's attribute on every lookup and stores nothing
here, so a name that a test or a tracer rebinds in its submodule, and
later puts back, is seen the same way through the package.  ``search``
stays eager: the package's ``search`` is the function, and when the import
system first loads the submodule ``ghzgraphs.search`` it binds the package
attribute ``search`` to that module; loaded lazily, it would replace the
function.  numpy, which only ``search`` uses, loads inside it on first use.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import (
    BogdanovHypothesisError,
    DocumentError,
    GhzGraphError,
    InvariantViolation,
    IrreducibleError,
    NotGhzError,
    UnscalableColourError,
    WrongCaseError,
)
from .exact import GaussianRational
from .graphs import (
    Colour,
    Edge,
    InducedSubgraph,
    Multigraph,
    VertexColouring,
    adjacency_sets,
    build_graph,
    drop_zero_edges,
    induced_subgraph,
    merge_parallel_edges,
    mono_colouring,
    skeleton,
)
from .matchings import (
    PerfectMatching,
    colouring_weight,
    colouring_weight_table,
    enumerate_perfect_matchings,
    filter_graph,
    graph_weight,
    induced_colouring,
    is_feasible,
    matching_weight,
)
from .ghz import (
    DEFAULT_EPSILON,
    GhzVerdict,
    Violation,
    dimension,
    find_bogdanov_witness,
    mono_weights,
    scale_to_ghz,
    verify,
)
from .search import (
    Exactification,
    Residual,
    SearchProblem,
    SearchResult,
    assignment_graph,
    exactify,
    gradient,
    residual,
    search,
)
from .io import (
    document_to_graph,
    graph_to_document,
    load_graph,
    parse_document,
    serialize_graph,
)

# re-exported name -> the submodule that defines it, imported on first use;
# each submodule's own name maps to itself
_LAZY = {
    **dict.fromkeys(
        (
            "structure",
            "CutSpec",
            "SquareDecomposition",
            "find_cut",
            "iter_cuts",
            "make_cut",
            "mcg",
            "square_decomposition_even",
            "square_decomposition_odd",
            "vertex_connectivity",
        ),
        "structure",
    ),
    **dict.fromkeys(
        (
            "reduction",
            "ColourClassification",
            "ReductionReport",
            "TypeWeights",
            "classify_colours",
            "reduce",
            "reduce_easy",
            "reduce_hard",
            "type_weights",
        ),
        "reduction",
    ),
    **dict.fromkeys(
        (
            "instances",
            "cancelling_square",
            "complete_ghz_k4",
            "cycle_ghz",
            "cycle_ghz_on",
            "octahedron",
            "parallel_ghz_k2",
        ),
        "instances",
    ),
}

__all__ = sorted(
    [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + [name for name, module in _LAZY.items() if name != module]
)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = _import_module(f"{__name__}.{module}")
    return submodule if name == module else getattr(submodule, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"
