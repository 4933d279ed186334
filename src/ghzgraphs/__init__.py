"""Exact combinatorics of edge-coloured weighted multigraphs.

The library studies graphs whose edges carry a colour on each half and a
complex weight: which vertex colourings are induced by perfect matchings,
with what total weight, whether the graph has the GHZ property (every
monochromatic colouring weighs 1, everything else 0), how to rescale and
reduce such graphs across small vertex cuts, and how to search numerically
for GHZ weight assignments on a fixed skeleton.

``import ghzgraphs`` loads no submodule: each one loads the first time one
of its names is used, since every CLI run is a new process and a command
such as ``verify`` needs only some of them.  The module ``__getattr__`` below
(PEP 562) resolves every re-exported name.  It reads the submodule's
attribute on every lookup and stores nothing here, so a name that a test or
a tracer rebinds in its submodule, and later puts back, is seen the same way
through the package; a copy kept here would keep a stand-in after its
submodule dropped it.  Once the submodule is loaded a lookup is one hit in
``sys.modules`` on a precomputed module name.  The package's
``search`` is the function, not the submodule of that name: when the import
system first loads ``ghzgraphs.search`` it binds the package attribute
``search`` to the module, so the package's module class, ``_Package``,
ignores that one binding.  So ``import ghzgraphs.search as m`` binds ``m``
to the function as well: CPython resolves ``import a.b as m`` through the
package attribute ``b``.  The module is reached as
``sys.modules["ghzgraphs.search"]``, and its names with
``from ghzgraphs.search import ...``.  numpy, which only ``search`` uses,
loads with that module.

For the same reason the package imports neither ``dataclasses`` (which
brings in ``inspect``) nor ``typing``.  ``Edge`` and ``Multigraph`` are
slotted classes with hand-written validating constructors; every other
record is an immutable ``collections.namedtuple`` subclass.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "errors": (
        "BogdanovHypothesisError", "ConnectivityBoundError", "DocumentError", "GhzGraphError",
        "InvariantViolation", "IrreducibleError", "NotGhzError", "UnscalableColourError",
        "WrongCaseError",
    ),
    "exact": ("GaussianRational",),
    "graphs": (
        "Colour", "Edge", "InducedSubgraph", "Multigraph", "VertexColouring", "adjacency_sets",
        "build_graph", "drop_zero_edges", "induced_subgraph", "merge_parallel_edges",
        "mono_colouring", "skeleton",
    ),
    "matchings": (
        "PerfectMatching", "colouring_weight", "colouring_weight_table",
        "enumerate_perfect_matchings", "filter_graph", "graph_weight", "induced_colouring",
        "is_feasible", "matching_weight",
    ),
    "ghz": (
        "DEFAULT_EPSILON", "GhzVerdict", "Violation", "dimension", "find_bogdanov_witness",
        "mono_weights", "scale_to_ghz", "verify",
    ),
    "io": (
        "document_to_graph", "graph_to_document", "load_graph", "parse_document",
        "serialize_graph",
    ),
    "structure": (
        "CutSpec", "SquareDecomposition", "find_cut", "iter_cuts", "make_cut", "mcg",
        "square_decomposition_even", "square_decomposition_odd", "vertex_connectivity",
    ),
    "reduction": (
        "ColourClassification", "ReductionReport", "TypeWeights", "classify_colours", "reduce",
        "reduce_easy", "reduce_hard", "type_weights",
    ),
    "instances": (
        "cancelling_square", "complete_ghz_k4", "cycle_ghz", "cycle_ghz_on", "octahedron",
        "parallel_ghz_k2",
    ),
    "search": (
        "Exactification", "Residual", "SearchProblem", "SearchResult", "assignment_graph",
        "exactify", "gradient", "residual", "search",
    ),
}

# re-exported name -> the full name of its submodule, imported on first use
_LAZY = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

# submodules loaded on first use; not `search`, whose name is the function's
_SUBMODULES = frozenset(_EXPORTS) - {"search"}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    # once the submodule is loaded, one dict hit on its precomputed name; the
    # attribute is read from it on every access and never stored here
    try:
        return getattr(_sys.modules[_LAZY[name]], name)
    except KeyError:
        pass
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY) | _SUBMODULES)


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # the import system binds each submodule on its parent; the package's
        # `search` is the function, which __getattr__ reads from the module
        if name == "search" and isinstance(value, _ModuleType):
            return
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"
