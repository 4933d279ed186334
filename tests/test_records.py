"""The records' contract: repr, equality and hash, immutability, copy and pickle.

``Edge`` and ``Multigraph`` are slotted classes that are equal only to their
own kind; every other record is a ``namedtuple`` subclass.  Each repr is
pinned to the text the records printed as frozen dataclasses, which printed
cuts and the benchmark's digests read.
"""

import copy
import pickle

import numpy as np
import pytest

from ghzgraphs import (
    ColourClassification,
    CutSpec,
    Edge,
    Exactification,
    GaussianRational as GR,
    GhzVerdict,
    InducedSubgraph,
    Multigraph,
    ReductionReport,
    Residual,
    SearchResult,
    SquareDecomposition,
    TypeWeights,
    Violation,
)


def edge():
    return Edge(1, 0, 2, 3, GR(1, 2))


def graph():
    return Multigraph(2, [edge()], {3, 2})


def violation():
    return Violation((0, 1), GR(-1), "mono_not_one")


def verdict():
    return GhzVerdict(False, True, 1, (violation(),))


def residual():
    return Residual(0.25, {(0, 0): 0.25})


def cut():
    return CutSpec((3, 1, 5), [0], (4, 2))


def classification():
    return ColourClassification(frozenset({0}), frozenset({1}), True, {0: GR(1), 1: GR(0)})


EDGE = "Edge(u=0, v=1, cu=3, cv=2, weight=GaussianRational(1, 2))"
GRAPH = f"Multigraph(n=2, edges=({EDGE},), colour_universe=frozenset({{2, 3}}))"
VIOLATION = "Violation(colouring=(0, 1), weight=GaussianRational(-1, 0), kind='mono_not_one')"
VERDICT = f"GhzVerdict(is_ghz=False, is_g_ghz=True, dimension=1, violations=({VIOLATION},))"
RESIDUAL = "Residual(value=0.25, per_colouring={(0, 0): 0.25})"
CUT = "CutSpec(s=(1, 3, 5), v1=(0,), v2=(2, 4), parity='odd')"
CLASSIFICATION = (
    "ColourClassification(c1=frozenset({0}), c2=frozenset({1}), has_type0=True, "
    "v2_mono_weights={0: GaussianRational(1, 0), 1: GaussianRational(0, 0)})"
)

# (build one instance, its repr, whether its fields are hashable)
RECORDS = {
    "Edge": (edge, EDGE, True),
    "Multigraph": (graph, GRAPH, True),
    "InducedSubgraph": (
        lambda: InducedSubgraph(graph(), (4, 7)),
        f"InducedSubgraph(graph={GRAPH}, vertices=(4, 7))",
        True,
    ),
    "Violation": (violation, VIOLATION, True),
    "GhzVerdict": (verdict, VERDICT, True),
    "Residual": (residual, RESIDUAL, False),
    # one weight, so == of two equal arrays reads as a single bool
    "SearchResult": (
        lambda: SearchResult(np.array([0.5 - 1j]), residual(), False, 2, 30),
        f"SearchResult(weights=array([0.5-1.j]), residual={RESIDUAL}, converged=False, "
        "restart=2, iterations=30)",
        False,
    ),
    "Exactification": (
        lambda: Exactification(graph(), verdict(), "numeric", 1e-05),
        f"Exactification(graph={GRAPH}, verdict={VERDICT}, mode='numeric', epsilon=1e-05)",
        True,
    ),
    "CutSpec": (cut, CUT, True),
    "SquareDecomposition": (
        lambda: SquareDecomposition(GR(1), GR(2, 3), GR(0), GR(1, -1)),
        "SquareDecomposition(v_left=GaussianRational(1, 0), v_right=GaussianRational(2, 3), "
        "h_top=GaussianRational(0, 0), h_bottom=GaussianRational(1, -1))",
        True,
    ),
    "TypeWeights": (
        lambda: TypeWeights((GR(1), GR(0), GR(0), GR(2)), (GR(1), GR(1), GR(0), GR(0))),
        "TypeWeights(v1_side=(GaussianRational(1, 0), GaussianRational(0, 0), "
        "GaussianRational(0, 0), GaussianRational(2, 0)), v2_side=(GaussianRational(1, 0), "
        "GaussianRational(1, 0), GaussianRational(0, 0), GaussianRational(0, 0)))",
        True,
    ),
    "ColourClassification": (classification, CLASSIFICATION, False),
    "ReductionReport": (
        lambda: ReductionReport("hard", 3, verdict(), cut(), classification(), graph(), (0, 4), verdict()),
        f"ReductionReport(case='hard', kappa=3, input_verdict={VERDICT}, cut={CUT}, "
        f"classification={CLASSIFICATION}, graph={GRAPH}, vertex_map=(0, 4), "
        f"output_verdict={VERDICT}, mu_bound=None, scaled=None)",
        False,
    ),
}

NAMES = sorted(RECORDS)


@pytest.mark.parametrize("name", NAMES)
def test_repr_reads_as_it_did(name):
    make, text, _ = RECORDS[name]
    assert type(make()).__name__ == name
    assert repr(make()) == text


@pytest.mark.parametrize("name", NAMES)
def test_equal_records_compare_and_hash_equal(name):
    make, _, hashable = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:  # a dict or an array among the fields, as before
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", NAMES)
def test_records_refuse_assignment(name):
    record = RECORDS[name][0]()
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == RECORDS[name][1]


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
@pytest.mark.parametrize("name", NAMES)
def test_records_copy_and_pickle(name, round_trip):
    make, text, _ = RECORDS[name]
    twin = round_trip(make())
    assert type(twin).__name__ == name and twin == make() and repr(twin) == text


@pytest.mark.parametrize("make", [edge, graph])
def test_graph_records_are_not_tuples(make):
    record = make()
    fields = tuple(getattr(record, name) for name in type(record)._fields)
    assert record != fields and fields != record and not record == fields
    assert not isinstance(record, tuple)


def test_graph_records_differ_in_any_field_or_class():
    assert edge() != graph() and Edge(0, 1, 0, 0, 1) != Edge(0, 1, 0, 0, 2)
    assert graph() != Multigraph(2, [edge()], {1, 2, 3})


def test_graph_records_match_positionally():
    match graph():
        case Multigraph(n, (Edge(u, v, cu, cv, _),), _):
            assert (n, u, v, cu, cv) == (2, 0, 1, 3, 2)
        case _:
            pytest.fail("no match")

