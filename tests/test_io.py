"""JSON document parsing, serialization and the error-code contract."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ghzgraphs import (
    DocumentError,
    GaussianRational,
    build_graph,
    cancelling_square,
    complete_ghz_k4,
    document_to_graph,
    graph_to_document,
    parse_document,
    scale_to_ghz,
    serialize_graph,
)

from ghzgraphs.exact import _make
from ghzgraphs.io import weight_to_strings

from conftest import ghz_corpus, random_corpus, slow_weight_to_strings


def doc(**overrides):
    base = {
        "version": 1,
        "n": 2,
        "colour_universe": [0, 1],
        "edges": [{"u": 0, "v": 1, "cu": 0, "cv": 0, "w": ["1", "2", "0", "1"]}],
    }
    base.update(overrides)
    return base


def err(obj):
    with pytest.raises(DocumentError) as info:
        document_to_graph(obj)
    return info.value


def test_minimal_document_parses():
    g = document_to_graph(doc())
    assert g.n == 2
    assert g.colour_universe == frozenset({0, 1})
    (e,) = g.edges
    assert e.weight == GaussianRational("1/2")


def test_round_trip_on_exact_corpora():
    for name, g in ghz_corpus():
        assert parse_document(serialize_graph(g)) == g, name
    for g in random_corpus(30):
        assert parse_document(serialize_graph(g)) == g
    assert parse_document(serialize_graph(cancelling_square())) == cancelling_square()


def test_round_trip_on_float_graphs():
    scaled = scale_to_ghz(complete_ghz_k4())
    again = parse_document(serialize_graph(scaled))
    assert again == scaled  # repr round-trips every float exactly


def test_round_trip_huge_rationals():
    g = build_graph(2, [(0, 1, 0, 0, GaussianRational.from_parts(10**50 + 7, 3, -11, 10**40))])
    assert parse_document(serialize_graph(g)) == g


def test_serialization_is_deterministic():
    g = complete_ghz_k4()
    assert serialize_graph(g) == serialize_graph(g)
    blob = json.loads(serialize_graph(g))
    assert list(blob) == ["version", "n", "colour_universe", "edges"]
    assert blob["colour_universe"] == [0, 1, 2]


def test_exact_weights_serialize_as_four_strings():
    g = build_graph(2, [(0, 1, 0, 0, GaussianRational("-3/4", "1/6"))])
    entry = graph_to_document(g)["edges"][0]
    assert entry["w"] == ["-3", "4", "1", "6"]


def test_float_weights_serialize_as_two_strings():
    g = build_graph(2, [(0, 1, 0, 0, 0.1 - 0.25j)])
    entry = graph_to_document(g)["edges"][0]
    assert entry["w"] == ["0.1", "-0.25"]


def test_malformed_json():
    with pytest.raises(DocumentError) as info:
        parse_document("{not json")
    assert info.value.code == "MALFORMED_JSON"
    assert info.value.path == "$"


def test_error_codes_and_paths():
    cases = [
        (err([1, 2, 3]), "BAD_DOCUMENT", "$"),
        (err(doc(version=2)), "BAD_VERSION", "$.version"),
        (err(doc(n=-1)), "BAD_DOCUMENT", "$.n"),
        (err(doc(n=True)), "BAD_DOCUMENT", "$.n"),
        (err(doc(colour_universe="x")), "BAD_DOCUMENT", "$.colour_universe"),
        (err(doc(colour_universe=[0, 0])), "BAD_DOCUMENT", "$.colour_universe[1]"),
        (err(doc(colour_universe=[-2])), "NEGATIVE_COLOUR", "$.colour_universe[0]"),
        (err(doc(edges="x")), "BAD_DOCUMENT", "$.edges"),
        (err(doc(edges=[{"u": 0, "v": 0, "cu": 0, "cv": 0, "w": ["1", "1", "0", "1"]}])),
         "SELF_LOOP", "$.edges[0]"),
        (err(doc(edges=[{"u": 0, "v": 9, "cu": 0, "cv": 0, "w": ["1", "1", "0", "1"]}])),
         "ENDPOINT_OUT_OF_RANGE", "$.edges[0].v"),
        (err(doc(edges=[{"u": 0, "v": 1, "cu": 7, "cv": 0, "w": ["1", "1", "0", "1"]}])),
         "COLOUR_OUTSIDE_UNIVERSE", "$.edges[0].cu"),
        (err(doc(edges=[{"u": 0, "v": 1, "cu": 0, "cv": 0, "w": ["1", "0", "0", "1"]}])),
         "ZERO_DENOMINATOR", "$.edges[0].w[1]"),
        (err(doc(edges=[{"u": 0, "v": 1, "cu": 0, "cv": 0, "w": ["1", "1", "0", "0"]}])),
         "ZERO_DENOMINATOR", "$.edges[0].w[3]"),
        (err(doc(edges=[{"u": 0, "v": 1, "cu": 0, "cv": 0, "w": ["x", "1", "0", "1"]}])),
         "BAD_WEIGHT", "$.edges[0].w[0]"),
        (err(doc(edges=[{"u": 0, "v": 1, "cu": 0, "cv": 0, "w": "1"}])),
         "BAD_WEIGHT", "$.edges[0].w"),
        (err(doc(edges=[{"u": 0, "v": 1, "cu": 0, "cv": 0, "w": ["1", "1", "0"]}])),
         "BAD_WEIGHT", "$.edges[0].w"),
        (err(doc(edges=[{"u": 0, "v": 1, "cu": 0, "cv": 0, "w": ["zz", "1"]}])),
         "BAD_WEIGHT", "$.edges[0].w[0]"),
        (err(doc(edges=[{"u": "0", "v": 1, "cu": 0, "cv": 0, "w": ["1", "1", "0", "1"]}])),
         "BAD_DOCUMENT", "$.edges[0].u"),
    ]
    for value, code, path in cases:
        assert value.code == code, value
        assert value.path == path, value


@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_float_weights_are_refused(bad, slot):
    w = ["0.5", "0.0"]
    w[slot] = bad
    value = err(doc(edges=[{"u": 0, "v": 1, "cu": 0, "cv": 0, "w": w}]))
    assert value.code == "BAD_WEIGHT"
    assert value.path == f"$.edges[0].w[{slot}]"
    assert repr(bad) in str(value)


def test_mixing_weight_kinds_is_rejected():
    bad = doc(edges=[
        {"u": 0, "v": 1, "cu": 0, "cv": 0, "w": ["1", "1", "0", "1"]},
        {"u": 0, "v": 1, "cu": 1, "cv": 1, "w": ["0.5", "0.0"]},
    ])
    value = err(bad)
    assert value.code == "BAD_DOCUMENT"
    assert value.path == "$.edges[1].w"


def test_negative_edge_colour_code():
    value = err(doc(edges=[{"u": 0, "v": 1, "cu": -1, "cv": 0, "w": ["1", "1", "0", "1"]}]))
    assert value.code == "NEGATIVE_COLOUR"
    assert value.path == "$.edges[0].cu"


def test_document_error_carries_fields():
    e = DocumentError("BAD_WEIGHT", "$.edges[3].w", "whatever")
    assert e.code == "BAD_WEIGHT"
    assert e.path == "$.edges[3].w"
    assert "whatever" in str(e)


ints = st.one_of(st.integers(-50, 50), st.integers(-10**40, 10**40))


@given(ints, ints, st.one_of(st.integers(1, 60), st.integers(1, 10**40)))
@example(0, 0, 10**40)
@example(-12, 18, 6)
def test_weight_to_strings_matches_the_fraction_path(re, im, den):
    w = _make((re, im, den))  # often far from lowest terms
    assert weight_to_strings(w) == slow_weight_to_strings(w)
    z = complex(re, im) / den
    assert weight_to_strings(z) == slow_weight_to_strings(z)
