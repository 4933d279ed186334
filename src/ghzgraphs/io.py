"""JSON graph documents.

Layout (version 1):

    {
      "version": 1,
      "n": 4,
      "colour_universe": [0, 1],
      "edges": [
        {"u": 0, "v": 1, "cu": 0, "cv": 0, "w": ["1", "2", "0", "1"]},
        ...
      ]
    }

Exact weights are four decimal strings [re_num, re_den, im_num, im_den] so
that arbitrary-precision rationals survive JSON unscathed; float graphs
(from scaling or search) use two strings [re, im] in shortest round-trip
decimal form instead.  Parsing rejects malformed documents with a stable
error code and the JSON path of the offending value.
"""

from __future__ import annotations

import json
import math

from .errors import DocumentError
from .exact import GaussianRational
from .graphs import Edge, Multigraph

VERSION = 1

_INT_FIELDS = ("u", "v", "cu", "cv")


def _fail(code: str, path: str, message: str):
    raise DocumentError(code, path, message)


def _parse_int_string(s, path: str) -> int:
    if not isinstance(s, str):
        _fail("BAD_WEIGHT", path, f"expected a decimal string, got {type(s).__name__}")
    try:
        return int(s, 10)
    except ValueError:
        _fail("BAD_WEIGHT", path, f"not a decimal integer: {s!r}")


def _parse_weight(w, path: str):
    if not isinstance(w, list) or len(w) not in (2, 4):
        _fail("BAD_WEIGHT", path, "weight must be a list of 4 (exact) or 2 (float) strings")
    if len(w) == 4:
        re_num = _parse_int_string(w[0], f"{path}[0]")
        re_den = _parse_int_string(w[1], f"{path}[1]")
        im_num = _parse_int_string(w[2], f"{path}[2]")
        im_den = _parse_int_string(w[3], f"{path}[3]")
        if re_den == 0:
            _fail("ZERO_DENOMINATOR", f"{path}[1]", "real denominator is zero")
        if im_den == 0:
            _fail("ZERO_DENOMINATOR", f"{path}[3]", "imaginary denominator is zero")
        return GaussianRational.from_parts(re_num, re_den, im_num, im_den)
    parts = []
    for k in (0, 1):
        if not isinstance(w[k], str):
            _fail("BAD_WEIGHT", f"{path}[{k}]", "expected a decimal string")
        try:
            part = float(w[k])
        except ValueError:
            _fail("BAD_WEIGHT", f"{path}[{k}]", f"not a decimal float: {w[k]!r}")
        if not math.isfinite(part):
            _fail("BAD_WEIGHT", f"{path}[{k}]", f"not a finite float: {w[k]!r}")
        parts.append(part)
    return complex(parts[0], parts[1])


def document_to_graph(obj) -> Multigraph:
    """Validate a parsed JSON object and build the multigraph it describes."""
    if not isinstance(obj, dict):
        _fail("BAD_DOCUMENT", "$", "document must be a JSON object")
    if obj.get("version") != VERSION:
        _fail("BAD_VERSION", "$.version", f"expected version {VERSION}")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        _fail("BAD_DOCUMENT", "$.n", "n must be a non-negative integer")
    universe_raw = obj.get("colour_universe")
    if not isinstance(universe_raw, list):
        _fail("BAD_DOCUMENT", "$.colour_universe", "colour_universe must be a list")
    universe = set()
    for k, c in enumerate(universe_raw):
        if not isinstance(c, int) or isinstance(c, bool):
            _fail("BAD_DOCUMENT", f"$.colour_universe[{k}]", "colours must be integers")
        if c < 0:
            _fail("NEGATIVE_COLOUR", f"$.colour_universe[{k}]", "colours must be non-negative")
        if c in universe:
            _fail("BAD_DOCUMENT", f"$.colour_universe[{k}]", f"duplicate colour {c}")
        universe.add(c)
    edges_raw = obj.get("edges")
    if not isinstance(edges_raw, list):
        _fail("BAD_DOCUMENT", "$.edges", "edges must be a list")

    edges = []
    kinds = set()
    for k, entry in enumerate(edges_raw):
        epath = f"$.edges[{k}]"
        if not isinstance(entry, dict):
            _fail("BAD_DOCUMENT", epath, "edge must be a JSON object")
        for field in _INT_FIELDS:
            value = entry.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                _fail("BAD_DOCUMENT", f"{epath}.{field}", f"{field} must be an integer")
        u, v, cu, cv = (entry[f] for f in _INT_FIELDS)
        if u == v:
            _fail("SELF_LOOP", epath, f"self-loop at vertex {u}")
        for field, value in (("u", u), ("v", v)):
            if not 0 <= value < n:
                _fail("ENDPOINT_OUT_OF_RANGE", f"{epath}.{field}", f"vertex {value} outside 0..{n - 1}")
        for field, value in (("cu", cu), ("cv", cv)):
            if value < 0:
                _fail("NEGATIVE_COLOUR", f"{epath}.{field}", "colours must be non-negative")
            if value not in universe:
                _fail(
                    "COLOUR_OUTSIDE_UNIVERSE",
                    f"{epath}.{field}",
                    f"colour {value} not in universe {sorted(universe)}",
                )
        weight = _parse_weight(entry.get("w"), f"{epath}.w")
        kinds.add(isinstance(weight, GaussianRational))
        if len(kinds) > 1:
            _fail("BAD_DOCUMENT", f"{epath}.w", "document mixes exact and float weights")
        edges.append(Edge(u, v, cu, cv, weight))
    return Multigraph(n, tuple(edges), frozenset(universe))


def parse_document(text: str) -> Multigraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("MALFORMED_JSON", "$", str(exc)) from exc
    return document_to_graph(obj)


def load_graph(path) -> Multigraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read())


def weight_to_strings(w) -> list[str]:
    """Serialize one weight: 4 strings exact, 2 strings float."""
    if isinstance(w, GaussianRational):
        re, im, den = w._v  # den > 0, so each gcd is positive
        g, h = math.gcd(re, den), math.gcd(im, den)
        return [str(re // g), str(den // g), str(im // h), str(den // h)]
    return [repr(w.real), repr(w.imag)]


def graph_to_document(g: Multigraph) -> dict:
    return {
        "version": VERSION,
        "n": g.n,
        "colour_universe": sorted(g.colour_universe),
        "edges": [
            {"u": e.u, "v": e.v, "cu": e.cu, "cv": e.cv, "w": weight_to_strings(e.weight)}
            for e in g.edges
        ],
    }


def serialize_graph(g: Multigraph) -> str:
    return json.dumps(graph_to_document(g), indent=2)
