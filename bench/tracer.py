"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions of each ``ghzgraphs`` layer
module and rebinds every name under which any ``ghzgraphs`` module holds
them, so nested calls across modules are attributed too; ``uninstall`` puts
the originals back.  Each call into a layer from outside it becomes a span
(layer, name, start, end, parent); a call from inside the same layer, such
as ``induced_colouring`` once per matching, is counted but gets no span, so
its time stays in its caller's self time.  ``GaussianRational`` arithmetic
gets counts and aggregate time only, with no span per operation; its time
is charged to the enclosing span as child time.  A span's self time is its duration minus the time covered by
its child spans and arithmetic.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graphs", "matchings", "ghz", "structure", "reduction", "search", "io", "cli")
EXACT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

# span record fields
LAYER, NAME, START, END, PARENT, CHILD = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()  # (layer, function) -> calls
        self.counts: Counter = Counter()  # derived counters and times
        self.exact_s = 0.0
        self._in_op = False
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, layer: str, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [layer, name, 0.0, 0.0, parent, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def close(self, rec: list) -> float:
        rec[END] = end = perf_counter()
        self.stack.pop()
        dur = end - rec[START]
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += dur
        return dur

    def parent_layer(self) -> str | None:
        """Layer of the innermost open span, before a new one is opened."""
        return self.spans[self.stack[-1]][LAYER] if self.stack else None

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, layer: str, name: str, fn, after):
        tracer = self

        def wrapper(*args, **kwargs):
            caller = tracer.parent_layer()
            tracer.calls[layer, name] += 1
            if caller == layer:
                if after is None:
                    return fn(*args, **kwargs)
                start = perf_counter()
                result = fn(*args, **kwargs)
                after(tracer, args, kwargs, result, perf_counter() - start, caller)
                return result
            rec = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.close(rec)
            if after is not None:
                after(tracer, args, kwargs, result, dur, caller)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, layer: str, name: str, fn):
        """A generator's work happens on each ``next``, so each is a span."""
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def traced():
                while True:
                    rec = tracer.open(layer, name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(rec)
                    tracer.counts[f"{layer}.{name}.yielded"] += 1
                    yield item

            tracer.calls[layer, name] += 1
            return traced()

        wrapper.__wrapped__ = fn
        return wrapper

    def _op_wrapper(self, fn):
        tracer = self

        def op(a, b):
            if tracer._in_op:
                return fn(a, b)
            tracer._in_op = True
            start = perf_counter()
            try:
                return fn(a, b)
            finally:
                dt = perf_counter() - start
                tracer._in_op = False
                tracer.exact_s += dt
                tracer.counts["exact.ops"] += 1
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][CHILD] += dt

        return op

    def install(self) -> None:
        """Wrap every layer's public functions and rebind their names."""
        import ghzgraphs

        for layer in LAYERS:
            importlib.import_module(f"ghzgraphs.{layer}")
        modules = [m for k, m in sys.modules.items() if k == "ghzgraphs" or k.startswith("ghzgraphs.")]
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"ghzgraphs.{layer}"]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):
                    replace[id(fn)] = self._generator_wrapper(layer, name, fn)
                else:
                    replace[id(fn)] = self._span_wrapper(layer, name, fn, AFTER.get(f"{layer}.{name}"))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, wrapper)
        problem = ghzgraphs.SearchProblem
        self._saved.append((problem, "__init__", problem.__init__))
        problem.__init__ = self._span_wrapper("search", "SearchProblem", problem.__init__, _after_build)
        gr = ghzgraphs.GaussianRational
        for name in EXACT_OPS:
            self._saved.append((gr, name, gr.__dict__[name]))
            setattr(gr, name, self._op_wrapper(gr.__dict__[name]))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        """Calls into the layer from outside it: its number of spans."""
        return sum(1 for rec in self.spans if rec[LAYER] == layer)

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer, exact arithmetic included."""
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec[LAYER]] += rec[END] - rec[START] - rec[CHILD]
        out["exact"] += self.exact_s
        return dict(out)



def dump(tracers, path) -> None:
    """Write the spans of each traced pass as [layer, name, start, end, parent]."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["layer", "name", "start", "end", "parent"],
                   "passes": [[rec[:5] for rec in t.spans] for t in tracers]}, handle)


# -- counters computed from a call's arguments and result ------------------


def _after_enumerate(tracer, args, kwargs, result, dur, caller):
    tracer.counts["matchings.matchings_enumerated"] += len(result)


def _after_verify(tracer, args, kwargs, result, dur, caller):
    exact = all(type(e.weight).__name__ == "GaussianRational" for e in args[0].edges)
    tracer.counts["ghz.verify_exact_s" if exact else "ghz.verify_float_s"] += dur


def _after_table(tracer, args, kwargs, result, dur, caller):
    tracer.counts["matchings.table_entries"] += len(result)
    if caller == "reduction":
        tracer.counts["reduction.weight_lookups"] += 1


def _after_weight(tracer, args, kwargs, result, dur, caller):
    if caller == "reduction":
        tracer.counts["reduction.weight_lookups"] += 1


def _after_search(tracer, args, kwargs, result, dur, caller):
    restarts = kwargs.get("restarts", args[2] if len(args) > 2 else 20)
    tracer.counts["search.restarts_used"] += result.restart + 1 if result.converged else restarts
    tracer.counts["search.cases"] += 1
    tracer.counts["search.converged"] += result.converged


def _after_exactify(tracer, args, kwargs, result, dur, caller):
    tracer.counts["search.exactify_s"] += dur


def _after_build(tracer, args, kwargs, result, dur, caller):
    tracer.counts["search.build_s"] += dur
    tracer.counts["search.monomials"] += len(args[0].monomials)


def _after_parse(tracer, args, kwargs, result, dur, caller):
    if caller != "io":
        tracer.counts["io.parse_s"] += dur


def _after_parse_text(tracer, args, kwargs, result, dur, caller):
    _after_parse(tracer, args, kwargs, result, dur, caller)
    tracer.counts["io.bytes"] += len(args[0].encode())


def _after_serialize(tracer, args, kwargs, result, dur, caller):
    if caller != "io":
        tracer.counts["io.serialize_s"] += dur
    if isinstance(result, str):
        tracer.counts["io.bytes"] += len(result.encode())


AFTER = {
    "matchings.enumerate_perfect_matchings": _after_enumerate,
    "matchings.colouring_weight_table": _after_table,
    "matchings.colouring_weight": _after_weight,
    "ghz.verify": _after_verify,
    "search.search": _after_search,
    "search.exactify": _after_exactify,
    "io.load_graph": _after_parse,
    "io.parse_document": _after_parse_text,
    "io.document_to_graph": _after_parse,
    "io.graph_to_document": _after_serialize,
    "io.serialize_graph": _after_serialize,
    "io.weight_to_strings": _after_serialize,
}
