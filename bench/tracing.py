"""Per-layer tracing of pfta from outside the library.

pfta modules import each other's functions by name, so a span is
installed by replacing the name where the caller looks it up (for
example `pfta.measures.probability`, not `pfta.engine.probability`).
Layer boundaries get spans (name, start, end, parent, request); the hot
inner calls of the search get plain counters. Nothing is installed
outside `Tracer.installed()`, and timed runs never enter it.

A span's self time is its duration minus the durations of its direct
children; calls counted but not spanned stay in their caller's self time.
"""

from __future__ import annotations

import heapq
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

_MEASURES = ("minimal_cut_sets", "attach_posteriors", "system_unreliability",
             "unreliability_curve", "basic_event_posterior", "basic_event_posteriors",
             "curve_times", "parse_instance")

# (module, name looked up there, span name)
SPANS = [
    ("pfta.cli", "parse_model", "dsl.parse_model"),
    ("pfta.cli", "validate", "model.validate"),
    ("pfta.measures", "require_valid", "model.validate"),
    ("pfta.compile", "require_valid", "model.validate"),
    ("pfta.oracle", "require_valid", "model.validate"),
    ("pfta.cli", "compile_direct", "compile.compile_direct"),
    ("pfta.measures", "compile_direct", "compile.compile_direct"),
    ("pfta.cli", "compile_disjoint", "compile.compile_disjoint"),
    ("pfta.measures", "compile_disjoint", "compile.compile_disjoint"),
    ("pfta.cli", "serialize", "pha.serialize"),
    ("pfta.measures", "serialize", "pha.serialize"),
    ("pfta.measures", "probability", "engine.search"),
    ("pfta.measures", "minimal_explanations", "engine.search"),
    ("pfta.cli", "unfold", "oracle.unfold"),
    ("pfta.cli", "exact_probability", "oracle.exact_probability"),
    ("pfta.cli", "prime_implicants", "oracle.prime_implicants"),
] + [("pfta.cli", name, "measures") for name in _MEASURES]

COUNTED = [
    ("pfta.engine", "unify", "pha.unify.calls"),
    ("pfta.engine", "rename_clause", "pha.rename_clause.calls"),
]

# span names whose self time is the "front end": everything but search,
# measures bookkeeping and the oracle
FRONT_END = ("dsl.parse_model", "model.validate", "compile.compile_direct",
             "compile.compile_disjoint", "pha.serialize", "cli.main")


class _CountingHeapq:
    """Stands in for `pfta.engine.heapq`: counts states through the frontier."""

    def __init__(self, counts: Counter):
        self.counts = counts

    def heappush(self, heap, item):
        heapq.heappush(heap, item)
        self.counts["engine.states_pushed"] += 1
        if len(heap) > self.counts["engine.peak_frontier"]:
            self.counts["engine.peak_frontier"] = len(heap)

    def heappop(self, heap):
        item = heapq.heappop(heap)
        self.counts["engine.states_popped"] += 1
        if not item[2]:  # entry (-priority, seq, goals, ...): no goals left
            self.counts["engine.complete_popped"] += 1
        return item


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1
        self.missing: list[str] = []

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.request]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self.stack.pop()
            self._count_output(name, args, result)
            return result
        return traced

    def _count_output(self, name: str, args: tuple, result) -> None:
        if name.startswith("compile."):
            self.counts["compile.clauses_out"] += len(result.clauses)
        elif name == "pha.serialize":
            self.counts["pha.serialize.bytes"] += len(result)  # theory text is ASCII
        elif name in ("oracle.exact_probability", "oracle.prime_implicants"):
            self.counts["oracle.worlds"] += 2 ** len(args[0].basics)

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Swap every wrapper in; restore the originals on exit."""
        saved: list[tuple[object, str, object]] = []

        def swap(owner, attr: str, value) -> None:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for wrap, names in ((self.span, SPANS), (self._counted, COUNTED)):
                for module_name, attr, key in names:
                    module = importlib.import_module(module_name)
                    if hasattr(module, attr):
                        swap(module, attr, wrap(key, getattr(module, attr)))
                    else:
                        self.missing.append(f"{module_name}.{attr}")
            engine = importlib.import_module("pfta.engine")
            search = engine.ExplanationSearch
            swap(engine, "heapq", _CountingHeapq(self.counts))
            swap(search, "bounds", property(self.span("engine.bounds", search.bounds.fget)))
            original_next = search.__next__

            def counted_next(it):
                explanation = original_next(it)
                self.counts["engine.explanations"] += 1
                return explanation
            swap(search, "__next__", counted_next)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (zero if unseen)."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        children = [0.0] * len(self.spans)
        for (_, _, _, parent, _), dur in zip(self.spans, durations):
            if parent >= 0:
                children[parent] += dur
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, *_), dur, child in zip(self.spans, durations, children):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, (value, unit), over everything traced so far."""
        layers = self.layer_times()
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for name in ("dsl.parse_model", "model.validate", "compile.compile_direct",
                     "compile.compile_disjoint", "pha.serialize"):
            out[f"{name}.calls"] = (layers[name]["calls"], "count")
            out[f"{name}.self_s"] = (layers[name]["self_s"], "s")
        out["compile.clauses_out"] = (c["compile.clauses_out"], "count")
        out["pha.serialize.bytes"] = (c["pha.serialize.bytes"], "bytes")
        for name in ("pha.unify.calls", "pha.rename_clause.calls"):
            out[name] = (c[name], "count")

        search = layers["engine.search"]
        popped, complete = c["engine.states_popped"], c["engine.complete_popped"]
        explanations = c["engine.explanations"]
        measure_requests = len({span[4] for span in self.spans if span[0] == "measures"})
        out["engine.searches"] = (search["calls"], "count")
        out["engine.self_s"] = (search["self_s"], "s")
        for name in ("engine.explanations", "engine.states_pushed", "engine.states_popped",
                     "engine.peak_frontier"):
            out[name] = (c[name], "count")
        out["engine.useful_ratio"] = (explanations / popped if popped else 0.0, "ratio")
        # complete states popped but not emitted were duplicates
        out["engine.duplicate_ratio"] = (
            (complete - explanations) / complete if complete else 0.0, "ratio")
        out["engine.bounds.calls"] = (layers["engine.bounds"]["calls"], "count")
        out["engine.bounds.self_s"] = (layers["engine.bounds"]["self_s"], "s")

        out["measures.self_s"] = (layers["measures"]["self_s"], "s")
        out["measures.searches_per_request"] = (
            search["calls"] / measure_requests if measure_requests else 0.0, "ratio")

        out["oracle.unfold.self_s"] = (layers["oracle.unfold"]["self_s"], "s")
        exact = layers["oracle.exact_probability"]
        out["oracle.exact_probability.calls"] = (exact["calls"], "count")
        out["oracle.exact_probability.self_s"] = (exact["self_s"], "s")
        out["oracle.worlds"] = (c["oracle.worlds"], "count")
        out["oracle.prime_implicants.self_s"] = (
            layers["oracle.prime_implicants"]["self_s"], "s")

        out["cli.self_s"] = (layers["cli.main"]["self_s"], "s")
        out["cli.output_bytes"] = (c["cli.output_bytes"], "bytes")
        return out

    def shares(self) -> dict[str, float]:
        """Share of traced request time per layer group."""
        layers = self.layer_times()
        total = layers["cli.main"]["total_s"]
        if not total:
            return {}
        return {
            "engine (searches incl. bounds)": layers["engine.search"]["total_s"] / total,
            "front end (dsl+model+compile+pha.serialize+cli)":
                sum(layers[n]["self_s"] for n in FRONT_END) / total,
            "measures": layers["measures"]["self_s"] / total,
            "oracle": sum(layers[n]["self_s"] for n in
                          ("oracle.unfold", "oracle.exact_probability",
                           "oracle.prime_implicants")) / total,
        }
