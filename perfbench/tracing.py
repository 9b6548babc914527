"""Span tracing from outside the package.

``Tracer.install`` replaces each layer's public entry points with timing
wrappers, in every ``xkg`` module that bound them (``from .rdf import
parse_turtle`` makes a second binding), and ``uninstall`` puts the originals
back. Spans (name, start, end, parent, operation id) stay in memory until
``write`` saves them. Helpers called once per triple, such as
``triple_sort_key`` or ``is_structural``, are left unwrapped: a wrapper there
would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# layer (module under ``xkg``) -> wrapped functions; "Class.method" for methods.
TARGETS = {
    "rdf": ("parse_turtle", "serialize_turtle", "merge"),
    "amr": ("parse_penman_file", "parse_penman"),
    "translate": ("translate", "align", "link_entities", "RolesetMap.from_json",
                  "AlignmentMap.from_json", "LinkTable.from_json"),
    "config": ("load_config", "default_config"),
    "enrichment": ("assemble_prompt", "extract_turtle", "run_heuristic", "run_all"),
    "validation": ("check_anchoring", "lint", "check_consistency", "infer_precedence",
                   "profile", "MiniOntology.from_turtle_file"),
    "backends": ("MappingBackend.complete", "HttpBackend.complete", "MockBackend.__init__"),
    "agreement": ("load_ratings", "build_report"),
    "cli": ("main", "cmd_run", "cmd_describe", "cmd_base", "cmd_enrich", "cmd_validate",
            "cmd_agree"),
}
LAYERS = tuple(TARGETS) + ("bench",)
BACKEND_CALLS = ("backends.MappingBackend.complete", "backends.HttpBackend.complete")


def _encoded_len(text: str) -> int:
    return len(text.encode("utf-8"))


# span name -> hook(counters, args, result), run after the span closes.
HOOKS = {
    "rdf.parse_turtle": lambda c, a, r: c.update({"rdf.parse_turtle.bytes": _encoded_len(a[0])}),
    "rdf.serialize_turtle": lambda c, a, r: c.update({"rdf.serialize_turtle.bytes": _encoded_len(r)}),
    "enrichment.assemble_prompt": lambda c, a, r: c.update(
        {"enrichment.prompt_bytes": _encoded_len(r.system_text) + _encoded_len(r.user_text)}),
    "enrichment.run_heuristic": lambda c, a, r: c.update(
        {"enrichment.results": 1, "enrichment.quarantined": int(r.failed)}),
    "validation.check_anchoring": lambda c, a, r: c.update({"validation.diagnostics": len(r)}),
    "validation.lint": lambda c, a, r: c.update({"validation.diagnostics": len(r)}),
    "validation.check_consistency": lambda c, a, r: c.update({"validation.diagnostics": len(r)}),
    "validation.infer_precedence": lambda c, a, r: c.update({"validation.diagnostics": len(r.diagnostics)}),
    "amr.parse_penman": lambda c, a, r: c.update({"amr.nodes": len(r.nodes)}),
    "agreement.load_ratings": lambda c, a, r: c.update({"agreement.rows": len(r.scores)}),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, end: float, parent, op):
        self.name, self.start, self.end, self.parent, self.op = name, start, end, parent, op

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._op = None
        self._op_stack: list = []
        self._restore: list = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        # A worker thread's first span belongs to whatever the operation's
        # own thread is blocked in (``run_all`` waiting on its pool).
        if stack:
            return stack[-1]
        return self._op_stack[-1] if self._op_stack else None

    def _traced(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:  # outside an operation, e.g. the output checks
                return fn(*args, **kwargs)
            stack = self._stack()
            span = Span(name, 0.0, 0.0, self._parent(stack), self._op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper

    @contextmanager
    def op(self, op_id, kind: str):
        """Root span of one timed operation, on the calling thread."""
        stack = self._stack()
        span = Span(f"bench.{kind}", 0.0, 0.0, None, op_id)
        self._op, self._op_stack = op_id, stack
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
            self._op = None

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "xkg" or name.startswith("xkg."))]
        for layer, names in TARGETS.items():
            module = sys.modules[f"xkg.{layer}"]
            for qualname in names:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    wrapped = self._traced(f"{layer}.{qualname}", fn)
                    if isinstance(raw, (staticmethod, classmethod)):
                        wrapped = type(raw)(wrapped)
                    setattr(cls, attr, wrapped)
                    self._restore.append((cls, attr, raw))
                    continue
                original = getattr(module, qualname)
                wrapped = self._traced(f"{layer}.{qualname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines; times in microseconds from the first span."""
        ids = {id(span): n for n, span in enumerate(self.spans)}
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for n, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": n, "name": span.name, "op": span.op,
                    "start_us": round((span.start - origin) * 1e6, 1),
                    "end_us": round((span.end - origin) * 1e6, 1),
                    "parent": None if span.parent is None else ids.get(id(span.parent)),
                }) + "\n")


# ---------------------------------------------------------------------------
# Derived numbers
# ---------------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict:
    """id(span) -> duration minus the part its children cover.

    Children on other threads may overlap each other; their union counts
    once, so a parent waiting on a pool is charged only for uncovered time.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return {id(s): (s.end - s.start) - covered(children.get(id(s), ()), s.start, s.end)
            for s in spans}


def outermost_ms(spans, names) -> tuple[float, int]:
    """Inclusive time and count of spans in ``names`` not nested in another."""
    total, count = 0.0, 0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and parent.name not in names:
            parent = parent.parent
        if parent is None:
            total += span.end - span.start
            count += 1
    return total * 1000.0, count


def max_in_flight(spans) -> int:
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans],
                    key=lambda e: (e[0], e[1]))
    level = peak = 0
    for _t, step in events:
        level += step
        peak = max(peak, level)
    return peak


def layer_self_times(spans) -> Counter:
    """Layer -> summed self time of its spans, in seconds."""
    selfs = self_times(spans)
    layer_self = Counter()
    for span in spans:
        layer_self[span.layer] += selfs[id(span)]
    return layer_self


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced run."""
    layer_self = layer_self_times(spans)
    total_self = sum(layer_self.values()) or 1.0

    def ms(*names):
        return outermost_ms(spans, set(names))

    out = {}
    parse_ms, parse_calls = ms("rdf.parse_turtle")
    ser_ms, ser_calls = ms("rdf.serialize_turtle")
    out["rdf.parse_turtle.ms"] = (parse_ms, "ms")
    out["rdf.parse_turtle.calls"] = (parse_calls, "count")
    out["rdf.parse_turtle.bytes_per_s"] = (
        counters["rdf.parse_turtle.bytes"] / (parse_ms / 1000.0) if parse_ms else 0.0, "B/s")
    out["rdf.serialize_turtle.ms"] = (ser_ms, "ms")
    out["rdf.serialize_turtle.calls"] = (ser_calls, "count")
    out["rdf.serialize_turtle.bytes"] = (counters["rdf.serialize_turtle.bytes"], "B")
    out["rdf.merge.ms"] = (ms("rdf.merge")[0], "ms")

    extract_ms, extracts = ms("enrichment.extract_turtle")
    parses_in_extract = sum(1 for s in spans if s.name == "rdf.parse_turtle"
                            and s.parent is not None and s.parent.name == "enrichment.extract_turtle")
    out["enrichment.assemble_prompt.ms"] = (ms("enrichment.assemble_prompt")[0], "ms")
    out["enrichment.prompt_bytes"] = (counters["enrichment.prompt_bytes"], "B")
    out["enrichment.extract_turtle.ms"] = (extract_ms, "ms")
    out["enrichment.extract_turtle.calls"] = (extracts, "count")
    out["enrichment.parse_attempts_per_response"] = (
        parses_in_extract / extracts if extracts else 0.0, "ratio")
    out["enrichment.results"] = (counters["enrichment.results"], "count")
    out["enrichment.quarantined_ratio"] = (
        counters["enrichment.quarantined"] / counters["enrichment.results"]
        if counters["enrichment.results"] else 0.0, "ratio")

    for name in ("check_anchoring", "lint", "check_consistency", "infer_precedence", "profile"):
        out[f"validation.{name}.ms"] = (ms(f"validation.{name}")[0], "ms")
    out["validation.diagnostics"] = (counters["validation.diagnostics"], "count")

    calls = [s for s in spans if s.name in BACKEND_CALLS]
    mock_calls = sum(1 for s in calls if s.name == "backends.MappingBackend.complete")
    wait_ms, _ = ms(*BACKEND_CALLS)
    roots = [s for s in spans if s.parent is None]
    by_op = defaultdict(list)
    for s in calls:
        by_op[s.op].append((s.start, s.end))
    waited = sum(covered(by_op.get(r.op, ()), r.start, r.end) for r in roots)
    out["backends.calls"] = (len(calls), "count")
    out["backends.attempts"] = (counters["backends.http_attempts"] + mock_calls, "count")
    out["backends.wait.ms"] = (wait_ms, "ms")
    out["backends.max_in_flight"] = (max_in_flight(calls), "count")
    out["backends.wait_share"] = (waited / (sum(r.end - r.start for r in roots) or 1.0), "ratio")

    amr_ms, _ = ms("amr.parse_penman_file", "amr.parse_penman")
    out["amr.parse.ms"] = (amr_ms, "ms")
    out["amr.nodes_per_s"] = (counters["amr.nodes"] / (amr_ms / 1000.0) if amr_ms else 0.0, "1/s")
    for name in ("translate", "align", "link_entities"):
        out[f"translate.{name}.ms"] = (ms(f"translate.{name}")[0], "ms")

    config_ms, loads = ms("config.load_config", "config.default_config")
    out["config.load.ms"] = (config_ms, "ms")
    out["config.loads"] = (loads, "count")
    out["cli.self.ms"] = (layer_self["cli"] * 1000.0, "ms")
    out["cli.bytes_written"] = (counters["cli.bytes_written"], "B")

    out["agreement.load_ratings.ms"] = (ms("agreement.load_ratings")[0], "ms")
    out["agreement.build_report.ms"] = (ms("agreement.build_report")[0], "ms")
    out["agreement.rows"] = (counters["agreement.rows"], "count")

    for layer in LAYERS:
        out[f"{layer}.self_share"] = (layer_self[layer] / total_self, "ratio")
    return out


def dominant_layer(spans) -> str:
    layer_self = layer_self_times(spans)
    return layer_self.most_common(1)[0][0] if layer_self else "none"
