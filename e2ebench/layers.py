"""Outside-in layer hooks, in-memory spans and the self-time ledger.

The benchmark never edits the program to time it.  :class:`LayerHooks`
wraps the public entry points listed in :data:`ENTRY_POINTS` -- in
every ``repro.*`` module that binds them, and on their class for
methods -- and :meth:`LayerHooks.disable` puts the original objects
back.  The shape follows an enable/disable analyzer: built detached,
attached only for traced sweeps, costing nothing otherwise.

Each call becomes a :class:`Span` (layer, start, end, parent, sweep id,
thread) kept in memory by a :class:`SpanRecorder`.  A span's self time
is its duration minus the time its children on the same thread cover;
:func:`sweep_ledger` divides one sweep's wall time among layers, and
:func:`chrome_trace` renders spans as Chrome trace-event JSON that
Perfetto loads.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass

#: Layer of the benchmark's own span around one sweep.  Its self time
#: is the part of the sweep no named layer accounts for.
SWEEP = "sweep"


class Span:
    """One timed call into a layer."""

    __slots__ = ("layer", "start", "end", "parent", "sweep", "thread",
                 "args", "child_s", "mark")

    def __init__(self, layer, start, parent, sweep, thread, mark):
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.sweep = sweep
        self.thread = thread
        self.args = None
        self.child_s = 0.0
        self.mark = mark

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus what same-thread children cover."""
        return self.duration - self.child_s

    def ancestor_layer(self, layers: tuple):
        """The nearest enclosing span's layer among ``layers``."""
        span = self.parent
        while span is not None:
            if span.layer in layers:
                return span.layer
            span = span.parent
        return None

    def ancestor_arg(self, key):
        """``key`` from the nearest enclosing span that carries it."""
        span = self.parent
        while span is not None:
            if span.args and key in span.args:
                return span.args[key]
            span = span.parent
        return None


#: ``TraceCache`` counters the ``engine.cache`` layer reports.
CACHE_COUNTERS = ("hits", "misses", "disk_hits", "disk_writes")


def _cache_counters(cache) -> tuple:
    return tuple(getattr(cache, name) for name in CACHE_COUNTERS)


class SpanRecorder:
    """Collects closed spans in memory; parents are per thread."""

    def __init__(self):
        self.spans = []
        self.sweep = None
        self._local = threading.local()
        self._caches = {}

    def note_cache(self, cache) -> None:
        """Remember a trace cache and its counters at first use."""
        self._caches.setdefault(id(cache), (cache, _cache_counters(cache)))

    def take_cache_counts(self) -> dict:
        """How far the counters of every cache noted since the last
        call moved.  Differencing whole caches, not single calls,
        keeps concurrent lookups from counting each other's outcome."""
        totals = dict.fromkeys(CACHE_COUNTERS, 0)
        for cache, first in self._caches.values():
            for name, now, then in zip(CACHE_COUNTERS,
                                       _cache_counters(cache), first):
                totals[name] += now - then
        self._caches = {}
        return totals

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> Span:
        stack = self._stack()
        span = Span(layer, time.perf_counter(),
                    stack[-1] if stack else None, self.sweep,
                    threading.get_ident(), len(self.spans))
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def closed_since(self, span: Span) -> list:
        """Spans closed after ``span`` opened (children included)."""
        return self.spans[span.mark:]


# ---------------------------------------------------------------------------
# The one attach/detach helper
# ---------------------------------------------------------------------------


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _resolve(target: str):
    """``"pkg.mod:Name.attr"`` -> (owner object, attribute name)."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _all_subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def patch(target: str, make_wrapper, subclasses: bool = False) -> list:
    """Replace one public entry point with ``make_wrapper(original)``.

    A module-level function is replaced in every loaded ``repro.*``
    module that binds the same object (``from x import f`` copies the
    binding).  A method is replaced on its class -- and with
    ``subclasses`` on every subclass that defines it -- keeping its
    ``staticmethod``/``classmethod`` kind.  Returns the undo list for
    :func:`unpatch`.
    """
    owner, attr = _resolve(target)
    undo = []
    if isinstance(owner, type):
        classes = [owner] + (_all_subclasses(owner) if subclasses else [])
        for cls in classes:
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(make_wrapper(raw.__func__))
            else:
                wrapped = make_wrapper(raw)
            setattr(cls, attr, wrapped)
            undo.append((cls, attr, raw))
        return undo
    original = getattr(owner, attr)
    wrapped = make_wrapper(original)
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)
                undo.append((module, name, original))
    return undo


def unpatch(undo: list) -> None:
    """Restore the objects :func:`patch` replaced (latest first)."""
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


# ---------------------------------------------------------------------------
# What each layer records beyond time
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rules_shape(rules) -> dict:
    return {"conv": rules.conv_type.name, "in": int(rules.num_inputs),
            "out": int(rules.num_outputs), "pairs": int(rules.total_pairs)}


def _wire_bytes(payload) -> int:
    """Frame size of one protocol message: 4-byte header plus the
    compact JSON body, which is how both peers encode it."""
    return 4 + len(json.dumps(payload, separators=(",", ":")))


@dataclass(frozen=True)
class EntryPoint:
    """One public function or method a layer is timed at."""

    layer: str
    target: str
    annotate: object = None
    before: object = None
    subclasses: bool = False


#: The public entry points of each layer, timed from outside.
ENTRY_POINTS = (
    EntryPoint("data.scene", "repro.data.synthetic:SceneGenerator.generate"),
    EntryPoint("data.voxelize", "repro.data.pillars:voxelize",
               lambda a, k, r: {"pillars": len(r.coords)}),
    EntryPoint("sparse.rulegen", "repro.sparse.rulegen:build_rules",
               lambda a, k, r: _rules_shape(r)),
    EntryPoint("sparse.rulegen", "repro.sparse.rulegen:build_rules_delta",
               lambda a, k, r: _rules_shape(r)),
    EntryPoint("analysis.trace", "repro.analysis.sparsity:trace_model",
               lambda a, k, r: {"model": r.spec.name}),
    EntryPoint("engine.cache", "repro.engine.cache:TraceCache.get_trace",
               before=lambda recorder, a, k: recorder.note_cache(a[0])),
    EntryPoint("engine.cache", "repro.engine.cache:TraceCache.stats"),
    EntryPoint("core.gsu", "repro.core.gsu:plan_tiles",
               lambda a, k, r: dict(_rules_shape(a[0]),
                                       tiles=r.num_tiles)),
    EntryPoint("core.dataflow", "repro.core.dataflow:schedule_sparse_layer",
               lambda a, k, r: dict(_rules_shape(a[0]),
                                       layer=_arg(a, k, 4, "name", ""))),
    EntryPoint("core.dataflow", "repro.core.dataflow:schedule_dense_layer",
               lambda a, k, r: {"conv": "DENSE", "in": int(a[0]),
                                   "layer": _arg(a, k, 7, "name", "")}),
    EntryPoint("core.accelerator",
               "repro.core.accelerator:SpadeAccelerator.run_trace",
               lambda a, k, r: {"model": a[1].spec.name}),
    EntryPoint("baselines.pointacc",
               "repro.baselines.pointacc:PointAccSimulator.run_trace",
               lambda a, k, r: {"model": a[1].spec.name}),
    EntryPoint("engine.simulators", "repro.engine.simulators:Simulator.run",
               lambda a, k, r: {"model": a[1].spec.name},
               subclasses=True),
    EntryPoint("engine.backends", "repro.engine.backends:execute_group"),
    EntryPoint("engine.result", "repro.engine.result:ExperimentTable.to_csv",
               lambda a, k, r: {"bytes": len(r)}),
    EntryPoint("engine.manifest",
               "repro.engine.manifest:RunManifest.collect"),
    EntryPoint("engine.manifest", "repro.engine.manifest:RunManifest.write"),
    EntryPoint("engine.dist", "repro.engine.dist.protocol:send_message",
               lambda a, k, r: {"msgs": 1, "bytes": _wire_bytes(a[1])}),
    EntryPoint("engine.dist", "repro.engine.dist.protocol:recv_message",
               lambda a, k, r: {"msgs": 1, "bytes": _wire_bytes(r)}),
    EntryPoint("engine.dist",
               "repro.engine.dist.coordinator:DistBackend.execute"),
    EntryPoint("engine.dist", "repro.engine.dist.coordinator:Coordinator.start",
               lambda a, k, r: {"event": "listening"}),
    EntryPoint("engine.dist", "repro.engine.dist.coordinator:Coordinator.serve",
               lambda a, k, r: {"event": "serve"}),
)

#: Every layer, in ledger order.
LAYERS = tuple(dict.fromkeys(entry.layer for entry in ENTRY_POINTS))


def _name_rulegen_layers(recorder: SpanRecorder, span: Span, trace) -> None:
    """Give each rulegen child of a ``trace_model`` span its network
    layer name: rules are built once per sparse layer, in layer order."""
    children = [child for child in recorder.closed_since(span)
                if child.parent is span and child.layer == "sparse.rulegen"]
    sparse = [layer for layer in trace.layers if layer.rules is not None]
    if len(children) == len(sparse):
        for child, layer in zip(children, sparse):
            child.args["layer"] = layer.spec.name


class LayerHooks:
    """Attach/detach timing hooks on every entry point (enable/disable).

    Args:
        recorder: Where spans go.
        enabled: Attach immediately.
    """

    def __init__(self, recorder: SpanRecorder, enabled: bool = False):
        self.recorder = recorder
        self._undo = []
        if enabled:
            self.enable()

    @property
    def enabled(self) -> bool:
        return bool(self._undo)

    def enable(self) -> None:
        """Wrap every entry point (idempotent)."""
        if self._undo:
            return
        for entry in ENTRY_POINTS:
            self._undo.extend(patch(entry.target, functools.partial(
                self._wrap, entry), subclasses=entry.subclasses))

    def disable(self) -> None:
        """Put every original object back (idempotent)."""
        unpatch(self._undo)
        self._undo = []

    def _wrap(self, entry: EntryPoint, function):
        recorder = self.recorder
        layer, annotate, before = entry.layer, entry.annotate, entry.before
        is_trace = layer == "analysis.trace"

        @functools.wraps(function)
        def timed(*args, **kwargs):
            if before is not None:
                before(recorder, args, kwargs)
            span = recorder.open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(span)
            if annotate is not None:
                span.args = annotate(args, kwargs, result)
                if is_trace:
                    _name_rulegen_layers(recorder, span, result)
            return result

        return timed


# ---------------------------------------------------------------------------
# Ledger and export
# ---------------------------------------------------------------------------

#: Per-layer counters summed from span args into the ledger.
COUNTS = {
    "data.voxelize": ("pillars",),
    "sparse.rulegen": ("pairs",),
    "core.gsu": ("tiles",),
    "engine.result": ("bytes",),
    "engine.dist": ("msgs", "bytes"),
}


def _is_wire(span: Span) -> bool:
    return bool(span.args) and "msgs" in span.args


def _self_intervals(span: Span, children: list):
    """The parts of ``span`` its same-thread children do not cover."""
    cursor = span.start
    for child in sorted(children, key=lambda child: child.start):
        if child.start > cursor:
            yield cursor, child.start
        cursor = max(cursor, child.end)
    if span.end > cursor:
        yield cursor, span.end


def sweep_ledger(spans: list, sweep) -> dict:
    """Calls, self seconds and counters per layer for one sweep.

    Self time divides the sweep's wall time among layers, so the
    shares add up to one.  On one thread it is a span's duration minus
    its children's.  Other threads (the coordinator's trace pool) run
    while the sweep thread blocks, so whenever one of them is inside a
    layer that instant goes to them, split evenly, and not to the
    blocked sweep thread.  Protocol calls on other threads (connection
    handlers, heartbeats) wait on a peer rather than work: they add
    calls and counters but no time.  Returns ``{"wall_s", "layers"}``.
    """
    mine = [span for span in spans if span.sweep == sweep]
    roots = [span for span in mine if span.layer == SWEEP]
    if not roots:
        return {"wall_s": 0.0, "layers": {}}
    root = roots[0]
    children = {}
    for span in mine:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    events = []
    for span in mine:
        on_main = span.thread == root.thread
        if not on_main and _is_wire(span):
            continue
        for begin, end in _self_intervals(span, children.get(id(span), ())):
            begin, end = max(begin, root.start), min(end, root.end)
            if end > begin:
                events.append((begin, 1, span.layer, on_main))
                events.append((end, -1, span.layer, on_main))
    events.sort(key=lambda event: (event[0], event[1]))
    active = {True: {}, False: {}}
    self_s = {}
    previous = None
    for moment, delta, layer, on_main in events:
        if previous is not None and moment > previous:
            running = active[False] or active[True]
            share = (moment - previous) / sum(running.values())
            for name, count in running.items():
                self_s[name] = self_s.get(name, 0.0) + share * count
        counts = active[on_main]
        counts[layer] = counts.get(layer, 0) + delta
        if not counts[layer]:
            del counts[layer]
        previous = moment
    layers = {}
    for span in mine:
        entry = layers.setdefault(span.layer, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        for key in COUNTS.get(span.layer, ()):
            if span.args and key in span.args:
                entry[key] = entry.get(key, 0) + span.args[key]
    for layer, seconds in self_s.items():
        layers[layer]["self_s"] = seconds
    return {"wall_s": root.duration, "layers": layers}


#: Layers whose calls a stage x network-layer row is split by.
CALLERS = ("core.accelerator", "baselines.pointacc", "engine.simulators",
           "analysis.trace")


def network_layer_rows(spans: list) -> list:
    """The stage x network-layer view: self time per (stage, model,
    layer, conv type) over the rulegen, GSU and dataflow spans."""
    table = {}
    for span in spans:
        if span.layer not in ("sparse.rulegen", "core.gsu", "core.dataflow"):
            continue
        args = span.args or {}
        model = args.get("model") or span.ancestor_arg("model")
        name = args.get("layer") or span.ancestor_arg("layer") or "?"
        via = span.ancestor_layer(CALLERS)
        key = (span.layer, via, model, name, args.get("conv"))
        row = table.setdefault(key, {
            "stage": span.layer, "via": via, "model": model, "layer": name,
            "conv": args.get("conv"), "calls": 0, "self_s": 0.0,
            "in": args.get("in"), "out": args.get("out"),
            "pairs": args.get("pairs"), "tiles": 0,
        })
        row["calls"] += 1
        row["self_s"] += span.self_s
        row["tiles"] += args.get("tiles", 0)
    return sorted(table.values(), key=lambda row: -row["self_s"])


def chrome_trace(spans: list, pid: int, process: str) -> list:
    """Spans as Chrome trace events (``ph: X``, microseconds)."""
    threads = {}
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": process}}]
    for span in spans:
        tid = threads.setdefault(span.thread, len(threads))
        args = dict(span.args or {})
        args["sweep"] = span.sweep
        events.append({
            "name": span.layer, "cat": span.layer.split(".")[0], "ph": "X",
            "ts": span.start * 1e6, "dur": span.duration * 1e6,
            "pid": pid, "tid": tid, "args": args,
        })
    return events
