"""Span tracer for the layer-by-layer benchmark figures.

The tracer lives outside the program: it replaces public functions and
methods of the ``repro`` layers with timing wrappers, records one span per
call and restores the originals afterwards.  A span is the tuple
``(name, start_ns, end_ns, parent, request_id, info)``; ``parent`` is the
index of the enclosing span (``-1`` at the root), ``request_id`` ties the
spans of one daemon request together and ``info`` carries the few
call details the layer figures need (cache tier, representation, batch
size, LP iterations).  Spans stay in memory and are written out once, at
the end of a run.

A layer is the span name up to its last dot (``serving.protocol`` for
``serving.protocol.decode_message``).  Its self time is the summed span
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import percentile

Span = Tuple[str, int, int, int, Any, Optional[Dict[str, Any]]]
Describe = Callable[[tuple, Any], Tuple[Any, Optional[Dict[str, Any]]]]

#: Every layer the benchmark reports a self-time share for.
LAYERS = (
    "serving.protocol",
    "serving.tenant_store",
    "engine.durability",
    "serving.cache",
    "serving.registry",
    "core.selector",
    "core.design",
    "lp",
    "engine.plan",
    "core.mechanism",
    "engine.executor",
    "engine.stream_io",
)


class Tracer:
    """Records spans around wrapped calls; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def _call_wrapper(self, name: str, fn: Callable, describe: Optional[Describe]):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                rid, info = describe(args, result) if describe else (None, None)
                spans[index] = (name, start, end, parent, rid, info)

        return wrapper

    def _iter_wrapper(self, name: str, fn: Callable):
        """Wrap a generator function: one span per item it produces."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))

            def steps():
                while True:
                    index = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(index)
                    exhausted = False
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        exhausted = True
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        info = {"exhausted": True} if exhausted else None
                        spans[index] = (name, start, end, parent, None, info)
                    yield item

            return steps()

        return wrapper

    def _wrapper(self, name: str, fn: Callable, describe: Optional[Describe], iterator: bool):
        if iterator:
            return self._iter_wrapper(name, fn)
        return self._call_wrapper(name, fn, describe)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def wrap_function(
        self,
        module: Any,
        attr: str,
        name: str,
        describe: Optional[Describe] = None,
        iterator: bool = False,
    ) -> None:
        """Replace ``module.attr`` in every loaded ``repro`` module bound to it.

        Modules that did ``from x import f`` hold their own reference, so
        each binding of the same function object is swapped.
        """
        original = getattr(module, attr)
        wrapper = self._wrapper(name, original, describe, iterator)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        describe: Optional[Describe] = None,
        iterator: bool = False,
    ) -> None:
        """Wrap ``cls.attr`` and every subclass override of it."""
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            original = klass.__dict__.get(attr)
            if original is None:
                continue
            setattr(klass, attr, self._wrapper(name, original, describe, iterator))
            self._restore.append((klass, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str, **extra: Any) -> None:
        """Write the spans (plus ``extra`` figures) as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def load_trace(path: str) -> Dict[str, Any]:
    """Read a :meth:`Tracer.dump` document back, spans as tuples."""
    with open(path) as handle:
        document = json.load(handle)
    document["spans"] = [
        None if span is None else tuple(span) for span in document["spans"]
    ]
    return document


# ---------------------------------------------------------------------- #
# The repro layer boundaries
# ---------------------------------------------------------------------- #
def _message_id(args, result):
    return (result.get("id") if isinstance(result, dict) else None), None


def _command_id(args, result):
    return getattr(result, "request_id", None), None


def _response_id(args, result):
    message = args[0] if args else None
    return (message.get("id") if isinstance(message, dict) else None), None


def _cache_tier(args, result):
    if result is None:
        return None, {"tier": "error"}
    return None, {"tier": result[0].metadata.get("design_cache", "unknown")}


def _lp_iterations(args, result):
    return None, {"iterations": int(getattr(result, "iterations", 0) or 0)}


def _plan_sample(args, result):
    plan, counts = args[0], args[1]
    return None, {"repr": plan.mechanism.representation, "size": len(counts)}


def _mechanism_sample(args, result):
    mechanism, counts = args[0], args[1]
    return None, {"repr": mechanism.representation, "size": len(counts)}


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    import repro  # noqa: F401 - loads every layer module first
    import repro.cli  # noqa: F401
    from repro.core import constraints, design, mechanism, selector
    from repro.engine import durability, executor, plan, stream_io
    from repro.lp import solver
    from repro.serving import cache, protocol, registry, tenant_store

    tracer.wrap_function(protocol, "decode_message", "serving.protocol.decode_message", _message_id)
    tracer.wrap_function(protocol, "parse_release", "serving.protocol.parse_release", _command_id)
    tracer.wrap_function(protocol, "encode_message", "serving.protocol.encode_message", _response_id)
    tracer.wrap_method(tenant_store.TenantStore, "stage_commit", "serving.tenant_store.stage_commit")
    tracer.wrap_method(durability.AccountantLedger, "charge", "engine.durability.charge")
    tracer.wrap_method(durability.AccountantLedger, "mark_done", "engine.durability.mark_done")
    tracer.wrap_function(durability, "datasync", "engine.durability.datasync")
    tracer.wrap_method(cache.DesignCache, "get_or_design", "serving.cache.get_or_design", _cache_tier)
    tracer.wrap_method(registry.PlanRegistry, "get", "serving.registry.get")
    tracer.wrap_method(registry.PlanRegistry, "put", "serving.registry.put")
    tracer.wrap_function(selector, "choose_mechanism", "core.selector.choose_mechanism")
    tracer.wrap_function(design, "design_mechanism", "core.design.design_mechanism")
    tracer.wrap_function(constraints, "build_mechanism_lp", "lp.build")
    tracer.wrap_function(solver, "solve", "lp.solve", _lp_iterations)
    tracer.wrap_method(plan.ReleasePlan, "prepare", "engine.plan.prepare")
    tracer.wrap_method(plan.ReleasePlan, "execute_with_uniforms", "engine.plan.execute_with_uniforms", _plan_sample)
    tracer.wrap_method(mechanism.Mechanism, "sample_batch", "core.mechanism.sample_batch", _mechanism_sample)
    tracer.wrap_method(mechanism.Mechanism, "max_alpha", "core.mechanism.max_alpha")
    tracer.wrap_method(executor.StreamExecutor, "stream_durable", "engine.executor.chunk", iterator=True)
    tracer.wrap_function(executor, "iter_count_chunks", "engine.stream_io.read", iterator=True)
    tracer.wrap_function(stream_io, "open_npy_counts", "engine.stream_io.open")
    tracer.wrap_method(stream_io.NpyCountWriter, "write", "engine.stream_io.write")
    tracer.wrap_method(stream_io.NpyCountWriter, "sync", "engine.stream_io.sync")


# ---------------------------------------------------------------------- #
# Summaries
# ---------------------------------------------------------------------- #
def _mean(values: List[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def summarize(spans: List[Span], window_ns: Optional[Tuple[int, int]] = None) -> Dict[str, float]:
    """Per-layer metrics from one traced window (see ``METRICS.md``).

    ``window_ns`` defaults to the first span start .. last span end.  A
    ``None`` entry is a span still open when the trace was taken; it is
    skipped, keeping the indices that ``parent`` refers to.
    """
    closed = [span for span in spans if span is not None]
    if window_ns is None:
        window_ns = (
            (min(s[1] for s in closed), max(s[2] for s in closed)) if closed else (0, 1)
        )
    wall = max(1, window_ns[1] - window_ns[0])
    child_ns = [0] * len(spans)
    for span in closed:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
    root_ns = 0
    by_name: Dict[str, List[Span]] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        duration = span[2] - span[1]
        layer = span[0].rsplit(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + duration - child_ns[index]
        if span[3] < 0:
            root_ns += duration
        by_name.setdefault(span[0], []).append(span)

    def durations(name: str, scale: float) -> List[float]:
        return [(s[2] - s[1]) / scale for s in by_name.get(name, [])]

    metrics: Dict[str, float] = {}
    parses = len(by_name.get("serving.protocol.parse_release", []))
    decode_ns = sum(durations("serving.protocol.decode_message", 1.0)) + sum(
        durations("serving.protocol.parse_release", 1.0)
    )
    metrics["serving.protocol.decode_us"] = decode_ns / 1e3 / parses if parses else 0.0
    metrics["serving.protocol.encode_us"] = _mean(durations("serving.protocol.encode_message", 1e3))
    metrics["engine.durability.charge_us"] = _mean(durations("engine.durability.charge", 1e3))
    fsyncs = durations("engine.durability.datasync", 1e6)
    metrics["engine.durability.fsync_p50_ms"] = percentile(fsyncs, 50)
    metrics["engine.durability.fsync_p99_ms"] = percentile(fsyncs, 99)
    metrics["serving.tenant_store.stage_commit_us"] = _mean(
        durations("serving.tenant_store.stage_commit", 1e3)
    )
    for tier, count, label in (
        ("memory", "memory_hits", "memory"),
        ("disk", "registry_hits", "registry"),
        ("solve", "misses", "miss"),
    ):
        calls = [
            (s[2] - s[1]) / 1e6
            for s in by_name.get("serving.cache.get_or_design", [])
            if s[5] and s[5].get("tier") == tier
        ]
        metrics[f"serving.cache.{count}"] = float(len(calls))
        metrics[f"serving.cache.{label}_get_or_design_ms"] = _mean(calls)
    metrics["serving.registry.get_ms"] = _mean(durations("serving.registry.get", 1e6))
    metrics["serving.registry.put_ms"] = _mean(durations("serving.registry.put", 1e6))
    metrics["lp.build_s"] = sum(durations("lp.build", 1e9))
    metrics["lp.solve_s"] = sum(durations("lp.solve", 1e9))
    metrics["lp.iterations"] = float(
        sum((s[5] or {}).get("iterations", 0) for s in by_name.get("lp.solve", []))
    )
    metrics["lp.solves"] = float(len(by_name.get("lp.solve", [])))
    metrics["engine.plan.prepare_ms"] = _mean(durations("engine.plan.prepare", 1e6))
    samplers = by_name.get("engine.plan.execute_with_uniforms", []) + by_name.get(
        "core.mechanism.sample_batch", []
    )
    for representation, label in (("closed-form", "closed_form"), ("sparse", "sparse")):
        calls = [s for s in samplers if s[5] and s[5].get("repr") == representation]
        total_ns = sum(s[2] - s[1] for s in calls)
        total_counts = sum(s[5]["size"] for s in calls)
        metrics[f"engine.plan.{label}.sample_us_per_call"] = (
            total_ns / 1e3 / len(calls) if calls else 0.0
        )
        metrics[f"engine.plan.{label}.sample_ns_per_count"] = (
            total_ns / total_counts if total_counts else 0.0
        )
    metrics["core.mechanism.max_alpha_ms"] = _mean(durations("core.mechanism.max_alpha", 1e6))
    chunks = [
        (s[2] - s[1]) / 1e6
        for s in by_name.get("engine.executor.chunk", [])
        if not (s[5] and s[5].get("exhausted"))
    ]
    metrics["engine.executor.chunks"] = float(len(chunks))
    metrics["engine.executor.chunk_ms"] = _mean(chunks)
    reads = [
        (s[2] - s[1]) / 1e6
        for s in by_name.get("engine.stream_io.read", [])
        if not (s[5] and s[5].get("exhausted"))
    ]
    metrics["engine.stream_io.read_ms"] = _mean(reads)
    metrics["engine.stream_io.write_ms"] = _mean(durations("engine.stream_io.write", 1e6))
    metrics["engine.stream_io.sync_ms"] = _mean(durations("engine.stream_io.sync", 1e6))
    for layer in LAYERS:
        metrics[f"self_share.{layer}"] = self_ns.get(layer, 0) / wall
    metrics["trace.uncovered_share"] = max(0.0, wall - root_ns) / wall
    return metrics
