"""Span tracing from outside the program, for the per-layer budget.

:class:`LayerTracer` wraps public functions of each ``repro`` layer in
place (class attributes and module globals), records one span per call
with its parent span on the same thread, and restores every original on
:meth:`LayerTracer.uninstall`.  The wrappers read clocks and append to a
list; they never touch an argument or a result, so the wrapped program
draws exactly the random numbers it draws untraced.

Spans stay in memory while the run goes and are written out once, when
the run ends (:meth:`LayerTracer.write`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["LayerTracer", "PER_LAYER_METRICS"]

#: every per-layer metric the traced run reports: name -> unit.
PER_LAYER_METRICS = {
    "core.constructor.compile.calls": "count",
    "core.constructor.compile.self_ms": "ms",
    "core.constructor.seed_states.ms": "ms",
    "core.constructor.polish.ms": "ms",
    "core.constructor.states_visited": "count",
    "core.constructor.iterations": "count",
    "perf.soa.run_chain.calls": "count",
    "perf.soa.run_chain.self_ms": "ms",
    "perf.soa.expand.calls": "count",
    "perf.soa.expand.ms": "ms",
    "perf.soa.expand.rows": "count",
    "perf.soa.polish.calls": "count",
    "perf.soa.polish.ms": "ms",
    "core.graph.expand.calls": "count",
    "core.graph.expand.ms": "ms",
    "core.policy.select.calls": "count",
    "core.policy.select.self_ms": "ms",
    "core.score.quick_latency_batch.calls": "count",
    "core.score.quick_latency_batch.ms": "ms",
    "perf.memo.hits": "count",
    "perf.memo.misses": "count",
    "perf.memo.lookups": "count",
    "perf.memo.hit_ratio": "ratio",
    "perf.memo.evaluate.ms": "ms",
    "perf.memo.latency_batch.calls": "count",
    "perf.memo.latency_batch.ms": "ms",
    "sim.costmodel.evaluate.calls": "count",
    "sim.costmodel.evaluate.ms": "ms",
    "sim.costmodel.evaluate_batch.calls": "count",
    "sim.costmodel.evaluate_batch.ms": "ms",
    "sim.measure.measure.calls": "count",
    "sim.measure.measure.ms": "ms",
    "models.program.plan_fusion.ms": "ms",
    "models.program.groups": "count",
    "models.program.fused_ops": "count",
}


class LayerTracer:
    """Records spans around public ``repro`` functions while installed."""

    def __init__(self) -> None:
        # (span id, parent id, root id, name, start, end, thread id)
        self.spans: list[tuple] = []
        #: counts gathered at the same boundaries (rows, visited states...).
        self.counts: dict[str, float] = defaultdict(float)
        self._counts_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- wrapping -------------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span (for the benchmark's own ops)."""
        return _Span(self, name)

    def count(self, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a count."""
        with self._counts_lock:
            self.counts[key] += amount

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with _Span(tracer, name) as span:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, result, span.t1 - span.t0)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "LayerTracer":
        """Wrap the layer boundaries the per-layer budget reports."""
        from repro.core import constructor, graph, policy, score
        from repro.models import program
        from repro.perf import memo, soa
        from repro.sim import costmodel, measure

        gensor = constructor.Gensor
        self.wrap(gensor, "compile", "core.constructor.compile", _on_compile)
        self.wrap(gensor, "seed_states", "core.constructor.seed_states")
        self.wrap(gensor, "polish", "core.constructor.polish")
        engine = soa.SoAWalkEngine
        self.wrap(engine, "run_chain", "perf.soa.run_chain")
        self.wrap(engine, "expand", "perf.soa.expand", _on_expand)
        self.wrap(engine, "polish", "perf.soa.polish")
        self.wrap(graph.ConstructionGraph, "expand", "core.graph.expand")
        self.wrap(policy.TransitionPolicy, "select", "core.policy.select")
        self.wrap(score, "quick_latency_batch", "core.score.quick_latency_batch")
        self.wrap(memo.MetricsMemo, "evaluate", "perf.memo.evaluate")
        self.wrap(memo.MetricsMemo, "latency_batch", "perf.memo.latency_batch")
        self.wrap(costmodel.CostModel, "evaluate", "sim.costmodel.evaluate")
        self.wrap(costmodel.CostModel, "evaluate_batch", "sim.costmodel.evaluate_batch")
        self.wrap(measure.Measurer, "measure", "sim.measure.measure")
        self.wrap(program, "plan_fusion", "models.program.plan_fusion", _on_plan)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls, inclusive and self milliseconds per wrapped function."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for sid, parent, _root, name, t0, t1, _tid in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            if parent:
                child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        for sid, _parent, _root, name, t0, t1, _tid in self.spans:
            self_s[name] += (t1 - t0) - child.get(sid, 0.0)
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = total[name] * 1e3
            out[f"{name}.self_ms"] = self_s[name] * 1e3
        out.update(self.counts)
        return out

    def write(self, path) -> int:
        """Write the spans as JSON lines (one span a line); returns count."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, root, name, t0, t1, tid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "root": root,
                            "name": name,
                            "start_us": round((t0 - self._t0) * 1e6, 1),
                            "dur_us": round((t1 - t0) * 1e6, 1),
                            "thread": tid,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return len(self.spans)


class _Span:
    def __init__(self, tracer: LayerTracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent, self.root = stack[-1] if stack else (0, self.sid)
        stack.append((self.sid, self.root))
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.t1 = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.root, self.name, self.t0, self.t1,
             threading.get_ident())
        )


def _on_compile(tracer, _args, result, _dur) -> None:
    tracer.count("core.constructor.states_visited", result.states_visited)
    tracer.count("core.constructor.iterations", result.iterations)


def _on_expand(tracer, _args, result, _dur) -> None:
    tracer.count("perf.soa.expand.rows", len(result))


def _on_plan(tracer, _args, result, _dur) -> None:
    tracer.count("models.program.groups", result.num_groups)
    tracer.count("models.program.fused_ops", result.num_fused_ops)
