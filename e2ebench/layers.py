"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions of the ``repro`` layers for the
length of a traced pass and records one span per call (name, start, end,
the enclosing span, and tags read from the call).  Spans stay in memory;
:func:`layer_metrics` turns them into the per-layer metrics declared in
``BENCHMARK.json``.  The program's own code is not modified: wrappers are
installed on the classes and modules at the start of the measured window
and removed at its end.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: per-layer metric name -> unit (the ``per_layer`` list of BENCHMARK.json)
LAYER_UNITS = {
    "causal.fs_s": "s",
    "causal.ci_tests": "count",
    "causal.warm_hit_ratio": "ratio",
    "gan.train_s": "s",
    "gan.epochs_per_s": "1/s",
    "ml.fit_s": "s",
    "obs.drift_update_ms": "ms",
    "adapt.shadow_s": "s",
    "adapt.shadow_batches": "count",
    "core.save_artifact_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.live_row_ratio": "ratio",
    "serve.batch_requests": "count",
    "serve.gen_late_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "core.load_artifact_ms": "ms",
    "serve.compile_ms": "ms",
    "serve.http_ms": "ms",
    "trace.overhead_ms": "ms",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    tags: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class LayerTracer:
    """Installs timing wrappers around layer entry points (context manager)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: every admitted request by id of its validated row block, so an
        #: execution's segments can be traced back to their submit time
        self.pending_by_x: dict[int, object] = {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper recording ``name``.

        ``tag(args, result)`` may return a dict stored on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else None)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if tag is not None:
                span.tags = tag(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __enter__(self) -> "LayerTracer":
        import repro.adapt.lineage as lineage
        import repro.serve.runtime as runtime
        from repro.core.feature_separation import FeatureSeparator
        from repro.gan.cgan import ConditionalGAN
        from repro.ml.mlp import MLPClassifier
        from repro.obs.drift import FeatureDriftTracker
        from repro.serve.batcher import MicroBatcher, PaddedExecutor

        def fs_tags(args, sep):
            stats = sep.cache_stats_ or {}
            return {"ci_tests": int(sep.result_.n_tests),
                    "warm_hits": int(stats.get("warm_hits", 0)),
                    "warm_misses": int(stats.get("warm_misses", 0))}

        def submit_tags(args, pending):
            self.pending_by_x[id(pending.X)] = pending
            return {}

        def score_tags(args, _result):
            executor, segments = args[0], args[1]
            return {"capacity": executor.capacity,
                    "rows": sum(int(s.shape[0]) for s in segments),
                    "pending": [self.pending_by_x.get(id(s)) for s in segments]}

        self.wrap(FeatureSeparator, "fit", "causal.fs", fs_tags)
        self.wrap(ConditionalGAN, "fit", "gan.train",
                  lambda args, gan: {"epochs": int(gan.epochs)})
        self.wrap(MLPClassifier, "fit", "ml.fit")
        self.wrap(FeatureDriftTracker, "update", "obs.drift_update")
        self.wrap(lineage, "save_artifact", "core.save_artifact")
        self.wrap(runtime, "load_plan", "serve.load_plan")
        self.wrap(runtime, "load_artifact", "core.load_artifact")
        self.wrap(MicroBatcher, "submit", "serve.submit", submit_tags)
        self.wrap(PaddedExecutor, "score", "serve.exec", score_tags)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def request_split(self) -> dict:
        """(tenant, seq) -> (queue seconds, execution seconds) per request."""
        out = {}
        for span in self.named("serve.exec"):
            for pending in span.tags.get("pending", ()):
                if pending is not None:
                    out[(pending.tenant, pending.seq)] = (
                        span.start - pending.enqueued, span.seconds)
        return out


def _median(values, scale: float = 1.0) -> float:
    return float(np.median(values)) * scale if len(values) else 0.0


def layer_metrics(tracer: LayerTracer, extra: dict) -> dict:
    """Every per-layer metric; layers a workload does not reach read 0.

    ``extra`` supplies the values measured outside spans (shadow window,
    generator lateness, cache counters, HTTP share, tracing overhead).
    """
    fs = tracer.named("causal.fs")
    gan = tracer.named("gan.train")
    warm_hits = sum(s.tags["warm_hits"] for s in fs)
    warm_all = warm_hits + sum(s.tags["warm_misses"] for s in fs)
    gan_seconds = sum(s.seconds for s in gan)
    execs = tracer.named("serve.exec")
    capacity = sum(s.tags["capacity"] for s in execs)
    queue = [s.start - p.enqueued for s in execs
             for p in s.tags["pending"] if p is not None]
    loads = tracer.named("core.load_artifact")
    compiles = []
    for plan_span in tracer.named("serve.load_plan"):
        inner = sum(s.seconds for s in loads if s.parent is plan_span)
        compiles.append(plan_span.seconds - inner)
    values = {
        "causal.fs_s": _median([s.seconds for s in fs]),
        "causal.ci_tests": _median([s.tags["ci_tests"] for s in fs]),
        "causal.warm_hit_ratio": warm_hits / warm_all if warm_all else 0.0,
        "gan.train_s": _median([s.seconds for s in gan]),
        "gan.epochs_per_s": (sum(s.tags["epochs"] for s in gan) / gan_seconds
                             if gan_seconds else 0.0),
        "ml.fit_s": _median([s.seconds for s in tracer.named("ml.fit")]),
        "obs.drift_update_ms": _median(
            [s.seconds for s in tracer.named("obs.drift_update")], 1e3),
        "core.save_artifact_ms": _median(
            [s.seconds for s in tracer.named("core.save_artifact")], 1e3),
        "serve.queue_ms": _median(queue, 1e3),
        "serve.exec_ms": _median([s.seconds for s in execs], 1e3),
        "serve.live_row_ratio": (sum(s.tags["rows"] for s in execs) / capacity
                                 if capacity else 0.0),
        "serve.batch_requests": (float(np.mean([len(s.tags["pending"])
                                                for s in execs]))
                                 if execs else 0.0),
        "core.load_artifact_ms": _median([s.seconds for s in loads], 1e3),
        "serve.compile_ms": _median(compiles, 1e3),
    }
    for name in LAYER_UNITS:
        values.setdefault(name, float(extra.get(name, 0.0)))
    return values
