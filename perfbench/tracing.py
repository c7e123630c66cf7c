"""Spans recorded from outside the program, at each layer boundary.

The traced run hands each layer thin timing delegates in place of the
objects it would normally get: estimator tiers, the estimate cache and
the guard through the service; supervisors and admission controllers on
the router's shards; the codec functions the supervisor calls; and the
arena's ``publish``.  Every delegate appends ``(request, name, start,
end)`` to one :class:`Tracer`; the client sets ``tracer.request`` before
each call so the spans of one request share an id.  Spans stay in
memory and are reduced to per-layer figures when the run ends.

The untraced runs that produce the end-to-end metrics carry none of
this.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

perf = time.perf_counter

#: allowed gap between summed layer self times and request time
COVERAGE_TOLERANCE = 0.01


class Tracer:
    def __init__(self) -> None:
        self.request = 0
        self.spans: list[tuple[int, str, float, float]] = []

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((self.request, name, start, end))

    def by_request(self) -> dict[int, list[tuple[str, float, float]]]:
        grouped: dict[int, list] = defaultdict(list)
        for request, name, start, end in self.spans:
            grouped[request].append((name, start, end))
        return grouped


class _Delegate:
    """Forward everything to ``inner``; subclasses time chosen methods."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        if name == "_inner":  # not yet set while copy.deepcopy rebuilds us
            raise AttributeError(name)
        return getattr(self._inner, name)


class TimedEstimator(_Delegate):
    """An estimator tier; records ``<label>`` per call and raw outputs."""

    def __init__(self, inner, tracer, label: str):
        super().__init__(inner, tracer)
        self._label = label
        self.raw: list[float] = []

    def estimate(self, query):
        start = perf()
        value = self._inner.estimate(query)
        self._tracer.record(self._label, start, perf())
        self.raw.append(value)
        return value

    def estimate_many(self, queries):
        start = perf()
        values = self._inner.estimate_many(queries)
        self._tracer.record(self._label, start, perf())
        self.raw.extend(values)
        return values


class TimedCache(_Delegate):
    def __init__(self, inner, tracer):
        super().__init__(inner, tracer)
        self.gets = 0
        self.hits = 0

    def get(self, query):
        start = perf()
        value = self._inner.get(query)
        self._tracer.record("serve.cache.get", start, perf())
        self.gets += 1
        self.hits += value is not None
        return value

    def put(self, query, estimate):
        start = perf()
        self._inner.put(query, estimate)
        self._tracer.record("serve.cache.put", start, perf())


class TimedGuard(_Delegate):
    def __init__(self, inner, tracer):
        super().__init__(inner, tracer)
        self.ood_calls = 0
        self.ood_true = 0
        self.clamp_calls = 0
        self.clamped = 0

    def is_ood(self, query):
        start = perf()
        verdict = self._inner.is_ood(query)
        self._tracer.record("guard.ood", start, perf())
        self.ood_calls += 1
        self.ood_true += bool(verdict)
        return verdict

    def clamp(self, query, value):
        start = perf()
        out = self._inner.clamp(query, value)
        self._tracer.record("guard.clamp", start, perf())
        self.clamp_calls += 1
        self.clamped += out[1] is not None
        return out


class TimedAdmission(_Delegate):
    def admit(self, requests):
        start = perf()
        decision = self._inner.admit(requests)
        self._tracer.record("shard.admission.admit", start, perf())
        return decision


class TimedSupervisor(_Delegate):
    """Records each dispatch and keeps its sub-batch for the kernel re-run."""

    def __init__(self, inner, tracer):
        super().__init__(inner, tracer)
        self.batches: list[tuple[int, list, float]] = []

    def dispatch(self, queries, trace_ctx=None):
        start = perf()
        result = self._inner.dispatch(queries, trace_ctx)
        end = perf()
        self._tracer.record("shard.dispatch", start, end)
        self.batches.append((self._tracer.request, list(queries), end - start))
        return result


@contextmanager
def timed_codec(tracer: Tracer):
    """Time the codec calls the parent makes: pack queries, unpack results."""
    from repro.shard import supervisor as sup

    pack, unpack = sup.pack_queries, sup.unpack_results

    def timed_pack(*args, **kwargs):
        start = perf()
        out = pack(*args, **kwargs)
        tracer.record("shard.codec.pack", start, perf())
        return out

    def timed_unpack(*args, **kwargs):
        start = perf()
        out = unpack(*args, **kwargs)
        tracer.record("shard.codec.unpack", start, perf())
        return out

    sup.pack_queries, sup.unpack_results = timed_pack, timed_unpack
    try:
        yield
    finally:
        sup.pack_queries, sup.unpack_results = pack, unpack


@contextmanager
def timed_publish(arena, tracer: Tracer):
    """Time ``ModelArena.publish`` on one arena instance."""
    publish = arena.publish

    def timed(model):
        start = perf()
        out = publish(model)
        tracer.record("shard.arena.publish", start, perf())
        return out

    arena.publish = timed
    try:
        yield
    finally:
        del arena.publish


def self_times(spans, root: str, children: dict[str, str]):
    """Split each request into per-layer self times.

    ``spans`` maps request id to its ``(name, start, end)`` list; the
    request's ``root`` span is the client-measured call.  ``children``
    maps a span name to the span name it nests in (its parent).  A
    layer's self time is its span minus the spans nested directly in
    it.  Returns ``(per-layer lists of self seconds, root durations,
    violations)``; a violation is a span outside its request's root.
    """
    layers: dict[str, list[float]] = defaultdict(list)
    totals: list[float] = []
    violations = 0
    for entries in spans.values():
        roots = [e for e in entries if e[0] == root]
        if len(roots) != 1:
            continue
        _, r_start, r_end = roots[0]
        totals.append(r_end - r_start)
        own: dict[str, float] = defaultdict(float)
        nested: dict[str, float] = defaultdict(float)
        for name, start, end in entries:
            if name == root:
                own[root] += end - start
                continue
            if start < r_start or end > r_end:
                violations += 1
            own[name] += end - start
            nested[children.get(name, root)] += end - start
        for name, total in own.items():
            layers[name].append(total - nested.get(name, 0.0))
    return layers, totals, violations


def overhead_and_coverage(out, untraced_p50, traced_p50, layers, totals, violations) -> None:
    """Tracing overhead and the self-time partition check.

    The overhead is the traced half's median request time minus the
    untraced half's, both at reference speed.  The coverage ratio is the
    summed per-layer self time over the summed request time; the run
    fails if it is more than ``COVERAGE_TOLERANCE`` from 1 or if any span
    leaves its request.
    """
    import numpy as np

    out["trace.overhead_us_p50"] = ((traced_p50 - untraced_p50) * 1e6, "us")
    total = float(np.sum(totals))
    attributed = sum(float(np.sum(v)) for v in layers.values())
    coverage = attributed / total if total else 0.0
    out["trace.coverage_ratio"] = (coverage, "ratio")
    out["trace.span_violations"] = (violations, "count")
    if violations or abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        from harness import CheckFailed

        raise CheckFailed(
            f"layer self times do not partition the request time: coverage "
            f"{coverage:.4f}, {violations} spans outside their request"
        )
