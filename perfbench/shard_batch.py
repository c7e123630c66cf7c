"""shard-batch: the batch / IPC path of the sharded tier.

A ``ShardRouter`` with 2 shards x 1 forked worker, the default mode and
transport (fork + shared memory on Linux), an ``mscn-int8`` primary and
the default fallback chain; no cache.  One closed-loop client calls
``serve_batch`` with 64 distinct queries that never repeat.  Every
``SWAP_EVERY`` batches ``rolling_swap`` alternates the fleet between the
fitted model and a deep copy of it, with probe queries: writes beside the
reads.  The copy answers identically, so answers and q-errors stay
deterministic.

Outside the timed phase, a sample of batches is replayed through the same
model behind a ``mode="inline"`` router and must match bit for bit.
"""

from __future__ import annotations

import copy
import os
from pathlib import Path

import numpy as np

from harness import (
    SETUP_REPEATS,
    CheckFailed,
    Result,
    Timer,
    block_rate,
    census_table,
    gen_queries,
    label,
    make_scale,
    median,
    peak_rss_mb,
    percentile,
    qerror_summary,
    SpeedProbe,
    quiesce,
    training_queries,
    workload,
)
from tracing import (
    TimedAdmission,
    TimedSupervisor,
    Tracer,
    overhead_and_coverage,
    perf,
    self_times,
    timed_codec,
    timed_publish,
)

BATCH = 64
NUM_SHARDS = 2
SWAP_EVERY = 16
#: the first QERROR_BATCHES batches, always served, give the q-error metrics
QERROR_BATCHES = 64
#: every CHECK_EVERY-th batch is replayed through the inline router
CHECK_EVERY = 25
WARMUP_BATCHES = 40
#: batches between speed-probe ticks (about 20 ms)
TICK_EVERY = 3
#: batches generated at a time, with the clock paused
POOL_CHUNK = 64


def _setup(table, train_queries, scale, timer: Timer):
    from repro import registry

    train = workload(train_queries, label(table, train_queries, timer))
    primary = registry.make_estimator("mscn-int8", scale)
    timer.call("fit.mscn", primary.fit, table, train)
    router = timer.call(
        "fit.fallbacks", registry.make_shard_service, primary, table,
        scale=scale, workload=train, num_shards=NUM_SHARDS,
        workers_per_shard=1,
    )
    timer.call("shard.start", router.start)
    return router, primary, train


def _requests(queries):
    from repro.shard import ShardRequest

    return [
        [ShardRequest(query=q) for q in queries[i : i + BATCH]]
        for i in range(0, len(queries), BATCH)
    ]


class _Pool:
    """Never-repeating request batches from the paper's generator.

    Generating a query costs about as much as serving it, so batches are
    made ``POOL_CHUNK`` at a time with the clock paused, and a served
    batch is released unless the checks replay it.  The client's memory
    then does not grow with the number of batches the machine manages to
    serve.
    """

    def __init__(self, table, rng, batches: int) -> None:
        self._table, self._rng = table, rng
        self.batches: list = []
        self.extend(batches)

    def extend(self, batches: int) -> None:
        self.batches += _requests(gen_queries(self._table, batches * BATCH, self._rng))


def _loop(router, pool, first, seconds, swap_models, probe, speed, min_batches, tracer=None):
    num_rows = router.estimator.table.num_rows
    lat, ends, done, swaps, swap_ends, kept = [], [], [], [], [], {}
    invalid = failed_swaps = 0
    quiesce()
    start = perf()
    end = start + seconds
    paused = 0.0  # pool top-ups, kept out of the timed phase
    b = -1
    while True:
        b += 1
        if first + b == len(pool.batches):
            g0 = perf()
            pool.extend(POOL_CHUNK)
            pause = perf() - g0
            paused += pause
            end += pause
        requests = pool.batches[first + b]
        if tracer is not None:
            tracer.request = b
        t0 = perf()
        served = router.serve_batch(requests)
        t1 = perf()
        if tracer is not None:
            tracer.record("request", t0, t1)
        lat.append(t1 - t0)
        ends.append(t1)
        done.append(t1 - paused)
        values = np.fromiter((s.estimate for s in served), np.float64, len(served))
        shed = sum(s.tier.startswith("shed") for s in served)
        invalid += shed + int(
            len(values) - np.count_nonzero((values >= 0.0) & (values <= num_rows))
        )
        if b % TICK_EVERY == 0:
            speed.tick()
        if b < QERROR_BATCHES or b % CHECK_EVERY == 0:
            kept[first + b] = values
        else:
            pool.batches[first + b] = None
        if (b + 1) % SWAP_EVERY == 0:
            if tracer is not None:
                tracer.request = -1 - len(swaps)
            s0 = perf()
            report = router.rolling_swap(
                swap_models[len(swaps) % 2], probe_queries=probe
            )
            s1 = perf()
            swaps.append(s1 - s0)
            swap_ends.append(s1)
            failed_swaps += not report.promoted
        if t1 >= end and b + 1 >= min_batches:
            break
    return {
        "lat": lat, "ends": ends, "done": done, "start": start, "swaps": swaps,
        "swap_ends": swap_ends, "kept": kept, "invalid": invalid,
        "failed_swaps": failed_swaps,
    }


def _pin_to_current_cpu() -> None:
    """Keep the client and every worker it forks on the client's CPU.

    The client always waits on the one busy worker, so a second CPU adds
    no parallelism, only cross-CPU wake-ups whose cost swings with the
    host's load.
    """
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        os.sched_setaffinity(0, {int(fields[36])})  # field 39: last CPU
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # no /proc or no affinity control: run unpinned


def run(cfg) -> Result:
    _pin_to_current_cpu()
    scale = make_scale(cfg.scale)
    table = census_table(scale)
    rng = np.random.default_rng(cfg.seed)
    train_queries = training_queries(table, scale)
    res = Result()
    routers = []
    try:
        return _run(cfg, scale, table, rng, train_queries, res, routers)
    finally:
        for router in routers:
            router.drain()
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process that shared memory started.

    ``multiprocessing`` starts it on the first shared-memory segment and
    leaves it to exit after us; the benchmark must wait for every process
    it caused to end, and ``_stop`` is the only call that does.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run(cfg, scale, table, rng, train_queries, res, routers):
    setup_times, timers, probes = [], [], []
    router = primary = train = None
    probe_queries = train_queries[:256]
    for _ in range(SETUP_REPEATS):
        if router is not None:
            router.drain()
            routers.remove(router)
        quiesce()
        timer = Timer()
        t0 = perf()
        router, primary, train = _setup(table, train_queries, scale, timer)
        setup_times.append(perf() - t0)
        routers.append(router)
        timers.append(timer)
        probes.append(primary.estimate_many(probe_queries).tobytes())
    if len(set(probes)) != 1:
        raise CheckFailed("repeated set-ups from one seed fitted different models")

    # --- untimed warm-up ----------------------------------------------
    quiesce()
    for requests in _requests(gen_queries(table, WARMUP_BATCHES * BATCH, rng)):
        router.serve_batch(requests)
    seconds = cfg.seconds / 2 if cfg.trace else cfg.seconds
    pool = _Pool(table, rng, QERROR_BATCHES + POOL_CHUNK)
    truth = label(table, [r.query for b in pool.batches[:QERROR_BATCHES] for r in b])
    probe = train_queries[:8]
    swap_models = [copy.deepcopy(primary), primary]

    speed = SpeedProbe()
    plain = _loop(router, pool, 0, seconds, swap_models, probe, speed, QERROR_BATCHES)

    # --- checks outside the timed phase -------------------------------
    estimates = np.concatenate([plain["kept"][b] for b in range(QERROR_BATCHES)])
    q50, q99, nq = qerror_summary(estimates, truth)
    from repro import registry

    inline = registry.make_shard_service(
        primary, table, scale=scale, workload=train, num_shards=NUM_SHARDS,
        workers_per_shard=1, mode="inline",
    )
    routers.append(inline)
    inline.start()
    replayed = {}
    for b, values in plain["kept"].items():
        replayed[b] = np.array([s.estimate for s in inline.serve_batch(pool.batches[b])])
        if replayed[b].tobytes() != values.tobytes():
            raise CheckFailed(f"batch {b}: fork answers differ from inline mode")
    again = np.concatenate([replayed[b] for b in range(QERROR_BATCHES)])
    if qerror_summary(again, truth) != (q50, q99, nq):
        raise CheckFailed("q-errors did not repeat")

    n = len(plain["lat"])
    res.attempted = n * BATCH + len(plain["swaps"])
    res.failed = plain["failed_swaps"]
    errors = plain["invalid"] + plain["failed_swaps"]
    res.put("setup_s", median(setup_times), "s", len(setup_times))
    # Every timing at reference speed, by the machine's speed around it.
    factors = speed.factors_at(plain["ends"])
    lat = np.asarray(plain["lat"]) * factors
    for q in (50, 90):
        speed.put(res, f"latency_p{q}_us", percentile(plain["lat"], q) * 1e6,
                  percentile(lat, q) * 1e6, "us", n)
    qps, blocks = block_rate(plain["done"], BATCH, plain["start"], factors)
    raw_qps = block_rate(plain["done"], BATCH, plain["start"])[0]
    speed.put(res, "throughput_qps", raw_qps, qps, "1/s", blocks)
    swaps = np.asarray(plain["swaps"]) * speed.factors_at(plain["swap_ends"])
    speed.put(res, "update_s", median(plain["swaps"]), median(swaps), "s", len(swaps))
    res.put("qerror_p50", q50, "ratio", nq)
    res.put("qerror_p99", q99, "ratio", nq)
    res.put("valid_answer_ratio", 1.0 - errors / res.attempted, "ratio", res.attempted)
    rss, workers = peak_rss_mb()
    res.put("peak_rss_mb", rss, "MiB", 1 + workers)
    # every shard serves the same models: count one shard's chain
    res.put("model_bytes", router.shards["shard-0"].fallback_service.model_size_bytes(), "bytes")
    speed.note(res)
    res.notes["error_rate"] = errors / res.attempted
    res.notes["inline_checked_batches"] = len(plain["kept"])

    if cfg.trace:
        untraced_p50 = percentile(lat, 50)
        res.layers = _traced(router, pool, len(plain["lat"]), seconds, swap_models,
                             probe, timers, untraced_p50)
    return res


def _traced(router, pool, first, seconds, swap_models, probe, timers, untraced_p50):
    tracer = Tracer()
    shards = list(router.shards.values())
    supervisors = [TimedSupervisor(s.supervisor, tracer) for s in shards]
    for shard, sup in zip(shards, supervisors):
        shard.supervisor = sup
        shard.admission = TimedAdmission(shard.admission, tracer)
    with timed_codec(tracer), timed_publish(router.arena, tracer):
        speed = SpeedProbe()
        traced = _loop(router, pool, first, seconds, swap_models, probe, speed, 1, tracer)
    for shard, sup in zip(shards, supervisors):
        shard.supervisor = sup._inner
        shard.admission = shard.admission._inner

    spans = {r: e for r, e in tracer.by_request().items() if r >= 0}
    parents = {"shard.codec.pack": "shard.dispatch", "shard.codec.unpack": "shard.dispatch"}
    layers, totals, violations = self_times(spans, "request", parents)
    dispatch_by_request: dict[int, float] = {}
    dispatches = []
    for sup in supervisors:
        for request, queries, secs in sup.batches:
            if request >= 0:
                dispatch_by_request[request] = dispatch_by_request.get(request, 0.0) + secs
                dispatches.append((queries, secs))
    parent_self = [
        traced["lat"][r] - dispatch_by_request.get(r, 0.0)
        for r in range(len(traced["lat"]))
    ]
    # The same sub-batches through the parent's copy of the model, off
    # the request path: the kernel share of a dispatch.
    kernel, ipc = [], []
    for queries, secs in dispatches[:: max(1, len(dispatches) // 400)]:
        t0 = perf()
        router.estimator.estimate_many(queries)
        k = perf() - t0
        kernel.append(k)
        ipc.append(secs - k)
    publish = [e - s for r, entries in tracer.by_request().items() if r < 0
               for name, s, e in entries if name == "shard.arena.publish"]
    stats = [sup.transport_stats for sup in supervisors]
    totals_ = router.totals()
    swap_stats = router.swap_stats()
    us = 1e6
    out = {
        "shard.parent_self_us_p50": (percentile(parent_self, 50) * us, "us"),
        "shard.admission.admit_us_p50": (percentile(layers["shard.admission.admit"], 50) * us, "us"),
        "shard.subbatch_mean": (float(np.mean([len(q) for q, _ in dispatches])), "count"),
        "shard.dispatch_us_p50": (percentile([s for _, s in dispatches], 50) * us, "us"),
        "shard.kernel_us_p50": (percentile(kernel, 50) * us, "us"),
        "shard.ipc_us_p50": (percentile(ipc, 50) * us, "us"),
        "shard.codec.pack_us_p50": (percentile(layers["shard.codec.pack"], 50) * us, "us"),
        "shard.codec.unpack_us_p50": (percentile(layers["shard.codec.unpack"], 50) * us, "us"),
        "shard.shm_batches": (sum(s["shm_batches"] for s in stats), "count"),
        "shard.pipe_batches": (sum(s["pipe_batches"] for s in stats), "count"),
        "shard.shm_overflows": (sum(s["shm_overflows"] for s in stats), "count"),
        "shard.redispatches": (totals_.redispatches, "count"),
        "shard.fallback_served": (totals_.fallback_served, "count"),
        "shard.shed": (totals_.shed, "count"),
        "shard.swap_ms_p50": (percentile(traced["swaps"], 50) * 1e3, "ms"),
        "shard.arena.publish_ms_p50": (percentile(publish, 50) * 1e3, "ms"),
        "shard.arena_swaps": (swap_stats["arena_swaps"], "count"),
        "shard.refork_swaps": (swap_stats["refork_swaps"], "count"),
        "shard.model_pickles": (swap_stats["model_pickles"], "count"),
        "shard.start_s": (median([t.seconds["shard.start"] for t in timers]), "s"),
        "estimators.mscn.fit_s": (median([t.seconds["fit.mscn"] for t in timers]), "s"),
        "estimators.mscn.model_bytes": (router.estimator.model_size_bytes(), "bytes"),
        "core.label_us_per_query": (median(
            [t.seconds["core.label"] / t.items["core.label"] for t in timers]) * us, "us"),
    }
    traced_p50 = percentile(np.asarray(traced["lat"]) * speed.factors_at(traced["ends"]), 50)
    overhead_and_coverage(out, untraced_p50, traced_p50, layers, totals, violations)
    return out
