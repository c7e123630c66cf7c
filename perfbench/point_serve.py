"""point-serve: the optimizer's one-estimate-at-a-time traffic.

A guarded chain mscn -> sampling -> postgres -> heuristic with an
``EstimateGuard`` and an exact ``EstimateCache``, driven by one closed-loop
client calling ``EstimatorService.serve`` once per request.  About 3/4 of
the requests come from a hot set that fits the cache; the rest walk a
cold pool four times the cache capacity, so LRU eviction makes them miss
every time.  p50 therefore sits on the exact-hit path and p90 on the miss
path (guard OOD check + mscn kernel + guard clamp).  The shard tier is
not involved.

Every ``SWAP_EVERY`` requests the primary is hot-swapped
(``replace_primary``) between the fitted mscn and a deep copy of it, the
lifecycle's promotion path; ``update_s`` is the median swap time.  The
copy answers identically, so answers and q-errors stay deterministic.
"""

from __future__ import annotations

import copy

import numpy as np

from harness import (
    SETUP_REPEATS,
    CheckFailed,
    Result,
    Timer,
    census_table,
    count_invalid,
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
    block_rate,
    workload,
)
from tracing import (
    TimedCache,
    TimedEstimator,
    TimedGuard,
    Tracer,
    overhead_and_coverage,
    perf,
    self_times,
)

HOT = 256
COLD = 4096
CACHE_CAPACITY = 1024
HOT_SHARE = 0.75
SWAP_EVERY = 4096
#: requests between speed-probe ticks (about 20 ms)
TICK_EVERY = 200


def _setup(table, train_queries, scale, timer: Timer):
    from repro import registry
    from repro.guard import EstimateGuard
    from repro.serve import EstimateCache, EstimatorService

    train = workload(train_queries, label(table, train_queries, timer))
    tiers = registry.make_fallback_chain("mscn", scale=scale)
    for tier in tiers:
        timer.call(
            f"fit.{tier.name}", tier.fit, table,
            train if tier.requires_workload else None,
        )
    guard = EstimateGuard()
    timer.call("guard.fit", guard.fit, table, train)
    # No deadline: tier choice must not depend on wall-clock, so answers
    # (and q-errors) repeat exactly for a seed.
    service = EstimatorService(
        tiers, guard=guard, cache=EstimateCache(CACHE_CAPACITY), deadline_ms=None
    )
    return service, tiers


def _stream(rng, count: int, pool: list) -> list:
    hot = rng.random(count) < HOT_SHARE
    hot_idx = rng.integers(0, HOT, count)
    cold_idx = HOT + (np.cumsum(~hot) - 1) % COLD
    idx = np.where(hot, hot_idx, cold_idx)
    return [pool[i] for i in idx.tolist()]


def _serve_loop(service, stream, seconds, swap_models, probe, tracer=None):
    """Closed loop over ``stream`` for ``seconds``; returns raw records."""
    serve = service.serve
    lat: list[float] = []
    done: list[float] = []
    swaps: list[float] = []
    swap_ends: list[float] = []
    invalid = degraded = 0
    num_rows = service.table.num_rows
    quiesce()
    start = perf()
    end = start + seconds
    for i, query in enumerate(stream):
        if tracer is not None:
            tracer.request = i
        t0 = perf()
        served = serve(query)
        t1 = perf()
        if tracer is not None:
            tracer.record("request", t0, t1)
        lat.append(t1 - t0)
        done.append(t1)
        value = served.estimate
        if not 0.0 <= value <= num_rows:  # NaN fails too
            invalid += 1
        degraded += served.degraded
        if i % TICK_EVERY == 0:
            probe.tick()
        if (i + 1) % SWAP_EVERY == 0:
            model = swap_models[len(swaps) % 2]
            s0 = perf()
            service.replace_primary(model)
            s1 = perf()
            swaps.append(s1 - s0)
            swap_ends.append(s1)
        if t1 >= end:
            break
    else:
        raise CheckFailed("request stream exhausted before the timed phase ended")
    return {
        "lat": lat, "done": done, "start": start, "swaps": swaps,
        "swap_ends": swap_ends, "invalid": invalid, "degraded": degraded,
    }


def run(cfg) -> Result:
    scale = make_scale(cfg.scale)
    table = census_table(scale)
    rng = np.random.default_rng(cfg.seed)
    train_queries = training_queries(table, scale)
    pool = gen_queries(table, HOT + COLD, rng)
    res = Result()

    # --- set-up, repeated; each must give bit-identical models --------
    setup_times, timers, probes = [], [], []
    service = tiers = None
    for _ in range(SETUP_REPEATS):
        service = tiers = None
        quiesce()
        timer = Timer()
        t0 = perf()
        service, tiers = _setup(table, train_queries, scale, timer)
        setup_times.append(perf() - t0)
        timers.append(timer)
        probes.append(tiers[0].estimate_many(pool[:256]).tobytes())
    if len(set(probes)) != 1:
        raise CheckFailed("repeated set-ups from one seed fitted different models")

    # --- untimed warm-up: every distinct query once, in order ----------
    truth = label(table, pool)
    answers = np.array([service.serve(q).estimate for q in pool])
    q50, q99, nq = qerror_summary(answers, truth)
    stream = _stream(np.random.default_rng([cfg.seed, 1]), 4000, pool)
    for query in stream:
        service.serve(query)
    rate_probe = perf()
    for query in stream:
        service.serve(query)
    rate = len(stream) / (perf() - rate_probe)

    primary = tiers[0]
    swap_models = [copy.deepcopy(primary), primary]
    seconds = cfg.seconds / 2 if cfg.trace else cfg.seconds
    stream = _stream(
        np.random.default_rng([cfg.seed, 2]),
        int(rate * seconds * 2.5) + 10_000,
        pool,
    )
    probe = SpeedProbe()
    plain = _serve_loop(service, stream, seconds, swap_models, probe)

    # --- checks outside the timed phase -------------------------------
    again = np.array([service.serve(q).estimate for q in pool])
    if again.tobytes() != answers.tobytes():
        raise CheckFailed("point-serve answers changed between passes")
    if qerror_summary(again, truth) != (q50, q99, nq):
        raise CheckFailed("q-errors did not repeat")

    n = len(plain["lat"])
    invalid = plain["invalid"] + count_invalid(answers, table.num_rows)
    res.attempted = n + len(pool)
    res.put("setup_s", median(setup_times), "s", len(setup_times))
    # Every timing at reference speed, by the machine's speed around it.
    factors = probe.factors_at(plain["done"])
    lat = np.asarray(plain["lat"]) * factors
    for q in (50, 90):
        probe.put(res, f"latency_p{q}_us", percentile(plain["lat"], q) * 1e6,
                  percentile(lat, q) * 1e6, "us", n)
    qps, windows = block_rate(plain["done"], 1, plain["start"], factors)
    raw_qps = block_rate(plain["done"], 1, plain["start"])[0]
    probe.put(res, "throughput_qps", raw_qps, qps, "1/s", windows)
    swaps = np.asarray(plain["swaps"]) * probe.factors_at(plain["swap_ends"])
    probe.put(res, "update_s", median(plain["swaps"]), median(swaps), "s", len(swaps))
    res.put("qerror_p50", q50, "ratio", nq)
    res.put("qerror_p99", q99, "ratio", nq)
    res.put("valid_answer_ratio", 1.0 - invalid / res.attempted, "ratio", res.attempted)
    rss, workers = peak_rss_mb()
    res.put("peak_rss_mb", rss, "MiB", 1 + workers)
    res.put("model_bytes", service.model_size_bytes(), "bytes")
    probe.note(res)
    res.notes["error_rate"] = invalid / res.attempted
    res.notes["hit_share_requested"] = HOT_SHARE

    if cfg.trace:
        untraced_p50 = percentile(lat, 50)
        res.layers = _traced(service, tiers, stream, seconds, swap_models, timers, untraced_p50)
    return res


def _traced(service, tiers, stream, seconds, swap_models, timers, untraced_p50):
    tracer = Tracer()
    timed = [TimedEstimator(t, tracer, f"tier.{t.name}") for t in tiers]
    for index, tier in enumerate(timed):
        service.replace_tier(index, tier)
    copy_ = TimedEstimator(swap_models[0], tracer, f"tier.{tiers[0].name}")
    for query in stream[:8000]:  # re-warm: replace_tier flushed the cache
        service.serve(query)
    guard = TimedGuard(service.guard, tracer)
    cache = TimedCache(service.cache, tracer)
    service.guard, service.cache = guard, cache
    tracer.spans.clear()
    for tier in timed:
        tier.raw.clear()
    evictions0 = cache.evictions
    speed = SpeedProbe()
    traced = _serve_loop(service, stream, seconds, [copy_, timed[0]], speed, tracer)

    spans = tracer.by_request()
    layers, totals, violations = self_times(spans, "request", {})
    out = {}
    serve_self = layers["request"]
    out["serve.self_us_p50"] = (percentile(serve_self, 50) * 1e6, "us")
    out["serve.self_us_p99"] = (percentile(serve_self, 99) * 1e6, "us")
    out["serve.fallback_ratio"] = (traced["degraded"] / len(traced["lat"]), "ratio")
    out["serve.cache.get_us_p50"] = (percentile(layers["serve.cache.get"], 50) * 1e6, "us")
    out["serve.cache.hit_ratio"] = (cache.hits / max(1, cache.gets), "ratio")
    out["serve.cache.evictions"] = (cache.evictions - evictions0, "count")
    out["guard.clamp_us_p50"] = (percentile(layers["guard.clamp"], 50) * 1e6, "us")
    out["guard.ood_us_p50"] = (percentile(layers["guard.ood"], 50) * 1e6, "us")
    out["guard.clamped_ratio"] = (guard.clamped / max(1, guard.clamp_calls), "ratio")
    out["guard.ood_ratio"] = (guard.ood_true / max(1, guard.ood_calls), "ratio")
    out["guard.fit_s"] = (median([t.seconds["guard.fit"] for t in timers]), "s")
    out["estimators.mscn.estimate_us_p50"] = (percentile(layers["tier.mscn"], 50) * 1e6, "us")
    out["estimators.mscn.fit_s"] = (median([t.seconds["fit.mscn"] for t in timers]), "s")
    out["estimators.mscn.model_bytes"] = (tiers[0].model_size_bytes(), "bytes")
    raw = np.asarray(timed[0].raw + copy_.raw, dtype=np.float64)
    out["estimators.mscn.out_of_range_ratio"] = (
        count_invalid(raw, service.table.num_rows) / max(1, raw.size), "ratio")
    out["core.label_us_per_query"] = (median(
        [t.seconds["core.label"] / t.items["core.label"] for t in timers]) * 1e6, "us")
    traced_p50 = percentile(np.asarray(traced["lat"]) * speed.factors_at(traced["done"]), 50)
    overhead_and_coverage(out, untraced_p50, traced_p50, layers, totals, violations)
    return out
