"""dynamic-update: the paper's Section 5, offline, one process.

Fit naru, mscn, lw-nn and lw-xgb on census, then run rounds until the
time is up.  Each round starts from a deep copy of the fitted models (so
rounds are alike and the figures do not drift with the round count):

1. ``datasets.apply_update`` appends 20% correlated rows;
2. ``update`` on each estimator, the query-driven ones with
   ``UPDATE_QUERIES`` fresh queries labelled on the new table (the
   labelling counts as update time);
3. ``estimate_many`` on ``TEST_QUERIES`` labelled test queries, in
   chunks of ``CHUNK`` (one query), each through all four estimators.

The raw estimator API is called directly, so answers outside
``[0, num_rows]`` reach the client and are counted, not clamped.  The
serve and shard tiers are not involved.
"""

from __future__ import annotations

import copy
import gc

import numpy as np

from harness import (
    CAL_REF,
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
    workload,
)
from tracing import TimedEstimator, Tracer, overhead_and_coverage, perf, self_times

ESTIMATORS = ("naru", "mscn", "lw-nn", "lw-xgb")
UPDATE_QUERIES = 300
TEST_QUERIES = 480
CHUNK = 1
#: Seed of the test queries.  Round ``i`` asks the same queries in every
#: run (generated on the base table, labelled on the updated one), so the
#: q-errors and the estimate cost move with the updated models, not with
#: which queries happened to be drawn.
TEST_SEED = 1
#: q-errors come from the first QERROR_ROUNDS rounds, which always run
QERROR_ROUNDS = 3
#: chunks per throughput block: the rate is the median block rate
RATE_BLOCK = 8
#: chunks between speed-probe ticks (about 20 ms)
TICK_EVERY = 3


def _setup(table, train_queries, scale, timer: Timer) -> dict:
    from repro import registry

    train = workload(train_queries, label(table, train_queries, timer))
    models = {}
    for name in ESTIMATORS:
        model = registry.make_estimator(name, scale)
        timer.call(f"fit.{name}", model.fit, table, train if model.requires_workload else None)
        models[name] = model
    return models


def _round(cfg, table, base: dict, index: int, speed, tracer=None) -> dict:
    """One update-then-estimate round; everything it measured."""
    from repro.datasets import apply_update

    rng = np.random.default_rng([cfg.seed, 10, index])
    models = {n: copy.deepcopy(m) for n, m in base.items()}
    if cfg.wrap_estimator is not None:
        models = {n: cfg.wrap_estimator(m) for n, m in models.items()}
    new_table, appended = apply_update(table, rng)
    update_queries = gen_queries(new_table, UPDATE_QUERIES, rng)
    test_queries = gen_queries(table, TEST_QUERIES, np.random.default_rng([TEST_SEED, index]))
    truth = label(new_table, test_queries)
    quiesce()

    # Each update step runs between bursts of speed ticks and is brought
    # to reference speed by the mean of the bursts on either side: no
    # tick can run inside a fit, and the estimate phase's ticks, seconds
    # away, track the machine during training worse than these.  The
    # bursts have their own probe: right after a fit they run on cold
    # caches, and must not set the speed of the estimates that follow.
    steps = SpeedProbe()
    timer = Timer()
    before = steps.burst()
    uw = workload(update_queries, label(new_table, update_queries, timer))
    after = steps.burst()
    update_ref = timer.seconds["core.label"] * CAL_REF * 2 / (before + after)
    for name, model in models.items():
        before = after
        timer.call(f"update.{name}", model.update, new_table, appended,
                   uw if model.requires_workload else None)
        after = steps.burst()
        update_ref += timer.seconds[f"update.{name}"] * CAL_REF * 2 / (before + after)
    snapshot = copy.deepcopy(models) if index == 0 else None
    if tracer is not None:
        models = {n: TimedEstimator(m, tracer, f"estimators.{n}") for n, m in models.items()}

    estimates = {n: [] for n in models}
    lat, ends = [], []
    quiesce()
    # The cyclic collector is paused for the estimate phase, as timeit
    # does, so a collection does not land on whichever query runs then.
    gc.disable()
    try:
        for c in range(0, TEST_QUERIES, CHUNK):
            chunk = test_queries[c : c + CHUNK]
            if tracer is not None:
                tracer.request = (index, c)
            t0 = perf()
            for name, model in models.items():
                estimates[name].append(model.estimate_many(chunk))
            t1 = perf()
            if tracer is not None:
                tracer.record("request", t0, t1)
            lat.append(t1 - t0)
            ends.append(t1)
            if c % (TICK_EVERY * CHUNK) == 0:
                speed.tick()
    finally:
        gc.enable()
    return {
        "update_s": sum(timer.seconds.values()),
        "update_ref_s": update_ref,
        "timer": timer,
        "lat": lat,
        "ends": ends,
        "estimates": {n: np.concatenate(v) for n, v in estimates.items()},
        "truth": truth,
        "num_rows": new_table.num_rows,
        "test_queries": test_queries,
        "snapshot": snapshot,
    }


def _rounds(cfg, table, base, seconds, min_rounds, speed, tracer=None):
    rounds = []
    start = perf()
    while len(rounds) < min_rounds or perf() - start < seconds:
        rounds.append(_round(cfg, table, base, len(rounds), speed, tracer))
    return rounds


def run(cfg) -> Result:
    scale = make_scale(cfg.scale)
    table = census_table(scale)
    rng = np.random.default_rng(cfg.seed)
    train_queries = training_queries(table, scale)
    probe = gen_queries(table, 64, rng)
    res = Result()

    setup_times, timers, probes = [], [], []
    base = None
    for _ in range(SETUP_REPEATS):
        base = None
        quiesce()
        timer = Timer()
        t0 = perf()
        base = _setup(table, train_queries, scale, timer)
        setup_times.append(perf() - t0)
        timers.append(timer)
        # the probe also warms every estimate path before timing
        probes.append(b"".join(m.estimate_many(probe).tobytes() for m in base.values()))
    if len(set(probes)) != 1:
        raise CheckFailed("repeated set-ups from one seed fitted different models")

    seconds = cfg.seconds / 2 if cfg.trace else cfg.seconds
    speed = SpeedProbe()
    plain = _rounds(cfg, table, base, seconds, QERROR_ROUNDS, speed)

    # --- checks outside the timed phase -------------------------------
    first = plain[0]
    again = {}
    for c in range(0, TEST_QUERIES, CHUNK):
        chunk = first["test_queries"][c : c + CHUNK]
        for name, model in first["snapshot"].items():
            again.setdefault(name, []).append(model.estimate_many(chunk))
    for name, values in again.items():
        if np.concatenate(values).tobytes() != first["estimates"][name].tobytes():
            raise CheckFailed(f"{name}: estimates did not repeat")

    qr = plain[:QERROR_ROUNDS]
    all_est = np.concatenate([v for r in qr for v in r["estimates"].values()])
    all_truth = np.concatenate([r["truth"] for r in qr for _ in r["estimates"]])
    q50, q99, nq = qerror_summary(all_est, all_truth)
    invalid = sum(
        count_invalid(v, r["num_rows"]) for r in plain for v in r["estimates"].values()
    )
    raw = np.array([x for r in plain for x in r["lat"]])
    # Estimate timings at reference speed, by the machine's speed around them.
    lat = raw * speed.factors_at([x for r in plain for x in r["ends"]])
    res.attempted = sum(len(v) for r in plain for v in r["estimates"].values())
    res.put("setup_s", median(setup_times), "s", len(setup_times))
    for q in (50, 90):
        speed.put(res, f"latency_p{q}_us", percentile(raw, q) * 1e6,
                  percentile(lat, q) * 1e6, "us", len(lat))
    nblocks = len(lat) // RATE_BLOCK
    speed.put(res, "throughput_qps", _block_rate(raw), _block_rate(lat), "1/s", nblocks)
    speed.put(res, "update_s", median([r["update_s"] for r in plain]),
              median([r["update_ref_s"] for r in plain]), "s", len(plain))
    res.put("qerror_p50", q50, "ratio", nq)
    res.put("qerror_p99", q99, "ratio", nq)
    res.put("valid_answer_ratio", 1.0 - invalid / res.attempted, "ratio", res.attempted)
    rss, workers = peak_rss_mb()
    res.put("peak_rss_mb", rss, "MiB", 1 + workers)
    res.put("model_bytes", sum(m.model_size_bytes() for m in base.values()), "bytes")
    speed.note(res)
    res.notes["error_rate"] = invalid / res.attempted
    res.notes["rounds"] = len(plain)

    if cfg.trace:
        tracer = Tracer()
        # the same rounds again (same inputs), now with spans per estimator call
        traced_speed = SpeedProbe()
        traced = _rounds(cfg, table, base, seconds, 1, traced_speed, tracer)
        res.layers = _layers(plain + traced, timers, base, tracer)
        res.layers.update(_overhead(plain, speed, traced, traced_speed, tracer))
    return res


def _layers(rounds, timers, base, tracer):
    out = {}
    qr = rounds[:QERROR_ROUNDS]
    for name in ESTIMATORS:
        est = np.concatenate([r["estimates"][name] for r in qr])
        truth = np.concatenate([r["truth"] for r in qr])
        spans = [e - s for _, n, s, e in tracer.spans if n == f"estimators.{name}"]
        queries = len(spans) * CHUNK
        out[f"estimators.{name}.fit_s"] = (median([t.seconds[f"fit.{name}"] for t in timers]), "s")
        out[f"estimators.{name}.update_s"] = (
            median([r["timer"].seconds[f"update.{name}"] for r in rounds]), "s")
        out[f"estimators.{name}.estimate_us_per_query"] = (sum(spans) / queries * 1e6, "us")
        out[f"estimators.{name}.qerror_p99"] = (qerror_summary(est, truth)[1], "ratio")
        total = sum(len(r["estimates"][name]) for r in rounds)
        bad = sum(count_invalid(r["estimates"][name], r["num_rows"]) for r in rounds)
        out[f"estimators.{name}.out_of_range_ratio"] = (bad / total, "ratio")
        out[f"estimators.{name}.model_bytes"] = (base[name].model_size_bytes(), "bytes")
    label_s = [t.seconds["core.label"] / t.items["core.label"] for t in timers]
    label_s += [r["timer"].seconds["core.label"] / r["timer"].items["core.label"] for r in rounds]
    out["core.label_us_per_query"] = (median(label_s) * 1e6, "us")
    return out


def _block_rate(lat) -> float:
    """Median queries/second over blocks of ``RATE_BLOCK`` chunks."""
    blocks = [lat[i : i + RATE_BLOCK] for i in range(0, len(lat) - RATE_BLOCK + 1, RATE_BLOCK)]
    return median([CHUNK * len(b) / sum(b) for b in blocks])


def _p50_at_reference(rounds, speed) -> float:
    lat = np.array([x for r in rounds for x in r["lat"]])
    return percentile(lat * speed.factors_at([x for r in rounds for x in r["ends"]]), 50)


def _overhead(plain, speed, traced, traced_speed, tracer):
    out = {}
    layers, totals, violations = self_times(tracer.by_request(), "request", {})
    overhead_and_coverage(
        out, _p50_at_reference(plain, speed), _p50_at_reference(traced, traced_speed),
        layers, totals, violations,
    )
    return out
