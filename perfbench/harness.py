"""Shared pieces of the benchmark: inputs, statistics, memory, provenance.

Nothing here imports numpy at module load time, so ``run.py`` can pin
the BLAS/OpenMP thread pools before the first numpy import.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds per throughput block (see :func:`block_rate`).
WINDOW_SECONDS = 0.5

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Seed of the training queries.  The fitted models are the same in every
#: run, so set-up does the same work whatever ``--seed`` is; the seed
#: drives the traffic (see README.md).
TRAIN_SEED = 0


class CheckFailed(RuntimeError):
    """A correctness check failed; the run prints no result line."""


@dataclass
class RunConfig:
    workload: str
    seed: int
    seconds: float
    trace: bool
    #: ``default`` for every measured run; ``ci`` only for the smoke test
    scale: str = "default"
    #: test seam: wraps each raw estimator before it answers queries
    wrap_estimator: object = None


@dataclass
class Result:
    """What one workload measured, before it is turned into JSON."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    samples: dict = field(default_factory=dict)  # name -> sample count
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)
    #: per-layer metrics of the traced run: name -> (value, unit)
    layers: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int | None = None):
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = int(samples)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (numpy's default rule)."""
    import numpy as np

    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def block_rate(
    completions: list[float], per_call: int, start: float, factors=None
) -> tuple[float, int]:
    """Median items/second over consecutive blocks of the timed phase.

    ``completions[i]`` is the clock reading when call ``i`` completed,
    each call answering ``per_call`` items.  Calls are grouped into
    blocks of about ``WINDOW_SECONDS`` each; the rate is the median block
    rate, so one slow second moves at most a few blocks.  With
    ``factors`` (per call, from :meth:`SpeedProbe.factors_at`) each block
    rate is brought to reference speed by its own calls' factors.
    Returns the rate and the number of blocks.
    """
    if not completions:
        return 0.0, 0
    nblocks = max(1, int((completions[-1] - start) / WINDOW_SECONDS))
    calls = max(1, len(completions) // nblocks)
    rates = []
    prev = start
    for b in range(calls - 1, len(completions), calls):
        rate = calls * per_call / (completions[b] - prev)
        if factors is not None:
            rate /= median(factors[b - calls + 1 : b + 1])
        rates.append(rate)
        prev = completions[b]
    return median(rates), len(rates)


def qerror_summary(estimates, actuals) -> tuple[float, float, int]:
    """p50/p99 q-error over the finite estimates (``core.metrics.qerrors``)."""
    import numpy as np
    from repro.core.metrics import qerrors

    est = np.asarray(estimates, dtype=np.float64)
    act = np.asarray(actuals, dtype=np.float64)
    keep = np.isfinite(est)
    q = qerrors(est[keep], act[keep])
    return percentile(q, 50.0), percentile(q, 99.0), int(q.size)


def count_invalid(values, num_rows: int) -> int:
    """Answers that are non-finite or outside ``[0, num_rows]``."""
    import numpy as np

    v = np.asarray(values, dtype=np.float64)
    ok = np.isfinite(v) & (v >= 0.0) & (v <= num_rows)
    return int(v.size - ok.sum())


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_scale(name: str):
    from repro.scale import Scale

    return Scale.ci() if name == "ci" else Scale.default()


def census_table(scale):
    from repro.datasets import census
    from repro.datasets.realworld import DEFAULT_ROWS

    return census(int(DEFAULT_ROWS["census"] * scale.row_fraction))


def gen_queries(table, count: int, rng) -> list:
    """Unlabelled queries from the paper's generator (``core.workload``)."""
    from repro.core.workload import WorkloadGenerator

    generator = WorkloadGenerator(table)
    return [generator.generate_query(rng) for _ in range(count)]


def training_queries(table, scale) -> list:
    import numpy as np

    return gen_queries(table, scale.train_queries, np.random.default_rng(TRAIN_SEED))


def label(table, queries, timer: "Timer | None" = None):
    """Exact cardinalities; ``timer`` collects the ``core.table`` time."""
    start = time.perf_counter()
    cards = table.cardinalities(list(queries))
    if timer is not None:
        timer.add("core.label", time.perf_counter() - start, len(queries))
    return cards


def workload(queries, cards):
    from repro.core.workload import Workload

    return Workload(tuple(queries), cards)


class Timer:
    """Named wall-clock totals with item counts (setup-phase layers)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.items: dict[str, int] = {}

    def add(self, name: str, seconds: float, items: int = 1) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.items[name] = self.items.get(name, 0) + items

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.add(name, time.perf_counter() - start)
        return out


#: ``SpeedProbe.tick`` time on the reference machine (seconds).
CAL_REF = 0.2e-3

#: Half-width of the window of ticks that gives the speed at one instant.
LOCAL_SECONDS = 0.1


class SpeedProbe:
    """Tracks the machine's speed with a fixed calibration kernel.

    On a shared small VM the speed of the whole machine swings by a
    quarter within seconds, moving every timing of a run together.  The
    timed loops call :meth:`tick` every few tens of milliseconds; the
    kernel is the benchmark's own code (dict/tuple work and small numpy
    products, like the program's hot paths) and never touches the
    program, so its time measures only the machine.
    """

    def __init__(self) -> None:
        import numpy as np

        self._a = np.random.default_rng(0).random((32, 32))
        self.samples: list[float] = []
        self.times: list[float] = []

    def tick(self) -> None:
        start = time.perf_counter()
        table = {}
        for i in range(500):
            key = (i, i * 0.5, (i, 1))
            table[key] = hash(key)
        a = self._a
        for _ in range(50):
            a.dot(a[0])
        end = time.perf_counter()
        self.samples.append(end - start)
        self.times.append(end)

    def burst(self, n: int = 3) -> float:
        """Median of ``n`` ticks in a row (seconds)."""
        for _ in range(n):
            self.tick()
        return median(self.samples[-n:])

    def factor(self) -> float:
        """Reference speed over this run's speed (times multiply by it)."""
        return CAL_REF / median(self.samples)

    def factors_at(self, times):
        """Reference speed over the machine's speed at each of ``times``.

        The speed at an instant is the median tick within
        ``LOCAL_SECONDS`` of the nearest tick: the host's slow and fast
        stretches last from a tenth of a second to seconds, so one
        factor for the whole run leaves them in the tail.
        """
        import numpy as np

        t = np.asarray(self.times)
        d = np.asarray(self.samples)
        lo = np.searchsorted(t, t - LOCAL_SECONDS, "left")
        hi = np.searchsorted(t, t + LOCAL_SECONDS, "right")
        local = np.array([np.median(d[a:b]) for a, b in zip(lo, hi)])
        nearest = np.clip(np.searchsorted(t, np.asarray(times)), 0, len(t) - 1)
        return CAL_REF / local[nearest]

    def put(self, res: "Result", name: str, raw: float, scaled: float,
            unit: str, samples: int | None = None) -> None:
        """Put a timed metric computed from samples scaled by
        :meth:`factors_at`; its unscaled value goes to the report line."""
        res.put(name, scaled, unit, samples)
        res.notes[f"raw_{name}"] = float(raw)

    def note(self, res: "Result") -> None:
        """Record the run's median factor and tick count in the report line.

        ``setup_s`` is never scaled: no tick can run inside a fit, and
        ticks around a set-up tracked its speed worse than no scaling at
        all.
        """
        res.notes["speed_factor"] = self.factor()
        res.notes["speed_ticks"] = len(self.samples)


def _malloc_trim() -> None:
    try:
        import ctypes

        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to trim


def quiesce() -> None:
    """Noise control before every timed phase.

    Collects garbage, then hands the allocator's free pages back to the
    system: whether glibc keeps them after a set-up varies from run to
    run (by 20 MiB after shard-batch's), and memory allocated later
    reuses them or not, so ``peak_rss_mb`` would move with it.
    """
    gc.collect()
    _malloc_trim()


# ----------------------------------------------------------------------
# memory and provenance
# ----------------------------------------------------------------------
def _child_pids() -> list[int]:
    pids: list[int] = []
    task_dir = Path(f"/proc/{os.getpid()}/task")
    try:
        for task in task_dir.iterdir():
            text = (task / "children").read_text().split()
            pids.extend(int(p) for p in text)
    except OSError:
        return []
    return pids


def _vm_hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _private_mb(pid: int) -> float:
    """Resident pages only ``pid`` maps (private clean + dirty), MiB.

    Falls back to the peak RSS where ``smaps_rollup`` is unreadable.
    """
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return _vm_hwm_mb(pid)
    kib = 0
    for line in text.splitlines():
        if line.startswith(("Private_Clean:", "Private_Dirty:")):
            kib += int(line.split()[1])
    return kib / 1024.0


def peak_rss_mb() -> tuple[float, int]:
    """Peak RSS of this process plus its live children's own pages.

    Returns MiB and the number of children.  A forked worker shares
    copy-on-write pages with the client; the client's RSS counts them
    once, and each child adds only the pages it alone maps.  (A child's
    own RSS counts the shared pages again, by an amount that changed by
    a fifth between runs of the same code.)
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = _child_pids()
    return own + sum(_private_mb(p) for p in children), len(children)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over ``src/`` — provenance when the checkout has no git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(cfg: RunConfig, scale) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": cfg.seed,
        "scale": scale.name,
        "workload": cfg.workload,
        "seconds": cfg.seconds,
        "trace": cfg.trace,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
