"""Run one benchmark workload and print every metric by name.

    python3 perfbench/run.py --workload point-serve --seed 1 --seconds 8 --trace 0

Workloads: ``point-serve``, ``shard-batch``, ``dynamic-update`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs half the time untraced and half
with timing delegates at every layer boundary, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries provenance and the sample count behind every metric.
A failed correctness check exits with status 2 and prints no result.
"""

import os
import sys

# Noise controls that must precede the first numpy import: one BLAS /
# OpenMP thread (a forked worker plus the client would otherwise
# oversubscribe a small machine), and a fixed hash seed so set and dict
# iteration orders repeat run to run.
_PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in _PINNED.items()):
    os.environ.update(_PINNED)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from harness import CheckFailed, RunConfig, make_scale, provenance  # noqa: E402

WORKLOADS = ("point-serve", "shard-batch", "dynamic-update")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(cfg: RunConfig):
    if cfg.workload == "point-serve":
        import point_serve as module
    elif cfg.workload == "shard-batch":
        import shard_batch as module
    else:
        import dynamic_update as module
    return module.run(cfg)


def render(cfg: RunConfig, result, declared: dict) -> tuple[dict, dict]:
    """The result line and the report line for one finished run."""
    kind = "per_layer" if cfg.trace else "end_to_end"
    measured = result.layers if cfg.trace else result.metrics
    metrics, bypassed = {}, []
    for entry in declared[kind]:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            value, got = measured[name]
            if got != unit:
                raise CheckFailed(f"{name}: measured in {got}, declared in {unit}")
        elif cfg.trace:
            # a layer this workload bypasses: it did no work here
            value = 0.0
            bypassed.append(name)
        else:
            raise CheckFailed(f"{cfg.workload} did not measure {name}")
        metrics[name] = {"value": float(value), "unit": unit}
    report = {
        "provenance": provenance(cfg, make_scale(cfg.scale)),
        "samples": result.samples,
        "notes": result.notes,
        "bypassed_layers": bypassed,
    }
    line = {
        "correct": True,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }
    return line, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("default", "ci"), default="default",
        help="ci is for the benchmark's own smoke test only",
    )
    args = parser.parse_args(argv)
    # A terminated run still drains its workers and unlinks shared memory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cfg = RunConfig(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    declared = spec()
    try:
        result = run_workload(cfg)
        line, report = render(cfg, result, declared)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 2
    for name, entry in line["metrics"].items():
        count = report["samples"].get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}{suffix}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
