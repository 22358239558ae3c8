"""Run one benchmark workload and print its result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload flow-cold --seed 1 --seconds 30 \
        --trace 0

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` is the separate traced
run: it times the benchmark's own calls into every layer, for all three
workloads' operations, writes the spans as Chrome trace-event JSON under
``.perfbench/`` and reports the per-layer metrics.

The last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it records the
environment, the workload's named figures and a digest of its stable
payloads, so two commits can be compared for bit-identity.  Without the
library sources next to ``perfbench/`` the run exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flow-cold", "calibrate", "serve-mix")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def workload_modules() -> dict:
    """Workload name -> module with ``measure`` and ``traced``."""
    from perfbench import calibrate, flow_cold, serve_mix
    return dict(zip(WORKLOADS, (flow_cold, calibrate, serve_mix)))


def traced(workload: str, seed: int):
    """The traced run: every workload's operations, layer by layer."""
    from perfbench.common import OUT_DIR, Measurement, Tally, Tracer
    tracer = Tracer()
    tally = Tally()
    metrics: dict[str, float] = {}
    walls = {}
    for name, module in workload_modules().items():
        started = time.perf_counter()
        with tracer.span(f"workload.{name}", op=name):
            metrics.update(module.traced(seed, tracer, tally))
        walls[name] = time.perf_counter() - started
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.write(path, {"seed": seed, "workload_walls_s": walls})
    detail = {"trace_file": str(path.relative_to(ROOT)),
              "spans": len(tracer.events), "workload_walls_s": walls}
    return Measurement(metrics, tally, detail)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[section]}

    from perfbench.common import environment
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = workload_modules()[args.workload].measure(
            args.seed, args.seconds)
    if set(result.metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(result.metrics) ^ set(units))} are not "
            f"the {section} metrics BENCHMARK.json declares")
    bad = [name for name, value in result.metrics.items()
           if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    for failure in result.tally.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    record = {"environment": environment(args.workload, args.seed,
                                         bool(args.trace)),
              **result.detail}
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": result.tally.failed == 0,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "metrics": {name: {"value": float(result.metrics[name]),
                           "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
