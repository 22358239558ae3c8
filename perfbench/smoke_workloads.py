"""Tiny-size smoke checks of the benchmark's workloads.

Run from the repository root with ``python3 -m pytest perfbench``
(``perfbench/pytest.ini`` collects this file; the repository's own test
run does not).  Each workload runs at a few hundred gates or dies, so
the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import calibrate, flow_cold, serve_mix  # noqa: E402
from perfbench.common import Tally, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}

TINY_FLOW = flow_cold.FlowColdConfig(
    sizes={"12k": 300, "24k": 500, "48k": 700}, table1_design="c1355",
    setup_repeats=1)
TINY_CALIBRATE = calibrate.CalibrateConfig(
    population_dies=30, spatial_dies=20, lifetime_dies=10,
    lifetime_epochs=2, setup_repeats=1)
TINY_SERVE = serve_mix.ServeConfig(
    light_windows=1, heavy_windows=1, window_requests=20,
    closed_requests=10, setup_repeats=1)


def assert_clean(measurement, names: set[str]) -> None:
    assert measurement.tally.failed == 0, measurement.tally.failures
    assert set(measurement.metrics) == names
    assert all(math.isfinite(value) and value > 0
               for value in measurement.metrics.values())


def test_flow_cold_tiny():
    measurement = flow_cold.measure(1, 0.001, TINY_FLOW)
    assert_clean(measurement, END_TO_END)
    # four designs and the table1 row; one round, so no cross-round
    # digest check
    assert measurement.detail["rounds"] == 1
    assert measurement.tally.attempted == 5


def test_flow_cold_seed_changes_netlists():
    first = flow_cold.generate_netlists(1, TINY_FLOW)
    again = flow_cold.generate_netlists(1, TINY_FLOW)
    other = flow_cold.generate_netlists(2, TINY_FLOW)
    for tag in TINY_FLOW.sizes:
        fingerprint = flow_cold.netlist_fingerprint(first[tag])
        assert fingerprint == flow_cold.netlist_fingerprint(again[tag])
        assert fingerprint != flow_cold.netlist_fingerprint(other[tag])


def test_calibrate_tiny():
    measurement = calibrate.measure(1, 0.001, TINY_CALIBRATE)
    assert_clean(measurement, END_TO_END)
    assert measurement.detail["calibrated_dies"]["lifetime"] == 20


def test_calibrate_specs_set_no_execution_knobs():
    from repro.api import EXECUTION_KNOBS, RunSpec
    default = RunSpec()
    for spec in calibrate.arm_specs(1, TINY_CALIBRATE).values():
        for knob in (*EXECUTION_KNOBS, "engine"):
            assert getattr(spec, knob) == getattr(default, knob)


def test_server_process_starts_and_shuts_down():
    server = serve_mix.ServerProcess("smoke")
    try:
        assert server.request("GET", "/healthz")[0] == 200
        assert server.peak_rss_mb() > 0
    finally:
        code = server.shutdown()
    assert code == 0
    assert server.process.poll() == 0


def test_serve_mix_tiny():
    measurement = serve_mix.measure(1, 0.001, TINY_SERVE)
    assert_clean(measurement, END_TO_END)
    # server exit + 2 windows of 20 + 2 closed segments of 10
    assert measurement.tally.attempted == 1 + 40 + 20


def test_traced_tiny(tmp_path):
    tracer, tally = Tracer(), Tally()
    metrics = {}
    metrics.update(flow_cold.traced(1, tracer, tally, TINY_FLOW))
    metrics.update(calibrate.traced(1, tracer, tally, TINY_CALIBRATE))
    metrics.update(serve_mix.traced(1, tracer, tally, TINY_SERVE))
    assert tally.failed == 0, tally.failures
    assert set(metrics) == PER_LAYER
    assert all(math.isfinite(value) for value in metrics.values())
    path = tmp_path / "trace.json"
    tracer.write(path, {"seed": 1})
    events = json.loads(path.read_text())["traceEvents"]
    assert {"synth.map", "ilp.highs", "tuning.spatial",
            "executor.miss"} <= {event["name"] for event in events}
    assert all(event["ph"] == "X" and event["dur"] >= 0
               for event in events)


def test_benchmark_json_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "flow-cold", "calibrate", "serve-mix"]
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    names = END_TO_END | PER_LAYER
    assert len(names) == len(BENCHMARK["end_to_end"]) + len(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_run_refuses_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
