"""``calibrate``: post-silicon calibration on implemented designs.

Flows are implemented once during set-up; every timed arm re-executes
its ``RunSpec`` with ``use_cache=False`` against that warm cache, so no
front-end work is timed.  Three arms: a tuned ``population`` on
industrial1, a ``spatial`` study on soc_quad and a ``lifetime`` run on
industrial1.  Sampling, batched STA and the sense/allocate/verify loop
are nearly all of the time.  ``EcoSolver`` sits on no ``RunSpec`` path
and is deliberately not measured here.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from perfbench.common import (Measurement, Tally, Tracer, derive_seed,
                              digest, in_unit_interval, is_finite_tree,
                              median_setup, run_rounds)
from repro import api
from repro.flow.cache import ArtifactCache
from repro.flow.design_flow import FlowResult, implement
from repro.flow.parallel import stable_payload
from repro.sta.batched import BatchedTimingAnalyzer
from repro.sta.engine import TimingAnalyzer
from repro.tuning import lifetime as lifetime_module
from repro.tuning.controller import TuningController
from repro.tuning.lifetime import run_lifetime
from repro.tuning.population import tune_population
from repro.variation.montecarlo import (DieSample, MonteCarloResult,
                                        sample_dies)
from repro.variation.process import ProcessModel, sample_scale_matrix

POPULATION_DESIGN = "industrial1"
SPATIAL_DESIGN = "soc_quad"
POPULATION_BUDGET = 0.02
SPATIAL_PROCESS = {"correlation_length_fraction": 0.25}
ARMS = ("population", "spatial", "lifetime")


@dataclass(frozen=True)
class CalibrateConfig:
    """Population sizes; the defaults are the benchmark's, tests
    shrink them."""

    population_dies: int = 300
    spatial_dies: int = 200
    lifetime_dies: int = 100
    lifetime_epochs: int = 8
    setup_repeats: int = 3


def arm_specs(seed: int, config: CalibrateConfig) -> dict[str, api.RunSpec]:
    """The three arms' specs.  No execution knob (``workers``,
    ``tuning_engine``, ``engine``) is set: defaults are measured."""
    return {
        "population": api.RunSpec(
            kind="population", design=POPULATION_DESIGN,
            num_dies=config.population_dies, tune=True,
            beta_budget=POPULATION_BUDGET,
            seed=derive_seed(seed, "population")),
        "spatial": api.RunSpec(
            kind="spatial", design=SPATIAL_DESIGN,
            num_dies=config.spatial_dies, num_regions=4,
            process=dict(SPATIAL_PROCESS),
            seed=derive_seed(seed, "spatial")),
        "lifetime": api.RunSpec(
            kind="lifetime", design=POPULATION_DESIGN,
            num_dies=config.lifetime_dies, epochs=config.lifetime_epochs,
            mode="model", seed=derive_seed(seed, "lifetime")),
    }


def warm_cache() -> tuple[ArtifactCache, dict[str, FlowResult]]:
    """Set-up: implement both designs into a fresh cache."""
    cache = ArtifactCache()
    flows = {name: implement(name, cache=cache)
             for name in (POPULATION_DESIGN, SPATIAL_DESIGN)}
    return cache, flows


def calibrated_dies(arm: str, spec: api.RunSpec, payload: dict) -> int:
    """Dies that went through the sense/allocate/verify loop: the
    out-of-budget dies of a population (both spatial-study arms count),
    every die in every epoch of a lifetime run."""
    if arm == "population":
        return payload["recovered"] + payload["lost"]
    if arm == "spatial":
        return (payload["spatial_recovered"] + payload["spatial_lost"]
                + payload["uniform_recovered"] + payload["uniform_lost"])
    return spec.num_dies * spec.epochs


def check_arm(tally: Tally, arm: str, spec: api.RunSpec,
              payload: dict) -> None:
    ok = is_finite_tree(payload) and payload["num_dies"] == spec.num_dies
    if arm == "population":
        ok = ok and in_unit_interval(payload["timing_yield"],
                                     payload["tuned_yield"]) \
            and payload["tuned_yield"] >= payload["timing_yield"] \
            and payload["recovered"] + payload["lost"] <= spec.num_dies
    elif arm == "spatial":
        ok = ok and in_unit_interval(payload["yield_before"],
                                     payload["spatial_yield"],
                                     payload["uniform_yield"]) \
            and payload["spatial_yield"] >= payload["yield_before"] \
            and payload["uniform_yield"] >= payload["yield_before"]
    else:
        curve = payload["yield_curve"]
        ok = ok and len(curve) == spec.epochs \
            and in_unit_interval(*curve, payload["min_yield"],
                                 payload["mean_yield"]) \
            and payload["recalibrations"] == spec.epochs
    tally.record(ok, f"calibrate {arm}: failed check {payload}")


def measure(seed: int, seconds: float,
            config: CalibrateConfig = CalibrateConfig()) -> Measurement:
    """The untraced workload: end-to-end metrics."""
    setup_s, (cache, flows) = median_setup(config.setup_repeats,
                                           warm_cache)
    specs = arm_specs(seed, config)
    dies: dict[str, int] = {}
    tally = Tally()
    walls: dict[str, list[float]] = {arm: [] for arm in ARMS}
    digests: set[str] = set()

    def one_round() -> None:
        payloads = []
        for arm in ARMS:
            gc.collect()
            started = time.perf_counter()
            try:
                result = api.run(specs[arm], cache=cache, use_cache=False)
            except Exception as exc:  # an operation failure, counted
                tally.record(False, f"calibrate {arm}: {exc!r}")
                continue
            walls[arm].append(time.perf_counter() - started)
            check_arm(tally, arm, specs[arm], result.payload)
            dies[arm] = calibrated_dies(arm, specs[arm], result.payload)
            payloads.append(stable_payload(result.payload))
        digests.add(digest(payloads))

    rounds, rss_mb = run_rounds(seconds, one_round)
    if rounds > 1:
        tally.record(len(digests) == 1,
                     "calibrate: payloads differ between rounds of one seed")
    if not all(walls.values()):
        raise RuntimeError("calibrate: an arm never completed")
    median_walls = {arm: statistics.median(walls[arm]) for arm in ARMS}
    per_die_ms = {arm: median_walls[arm] / max(dies[arm], 1) * 1e3
                  for arm in ARMS}
    # p50_ms pools the arms: the median arm walls over all calibrated
    # dies.  On this workload it is 1e3 / work_per_s; the median of the
    # three per-arm figures is one arm of a few seconds, and over ten
    # seeds on a shared 2-vCPU host it spread 28 % (quartile distance
    # over median), more than the metric's bound.
    pooled_ms = sum(median_walls.values()) / sum(dies.values()) * 1e3
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "work_per_s": 1e3 / pooled_ms,
        "p50_ms": pooled_ms,
    }
    detail = {
        "rounds": rounds,
        "design_gates": {name: flow.num_gates
                         for name, flow in flows.items()},
        "spec_hashes": {arm: spec.spec_hash() for arm, spec in specs.items()},
        "calibrated_dies": dies,
        "ms_per_calibrated_die": per_die_ms,
        "population.dies_per_s": dies["population"]
        / median_walls["population"],
        "spatial.dies_per_s": dies["spatial"] / median_walls["spatial"],
        "lifetime.die_epochs_per_s": dies["lifetime"]
        / median_walls["lifetime"],
        "arm_walls_s": walls,
        "digest": sorted(digests),
    }
    return Measurement(metrics, tally, detail)


def _traced_sample(tracer: Tracer, tally: Tally, flow: FlowResult,
                   num_dies: int, model: ProcessModel, seed: int,
                   arm: str) -> MonteCarloResult:
    """``sample_dies`` through its layers: sampling in
    ``variation.sample``, the batched STA in ``sta.batched_verify``.
    Its betas must equal ``sample_dies``'s exactly."""
    with tracer.span("sta.batched_verify", key="sta.batched_verify_s",
                     op=arm):
        analyzer = TimingAnalyzer.for_placed(flow.placed)
        batched = BatchedTimingAnalyzer(analyzer)
        nominal = analyzer.critical_delay_ps()
    with tracer.span("variation.sample", key="variation.sample_s", op=arm):
        matrix = sample_scale_matrix(flow.placed, model,
                                     np.random.default_rng(seed), num_dies,
                                     batched.gate_names)
    with tracer.span("sta.batched_verify", key="sta.batched_verify_s",
                     op=arm):
        betas = batched.critical_delays(matrix) / nominal - 1.0
    reference = sample_dies(flow.placed, num_dies, model=model, seed=seed,
                            store_scales=False)
    tally.record(np.array_equal(reference.betas, betas),
                 f"calibrate {arm}: staged sampling differs from "
                 "sample_dies")
    samples = tuple(DieSample(index=index, beta=float(beta), gate_scales={})
                    for index, beta in enumerate(betas))
    return MonteCarloResult(samples=samples, nominal_delay_ps=nominal,
                            gate_names=batched.gate_names,
                            scale_matrix=matrix, engine="batched",
                            betas=betas)


@contextmanager
def _drift_spans(tracer: Tracer) -> Iterator[None]:
    """Time the drift trajectory where ``run_lifetime`` computes it: the
    ``row_betas_epochs`` it calls runs inside a ``variation.drift``
    span, so drift is computed once, as in the program."""
    row_betas_epochs = lifetime_module.row_betas_epochs

    def timed(*args, **kwargs):
        with tracer.span("variation.drift", key="variation.drift_s",
                         op="lifetime"):
            return row_betas_epochs(*args, **kwargs)

    lifetime_module.row_betas_epochs = timed
    try:
        yield
    finally:
        lifetime_module.row_betas_epochs = row_betas_epochs


def traced(seed: int, tracer: Tracer, tally: Tally,
           config: CalibrateConfig = CalibrateConfig()) -> dict[str, float]:
    """Per-layer breakdown of the three arms, with the same calls the
    ``population``/``spatial``/``lifetime`` executors make.
    ``tuning.lifetime_s`` is ``run_lifetime``'s wall less the drift it
    computes (``variation.drift_s``)."""
    _cache, flows = warm_cache()
    specs = arm_specs(seed, config)
    summaries = []

    spec = specs["population"]
    flow = flows[spec.design]
    population = _traced_sample(tracer, tally, flow, spec.num_dies,
                                ProcessModel(), spec.seed, "population")
    with tracer.span("tuning.population", key="tuning.population_s",
                     op="population"):
        controller = TuningController(flow.placed, flow.clib,
                                      max_clusters=spec.clusters,
                                      method=spec.method,
                                      grouping=spec.grouping)
        summary = controller.calibrate_population(
            population, beta_budget=spec.beta_budget)
    summaries.append(summary)
    tally.record(in_unit_interval(summary.yield_before, summary.yield_after)
                 and summary.yield_after >= summary.yield_before,
                 f"calibrate population: yields {summary.yield_before} -> "
                 f"{summary.yield_after}")

    spec = specs["spatial"]
    flow = flows[spec.design]
    population = _traced_sample(tracer, tally, flow, spec.num_dies,
                                spec.process_model(), spec.seed, "spatial")
    for arm, method, replica in (("spatial", spec.method, False),
                                 ("uniform", "single_bb", True)):
        with tracer.span(f"tuning.{arm}", key=f"tuning.{arm}_s",
                         op="spatial"):
            controller = TuningController(
                flow.placed, flow.clib, max_clusters=spec.clusters,
                method=method, max_iterations=4, sense_guard=0.01,
                grouping=spec.grouping if not replica else None)
            summary = tune_population(
                controller, population, beta_budget=spec.beta_budget,
                mode="spatial", num_regions=spec.num_regions,
                replica_sensor=replica)
        summaries.append(summary)
        tally.record(in_unit_interval(summary.yield_after)
                     and summary.yield_after >= summary.yield_before,
                     f"calibrate {arm}: yield {summary.yield_after}")

    spec = specs["lifetime"]
    flow = flows[spec.design]
    population = _traced_sample(tracer, tally, flow, spec.num_dies,
                                ProcessModel(), spec.seed, "lifetime")
    with tracer.span("tuning.lifetime", key="tuning.lifetime_s",
                     op="lifetime"), _drift_spans(tracer):
        controller = TuningController(flow.placed, flow.clib,
                                      max_clusters=spec.clusters,
                                      method=spec.method,
                                      grouping=spec.grouping)
        lifetime = run_lifetime(
            controller, population, None, epochs=spec.epochs,
            cadence=spec.cadence, beta_budget=spec.beta_budget,
            mode=spec.mode, num_regions=spec.num_regions, seed=spec.seed)
    tally.record(in_unit_interval(*lifetime.yield_curve())
                 and lifetime.recalibrations == spec.epochs,
                 f"calibrate lifetime: {lifetime.yield_curve()}")

    attempted = [record for summary in summaries
                 for record in summary.records
                 if record.status != "ok-unbiased"]
    recovered = sum(1 for record in attempted
                    if record.status == "recovered")
    metrics = {key: tracer.seconds[key] for key in (
        "variation.sample_s", "sta.batched_verify_s", "tuning.population_s",
        "tuning.spatial_s", "tuning.uniform_s", "variation.drift_s")}
    metrics.update({
        "tuning.lifetime_s": tracer.seconds["tuning.lifetime_s"]
        - tracer.seconds["variation.drift_s"],
        "tuning.dies_attempted": len(attempted),
        "tuning.iterations": sum(record.iterations for record in attempted),
        "tuning.recovered_ratio": recovered / max(len(attempted), 1),
        "lifetime.recalibrations": lifetime.recalibrations,
    })
    return metrics
