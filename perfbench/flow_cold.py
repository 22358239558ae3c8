"""``flow-cold``: the design-time pass from a generated netlist, cold.

Each design gets a fresh ``ArtifactCache``, so nothing is memoized
between designs: ``implement(netlist)`` → ``build_problem(β=0.05)`` →
``single_bb`` + ``heuristic:row-descent`` at three clusters, on
``industrial_module`` netlists of about 12k, 24k and 48k gates made
from the workload seed, plus the 12k netlist again with the annealing
placer.  One cold ``table1`` row on c5315 adds the exact ILP (HiGHS).
The front end is most of this time; the calibration workload runs none
of it.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

from perfbench.common import (Measurement, Tally, Tracer, current_rss_mb,
                              derive_seed, digest, in_unit_interval,
                              is_finite_tree, median_setup, run_rounds)
from repro import api
from repro.circuits.industrial import industrial_module
from repro.core.problem import build_problem
from repro.core.single_bb import solve_single_bb
from repro.flow.cache import ArtifactCache
from repro.flow.design_flow import characterized_library, implement
from repro.flow.parallel import stable_payload
from repro.netlist.core import Netlist
from repro.placement.placer import place_design
from repro.sta.engine import TimingAnalyzer
from repro.sta.paths import extract_paths
from repro.synth.mapping import map_netlist
from repro.synth.sizing import size_for_load

BETA = 0.05
CLUSTERS = 3
METHOD = "heuristic:row-descent"
ANNEAL_OF = "12k"
"""The design implemented a second time with the annealing placer."""
COVERAGE_FLOOR = 0.95
"""Share of the untraced ``implement()``+solve wall the stage spans must
cover."""


@dataclass(frozen=True)
class FlowColdConfig:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    sizes: dict[str, int] = field(default_factory=lambda: {
        "12k": 12_000, "24k": 24_000, "48k": 48_000})
    """Design tag -> target mapped gates of the generated module."""
    table1_design: str = "c5315"
    setup_repeats: int = 3

    def designs(self) -> list[tuple[str, str, str]]:
        """(tag, netlist tag, placer) in run order."""
        ladder = [(tag, tag, "bfs") for tag in self.sizes]
        return ladder + [(f"{ANNEAL_OF}_anneal", ANNEAL_OF, "anneal:default")]


def generate_netlists(seed: int, config: FlowColdConfig
                      ) -> dict[str, Netlist]:
    """The workload's generated modules, one per size tag."""
    return {tag: industrial_module(f"ind{tag}", gates,
                                   seed=derive_seed(seed, f"netlist-{tag}"))
            for tag, gates in config.sizes.items()}


def netlist_fingerprint(netlist: Netlist) -> str:
    """Digest of a netlist's structure (gate functions and wiring)."""
    return digest(sorted((gate.name, gate.function, list(gate.inputs),
                          gate.output)
                         for gate in netlist.gates.values()))


def _allocation_payload(tag: str, placer: str, gates: int,
                        num_rows: int, paths: tuple, dcrit_ps: float,
                        problem, baseline, solution) -> dict:
    return {
        "design": tag,
        "placer": placer,
        "gates": gates,
        "rows": num_rows,
        "paths": len(paths),
        "dcrit_ps": dcrit_ps,
        "constraints": problem.num_constraints,
        "baseline_uw": baseline.leakage_uw,
        "leakage_uw": solution.leakage_uw,
        "levels": [int(level) for level in solution.levels],
        "timing_ok": bool(solution.is_timing_feasible
                          and problem.check_timing(solution.levels_array)
                          and baseline.is_timing_feasible),
    }


def cold_allocate(tag: str, netlist: Netlist, placer: str
                  ) -> tuple[dict, float]:
    """One design, cold: implement, build the problem, solve both ways.
    Returns the checked payload and the wall time."""
    cache = ArtifactCache()
    started = time.perf_counter()
    flow = implement(netlist, cache=cache, placer=placer)
    problem = build_problem(flow.placed, flow.clib, BETA,
                            analyzer=flow.analyzer, paths=list(flow.paths),
                            dcrit_ps=flow.dcrit_ps)
    baseline = solve_single_bb(problem)
    solution = api.solve(problem, METHOD, CLUSTERS)
    wall = time.perf_counter() - started
    payload = _allocation_payload(tag, placer, flow.num_gates,
                                  flow.num_rows, flow.paths, flow.dcrit_ps,
                                  problem, baseline, solution)
    return payload, wall


def table1_spec(config: FlowColdConfig) -> api.RunSpec:
    return api.RunSpec(kind="table1", design=config.table1_design,
                       beta=BETA)


def check_allocation(tally: Tally, payload: dict) -> None:
    tally.record(payload["timing_ok"] and is_finite_tree(payload)
                 and payload["gates"] > 0 and payload["paths"] > 0,
                 f"flow-cold {payload['design']}: failed check {payload}")


def check_table1(tally: Tally, payload: dict) -> None:
    savings = (list(payload["ilp_savings"].values())
               + list(payload["heuristic_savings"].values()))
    tally.record(is_finite_tree(payload) and None not in savings
                 and in_unit_interval(*(value / 100.0 for value in savings))
                 and payload["num_constraints"] > 0,
                 f"flow-cold table1: failed check {payload}")


def warm_up() -> None:
    """Run a 300-gate module through both placers once, so lazy imports
    and first-call set-up are not timed with the first design."""
    netlist = industrial_module("warmup", 300, seed=0)
    for placer in ("bfs", "anneal:default"):
        cold_allocate("warmup", netlist, placer)


def setup(seed: int, config: FlowColdConfig) -> dict[str, Netlist]:
    """Set-up: generate the workload's netlists and warm up the flow."""
    netlists = generate_netlists(seed, config)
    warm_up()
    return netlists


def measure(seed: int, seconds: float,
            config: FlowColdConfig = FlowColdConfig()) -> Measurement:
    """The untraced workload: end-to-end metrics."""
    setup_s, netlists = median_setup(config.setup_repeats,
                                     lambda: setup(seed, config))
    tally = Tally()
    walls: dict[str, list[float]] = {}
    gates: dict[str, int] = {}
    digests: set[str] = set()

    def one_round() -> None:
        payloads = []
        for tag, source, placer in config.designs():
            gc.collect()
            try:
                payload, wall = cold_allocate(tag, netlists[source], placer)
            except Exception as exc:  # an operation failure, counted
                tally.record(False, f"flow-cold {tag}: {exc!r}")
                continue
            check_allocation(tally, payload)
            walls.setdefault(tag, []).append(wall)
            gates[tag] = payload["gates"]
            payloads.append(payload)
        gc.collect()
        started = time.perf_counter()
        try:
            result = api.run(table1_spec(config), cache=ArtifactCache())
        except Exception as exc:
            tally.record(False, f"flow-cold table1: {exc!r}")
        else:
            walls.setdefault("table1", []).append(
                time.perf_counter() - started)
            check_table1(tally, result.payload)
            payloads.append(stable_payload(result.payload))
        digests.add(digest(payloads))

    rounds, rss_mb = run_rounds(seconds, one_round)
    if rounds > 1:
        tally.record(len(digests) == 1,
                     "flow-cold: payloads differ between rounds of one seed")
    if len(walls) != len(config.designs()) + 1:
        raise RuntimeError("flow-cold: an operation never completed")
    op_ms = {tag: statistics.median(values) * 1e3
             for tag, values in walls.items()}
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "work_per_s": sum(gates.values()) / sum(
            statistics.median(walls[tag]) for tag in gates),
        "p50_ms": statistics.median(op_ms.values()),
    }
    detail = {
        "rounds": rounds,
        "design_gates": gates,
        "flow.gates_per_s": metrics["work_per_s"],
        "table1.row_s": op_ms["table1"] / 1e3,
        "op_ms": op_ms,
        "walls_s": walls,
        "digest": sorted(digests),
    }
    return Measurement(metrics, tally, detail)


def traced(seed: int, tracer: Tracer, tally: Tally,
           config: FlowColdConfig = FlowColdConfig()) -> dict[str, float]:
    """Per-stage breakdown of every flow-cold operation.

    Each design runs once untraced through ``implement()`` (the
    reference wall and payload), then stage by stage through the same
    public functions ``implement`` calls, each in its own span, the
    per-cache library characterization included (``tech.clib_s`` sums
    it over the designs).  The staged run must reproduce the reference
    payload exactly (``dcrit_ps`` and path count included), and over all
    designs its stage spans must cover at least :data:`COVERAGE_FLOOR`
    of the untraced walls (``trace.flow_coverage``), so work that
    ``implement`` gains and the staged path leaves out fails the run.
    """
    metrics: dict[str, float] = {}
    netlists = setup(seed, config)
    staged_s = traced_s = reference_s = 0.0
    for tag, source, placer in config.designs():
        netlist = netlists[source]
        gc.collect()
        reference, reference_wall = cold_allocate(tag, netlist, placer)
        gc.collect()
        place_key = ("placement.anneal_s" if placer != "bfs"
                     else "placement.bfs_s")
        stage_keys = ["tech.clib_s"] + [f"{key}.{tag}" for key in (
            "synth.map_s", "synth.size_s", place_key, "sta.init_s",
            "sta.paths_s", "core.build_problem_s", "core.single_bb_s",
            "core.heuristic_s")]
        spans_before = sum(tracer.seconds[key] for key in stage_keys)
        keys = iter(stage_keys)
        started = time.perf_counter()
        with tracer.span("flow.design", op=tag):
            with tracer.span("tech.clib", key=next(keys), op=tag):
                clib = characterized_library(cache=ArtifactCache())
            library = clib.library
            with tracer.span("synth.map", key=next(keys), op=tag):
                mapped = map_netlist(netlist, library)
            with tracer.span("synth.size", key=next(keys), op=tag):
                size_for_load(mapped, library)
            with tracer.span(place_key[:-2], key=next(keys), op=tag):
                placed = place_design(mapped, library, placer=placer)
            with tracer.span("sta.init", key=next(keys), op=tag):
                analyzer = TimingAnalyzer.for_placed(placed)
            with tracer.span("sta.paths", key=next(keys), op=tag):
                paths = tuple(extract_paths(analyzer))
            metrics[f"flow.rss_mb.{tag}"] = current_rss_mb()
            dcrit_ps = paths[0].delay_ps
            with tracer.span("core.build_problem", key=next(keys), op=tag):
                problem = build_problem(placed, clib, BETA,
                                        analyzer=analyzer, paths=list(paths),
                                        dcrit_ps=dcrit_ps)
            with tracer.span("core.single_bb", key=next(keys), op=tag):
                baseline = solve_single_bb(problem)
            with tracer.span("core.heuristic", key=next(keys), op=tag):
                solution = api.solve(problem, METHOD, CLUSTERS)
        traced_wall = time.perf_counter() - started
        staged = _allocation_payload(tag, placer, mapped.num_gates,
                                     placed.num_rows, paths, dcrit_ps,
                                     problem, baseline, solution)
        check_allocation(tally, staged)
        tally.record(staged == reference,
                     f"flow-cold {tag}: staged run differs from "
                     f"implement(): dcrit {staged['dcrit_ps']} vs "
                     f"{reference['dcrit_ps']}, paths {staged['paths']} vs "
                     f"{reference['paths']}")
        staged_s += sum(tracer.seconds[key] for key in stage_keys) \
            - spans_before
        traced_s += traced_wall
        reference_s += reference_wall
        metrics[f"netlist.gates.{tag}"] = mapped.num_gates
        metrics[f"placement.rows.{tag}"] = placed.num_rows
        metrics[f"sta.paths.{tag}"] = len(paths)
        metrics[f"core.constraints.{tag}"] = problem.num_constraints
        for key in stage_keys:
            metrics[key] = tracer.seconds[key]
        del mapped, placed, analyzer, paths, problem, baseline, solution
    coverage = staged_s / reference_s
    tally.record(coverage >= COVERAGE_FLOOR,
                 f"flow-cold: stage spans cover only {coverage:.3f} of the "
                 "untraced implement()+solve wall")
    metrics["trace.flow_coverage"] = coverage
    metrics["trace.flow_overhead_s"] = traced_s - reference_s
    metrics.update(_traced_table1(config, tracer, tally))
    return metrics


def _traced_table1(config: FlowColdConfig, tracer: Tracer,
                   tally: Tally) -> dict[str, float]:
    """The table1 row through its layers; the ILP solves are
    ``ilp.highs_s``.  Must reproduce the untraced row exactly."""
    spec = table1_spec(config)
    gc.collect()
    reference = api.run(spec, cache=ArtifactCache()).payload
    check_table1(tally, reference)
    with tracer.span("flow.table1", op="table1"):
        with tracer.span("flow.implement", op="table1"):
            flow = implement(spec.design, cache=ArtifactCache())
        with tracer.span("core.build_problem", op="table1"):
            problem = build_problem(flow.placed, flow.clib, spec.beta,
                                    analyzer=flow.analyzer,
                                    paths=list(flow.paths),
                                    dcrit_ps=flow.dcrit_ps)
        with tracer.span("core.single_bb", op="table1"):
            baseline = solve_single_bb(problem)
        ilp, heuristic = {}, {}
        for clusters in spec.cluster_budgets:
            with tracer.span("ilp.highs", key="ilp.highs_s", op="table1"):
                solution = api.solve(problem, "ilp:highs", clusters,
                                     time_limit_s=spec.ilp_time_limit_s)
            ilp[str(clusters)] = solution.savings_vs(baseline.leakage_nw)
            with tracer.span("core.heuristic", op="table1"):
                solution = api.solve(problem, spec.method, clusters)
            heuristic[str(clusters)] = solution.savings_vs(
                baseline.leakage_nw)
    tally.record(ilp == reference["ilp_savings"]
                 and heuristic == reference["heuristic_savings"]
                 and problem.num_constraints == reference["num_constraints"],
                 f"flow-cold table1: staged row differs: {ilp} {heuristic} "
                 f"vs {reference}")
    return {"ilp.highs_s": tracer.seconds["ilp.highs_s"]}
