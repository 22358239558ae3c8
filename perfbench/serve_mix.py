"""``serve-mix``: the allocation service under an open- and closed-loop mix.

``repro-fbb serve --port 0 --port-file …`` runs as a child process.
Set-up starts it and warms a hot set of 18 allocate specs (c1355,
c3540 and c5315 × β ∈ {.05, .08, .10} × C ∈ {2, 3}).  Traffic is 90 %
hits from the hot set and 10 % warm-flow misses (fresh β in
[0.02, 0.12], C ∈ {2, 3}): an open loop at 100 req/s, another at
150 req/s, and a closed loop of hits on two connections.  Load comes
from this one process with two client threads, each on one connection
at a time.  Open-loop requests are timed from when they were due.

At 250 req/s the server (one event loop plus bridge threads sharing
the GIL, on two vCPUs shared with the client) sat at the knee of its
latency curve whenever the host slowed, and the open-loop median moved
from 2 ms to 500 ms between runs; 150 req/s keeps the heavy phase below
the knee.

β stays at or below 0.12: from about 0.14 these designs have no
feasible uniform bias, and the server answers ``InfeasibleError`` with
HTTP 500 rather than a 4xx.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from perfbench.common import (OUT_DIR, ROOT, Measurement, Tally, Tracer,
                              derive_seed, digest, is_finite_tree,
                              median_setup, percentile, process_peak_rss_mb)
from repro import api
from repro.flow.cache import ArtifactCache
from repro.flow.executor import ExecutionEngine
from repro.flow.parallel import stable_payload

HOT_DESIGNS = ("c1355", "c3540", "c5315")
HOT_BETAS = (0.05, 0.08, 0.10)
CLUSTER_CHOICES = (2, 3)
MISS_BETA_RANGE = (0.02, 0.12)
MISS_SHARE = 0.1
LIGHT_RATE = 100.0
HEAVY_RATE = 150.0
"""Open-loop request rates, req/s (see the module docstring for 150)."""
CLIENTS = 2
REQUEST_TIMEOUT_S = 30.0
FAILED_LATENCY_MS = REQUEST_TIMEOUT_S * 1e3
"""A failed request counts as the client timeout: over any limit."""
START_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServeConfig:
    """Traffic sizes; the defaults are the benchmark's, tests shrink
    them.

    The open-loop phases are cut into windows of ``window_requests``,
    and a closed-loop segment of ``closed_requests`` hits runs after
    every window.  Reported figures are medians over windows and
    segments, which spreads each figure over the whole run, so a stall
    of a few seconds on a shared host moves one window, not the figure.
    """

    light_windows: int = 6
    heavy_windows: int = 4
    window_requests: int = 250
    closed_requests: int = 300
    setup_repeats: int = 3


def hot_set() -> list[api.RunSpec]:
    return [api.RunSpec(design=design, beta=beta, clusters=clusters)
            for design in HOT_DESIGNS for beta in HOT_BETAS
            for clusters in CLUSTER_CHOICES]


def fresh_miss(rng: random.Random, used: set[float]) -> api.RunSpec:
    """An allocate spec with a β never drawn before (``used``), so it
    misses every cache."""
    beta = rng.uniform(*MISS_BETA_RANGE)
    while beta in used or beta in HOT_BETAS:
        beta = rng.uniform(*MISS_BETA_RANGE)
    used.add(beta)
    return api.RunSpec(design=rng.choice(HOT_DESIGNS), beta=beta,
                       clusters=rng.choice(CLUSTER_CHOICES))


def traffic(rng: random.Random, count: int, hot: list[api.RunSpec],
            used: set[float]) -> list[api.RunSpec]:
    """``count`` requests: hits drawn from ``hot``, fresh misses with
    probability :data:`MISS_SHARE`."""
    return [fresh_miss(rng, used) if rng.random() < MISS_SHARE
            else rng.choice(hot) for _ in range(count)]


class ServerProcess:
    """``repro-fbb serve`` in a child process, stopped on exit."""

    def __init__(self, tag: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.port_file = OUT_DIR / f"serve-{os.getpid()}-{tag}.port"
        self.log_path = OUT_DIR / f"serve-{os.getpid()}-{tag}.log"
        self.port_file.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--port-file", str(self.port_file)],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        self.port = 0
        try:
            self._wait_for_port()
        except BaseException:
            self.kill()
            raise

    def _wait_for_port(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: "
                    f"{self.log_path.read_text()[-2000:]}")
            try:
                text = self.port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                self.port = int(text)
                try:
                    if self.request("GET", "/healthz")[0] == 200:
                        return
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("server did not publish its port in time")

    def request(self, method: str, path: str,
                body: bytes | None = None) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            reply = connection.getresponse()
            return reply.status, reply.read()
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stats(self) -> dict:
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def shutdown(self) -> int:
        """``POST /shutdown`` and wait for the drain; returns the exit
        code (the process is killed if it does not exit in time)."""
        try:
            self.request("POST", "/shutdown", b"{}")
            code = self.process.wait(timeout=REQUEST_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
            return self.process.returncode
        finally:
            self.port_file.unlink(missing_ok=True)
        if code == 0:
            self.log_path.unlink(missing_ok=True)
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.process.poll() is None:
            self.shutdown()


@dataclass
class Outcome:
    """One request: when it was due, sent and answered, and the reply."""

    spec: api.RunSpec
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int | None = None
    body: bytes = b""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        return (self.done - self.sent) * 1e3


def drive(server: ServerProcess, specs: list[api.RunSpec],
          rate: float | None) -> tuple[list[Outcome], float]:
    """Send ``specs`` from :data:`CLIENTS` threads.  With a ``rate``,
    request ``i`` is due ``i / rate`` seconds after the start (open
    loop); without one each thread sends as soon as its last reply
    arrives (closed loop).  Returns outcomes in spec order and the
    wall time."""
    bodies = [spec.to_json().encode() for spec in specs]
    outcomes = [Outcome(spec, 0.0) for spec in specs]
    lock = threading.Lock()
    next_index = [0]
    start = time.perf_counter() + 0.05

    def client() -> None:
        while True:
            with lock:
                index = next_index[0]
                next_index[0] += 1
            if index >= len(specs):
                return
            outcome = outcomes[index]
            if rate is None:
                outcome.due = time.perf_counter()
            else:
                outcome.due = start + index / rate
                delay = outcome.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            outcome.sent = time.perf_counter()
            try:
                outcome.status, outcome.body = server.request(
                    "POST", "/run", bodies[index])
            except (OSError, http.client.HTTPException) as exc:
                outcome.body = repr(exc).encode()
            outcome.done = time.perf_counter()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, time.perf_counter() - began


def expected_payloads(specs: list[api.RunSpec]) -> dict[str, dict]:
    """In-process stable payloads for every distinct spec."""
    cache = ArtifactCache()
    expected: dict[str, dict] = {}
    for spec in specs:
        key = spec.spec_hash()
        if key not in expected:
            expected[key] = stable_payload(api.run(spec, cache=cache).payload)
    return expected


def check_outcome(tally: Tally, outcome: Outcome,
                  expected: dict[str, dict]) -> bool:
    """A served reply must be a 200 whose stable payload equals the
    in-process one, with timing met and every number finite."""
    ok = outcome.status == 200
    if ok:
        result = api.RunResult.from_json(outcome.body.decode())
        payload = stable_payload(result.payload)
        ok = (payload == expected[outcome.spec.spec_hash()]
              and payload["timing_ok"] is True
              and is_finite_tree(payload))
    return tally.record(ok, f"serve {outcome.spec.to_json()}: "
                        f"{outcome.status} {outcome.body[:200]!r}")


def start_warm_server(tag: str) -> ServerProcess:
    """Set-up: start a server and warm the hot set through HTTP."""
    server = ServerProcess(tag)
    try:
        for spec in hot_set():
            status, body = server.request("POST", "/run",
                                          spec.to_json().encode())
            if status != 200:
                raise RuntimeError(f"warm-up {spec.to_json()}: {status} "
                                   f"{body[:200]!r}")
    except BaseException:
        server.shutdown()
        raise
    return server


def _setup(config: ServeConfig) -> tuple[float, ServerProcess]:
    """Median-of-N set-up; every server but the last is shut down."""
    servers: list[ServerProcess] = []

    def one() -> ServerProcess:
        if servers:
            servers[-1].shutdown()
        servers.append(start_warm_server(f"setup{len(servers)}"))
        return servers[-1]

    try:
        return median_setup(config.setup_repeats, one)
    except BaseException:
        for server in servers:
            if server.process.poll() is None:
                server.shutdown()
        raise


def measure(seed: int, seconds: float,
            config: ServeConfig = ServeConfig()) -> Measurement:
    """The untraced workload: end-to-end metrics.  The phases have fixed
    request counts, so ``seconds`` does not change the run."""
    rng = random.Random(derive_seed(seed, "serve"))
    hot = hot_set()
    used: set[float] = set()
    plan = ([("light", LIGHT_RATE)] * config.light_windows
            + [("heavy", HEAVY_RATE)] * config.heavy_windows)
    windows = [traffic(rng, config.window_requests, hot, used)
               for _ in plan]
    closed = [[rng.choice(hot) for _ in range(config.closed_requests)]
              for _ in plan]
    setup_s, server = _setup(config)
    with server:
        opened, segments = [], []
        for (_phase, rate), window, segment in zip(plan, windows, closed):
            opened.append(drive(server, window, rate)[0])
            segments.append(drive(server, segment, None))
        stats = server.stats()
        server_rss_mb = server.peak_rss_mb()
        exit_code = server.shutdown()
    tally = Tally()
    tally.record(exit_code == 0, f"serve: server exited with {exit_code}")
    open_specs = [spec for window in windows for spec in window]
    expected = expected_payloads(hot + open_specs)
    latencies = [[outcome.latency_ms
                  if check_outcome(tally, outcome, expected)
                  else FAILED_LATENCY_MS for outcome in outcomes]
                 for outcomes in opened]
    for outcomes, _wall in segments:
        for outcome in outcomes:
            check_outcome(tally, outcome, expected)
    phase_ms = {phase: [ms for (name, _), window in zip(plan, latencies)
                        if name == phase for ms in window]
                for phase in ("light", "heavy")}
    closed_rps = statistics.median(len(outcomes) / wall
                                   for outcomes, wall in segments)
    light_p50_ms = [statistics.median(window)
                    for (phase, _), window in zip(plan, latencies)
                    if phase == "light"]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": server_rss_mb,
        "work_per_s": closed_rps,
        "p50_ms": statistics.median(light_p50_ms),
    }
    run_stats = stats["endpoints"]["run"]
    detail = {
        "design_gates": {payload["design"]: payload["gates"]
                         for payload in expected.values()},
        "open_loop_requests": len(open_specs),
        "misses_sent": len(used),
        "serve.light.p50_ms": statistics.median(phase_ms["light"]),
        "serve.light.p99_ms": percentile(phase_ms["light"], 99),
        "serve.heavy.p50_ms": statistics.median(phase_ms["heavy"]),
        "serve.heavy.p99_ms": percentile(phase_ms["heavy"], 99),
        "serve.closed_rps": closed_rps,
        "serve.generator_late_ms_max": max(
            (outcome.sent - outcome.due) * 1e3
            for outcomes in opened for outcome in outcomes),
        "server_run_requests": run_stats["requests"],
        "server_cache_hits": run_stats["cache_hits"],
        "server_cache_misses": run_stats["cache_misses"],
        "digest": digest([expected[spec.spec_hash()]
                          for spec in hot + open_specs]),
    }
    return Measurement(metrics, tally, detail)


def traced(seed: int, tracer: Tracer, tally: Tally,
           config: ServeConfig = ServeConfig()) -> dict[str, float]:
    """Per-layer view of the service: HTTP round trip, the server's hit
    and miss service times, and in-process cache hits and executor
    misses."""
    rng = random.Random(derive_seed(seed, "serve-trace"))
    hot = hot_set()
    used: set[float] = set()
    # one fresh miss at the end, so even a tiny window times a miss
    mixed = traffic(rng, config.window_requests, hot, used) \
        + [fresh_miss(rng, used)]
    with start_warm_server("trace") as server:
        roundtrip_ms = []
        for _ in range(200):
            started = time.perf_counter()
            with tracer.span("http.healthz", op="healthz"):
                status, _body = server.request("GET", "/healthz")
            roundtrip_ms.append((time.perf_counter() - started) * 1e3)
            tally.record(status == 200, f"serve /healthz answered {status}")
        with tracer.span("serve.open_loop", op="mixed"):
            outcomes, _ = drive(server, mixed, LIGHT_RATE)
        stats = server.stats()
        exit_code = server.shutdown()
    tally.record(exit_code == 0, f"serve: server exited with {exit_code}")
    expected = expected_payloads(hot + mixed)
    hits, misses = [], []
    for outcome in outcomes:
        if check_outcome(tally, outcome, expected):
            result = json.loads(outcome.body)
            (hits if result["cache_hit"] else misses).append(
                outcome.service_ms)
    run_stats = stats["endpoints"]["run"]
    by_kind = stats["cache"]["by_kind"]["run"]

    cache = ArtifactCache()
    for spec in hot:
        api.run(spec, cache=cache)
    hit_us = []
    for spec in hot * 20:
        started = time.perf_counter()
        with tracer.span("cache.hit", op="in-process"):
            result = api.run(spec, cache=cache)
        hit_us.append((time.perf_counter() - started) * 1e6)
        tally.record(result.cache_hit, "in-process hit missed the cache")
    miss_specs = [fresh_miss(rng, used) for _ in range(20)]
    miss_s = []
    with ExecutionEngine(cache=cache) as engine:
        for spec in miss_specs:
            started = time.perf_counter()
            with tracer.span("executor.miss", op="in-process"):
                result = engine.run_spec(spec)
            miss_s.append(time.perf_counter() - started)
            tally.record(not result.cache_hit
                         and result.payload["timing_ok"] is True,
                         f"executor miss {spec.to_json()}")
    return {
        "http.roundtrip_ms": statistics.median(roundtrip_ms),
        "cache.hit_us": statistics.median(hit_us),
        "executor.miss_s": statistics.median(miss_s),
        "serve.hit_ms_p50": statistics.median(hits),
        "serve.miss_ms_p50": statistics.median(misses),
        "serve.server_mean_ms": run_stats["latency"]["mean_s"] * 1e3,
        "cache.run_hit_ratio": by_kind["hits"]
        / (by_kind["hits"] + by_kind["misses"]),
        "serve.generator_late_ms_max": max(
            (outcome.sent - outcome.due) * 1e3 for outcome in outcomes),
    }
