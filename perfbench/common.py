"""Shared pieces of the benchmark: seeds, statistics, checks, tracing.

Every workload module returns a :class:`Measurement`; ``run.py`` turns
it into the result line.  Nothing here imports the library under test,
so ``run.py`` can refuse to start before ``src/`` is on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
"""The checkout the benchmark runs in (the parent of ``perfbench/``)."""

OUT_DIR = ROOT / ".perfbench"
"""Run artefacts: server port files and logs, trace files."""


def derive_seed(seed: int, tag: str) -> int:
    """A stable 32-bit child seed of the workload seed for one input."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).hexdigest()
    return int(digest[:8], 16)


def digest(value: Any) -> str:
    """sha256 of canonical JSON: equal digests mean bit-identical
    payloads (floats are written with all their digits)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def is_finite_tree(value: Any) -> bool:
    """True when every number inside a JSON-like value is finite."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(is_finite_tree(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return all(is_finite_tree(item) for item in value)
    return False


def in_unit_interval(*values: float | None) -> bool:
    return all(value is not None and 0.0 <= value <= 1.0
               for value in values)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size, MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def _status_field_mb(pid: int | str, name: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(name + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no {name}")


def current_rss_mb() -> float:
    """This process's resident set size now, MB."""
    return _status_field_mb("self", "VmRSS")


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another live process, MB."""
    return _status_field_mb(pid, "VmHWM")


def median_setup(repeats: int, setup: Callable[[], Any]
                 ) -> tuple[float, Any]:
    """Run ``setup`` ``repeats`` times; return the median wall and the
    last result (earlier results are dropped)."""
    walls = []
    result = None
    for _ in range(repeats):
        result = None
        started = time.perf_counter()
        result = setup()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls), result


def run_rounds(seconds: float, one_round: Callable[[], None]
               ) -> tuple[int, float]:
    """Repeat whole rounds while at least half of another one fits in
    ``seconds`` (so about ``seconds / round`` rounds, at least one).

    Returns the number of rounds and the peak RSS read after the first
    round: the peak of one pass over the workload, whatever the number
    of rounds a host's speed allows."""
    started = time.perf_counter()
    walls: list[float] = []
    first_round_rss_mb = 0.0
    while True:
        round_started = time.perf_counter()
        one_round()
        walls.append(time.perf_counter() - round_started)
        if len(walls) == 1:
            first_round_rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - started
        if elapsed + statistics.mean(walls) / 2 > seconds:
            return len(walls), first_round_rss_mb


@dataclass
class Tally:
    """Checked operations: each records one pass or one failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class Measurement:
    """What one workload run hands back to ``run.py``."""

    metrics: dict[str, float]
    tally: Tally
    detail: dict[str, Any]


class Tracer:
    """Spans around the benchmark's own calls into the library.

    Spans stay in memory; :meth:`write` emits Chrome trace-event JSON
    (opens in Perfetto or chrome://tracing).  Each span records its
    parent span's name, and ``op`` names the operation (design, arm or
    request) that all of its spans belong to.  Durations are also summed
    per metric ``key`` for the per-layer report.
    """

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self._stack: list[str] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, key: str | None = None,
             **args: Any) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self._stack.pop()
            self.events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (started - self._origin) * 1e6,
                "dur": (ended - started) * 1e6,
                "pid": os.getpid(), "tid": threading.get_native_id(),
                "args": {"parent": parent, **args}})
            if key is not None:
                self.seconds[key] += ended - started

    def write(self, path: Path, metadata: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"traceEvents": self.events, "displayTimeUnit": "ms",
                    "otherData": metadata}
        path.write_text(json.dumps(document))


def _git_sha() -> str | None:
    """HEAD commit read from ``.git`` directly (no subprocess); None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content: identifies
    the code under test when the checkout carries no git metadata."""
    hasher = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def environment(workload: str, seed: int, trace: bool) -> dict:
    """The record every run prints next to its metrics."""
    import numpy
    import scipy
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
