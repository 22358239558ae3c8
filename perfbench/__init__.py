"""The repository benchmark: three workloads and a traced per-layer run.

Entry point, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

``BENCHMARK.json`` at the root names the workloads and the metrics.
Every workload reports the same four end-to-end metrics, each in the
workload's own unit of work:

``setup_s``
    Median of three set-ups: generating the netlists (``flow-cold``),
    implementing the designs into a warm cache (``calibrate``), or
    starting the server and warming its hot set (``serve-mix``).
``peak_rss_mb``
    Peak resident set of the benchmark process after its first round
    (one pass over the workload), or of the server process for
    ``serve-mix``.
``work_per_s``
    ``flow-cold``: mapped gates per second of cold allocate wall.
    ``calibrate``: dies through the sense/allocate/verify loop per
    second (out-of-budget dies; every die of every lifetime epoch).
    ``serve-mix``: closed-loop hit requests per second.
``p50_ms``
    ``flow-cold``: median over the operations (four designs and the
    table1 row) of each one's median wall over the rounds.
    ``calibrate``: median over the three arms of wall per calibrated
    die.  ``serve-mix``: median over the 100 req/s open-loop windows of
    each window's median, requests timed from when they were due.

Tail percentiles are not end-to-end metrics: on a shared two-vCPU host
the open-loop p95 and p99 of ``serve-mix`` spread 40-64 % (quartile
distance over median, ten seeds), beyond any bound the benchmark may
set.  They are reported, with the other named figures, on the line
before the result.

The line before the result names the figures of each workload (for
example ``flow.gates_per_s`` or ``serve.heavy.p99_ms``) and carries a
digest of the stable payloads, so two commits can be compared for
bit-identity.  ``--trace 1`` runs the traced breakdown of all three
workloads and reports the per-layer metrics.
"""
