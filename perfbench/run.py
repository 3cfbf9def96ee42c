#!/usr/bin/env python3
"""Query benchmark for local SEA, Exact and Spark SEA.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload sea-local-twitter --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py``): ``sea-local-twitter``, ``exact-facebook``
and ``sea-spark-facebook``.  Each is a closed loop with one client and one
query in flight; the seed picks the queries and their SEA seeds.
``BENCHMARK.json`` lists the two local workloads only.  A Spark run takes
about 50 s of set-up (JVM, caching, a warm-up query) and 11-27 s per
query on a 4-core machine, so a run times only two queries and its median
moves by more than the largest bound between seeds; run it by hand.

With ``--trace 0`` the run sends queries for ``--seconds`` seconds with
tracing off and reports the end-to-end metrics.  With ``--trace 1`` it
sends each query twice, untraced and traced in alternating order, and
reports the per-layer metrics of the traced calls (``spans.py``) plus the
tracing overhead.  Between queries both modes time a fixed reference
kernel (``hostspeed.py``) and scale the end-to-end query times by it to a
host of nominal speed; the per-layer times are as measured.  Both modes
then check every answer outside the timed loop (``Workload.judge``); a
wrong answer makes the run exit with code 1.

stdout ends with two lines: a report with the run's context and every
metric (including the answer-quality metrics), then the result line
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
end-to-end ones (``--trace 0``) or the per-layer ones (``--trace 1``).
A layer that a workload does not reach reads 0.  ``failed`` counts queries
that raised or hit the Exact state cap; ``failed_frac`` in the report also
counts SEA answers with no community where Exact finds one.

Scratch files (Spark's local dirs, the span dump) go to ``.bench_work/``
in the checkout.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
MIN_QUERIES = 2  # timed queries per run, even when they outlast --seconds

# The result line's end-to-end metrics.  Their times are scaled by the
# run's host slowdown (hostspeed.py) to a host of nominal speed: the host's
# speed drifts about 1.6x for minutes at a time, and the plain throughput
# (wall_queries_per_s, report-only) moved 0.18-0.33 IQR/median over ten
# seeds with it, the median set-up time of ten Exact runs 0.57 s to 0.77 s.
# queries_per_s is the answered queries over the sum of their times;
# setup_s is the median over Workload.setup_repeats fresh processes.
END_TO_END = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "metrics.f_eval_ms": "ms",
    "metrics.f_nodes": "count",
    "metrics.norm_stats_ms": "ms",
    "core.sea.loop_ms": "ms",
    "core.sea.self_ms": "ms",
    "core.sea.gq_nodes": "count",
    "core.sea.sample_nodes": "count",
    "core.sea.candidates": "count",
    "core.sea.rounds": "count",
    "core.estimation.blb_calls": "count",
    "core.estimation.blb_ms": "ms",
    "graphs.local.peel_calls": "count",
    "graphs.local.peel_ms": "ms",
    "graphs.local.peel_us_per_call": "us",
    "graphs.local.kcore_calls": "count",
    "graphs.local.kcore_ms": "ms",
    "core.exact.states": "count",
    "core.exact.states_per_s": "1/s",
    "core.exact.dup_frac": "frac",
    "core.exact.pruned_unpromising": "count",
    "core.exact.self_ms": "ms",
    "spark_core.bfs_ms": "ms",
    "spark_core.bfs_jobs": "count",
    "spark.collect_ms": "ms",
    "spark.jobs_per_query": "count",
    "trace.query_ms": "ms",
    "trace.overhead_frac": "ratio",
    "sea.local_ref_ms": "ms",
    "spark.community_match_frac": "frac",
    "failed_frac": "frac",
    "satisfied_frac": "frac",
    "guarantee_miss_frac": "frac",
    "rel_err_p50": "frac",
}
REPORT_ONLY = {
    "query_p90_ms": "ms",
    "wall_queries_per_s": "1/s",
    "wall_setup_s": "s",
    "host_slowdown": "ratio",
}
P90_MIN_QUERIES = 100  # a p90 needs at least ten samples beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time as JSON and exit")
    return p.parse_args(argv)


def repeat_setups(args, n):
    """Set-up times of ``n`` fresh processes, run one after another.

    Set-up is mostly imports, which only a fresh process repeats; a single
    one moved 0.2-0.3 IQR/median between runs."""
    times = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=120, check=True,
        ).stdout
        times.append(json.loads(out.splitlines()[-1])["setup_s"])
    return times


def import_program():
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src}/repro not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def steps(items, seconds, first):
    """Yield the first ``first`` items, then the next ones while a step as
    long as the previous one would still end within ``seconds``.  A run
    thus never overshoots its time by a whole slow query, yet a Spark query
    (11-27 s, as long as the window) is timed more than once per run."""
    start = last = time.perf_counter()
    for i, item in enumerate(items):
        now = time.perf_counter()
        if i >= first and now - start + (now - last) > seconds:
            return
        last = now
        yield item


def run_plain(wl, seconds, speed):
    start = time.perf_counter()
    speed.sample()
    calls = []
    for q in steps(wl.queries, seconds, MIN_QUERIES):
        calls.append(wl.timed(q))
        speed.maybe_sample()
    return calls, time.perf_counter() - start


def run_traced(wl, seconds, tracer, speed):
    """Each query untraced and traced, alternating which goes first."""
    speed.sample()
    plain, traced, missing = [], [], []
    for i, q in enumerate(steps(wl.queries, seconds, MIN_QUERIES // 2)):  # two calls a step
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if not on:
                plain.append(wl.timed(q))
                continue
            with tracer.patched() as missing, tracer.query(len(traced)):
                traced.append(wl.timed(q))
        speed.maybe_sample()
    return plain, traced, missing


def same_answer(a, b) -> bool:
    if a.error is not None or b.error is not None:
        return (a.error is None) == (b.error is None)
    da = getattr(a.result, "delta_star", getattr(a.result, "delta", None))
    db = getattr(b.result, "delta_star", getattr(b.result, "delta", None))
    return a.result.community == b.result.community and da == db


def percentile(xs, p):
    import numpy as np

    return float(np.percentile(xs, p)) if xs else 0.0


def layer_metrics(plain, traced, tracer):
    """Per-query means of the traced calls' spans and result counters."""
    per_q = tracer.per_query()
    n = max(len(traced), 1)

    def total(name, key):
        return sum(per_q.get(i, {}).get(name, {}).get(key, 0.0) for i in range(len(traced)))

    def mean(name, key="self_ms"):
        return total(name, key) / n

    done = [c.result for c in traced if c.error is None]
    sea = [r for r in done if hasattr(r, "rounds")]
    exact = [r for r in done if hasattr(r, "states")]
    bulk = ("metrics.f_eval", "metrics.norm_stats", "spark_core.bfs", "spark.collect")
    query_ms = mean("query", "total_ms")
    peel_calls = total("graphs.local.peel", "calls")
    states = sum(r.states for r in exact)
    plain_ok = [c for c in plain if c.error is None]
    m = {
        "metrics.f_eval_ms": mean("metrics.f_eval"),
        "metrics.f_nodes": mean("metrics.f_eval", "rows"),
        "metrics.norm_stats_ms": mean("metrics.norm_stats"),
        "core.sea.loop_ms": query_ms - sum(mean(b) for b in bulk) if sea else 0.0,
        "core.sea.self_ms": mean("query") if sea else 0.0,
        "core.sea.gq_nodes": statistics.fmean(r.gq_size for r in sea) if sea else 0.0,
        "core.sea.sample_nodes": statistics.fmean(r.rounds[-1].n_sample for r in sea if r.rounds) if sea else 0.0,
        "core.sea.candidates": statistics.fmean(sum(x.n_candidates for x in r.rounds) for r in sea) if sea else 0.0,
        "core.sea.rounds": statistics.fmean(len(r.rounds) for r in sea) if sea else 0.0,
        "core.estimation.blb_calls": mean("core.estimation.blb", "calls"),
        "core.estimation.blb_ms": mean("core.estimation.blb"),
        "graphs.local.peel_calls": peel_calls / n,
        "graphs.local.peel_ms": mean("graphs.local.peel"),
        "graphs.local.peel_us_per_call": total("graphs.local.peel", "self_ms") * 1e3 / peel_calls if peel_calls else 0.0,
        "graphs.local.kcore_calls": mean("graphs.local.kcore", "calls"),
        "graphs.local.kcore_ms": mean("graphs.local.kcore"),
        "core.exact.states": states / n,
        # states over the untraced time of the same queries
        "core.exact.states_per_s": states / (sum(c.ms for c in plain_ok) / 1e3) if exact and plain_ok else 0.0,
        "core.exact.dup_frac": sum(r.pruned_duplicate for r in exact) / states if states else 0.0,
        "core.exact.pruned_unpromising": statistics.fmean(r.pruned_unpromising for r in exact) if exact else 0.0,
        "core.exact.self_ms": mean("query") if exact else 0.0,
        "spark_core.bfs_ms": mean("spark_core.bfs"),
        "spark_core.bfs_jobs": mean("spark_core.bfs", "jobs"),
        "spark.collect_ms": mean("spark.collect"),
        "spark.jobs_per_query": sum(total(name, "jobs") for name in _names(per_q)) / n,
        "trace.query_ms": query_ms,
        "trace.overhead_frac": (
            statistics.median(c.ms for c in traced) / statistics.median(c.ms for c in plain)
            if traced and plain else 0.0
        ),
    }
    self_ms = {name: mean(name) for name in sorted(_names(per_q))}
    return m, self_ms


def _names(per_q):
    return {name for spans in per_q.values() for name in spans}


def write_spans(tracer, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    t_base = tracer.spans[0].start if tracer.spans else 0.0
    with open(path, "w") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps([sp.query, sp.name, sp.parent, round((sp.start - t_base) * 1e3, 4),
                                 round((sp.end - sp.start) * 1e3, 4), sp.jobs, sp.rows]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    WORK.mkdir(exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")

    import numpy
    import pyspark
    from hostspeed import HostSpeed
    from spans import Tracer
    from workloads import WORKLOADS, prepare_fresh

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, WORK)
    try:
        wl.open(prepare_fresh(wl.dataset))
        # process start to the first timed query
        own_setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        setup_s = statistics.median([own_setup_s] + repeat_setups(args, wl.setup_repeats - 1))

        speed = HostSpeed()
        if args.trace:
            tracer = Tracer(wl.spark.sparkContext if wl.spark else None)
            plain, traced, missing = run_traced(wl, args.seconds, tracer, speed)
            calls = plain + traced
        else:
            plain, wall = run_plain(wl, args.seconds, speed)
            traced, missing, calls = [], [], plain

        verdict = wl.judge(plain)
        wrong = list(verdict.wrong)
        if args.trace:
            traced_by_q = {c.q: c for c in traced}
            wrong += [f"q={c.q}: traced answer differs from untraced"
                      for c in plain if not same_answer(c, traced_by_q[c.q])]
        failed = verdict.failed + (sum(c.error is not None for c in traced) if traced else 0)
        metrics = dict(verdict.quality)
        metrics["failed_frac"] = (verdict.failed + verdict.missed) / max(len(plain), 1)
        ok_ms = [c.ms for c in plain if c.error is None]
        # times scaled to a host of nominal speed (hostspeed.py)
        slowdown = speed.slowdown()
        metrics["host_slowdown"] = slowdown
        metrics["query_p50_ms"] = percentile(ok_ms, 50) / slowdown
        if len(ok_ms) >= P90_MIN_QUERIES:
            metrics["query_p90_ms"] = percentile(ok_ms, 90) / slowdown
        self_ms = {}
        if args.trace:
            layer, self_ms = layer_metrics(plain, traced, tracer)
            metrics.update(layer)
            write_spans(tracer, WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics["queries_per_s"] = len(ok_ms) / (sum(ok_ms) / 1e3) * slowdown if ok_ms else 0.0
            metrics["wall_queries_per_s"] = len(ok_ms) / wall
            metrics["peak_rss_mb"] = wl.peak_rss_mb()
        metrics["setup_s"] = setup_s / slowdown
        metrics["wall_setup_s"] = setup_s
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "queries": len(plain),
            "traced_queries": len(traced),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "pyspark": pyspark.__version__,
            "numpy": numpy.__version__,
            **wl.context(),
        }
    finally:
        wl.close()

    wanted = PER_LAYER if args.trace else END_TO_END
    units = {**END_TO_END, **PER_LAYER, **REPORT_ONLY}
    report = {
        "context": context,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
        "self_ms": self_ms,
        "unpatched": missing,
        "wrong": wrong,
    }
    result = {
        "correct": not wrong,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in wanted.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
