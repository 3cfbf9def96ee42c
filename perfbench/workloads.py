"""The benchmark's three query workloads and their correctness gate.

Each workload is a closed loop with one client and one query in flight.
Its inputs are the seeded dataset stand-ins of ``repro.experiments``:
the workload seed picks the queries with ``pick_queries`` and gives query
q the SEA seed ``seed + q``, as the experiment harness does.

* ``sea-local-twitter`` -- local ``sea_search`` on twitter (8 400 nodes),
  k=5, e=0.1, with ``NormStats`` from setup and no precomputed f, so f(.,q)
  over every node is inside the timed call.  f evaluation dominates; no
  Spark runs.
* ``exact-facebook`` -- ``exact_cs`` with all three prunings, k=4.  The
  per-state k-core maintenance dominates; f covers only the ~22-node root.
* ``sea-spark-facebook`` -- ``sea_search_spark`` on the cached facebook
  ``AttributedGraph``, k=5, e=0.1, after one untimed warm-up query.  The
  Spark BFS dominates and the driver loop rebuilds a ``LocalGraph`` per
  query, so per-graph preprocessing is paid per query here.  It is run by
  hand: ``BENCHMARK.json`` leaves it out (see ``run.py``).
"""
from __future__ import annotations

import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.core import SEAParams, exact_cs, sea_search, sea_search_spark
from repro.experiments import harness
from repro.graphs import datasets
from repro.graphs.local import maximal_connected_kcore
from repro.metrics import composite_distances_local, delta

SEA_E = 0.10
# No query of the seeded datasets at these k needs more than ~45k states;
# a query that reaches the cap counts as failed.
EXACT_MAX_STATES = 500_000
SPARK_DRIVER_MEMORY = "1g"
QUERY_POOL = 1000  # queries picked per run; a run stops at its time limit first
REL_TOL = 1e-9


@dataclass
class Call:
    """One query sent to the program."""

    q: int
    ms: float
    result: object = None
    error: Optional[str] = None


def prepare_fresh(name: str) -> harness.PreparedDataset:
    """Generate and prepare a dataset from scratch, bypassing the memo caches."""
    harness.prepare.cache_clear()
    for fn in vars(datasets).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    return harness.prepare(name)


class Workload:
    dataset: str
    k: int
    spark = None  # the SparkSession of a Spark workload
    setup_repeats = 5  # fresh processes whose set-up time setup_s takes the median of

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.prep: Optional[harness.PreparedDataset] = None
        self.queries: List[int] = []

    def open(self, prep: harness.PreparedDataset) -> None:
        """One-shot setup after the dataset is prepared."""
        self.prep = prep
        picked = harness.pick_queries(prep, self.k, QUERY_POOL, self.seed)
        self.queries = _round_robin(picked, prep.gen.communities)

    def call(self, q: int):
        raise NotImplementedError

    def timed(self, q: int) -> Call:
        """Send one query; an exception is recorded and the loop goes on."""
        t = time.perf_counter()
        try:
            r = self.call(q)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Call(q, (time.perf_counter() - t) * 1e3, error=traceback.format_exc(limit=1))
        ms = (time.perf_counter() - t) * 1e3
        r.fvals = {}  # keep memory independent of the number of queries run
        return Call(q, ms, r)

    def judge(self, calls: List[Call]) -> "Verdict":
        raise NotImplementedError

    def context(self) -> Dict[str, object]:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


@dataclass
class Verdict:
    """Outcome of the correctness gate and the quality metrics."""

    wrong: List[str]
    failed: int  # raised or hit the Exact cap
    missed: int  # SEA returned no community where Exact finds one
    quality: Dict[str, float]


def _is_connected_kcore(g, q: int, k: int, comm) -> bool:
    return q in comm and maximal_connected_kcore(g, q, k, within=set(comm)) == set(comm)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


class SeaWorkload(Workload):
    """Shared judge of the two SEA front ends against Exact's δ."""

    def params(self, q: int) -> SEAParams:
        return SEAParams(k=self.k, gamma=self.prep.gamma, e=SEA_E, seed=self.seed + q)

    def judge(self, calls: List[Call]) -> Verdict:
        g, k = self.prep.graph, self.k
        wrong: List[str] = []
        failed = missed = satisfied = beyond_e = 0
        rel_errs: List[float] = []
        for c in calls:
            if c.error is not None:
                failed += 1
                continue
            r = c.result
            gt = exact_cs(g, c.q, k, gamma=self.prep.gamma, stats=self.prep.stats,
                          max_states=EXACT_MAX_STATES)
            if gt.capped:
                wrong.append(f"q={c.q}: Exact ground truth hit the state cap")
                continue
            comm = r.community
            if not comm:
                missed += gt.community is not None
                continue
            if not _is_connected_kcore(g, c.q, k, comm):
                wrong.append(f"q={c.q}: SEA community is not a connected {k}-core with q")
                continue
            if gt.community is None:
                wrong.append(f"q={c.q}: SEA found a community, Exact found none")
                continue
            d_sea = delta(gt.fvals, comm, c.q)
            if not _close(r.delta_star, d_sea):
                wrong.append(f"q={c.q}: delta*={r.delta_star!r} but delta(H)={d_sea!r}")
            if gt.delta > d_sea * (1 + REL_TOL):
                wrong.append(f"q={c.q}: Exact delta {gt.delta!r} > SEA delta {d_sea!r}")
            rel = harness.relative_error(r.delta_star, gt.delta)
            if rel is not None:
                rel_errs.append(rel)
            if r.satisfied:
                satisfied += 1
                beyond_e += rel is not None and rel > SEA_E
        n = max(len(calls), 1)
        quality = {
            "satisfied_frac": satisfied / n,
            "guarantee_miss_frac": beyond_e / satisfied if satisfied else 0.0,
            "rel_err_p50": _median(rel_errs),
        }
        return Verdict(wrong, failed, missed, quality)


class SeaLocalTwitter(SeaWorkload):
    dataset, k = "twitter", 5

    def call(self, q: int):
        return sea_search(self.prep.graph, q, self.params(q), stats=self.prep.stats)


class ExactFacebook(Workload):
    dataset, k = "facebook", 4

    def call(self, q: int):
        return exact_cs(self.prep.graph, q, self.k, gamma=self.prep.gamma,
                        stats=self.prep.stats, max_states=EXACT_MAX_STATES)

    def judge(self, calls: List[Call]) -> Verdict:
        g, k, p = self.prep.graph, self.k, self.prep
        wrong: List[str] = []
        failed = 0
        for c in calls:
            if c.error is not None or c.result.capped:
                failed += 1
                continue
            comm = c.result.community
            if not comm or not _is_connected_kcore(g, c.q, k, comm):
                wrong.append(f"q={c.q}: Exact community is not a connected {k}-core with q")
                continue
            root = maximal_connected_kcore(g, c.q, k)
            f = composite_distances_local(g, c.q, p.gamma, p.stats, nodes=root)
            if not _close(c.result.delta, delta(f, comm, c.q)):
                wrong.append(f"q={c.q}: delta={c.result.delta!r} but delta(H)={delta(f, comm, c.q)!r}")
            if c.result.delta > delta(f, root, c.q) * (1 + REL_TOL):
                wrong.append(f"q={c.q}: Exact community is worse than the k-core root")
        return Verdict(wrong, failed, 0, {})


class SeaSparkFacebook(SeaWorkload):
    dataset, k = "facebook", 5
    setup_repeats = 1  # a set-up starts a JVM and runs a warm-up query: ~50 s

    def open(self, prep: harness.PreparedDataset) -> None:
        super().open(prep)
        self.spark = _start_spark(self.work)
        from repro.graphs import AttributedGraph

        self.graph = AttributedGraph.from_local(self.spark, prep.graph).cache()
        self.graph.num_nodes()
        self.graph.num_edges()
        warm = self.queries.pop()  # never timed
        sea_search_spark(self.graph, warm, self.params(warm))

    def call(self, q: int):
        return sea_search_spark(self.graph, q, self.params(q))

    def judge(self, calls: List[Call]) -> Verdict:
        v = super().judge(calls)
        done = [c for c in calls if c.error is None]
        ref_ms, match = [], 0
        for c in done:
            t = time.perf_counter()
            r = sea_search(self.prep.graph, c.q, self.params(c.q), stats=self.prep.stats)
            ref_ms.append((time.perf_counter() - t) * 1e3)
            match += (r.community or set()) == (c.result.community or set())
        v.quality["sea.local_ref_ms"] = _median(ref_ms)
        v.quality["spark.community_match_frac"] = match / len(done) if done else 0.0
        return v

    def context(self) -> Dict[str, object]:
        sc = self.spark.sparkContext
        return {
            "spark_master": sc.master,
            "spark_driver_memory": SPARK_DRIVER_MEMORY,
            "spark_shuffle_partitions": self.spark.conf.get("spark.sql.shuffle.partitions"),
        }

    def peak_rss_mb(self) -> float:
        """Driver Python plus the JVM's high-water RSS."""
        proc = self.spark.sparkContext._gateway.proc
        status = Path(f"/proc/{proc.pid}/status").read_text()
        hwm_kb = next(int(l.split()[1]) for l in status.splitlines() if l.startswith("VmHWM:"))
        return super().peak_rss_mb() + hwm_kb / 1024.0

    def close(self) -> None:
        if self.spark is not None:
            _stop_spark(self.spark)


def _start_spark(work: Path):
    """A local session configured like the test fixture.

    The JVM's console output goes to stderr, and its scratch files stay in
    ``work``, so stdout carries only the benchmark's own lines.
    """
    from pyspark import SparkConf, SparkContext
    from pyspark.java_gateway import launch_gateway
    from pyspark.sql import SparkSession

    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java_opts = f"-XX:+UseSerialGC -XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    for var in ("PYSPARK_GATEWAY_PORT", "PYSPARK_GATEWAY_SECRET"):
        os.environ.pop(var, None)
    cores = min(4, os.cpu_count() or 1)
    conf = SparkConf().setMaster(f"local[{cores}]").setAppName("perfbench").setAll([
        ("spark.driver.memory", SPARK_DRIVER_MEMORY),
        ("spark.driver.host", "127.0.0.1"),
        ("spark.driver.extraJavaOptions", java_opts),
        ("spark.local.dir", str(work / "spark-local")),
        ("spark.sql.warehouse.dir", str(work / "warehouse")),
        ("spark.sql.shuffle.partitions", "64"),
        ("spark.sql.autoBroadcastJoinThreshold", "-1"),
        ("spark.sql.execution.arrow.pyspark.enabled", "true"),
        ("spark.ui.enabled", "false"),
        ("spark.ui.showConsoleProgress", "false"),
    ])
    gateway = launch_gateway(conf, popen_kwargs={"stdout": sys.stderr.fileno()})
    sc = SparkContext(conf=conf, gateway=gateway)
    sc.setLogLevel("ERROR")
    return SparkSession.builder.getOrCreate()


def _stop_spark(spark) -> None:
    """Stop the session and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except Exception:
        proc.kill()
        proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def _round_robin(queries: List[int], community: Dict[int, int]) -> List[int]:
    """Interleave the queries over their planted communities, keeping the
    picked order within each, so that a run which ends after a prefix of
    the list has sampled the communities evenly: per-query cost varies far
    more between communities than within one."""
    groups: Dict[int, List[int]] = {}
    for q in queries:
        groups.setdefault(community[q], []).append(q)
    rounds = max(len(g) for g in groups.values())
    return [g[i] for i in range(rounds) for g in groups.values() if i < len(g)]


def _median(xs: List[float]) -> float:
    if not xs:
        return 0.0
    s = sorted(xs)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2


WORKLOADS = {
    "sea-local-twitter": SeaLocalTwitter,
    "exact-facebook": ExactFacebook,
    "sea-spark-facebook": SeaSparkFacebook,
}
