"""One benchmark workload in one interpreter (started by ``run.py``).

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload bd_insights --seed 7 \\
        --seconds 10 --trace 0

Prints a human-readable table, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end set (:data:`END_TO_END`); with ``--trace 1``
they are the per-layer set (:data:`PER_LAYER`).  Exits 1 when any answer
differs from the stock CPU engine or, on seed 7, from the committed
baselines.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Optional, Sequence

import numpy as np

import repro.workloads.datagen as datagen
import repro.workloads.driver as driver_module
from repro.cli import _serving_slos
from repro.obs.bench import workload_classes
from repro.obs.serving import SweepPoint, SweepResult
from repro.timing import QueryProfile
from repro.workloads.cognos_rolap import cognos_rolap_queries
from repro.workloads.driver import ConcurrentDriver, WorkloadDriver

import layers

WORKLOADS = ("bd_insights", "rolap_sharded", "serving")
SCALE = 0.05
DEGREE = 48
#: Blocks (a fresh set-up, then timed work) per untraced run;
#: ``setup_s`` is the median of their set-ups.  ``serving`` takes its
#: per-query host samples from set-up, so it sets up in more windows.
SETUPS = {"bd_insights": 3, "rolap_sharded": 3, "serving": 6}
#: Timed samples needed before p90 has ten samples beyond it.
MIN_SAMPLES = 100
SESSIONS = (1, 8, 32, 128)
BASELINE_SEED = 7
BASELINE_DIR = os.path.join("benchmarks", "baselines")
TRACE_DIR = ".perfbench"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "query_host_ms.p50": "ms",
    "query_host_ms.p90": "ms",
    "host_qps": "1/s",
    "sim_total_ms": "ms",
    "sim_query_ms.p50": "ms",
    "sim_query_ms.p90": "ms",
    "sim_qph": "1/h",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Host times are self
#: times over the traced set-up and pass; counts cover the traced pass.
PER_LAYER = {
    **{f"{name}_s": "s" for name in layers.span_names()},
    **{metric: "count" for metric in layers.CALL_COUNTS.values()},
    "timing.cost_events": "count",
    "obs.spans": "count",
    "obs.recorder_events": "count",
    "core.path.gpu": "count",
    "core.path.cpu_small": "count",
    "core.path.cpu_large": "count",
    "core.path.partitioned": "count",
    "core.path.sharded": "count",
    "core.path.fused": "count",
    "core.offload_ratio": "ratio",
    "core.kernels_raced": "count",
    "core.kernels_cancelled": "count",
    "core.fault_fallbacks": "count",
    **{outcome: "ratio" for outcome in layers.OUTCOMES},
    "gpu.sim.h2d_bytes": "B",
    "gpu.sim.d2h_bytes": "B",
    "gpu.sim.kernel_launches": "count",
    "gpu.cache.hit_rate": "ratio",
    "gpu.cache.evictions": "count",
    "gpu.link.bytes": "B",
    "gpu.link.stall_s": "s",
    "sim.gpu_waits": "count",
    "sim.queue_wait_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

#: Monitor decision path -> per-layer path-count metric.
PATHS = {
    "gpu": "core.path.gpu",
    "cpu-small": "core.path.cpu_small",
    "cpu-large": "core.path.cpu_large",
    "gpu-partitioned": "core.path.partitioned",
    "gpu-sharded": "core.path.sharded",
    "gpu-fused": "core.path.fused",
    "cpu-fallback": "core.fault_fallbacks",
    "fused-degraded": "core.fault_fallbacks",
}


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p * n / 100 - 1e-9))


def samples_beyond(p: float, n: int) -> int:
    return n - rank(p, n)


def supported_percentile(n: int) -> Optional[float]:
    """Highest of p50/p90/p99/p99.9 with ten samples above it, if any."""
    best = None
    for p in (50, 90, 99, 99.9):
        if samples_beyond(p, n) >= 10:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of percentile ``p``.

    A beta-weighted mean of the order statistics around rank ``p * n``:
    unlike a nearest-rank pick it does not jump when the rank falls in a
    gap between query clusters (the ROLAP host times have one at p50).
    ``p`` must have at least ten samples beyond it.
    """
    top = supported_percentile(len(values))
    if top is None or p > top:
        raise ValueError(
            f"p{p:g} needs at least ten samples beyond it; "
            f"have {len(values)} samples")
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(np.dot(weights, x))


# ---------------------------------------------------------------------------
# Query workloads: bd_insights and rolap_sharded
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Pass:
    """One closed-loop pass over a workload's queries."""

    query_ids: list[str] = dataclasses.field(default_factory=list)
    host_ms: list[float] = dataclasses.field(default_factory=list)
    sim_ms: list[float] = dataclasses.field(default_factory=list)
    checksums: list[str] = dataclasses.field(default_factory=list)
    events: int = 0
    offloaded: int = 0

    @property
    def host_s(self) -> float:
        """Host seconds inside ``execute_sql``."""
        return sum(self.host_ms) / 1e3


@dataclasses.dataclass
class QuerySetup:
    driver: WorkloadDriver
    queries: list
    reference: dict[str, str]
    warm: Pass
    seconds: float


def build_driver(workload: str, seed: int, scale: float) -> WorkloadDriver:
    catalog = datagen.generate_database(scale=scale, seed=seed)
    if workload == "rolap_sharded":
        config = dataclasses.replace(
            datagen.scaled_config(catalog, gpus=4), shard_enabled=True)
        return WorkloadDriver(catalog, config, degree=DEGREE,
                              enable_join_offload=True)
    return WorkloadDriver(catalog, datagen.scaled_config(catalog),
                          degree=DEGREE)


def workload_queries(workload: str, driver: WorkloadDriver) -> list:
    if workload == "rolap_sharded":
        return cognos_rolap_queries()
    # Class order simple -> intermediate -> complex, as `repro bench`
    # runs them: the column cache makes the cold pass order-dependent.
    classes = workload_classes("bd_insights", driver)
    return [q for queries in classes.values() for q in queries]


def serial_sim_ms(profile: QueryProfile, config) -> float:
    """Simulated serial ms at the workload degree.

    Queries execute at ``WorkloadDriver.PROFILE_DEGREE`` and are priced
    at :data:`DEGREE` with every event's parallelism clamped, exactly as
    ``WorkloadDriver.elapsed_ms`` prices the committed baselines.
    """
    events = [
        dataclasses.replace(e, max_degree=min(e.max_degree, DEGREE))
        if e.max_degree > 1 else e
        for e in profile.events
    ]
    clamped = QueryProfile(profile.query_id, profile.gpu_enabled, events)
    return clamped.elapsed_serial(DEGREE, config.host) * 1e3


def run_pass(driver: WorkloadDriver, queries: list,
             reference: dict[str, str], tag: str, failures: list[str],
             log: Optional[layers.SpanLog] = None) -> Pass:
    """Execute every query once, one at a time, and check each answer."""
    engine = driver.gpu_engine
    out = Pass()
    for query in queries:
        qid = f"{tag}:{query.query_id}"
        if log is not None:
            log.query_id = qid
        began = time.perf_counter()
        try:
            result = engine.execute_sql(
                query.sql, query_id=qid,
                degree=WorkloadDriver.PROFILE_DEGREE)
        except Exception:
            failures.append(f"{qid} raised:\n{traceback.format_exc()}")
            continue
        out.host_ms.append((time.perf_counter() - began) * 1e3)
        checksum = driver_module.table_checksum(result.table)
        if checksum != reference[query.query_id]:
            failures.append(f"{qid}: checksum {checksum} != CPU engine "
                            f"{reference[query.query_id]}")
        out.query_ids.append(qid)
        out.checksums.append(checksum)
        out.sim_ms.append(serial_sim_ms(result.profile, driver.config))
        out.events += len(result.profile.events)
        out.offloaded += int(result.profile.offloaded)
    return out


def setup_queries(workload: str, seed: int, scale: float,
                  failures: list[str],
                  log: Optional[layers.SpanLog] = None) -> QuerySetup:
    """Datagen and stats, engines, CPU reference answers, warm-up pass."""
    start = time.perf_counter()
    driver = build_driver(workload, seed, scale)
    queries = workload_queries(workload, driver)
    reference = {}
    for query in queries:
        if log is not None:
            log.query_id = f"ref:{query.query_id}"
        table = driver.cpu_engine.execute_sql(
            query.sql, query_id=f"ref:{query.query_id}",
            degree=WorkloadDriver.PROFILE_DEGREE).table
        reference[query.query_id] = driver_module.table_checksum(table)
    warm = run_pass(driver, queries, reference, "warm", failures, log)
    return QuerySetup(driver, queries, reference, warm,
                      time.perf_counter() - start)


def check_bd_baseline(setup: QuerySetup, failures: list[str]) -> None:
    """The cold pass must reproduce ``BENCH_bd_insights.json``."""
    baseline = _load_json("BENCH_bd_insights.json")["queries"]
    cold = setup.warm
    got = {qid.split(":", 1)[1]: (round(ms, 6), checksum)
           for qid, ms, checksum in zip(cold.query_ids, cold.sim_ms,
                                        cold.checksums)}
    if sorted(got) != sorted(baseline):
        failures.append("cold pass query set differs from "
                        "BENCH_bd_insights.json")
        return
    for qid, (ms, checksum) in sorted(got.items()):
        want = baseline[qid]
        if (ms, checksum) != (want["elapsed_ms"], want["checksum"]):
            failures.append(
                f"{qid}: cold pass {ms} ms / {checksum} != "
                f"BENCH_bd_insights.json {want['elapsed_ms']} ms / "
                f"{want['checksum']}")


def query_workload(workload: str, seed: int, seconds: float, scale: float,
                   setups: int, failures: list[str]) -> tuple[dict, int]:
    """``setups`` blocks of set-up then timed passes, one engine each.

    Block ``b`` runs at least one pass and until the run has timed
    ``seconds * b / setups`` host seconds and ``MIN_SAMPLES * b / setups``
    queries.  Spreading the timed passes over the whole run averages more
    of the host's speed drift than timing them all at the end.  The simulated
    metrics come from each block's first timed pass: a fixed pass of a
    fresh engine, so they repeat exactly whatever the host speed.
    """
    setup_seconds, host_ms, sim_ms = [], [], []
    sim_total = 0.0
    pass_queries = attempted = 0
    for block in range(1, setups + 1):
        gc.collect()
        setup = setup_queries(workload, seed, scale, failures)
        setup_seconds.append(setup.seconds)
        attempted += len(setup.queries)
        if (workload == "bd_insights" and seed == BASELINE_SEED
                and scale == SCALE):
            check_bd_baseline(setup, failures)
        passes: list[Pass] = []
        while (not passes or sum(host_ms) / 1e3 < seconds * block / setups
               or len(host_ms) < MIN_SAMPLES * block / setups):
            passes.append(run_pass(setup.driver, setup.queries,
                                   setup.reference, f"pass{len(passes) + 1}",
                                   failures))
            attempted += len(setup.queries)
            host_ms += passes[-1].host_ms
        sim_ms += passes[0].sim_ms
        sim_total = sum(passes[0].sim_ms)
        pass_queries = len(passes[0].sim_ms)
        del setup, passes
    host_s = sum(host_ms) / 1e3
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "query_host_ms.p50": percentile(host_ms, 50),
        "query_host_ms.p90": percentile(host_ms, 90),
        "host_qps": len(host_ms) / host_s,
        "sim_total_ms": sim_total,
        "sim_query_ms.p50": percentile(sim_ms, 50),
        "sim_query_ms.p90": percentile(sim_ms, 90),
        "sim_qph": 3.6e6 * pass_queries / sim_total,
    }
    print(f"{workload}: {setups} blocks of set-up + timed passes, "
          f"{len(host_ms)} timed queries in {host_s:.3f} host s")
    return metrics, attempted


# ---------------------------------------------------------------------------
# serving: the closed-loop session ladder over the DES
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ServingSetup:
    driver: WorkloadDriver
    concurrent: ConcurrentDriver
    profile_ms: list[float]
    seconds: float


def setup_serving(seed: int, scale: float, failures: list[str],
                  log: Optional[layers.SpanLog] = None) -> ServingSetup:
    """Datagen and stats, engines, one profiling execution per query."""
    start = time.perf_counter()
    catalog = datagen.generate_database(scale=scale, seed=seed)
    config = datagen.scaled_config(catalog)
    driver = WorkloadDriver(catalog, config, degree=DEGREE)
    classes = workload_classes("bd_insights", driver)
    # The order `repro serve-bench` profiles in (sorted class names).
    queries = [q for name in sorted(classes) for q in classes[name]]
    profile_ms = []
    for query in queries:
        if log is not None:
            log.query_id = query.query_id
        began = time.perf_counter()
        driver.profile(query, gpu=True)
        profile_ms.append((time.perf_counter() - began) * 1e3)
    for query in queries:
        if log is not None:
            log.query_id = f"ref:{query.query_id}"
        gpu = driver.result_checksum(query, gpu=True)
        cpu = driver.result_checksum(query, gpu=False)
        if gpu != cpu:
            failures.append(f"{query.query_id}: checksum {gpu} != CPU "
                            f"engine {cpu}")
    concurrent = ConcurrentDriver(driver, queries, loops=1,
                                  think_seconds=0.0,
                                  slos=_serving_slos(config))
    return ServingSetup(driver, concurrent, profile_ms,
                        time.perf_counter() - start)


def run_ladder(setup: ServingSetup, sessions: Sequence[int],
               failures: list[str]) -> tuple[dict, float]:
    """Replay the session ladder; returns the runs and host seconds."""
    runs = {}
    start = time.perf_counter()
    for n in sessions:
        runs[n] = setup.concurrent.run(n)
    host_s = time.perf_counter() - start
    per_session = len(setup.concurrent.queries) * setup.concurrent.loops
    for n, run in runs.items():
        if run.requests != n * per_session:
            failures.append(f"{n} sessions: {run.requests} requests "
                            f"completed, expected {n * per_session}")
    return runs, host_s


def check_serving_baseline(setup: ServingSetup, runs: dict,
                           failures: list[str]) -> None:
    """The ladder must reproduce ``BENCH_serving_sweep.json``."""
    config = setup.driver.config
    sweep = SweepResult(
        workload="bd_insights", scale=SCALE, seed=BASELINE_SEED,
        degree=DEGREE, cache_fraction=config.cache_fraction,
        pipeline_depth=config.pipeline_depth,
        chunk_bytes=config.chunk_bytes, loops=1, think_seconds=0.0)
    for n, run in runs.items():
        sweep.points[n] = SweepPoint(
            sessions=n, requests=run.requests, makespan_s=run.makespan,
            throughput_per_hour=run.throughput_per_hour(),
            p50_ms=run.hist.p50 * 1e3, p99_ms=run.hist.p99 * 1e3,
            p999_ms=run.hist.p999 * 1e3, offload_ratio=run.offload_ratio(),
            max_queue_depth=run.sim.max_queue_depth(),
            queue_wait_s=run.queue_wait_seconds())
    want = _load_json("BENCH_serving_sweep.json")
    got = json.loads(sweep.to_json())
    if got != want:
        diff = [key for key in sorted(set(got["points"]) | set(want["points"]))
                if got["points"].get(key) != want["points"].get(key)]
        failures.append("serving ladder differs from BENCH_serving_sweep.json"
                        f" (session points {diff or 'config'})")


def serving_workload(seed: int, seconds: float, scale: float, setups: int,
                     sessions: Sequence[int],
                     failures: list[str]) -> tuple[dict, int]:
    """``setups`` blocks of set-up, each followed by ladder replays.

    Block ``b`` replays until the run's ladder host time reaches
    ``seconds * b / setups``, and the run replays at least two ladders:
    one ladder sits inside a single stretch of host speed drift, which
    moves its host time by up to 30 %.
    """
    setup_seconds, profile_ms, latency_ms = [], [], []
    host_s = sim_total = sim_qph = 0.0
    ladders = requests = attempted = 0
    for block in range(1, setups + 1):
        gc.collect()
        setup = setup_serving(seed, scale, failures)
        setup_seconds.append(setup.seconds)
        profile_ms += setup.profile_ms
        attempted += len(setup.profile_ms)
        while (host_s < seconds * block / setups
               or (block == setups and ladders < 2)):
            runs, ladder_s = run_ladder(setup, sessions, failures)
            if (not ladders and seed == BASELINE_SEED and scale == SCALE
                    and tuple(sessions) == SESSIONS):
                check_serving_baseline(setup, runs, failures)
            ladders += 1
            host_s += ladder_s
            requests = sum(run.requests for run in runs.values())
            attempted += requests
            # Every replay of a ladder is identical on the simulated clock.
            latency_ms = [r.elapsed * 1e3 for run in runs.values()
                          for r in run.sim.requests]
            sim_total = sum(run.makespan for run in runs.values()) * 1e3
            sim_qph = runs[max(runs)].throughput_per_hour()
            del runs
        del setup
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "query_host_ms.p50": percentile(profile_ms, 50),
        "query_host_ms.p90": percentile(profile_ms, 90),
        "host_qps": requests * ladders / host_s,
        "sim_total_ms": sim_total,
        "sim_query_ms.p50": percentile(latency_ms, 50),
        "sim_query_ms.p90": percentile(latency_ms, 90),
        "sim_qph": sim_qph,
    }
    print(f"serving: {setups} set-ups, {ladders} ladder replays of "
          f"sessions {list(sessions)} ({requests} requests each) in "
          f"{host_s:.3f} host s")
    return metrics, attempted


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def engine_marks(engine) -> dict:
    """Cumulative engine counters the traced pass is measured against."""
    cache = engine.cache_stats()
    links = engine.stats_snapshot()["interconnect"].values()
    counters = engine.monitor.counters
    return {
        "spans": len(engine.tracer.spans),
        "recorder": len(engine.recorder) + engine.recorder.dropped,
        "hits": sum(c["hits"] for c in cache),
        "misses": sum(c["misses"] for c in cache),
        "evictions": sum(c["evictions"] for c in cache),
        "link_bytes": sum(link["bytes_total"] for link in links),
        "link_stall": sum(link["stall_seconds"] for link in links),
        "raced": counters.kernels_raced,
        "cancelled": counters.kernels_cancelled,
    }


def engine_metrics(engine, before: dict, query_ids: Sequence[str],
                   events: int, offloaded: int) -> dict:
    """Engine-side counts over the GPU executions since ``before``."""
    after = engine_marks(engine)
    out = {name: 0 for name in set(PATHS.values())}
    for qid in query_ids:
        for decision in engine.monitor.decisions_for(qid):
            metric = PATHS.get(decision.path)
            if metric is not None:
                out[metric] += 1
    spans = engine.tracer.spans[before["spans"]:]
    lookups = ((after["hits"] - before["hits"])
               + (after["misses"] - before["misses"]))
    out.update({
        "timing.cost_events": events,
        "obs.spans": len(spans),
        "obs.recorder_events": after["recorder"] - before["recorder"],
        "core.offload_ratio": offloaded / len(query_ids) if query_ids else 0.0,
        "core.kernels_raced": after["raced"] - before["raced"],
        "core.kernels_cancelled": after["cancelled"] - before["cancelled"],
        "gpu.sim.h2d_bytes": sum(int(s.attributes.get("bytes", 0))
                                 for s in spans
                                 if s.name == "gpu.transfer_in"),
        "gpu.sim.d2h_bytes": sum(int(s.attributes.get("bytes", 0))
                                 for s in spans
                                 if s.name == "gpu.transfer_out"),
        "gpu.sim.kernel_launches": sum(1 for s in spans
                                       if s.name == "gpu.launch"),
        "gpu.cache.hit_rate": ((after["hits"] - before["hits"]) / lookups
                               if lookups else 0.0),
        "gpu.cache.evictions": after["evictions"] - before["evictions"],
        "gpu.link.bytes": after["link_bytes"] - before["link_bytes"],
        "gpu.link.stall_s": after["link_stall"] - before["link_stall"],
    })
    return out


def traced_query_workload(workload: str, seed: int, scale: float,
                          log: layers.SpanLog, failures: list[str]):
    setup = setup_queries(workload, seed, scale, failures, log)
    engine = setup.driver.gpu_engine
    before = engine_marks(engine)
    done = run_pass(setup.driver, setup.queries, setup.reference, "pass1",
                    failures, log)
    counts = engine_metrics(engine, before, done.query_ids, done.events,
                            done.offloaded)
    counts.update({"sim.gpu_waits": 0, "sim.queue_wait_s": 0.0})
    attempted = 2 * len(setup.queries)
    return setup.seconds, done.host_s, counts, attempted


def traced_serving(seed: int, scale: float, sessions: Sequence[int],
                   log: layers.SpanLog, failures: list[str]):
    setup = setup_serving(seed, scale, failures, log)
    engine = setup.driver.gpu_engine
    query_ids = [q.query_id for q in setup.concurrent.queries]
    profiles = [setup.driver.profile(q, gpu=True)
                for q in setup.concurrent.queries]
    counts = engine_metrics(
        engine, dict.fromkeys(engine_marks(engine), 0), query_ids,
        sum(len(p.events) for p in profiles),
        sum(int(p.offloaded) for p in profiles))
    log.query_id = ""
    runs, host_s = run_ladder(setup, sessions, failures)
    counts["sim.gpu_waits"] = sum(run.sim.gpu_waits for run in runs.values())
    counts["sim.queue_wait_s"] = sum(run.queue_wait_seconds()
                                     for run in runs.values())
    attempted = len(query_ids) + sum(run.requests for run in runs.values())
    return setup.seconds, host_s, counts, attempted


def traced_workload(workload: str, seed: int, scale: float,
                    sessions: Sequence[int],
                    failures: list[str]) -> tuple[dict, int]:
    """One traced set-up and pass (ladder on serving); per-layer metrics.

    ``trace.overhead_s`` is the number of spans times the measured cost
    of one wrapper (:func:`layers.wrapper_cost_s`).
    """
    log = layers.SpanLog()
    patcher = layers.Patcher()
    patcher.install(log)
    try:
        if workload == "serving":
            traced_setup, traced_pass, counts, attempted = traced_serving(
                seed, scale, sessions, log, failures)
        else:
            traced_setup, traced_pass, counts, attempted = \
                traced_query_workload(workload, seed, scale, log, failures)
    finally:
        patcher.remove()
    per_span_s = layers.wrapper_cost_s()
    metrics = {f"{name}_s": 0.0 for name in layers.span_names()}
    metrics.update({f"{name}_s": seconds
                    for name, seconds in log.self_times().items()})
    calls = log.call_counts()
    for span, metric in layers.CALL_COUNTS.items():
        metrics[metric] = calls.get(span, 0)
    for outcome in layers.OUTCOMES:
        metrics[outcome] = log.ratio(outcome)
    metrics.update(counts)
    metrics["trace.spans"] = len(log)
    metrics["trace.overhead_s"] = per_span_s * len(log)
    path = log.write_jsonl(os.path.join(
        TRACE_DIR, f"spans_{workload}_seed{seed}.jsonl"))
    print(f"{workload}: traced set-up {traced_setup:.3f} s + pass "
          f"{traced_pass:.3f} s; {len(log)} spans at "
          f"{per_span_s * 1e6:.3f} us each written to {path}")
    return metrics, attempted


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _load_json(name: str) -> dict:
    with open(os.path.join(BASELINE_DIR, name)) as f:
        return json.load(f)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = SCALE, setups: Optional[int] = None,
        sessions: Sequence[int] = SESSIONS) -> dict:
    """Run one workload; returns the result object printed last."""
    failures: list[str] = []
    setups = setups or SETUPS[workload]
    if trace:
        metrics, attempted = traced_workload(workload, seed, scale, sessions,
                                             failures)
        units = PER_LAYER
    else:
        if workload == "serving":
            metrics, attempted = serving_workload(seed, seconds, scale,
                                                  setups, sessions, failures)
        else:
            metrics, attempted = query_workload(workload, seed, seconds,
                                                scale, setups, failures)
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END
    for failure in failures:
        print(f"FAIL  {failure}")
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]:>16.6f} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
