"""Per-layer host-time tracing from outside the program.

The traced run installs wrappers on the attributes the program's callers
look up at call time (a module global such as
``repro.blu.catalog.compute_column_stats``, or a class attribute such as
``HybridGroupByExecutor.__call__``).  Each wrapped call records one span
in memory: name, start, end, parent span and the query id the benchmark
is running.  Nothing under ``src/`` changes; removing the wrappers puts
back every original attribute object.

A layer's *self time* is its span's duration minus the time covered by
its child spans, so the per-layer seconds add up to (at most) the traced
wall time without double counting nested layers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from typing import Callable, Optional

# (module, attribute path, span name, outcome key).  The span name plus
# "_s" is the reported self-time metric.  An outcome key names a ratio
# metric fed by the wrapped call's return value (see OUTCOMES).
TARGETS: tuple[tuple[str, str, str, Optional[str]], ...] = (
    ("repro.workloads.datagen", "generate_database", "datagen.generate", None),
    ("repro.blu.catalog", "compute_column_stats", "blu.stats", None),
    ("repro.blu.sql", "parse_query", "blu.parse", None),
    ("repro.blu.optimizer", "Optimizer.annotate", "blu.optimize", None),
    ("repro.core.accelerator", "GpuAcceleratedEngine.execute_sql",
     "blu.engine_self", None),
    ("repro.blu.engine", "BluEngine.execute_sql", "blu.engine_self", None),
    # The stock CPU chain, as the engine's plan walk and the fused path
    # look it up.
    ("repro.blu.engine", "execute_scan", "blu.ops.scan", None),
    ("repro.gpu.fusion", "execute_scan", "blu.ops.scan", None),
    ("repro.blu.engine", "execute_join", "blu.ops.join", None),
    ("repro.blu.engine", "execute_groupby_cpu", "blu.ops.groupby", None),
    ("repro.blu.engine", "execute_sort_cpu", "blu.ops.sort", None),
    ("repro.blu.engine", "execute_project", "blu.ops.other", None),
    ("repro.blu.engine", "execute_rank", "blu.ops.other", None),
    ("repro.blu.engine", "execute_limit", "blu.ops.other", None),
    # Hybrid executors and path selection.
    ("repro.core.hybrid_groupby", "HybridGroupByExecutor.__call__",
     "core.groupby", None),
    ("repro.core.hybrid_sort", "HybridSortExecutor.__call__",
     "core.sort", None),
    ("repro.core.hybrid_sort", "HybridSortExecutor.rank_order",
     "core.sort", None),
    ("repro.core.hybrid_join", "HybridJoinExecutor.__call__",
     "core.join", None),
    ("repro.core.hybrid_groupby", "select_groupby_path",
     "core.pathselect", None),
    ("repro.gpu.fusion", "select_groupby_path", "core.pathselect", None),
    ("repro.gpu.fusion", "select_fused_path", "core.pathselect",
     "gpu.fusion.fused_ratio"),
    ("repro.core.hybrid_groupby", "select_partitioned_path",
     "core.pathselect", "gpu.partition.accepted_ratio"),
    ("repro.core.hybrid_sort", "select_partitioned_path",
     "core.pathselect", "gpu.partition.accepted_ratio"),
    ("repro.core.hybrid_groupby", "select_sharded_path",
     "core.pathselect", "gpu.shard.accepted_ratio"),
    ("repro.core.hybrid_sort", "select_sharded_path",
     "core.pathselect", "gpu.shard.accepted_ratio"),
    ("repro.core.hybrid_join", "select_sharded_path",
     "core.pathselect", "gpu.shard.accepted_ratio"),
    ("repro.core.hybrid_sort", "select_sort_offload",
     "core.pathselect", None),
    ("repro.core.moderator", "GpuModerator.choose", "core.moderator", None),
    ("repro.core.moderator", "GpuModerator.run", "core.moderator", None),
    # GPU planners and kernels.
    ("repro.gpu.fusion", "FusedExecutor.__call__", "gpu.fusion", None),
    ("repro.core.hybrid_groupby", "plan_groupby_partitions",
     "gpu.partition.plan", None),
    ("repro.core.hybrid_sort", "plan_sort_partitions",
     "gpu.partition.plan", None),
    ("repro.core.hybrid_groupby", "plan_sharded", "gpu.shard.plan", None),
    ("repro.core.hybrid_sort", "plan_sharded", "gpu.shard.plan", None),
    ("repro.core.hybrid_join", "plan_sharded", "gpu.shard.plan", None),
    ("repro.gpu.streams", "plan_pipeline", "gpu.streams.plan", None),
    ("repro.gpu.kernels.groupby_regular", "RegularGroupByKernel.run",
     "gpu.kernel.groupby", None),
    ("repro.gpu.kernels.groupby_shared", "SharedMemoryGroupByKernel.run",
     "gpu.kernel.groupby", None),
    ("repro.gpu.kernels.groupby_biglock", "GlobalLockGroupByKernel.run",
     "gpu.kernel.groupby", None),
    ("repro.gpu.kernels.radix_sort", "RadixSortKernel.run",
     "gpu.kernel.sort", None),
    ("repro.gpu.kernels.join", "HashJoinKernel.run", "gpu.kernel.join", None),
    # The serving simulation and its telemetry.
    ("repro.sim.simulator", "WorkloadSimulator.run", "sim.run", None),
    ("repro.sim.resources", "ProcessorSharingPool.progress",
     "sim.pool_progress", None),
    ("repro.workloads.driver", "build_serving_run", "obs.serving_build",
     None),
    ("repro.workloads.driver", "table_checksum", "checksum", None),
)

#: How a ratio metric reads "accepted" off the wrapped call's result.
OUTCOMES: dict[str, Callable[[object], bool]] = {
    "gpu.fusion.fused_ratio": lambda decision: bool(decision.fuse),
    "gpu.partition.accepted_ratio": lambda decision: bool(decision.partition),
    "gpu.shard.accepted_ratio": lambda decision: bool(decision.shard),
}

#: Span names whose call counts are reported as their own metric.
CALL_COUNTS = {
    "blu.stats": "blu.stats_columns",
    "sim.pool_progress": "sim.pool_progress_calls",
}

#: Calls per timing, and alternating bare/wrapped timings, that measure
#: what one wrapper adds to a call (:func:`wrapper_cost_s`).
COST_CALLS = 20_000
COST_REPEATS = 7


def span_names() -> list[str]:
    """Every span name the targets record, in first-seen order."""
    return list(dict.fromkeys(name for _m, _a, name, _o in TARGETS))


class SpanLog:
    """In-memory span store plus per-outcome tallies."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.query_ids: list[str] = []
        self.outcomes: dict[str, list[int]] = {}
        self.query_id = ""
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, fn: Callable, name: str,
             outcome: Optional[str] = None) -> Callable:
        """``fn`` with every call recorded as one span named ``name``."""
        log = self
        accepted = OUTCOMES[outcome] if outcome else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(log.names)
            log.names.append(name)
            log.parents.append(log._stack[-1] if log._stack else -1)
            log.query_ids.append(log.query_id)
            log.ends.append(0.0)
            log._stack.append(index)
            log.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ends[index] = time.perf_counter()
                log._stack.pop()
            if accepted is not None:
                tally = log.outcomes.setdefault(outcome, [0, 0])
                tally[0] += 1
                tally[1] += int(accepted(result))
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = {}
        for i, name in enumerate(self.names):
            own = self.ends[i] - self.starts[i] - child_time[i]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def call_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for name in self.names:
            counts[name] = counts.get(name, 0) + 1
        return counts

    def ratio(self, outcome: str) -> float:
        attempts, accepted = self.outcomes.get(outcome, (0, 0))
        return accepted / attempts if attempts else 0.0

    def write_jsonl(self, path: str) -> str:
        """One JSON line per span; times in seconds from the first span."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({
                    "name": name,
                    "start": round(self.starts[i] - origin, 9),
                    "end": round(self.ends[i] - origin, 9),
                    "parent": self.parents[i],
                    "query_id": self.query_ids[i],
                }) + "\n")
        return path


def wrapper_cost_s() -> float:
    """Host seconds one wrapper adds to one call; never negative.

    Times :data:`COST_CALLS` calls of a bare no-op and of the same no-op
    wrapped (recording into a scratch log), alternating
    :data:`COST_REPEATS` times, and takes the median difference.  Pairing
    each wrapped timing with a bare one right before it keeps the host's
    speed drift out of the difference.
    """
    def noop():
        return None

    def seconds(fn: Callable) -> float:
        start = time.perf_counter()
        for _ in range(COST_CALLS):
            fn()
        return time.perf_counter() - start

    wrapped = SpanLog().wrap(noop, "noop")
    differences = []
    for _ in range(COST_REPEATS):
        bare = seconds(noop)
        differences.append(seconds(wrapped) - bare)
    return max(0.0, statistics.median(differences)) / COST_CALLS


class Patcher:
    """Installs the :data:`TARGETS` wrappers and restores the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def install(self, log: SpanLog) -> None:
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for module_name, path, name, outcome in TARGETS:
            owner, attr = resolve(module_name, path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, log.wrap(original, name, outcome))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def resolve(module_name: str, path: str) -> tuple[object, str]:
    """The object that owns ``path`` in ``module_name``, and the name."""
    owner: object = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{path} is not defined there")
    return owner, attr
