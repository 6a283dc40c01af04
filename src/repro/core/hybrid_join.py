"""Hybrid join executor — the paper's future-work item, implemented.

Disabled by default (the paper's prototype keeps joins on the host); pass
``enable_join_offload=True`` to :class:`~repro.core.accelerator.
GpuAcceleratedEngine` to turn it on.  The routing mirrors the group-by
path selection: the probe side must clear the offload row threshold, the
build side must have unique keys (the star-schema FK case the kernel
handles), the working set must fit a device, and any failure falls back to
the stock CPU join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.blu.catalog import Catalog
from repro.blu.engine import OperatorContext, cpu_join_executor
from repro.blu.operators.join import _aligned_keys, _assemble
from repro.blu.plan import JoinNode
from repro.blu.table import Table
from repro.config import Thresholds
from repro.core.exchange import (DeviceWork, Piece, concat_matches,
                                 run_exchange)
from repro.core.monitoring import OffloadDecision, PerformanceMonitor
from repro.core.pathselect import select_sharded_path
from repro.core.scheduler import MultiGpuScheduler
from repro.errors import GpuError, PinnedMemoryError
from repro.gpu.cache import SegmentKey, StagedSegment, content_digest
from repro.gpu.interconnect import Interconnect
from repro.gpu.kernels.join import HashJoinKernel
from repro.gpu.partition import DISPATCH_SECONDS
from repro.gpu.pinned import PinnedMemoryPool
from repro.gpu.shard import (ShardPlan, home_devices, plan_sharded,
                             range_shard_bounds)
from repro.gpu.streams import PipelineSpec, streamed_launch
from repro.gpu.transfer import effective_transfer_bytes
from repro.timing import CostEvent


@dataclass
class HybridJoinExecutor:
    """Pluggable join executor that may offload FK joins to a GPU."""

    scheduler: MultiGpuScheduler
    pinned: PinnedMemoryPool
    thresholds: Thresholds
    monitor: Optional[PerformanceMonitor] = None
    catalog: Optional[Catalog] = None
    pipeline: Optional[PipelineSpec] = None
    #: Scale-out (docs/scale_out.md): when set with an interconnect, the
    #: probe side range-shards across devices with the build broadcast.
    shard_enabled: bool = False
    interconnect: Optional[Interconnect] = None
    #: Engine callback invoked with the lost device ids after a shard
    #: reroute, so shard maps rebalance (and the catalog version bumps).
    rebalance: Optional[Callable[[list], None]] = None
    query_id: str = ""

    def __call__(self, left: Table, right: Table, node: JoinNode,
                 ctx: OperatorContext) -> Table:
        probe_rows = left.num_rows
        build_rows = right.num_rows
        if probe_rows < self.thresholds.t1_min_rows or build_rows == 0:
            self._record("cpu-small",
                         f"probe side {probe_rows} rows below T1")
            return cpu_join_executor(left, right, node, ctx)

        build_col = right.column(node.right_key)
        probe_col = left.column(node.left_key)
        build_keys, probe_keys = _aligned_keys(build_col, probe_col)
        if len(np.unique(build_keys)) != len(build_keys):
            self._record("cpu-small",
                         "build keys not unique: many-to-many stays on CPU")
            return cpu_join_executor(left, right, node, ctx)

        kernel = HashJoinKernel(ctx.config.cost)
        if self.shard_enabled and self.interconnect is not None:
            num_cols = left.num_columns + right.num_columns
            plan = self._plan_shard_join(probe_rows, build_rows, kernel,
                                         ctx, left.name, num_cols=num_cols)
            sharded = select_sharded_path(operator="join", plan=plan,
                                          tracer=self._tracer)
            if sharded.shard:
                left_idx, right_idx = self._probe_slices(
                    build_keys, probe_keys, kernel, ctx, plan, num_cols)
                # Each shard gathers its joined columns on-device (the
                # scale-out data path, priced in the shard kernels); the
                # host only assembles the match index vectors.
                ctx.ledger.cpu(
                    "JOIN-MAT", len(left_idx),
                    len(left_idx) * 8 / ctx.config.cost.cpu_memcpy_rate,
                    max_degree=ctx.degree)
                return _assemble(left, right, left_idx, right_idx)

        # BLU-encoded transfers: build keys as 8-byte words, probe keys as
        # packed 4-byte codes; the kernel returns a compact 4-byte match
        # row id per probe hit.
        staged = build_rows * 8 + probe_rows * 4
        result_bytes = probe_rows * 4
        memory_needed = (staged + result_bytes
                         + kernel.table_bytes(build_rows))
        version = self.catalog.version if self.catalog is not None else 0
        segments = [
            StagedSegment(
                key=SegmentKey(
                    table=right.name, column=node.right_key,
                    segment="join-build:" + content_digest(build_keys),
                    catalog_version=version,
                ),
                nbytes=build_rows * 8,
            ),
            StagedSegment(
                key=SegmentKey(
                    table=left.name, column=node.left_key,
                    segment="join-probe:" + content_digest(probe_keys),
                    catalog_version=version,
                ),
                nbytes=probe_rows * 4,
            ),
        ]
        lease = self.scheduler.try_acquire(
            memory_needed, tag="join",
            affinity=[s.key for s in segments])
        if lease is None:
            self._record("cpu-fallback",
                         f"no GPU could reserve {memory_needed} bytes")
            return cpu_join_executor(left, right, node, ctx)

        cache = lease.device.cache
        hit_bytes = 0
        missed: list[StagedSegment] = []
        if cache is not None and cache.enabled:
            for segment in segments:
                if cache.lookup(segment.key):
                    hit_bytes += segment.nbytes
                else:
                    missed.append(segment)
        transfer = effective_transfer_bytes(staged, hit_bytes)
        try:
            try:
                result = kernel.run(build_keys, probe_keys)
            except GpuError:
                self._record("cpu-fallback", "kernel rejected the join")
                return cpu_join_executor(left, right, node, ctx)
            launch = streamed_launch(
                lease.device, self.pinned,
                kernel=result.kernel,
                kernel_seconds=result.kernel_seconds,
                reservation=lease.reservation,
                rows=probe_rows,
                bytes_in=transfer,
                bytes_out=len(result.left_idx) * 4,
                pinned=True,
                pipeline=self.pipeline,
            )
            ctx.ledger.add(CostEvent(
                op="GPU-JOIN",
                rows=probe_rows,
                cpu_seconds=DISPATCH_SECONDS,
                max_degree=1,
                gpu_seconds=launch.total_seconds,
                gpu_memory_bytes=lease.reservation.nbytes,
                device_id=lease.device.device_id,
            ))
            # Host-side materialisation of the joined columns.
            materialise = (len(result.left_idx)
                           * (left.num_columns + right.num_columns)
                           / ctx.config.cost.cpu_decode_rate)
            ctx.ledger.cpu("JOIN-MAT", len(result.left_idx), materialise,
                           max_degree=ctx.degree)
        except PinnedMemoryError as exc:
            # Host-side staging exhaustion: no device misbehaved, so the
            # circuit breaker stays out of it.
            if self.monitor is not None:
                self.monitor.record_fault_fallback("join", exc)
            self._record("cpu-fallback", "pinned staging pool exhausted")
            return cpu_join_executor(left, right, node, ctx)
        except GpuError as exc:
            # Launch failure or device loss on the leased device: feed the
            # breaker and redo the join on the stock CPU operator.
            self.scheduler.record_failure(lease)
            if self.monitor is not None:
                self.monitor.record_fault_fallback(
                    "join", exc, lease.device.device_id)
            self._record("cpu-fallback", f"gpu failure: {exc}")
            return cpu_join_executor(left, right, node, ctx)
        else:
            self.scheduler.record_success(lease)
        finally:
            self.scheduler.release(lease)

        if cache is not None and cache.enabled:
            for segment in missed:
                cache.insert(segment.key, segment.nbytes)

        self._record("gpu", f"offloaded FK join: {probe_rows} probe rows, "
                            f"{build_rows} build rows")
        return _assemble(left, right, result.left_idx, result.right_idx)

    # ------------------------------------------------------------------
    # Extension: sharded N-device execution (docs/scale_out.md)
    # ------------------------------------------------------------------

    def _plan_shard_join(self, probe_rows: int, build_rows: int,
                         kernel: HashJoinKernel, ctx: OperatorContext,
                         table_name: str,
                         num_cols: int = 0) -> Optional[ShardPlan]:
        """Price range-sharding the probe side across healthy devices.

        The build side broadcasts whole to every shard (each device
        builds the full hash table), so its staging and build-insert
        time ride the replicated terms of :func:`plan_sharded`; only
        the probe stream divides — including the on-device gather of
        the joined columns (``num_cols``), the work the classic path
        leaves to the host materialiser.  No exchange crosses the
        interconnect: matches are emitted in probe order, so the merge
        is an order-preserving concatenation priced as a host memcpy.
        """
        devices = home_devices(self.scheduler, self.catalog, table_name)
        if len(devices) < 2:
            return None
        cost = ctx.config.cost
        probe_kernel = (probe_rows / cost.gpu_ht_probe_rate
                        + probe_rows * 4 / cost.gpu_init_rate
                        + probe_rows * num_cols / cost.gpu_gather_rate)
        table_bytes = kernel.table_bytes(build_rows)
        replicated = (build_rows / cost.gpu_ht_insert_rate
                      + table_bytes / cost.gpu_init_rate)
        cpu_core = (build_rows / cost.cpu_join_build_rate
                    + probe_rows / cost.cpu_join_probe_rate
                    + probe_rows * num_cols / cost.cpu_decode_rate)
        capacity = max(1.0, ctx.config.host.effective_capacity(ctx.degree))
        return plan_sharded(
            operator="join",
            rows=probe_rows,
            staged_bytes=probe_rows * 4,
            result_bytes=probe_rows * 4,
            kernel_seconds=probe_kernel,
            exchange_bytes=0,
            merge_core_seconds=probe_rows * 8 / cost.cpu_memcpy_rate,
            devices=devices,
            cost=cost,
            spec=self.scheduler.devices[0].spec,
            host=ctx.config.host,
            degree=ctx.degree,
            interconnect=self.interconnect,
            cpu_seconds=cpu_core / capacity,
            broadcast_bytes=build_rows * 8,
            replicated_kernel_seconds=replicated,
        )

    def _probe_slices(self, build_keys: np.ndarray, probe_keys: np.ndarray,
                      kernel: HashJoinKernel, ctx: OperatorContext,
                      plan: ShardPlan, num_cols: int,
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Probe as contiguous range shards, build broadcast to each.

        The kernel emits matches in ascending probe order, so the
        ordered concatenation of per-shard matches is bit-identical to
        probing whole, for any shard count and fault mix.  Each shard
        also gathers its ``num_cols`` joined columns on-device (the
        scale-out data path — the classic path's host materialiser is
        the single biggest non-scaling residue, so the work moves onto
        the devices it divides across).  A shard the devices drop runs
        as a host-side probe of the same build table.
        """
        cost = ctx.config.cost
        probe_rows = len(probe_keys)
        build_rows = len(build_keys)
        build_bytes = build_rows * 8
        table_bytes = kernel.table_bytes(build_rows)
        self._record("gpu-sharded", plan.reason)
        bounds = range_shard_bounds(probe_rows, plan.shards)
        pieces = []
        for s, home in enumerate(plan.devices):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            staged = build_bytes + (hi - lo) * 4
            pieces.append(Piece(
                index=s, rows=hi - lo,
                memory_bytes=staged + (hi - lo) * 4 + table_bytes,
                staged_bytes=staged, home=home, data=lo,
            ))

        def on_device(piece: Piece, _lease) -> DeviceWork:
            lo = piece.data
            result = kernel.run(build_keys, probe_keys[lo:lo + piece.rows])
            # On-device gather of the joined columns for this shard's
            # matches rides the kernel slice.
            gather_seconds = (len(result.left_idx) * num_cols
                              / cost.gpu_gather_rate)
            return DeviceWork(
                kernel=result.kernel,
                kernel_seconds=result.kernel_seconds + gather_seconds,
                bytes_in=piece.staged_bytes,
                bytes_out=len(result.left_idx) * 4,
                value=(lo + result.left_idx, result.right_idx),
            )

        def on_host(piece: Piece):
            lo = piece.data
            matched = _host_probe(build_keys,
                                  probe_keys[lo:lo + piece.rows], lo)
            ctx.ledger.cpu(
                "JOIN-PROBE", piece.rows,
                build_rows / cost.cpu_join_build_rate
                + piece.rows / cost.cpu_join_probe_rate
                + len(matched[0]) * num_cols / cost.cpu_decode_rate,
                max_degree=ctx.degree)
            return matched

        exchange = run_exchange(self, "join", pieces, ctx, on_device,
                                on_host)
        # The merge: matches arrive in ascending probe order per shard
        # and shards are contiguous slices, so concatenation preserves
        # the whole-probe order exactly — one host memcpy.
        left_idx, right_idx = concat_matches(exchange.values())
        merge_core = probe_rows * 8 / cost.cpu_memcpy_rate
        ctx.ledger.cpu("SHARD-MERGE", probe_rows, merge_core,
                       max_degree=ctx.degree)
        exchange.report(
            rows=probe_rows, groups=0,
            merge_seconds=merge_core / max(
                1.0, ctx.config.host.effective_capacity(ctx.degree)),
            exchange_seconds=0.0, exchange_bytes=0)
        return left_idx, right_idx

    @property
    def _tracer(self):
        return self.monitor.tracer if self.monitor is not None else None

    def _record(self, path: str, reason: str) -> None:
        if self.monitor is None:
            return
        self.monitor.tracer.instant(
            "offload.decision", operator="join", path=path, reason=reason,
            query_id=self.query_id,
        )
        self.monitor.record_decision(OffloadDecision(
            query_id=self.query_id, operator="join", path=path,
            reason=reason,
        ))


def _host_probe(build_keys: np.ndarray, probe_slice: np.ndarray,
                offset: int) -> tuple[np.ndarray, np.ndarray]:
    """One shard's probe on the host — the reroute-of-last-resort.

    Matches the kernel's contract exactly: ascending probe row ids
    (shifted by the slice ``offset``) paired with the unique build row
    of each hit.
    """
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    pos = np.searchsorted(sorted_keys, probe_slice)
    pos_clipped = np.minimum(pos, len(sorted_keys) - 1)
    hit = sorted_keys[pos_clipped] == probe_slice
    left_local = np.nonzero(hit)[0]
    right_idx = order[pos_clipped[hit]]
    return offset + left_local, right_idx
