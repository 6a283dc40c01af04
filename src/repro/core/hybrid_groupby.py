"""The hybrid group-by/aggregation executor — Figures 2 and 3.

This is the paper's centrepiece.  For each group-by the executor:

1. applies the Figure-3 path selection on the optimizer's row/group
   estimates (small -> stock CPU chain; oversized -> CPU; else GPU);
2. on the GPU path, runs the rewired host chain of Figure 2
   (LCOG/LCOV -> CCAT -> HASH -> KMV -> MEMCPY): LGHT and the aggregation
   evaluators are gone because the device does that work;
3. reserves device memory up front through the multi-GPU scheduler (falling
   back to the CPU when no device has room — section 2.1.1's option 2);
4. asks the moderator for a kernel (or races all candidates), sizing the
   hash table from the KMV estimate, growing it on the overflow error path;
5. accounts the launch (pinned transfers in/out + kernel time) on the
   owning device and emits a single-threaded GPU cost event — the
   dispatching thread blocks while every other core is freed for other
   work, which is where the multi-user throughput gains come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.blu.catalog import Catalog
from repro.blu.compression import packed_key_bytes, staged_key_bytes
from repro.blu.datatypes import int64 as int64_type
from repro.blu.engine import OperatorContext, cpu_groupby_executor
from repro.blu.expressions import ColumnRef
from repro.blu.evaluators import build_cpu_groupby_chain, build_gpu_host_chain
from repro.blu.operators.aggregate import (
    build_group_output,
    group_encode,
    grouping_key_arrays,
)
from repro.blu.plan import GroupByNode
from repro.blu.statistics import estimate_distinct, murmur3_fmix64
from repro.blu.table import Table
from repro.config import Thresholds
from repro.core.metadata import RuntimeMetadata
from repro.core.moderator import GpuModerator
from repro.core.monitoring import OffloadDecision, PerformanceMonitor
from repro.core.pathselect import (
    ExecutionPath,
    select_groupby_path,
    select_partitioned_path,
    select_sharded_path,
)
from repro.core.scheduler import MultiGpuScheduler
from repro.core.exchange import (DeviceWork, Piece, first_rows,
                                 renumber_merge, run_exchange)
from repro.errors import GpuError, PinnedMemoryError
from repro.gpu.cache import SegmentKey, StagedSegment, content_digest
from repro.gpu.interconnect import Interconnect
from repro.gpu.kernels.hashtable import combine_keys
from repro.gpu.partition import (
    DISPATCH_SECONDS,
    _chain_wall_seconds,
    groupby_working_set_bytes,
    plan_groupby_partitions,
)
from repro.gpu.shard import (ShardPlan, hash_shard_assignment,
                             home_devices, plan_sharded)
from repro.gpu.kernels.request import GroupByRequest, PayloadSpec
from repro.gpu.pinned import PinnedMemoryPool
from repro.gpu.streams import PipelineSpec, streamed_launch
from repro.gpu.transfer import effective_transfer_bytes
from repro.timing import CostEvent

@dataclass
class HybridGroupByExecutor:
    """Pluggable group-by executor implementing the hybrid design.

    ``partition_large`` enables the out-of-core extension the paper
    describes but does not implement ("If the number of input rows is
    very large ... we will need to partition the data and use both the
    CPU and the GPU ... In our current implementation, all of the large
    queries are processed in the CPU"): over-memory inputs — over T3 by
    rows or with a working set estimated above device capacity — are
    hash-partitioned on the grouping key into device-sized chunks that
    stream through the cards on the three-engine pipeline
    (:mod:`repro.gpu.partition`), whenever the partition planner's cost
    model beats the stock CPU chain.  The partitions' group sets are
    disjoint, so the merge renumbers and concatenates — no
    re-aggregation — and the final output is bit-identical to the CPU
    chain's.  ``max_partitions`` caps how finely one group-by may split.
    """

    scheduler: MultiGpuScheduler
    moderator: GpuModerator
    pinned: PinnedMemoryPool
    thresholds: Thresholds
    monitor: Optional[PerformanceMonitor] = None
    race_kernels: bool = False
    partition_large: bool = False
    max_partitions: int = 64
    catalog: Optional[Catalog] = None
    pipeline: Optional[PipelineSpec] = None
    query_id: str = ""
    #: Scale-out (docs/scale_out.md): when set with an interconnect,
    #: GPU-verdict group-bys may split across every healthy device.
    shard_enabled: bool = False
    interconnect: Optional[Interconnect] = None
    #: Engine callback invoked with the lost device ids after a sharded
    #: run saw device loss — rewrites the catalog's shard maps.
    rebalance: Optional[Callable[[list], None]] = None

    def __call__(self, table: Table, node: GroupByNode,
                 ctx: OperatorContext) -> Table:
        rows = table.num_rows
        optimizer_groups = node.estimates.groups or 0.0

        if not node.keys:
            return cpu_groupby_executor(table, node, ctx)

        groups_estimate = (int(optimizer_groups) if optimizer_groups > 0
                           else rows)
        working_set = groupby_working_set_bytes(rows, groups_estimate,
                                                len(node.aggs))
        capacity = max(
            (d.memory.capacity for d in self.scheduler.devices), default=0)
        decision = select_groupby_path(rows, optimizer_groups,
                                       self.thresholds,
                                       tracer=self._tracer,
                                       working_set_bytes=working_set,
                                       device_capacity_bytes=capacity)
        if decision.path is ExecutionPath.CPU_LARGE and self.partition_large:
            plan = plan_groupby_partitions(
                rows=rows, estimated_groups=groups_estimate,
                num_keys=len(node.keys), num_aggs=len(node.aggs),
                thresholds=self.thresholds, cost=ctx.config.cost,
                spec=self.scheduler.devices[0].spec,
                host=ctx.config.host, degree=ctx.degree,
                capacity_bytes=capacity,
                max_partitions=self.max_partitions,
                devices=self.scheduler.device_count,
            )
            partitioned = select_partitioned_path(
                operator="groupby", plan=plan, tracer=self._tracer)
            if partitioned.partition:
                combined, exact = combine_keys(
                    grouping_key_arrays(table, node.keys))
                return self._run_exchange(
                    table, node, ctx, plan, combined, exact,
                    murmur3_fmix64(combined), optimizer_groups,
                    self._payload_specs(table, node))
            self._record(decision.path.value, partitioned.reason)
            return cpu_groupby_executor(table, node, ctx)
        if not decision.use_gpu:
            self._record(decision.path.value, decision.reason)
            return cpu_groupby_executor(table, node, ctx)

        return self._run_on_gpu(table, node, ctx, optimizer_groups)

    # ------------------------------------------------------------------
    # GPU path
    # ------------------------------------------------------------------

    def _run_on_gpu(self, table: Table, node: GroupByNode,
                    ctx: OperatorContext, optimizer_groups: float) -> Table:
        rows = table.num_rows
        cost = ctx.config.cost

        # Host half of the Figure-2 chain: load, concat, hash, KMV, memcpy.
        key_arrays = grouping_key_arrays(table, node.keys)
        combined, exact = combine_keys(key_arrays)
        key_bits = sum(table.schema.field(k).dtype.bits for k in node.keys)
        hashes = murmur3_fmix64(combined)
        kmv = estimate_distinct(hashes, k=1024)

        payloads = self._payload_specs(table, node)
        metadata = RuntimeMetadata(
            rows=rows,
            optimizer_groups=optimizer_groups,
            kmv_groups=kmv.groups,
            key_bits=key_bits,
            num_keys=len(node.keys),
            payloads=payloads,
            exact_keys=exact,
            key_transfer_bytes=staged_key_bytes(table, node.keys),
        )
        staged_bytes = metadata.staged_input_bytes()
        segments = self._staged_segments(table, node)

        # Scale-out: a GPU-verdict group-by may split across every
        # healthy device when the shard planner beats both the
        # single-device estimate and the CPU chain (docs/scale_out.md).
        if self.shard_enabled and self.interconnect is not None:
            plan = self._plan_shards(table, node, ctx, metadata)
            sharded = select_sharded_path(
                operator="groupby", plan=plan, tracer=self._tracer)
            if sharded.shard:
                return self._run_exchange(table, node, ctx, plan, combined,
                                          exact, hashes, optimizer_groups,
                                          payloads)

        # Up-front device memory reservation, sized from optimizer metadata
        # (the KMV refinement may grow it below).  The reservation stays
        # full-sized even when cached segments will elide transfers: the
        # staged input lives on the device either way, the cache merely
        # holds part of it already.
        request = GroupByRequest(
            keys=combined, key_bits=key_bits, payloads=payloads,
            estimated_groups=metadata.estimated_groups, exact_keys=exact,
        )
        kernel, _reason = self.moderator.choose(metadata)
        memory_needed = (staged_bytes + metadata.result_bytes()
                         + kernel.table_bytes(request))
        if self.race_kernels:
            memory_needed += sum(
                k.table_bytes(request)
                for k in self.moderator.candidates(metadata)
                if k is not kernel
            )
        lease = self.scheduler.try_acquire(
            memory_needed, tag="groupby",
            affinity=[s.key for s in segments])
        if lease is None:
            # No device has room right now: fall back to the CPU chain
            # (section 2.1.1 option 2).  Nothing was staged yet, so only
            # the decision is recorded.
            self._record("cpu-fallback",
                         f"no GPU could reserve {memory_needed} bytes")
            out = cpu_groupby_executor(table, node, ctx)
            self._note_kmv(kmv.groups, out.num_rows)
            return out

        self._record("gpu", f"offloading {rows} rows, "
                            f"kmv groups~{metadata.estimated_groups}",
                     kernel=kernel.name, device_id=lease.device.device_id)

        # Column-cache probe on the leased device: resident segments skip
        # both the MEMCPY into pinned staging and the PCIe copy.
        cache = lease.device.cache
        hit_bytes = 0
        missed: list[StagedSegment] = []
        if cache is not None and cache.enabled:
            for segment in segments:
                if cache.lookup(segment.key):
                    hit_bytes += segment.nbytes
                else:
                    missed.append(segment)
        transfer_bytes = effective_transfer_bytes(staged_bytes, hit_bytes)
        host_chain = build_gpu_host_chain(
            rows=rows, num_keys=len(node.keys),
            num_aggs=max(1, len(payloads)),
            staged_bytes=transfer_bytes, cost=cost,
        )

        # The host chain (including MEMCPY into pinned staging) runs now.
        for event in host_chain.cost_events(ctx.degree):
            ctx.ledger.add(event)
        try:
            outcome = self.moderator.run(request, metadata,
                                         race=self.race_kernels)
            winner = outcome.winner
            if self.monitor is not None:
                self.monitor.record_overflow_retries(outcome.overflow_retries)
                if outcome.raced:
                    self.monitor.record_race(outcome.cancelled)

            launch = streamed_launch(
                lease.device, self.pinned,
                kernel=winner.kernel,
                kernel_seconds=(winner.kernel_seconds
                                + outcome.wasted_device_seconds),
                reservation=lease.reservation,
                rows=rows,
                bytes_in=transfer_bytes,
                bytes_out=metadata.result_bytes(),
                pinned=True,
                pipeline=self.pipeline,
            )
            ctx.ledger.add(CostEvent(
                op="GPU-GROUPBY",
                rows=rows,
                cpu_seconds=DISPATCH_SECONDS,
                max_degree=1,
                gpu_seconds=launch.total_seconds,
                gpu_memory_bytes=lease.reservation.nbytes,
                device_id=lease.device.device_id,
            ))
        except PinnedMemoryError as exc:
            # Host-side staging exhaustion: no device misbehaved, so the
            # circuit breaker stays out of it.
            if self.monitor is not None:
                self.monitor.record_fault_fallback("groupby", exc)
            self._record("cpu-fallback", "pinned staging pool exhausted")
            out = cpu_groupby_executor(table, node, ctx)
            self._note_kmv(kmv.groups, out.num_rows)
            return out
        except GpuError as exc:
            # Launch failure / device loss / allocation fault: feed the
            # circuit breaker and redo the whole operator on the CPU chain
            # (guaranteed degradation — results must not change).
            self.scheduler.record_failure(lease)
            if self.monitor is not None:
                self.monitor.record_fault_fallback(
                    "groupby", exc, lease.device.device_id)
            self._record("cpu-fallback", f"gpu failure: {exc}",
                         device_id=lease.device.device_id)
            out = cpu_groupby_executor(table, node, ctx)
            self._note_kmv(kmv.groups, out.num_rows)
            return out
        else:
            self.scheduler.record_success(lease)
        finally:
            self.scheduler.release(lease)

        # Admit the freshly staged segments now that the query's own
        # reservation has been returned (insert failures are harmless —
        # the cache simply stays cold for those segments).
        if cache is not None and cache.enabled:
            for segment in missed:
                cache.insert(segment.key, segment.nbytes)

        self._note_kmv(kmv.groups, winner.n_groups)
        first_row = first_rows(winner.group_index, winner.n_groups)
        return build_group_output(
            table, node.keys, node.aggs, winner.group_index, first_row,
            winner.n_groups, name=f"{table.name}_grouped",
        )

    # ------------------------------------------------------------------
    # Extension: partitioned and sharded execution (repro.core.exchange)
    # ------------------------------------------------------------------

    def _run_exchange(self, table: Table, node: GroupByNode,
                      ctx: OperatorContext, plan, combined: np.ndarray,
                      exact: bool, hashes: np.ndarray,
                      optimizer_groups: float, payloads: list) -> Table:
        """Hash-split one group-by into pieces and merge their groups.

        Splitting on the grouping-key hash makes the pieces' group sets
        disjoint, so the merge is a renumber-and-concatenate pass — no
        re-aggregation — and the output is *bit-identical* to the stock
        CPU chain's for any piece count and any mix of per-piece faults
        (a faulted piece redoes its slice on the CPU chain).

        A :class:`PartitionPlan` streams an over-memory input through
        the devices in device-sized partitions, each running the full
        Figure-2 host chain.  A :class:`ShardPlan` splits a GPU-verdict
        group-by across every healthy device: the host's only per-row
        work is the split and the MEMCPY into pinned staging, decode and
        hash are priced on the shards, and the hash repartition crosses
        the modelled interconnect as the exchange.
        """
        rows = table.num_rows
        cost = ctx.config.cost
        sharded = isinstance(plan, ShardPlan)
        count = plan.shards if sharded else plan.partitions
        num_keys = len(node.keys)
        num_aggs = max(1, len(payloads))
        key_bits = sum(table.schema.field(k).dtype.bits for k in node.keys)
        piece_of_row = hash_shard_assignment(hashes, count)
        if sharded:
            # The host only builds the shard index vectors (bandwidth-
            # bound); the per-row hash is on-device work, priced in each
            # shard's decode+hash prep slice below.
            ctx.ledger.cpu("SHARD-SPLIT", rows,
                           rows * 8 / cost.cpu_memcpy_rate,
                           max_degree=ctx.degree)
            self._record("gpu-sharded", plan.reason)
        else:
            # One pass over the data to split it (host side, parallel).
            ctx.ledger.cpu("PARTITION", rows, rows / cost.cpu_scan_rate,
                           max_degree=ctx.degree)
            self._record("gpu-partitioned", plan.reason)

        # Every piece is sized up front so a shard wave's H2D legs are
        # priced with the real switch contention before anything runs.
        pieces = []
        for p in range(count):
            row_ids = np.nonzero(piece_of_row == p)[0]
            meta = request = None
            if len(row_ids):
                keys_p = combined[row_ids]
                kmv = estimate_distinct(hashes[row_ids], k=1024)
                meta = RuntimeMetadata(
                    rows=len(row_ids),
                    optimizer_groups=optimizer_groups / count,
                    kmv_groups=kmv.groups,
                    key_bits=key_bits, num_keys=num_keys,
                    payloads=payloads, exact_keys=exact,
                )
                request = GroupByRequest(
                    keys=keys_p, key_bits=key_bits, payloads=payloads,
                    estimated_groups=meta.estimated_groups,
                    exact_keys=exact,
                )
            pieces.append(Piece(
                index=p, rows=len(row_ids),
                staged_bytes=meta.staged_input_bytes() if meta else 0,
                home=plan.devices[p] if sharded else None,
                data=(row_ids, meta, request),
            ))

        def prepare(piece: Piece) -> int:
            _row_ids, meta, request = piece.data
            kernel, _reason = self.moderator.choose(meta)
            if sharded:
                ctx.ledger.cpu("MEMCPY", piece.rows,
                               piece.staged_bytes / cost.cpu_memcpy_rate,
                               ctx.degree)
            return (piece.staged_bytes + meta.result_bytes()
                    + kernel.table_bytes(request))

        def on_device(piece: Piece, _lease) -> DeviceWork:
            _row_ids, meta, request = piece.data
            prep_seconds = 0.0
            if sharded:
                # The shard decodes and hashes its encoded columns
                # on-device before aggregating (the scale-out data
                # path); both ride the kernel slice of the launch.
                prep_seconds = (piece.rows * (num_keys + num_aggs + 1)
                                / cost.gpu_decode_rate)
            else:
                # The partition's host chain (including MEMCPY into
                # pinned staging) runs once a device is leased.
                ctx.ledger.extend(build_gpu_host_chain(
                    rows=piece.rows, num_keys=num_keys, num_aggs=num_aggs,
                    staged_bytes=piece.staged_bytes, cost=cost,
                ).cost_events(ctx.degree))
            outcome = self.moderator.run(request, meta, race=False)
            if self.monitor is not None:
                self.monitor.record_overflow_retries(
                    outcome.overflow_retries)
            winner = outcome.winner
            return DeviceWork(
                kernel=winner.kernel,
                kernel_seconds=(winner.kernel_seconds
                                + outcome.wasted_device_seconds
                                + prep_seconds),
                bytes_in=piece.staged_bytes,
                bytes_out=meta.result_bytes(),
                value=(winner.group_index, winner.n_groups),
            )

        def on_host(piece: Piece):
            """One piece on the CPU chain: (dense group index, count)."""
            row_ids = piece.data[0]
            sub_index, _, n_sub = group_encode([combined[row_ids]])
            ctx.ledger.extend(build_gpu_host_chain(
                rows=piece.rows, num_keys=num_keys, num_aggs=num_aggs,
                staged_bytes=0, cost=cost,
            ).cost_events(ctx.degree))
            ctx.ledger.cpu("LGHT", piece.rows,
                           piece.rows / cost.cpu_groupby_rate, ctx.degree)
            return sub_index, n_sub

        exchange = run_exchange(self, "groupby", pieces, ctx, on_device,
                                on_host, prepare=prepare)
        parts = []
        for piece, (sub_index, n_sub) in exchange.placed:
            row_ids, meta, _request = piece.data
            self._note_kmv(meta.kmv_groups, n_sub, stamp_span=False)
            parts.append((row_ids, sub_index, n_sub))

        if sharded:
            # The exchange: the hash repartition of the encoded input
            # crosses the interconnect (peer-to-peer over NVLink when
            # enabled, bounced through host staging otherwise).
            staged_total = sum(piece.staged_bytes for piece in pieces)
            exchange_seconds = self.interconnect.exchange_seconds(
                staged_total, count)
            cross_bytes = self.interconnect.cross_shard_bytes(
                staged_total, count)
            self.interconnect.record_exchange(cross_bytes, exchange_seconds)
            ctx.ledger.add(CostEvent(
                op="SHARD-EXCHANGE", rows=rows,
                cpu_seconds=DISPATCH_SECONDS, max_degree=1,
                gpu_seconds=exchange_seconds,
            ))
        group_index, first_row, groups = renumber_merge(rows, parts)
        if sharded:
            # Per-shard aggregation is complete (disjoint group sets), so
            # only the group tables merge on the host — O(groups), unlike
            # partitions, whose merge also rebuilds a per-row index.
            merge_op, merge_core = "SHARD-MERGE", groups / cost.cpu_merge_rate
            figures = {"exchange_seconds": exchange_seconds,
                       "exchange_bytes": int(cross_bytes)}
        else:
            merge_op = "PARTITION-MERGE"
            merge_core = (groups / cost.cpu_merge_rate
                          + rows / cost.cpu_scan_rate)
            figures = {"working_set": plan.working_set_bytes,
                       "capacity": plan.capacity_bytes}
        ctx.ledger.cpu(merge_op, rows, merge_core, max_degree=ctx.degree)
        merge_wall = merge_core / max(
            1.0, ctx.config.host.effective_capacity(ctx.degree))
        exchange.report(rows=rows, groups=int(groups),
                        merge_seconds=merge_wall, **figures)
        return build_group_output(
            table, node.keys, node.aggs, group_index, first_row, groups,
            name=f"{table.name}_grouped",
        )

    # ------------------------------------------------------------------
    # Extension: sharded N-device execution (docs/scale_out.md)
    # ------------------------------------------------------------------

    def _plan_shards(self, table: Table, node: GroupByNode,
                     ctx: OperatorContext,
                     metadata: RuntimeMetadata) -> Optional[ShardPlan]:
        """Price sharding this group-by across the healthy devices.

        The sharded kernel estimate includes the on-device decode and
        hash of the encoded columns — the work the sharded data path
        moves off the host (see the module docstring of
        :mod:`repro.gpu.shard`) — and the exchange prices the hash
        repartition of the whole staged input.
        """
        devices = home_devices(self.scheduler, self.catalog, table.name)
        if len(devices) < 2:
            return None
        cost = ctx.config.cost
        rows = metadata.rows
        num_aggs = max(1, len(node.aggs))
        num_cols = len(node.keys) + num_aggs
        staged = metadata.staged_input_bytes()
        groups = max(1, int(metadata.estimated_groups))
        kernel_seconds = (
            rows / cost.gpu_ht_insert_rate
            + rows * num_aggs / cost.gpu_atomic_agg_rate
            + rows * (num_cols + 1) / cost.gpu_decode_rate
        )
        cpu_chain = build_cpu_groupby_chain(
            rows=rows, num_keys=len(node.keys), num_aggs=len(node.aggs),
            groups=groups, cost=cost,
        )
        return plan_sharded(
            operator="groupby",
            rows=rows,
            staged_bytes=staged,
            result_bytes=metadata.result_bytes(),
            kernel_seconds=kernel_seconds,
            exchange_bytes=staged,
            merge_core_seconds=groups / cost.cpu_merge_rate,
            devices=devices,
            cost=cost,
            spec=self.scheduler.devices[0].spec,
            host=ctx.config.host,
            degree=ctx.degree,
            interconnect=self.interconnect,
            cpu_seconds=_chain_wall_seconds(cpu_chain, ctx.config.host,
                                            ctx.degree),
            host_core_seconds=(staged / cost.cpu_memcpy_rate
                               + rows * 8 / cost.cpu_memcpy_rate),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _staged_segments(self, table: Table,
                         node: GroupByNode) -> list[StagedSegment]:
        """The cacheable slices of this group-by's staged input.

        Key columns stage at their packed transfer widths, plain-column
        aggregation payloads at 4 bytes/row.  ``COUNT(*)`` and computed
        expressions have no stable column identity, so those payload
        slots always re-stage (they are simply absent from the list).
        The segment token is a content digest of the encoded column, so
        a fact column gathered unchanged through an order-preserving N:1
        join shares entries with its base table.
        """
        version = self.catalog.version if self.catalog is not None else 0
        rows = table.num_rows
        segments = []
        for name in node.keys:
            col = table.column(name)
            segments.append(StagedSegment(
                key=SegmentKey(
                    table=table.name, column=name,
                    segment="key:" + content_digest(col.data,
                                                    col.null_mask),
                    catalog_version=version,
                ),
                nbytes=packed_key_bytes(col),
            ))
        for agg in node.aggs:
            if not isinstance(agg.expr, ColumnRef):
                continue
            col = table.column(agg.expr.name)
            segments.append(StagedSegment(
                key=SegmentKey(
                    table=table.name, column=agg.expr.name,
                    segment="agg:" + content_digest(col.data,
                                                    col.null_mask),
                    catalog_version=version,
                ),
                nbytes=rows * 4,
            ))
        return segments

    def _payload_specs(self, table: Table,
                       node: GroupByNode) -> list[PayloadSpec]:
        specs = []
        for agg in node.aggs:
            dtype = (int64_type() if agg.expr is None
                     else agg.expr.result_type(table))
            specs.append(PayloadSpec(dtype=dtype, func=agg.func))
        return specs

    @property
    def _tracer(self):
        return self.monitor.tracer if self.monitor is not None else None

    def _note_kmv(self, estimated: int, actual: int,
                  stamp_span: bool = True) -> None:
        """Judge one KMV estimate against the actual group count.

        Feeds the ``repro_kmv_relative_error`` histogram and, for the
        whole-input path, stamps the KMV refinement onto the enclosing
        ``op.groupby`` span (the engine stamps the optimizer estimate and
        the actual count; partitions skip the stamp — their per-partition
        estimates have no single span to live on).
        """
        if self.monitor is None:
            return
        error = self.monitor.record_kmv_estimate(estimated, actual)
        if not stamp_span:
            return
        span = self.monitor.tracer.current
        if span is not None and span.name == "op.groupby":
            span.attributes["kmv_groups"] = int(estimated)
            span.attributes["kmv_relative_error"] = error

    def _record(self, path: str, reason: str, kernel: Optional[str] = None,
                device_id: int = -1) -> None:
        if self.monitor is None:
            return
        self.monitor.tracer.instant(
            "offload.decision", operator="groupby", path=path,
            reason=reason, kernel=kernel or "", query_id=self.query_id,
        )
        self.monitor.record_decision(OffloadDecision(
            query_id=self.query_id, operator="groupby", path=path,
            reason=reason, kernel=kernel, device_id=device_id,
        ))

