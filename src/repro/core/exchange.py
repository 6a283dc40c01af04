"""One exchange runner: split -> dispatch -> merge, for every executor.

The paper sorts in "merge-free, conflict-free" partitions (section 3)
and defers partitioned processing of over-memory group-bys (section
4.1).  Out-of-core partitions and N-device shards are the same idea:
split the rows into pieces, run each piece on a device, degrade a
piece that cannot run there to the host, and merge.  This module owns
every step the pieces share:

- it claims one parallel-group id per exchange, and numbers each
  device's launches from there, so same-rank pieces on *different*
  devices overlap (section 2.2);
- it places pieces.  A piece with a home device (a *shard*) tries that
  device, then any admissible device, once each; a piece without one
  (a *partition*) tries any device once;
- it launches through :func:`~repro.gpu.streams.streamed_launch`, feeds
  each launch through its device's
  :class:`~repro.gpu.partition.PartitionStreamState` so only the exposed
  makespan growth is charged, and — when the pieces have homes, so
  their staging departs in one wave over the interconnect — adds the
  wave leg's switch stall and records the link transfers;
- it handles :class:`~repro.errors.PinnedMemoryError` (host staging
  exhaustion: the breaker stays out of it) and
  :class:`~repro.errors.GpuError` (the breaker hears about the device,
  lost devices are tracked, the shard reroutes);
- it emits the ``partition.*`` / ``shard.*`` instants and keeps their
  counts, flushes the device events to the ledger sorted by parallel
  group, and rebalances the shard maps after a shard wave lost a
  device.

Everything that differs between partitions and shards is derived from
placement: attempt count, interconnect accounting, rebalance, lease tag
and instant names.  The executors keep what is theirs — their plans and
gates, a per-piece device callback (kernel, seconds, bytes in/out,
value), a per-piece host fallback and their own split, exchange and
merge ledger charges — and merge with one of the three helpers below:
:func:`renumber_merge`, :func:`stable_merge` or :func:`concat_matches`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.blu.engine import OperatorContext
from repro.errors import GpuError, PinnedMemoryError
from repro.gpu.partition import DISPATCH_SECONDS, PartitionStreamState
from repro.gpu.streams import streamed_launch
from repro.timing import CostEvent

# Deterministic, widely spaced parallel-group ids: each exchange claims
# a base id and numbers its device waves from there.
_PARALLEL_GROUP_IDS = itertools.count(0, 1024)


@dataclass(frozen=True)
class Piece:
    """One slice of an exchange's input.

    ``memory_bytes`` is the device lease; ``staged_bytes`` the H2D bytes
    its wave leg carries.  ``home`` is the shard's home device (``None``
    for a partition).  ``data`` is the executor's own payload for its
    callbacks.  A piece with zero rows only takes its place in the
    wave; it never runs.
    """

    index: int
    rows: int
    memory_bytes: int = 0
    staged_bytes: int = 0
    home: Optional[int] = None
    data: Any = None


@dataclass(frozen=True)
class DeviceWork:
    """What a device callback ran: the launch to account, and its value."""

    kernel: str
    kernel_seconds: float
    bytes_in: int
    bytes_out: int
    value: Any


@dataclass
class Exchange:
    """One exchange's outcome: per-piece values and the wave's counts."""

    operator: str
    pieces: Sequence[Piece]
    #: ``(piece, value)`` for every non-empty piece, in split order.
    placed: list[tuple[Piece, Any]] = field(default_factory=list)
    gpu: int = 0
    cpu: int = 0
    rerouted: int = 0
    stall_seconds: float = 0.0
    tracer: Any = None
    query_id: str = ""
    nvlink: bool = False

    @property
    def sharded(self) -> bool:
        return bool(self.pieces) and self.pieces[0].home is not None

    @property
    def kind(self) -> str:
        return "shard" if self.sharded else "partition"

    def values(self) -> list:
        return [value for _piece, value in self.placed]

    def report(self, **attributes) -> None:
        """Emit the ``partition.exec`` / ``shard.exec`` instant.

        ``attributes`` are the executor's own (rows, groups, merge and
        exchange or working-set figures); the counts, the shard devices
        and the wave's stall come from the exchange itself.
        """
        if self.tracer is None:
            return
        kind = self.kind
        counts = {
            f"{kind}s": len(self.pieces),
            f"gpu_{kind}s": self.gpu,
            f"cpu_{kind}s": self.cpu,
        }
        wave = {}
        if self.sharded:
            counts["rerouted"] = self.rerouted
            counts["devices"] = [p.home for p in self.pieces]
            wave = {"stall_seconds": self.stall_seconds,
                    "nvlink": self.nvlink}
        self.tracer.instant(f"{kind}.exec", operator=self.operator,
                            **counts, **attributes, **wave,
                            query_id=self.query_id)


def run_exchange(owner, operator: str, pieces: Sequence[Piece],
                 ctx: OperatorContext,
                 device: Callable[[Piece, Any], DeviceWork],
                 host: Callable[[Piece], Any],
                 prepare: Optional[Callable[[Piece], int]] = None,
                 traced: bool = True) -> Exchange:
    """Run ``pieces`` through the devices; the host takes what they drop.

    ``owner`` is the hybrid executor: its ``scheduler``, ``pinned``,
    ``pipeline``, ``monitor``, ``interconnect``, ``rebalance`` and
    ``query_id`` drive the launches.  ``device(piece, lease)`` runs the
    piece's kernel under the lease; ``host(piece)`` runs it on the CPU
    (a piece no device would take, or whose launch faulted, without a
    device left to reroute to).  ``prepare(piece)``, when given, runs
    first and returns the lease size in place of ``piece.memory_bytes``
    — for sizing that must see the earlier pieces' launches (a learning
    moderator's kernel choice).  ``traced=False`` keeps the per-piece
    instants out of the trace.
    """
    monitor = owner.monitor
    tracer = monitor.tracer if monitor is not None and traced else None
    result = Exchange(operator=operator, pieces=pieces, tracer=tracer,
                      query_id=owner.query_id)
    sharded = result.sharded
    kind = result.kind
    scheduler = owner.scheduler
    interconnect = owner.interconnect if sharded else None
    legs = []
    if interconnect is not None:
        result.nvlink = interconnect.nvlink_enabled
        legs = interconnect.wave_legs(
            [(p.home, p.staged_bytes) for p in pieces])
        result.stall_seconds = sum(leg.stall_seconds for leg in legs)
    tag = f"{operator}-{'shard' if sharded else 'part'}"
    op = f"GPU-{operator.upper()}"

    group_base = next(_PARALLEL_GROUP_IDS)
    stream = PartitionStreamState()
    device_seq: dict[int, int] = {}
    gpu_events: list[CostEvent] = []
    lost_devices: set[int] = set()

    for position, piece in enumerate(pieces):
        if piece.rows <= 0:
            continue
        memory_bytes = (prepare(piece) if prepare is not None
                        else piece.memory_bytes)
        value = None
        device_id = -1
        for attempt in range(2 if sharded else 1):
            lease = scheduler.try_acquire(
                memory_bytes, tag=tag,
                prefer_device=piece.home if attempt == 0 else None)
            if lease is None:
                break
            try:
                work = device(piece, lease)
                launch = streamed_launch(
                    lease.device, owner.pinned,
                    kernel=work.kernel,
                    kernel_seconds=work.kernel_seconds,
                    reservation=lease.reservation,
                    rows=piece.rows,
                    bytes_in=work.bytes_in,
                    bytes_out=work.bytes_out,
                    pinned=True,
                    pipeline=owner.pipeline,
                )
                launched_on = lease.device.device_id
                stall = legs[position].stall_seconds if legs else 0.0
                h2d_seconds = launch.transfer_in_seconds + stall
                if interconnect is not None:
                    interconnect.record_transfer(
                        launched_on, work.bytes_in, h2d_seconds, stall)
                    interconnect.record_transfer(
                        launched_on, work.bytes_out,
                        launch.transfer_out_seconds)
                # Only the makespan growth is charged: piece k+1's H2D
                # hides under piece k's kernel on the same device.
                exposed = stream.advance(launched_on, h2d_seconds,
                                         launch.kernel_seconds,
                                         launch.transfer_out_seconds)
                seq = device_seq.get(launched_on, 0)
                device_seq[launched_on] = seq + 1
                gpu_events.append(CostEvent(
                    op=op, rows=piece.rows,
                    cpu_seconds=DISPATCH_SECONDS, max_degree=1,
                    gpu_seconds=exposed,
                    gpu_memory_bytes=lease.reservation.nbytes,
                    device_id=launched_on,
                    parallel_group=group_base + seq,
                ))
                value, device_id = work.value, launched_on
            except PinnedMemoryError as exc:
                # Host-side staging exhaustion: no device misbehaved, so
                # the breaker stays out of it and the piece goes home.
                if monitor is not None:
                    monitor.record_fault_fallback(operator, exc)
                break
            except GpuError as exc:
                # Only this piece degrades: feed the breaker, then a
                # shard retries on any other admissible device.
                scheduler.record_failure(lease)
                if not lease.device.alive:
                    lost_devices.add(lease.device.device_id)
                if monitor is not None:
                    monitor.record_fault_fallback(
                        operator, exc, lease.device.device_id)
                result.rerouted += 1
                continue
            else:
                scheduler.record_success(lease)
                break
            finally:
                scheduler.release(lease)
        if device_id < 0:
            value = host(piece)
            result.cpu += 1
        else:
            result.gpu += 1
        if tracer is not None:
            tracer.instant(
                f"{kind}.part", operator=operator, index=piece.index,
                rows=piece.rows, target="gpu" if device_id >= 0 else "cpu",
                device_id=device_id, query_id=owner.query_id,
            )
        result.placed.append((piece, value))

    # Same-rank pieces on *different* devices sit adjacent and overlap;
    # same-device events keep distinct groups — their overlap is already
    # folded into the exposed makespan contributions above.
    gpu_events.sort(key=lambda e: e.parallel_group)
    ctx.ledger.extend(gpu_events)
    if sharded and lost_devices and owner.rebalance is not None:
        owner.rebalance(sorted(lost_devices))
    return result


# ---------------------------------------------------------------------------
# The three merges
# ---------------------------------------------------------------------------


def first_rows(group_index: np.ndarray, n_groups: int) -> np.ndarray:
    """First row of each dense group id (groups are appearance-ordered)."""
    first = np.full(n_groups, len(group_index), dtype=np.int64)
    np.minimum.at(first, group_index, np.arange(len(group_index)))
    return first


def renumber_merge(rows: int, parts
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """Merge pieces with disjoint group sets: renumber and concatenate.

    ``parts`` holds ``(row ids, dense group index, group count)`` per
    piece, in split order.  The group ids renumber into global
    first-appearance order — no re-aggregation — which makes the output
    bit-identical to the stock CPU chain's hash-insertion order.
    Returns ``(group index, first row per group, group count)``.
    """
    group_index = np.empty(rows, dtype=np.int64)
    offset = 0
    for row_ids, sub_index, n_sub in parts:
        group_index[row_ids] = sub_index + offset
        offset += n_sub
    first = first_rows(group_index, offset)
    rank = np.argsort(first, kind="stable")
    remap = np.empty(offset, dtype=np.int64)
    remap[rank] = np.arange(offset, dtype=np.int64)
    return remap[group_index], first[rank], offset


def stable_merge(keys: np.ndarray, runs) -> np.ndarray:
    """k-way stable merge of sorted runs over contiguous slices of ``keys``.

    ``runs`` are the slices' sorted row ids, in ascending slice order, so
    equal keys keep lower-slice (= lower-index) rows first and the result
    equals one global stable sort of ``keys``.
    """
    run_order = np.concatenate(runs)
    return run_order[np.argsort(keys[run_order], kind="stable")]


def concat_matches(parts) -> tuple[np.ndarray, np.ndarray]:
    """Ordered concatenation of per-slice ``(left, right)`` match ids."""
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return (np.concatenate([left for left, _right in parts]),
            np.concatenate([right for _left, right in parts]))
