"""Closed-loop multi-user workload simulator.

Each *user* (the paper drives these with JMETER connection threads) executes
its list of query profiles sequentially, ``loops`` times over.  A query is a
sequence of cost events; CPU work contends in the processor-sharing pool,
GPU work is admitted to a device by the least-loaded-with-room rule (waiting
when no device has memory free — section 2.1.1 option 1).

Consecutive events that share a ``parallel_group`` start together: that is
the multi-GPU data-parallel path of section 2.2, where a partitioned input
is "sent to some number of available GPU devices, to be operated on
concurrently".

The simulation is exact for this model: between events all rates are
constant, so we repeatedly advance to the earliest stage completion.

Each event costs one pass over the live CPU tasks and resident kernels
(advance their work, find the next completion).  Everything else is paid
only when something changed: the pool water-fills once per event, and only
if its task set changed; the admission queue is retried only after a
device released memory or a kernel slot; the think-time wake-up scan runs
only while some user is thinking.  None of this moves a simulated float,
because the pool's rates are a pure function of its task set.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.resources import (
    EPS,
    CpuTask,
    GpuDeviceState,
    GpuKernelTask,
    ProcessorSharingPool,
)
from repro.timing import QueryProfile


@dataclass
class UserScript:
    """One closed-loop connection thread.

    ``think_seconds`` inserts a pause between consecutive queries — the
    JMETER-style pacing of a human analyst clicking through a dashboard.
    """

    user_id: str
    profiles: list[QueryProfile]
    loops: int = 1
    think_seconds: float = 0.0


@dataclass(frozen=True)
class QueryCompletion:
    user_id: str
    query_id: str
    start: float
    end: float

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class PhaseInterval:
    """One resource occupancy window inside a request.

    ``kind`` is ``"cpu"`` (processor-sharing pool), ``"gpu"`` (resident
    on a device), or ``"queue"`` (parked in the GPU admission queue —
    the wait the serving layer surfaces as a first-class phase).
    ``device_id`` is -1 for CPU work.
    """

    kind: str
    start: float
    end: float
    device_id: int = -1

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass(frozen=True)
class RequestTrace:
    """One completed request with its full phase timeline.

    The serving telemetry layer replays these into session span trees;
    ``stages`` are cpu/gpu occupancy intervals, ``waits`` are GPU
    admission-queue intervals.  ``loop``/``index`` locate the request in
    its user's script (loop iteration, query position).
    """

    user_id: str
    query_id: str
    loop: int
    index: int
    start: float
    end: float
    stages: tuple[PhaseInterval, ...] = ()
    waits: tuple[PhaseInterval, ...] = ()

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def offloaded(self) -> bool:
        """Whether any phase ran on a GPU device."""
        return any(s.kind == "gpu" for s in self.stages)

    @property
    def queue_wait(self) -> float:
        """Total simulated seconds spent in GPU admission queues."""
        return sum(w.duration for w in self.waits)


@dataclass
class SimulationResult:
    """Everything a benchmark harness needs from one simulated run."""

    makespan: float
    completions: list[QueryCompletion]
    device_memory_logs: dict[int, list[tuple[float, int]]]
    cpu_utilisation_samples: list[tuple[float, float]]
    gpu_waits: int
    #: Per-request phase timelines (same order as ``completions``).
    requests: list[RequestTrace] = field(default_factory=list)
    #: (time, depth) samples of the GPU admission queue, on change.
    queue_depth_log: list[tuple[float, int]] = field(default_factory=list)
    #: (time, active sessions) samples, on change.
    active_sessions_log: list[tuple[float, int]] = field(default_factory=list)

    @property
    def queries_completed(self) -> int:
        return len(self.completions)

    def throughput_per_hour(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.queries_completed * 3600.0 / self.makespan

    def elapsed_by_query(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for c in self.completions:
            out.setdefault(c.query_id, []).append(c.elapsed)
        return out

    def max_queue_depth(self) -> int:
        """High-water mark of the GPU admission queue."""
        return max((depth for _, depth in self.queue_depth_log), default=0)

    def queue_depth_at(self, time: float) -> int:
        """Admission-queue depth at simulated ``time`` (step function)."""
        return _step_value(self.queue_depth_log, time)

    def active_sessions_at(self, time: float) -> int:
        """Sessions still running their scripts at simulated ``time``."""
        return _step_value(self.active_sessions_log, time)


def _step_value(log: list[tuple[float, int]], time: float) -> int:
    """The value of a time-sorted ``(time, value)`` log at ``time``.

    The last entry at or before ``time`` wins, so of several entries that
    share a timestamp the one logged last counts; before the first entry
    the value is 0.
    """
    index = bisect_right(log, time, key=itemgetter(0))
    return log[index - 1][1] if index else 0


@dataclass(frozen=True)
class _Stage:
    kind: str  # "cpu" | "gpu"
    work: float  # core-seconds or device-seconds
    max_rate: float = 1.0
    threads: int = 1
    memory_bytes: int = 0
    parallel_group: int = -1


#: A query's stages in launch order, grouped into batches that start
#: together: one stage, or a whole parallel group.
_Batches = tuple[tuple[_Stage, ...], ...]


@dataclass
class _UserState:
    script: UserScript
    loop: int = 0
    query_index: int = 0
    batches: _Batches = ()  # the current query's stage batches
    next_batch: int = 0  # index of the next batch to launch
    query_start: float = 0.0
    outstanding: set = field(default_factory=set)
    waiting_count: int = 0
    stage_intervals: list[PhaseInterval] = field(default_factory=list)
    wait_intervals: list[PhaseInterval] = field(default_factory=list)
    wake_at: Optional[float] = None  # set while thinking between queries
    in_query: bool = False  # a begun query not yet finished
    done: bool = False

    @property
    def idle(self) -> bool:
        return not self.outstanding and self.waiting_count == 0

    @property
    def stages_left(self) -> bool:
        return self.next_batch < len(self.batches)


class WorkloadSimulator:
    """Replays query profiles for concurrent users over shared hardware."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.pool = ProcessorSharingPool(config.host)
        self.devices = [
            GpuDeviceState(device_id=i, spec=spec)
            for i, spec in enumerate(config.gpus)
        ]
        self._task_ids = itertools.count(1)
        self._gpu_waits = 0
        # Per-run state (reset by run()): each profile's stage batches,
        # the CPU stages launched since the pool last water-filled, task
        # launch metadata for phase intervals, request traces, and
        # queue/session logs.
        self._batches: dict[int, _Batches] = {}
        self._launched: list[CpuTask] = []
        self._task_meta: dict[int, tuple[str, int, float]] = {}
        self._requests: list[RequestTrace] = []
        self._queue_log: list[tuple[float, int]] = []
        self._active_log: list[tuple[float, int]] = []
        self._active_count = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        users: Sequence[UserScript],
        max_seconds: Optional[float] = None,
    ) -> SimulationResult:
        """Replay ``users`` until every script ends (or ``max_seconds``)."""
        clock = SimClock()
        states = [_UserState(script=u) for u in users]
        completions: list[QueryCompletion] = []
        waiters: list[tuple[_UserState, _Stage, float]] = []
        owner_of_task: dict[int, _UserState] = {}
        util_samples: list[tuple[float, float]] = []
        self._gpu_waits = 0
        self._batches = {}
        self._launched = []
        self._task_meta = {}
        self._requests = []
        self._queue_log = []
        self._active_count = len(states)
        self._active_log = [(0.0, self._active_count)]
        thinking = 0  # users whose wake_at is set

        now = clock.now
        for state in states:
            self._begin_query(state, now)
            self._skip_empty_queries(state, now, completions)
            if not state.done:
                self._start_next_batch(state, now, owner_of_task, waiters)
        self._water_fill(())

        while self._active_count:
            now = clock.now
            if max_seconds is not None and now >= max_seconds:
                break
            delta = self._earliest_completion()
            if thinking:
                wake_delta = min(
                    s.wake_at - now for s in states if s.wake_at is not None
                )
                if delta is None or wake_delta < delta:
                    delta = max(0.0, wake_delta)
            if delta is None:
                if waiters:
                    raise SimulationError(
                        "all users blocked on GPU admission with idle "
                        "devices (a stage exceeds every device's capacity?)"
                    )
                break
            util_samples.append((now, self.pool.utilisation))
            now = clock.advance(delta)
            finished_cpu = self.pool.progress(delta)
            finished = list(finished_cpu)
            released = False
            for device in self.devices:
                done = device.progress(delta)
                for task_id in done:
                    device.release(task_id, now)
                    released = True
                finished += done

            touched = []
            for task_id in finished:
                state = owner_of_task.pop(task_id)
                kind, device_id, start = self._task_meta.pop(task_id)
                state.stage_intervals.append(
                    PhaseInterval(
                        kind=kind, start=start, end=now, device_id=device_id
                    )
                )
                state.outstanding.discard(task_id)
                touched.append(state)
            if thinking:
                # Wake users whose think time elapsed.
                for state in states:
                    wake_at = state.wake_at
                    if wake_at is not None and wake_at <= now + EPS:
                        state.wake_at = None
                        thinking -= 1
                        touched.append(state)
            if released and waiters:
                self._drain_waiters(waiters, now, owner_of_task)
            for state in touched:
                if state.done or not state.idle or state.wake_at is not None:
                    continue
                if state.in_query and not state.stages_left:
                    self._finish_query(state, now, completions)
                    if state.done:
                        continue
                    if state.script.think_seconds > 0:
                        state.wake_at = now + state.script.think_seconds
                        thinking += 1
                        continue
                if not state.in_query:
                    self._begin_query(state, now)
                    self._skip_empty_queries(state, now, completions)
                    if state.done:
                        continue
                self._start_next_batch(state, now, owner_of_task, waiters)
            self._water_fill(finished_cpu)

        return SimulationResult(
            makespan=clock.now,
            completions=completions,
            device_memory_logs={
                d.device_id: list(d.memory_log) for d in self.devices
            },
            cpu_utilisation_samples=util_samples,
            gpu_waits=self._gpu_waits,
            requests=self._requests,
            queue_depth_log=self._queue_log,
            active_sessions_log=self._active_log,
        )

    # ------------------------------------------------------------------
    # Stage plumbing
    # ------------------------------------------------------------------

    def _begin_query(self, state: _UserState, now: float) -> None:
        profile = state.script.profiles[state.query_index]
        batches = self._batches.get(id(profile))
        if batches is None:
            batches = _batched(self._stages_of(profile))
            self._batches[id(profile)] = batches
        state.batches = batches
        state.next_batch = 0
        state.query_start = now
        state.in_query = True
        state.stage_intervals = []
        state.wait_intervals = []

    def _skip_empty_queries(
        self,
        state: _UserState,
        now: float,
        completions: list[QueryCompletion],
    ) -> None:
        """Complete zero-work queries instantly (they never enter a pool)."""
        while not state.done and not state.stages_left:
            self._finish_query(state, now, completions)
            if not state.done:
                self._begin_query(state, now)

    def _stages_of(self, profile: QueryProfile) -> Iterable[_Stage]:
        host = self.config.host
        for event in profile.events:
            if event.parallel_group >= 0 and event.gpu_seconds > EPS:
                # Data-parallel GPU work: fold the (tiny) dispatch CPU time
                # into the device stage so batch members start together.
                yield _Stage(
                    kind="gpu",
                    work=event.gpu_seconds + event.cpu_seconds,
                    memory_bytes=event.gpu_memory_bytes,
                    parallel_group=event.parallel_group,
                )
                continue
            if event.cpu_seconds > EPS:
                degree = max(1, min(event.max_degree, host.hardware_threads))
                yield _Stage(
                    kind="cpu",
                    work=event.cpu_seconds,
                    max_rate=host.effective_capacity(degree),
                    threads=degree,
                    parallel_group=event.parallel_group,
                )
            if event.gpu_seconds > EPS:
                yield _Stage(
                    kind="gpu",
                    work=event.gpu_seconds,
                    memory_bytes=event.gpu_memory_bytes,
                    parallel_group=event.parallel_group,
                )

    def _start_next_batch(
        self, state: _UserState, now: float, owner_of_task, waiters
    ) -> None:
        """Launch the next stage — or the whole parallel group it heads."""
        if not state.stages_left:
            return
        batch = state.batches[state.next_batch]
        state.next_batch += 1
        for stage in batch:
            self._launch_stage(state, stage, now, owner_of_task, waiters)

    def _launch_stage(
        self,
        state: _UserState,
        stage: _Stage,
        now: float,
        owner_of_task,
        waiters,
    ) -> None:
        task_id = next(self._task_ids)
        if stage.kind == "cpu":
            # Joins the pool at the end of the event (see _water_fill).
            self._launched.append(
                CpuTask(
                    task_id=task_id,
                    remaining=stage.work,
                    max_rate=stage.max_rate,
                    threads=stage.threads,
                )
            )
            state.outstanding.add(task_id)
            owner_of_task[task_id] = state
            self._task_meta[task_id] = ("cpu", -1, now)
            return
        device = self._pick_device(stage.memory_bytes)
        if device is None:
            state.waiting_count += 1
            self._gpu_waits += 1
            waiters.append((state, stage, now))
            self._log_queue_depth(now, len(waiters))
            return
        self._admit(state, task_id, stage, device, now, owner_of_task)

    def _admit(
        self,
        state: _UserState,
        task_id: int,
        stage: _Stage,
        device: GpuDeviceState,
        now: float,
        owner_of_task,
    ) -> None:
        """Make ``stage`` resident on ``device`` as task ``task_id``."""
        kernel = GpuKernelTask(
            task_id=task_id,
            remaining=stage.work,
            memory_bytes=stage.memory_bytes,
        )
        device.admit(kernel, now)
        state.outstanding.add(task_id)
        owner_of_task[task_id] = state
        self._task_meta[task_id] = ("gpu", device.device_id, now)

    def _water_fill(self, finished_cpu: Sequence[int]) -> None:
        """Apply one event's CPU removals and launches in one water-fill.

        Nothing reads the pool's rates between an event's first change
        and the next event, so one water-fill gives the same floats as
        one per change.
        """
        if finished_cpu or self._launched:
            self.pool.update(added=self._launched, removed=finished_cpu)
            self._launched = []

    def _pick_device(self, memory_bytes: int) -> Optional[GpuDeviceState]:
        candidates = [d for d in self.devices if d.can_admit(memory_bytes)]
        if not candidates:
            return None
        return min(candidates, key=lambda d: (d.resident_count, -d.free))

    def _drain_waiters(self, waiters, now: float, owner_of_task) -> None:
        """Admit waiting GPU stages in FIFO order, in one pass.

        An admission only fills a device, so a waiter that found no
        device stays blocked for the rest of the pass, and so does every
        later waiter that needs at least as much memory.
        """
        kept = []
        blocked = None  # smallest reservation no device took this pass
        for position, entry in enumerate(waiters):
            state, stage, queued_at = entry
            memory = stage.memory_bytes
            device = None
            if blocked is None or memory < blocked:
                device = self._pick_device(memory)
            if device is None:
                if blocked is None or memory < blocked:
                    blocked = memory
                kept.append(entry)
                continue
            task_id = next(self._task_ids)
            self._admit(state, task_id, stage, device, now, owner_of_task)
            state.waiting_count -= 1
            state.wait_intervals.append(
                PhaseInterval(
                    kind="queue",
                    start=queued_at,
                    end=now,
                    device_id=device.device_id,
                )
            )
            depth = len(kept) + len(waiters) - position - 1
            self._log_queue_depth(now, depth)
        waiters[:] = kept

    def _earliest_completion(self) -> Optional[float]:
        candidates = []
        cpu_eta = self.pool.earliest_completion()
        if cpu_eta is not None:
            candidates.append(cpu_eta)
        for device in self.devices:
            eta = device.earliest_completion()
            if eta is not None:
                candidates.append(eta)
        return min(candidates) if candidates else None

    def _finish_query(
        self,
        state: _UserState,
        now: float,
        completions: list[QueryCompletion],
    ) -> None:
        profile = state.script.profiles[state.query_index]
        completions.append(
            QueryCompletion(
                user_id=state.script.user_id,
                query_id=profile.query_id,
                start=state.query_start,
                end=now,
            )
        )
        self._requests.append(
            RequestTrace(
                user_id=state.script.user_id,
                query_id=profile.query_id,
                loop=state.loop,
                index=state.query_index,
                start=state.query_start,
                end=now,
                stages=tuple(state.stage_intervals),
                waits=tuple(state.wait_intervals),
            )
        )
        state.in_query = False
        state.query_index += 1
        if state.query_index >= len(state.script.profiles):
            state.query_index = 0
            state.loop += 1
            if state.loop >= state.script.loops:
                state.done = True
                self._active_count -= 1
                self._active_log.append((now, self._active_count))

    def _log_queue_depth(self, now: float, depth: int) -> None:
        """Sample the admission-queue depth whenever it changes."""
        if not self._queue_log or self._queue_log[-1][1] != depth:
            self._queue_log.append((now, depth))


def _batched(stages: Iterable[_Stage]) -> _Batches:
    """Group stages into launch batches: each stage alone, except that a
    run of consecutive stages sharing a non-negative ``parallel_group``
    starts together."""
    batches: list[list[_Stage]] = []
    for stage in stages:
        group = stage.parallel_group
        if group >= 0 and batches and batches[-1][0].parallel_group == group:
            batches[-1].append(stage)
        else:
            batches.append([stage])
    return tuple(tuple(batch) for batch in batches)
