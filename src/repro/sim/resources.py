"""Contended resources: the processor-sharing CPU pool and GPU devices.

CPU model — *processor sharing with per-task rate caps*: at any instant the
host delivers ``capacity`` core-equivalents (24 cores plus the SMT bonus),
shared fairly across all runnable CPU stages, except that no stage can
absorb more than its own parallelism allows (``max_rate``, the effective
capacity of its degree).  Allocation is the classic water-filling: tasks
that want less than the fair share keep what they want; the surplus is
redistributed among the rest.

The rates are a pure function of the pool's task dict (its contents and
insertion order): a water-fill recomputes every rate from scratch.  So a
batch of removals and additions needs only one water-fill, and its rates
are bit-for-bit those of the last single-task call it replaces.

GPU model — each device runs its resident kernels concurrently, sharing the
device's throughput equally (a kernel's profiled duration assumed a dedicated
device, so with k resident kernels everyone slows by k).  Device memory is
admission-controlled: a kernel only becomes resident once its reservation
fits, otherwise it waits in the device-selection queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.config import GpuSpec, HostSpec

#: Work (core- or device-seconds) at or below which a task has finished.
EPS = 1e-9


@dataclass
class CpuTask:
    """One CPU stage inside the pool."""

    task_id: int
    remaining: float  # core-seconds of work left
    max_rate: float  # core-equivalents this stage can absorb
    threads: int = 1  # software threads it runs (degree)
    rate: float = 0.0  # current allocation (set by the pool)


class ProcessorSharingPool:
    """Water-filling processor-sharing allocator over the host's cores.

    The pool's instantaneous capacity depends on how many software threads
    are runnable: a single degree-24 query extracts 24 core-equivalents,
    while two of them (48 threads) extract the SMT bonus on top — which is
    exactly the mechanism behind Table 3's degree sweep.
    """

    def __init__(self, host: HostSpec) -> None:
        self.host = host
        self.tasks: dict[int, CpuTask] = {}
        self._threads = 0  # running sum of the tasks' threads
        self._capacity = 0.0  # effective capacity of those threads

    @property
    def capacity(self) -> float:
        return self._capacity

    def add(self, task: CpuTask) -> None:
        self.update(added=(task,))

    def remove(self, task_id: int) -> None:
        self.update(removed=(task_id,))

    def update(
        self,
        added: Iterable[CpuTask] = (),
        removed: Iterable[int] = (),
    ) -> None:
        """Remove ``removed``, then add ``added``, and water-fill once.

        Unknown ids in ``removed`` are ignored.  The rates equal those of
        the same removals and additions done one call at a time, because
        they depend only on the final task dict.
        """
        tasks = self.tasks
        for task_id in removed:
            task = tasks.pop(task_id, None)
            if task is not None:
                self._threads -= task.threads
        for task in added:
            old = tasks.get(task.task_id)
            if old is not None:
                self._threads -= old.threads
            tasks[task.task_id] = task
            self._threads += task.threads
        threads = min(self._threads, self.host.hardware_threads)
        self._capacity = (
            self.host.effective_capacity(threads) if threads > 0 else 0.0
        )
        self.reallocate()

    def reallocate(self) -> None:
        """Recompute every task's service rate (water-filling)."""
        tasks = self.tasks.values()
        pending = list(tasks)
        capacity = self._capacity
        while pending and capacity > 1e-12:
            share = capacity / len(pending)
            limit = share + 1e-12
            capped = [t for t in pending if t.max_rate <= limit]
            if not capped:
                for task in pending:
                    task.rate = share
                pending = []
                capacity = 0.0
                break
            for task in capped:
                task.rate = task.max_rate
                capacity -= task.max_rate
            pending = [t for t in pending if t.max_rate > limit]
        for task in pending:  # left without capacity
            task.rate = 0.0
        # numerical guard
        if capacity < 0:
            scale = self._capacity / max(1e-12, sum(t.rate for t in tasks))
            if scale < 1.0:
                for task in tasks:
                    task.rate *= scale

    def progress(self, delta: float) -> list[int]:
        """Advance every task's work by ``delta`` seconds at current rates.

        Returns the ids of the tasks whose work is now done (at most
        :data:`EPS` left), in the pool's order.
        """
        finished = []
        for task in self.tasks.values():
            remaining = task.remaining - task.rate * delta
            if not remaining > EPS:
                if not remaining > 0.0:  # max(0.0, remaining), NaN too
                    remaining = 0.0
                finished.append(task.task_id)
            task.remaining = remaining
        return finished

    def earliest_completion(self) -> Optional[float]:
        """Seconds until the first CPU task finishes at current rates."""
        best = None
        for task in self.tasks.values():
            rate = task.rate
            if rate <= 1e-15:
                continue
            eta = task.remaining / rate
            if best is None or eta < best:
                best = eta
        return best

    @property
    def utilisation(self) -> float:
        used = sum(t.rate for t in self.tasks.values())
        return used / self._capacity if self._capacity else 0.0


@dataclass
class GpuKernelTask:
    """One kernel resident on a device."""

    task_id: int
    remaining: float  # dedicated-device seconds of work left
    memory_bytes: int


@dataclass
class GpuDeviceState:
    """Simulator-side view of one GPU: resident kernels + reserved memory."""

    device_id: int
    spec: GpuSpec
    kernels: dict[int, GpuKernelTask] = field(default_factory=dict)
    reserved: int = 0
    # (timestamp, reserved_bytes) — the Figure 9 trace.
    memory_log: list[tuple[float, int]] = field(default_factory=list)

    @property
    def free(self) -> int:
        return self.spec.device_memory_bytes - self.reserved

    @property
    def resident_count(self) -> int:
        return len(self.kernels)

    def can_admit(self, memory_bytes: int) -> bool:
        return (
            memory_bytes <= self.free
            and self.resident_count < self.spec.max_concurrent_kernels
        )

    def admit(self, task: GpuKernelTask, now: float) -> None:
        self.kernels[task.task_id] = task
        self.reserved += task.memory_bytes
        self.memory_log.append((now, self.reserved))

    def release(self, task_id: int, now: float) -> None:
        task = self.kernels.pop(task_id)
        self.reserved -= task.memory_bytes
        self.memory_log.append((now, self.reserved))

    @property
    def rate_per_kernel(self) -> float:
        """Equal device share per resident kernel."""
        return 1.0 / self.resident_count if self.kernels else 0.0

    def progress(self, delta: float) -> list[int]:
        """Advance every resident kernel; returns the finished ids."""
        rate = self.rate_per_kernel
        finished = []
        for task in self.kernels.values():
            remaining = task.remaining - rate * delta
            if not remaining > EPS:
                if not remaining > 0.0:
                    remaining = 0.0
                finished.append(task.task_id)
            task.remaining = remaining
        return finished

    def earliest_completion(self) -> Optional[float]:
        rate = self.rate_per_kernel
        if rate <= 0:
            return None
        remaining = min(
            (t.remaining for t in self.kernels.values()), default=None
        )
        return remaining / rate if remaining is not None else None
