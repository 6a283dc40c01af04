"""Unit tests for the processor-sharing pool and GPU device states."""

import random

import pytest

from repro.config import GpuSpec, HostSpec
from repro.sim.resources import (
    CpuTask,
    GpuDeviceState,
    GpuKernelTask,
    ProcessorSharingPool,
)


@pytest.fixture()
def host():
    return HostSpec()


@pytest.fixture()
def pool(host):
    return ProcessorSharingPool(host)


class TestEffectiveCapacity:
    def test_linear_up_to_cores(self, host):
        assert host.effective_capacity(1) == 1.0
        assert host.effective_capacity(24) == 24.0

    def test_smt_bonus_diminishes(self, host):
        c24 = host.effective_capacity(24)
        c48 = host.effective_capacity(48)
        c96 = host.effective_capacity(96)
        assert c24 < c48 < c96
        assert c48 - c24 > c96 - c48           # diminishing returns
        assert c96 < 24 * (1 + host.smt_efficiency) + 1e-9

    def test_clamped_at_hardware_threads(self, host):
        assert host.effective_capacity(1000) == \
            host.effective_capacity(host.hardware_threads)


class TestWaterFilling:
    def test_single_task_gets_its_cap(self, pool):
        pool.add(CpuTask(1, remaining=10.0, max_rate=8.0, threads=8))
        assert pool.tasks[1].rate == pytest.approx(8.0)

    def test_fair_share_when_contended(self, pool, host):
        for i in range(4):
            pool.add(CpuTask(i, remaining=10.0, max_rate=24.0, threads=24))
        capacity = host.effective_capacity(96)
        for task in pool.tasks.values():
            assert task.rate == pytest.approx(capacity / 4)

    def test_capped_tasks_release_surplus(self, pool, host):
        pool.add(CpuTask(1, remaining=10.0, max_rate=1.0, threads=1))
        pool.add(CpuTask(2, remaining=10.0, max_rate=48.0, threads=48))
        assert pool.tasks[1].rate == pytest.approx(1.0)
        capacity = host.effective_capacity(49)
        assert pool.tasks[2].rate == pytest.approx(capacity - 1.0)

    def test_total_never_exceeds_capacity(self, pool):
        for i in range(10):
            pool.add(CpuTask(i, remaining=5.0, max_rate=16.0, threads=16))
        total = sum(t.rate for t in pool.tasks.values())
        assert total <= pool.capacity + 1e-9

    def test_capacity_grows_with_threads(self, pool):
        pool.add(CpuTask(1, remaining=1.0, max_rate=24.0, threads=24))
        c1 = pool.capacity
        pool.add(CpuTask(2, remaining=1.0, max_rate=24.0, threads=24))
        assert pool.capacity > c1

    def test_progress_and_completion(self, pool):
        pool.add(CpuTask(1, remaining=10.0, max_rate=5.0, threads=5))
        eta = pool.earliest_completion()
        assert eta == pytest.approx(2.0)
        pool.progress(1.0)
        assert pool.tasks[1].remaining == pytest.approx(5.0)
        pool.remove(1)
        assert pool.earliest_completion() is None

    def test_utilisation(self, pool):
        pool.add(CpuTask(1, remaining=1.0, max_rate=24.0, threads=24))
        assert pool.utilisation == pytest.approx(1.0)


class TestGpuDeviceState:
    def test_admission_respects_memory(self):
        device = GpuDeviceState(0, GpuSpec())
        big = GpuKernelTask(1, remaining=1.0,
                            memory_bytes=10 * 1024**3)
        device.admit(big, now=0.0)
        assert not device.can_admit(5 * 1024**3)
        assert device.can_admit(1 * 1024**3)

    def test_kernel_slot_limit(self):
        spec = GpuSpec()
        device = GpuDeviceState(0, spec)
        for i in range(spec.max_concurrent_kernels):
            device.admit(GpuKernelTask(i, 1.0, 1024), now=0.0)
        assert not device.can_admit(1024)

    def test_sharing_slows_kernels(self):
        device = GpuDeviceState(0, GpuSpec())
        device.admit(GpuKernelTask(1, remaining=1.0, memory_bytes=0), 0.0)
        assert device.earliest_completion() == pytest.approx(1.0)
        device.admit(GpuKernelTask(2, remaining=1.0, memory_bytes=0), 0.0)
        assert device.earliest_completion() == pytest.approx(2.0)

    def test_memory_log_records_transitions(self):
        device = GpuDeviceState(0, GpuSpec())
        device.admit(GpuKernelTask(1, 1.0, 500), now=1.0)
        device.release(1, now=2.0)
        assert device.memory_log == [(1.0, 500), (2.0, 0)]

    def test_progress(self):
        device = GpuDeviceState(0, GpuSpec())
        device.admit(GpuKernelTask(1, remaining=1.0, memory_bytes=0), 0.0)
        device.admit(GpuKernelTask(2, remaining=0.5, memory_bytes=0), 0.0)
        device.progress(0.5)                   # each gets rate 1/2
        assert device.kernels[1].remaining == pytest.approx(0.75)
        assert device.kernels[2].remaining == pytest.approx(0.25)


def _rates(pool):
    """Every task's (id, rate) in pool order, rates as exact hex."""
    return [(t.task_id, t.rate.hex()) for t in pool.tasks.values()]


def _random_task(rng, task_id, host):
    degree = 1 + int(rng.random() * 96)
    return CpuTask(task_id, remaining=rng.random() * 5.0,
                   max_rate=host.effective_capacity(degree), threads=degree)


class TestBatchedUpdate:
    """One water-fill per batch gives the single-call rates bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_batch_matches_one_call_at_a_time(self, host, seed):
        rng = random.Random(seed)
        single = ProcessorSharingPool(host)
        batched = ProcessorSharingPool(host)
        next_id = 0
        for _ in range(40):
            live = list(single.tasks)
            removed = [t for t in live if rng.random() < 0.3]
            added = []
            for _ in range(int(rng.random() * 6)):
                added.append(_random_task(rng, next_id, host))
                next_id += 1
            for task_id in removed:
                single.remove(task_id)
            for task in added:
                single.add(task)
            batched.update(
                added=[CpuTask(t.task_id, t.remaining, t.max_rate, t.threads)
                       for t in added],
                removed=removed)
            assert _rates(batched) == _rates(single)
            assert batched.capacity == single.capacity
            assert batched.utilisation == single.utilisation

    def test_removals_apply_before_additions(self, pool):
        pool.add(CpuTask(1, remaining=1.0, max_rate=4.0, threads=4))
        pool.update(added=[CpuTask(1, remaining=2.0, max_rate=8.0,
                                   threads=8)],
                    removed=[1])
        assert pool.tasks[1].remaining == 2.0
        assert pool.capacity == pool.host.effective_capacity(8)

    def test_empty_update_keeps_rates(self, pool):
        pool.add(CpuTask(1, remaining=1.0, max_rate=4.0, threads=4))
        before = _rates(pool)
        pool.update()
        assert _rates(pool) == before


class TestRunningThreadTotal:
    def test_unknown_remove_keeps_total(self, pool, host):
        pool.add(CpuTask(1, remaining=1.0, max_rate=8.0, threads=8))
        pool.remove(99)
        pool.update(removed=[1, 99, 1])
        assert pool.capacity == 0.0
        pool.add(CpuTask(2, remaining=1.0, max_rate=4.0, threads=4))
        assert pool.capacity == host.effective_capacity(4)

    def test_re_adding_an_id_replaces_its_threads(self, pool, host):
        pool.add(CpuTask(1, remaining=1.0, max_rate=8.0, threads=8))
        pool.add(CpuTask(1, remaining=1.0, max_rate=2.0, threads=2))
        assert pool.capacity == host.effective_capacity(2)

    @pytest.mark.parametrize("seed", range(8))
    def test_capacity_tracks_recomputed_threads(self, host, seed):
        rng = random.Random(100 + seed)
        pool = ProcessorSharingPool(host)
        for step in range(200):
            roll = rng.random()
            if roll < 0.45:
                pool.add(_random_task(rng, int(rng.random() * 30), host))
            elif roll < 0.8:
                pool.remove(int(rng.random() * 35))
            else:
                pool.update(
                    added=[_random_task(rng, 30 + step, host)],
                    removed=[int(rng.random() * 35) for _ in range(3)])
            threads = sum(t.threads for t in pool.tasks.values())
            expected = (host.effective_capacity(
                min(threads, host.hardware_threads)) if threads else 0.0)
            assert pool.capacity == expected


class TestProgressReportsFinished:
    def test_finished_ids_in_pool_order(self, pool):
        pool.add(CpuTask(1, remaining=1.0, max_rate=1.0, threads=1))
        pool.add(CpuTask(2, remaining=5.0, max_rate=1.0, threads=1))
        pool.add(CpuTask(3, remaining=0.5, max_rate=1.0, threads=1))
        assert pool.progress(1.0) == [1, 3]
        assert pool.tasks[3].remaining == 0.0
        assert pool.progress(0.0) == [1, 3]

    def test_device_progress_reports_finished(self):
        device = GpuDeviceState(0, GpuSpec())
        device.admit(GpuKernelTask(1, remaining=1.0, memory_bytes=0), 0.0)
        device.admit(GpuKernelTask(2, remaining=0.25, memory_bytes=0), 0.0)
        assert device.progress(0.5) == [2]
        assert device.kernels[2].remaining == 0.0
