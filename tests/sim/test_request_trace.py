"""Simulator request telemetry: per-request phase intervals, queue-depth
and active-session logs (the raw feed of the serving layer)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import paper_testbed
from repro.sim import UserScript, WorkloadSimulator
from repro.timing import CostEvent, QueryProfile


def profile(qid, cpu=0.0, gpu=0.0, degree=24, mem=0):
    events = []
    if cpu:
        events.append(CostEvent(op="CPU", cpu_seconds=cpu,
                                max_degree=degree))
    if gpu:
        events.append(CostEvent(op="GPU", gpu_seconds=gpu,
                                gpu_memory_bytes=mem, max_degree=1))
    return QueryProfile(qid, gpu_enabled=gpu > 0, events=events)


def run(users):
    return WorkloadSimulator(paper_testbed()).run(users)


class TestRequestTraces:
    def test_one_trace_per_completion(self):
        result = run([UserScript("u", [profile("q", cpu=24.0)], loops=3)])
        assert len(result.requests) == 3
        assert [r.loop for r in result.requests] == [0, 1, 2]
        assert all(r.user_id == "u" and r.query_id == "q"
                   for r in result.requests)

    def test_trace_times_match_completions(self):
        result = run([UserScript("u", [profile("q", cpu=24.0, gpu=0.5,
                                               mem=1 << 20)])])
        [request] = result.requests
        [completion] = result.completions
        assert request.elapsed == pytest.approx(completion.elapsed)
        assert request.end <= result.makespan + 1e-12

    def test_stage_intervals_cover_request(self):
        result = run([UserScript("u", [profile("q", cpu=24.0, gpu=0.5,
                                               mem=1 << 20)])])
        [request] = result.requests
        kinds = {s.kind for s in request.stages}
        assert kinds == {"cpu", "gpu"}
        assert request.offloaded
        total = sum(s.duration for s in request.stages)
        assert total == pytest.approx(request.elapsed)
        for stage in request.stages:
            assert request.start <= stage.start <= stage.end <= request.end

    def test_cpu_only_request_not_offloaded(self):
        result = run([UserScript("u", [profile("q", cpu=24.0)])])
        [request] = result.requests
        assert not request.offloaded
        assert request.queue_wait == 0.0

    def test_queue_wait_recorded_under_contention(self):
        config = paper_testbed()
        mem = config.gpus[0].device_memory_bytes  # one kernel per device
        users = [
            UserScript(f"u{i}", [profile("q", gpu=1.0, mem=mem)])
            for i in range(4)   # 4 kernels, 2 devices -> 2 must wait
        ]
        result = WorkloadSimulator(config).run(users)
        waited = [r for r in result.requests if r.queue_wait > 0.0]
        assert len(waited) == 2
        for request in waited:
            assert any(w.kind == "queue" for w in request.waits)
            assert request.queue_wait == pytest.approx(
                sum(w.duration for w in request.waits))


class TestQueueDepthLog:
    def test_depth_log_under_contention(self):
        config = paper_testbed()
        mem = config.gpus[0].device_memory_bytes
        users = [UserScript(f"u{i}", [profile("q", gpu=1.0, mem=mem)])
                 for i in range(4)]
        result = WorkloadSimulator(config).run(users)
        assert result.max_queue_depth() == 2
        times = [t for t, _ in result.queue_depth_log]
        assert times == sorted(times)
        # Step function: after the run everything has drained.
        assert result.queue_depth_at(result.makespan) == 0
        assert result.queue_depth_at(-1.0) == 0

    def test_no_contention_no_queue(self):
        result = run([UserScript("u", [profile("q", cpu=24.0)])])
        assert result.max_queue_depth() == 0
        assert result.queue_depth_log == []


class TestActiveSessionsLog:
    def test_sessions_drain_to_zero(self):
        users = [UserScript(f"u{i}", [profile("q", cpu=float(12 * (i + 1)))])
                 for i in range(3)]
        result = run(users)
        assert result.active_sessions_at(0.0) == 3
        assert result.active_sessions_at(result.makespan) == 0
        counts = [n for _, n in result.active_sessions_log]
        assert counts[0] == 3 and counts[-1] == 0
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def _scan(log, time):
    """Reference step lookup: the last entry at or before ``time``."""
    value = 0
    for when, entry in log:
        if when > time:
            break
        value = entry
    return value


class TestStepLookups:
    LOG = [(0.0, 1), (0.5, 2), (0.5, 4), (0.5, 3), (1.25, 0), (2.0, 5)]

    def result(self):
        from repro.sim import SimulationResult

        return SimulationResult(
            makespan=2.0, completions=[], device_memory_logs={},
            cpu_utilisation_samples=[], gpu_waits=0,
            queue_depth_log=list(self.LOG),
            active_sessions_log=list(self.LOG))

    def test_last_entry_at_a_shared_timestamp_wins(self):
        result = self.result()
        assert result.queue_depth_at(0.5) == 3
        assert result.active_sessions_at(0.5) == 3
        assert result.queue_depth_at(0.4999) == 1
        assert result.queue_depth_at(1.25) == 0

    def test_before_first_and_after_last_entry(self):
        result = self.result()
        assert result.queue_depth_at(-1.0) == 0
        assert result.active_sessions_at(99.0) == 5
        empty = dataclasses.replace(result, queue_depth_log=[])
        assert empty.queue_depth_at(1.0) == 0

    def test_matches_a_linear_scan(self):
        result = self.result()
        for time in [-0.5, 0.0, 0.25, 0.5, 0.75, 1.25, 1.5, 2.0, 3.0]:
            assert result.queue_depth_at(time) == _scan(self.LOG, time)
            assert result.active_sessions_at(time) == _scan(self.LOG, time)
