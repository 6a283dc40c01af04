"""Golden regression test: the simulator's exact floats, field by field.

The discrete-event simulator is deterministic, so a host-side rewrite of
its event loop must not move a single simulated float.  Each scenario
below replays a fixed synthetic workload and compares a SHA-256 digest of
every :class:`~repro.sim.SimulationResult` field (floats hashed by their
exact ``float.hex`` form) against the digest the per-event-rescan loop
produced.  A failure names the field that moved.

The scenarios reach the paths the serving-sweep ladder never takes: think
time, several loops, ``parallel_group`` waves over two devices, admission
waits under memory pressure and under a kernel-slot limit, zero-work
queries, and a ``max_seconds`` cut-off.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro.config import GpuSpec, paper_testbed
from repro.sim import SimulationResult, UserScript, WorkloadSimulator
from repro.timing import CostEvent, QueryProfile

GIB = 1024**3


def _profiles() -> dict[str, QueryProfile]:
    """One profile per stage shape the simulator distinguishes."""
    return {
        "scan": QueryProfile("scan", False, [
            CostEvent(op="SCAN", cpu_seconds=1.7, max_degree=48),
            CostEvent(op="SORT", cpu_seconds=0.3, max_degree=6),
        ]),
        "offload": QueryProfile("offload", True, [
            CostEvent(op="SCAN", cpu_seconds=0.9, max_degree=24),
            CostEvent(op="GPU-GROUPBY", cpu_seconds=0.002, max_degree=1,
                      gpu_seconds=0.13, gpu_memory_bytes=7 * GIB),
            CostEvent(op="RETURN", cpu_seconds=0.05, max_degree=2),
        ]),
        "small_gpu": QueryProfile("small_gpu", True, [
            CostEvent(op="SCAN", cpu_seconds=0.4, max_degree=8),
            CostEvent(op="GPU-SORT", gpu_seconds=0.07,
                      gpu_memory_bytes=1 * GIB),
        ]),
        "waves": QueryProfile("waves", True, [
            CostEvent(op="SCAN", cpu_seconds=0.6, max_degree=48),
            *[CostEvent(op="GPU-GROUPBY", cpu_seconds=0.001,
                        gpu_seconds=0.05 + 0.01 * i,
                        gpu_memory_bytes=3 * GIB, parallel_group=0)
              for i in range(3)],
            CostEvent(op="MERGE", cpu_seconds=0.08, max_degree=4),
            *[CostEvent(op="GPU-JOIN", gpu_seconds=0.09,
                        gpu_memory_bytes=5 * GIB, parallel_group=1)
              for _ in range(2)],
        ]),
        "empty": QueryProfile("empty", False, []),
        "no_work": QueryProfile("no_work", False, [
            CostEvent(op="NOOP", cpu_seconds=0.0, max_degree=24),
        ]),
        "serial": QueryProfile("serial", False, [
            CostEvent(op="LOOKUP", cpu_seconds=0.021, max_degree=1),
        ]),
    }


def _users(seed: int, count: int) -> list[UserScript]:
    """``count`` scripted users drawn from a seeded ``random.Random``."""
    rng = random.Random(seed)
    profiles = _profiles()
    names = sorted(profiles)
    users = []
    for i in range(count):
        length = 2 + int(rng.random() * 4)
        script = [profiles[names[int(rng.random() * len(names))]]
                  for _ in range(length)]
        loops = 1 + int(rng.random() * 3)
        think = 0.0 if rng.random() < 0.5 else round(rng.random() * 0.3, 3)
        users.append(UserScript(f"u{i}", script, loops=loops,
                                think_seconds=think))
    return users


def _slot_limited():
    """One device that runs at most two kernels at once."""
    device = dataclasses.replace(GpuSpec(), max_concurrent_kernels=2)
    return dataclasses.replace(paper_testbed(), gpus=(device,))


SCENARIOS = {
    "mixed": lambda: WorkloadSimulator(paper_testbed()).run(_users(11, 10)),
    "cutoff": lambda: WorkloadSimulator(paper_testbed()).run(
        _users(11, 10), max_seconds=1.5),
    "crowd": lambda: WorkloadSimulator(paper_testbed()).run(_users(5, 40)),
    "slots": lambda: WorkloadSimulator(_slot_limited()).run(_users(3, 12)),
}


def _canon(value):
    """JSON-able form with every float as its exact hex string."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return [_canon(getattr(value, f.name))
                for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [[_canon(k), _canon(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _digests(result: SimulationResult) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(json.dumps(
            _canon(getattr(result, f.name))).encode()).hexdigest()[:16]
        for f in dataclasses.fields(result)
    }


#: scenario -> (makespan, completions, gpu waits, per-field digests).
GOLDEN = {
    "crowd": (14.153173220777557, 294, 254, {
        "makespan": "18077ab917cc62f1",
        "completions": "906de970333f22be",
        "device_memory_logs": "71700f8b912d5e11",
        "cpu_utilisation_samples": "9ce569d53d1396cb",
        "gpu_waits": "9512d95d00d61bde",
        "requests": "a987840f8b0f86aa",
        "queue_depth_log": "b7695c0e92b63aca",
        "active_sessions_log": "8b40871f617f87e8",
    }),
    "cutoff": (1.5105857452525915, 54, 17, {
        "makespan": "0809392ed4f019ab",
        "completions": "96b4ae433ddde415",
        "device_memory_logs": "ff6e1d441299d02a",
        "cpu_utilisation_samples": "5e4ac5e02e7609bf",
        "gpu_waits": "4523540f1504cd17",
        "requests": "d7c0bbcab8465773",
        "queue_depth_log": "a6b1a27fbb243578",
        "active_sessions_log": "780cd96214cd4f39",
    }),
    "mixed": (3.076443828951019, 78, 26, {
        "makespan": "9a957872adfc707b",
        "completions": "0a5352d12bc4c5df",
        "device_memory_logs": "7945ab0cf607f15a",
        "cpu_utilisation_samples": "709e816297b528ac",
        "gpu_waits": "5f9c4ab08cac7457",
        "requests": "6f004a6a9c7a5bcc",
        "queue_depth_log": "6faa9fa77248527f",
        "active_sessions_log": "6e00bd81b433625c",
    }),
    "slots": (11.764471302550284, 88, 118, {
        "makespan": "56d4392eefa11707",
        "completions": "99b2c153d50b501b",
        "device_memory_logs": "3377e2f721e0a891",
        "cpu_utilisation_samples": "488ac73ea145ca54",
        "gpu_waits": "85daaf6f7055cd57",
        "requests": "65890584791fe8d4",
        "queue_depth_log": "99d432fa6db0b639",
        "active_sessions_log": "74190460599ac28b",
    }),
}


#: Python 3.12 made ``sum`` over floats compensated (Neumaier), which
#: moves the pool's utilisation samples and nothing else pinned here.
COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 2.0
UTILISATION_COMPENSATED = {
    "crowd": "7e2276a9ba884ad3",
    "cutoff": "b4e9417c1a59e679",
    "mixed": "86e9863c0b471e78",
    "slots": "9ffe906969090c47",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulation_is_byte_identical(name):
    result = SCENARIOS[name]()
    makespan, completed, waits, digests = GOLDEN[name]
    if COMPENSATED_SUM:
        digests = {**digests,
                   "cpu_utilisation_samples": UTILISATION_COMPENSATED[name]}
    assert result.makespan == makespan
    assert result.queries_completed == completed
    assert result.gpu_waits == waits
    assert _digests(result) == digests


def test_scenarios_reach_the_rare_paths():
    """The golden runs really exercise what they claim to pin."""
    mixed = SCENARIOS["mixed"]()
    users = _users(11, 10)
    assert any(u.think_seconds > 0 for u in users)
    assert any(u.loops > 1 for u in users)
    assert mixed.gpu_waits > 0
    assert max(r.loop for r in mixed.requests) > 0
    zero = [r for r in mixed.requests if r.query_id in ("empty", "no_work")]
    assert zero and all(r.elapsed == 0.0 for r in zero)
    waves = [r for r in mixed.requests if r.query_id == "waves"]
    assert any(len({s.device_id for s in r.stages if s.kind == "gpu"}) == 2
               for r in waves)
    cutoff = SCENARIOS["cutoff"]()
    assert cutoff.makespan >= 1.5
    assert cutoff.queries_completed < mixed.queries_completed
    slots = SCENARIOS["slots"]()
    assert slots.gpu_waits > 0


# ---------------------------------------------------------------------------
# The serving telemetry replay over the same runs
# ---------------------------------------------------------------------------

CLASS_OF = {"scan": "complex", "offload": "complex", "waves": "complex",
            "small_gpu": "simple", "serial": "simple", "empty": "simple",
            "no_work": "simple"}


def _replay(name: str):
    from repro.obs.serving import build_serving_run
    from repro.obs.slo import SLObjective

    slos = (
        SLObjective("latency", objective=0.9, latency_threshold=0.9),
        SLObjective("simple", objective=0.95, latency_threshold=0.2,
                    query_class="simple"),
        SLObjective("availability", objective=0.999),
    )
    return build_serving_run(
        SCENARIOS[name](), CLASS_OF, sessions=0, gpu=True, degree=48,
        loops=1, think_seconds=0.0, slos=slos)


def _replay_digest(run) -> str:
    times = [run.makespan * k / 7 for k in range(8)]
    spans = [(s.name, s.trace_id, s.span_id, s.parent_id, s.start, s.end,
              sorted(s.attributes.items())) for s in run.tracer.spans]
    alerts = [(a.slo, a.time, a.rule.label, a.long_burn, a.short_burn)
              for a in run.slo.alerts]
    view = {
        "spans": spans,
        "registry": sorted(run.registry.to_dict().items()),
        "alerts": alerts,
        "snapshots": [sorted(run.snapshot(at=t).items()) for t in times],
        "burns": [run.slo.burn_rate(slo.name, t, w)
                  for slo in run.slo.objectives for t in times
                  for w in (0.25, 1.0, 4.0)],
    }
    return hashlib.sha256(
        json.dumps(_canon(view)).encode()).hexdigest()[:16]


#: scenario -> (spans, alerts, replay digest).
REPLAY_GOLDEN = {
    "crowd": (1540, 33, "1411bae1a60cbaf4"),
    "mixed": (353, 2, "4440b12ac43a8ba7"),
    "slots": (504, 17, "872b9354cbeb8d61"),
}


@pytest.mark.parametrize("name", sorted(REPLAY_GOLDEN))
def test_serving_replay_is_byte_identical(name):
    run = _replay(name)
    spans, alerts, digest = REPLAY_GOLDEN[name]
    assert len(run.tracer.spans) == spans
    assert len(run.slo.alerts) == alerts
    assert _replay_digest(run) == digest
