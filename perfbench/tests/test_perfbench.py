"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import worker  # noqa: E402
from repro.workloads.driver import WorkloadDriver  # noqa: E402

TINY = dict(seed=3, seconds=0.0, scale=0.01, setups=3, sessions=(1, 8))


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------

def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == worker.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload, capsys):
    result = worker.run(workload, trace=False, **TINY)
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in _benchmark_json()["end_to_end"]]
    assert list(result["metrics"]) == names
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


def test_traced_smoke_prints_every_per_layer_metric(capsys, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(worker, "TRACE_DIR", str(tmp_path))
    result = worker.run("serving", trace=True, **TINY)
    assert result["correct"], capsys.readouterr().out
    names = [m["name"] for m in _benchmark_json()["per_layer"]]
    assert list(result["metrics"]) == names
    values = {name: e["value"] for name, e in result["metrics"].items()}
    for name in ("datagen.generate_s", "blu.stats_s", "blu.parse_s",
                 "core.groupby_s", "sim.run_s", "obs.serving_build_s",
                 "checksum_s", "sim.pool_progress_calls", "obs.spans"):
        assert values[name] > 0, name
    spans = (tmp_path / "spans_serving_seed3.jsonl").read_text().splitlines()
    assert len(spans) == values["trace.spans"]
    assert set(json.loads(spans[0])) == {"name", "start", "end", "parent",
                                         "query_id"}


def test_launcher_end_to_end():
    # The real scale, with no timed seconds beyond the 100-query minimum;
    # seed 7 also checks the cold pass against BENCH_bd_insights.json.
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", "bd_insights", "--seed", "7", "--seconds", "0",
               "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == list(worker.END_TO_END)


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bd_insights",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ---------------------------------------------------------------------------
# Checksum gate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["bd_insights", "rolap_sharded"])
def test_checksum_gate_counts_a_wrong_answer(workload):
    failures: list[str] = []
    setup = worker.setup_queries(workload, 3, 0.01, failures)
    assert failures == []
    victim = setup.queries[0].query_id
    setup.reference[victim] = "0" * 16
    worker.run_pass(setup.driver, setup.queries, setup.reference, "bad",
                    failures)
    assert len(failures) == 1 and failures[0].startswith(f"bad:{victim}:")


def test_serving_checksum_gate_counts_wrong_answers(monkeypatch):
    original = WorkloadDriver.result_checksum

    def cpu_disagrees(self, query, gpu):
        return original(self, query, gpu) if gpu else "0" * 16

    monkeypatch.setattr(WorkloadDriver, "result_checksum", cpu_disagrees)
    failures: list[str] = []
    setup = worker.setup_serving(3, 0.01, failures)
    assert len(failures) == len(setup.concurrent.queries)


def test_bd_baseline_check_flags_a_changed_cold_pass(monkeypatch):
    failures: list[str] = []
    setup = worker.setup_queries("bd_insights", 3, 0.01, failures)
    fake = {q: {"elapsed_ms": ms, "checksum": ck}
            for q, ms, ck in zip(
                (qid.split(":", 1)[1] for qid in setup.warm.query_ids),
                (round(ms, 6) for ms in setup.warm.sim_ms),
                setup.warm.checksums)}
    monkeypatch.setattr(worker, "_load_json", lambda name: {"queries": fake})
    worker.check_bd_baseline(setup, failures)
    assert failures == []
    first = next(iter(fake))
    fake[first] = dict(fake[first], elapsed_ms=fake[first]["elapsed_ms"] + 1)
    worker.check_bd_baseline(setup, failures)
    assert len(failures) == 1 and failures[0].startswith(first)


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99),
    (9999, 99), (10000, 99.9), (16900, 99.9),
])
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert worker.supported_percentile(n) == expected
    if expected is not None:
        assert worker.samples_beyond(expected, n) >= 10


def test_percentile_is_harrell_davis_and_refuses_thin_tails():
    values = list(range(100, 0, -1))
    assert worker.percentile(values, 50) == pytest.approx(50.5, abs=1e-6)
    assert worker.percentile(values, 90) == pytest.approx(90.5, abs=1e-3)
    assert worker.percentile([7.0] * 100, 90) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        worker.percentile(values[:99], 90)


def test_percentile_moves_smoothly_across_a_gap():
    # 50 samples near 60 and 50 near 85: one sample crossing the gap
    # moves a nearest-rank median by 25; the estimate moves far less.
    low, high = [60.0 + i / 100 for i in range(50)], [85.0] * 50
    before = worker.percentile(low + high, 50)
    after = worker.percentile(low[:-1] + high + [85.0], 50)
    assert 60 < before < 85
    assert abs(after - before) < 3


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _current_attributes():
    out = []
    for module_name, path, _name, _outcome in layers.TARGETS:
        owner, attr = layers.resolve(module_name, path)
        out.append(vars(owner)[attr])
    return out


def test_install_then_remove_restores_every_attribute():
    before = _current_attributes()
    patcher = layers.Patcher()
    patcher.install(layers.SpanLog())
    try:
        during = _current_attributes()
        assert all(a is not b for a, b in zip(before, during))
    finally:
        patcher.remove()
    after = _current_attributes()
    assert all(a is b for a, b in zip(before, after))


def test_wrapper_cost_is_small_and_never_negative():
    assert 0.0 <= layers.wrapper_cost_s() < 1e-4


def test_self_time_subtracts_child_spans():
    log = layers.SpanLog()
    log.names[:] = ["outer", "inner", "inner"]
    log.starts[:] = [0.0, 1.0, 3.0]
    log.ends[:] = [10.0, 2.0, 6.0]
    log.parents[:] = [-1, 0, 0]
    log.query_ids[:] = ["q", "q", "q"]
    assert log.self_times() == {"outer": 6.0, "inner": 4.0}


def test_wrapper_records_nesting_and_outcomes():
    log = layers.SpanLog()

    class Decision:
        def __init__(self, shard):
            self.shard = shard

    inner = log.wrap(lambda shard: Decision(shard), "core.pathselect",
                     "gpu.shard.accepted_ratio")
    outer = log.wrap(lambda: [inner(True), inner(False)], "core.sort")
    log.query_id = "p1:Q"
    outer()
    assert log.names == ["core.sort", "core.pathselect", "core.pathselect"]
    assert log.parents == [-1, 0, 0]
    assert log.query_ids == ["p1:Q"] * 3
    assert log.ratio("gpu.shard.accepted_ratio") == 0.5
