"""Sort fault accounting: fallback counts and the device a fault names.

``SortRunStats.fallbacks`` (and ``repro_sort_fallbacks_total``) counts
one per job or piece that was bound for a device but ran on the host.
A shard that faults and then runs on another GPU is a reroute, not a
fallback; a shard that no device had room for is a fallback.  Every
``fault.fallback`` instant names the device that failed.
"""

import dataclasses

import pytest

from repro.blu import BluEngine, Catalog
from repro.config import paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.faults import FaultPlan
from tests.conftest import tables_equal

SORT_SQL = "SELECT s_item, s_ticket FROM sales ORDER BY s_item"
SEGMENTED_SQL = "SELECT s_store, s_qty FROM sales ORDER BY s_store, s_qty"


def make_engine(sales_table, stores_table, faults, devices=2,
                shard=False):
    catalog = Catalog()
    catalog.register(sales_table)
    catalog.register(stores_table)
    config = paper_testbed()
    config = dataclasses.replace(
        config,
        thresholds=dataclasses.replace(config.thresholds, t1_min_rows=5_000,
                                       sort_min_rows=5_000),
        gpus=tuple(config.gpus[0] for _ in range(devices)),
        shard_enabled=shard, nvlink_enabled=shard, fusion_enabled=False,
        faults=FaultPlan.parse(faults))
    return catalog, GpuAcceleratedEngine(catalog, config=config)


def fault_fallbacks(engine):
    return [(s.attributes["device_id"], s.attributes["error"])
            for s in engine.tracer.spans if s.name == "fault.fallback"]


def test_segmented_fault_names_its_device(sales_table, stores_table):
    """Device 0 runs the first job and caches its input, so the
    segmented job leases device 1, whose first launch fails: the
    fallback must name device 1, not -1."""
    catalog, engine = make_engine(sales_table, stores_table,
                                  "launch@1:nth=1")
    result = engine.execute_sql(SEGMENTED_SQL)
    assert engine._sort.last_stats.duplicate_jobs > 0
    assert fault_fallbacks(engine) == [(1, "KernelLaunchError")]
    assert engine._sort.last_stats.fallbacks == 1
    assert tables_equal(result.table,
                        BluEngine(catalog).execute_sql(SEGMENTED_SQL).table)


@pytest.mark.parametrize("faults,fallbacks,rerouted", [
    # Shard 1's home fails once; the shard reroutes to another GPU.
    ("launch@1:nth=1", 0, 1),
    # No device has room: all four shards sort on the host.
    ("reserve", 4, 0),
])
def test_sharded_fallbacks_count_host_shards(sales_table, stores_table,
                                             faults, fallbacks, rerouted):
    catalog, engine = make_engine(sales_table, stores_table, faults,
                                  devices=4, shard=True)
    result = engine.execute_sql(SORT_SQL)
    (shard_exec,) = [s.attributes for s in engine.tracer.spans
                     if s.name == "shard.exec"]
    assert shard_exec["rerouted"] == rerouted
    assert shard_exec["cpu_shards"] == fallbacks
    assert engine._sort.last_stats.fallbacks == fallbacks
    assert engine.registry.get(
        "repro_sort_fallbacks_total").value == fallbacks
    assert tables_equal(result.table,
                        BluEngine(catalog).execute_sql(SORT_SQL).table)
