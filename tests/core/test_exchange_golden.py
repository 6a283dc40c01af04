"""Golden digests of every split -> dispatch -> merge path.

Six paths share one shape — split rows into pieces, lease a device per
piece, launch, handle a fault or reroute, merge: the partitioned and
sharded group-by, the partitioned and sharded sort, the segmented sort's
shard wave and the sharded join probe.  Each runs clean and under four
single-fault scenarios, and every observable the exchange produces is
pinned to a SHA-256 digest:

- every ledger event (``float.hex`` of the cost seconds; parallel-group
  ids relative to the run's first id, since the id counter is
  process-global);
- the ``partition.*`` / ``shard.*`` / ``offload.decision`` /
  ``fault.fallback`` instants and their attributes;
- the interconnect link counters;
- the shard-map rebalance arguments;
- the result checksum.

A refactor of the exchange machinery must keep every digest unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.blu import Catalog
from repro.config import GpuSpec, paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.faults import FaultPlan
from repro.workloads.driver import table_checksum

GROUPBY_SQL = ("SELECT s_item, SUM(s_qty) AS q, SUM(s_paid) AS paid, "
               "COUNT(*) AS c FROM sales GROUP BY s_item")
SORT_SQL = "SELECT s_item, s_ticket FROM sales ORDER BY s_item"
SEGMENTED_SQL = "SELECT s_store, s_qty FROM sales ORDER BY s_store, s_qty"
JOIN_SQL = ("SELECT s_ticket, st_state FROM sales "
            "JOIN stores ON s_store = st_id")

INSTANT_PREFIXES = ("partition.", "shard.", "offload.decision",
                    "fault.fallback")


def _partitioned_config(**thresholds):
    config = paper_testbed()
    card = dataclasses.replace(GpuSpec(), device_memory_bytes=256 * 1024)
    return dataclasses.replace(
        config, gpus=(card, card),
        thresholds=dataclasses.replace(config.thresholds, **thresholds))


def _sharded_config():
    config = paper_testbed()
    return dataclasses.replace(
        config,
        thresholds=dataclasses.replace(config.thresholds, t1_min_rows=5_000,
                                       sort_min_rows=5_000),
        gpus=tuple(config.gpus[0] for _ in range(4)),
        shard_enabled=True, nvlink_enabled=True, fusion_enabled=False)


def _groupby_partitioned_config():
    config = paper_testbed()
    return dataclasses.replace(
        config, fusion_enabled=False,
        thresholds=dataclasses.replace(
            config.thresholds, t1_min_rows=1000, t3_max_rows=10_000,
            sort_min_rows=10**9))


#: path -> (config factory, SQL, faulted device, its launch index,
#: pinned-allocation index).  The indices aim each fault at the
#: exchange under test: partitions have no home and all lease the
#: emptiest device 0, so its second launch fails mid-exchange; shard 1
#: lives on device 1; the segmented wave is each device's second launch,
#: after the sharded first generation's four.
PATHS = {
    "groupby-partitioned": (_groupby_partitioned_config, GROUPBY_SQL,
                            0, 2, 2),
    "groupby-sharded": (_sharded_config, GROUPBY_SQL, 1, 1, 2),
    "sort-partitioned": (lambda: _partitioned_config(sort_min_rows=1000),
                         SORT_SQL, 0, 2, 2),
    "sort-sharded": (_sharded_config, SORT_SQL, 1, 1, 2),
    "sort-segmented-shards": (_sharded_config, SEGMENTED_SQL, 1, 2, 6),
    "join-sharded": (_sharded_config, JOIN_SQL, 1, 1, 2),
}

#: scenario -> fault plan template ({d}, {n}, {p}: the path's indices).
SCENARIOS = {
    "clean": None,
    "gpu-error": "launch@{d}:nth={n}",
    "lost-device": "device_loss@{d}:nth={n}",
    "pinned": "pinned:nth={p}",
    "no-room": "reserve",
}


def run_path(path: str, scenario: str, sales_table, stores_table,
             **overrides):
    """Run one path under one scenario; return its five digests.

    ``overrides`` replace fields of the path's config."""
    factory, sql, device, launch, pinned = PATHS[path]
    template = SCENARIOS[scenario]
    faults = (FaultPlan.parse(template.format(d=device, n=launch, p=pinned))
              if template is not None else None)
    catalog = Catalog()
    catalog.register(sales_table)
    catalog.register(stores_table)
    engine = GpuAcceleratedEngine(
        catalog,
        config=dataclasses.replace(factory(), faults=faults, **overrides),
        enable_join_offload=True)
    result = engine.execute_sql(sql, query_id="golden")

    events = result.profile.events
    groups = [e.parallel_group for e in events if e.parallel_group >= 0]
    first = min(groups) if groups else 0
    ledger = [
        [e.op, e.rows, float.hex(float(e.cpu_seconds)),
         float.hex(float(e.gpu_seconds)), e.max_degree, e.device_id,
         e.gpu_memory_bytes,
         e.parallel_group - first if e.parallel_group >= 0 else -1]
        for e in events
    ]
    instants = [
        [s.name, s.attributes] for s in engine.tracer.spans
        if s.name.startswith(INSTANT_PREFIXES)
    ]
    rebalances = [s.attributes["lost"] for s in engine.tracer.spans
                  if s.name == "shard.rebalance"]
    return {
        "ledger": _digest(ledger),
        "instants": _digest(instants),
        "links": _digest(engine.interconnect.snapshot()),
        "rebalance": _digest(rebalances),
        "result": _digest(table_checksum(result.table)),
    }


def _digest(value) -> str:
    payload = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


GOLDEN: dict[tuple[str, str], dict[str, str]] = {
    ("groupby-partitioned", "clean"): {
        "ledger": "6644c96df31501bcdd9e004fd9cf7e39fc16ad0cff7ddc0c83fa93df54238d7a",
        "instants": "4631195a16293f0a42ecaa58d5432fe30bb4b9bf0935ef88d3232fc1d9d3196a",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "6703b589a8d6258cef188bf5d838d1eb1de2af37ade9d91041b7b2e54c2aa831",
    },
    ("groupby-partitioned", "gpu-error"): {
        "ledger": "454ac3421064bbd131ff23f62a5e67360daf964c6a85ebbd35e6408f87c6ddf4",
        "instants": "6107dfeed1d01d185c8500d73e055d0f2e6d19e38ad02929ab905da14cce776a",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "6703b589a8d6258cef188bf5d838d1eb1de2af37ade9d91041b7b2e54c2aa831",
    },
    ("groupby-partitioned", "lost-device"): {
        "ledger": "292dd53f3c5d11ebadd492c99e543d72ca44b4426bd45fbc3aede28a3ea6e210",
        "instants": "9a343d02a1e62a1d8f4a32e93e0676ce41add27d88a88e4d14a08892da28393d",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "6703b589a8d6258cef188bf5d838d1eb1de2af37ade9d91041b7b2e54c2aa831",
    },
    ("groupby-partitioned", "pinned"): {
        "ledger": "454ac3421064bbd131ff23f62a5e67360daf964c6a85ebbd35e6408f87c6ddf4",
        "instants": "8af2a777532f4acac4a64ac549323edd37c029bca852d3f75a2e23a97c0d7741",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "6703b589a8d6258cef188bf5d838d1eb1de2af37ade9d91041b7b2e54c2aa831",
    },
    ("groupby-partitioned", "no-room"): {
        "ledger": "474366f2c173977bb832f0430371e466b7073f498ee7baeb21cc276096eb29be",
        "instants": "cd50fee2f2fef52a0f277a42502894299d3c964958f7b8f3a3478738d19ebc24",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "6703b589a8d6258cef188bf5d838d1eb1de2af37ade9d91041b7b2e54c2aa831",
    },
    ("groupby-sharded", "clean"): {
        "ledger": "150d733cd4eb00b42609c21aac65b1a94bafb84c7c11a6bbcf74d2028fb58a09",
        "instants": "9f15714536a2897b2b0a55cfbbb7ff81f6f112bb068c5a9cbab51f14afb5d382",
        "links": "a1c1b10ccca1eb6c91a2f66547f5d12b1748f478ffa544e48f78382171362280",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "6703b589a8d6258cef188bf5d838d1eb1de2af37ade9d91041b7b2e54c2aa831",
    },
    ("groupby-sharded", "gpu-error"): {
        "ledger": "ce7374ca7d43969eaef8fca8d5a4bd7e8a64c2a38e77ae837a76badbc9d4984f",
        "instants": "a6c6093a34f40e13403c2bcc337eca1a3386684a3a9f893e2c44b20fc6a92a87",
        "links": "6c6749de6485f5248cc050d1b4b3d7ccea464f8e2bd8a0b4b69251d9e90ad7df",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "6703b589a8d6258cef188bf5d838d1eb1de2af37ade9d91041b7b2e54c2aa831",
    },
    ("groupby-sharded", "lost-device"): {
        "ledger": "ce7374ca7d43969eaef8fca8d5a4bd7e8a64c2a38e77ae837a76badbc9d4984f",
        "instants": "e65d1e14d3e5916e77d878d258a595bd807c7a7d973a8665e781f5f2a1ae6f29",
        "links": "6c6749de6485f5248cc050d1b4b3d7ccea464f8e2bd8a0b4b69251d9e90ad7df",
        "rebalance": "043f347c2cdc0d8ce70c38775d24e556c0290acf6d0c87a3a52aa85471cb8d02",
        "result": "6703b589a8d6258cef188bf5d838d1eb1de2af37ade9d91041b7b2e54c2aa831",
    },
    ("groupby-sharded", "pinned"): {
        "ledger": "4d3a8b8365b2a2f101c38340abc91b7c4faf461237ec602ddb407579885916e1",
        "instants": "8da2164811f94a68ff9d427f3dc955d5ff5964dd9c58f9b1ba3cd212b335576a",
        "links": "8dd9d8c4d6f4b9267afb2e98b4566fb642cbede0052dd089470c9c82171181c6",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "6703b589a8d6258cef188bf5d838d1eb1de2af37ade9d91041b7b2e54c2aa831",
    },
    ("groupby-sharded", "no-room"): {
        "ledger": "273bc0e60198a25899907ae066796b066ab9afd2a9b05d929e316c510e7698a2",
        "instants": "61637ad62a6da33a351db0b0d1dd22b107f70fcaf25eef46aaf2a9c9292ae4d7",
        "links": "28611dc1b40d62bcd1c2c40f8dbae99054771361a20718bee5b80424151983ed",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "6703b589a8d6258cef188bf5d838d1eb1de2af37ade9d91041b7b2e54c2aa831",
    },
    ("sort-partitioned", "clean"): {
        "ledger": "e995cda4e02f7146e45a9aebdc934690a65a3537045239d89217216ae4d50a5c",
        "instants": "c2fe0339dbb480d337f99b381b884a628ecbb58086dc16a3cb650647ef663788",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "9fe36088b7ae32efb29bee5d1e45c74f96cf315f984f4d0392599ceb9198a2da",
    },
    ("sort-partitioned", "gpu-error"): {
        "ledger": "7ae05b3ad7de42cacbffc8a8a7be7923b1034e9a9fc2e18c28bdb1099699368a",
        "instants": "374e1e430f3506786ea0d5b4f2f41c03ca1b81410b717e118fa9321fc47f45b6",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "9fe36088b7ae32efb29bee5d1e45c74f96cf315f984f4d0392599ceb9198a2da",
    },
    ("sort-partitioned", "lost-device"): {
        "ledger": "9ac2aa79313eb7da8d66cd379501dac44ee15be3866f6dc7a214cbc0ef95fbc9",
        "instants": "9fa337ef2ef2b55e40b2db3ee5e35c51668930130cad0ebd1d6144a87fec3174",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "9fe36088b7ae32efb29bee5d1e45c74f96cf315f984f4d0392599ceb9198a2da",
    },
    ("sort-partitioned", "pinned"): {
        "ledger": "7ae05b3ad7de42cacbffc8a8a7be7923b1034e9a9fc2e18c28bdb1099699368a",
        "instants": "58a74795706343b81c5f07dcd7bfb329d1bf7286075906280f312854f4843ef6",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "9fe36088b7ae32efb29bee5d1e45c74f96cf315f984f4d0392599ceb9198a2da",
    },
    ("sort-partitioned", "no-room"): {
        "ledger": "f714ad03b343c3594991830966e94a828a843c1a1cd87951cd7fd40f95790b32",
        "instants": "4e8bf93d106d9f21e30285d3c3c4b0cbcb674228449a235abb4c1c8dbe79bf01",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "9fe36088b7ae32efb29bee5d1e45c74f96cf315f984f4d0392599ceb9198a2da",
    },
    ("sort-sharded", "clean"): {
        "ledger": "c03f7ab9542d77667f9f8cee525d3db35b06e02f09144d2d9c3ca9d70ea222ba",
        "instants": "cdefa786d4ea6154b06658b34dc2387d57f5851bd8a5e2c72d0dfd7c43623c8d",
        "links": "f709f8ce1e14f0533017919089245bee1792cbd792ded3fdecf858d428cf1697",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "9fe36088b7ae32efb29bee5d1e45c74f96cf315f984f4d0392599ceb9198a2da",
    },
    ("sort-sharded", "gpu-error"): {
        "ledger": "6b7228da89a9380e8acf4764789fd04658a4f8a79b49526c330425156943d1d3",
        "instants": "0db072d54a57215da98694db1e175ae3f7c3fb9d9c74e91284147b7d428b8180",
        "links": "51ab1cc0158dcda9ff9156e6a6316e8f5455228f3e37a060bb8dc5ee197fb1d5",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "9fe36088b7ae32efb29bee5d1e45c74f96cf315f984f4d0392599ceb9198a2da",
    },
    ("sort-sharded", "lost-device"): {
        "ledger": "6b7228da89a9380e8acf4764789fd04658a4f8a79b49526c330425156943d1d3",
        "instants": "2d988c1e657bf4ce494dac1e70ac93407af287b3172e83614d9efcad2e24a880",
        "links": "51ab1cc0158dcda9ff9156e6a6316e8f5455228f3e37a060bb8dc5ee197fb1d5",
        "rebalance": "043f347c2cdc0d8ce70c38775d24e556c0290acf6d0c87a3a52aa85471cb8d02",
        "result": "9fe36088b7ae32efb29bee5d1e45c74f96cf315f984f4d0392599ceb9198a2da",
    },
    ("sort-sharded", "pinned"): {
        "ledger": "3ae891d28ba4ca8f11b1180d1226d8bbf85291d72ad52ffdfc18055f18d70b8c",
        "instants": "8af5979ac9762d7fdde003844003fdaa719b0d330fee62fbe950b9ae5671fcaf",
        "links": "7812145709ab80d672e80637480ffe866e307f9a9ccfbddd0d2ad83c05429a92",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "9fe36088b7ae32efb29bee5d1e45c74f96cf315f984f4d0392599ceb9198a2da",
    },
    ("sort-sharded", "no-room"): {
        "ledger": "5998448cdad2403eb255ad57f44dfc6ce41919009003fde6a0d14aa1e31a3624",
        "instants": "0175f0b8b68eb79eb3eaf718008fc9c832056c26bf40118515860cf465021839",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "9fe36088b7ae32efb29bee5d1e45c74f96cf315f984f4d0392599ceb9198a2da",
    },
    ("sort-segmented-shards", "clean"): {
        "ledger": "06f6b977bb6e1209a2503d67124e0b5c0c117318d41fedc772dbddabd65d3130",
        "instants": "c4f0b80feecf1ee9e17293eda2645035c08a0fb9fd3d27764e0bb9d1cb9c5f2d",
        "links": "5f1df4bd0cb99422f883e64ad5e39fcea7dba070d687a3c4e7268f129dd072b4",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "704bd6c6aa051e6dc20c669d730e1131ea067f63098c2a31bf345261b49adce9",
    },
    ("sort-segmented-shards", "gpu-error"): {
        "ledger": "7bbf89c10f806b9052084e405a9502fdb2d483cae998a4bcbce2c82401079a22",
        "instants": "441676b0bfcd22d34e4caf6fb16599685edbb2af9b2aca3b9967b63e5a003d5a",
        "links": "79f53e5bfc261b13bc95113ed75cfaf696f58ba5797a61e269d6aba2cc813e5f",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "704bd6c6aa051e6dc20c669d730e1131ea067f63098c2a31bf345261b49adce9",
    },
    ("sort-segmented-shards", "lost-device"): {
        "ledger": "7bbf89c10f806b9052084e405a9502fdb2d483cae998a4bcbce2c82401079a22",
        "instants": "00f2146934ed1dac7c6909089c4477815efcc30b57454be398349dae69304e6c",
        "links": "79f53e5bfc261b13bc95113ed75cfaf696f58ba5797a61e269d6aba2cc813e5f",
        "rebalance": "043f347c2cdc0d8ce70c38775d24e556c0290acf6d0c87a3a52aa85471cb8d02",
        "result": "704bd6c6aa051e6dc20c669d730e1131ea067f63098c2a31bf345261b49adce9",
    },
    ("sort-segmented-shards", "pinned"): {
        "ledger": "7acf40bd42a71741adb7952d4a0cbbd465c6196fb578df5bb144694ff980f495",
        "instants": "d8b67d8f30869a424daf93f6bb78c20e76ea634578fed07434b5b762255cc623",
        "links": "9de571a14c0a511f03ca0f8d80f541a4f71c77b51520d81edee590a7801f3978",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "704bd6c6aa051e6dc20c669d730e1131ea067f63098c2a31bf345261b49adce9",
    },
    ("sort-segmented-shards", "no-room"): {
        "ledger": "adb34f528f1c087e3a02490394277c5667e08e1cb47dfaf3ee3b4db8bfc2cff3",
        "instants": "a42601c521c8e0beb4e658cce73fcd5f28aab39b8b66ecd8767fcadd21727f51",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "704bd6c6aa051e6dc20c669d730e1131ea067f63098c2a31bf345261b49adce9",
    },
    ("join-sharded", "clean"): {
        "ledger": "1c9fd66d8f9f0a4b654dae396b68036b7e1c27de085b3a4ce34afdfeed6adf78",
        "instants": "b7da5db4f1ad324781731ad85ca2eab1ba3aebca26edaacc3f10b2ed020525c0",
        "links": "5c4715a92ae9739d08f6dc81041ecf743daf1831b1e424cf8ec2302e8d3308e7",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "44ef3fa219d500bb0030ff242e58089953f435898c7f874c17cff6094b2b3540",
    },
    ("join-sharded", "gpu-error"): {
        "ledger": "9b5436cb5ef6d8924e0588a1a252587e9d3594f4d0d457a3d497048d578d8ac0",
        "instants": "b70827dd0dcbfe2c893787fad8f0c5b2ae5836c270ea45a45a7f19094cf373dd",
        "links": "e44dac5939172e8cffaec2509058664f3698c65c2c6ffd61a2f7951fcd12a76d",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "44ef3fa219d500bb0030ff242e58089953f435898c7f874c17cff6094b2b3540",
    },
    ("join-sharded", "lost-device"): {
        "ledger": "9b5436cb5ef6d8924e0588a1a252587e9d3594f4d0d457a3d497048d578d8ac0",
        "instants": "9687226cd957c9a2f59e7ecdd207bc5a3d753b495fb37aea8b673184b7af8363",
        "links": "e44dac5939172e8cffaec2509058664f3698c65c2c6ffd61a2f7951fcd12a76d",
        "rebalance": "043f347c2cdc0d8ce70c38775d24e556c0290acf6d0c87a3a52aa85471cb8d02",
        "result": "44ef3fa219d500bb0030ff242e58089953f435898c7f874c17cff6094b2b3540",
    },
    ("join-sharded", "pinned"): {
        "ledger": "b679ff051ce75098ce9ab8608907dcb7f85997abc32d117ca5e32e8433a226e4",
        "instants": "aadcdc32397f3bc4bbdd887a2359e84b180b91e48fb32966ce0ff90a60dd1ae7",
        "links": "3ab79c1f53990c57834bbbff3389ebd646ffe99239d82b2fb9eed506f2773b4a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "44ef3fa219d500bb0030ff242e58089953f435898c7f874c17cff6094b2b3540",
    },
    ("join-sharded", "no-room"): {
        "ledger": "8e1937a4d121ab5c47d7b4cb18b77903ee920c8647504e8e4405bf65e7cb8570",
        "instants": "d6f08b1dda0e1f453e38dacec7ad8a4795cadbb662ca9e593570d2c5f4710a02",
        "links": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "44ef3fa219d500bb0030ff242e58089953f435898c7f874c17cff6094b2b3540",
    },
}


CASES = [
    pytest.param(path, scenario, id=f"{path}-{scenario}",
                 marks=() if scenario == "clean" else pytest.mark.chaos)
    for path in PATHS for scenario in SCENARIOS
]


@pytest.mark.parametrize("path,scenario", CASES)
def test_exchange_digests_are_unchanged(path, scenario, sales_table,
                                        stores_table):
    got = run_path(path, scenario, sales_table, stores_table)
    assert got == GOLDEN[(path, scenario)]


#: A switch slower than the four shards' links: every H2D wave leg
#: stalls, so the shard paths' stall accounting shows in the digests.
CONTENDED_SWITCH = 16.0e9

GOLDEN_CONTENDED: dict[str, dict[str, str]] = {
    "groupby-sharded": {
        "ledger": "de26cfd9f5e7d412bae9db29fe774d0c72b3ca4011568026825fce2e8c26bea4",
        "instants": "f5cdbcb475e5a2a6e63399af8e68237efbae3d656f627e153170d2f88087bd7f",
        "links": "88b7d9fe425f43b8c07d4924c18121c3662e1d32cfebda755ae104ecd4957684",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "6703b589a8d6258cef188bf5d838d1eb1de2af37ade9d91041b7b2e54c2aa831",
    },
    "sort-sharded": {
        "ledger": "36366552cee07d079619b3cf6d6ff614d9bc7f21de2d3f6ad7c3fea36ffbd47e",
        "instants": "5751c668177736c0a610f456eeff05f9950c4b78ebb1f43c01bc1d8a2e618192",
        "links": "b6c20514172e3e0e6e79b2b1dbfe00d2482e8ef71b2a176f9472631940443707",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "9fe36088b7ae32efb29bee5d1e45c74f96cf315f984f4d0392599ceb9198a2da",
    },
    "sort-segmented-shards": {
        "ledger": "8e9e85017b20706ae9bcb0e656b6c1dc552ae0493e3fc49686b672ec449e65fc",
        "instants": "fbbc3f0278e543e3e42585b6bcc201a3dadea6cbb8feb6f7c2155817c34f30f7",
        "links": "64369ac3d38940ae3e5d0fce52ad404b5b511f2daafdf8190d934c25c2f371a9",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "704bd6c6aa051e6dc20c669d730e1131ea067f63098c2a31bf345261b49adce9",
    },
    "join-sharded": {
        "ledger": "0e4761f817114314fa91120ecb8cfe611946d0f948c98b0d2943435aa1543fd5",
        "instants": "e1a6dd4d01c2be0b622e5b55dba5b1b352a38b09c444fcec3c31fc66425233a2",
        "links": "a3ce828e7a204edef2a43b0c52c7258cce30a6a9b71dcb3c67477e93bbd4ba7b",
        "rebalance": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "result": "44ef3fa219d500bb0030ff242e58089953f435898c7f874c17cff6094b2b3540",
    },
}


@pytest.mark.parametrize("path", sorted(GOLDEN_CONTENDED))
def test_contended_wave_digests_are_unchanged(path, sales_table,
                                              stores_table):
    got = run_path(path, "clean", sales_table, stores_table,
                   switch_bandwidth=CONTENDED_SWITCH)
    assert got == GOLDEN_CONTENDED[path]
