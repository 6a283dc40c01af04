"""Unit tests for the dependency-free metrics primitives."""

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("c_total")
        c.inc()
        c.inc(2.0)
        assert c.value == 3.0

    def test_negative_inc_rejected(self):
        c = Counter("c_total")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labels_partition_values(self):
        c = Counter("c_total", labelnames=("path",))
        c.labels(path="gpu").inc()
        c.labels(path="gpu").inc()
        c.labels(path="cpu").inc()
        assert c.labels(path="gpu").value == 2.0
        assert dict((tuple(lab.items()), v) for lab, v in c.samples()) == {
            (("path", "cpu"),): 1.0,
            (("path", "gpu"),): 2.0,
        }

    def test_wrong_labels_rejected(self):
        c = Counter("c_total", labelnames=("path",))
        with pytest.raises(MetricError):
            c.labels(wrong="x")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4.0

    def test_set_max_is_high_water(self):
        g = Gauge("g", labelnames=("device",))
        g.labels(device=0).set_max(10)
        g.labels(device=0).set_max(3)
        g.labels(device=0).set_max(12)
        assert g.labels(device=0).value == 12.0


class TestHistogram:
    def test_bucket_counts(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        # le-semantics: 0.5 and 1.0 land in the le=1 bucket.
        assert h.bucket_counts() == [2, 1, 1, 1]
        state = next(iter(h.samples()))[1]
        assert state.count == 5
        assert state.sum == pytest.approx(106.0)

    def test_boundary_value_lands_in_its_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(2.0)
        assert h.bucket_counts() == [0, 1, 0]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_default_buckets_cover_kernel_latencies(self):
        h = Histogram("h")
        assert h.buckets == LATENCY_BUCKETS
        h.observe(30e-6)            # a typical simulated kernel
        assert sum(h.bucket_counts()) == 1


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help")
        b = reg.counter("x_total")
        assert a is b

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricError):
            reg.gauge("x")

    def test_collect_is_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert [m.name for m in reg.collect()] == ["a", "b"]

    def test_to_dict_is_json_serialisable(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c_total", "c help").inc()
        reg.gauge("g", labelnames=("device",)).labels(device=0).set(7)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        snapshot = json.loads(json.dumps(reg.to_dict()))
        assert snapshot["c_total"]["series"] == [{"labels": {}, "value": 1.0}]
        assert snapshot["g"]["series"][0]["labels"] == {"device": "0"}
        assert snapshot["h"]["bounds"] == [1.0, 2.0]
        assert snapshot["h"]["series"][0]["buckets"] == [0, 1, 0]


class TestLabelChildren:
    def test_equal_values_of_other_types_stay_distinct(self):
        c = Counter("typed_total", labelnames=("v",))
        c.labels(v=1).inc()
        c.labels(v=True).inc()
        c.labels(v=1.0).inc()
        c.labels(v="1").inc()
        assert dict((labels["v"], value) for labels, value in c.samples()) \
            == {"1": 2.0, "True": 1.0, "1.0": 1.0}

    def test_cached_child_still_checks_labels(self):
        g = Gauge("g", labelnames=("a",))
        g.labels(a="x").set(1.0)
        assert g.labels(a="x").value == 1.0
        with pytest.raises(MetricError):
            g.set(2.0)
        with pytest.raises(MetricError):
            g.set(2.0)
        with pytest.raises(MetricError):
            g.labels(b="x")

    def test_unlabelled_series_reuse_one_child(self):
        h = Histogram("h_seconds")
        h.observe(0.1)
        h.observe(0.2)
        assert h.labels() is h.labels()
        assert sum(h.bucket_counts()) == 2
