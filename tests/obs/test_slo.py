"""SLO burn-rate semantics: windowed counts, multi-window rules, and
edge-triggered alerting over simulated time."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_RULES,
    BurnRateRule,
    SLObjective,
    SloError,
    SloTracker,
)
from repro.obs.tracing import Tracer


def latency_slo(threshold: float = 0.1,
                objective: float = 0.99) -> SLObjective:
    return SLObjective("latency", objective=objective,
                       latency_threshold=threshold)


class TestObjective:
    def test_validation(self):
        with pytest.raises(SloError):
            SLObjective("bad", objective=1.0)
        with pytest.raises(SloError):
            SLObjective("bad", objective=0.0)
        with pytest.raises(SloError):
            SLObjective("bad", latency_threshold=-1.0)

    def test_latency_verdict(self):
        slo = latency_slo(threshold=0.1)
        assert slo.is_good(0.05, ok=True)
        assert slo.is_good(0.1, ok=True)          # inclusive threshold
        assert not slo.is_good(0.11, ok=True)
        assert not slo.is_good(0.05, ok=False)    # failure is always bad

    def test_availability_verdict_ignores_latency(self):
        slo = SLObjective("avail", objective=0.999)
        assert slo.is_good(999.0, ok=True)
        assert not slo.is_good(0.001, ok=False)

    def test_class_scoping(self):
        slo = SLObjective("complex-only", query_class="complex")
        assert slo.matches("complex")
        assert not slo.matches("simple")
        assert SLObjective("all").matches("anything")

    def test_budget(self):
        assert latency_slo(objective=0.99).budget == pytest.approx(0.01)


class TestRules:
    def test_validation(self):
        with pytest.raises(SloError):
            BurnRateRule(long_window=1.0, short_window=2.0, threshold=1.0)
        with pytest.raises(SloError):
            BurnRateRule(long_window=1.0, short_window=0.5, threshold=0.0)

    def test_label(self):
        rule = BurnRateRule(long_window=4.0, short_window=1.0,
                            threshold=2.0)
        assert rule.label == "4s/1s x2"

    def test_default_ladder_shape(self):
        assert len(DEFAULT_RULES) == 2
        fast, slow = DEFAULT_RULES
        assert fast.short_window < slow.short_window
        assert fast.threshold > slow.threshold


class TestBurnRate:
    def test_idle_tracker_burns_nothing(self):
        tracker = SloTracker([latency_slo()])
        assert tracker.burn_rate("latency", now=10.0, window=1.0) == 0.0

    def test_burn_is_bad_fraction_over_budget(self):
        tracker = SloTracker([latency_slo(threshold=0.1, objective=0.99)])
        for i in range(98):
            tracker.observe(0.5, 0.01)
        tracker.observe(0.5, 9.9)
        tracker.observe(0.5, 9.9)
        # 2 bad / 100 total = 0.02 bad fraction over a 0.01 budget.
        assert tracker.burn_rate("latency", now=0.5,
                                 window=1.0) == pytest.approx(2.0)

    def test_window_excludes_old_buckets(self):
        tracker = SloTracker([latency_slo()], bucket_seconds=0.1)
        tracker.observe(0.05, 9.9)     # bad, at t=0.05
        tracker.observe(5.0, 0.01)     # good, at t=5
        assert tracker.burn_rate("latency", now=5.0, window=1.0) == 0.0
        assert tracker.burn_rate("latency", now=5.0, window=10.0) > 0.0

    def test_unknown_slo_rejected(self):
        tracker = SloTracker([latency_slo()])
        with pytest.raises(SloError):
            tracker.burn_rate("nope", now=0.0, window=1.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SloError):
            SloTracker([latency_slo(), latency_slo()])


class TestEvaluate:
    RULE = BurnRateRule(long_window=1.0, short_window=0.25, threshold=2.0)

    def saturated_tracker(self) -> SloTracker:
        tracker = SloTracker([latency_slo(threshold=0.1, objective=0.99)],
                             rules=(self.RULE,))
        for i in range(10):
            tracker.observe(0.2, 9.9)     # everything bad: burn = 100
        return tracker

    def test_alert_fires_once_while_saturated(self):
        tracker = self.saturated_tracker()
        first = tracker.evaluate(0.2)
        assert len(first) == 1
        assert first[0].slo == "latency"
        assert first[0].long_burn > self.RULE.threshold
        # Still saturated: edge-triggered, so no second alert.
        assert tracker.evaluate(0.21) == []
        assert len(tracker.alerts) == 1

    def test_alert_rearms_after_recovery(self):
        tracker = self.saturated_tracker()
        tracker.evaluate(0.2)
        # Far in the future every window is empty -> burn 0 -> clears.
        assert tracker.evaluate(100.0) == []
        for i in range(10):
            tracker.observe(200.0, 9.9)
        assert len(tracker.evaluate(200.0)) == 1
        assert len(tracker.alerts) == 2

    def test_both_windows_must_saturate(self):
        tracker = SloTracker([latency_slo(threshold=0.1, objective=0.99)],
                             rules=(self.RULE,), bucket_seconds=0.0625)
        # Bad traffic only in the long window's past, not the short one.
        tracker.observe(0.1, 9.9)
        tracker.observe(0.9, 0.01)
        long_burn = tracker.burn_rate("latency", 1.0,
                                      self.RULE.long_window)
        short_burn = tracker.burn_rate("latency", 1.0,
                                       self.RULE.short_window)
        assert long_burn > self.RULE.threshold
        assert short_burn == 0.0
        assert tracker.evaluate(1.0) == []   # short window is clean

    def test_emits_span_and_metrics(self):
        tracker = self.saturated_tracker()
        tracer = Tracer()
        registry = MetricsRegistry()
        fired = tracker.evaluate(0.2, tracer=tracer, registry=registry)
        assert fired
        spans = [s for s in tracer.spans if s.name == "slo.alert"]
        assert len(spans) == 1
        assert spans[0].attributes["slo"] == "latency"
        violations = registry.get("repro_slo_violations_total")
        [(labels, value)] = list(violations.samples())
        assert labels == {"slo": "latency"} and value == 1.0
        burn = registry.get("repro_slo_burn_rate")
        assert burn is not None and list(burn.samples())

    def test_status_rows(self):
        tracker = self.saturated_tracker()
        tracker.evaluate(0.2)
        rows = tracker.status(0.2)
        assert len(rows) == 1
        row = rows[0]
        assert row["slo"] == "latency"
        assert row["requests"] == 10
        assert row["bad"] == 10
        assert row["alerting"]
        assert row["alerts_fired"] == 1

    def test_status_respects_now(self):
        tracker = SloTracker([latency_slo()], bucket_seconds=0.1)
        tracker.observe(0.05, 0.01)
        tracker.observe(5.0, 0.01)
        early = tracker.status(0.1)[0]
        late = tracker.status(5.0)[0]
        assert early["requests"] == 1
        assert late["requests"] == 2


class TestSlidingWindows:
    """Cached window sums equal a fresh bucket scan, whatever the order."""

    def test_matches_a_fresh_tracker(self):
        import random

        rng = random.Random(3)
        slos = [latency_slo(threshold=0.5, objective=0.9),
                SLObjective("simple", objective=0.95,
                            latency_threshold=0.2, query_class="simple")]
        tracker = SloTracker(slos)
        seen = []
        now = 0.0
        for _ in range(300):
            if rng.random() < 0.7:
                at = max(0.0, now + rng.random() * 0.5 - 0.3)
                sample = (at, rng.random(),
                          "simple" if rng.random() < 0.5 else "complex",
                          rng.random() < 0.95)
                seen.append(sample)
                tracker.observe(sample[0], sample[1], query_class=sample[2],
                                ok=sample[3])
            # Mostly forward, sometimes a jump back (a mid-run snapshot).
            now = max(0.0, now + rng.random() * 0.2
                      - (3.0 if rng.random() < 0.05 else 0.0))
            fresh = SloTracker(slos)
            for at, latency, cls, ok in seen:
                fresh.observe(at, latency, query_class=cls, ok=ok)
            for slo in slos:
                for window in (0.01, 0.25, 1.0, 4.0, 30.0):
                    assert tracker._window_counts(slo.name, now, window) \
                        == fresh._window_counts(slo.name, now, window)
