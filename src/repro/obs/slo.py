"""Windowed SLO tracking and multi-window burn-rate alerting.

The serving telemetry layer reduces each completed request to a binary
verdict — *good* or *bad* against a declarative :class:`SLObjective`
("p99-style latency below X", "availability >= 99.9%") — and accumulates
the verdicts in coarse time buckets over **simulated** time.  Burn rate
is the classic error-budget derivative::

    burn = bad_fraction_in_window / (1 - objective)

``burn == 1`` means the error budget drains exactly at the rate the SLO
allows; ``burn == 4`` means a 30-day budget would be gone in a week.  An
alert :class:`BurnRateRule` pairs a long window (evidence the problem is
sustained) with a short window (evidence it is *still happening*) and
fires only when **both** exceed the threshold — the multi-window pattern
that keeps a burst from paging and a recovered incident from re-paging.

Alerts are edge-triggered: a rule that stays saturated across
consecutive :meth:`SloTracker.evaluate` calls emits one ``slo.alert``
span and one ``repro_slo_violations_total`` increment when it trips,
then stays silent until it clears and trips again.  Burn-rate gauges
(``repro_slo_burn_rate{slo,window}``) are refreshed on every evaluate.

Everything here runs on simulated timestamps, so a chaos run that kills
a device produces the *same* alert at the same simulated second, every
time — the property the chaos suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer


class SloError(ReproError):
    """Invalid SLO / burn-rate rule configuration."""


@dataclass(frozen=True)
class SLObjective:
    """A declarative objective over completed requests.

    ``objective`` is the target good-fraction (0.999 = "three nines").
    With a ``latency_threshold`` (simulated seconds) a request is *bad*
    when it failed **or** ran longer than the threshold — a tail-latency
    SLO.  Without one, only failures count — an availability SLO.
    ``query_class`` restricts the objective to one request class
    (``simple``/``complex``/...); ``None`` covers every request.
    """

    name: str
    objective: float = 0.999
    latency_threshold: Optional[float] = None
    query_class: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise SloError(
                f"{self.name}: objective must be in (0, 1), "
                f"got {self.objective}")
        if (
            self.latency_threshold is not None
            and self.latency_threshold <= 0.0
        ):
            raise SloError(
                f"{self.name}: latency_threshold must be positive")

    def matches(self, query_class: Optional[str]) -> bool:
        """Whether a request of ``query_class`` is judged by this SLO."""
        return self.query_class is None or self.query_class == query_class

    def is_good(self, latency: float, ok: bool) -> bool:
        """The binary verdict for one completed request."""
        if not ok:
            return False
        if self.latency_threshold is not None:
            return latency <= self.latency_threshold
        return True

    @property
    def budget(self) -> float:
        """Allowed bad-fraction (1 - objective)."""
        return 1.0 - self.objective


@dataclass(frozen=True)
class BurnRateRule:
    """Fire when burn > ``threshold`` over BOTH windows (sim seconds)."""

    long_window: float
    short_window: float
    threshold: float

    def __post_init__(self) -> None:
        if self.short_window <= 0.0 or self.long_window <= 0.0:
            raise SloError("burn-rate windows must be positive")
        if self.short_window > self.long_window:
            raise SloError(
                f"short window {self.short_window} exceeds long window "
                f"{self.long_window}")
        if self.threshold <= 0.0:
            raise SloError("burn-rate threshold must be positive")

    @property
    def label(self) -> str:
        """Stable label for metrics/spans, e.g. ``4.0s/1.0s x2``."""
        return (f"{self.long_window:g}s/{self.short_window:g}s "
                f"x{self.threshold:g}")


#: Google-SRE-shaped default ladder, scaled to simulated serving runs
#: that last a handful of seconds: a fast-burn rule (page-now analogue)
#: and a slow-burn rule (ticket analogue).
DEFAULT_RULES: tuple[BurnRateRule, ...] = (
    BurnRateRule(long_window=1.0, short_window=0.25, threshold=4.0),
    BurnRateRule(long_window=4.0, short_window=1.0, threshold=2.0),
)


@dataclass(frozen=True)
class SloAlert:
    """One edge-triggered burn-rate trip."""

    slo: str
    time: float
    rule: BurnRateRule
    long_burn: float
    short_burn: float

    def to_dict(self) -> dict:
        return {
            "slo": self.slo,
            "time": self.time,
            "rule": self.rule.label,
            "long_burn": round(self.long_burn, 6),
            "short_burn": round(self.short_burn, 6),
        }


class SloTracker:
    """Accumulates good/bad verdicts and evaluates burn-rate rules.

    Verdict counts land in coarse time buckets (``bucket_seconds`` wide,
    default a quarter of the narrowest short window), so memory is
    bounded by elapsed simulated time / bucket width — not by request
    count — and window sums are deterministic regardless of completion
    order.
    """

    def __init__(self, objectives: Sequence[SLObjective],
                 rules: Sequence[BurnRateRule] = DEFAULT_RULES,
                 bucket_seconds: Optional[float] = None) -> None:
        names = [slo.name for slo in objectives]
        if len(set(names)) != len(names):
            raise SloError(f"duplicate SLO names in {names}")
        self.objectives = tuple(objectives)
        self.rules = tuple(rules)
        if bucket_seconds is None:
            shortest = min((r.short_window for r in self.rules),
                           default=1.0)
            bucket_seconds = shortest / 4.0
        if bucket_seconds <= 0.0:
            raise SloError("bucket_seconds must be positive")
        self.bucket_seconds = float(bucket_seconds)
        # name -> bucket index -> [good, bad]
        self._buckets: dict[str, dict[int, list[int]]] = {
            slo.name: {} for slo in self.objectives
        }
        # name -> window -> [first, last, good, bad]: the bucket range a
        # window last covered and its exact integer sums.
        self._windows: dict[str, dict[float, list[int]]] = {
            slo.name: {} for slo in self.objectives
        }
        # (name, rule) -> currently saturated?  (edge-trigger state)
        self._active: dict[tuple[str, BurnRateRule], bool] = {}
        self.alerts: list[SloAlert] = []

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def observe(self, time: float, latency: float,
                query_class: Optional[str] = None, ok: bool = True) -> None:
        """Judge one completed request against every matching SLO."""
        index = int(math.floor(time / self.bucket_seconds))
        for slo in self.objectives:
            if not slo.matches(query_class):
                continue
            verdict = 0 if slo.is_good(latency, ok) else 1
            cell = self._buckets[slo.name].setdefault(index, [0, 0])
            cell[verdict] += 1
            for span in self._windows[slo.name].values():
                if span[0] <= index <= span[1]:
                    span[2 + verdict] += 1

    # ------------------------------------------------------------------
    # Burn rates
    # ------------------------------------------------------------------

    def _window_counts(self, name: str, now: float,
                       window: float) -> tuple[int, int]:
        """(good, bad) over simulated ``(now - window, now]``.

        Each (SLO, window) pair remembers the bucket range it last summed.
        When ``now`` moves forward and the ranges overlap, only the
        buckets that left or entered the range are visited; the sums are
        integers, so they equal a fresh scan exactly.
        """
        first = int(math.floor((now - window) / self.bucket_seconds))
        last = int(math.floor(now / self.bucket_seconds))
        buckets = self._buckets[name]
        span = self._windows[name].get(window)
        if (
            span is None
            or first < span[0]
            or last < span[1]
            or first > span[1]
        ):
            span = self._windows[name][window] = [first, first - 1, 0, 0]
        good, bad = span[2], span[3]
        for index in range(span[0], first):
            cell = buckets.get(index)
            if cell is not None:
                good -= cell[0]
                bad -= cell[1]
        for index in range(span[1] + 1, last + 1):
            cell = buckets.get(index)
            if cell is not None:
                good += cell[0]
                bad += cell[1]
        span[:] = [first, last, good, bad]
        return good, bad

    def burn_rate(self, name: str, now: float, window: float) -> float:
        """Error-budget burn over the trailing ``window`` (0 if idle)."""
        slo = self._objective(name)
        good, bad = self._window_counts(name, now, window)
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / slo.budget

    def _objective(self, name: str) -> SLObjective:
        for slo in self.objectives:
            if slo.name == name:
                return slo
        raise SloError(f"unknown SLO {name!r}")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, now: float, tracer: Tracer = NULL_TRACER,
                 registry: Optional[MetricsRegistry] = None,
                 ) -> list[SloAlert]:
        """Evaluate every (SLO, rule) pair at simulated time ``now``.

        Refreshes ``repro_slo_burn_rate`` gauges, and for each rule that
        *transitions* into saturation emits an ``slo.alert`` span, bumps
        ``repro_slo_violations_total``, and returns the alert.
        """
        burn_gauge = violations = None
        if registry is not None:
            burn_gauge = registry.gauge(
                "repro_slo_burn_rate",
                "Error-budget burn rate per SLO and window",
                labelnames=("slo", "window"))
            violations = registry.counter(
                "repro_slo_violations_total",
                "Burn-rate alerts fired per SLO",
                labelnames=("slo",))
        fired: list[SloAlert] = []
        for slo in self.objectives:
            for rule in self.rules:
                long_burn = self.burn_rate(slo.name, now, rule.long_window)
                short_burn = self.burn_rate(slo.name, now,
                                            rule.short_window)
                if burn_gauge is not None:
                    burn_gauge.labels(
                        slo=slo.name,
                        window=f"{rule.long_window:g}s").set(long_burn)
                    burn_gauge.labels(
                        slo=slo.name,
                        window=f"{rule.short_window:g}s").set(short_burn)
                saturated = (long_burn > rule.threshold
                             and short_burn > rule.threshold)
                key = (slo.name, rule)
                was_active = self._active.get(key, False)
                self._active[key] = saturated
                if saturated and not was_active:
                    alert = SloAlert(slo=slo.name, time=now, rule=rule,
                                     long_burn=long_burn,
                                     short_burn=short_burn)
                    fired.append(alert)
                    self.alerts.append(alert)
                    tracer.record(
                        "slo.alert", start=now, end=now,
                        slo=slo.name, rule=rule.label,
                        long_burn=round(long_burn, 6),
                        short_burn=round(short_burn, 6))
                    if violations is not None:
                        violations.labels(slo=slo.name).inc()
        return fired

    # ------------------------------------------------------------------
    # Dashboard view
    # ------------------------------------------------------------------

    def status(self, now: float) -> list[dict]:
        """Per-SLO summary rows for ``repro top``, as of time ``now``.

        Totals, saturation and alert counts only consider what had
        happened by ``now``, so a mid-run snapshot reads like a live
        dashboard rather than a post-mortem.
        """
        horizon = int(math.floor(now / self.bucket_seconds))
        rows = []
        for slo in self.objectives:
            worst = 0.0
            alerting = False
            for rule in self.rules:
                long_burn = self.burn_rate(slo.name, now, rule.long_window)
                short_burn = self.burn_rate(slo.name, now,
                                            rule.short_window)
                worst = max(worst, long_burn, short_burn)
                if (
                    long_burn > rule.threshold
                    and short_burn > rule.threshold
                ):
                    alerting = True
            total_good = total_bad = 0
            for index, cell in self._buckets[slo.name].items():
                if index <= horizon:
                    total_good += cell[0]
                    total_bad += cell[1]
            rows.append({
                "slo": slo.name,
                "objective": slo.objective,
                "latency_threshold": slo.latency_threshold,
                "query_class": slo.query_class,
                "requests": total_good + total_bad,
                "bad": total_bad,
                "worst_burn": round(worst, 6),
                "alerting": alerting,
                "alerts_fired": sum(
                    1 for a in self.alerts
                    if a.slo == slo.name and a.time <= now),
            })
        return rows
