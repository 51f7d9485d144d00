"""analytics_long: in-process analysis of 20-year daily series, in three phases.

calendar: average_price, settle_cfd and vol3y for 80 quarterly products.
events: R1/R2 series, excluded-baseline means and event studies (both
variance rules) for 20 contracts with 80 events each.
panel: standardize_by_group and fit_pooled_ols with unit effects at
(G, T) = (100, 20).

The phases stress the calendar lookups and the OLS design, solve and
sandwich steps on long inputs; there is no import or CSV work in a pass.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

from powerauctions.activity import baseline_mean_excluding, event_study, r1_series, r2_series
from powerauctions.auction_engine import settle_cfd
from powerauctions.market_data import average_price
from powerauctions.panel import fit_pooled_ols, standardize_by_group, vol3y

from . import checks, inputs
from .candle import LINALG_CANDLE_REF_S, linalg_candle
from .common import PassResult
from .tracing import NullTracer

SIZES = {"full": {"years": 20, "n_contracts": 20, "n_events": 80, "n_units": 100,
                  "n_periods": 20},
         "tiny": {"years": 4, "n_contracts": 2, "n_events": 6, "n_units": 6,
                  "n_periods": 4}}
VARIANCES = ("welch", "pooled")


class AnalyticsLong:
    name = "analytics_long"
    candle = staticmethod(linalg_candle)
    candle_ref_s = LINALG_CANDLE_REF_S

    def __init__(self, root: Path, workdir: Path, seed: int, size: str):
        self.seed, self.size = seed, SIZES[size]

    def setup(self) -> None:
        self.data = d = inputs.analytics_inputs(self.seed, **self.size)
        self.day0 = d["spot"].dates[0].toordinal()
        self.events = [(series, dates, *inputs.event_windows(series.dates, dates))
                       for series, dates in d["contracts"]]
        # warm-up: one call of each calendar and activity routine
        self.calendar_phase(NullTracer(), d["products"][:1])
        self.events_phase(NullTracer(), self.events[:1])

    # --- phases: each returns its results, checked outside the timed region

    def calendar_phase(self, tracer, products) -> list:
        spot = self.data["spot"]
        results = []
        for p in products:
            with tracer.span("market_data.average_price"):
                avg = average_price(spot, p["period"])
            with tracer.span("auction_engine.settle_cfd"):
                flows = settle_cfd(p["price"], spot, p["period"], p["quantity"])
            with tracer.span("panel.vol3y"):
                vol = vol3y(spot, p["auction_date"])
            tracer.count("market_data.days", len(flows))
            results.append((p, avg, flows, vol))
        return results

    def check_calendar(self, results) -> list[str]:
        prices = self.data["spot"].prices
        problems = []
        for p, avg, flows, vol in results:
            a = p["period"].start.toordinal() - self.day0
            b = p["period"].end.toordinal() - self.day0 + 1
            w0 = (p["auction_date"] - timedelta(days=3 * 365)).toordinal() - self.day0
            w1 = p["auction_date"].toordinal() - self.day0
            cash = sum(f for _, f in flows)
            want_cash = float(((p["price"] - prices[a:b]) * p["quantity"] * 24).sum())
            if not (math.isclose(avg, prices[a:b].mean(), rel_tol=1e-12)
                    and len(flows) == b - a
                    and math.isclose(cash, want_cash, rel_tol=1e-9, abs_tol=1e-6)
                    and math.isclose(vol, prices[max(0, w0):w1].std(ddof=1), rel_tol=1e-9)):
                problems.append(f"calendar results wrong for delivery {p['period'].start}")
        return problems

    def events_phase(self, tracer, events) -> list:
        results = []
        for series, dates, positions, excluded in events:
            with tracer.span("activity.r1_series"):
                r1 = r1_series(series)
            with tracer.span("activity.r2_series"):
                r2 = r2_series(series)
            for m in (r1, r2):
                tracer.count("activity.undefined_days", len(m.undefined_dates))
                with tracer.span("activity.baseline_mean_excluding"):
                    baseline = baseline_mean_excluding(m, excluded)
                for variance in VARIANCES:
                    with tracer.span("activity.event_study"):
                        res = event_study(m, dates, window=inputs.EVENT_WINDOW,
                                          variance=variance)
                    if tracer.enabled:
                        tracer.count("activity.events_dropped",
                                     inputs.events_dropped(len(m.dates), positions))
                    results.append((m, positions, baseline, res))
        return results

    def check_events(self, results) -> list[str]:
        problems = []
        for m, positions, baseline, res in results:
            problems += checks.check_event_study(res, positions, m.defined_mask(),
                                                 inputs.EVENT_WINDOW)
            problems += checks.check_baseline(res, baseline)
        return problems

    def run_pass(self, tracer, index: int) -> PassResult:
        res = PassResult(attempted=3)
        for metric, phase, check, arg in (
                ("calendar_s", self.calendar_phase, self.check_calendar, self.data["products"]),
                ("event_study_s", self.events_phase, self.check_events, self.events)):
            t0 = time.perf_counter()
            with tracer.span(f"phase.{metric[:-2]}"):
                out = phase(tracer, arg)
            dt = time.perf_counter() - t0
            res.samples[metric] = [dt]
            res.wall += dt
            res.record(check(out))

        d = self.data
        t0 = time.perf_counter()
        with tracer.span("phase.panel"):
            with tracer.span("panel.standardize"):
                z = standardize_by_group(d["y_raw"], d["labels"])
            panel = [replace(o, y=float(y)) for o, y in zip(d["panel"], z)]
            t1 = time.perf_counter()
            with tracer.span("panel.fit"):
                fit = fit_pooled_ols(panel, d["covariates"], unit_fixed_effects=True)
            t2 = time.perf_counter()
        tracer.count("panel.k", fit.k)
        res.samples["panel_fit_s"] = [t2 - t1]
        res.wall += t2 - t0
        res.record(checks.check_standardized(z, d["y_raw"], d["labels"])
                   + checks.check_ols(fit, d["covariates"], panel, z))
        return res
