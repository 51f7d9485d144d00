"""Speculation/hedging activity ratios and auction-date event studies.

The two activity ratios relate futures volume to open interest: the level
ratio volume/OI and the flow ratio volume/|change in OI|. High values flag
speculation-dominant trading, low values hedging-dominant trading. The event
study compares each trading-day offset around auction dates against a
baseline that excludes every (merged) event window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from .market_data import FuturesContractSeries
from .premiums import _ZeroVarianceError, _two_sample_t

MEASURE_KINDS = ("volume", "open_interest", "R1", "R2")


@dataclass(frozen=True)
class MeasureSeries:
    contract_id: str
    measure_kind: str
    dates: tuple[date, ...]
    values: np.ndarray
    undefined_dates: frozenset[date] = frozenset()

    def __post_init__(self):
        if self.measure_kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.measure_kind!r}")
        vals = np.asarray(self.values, dtype=float)
        if len(vals) != len(self.dates):
            raise ValueError("dates and values length mismatch")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    def defined_mask(self) -> np.ndarray:
        if not self.undefined_dates:
            return np.ones(len(self.dates), dtype=bool)
        return np.array([d not in self.undefined_dates for d in self.dates])


def volume_series(futures: FuturesContractSeries) -> MeasureSeries:
    return MeasureSeries(futures.contract_id, "volume", futures.dates,
                         np.array(futures.volume))


def open_interest_series(futures: FuturesContractSeries) -> MeasureSeries:
    return MeasureSeries(futures.contract_id, "open_interest", futures.dates,
                         np.array(futures.open_interest))


def r1_series(futures: FuturesContractSeries) -> MeasureSeries:
    """Volume over open interest; days with zero OI are marked undefined."""
    if len(futures) == 0:
        raise ValueError("empty futures series")
    oi = futures.open_interest
    undefined = oi == 0
    values = np.zeros(len(futures))
    np.divide(futures.volume, oi, out=values, where=~undefined)
    values[undefined] = np.nan
    return MeasureSeries(futures.contract_id, "R1", futures.dates, values,
                         frozenset(d for d, u in zip(futures.dates, undefined) if u))


def r2_series(futures: FuturesContractSeries) -> MeasureSeries:
    """Volume over |day-on-day change in open interest|.

    The first day has no predecessor and days with an unchanged open
    interest divide by zero; both are undefined, not infinite.
    """
    if len(futures) < 2:
        raise ValueError("need at least 2 observations for the OI change")
    delta = np.empty(len(futures))
    delta[0] = 0.0
    delta[1:] = np.abs(np.diff(futures.open_interest))
    undefined = delta == 0
    undefined[0] = True
    values = np.full(len(futures), np.nan)
    np.divide(futures.volume, delta, out=values, where=~undefined)
    return MeasureSeries(futures.contract_id, "R2", futures.dates, values,
                         frozenset(d for d, u in zip(futures.dates, undefined) if u))


def baseline_mean_excluding(series: MeasureSeries, excluded_dates: Iterable[date]) -> float:
    """Mean outside the excluded dates via the rescaled-average identity.

    With full-sample size N and mean M, and excluded-sample size N2 with
    mean M2, the remaining N1 = N - N2 observations have mean
    (N/N1) * M - (N2/N1) * M2. Undefined days never enter either sample.
    """
    excluded = set(excluded_dates)
    mask = series.defined_mask()
    values = series.values[mask]
    dates = [d for d, ok in zip(series.dates, mask) if ok]
    n = len(values)
    in_window = np.array([d in excluded for d in dates])
    n2 = int(in_window.sum())
    n1 = n - n2
    if n1 < 2:
        raise ValueError("fewer than 2 observations outside the exclusion set")
    m = float(values.mean())
    m2 = float(values[in_window].mean()) if n2 else 0.0
    return (n / n1) * m - (n2 / n1) * m2


@dataclass(frozen=True)
class EventStudyResult:
    offset: int
    event_mean: float
    baseline_mean: float
    n_events: int
    t_stat: float
    p_value: float
    sig01: bool
    sig05: bool


def event_study(series: MeasureSeries, event_dates: Sequence[date],
                window: tuple[int, int] = (-5, 5),
                variance: str = "welch") -> list[EventStudyResult]:
    """Per-offset t tests of event-window behavior against the baseline.

    Offsets are trading days (positions in the series), not calendar days.
    All event windows are merged into one exclusion set for the baseline.
    Events whose offset falls off the series edge are dropped for that
    offset only; n_events reports how many contributed.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("window lower bound exceeds upper bound")
    if variance not in ("welch", "pooled"):
        raise ValueError(f"unknown variance treatment {variance!r}")
    if not event_dates:
        raise ValueError("no event dates")
    pos_of = {d: i for i, d in enumerate(series.dates)}
    positions = []
    for d in event_dates:
        if d not in pos_of:
            raise ValueError(f"event date {d} not in the series trading calendar")
        positions.append(pos_of[d])
    n = len(series.dates)
    defined = series.defined_mask()

    excluded = np.zeros(n, dtype=bool)
    for p in positions:
        excluded[max(0, p + lo):min(n, p + hi + 1)] = True
    baseline = series.values[defined & ~excluded]
    if baseline.size < 2:
        raise ValueError("baseline sample too small after exclusions")
    baseline_mean = float(baseline.mean())

    results = []
    for k in range(lo, hi + 1):
        idx = [p + k for p in positions if 0 <= p + k < n and defined[p + k]]
        sample = series.values[idx]
        if sample.size == 0:
            results.append(EventStudyResult(offset=k, event_mean=math.nan,
                                            baseline_mean=baseline_mean, n_events=0,
                                            t_stat=math.nan, p_value=math.nan,
                                            sig01=False, sig05=False))
            continue
        try:
            t, _, p = _two_sample_t(sample, baseline, variance)
        except _ZeroVarianceError:
            # zero standard error (both samples constant): reported as no shift
            t, p = 0.0, 1.0
        results.append(EventStudyResult(offset=k, event_mean=float(sample.mean()),
                                        baseline_mean=baseline_mean,
                                        n_events=int(sample.size), t_stat=t,
                                        p_value=p, sig01=p < 0.01, sig05=p < 0.05))
    return results


@dataclass(frozen=True)
class SignificanceTally:
    significant_positive: int
    significant_negative: int
    total: int
    verdict: str


def significance_tally(results: Iterable[EventStudyResult],
                       alpha: float = 0.05) -> SignificanceTally:
    """Count signed significant t statistics and call the dominant activity.

    Negative-dominant tallies read as hedging pressure around events,
    positive-dominant as speculation.
    """
    pos = neg = total = 0
    for r in results:
        if math.isnan(r.t_stat):
            continue
        total += 1
        if r.p_value < alpha:
            if r.t_stat > 0:
                pos += 1
            elif r.t_stat < 0:
                neg += 1
    if total == 0:
        raise ValueError("no usable results to tally")
    if neg > pos:
        verdict = "hedging-dominant"
    elif pos > neg:
        verdict = "speculation-dominant"
    else:
        verdict = "inconclusive"
    return SignificanceTally(significant_positive=pos, significant_negative=neg,
                             total=total, verdict=verdict)
