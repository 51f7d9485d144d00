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

from .market_data import FuturesContractSeries, _Calendar, _read_only, _Series
from .premiums import _ZeroVarianceError, _moments, _two_sample_t

MEASURE_KINDS = ("volume", "open_interest", "R1", "R2")


@dataclass(frozen=True, eq=False)
class MeasureSeries(_Series):
    """A daily activity measure; a NaN value marks a day without one.

    Dates must strictly increase and are stored as a tuple that carries their
    ordinal index, so a measure on a futures series' dates shares its index.
    ``defined_mask()`` (read-only) and ``undefined_dates`` are derived from
    the NaN values, so a ratio that overflows to inf stays defined. Copy and
    pickle rebuild a measure through this constructor.
    """
    contract_id: str
    measure_kind: str
    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.measure_kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.measure_kind!r}")
        vals = _read_only(self.values)
        if len(vals) != len(self.dates):
            raise ValueError("dates and values length mismatch")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dates", _Calendar(self.dates, f"measure {self.contract_id}"))

    def defined_mask(self) -> np.ndarray:
        mask = ~np.isnan(self.values)
        mask.setflags(write=False)
        return mask

    @property
    def undefined_dates(self) -> frozenset[date]:
        where = np.flatnonzero(np.isnan(self.values)).tolist()
        return frozenset(map(self.dates.__getitem__, where))


def volume_series(futures: FuturesContractSeries) -> MeasureSeries:
    return MeasureSeries(futures.contract_id, "volume", futures.dates, futures.volume)


def open_interest_series(futures: FuturesContractSeries) -> MeasureSeries:
    return MeasureSeries(futures.contract_id, "open_interest", futures.dates,
                         futures.open_interest)


def r1_series(futures: FuturesContractSeries) -> MeasureSeries:
    """Volume over open interest; days with zero OI are undefined (NaN)."""
    if len(futures) == 0:
        raise ValueError("empty futures series")
    oi = futures.open_interest
    values = np.full(len(futures), np.nan)
    np.divide(futures.volume, oi, out=values, where=oi != 0)
    values.setflags(write=False)  # fresh, so the series keeps it without a copy
    return MeasureSeries(futures.contract_id, "R1", futures.dates, values)


def r2_series(futures: FuturesContractSeries) -> MeasureSeries:
    """Volume over |day-on-day change in open interest|.

    The first day has no predecessor and days with an unchanged open
    interest divide by zero; both are undefined (NaN), not infinite.
    """
    if len(futures) < 2:
        raise ValueError("need at least 2 observations for the OI change")
    delta = np.abs(np.diff(futures.open_interest))
    values = np.full(len(futures), np.nan)
    np.divide(futures.volume[1:], delta, out=values[1:], where=delta != 0)
    values.setflags(write=False)  # fresh, so the series keeps it without a copy
    return MeasureSeries(futures.contract_id, "R2", futures.dates, values)


def baseline_mean_excluding(series: MeasureSeries, excluded_dates: Iterable[date]) -> float:
    """Mean outside the excluded dates via the rescaled-average identity.

    With full-sample size N and mean M, and excluded-sample size N2 with
    mean M2, the remaining N1 = N - N2 observations have mean
    (N/N1) * M - (N2/N1) * M2. Undefined days never enter either sample.
    """
    excluded = np.fromiter(map(date.toordinal, excluded_dates), np.int64)
    mask = series.defined_mask()
    values = series.values[mask]
    n = len(values)
    in_window = np.isin(series.ordinals[mask], excluded)
    n2 = int(in_window.sum())
    n1 = n - n2
    if n1 < 2:
        raise ValueError("fewer than 2 observations outside the exclusion set")
    m = float(values.mean())
    m2 = float(values[in_window].mean()) if n2 else 0.0
    return (n / n1) * m - (n2 / n1) * m2


@dataclass(frozen=True)
class EventStudyResult:
    """The event mean against the baseline at one trading-day offset."""
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
    offset only; n_events reports how many contributed. The cost is
    O(events x window) plus one O(n) pass for the defined mask: offsets
    beyond +-(n - 1) reach no day and add no gather, but a window wider than
    the series still gives one row per offset.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("window lower bound exceeds upper bound")
    if variance not in ("welch", "pooled"):
        raise ValueError(f"unknown variance treatment {variance!r}")
    if not event_dates:
        raise ValueError("no event dates")
    n = len(series.dates)
    wanted = np.fromiter(map(date.toordinal, event_dates), np.int64, len(event_dates))
    positions = np.searchsorted(series.ordinals, wanted)
    found = positions < n
    found[found] = series.ordinals[positions[found]] == wanted[found]
    if not found.all():
        missing = event_dates[int(np.argmin(found))]
        raise ValueError(f"event date {missing} not in the series trading calendar")
    defined = series.defined_mask()

    # offsets x events, for the offsets that reach the series (the rest: NaN rows)
    first, last = max(lo, 1 - n), min(hi, n - 1)
    idx = positions + np.arange(first, last + 1)[:, None]
    inside = (idx >= 0) & (idx < n)
    outside = defined.copy()
    outside[idx[inside]] = False
    baseline = series.values[outside]
    if baseline.size < 2:
        raise ValueError("baseline sample too small after exclusions")
    base = _moments(baseline)
    baseline_mean = float(base[1])
    idx[~inside] = 0  # any day of the series: keep drops it
    rows, keep = series.values[idx], inside & defined[idx]

    results = []
    for k in range(lo, hi + 1):
        # a reduce per offset, as one reduce over all rows rounds differently
        sample = rows[k - first][keep[k - first]] if first <= k <= last else baseline[:0]
        mean = t = p = math.nan  # no event at this offset
        if sample.size:
            moments = _moments(sample)
            mean = float(moments[1])
            try:
                t, _, p = _two_sample_t(moments, base, variance)
            except _ZeroVarianceError:
                # zero standard error (both samples constant): reported as no shift
                t, p = 0.0, 1.0
        results.append(EventStudyResult(offset=k, event_mean=mean, baseline_mean=baseline_mean,
                                        n_events=int(sample.size), t_stat=t, p_value=p,
                                        sig01=p < 0.01, sig05=p < 0.05))
    return results


@dataclass(frozen=True)
class SignificanceTally:
    """How many offsets are significant, by sign, and the verdict."""
    significant_positive: int
    significant_negative: int
    total: int
    verdict: str


def significance_tally(results: Iterable[EventStudyResult],
                       alpha: float = 0.05) -> SignificanceTally:
    """Count signed significant t statistics and call the dominant activity.

    Negative-dominant tallies read as hedging pressure around events,
    positive-dominant as speculation. ``alpha`` must lie in (0, 1).
    """
    if not 0 < alpha < 1:  # NaN fails too
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
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
