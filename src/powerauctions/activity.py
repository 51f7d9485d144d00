"""Speculation/hedging activity ratios and auction-date event studies.

The two activity ratios relate futures volume to open interest: the level
ratio volume/OI and the flow ratio volume/|change in OI|. High values flag
speculation-dominant trading, low values hedging-dominant trading. The event
study compares each trading-day offset around auction dates against a
baseline that excludes every (merged) event window.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from datetime import date
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .market_data import FuturesContractSeries, _date_index
from .premiums import _ZeroVarianceError, _moments, _two_sample_t

MEASURE_KINDS = ("volume", "open_interest", "R1", "R2")


@dataclass(frozen=True, eq=False)
class MeasureSeries:
    """A daily activity measure; ``undefined_dates`` are days without a value.

    Dates must strictly increase. The series keeps the sorted ordinal index
    of its dates and its defined-day mask as read-only arrays; a measure
    built from a futures series takes both over from it instead
    (``_ordinals``, ``_defined``) and derives ``undefined_dates`` from the mask.
    """
    contract_id: str
    measure_kind: str
    dates: tuple[date, ...]
    values: np.ndarray
    undefined_dates: frozenset[date] = frozenset()
    _ordinals: InitVar[np.ndarray | None] = None
    _defined: InitVar[np.ndarray | None] = None
    ordinals: np.ndarray = field(init=False, repr=False)
    _mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, _ordinals, _defined):
        if self.measure_kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.measure_kind!r}")
        vals = np.asarray(self.values, dtype=float)
        if len(vals) != len(self.dates):
            raise ValueError("dates and values length mismatch")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)
        if _ordinals is None:
            _ordinals = _date_index(self.dates, f"measure {self.contract_id}")
        if _defined is None:
            undefined = np.fromiter((d.toordinal() for d in self.undefined_dates),
                                    dtype=np.int64, count=len(self.undefined_dates))
            _defined = ~np.isin(_ordinals, undefined)
        else:
            object.__setattr__(self, "undefined_dates",
                               frozenset(compress(self.dates, (~_defined).tolist())))
        _defined.setflags(write=False)
        object.__setattr__(self, "ordinals", _ordinals)
        object.__setattr__(self, "_mask", _defined)

    def defined_mask(self) -> np.ndarray:
        return self._mask


def _measure(futures: FuturesContractSeries, kind: str, values,
             defined=None) -> MeasureSeries:
    """A measure on ``futures``' calendar, sharing its date index."""
    if defined is None:
        defined = np.ones(len(futures), dtype=bool)
    return MeasureSeries(futures.contract_id, kind, futures.dates, values,
                         _ordinals=futures.ordinals, _defined=defined)


def volume_series(futures: FuturesContractSeries) -> MeasureSeries:
    return _measure(futures, "volume", np.array(futures.volume))


def open_interest_series(futures: FuturesContractSeries) -> MeasureSeries:
    return _measure(futures, "open_interest", np.array(futures.open_interest))


def r1_series(futures: FuturesContractSeries) -> MeasureSeries:
    """Volume over open interest; days with zero OI are marked undefined."""
    if len(futures) == 0:
        raise ValueError("empty futures series")
    oi = futures.open_interest
    undefined = oi == 0
    values = np.zeros(len(futures))
    np.divide(futures.volume, oi, out=values, where=~undefined)
    values[undefined] = np.nan
    return _measure(futures, "R1", values, ~undefined)


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
    return _measure(futures, "R2", values, ~undefined)


def baseline_mean_excluding(series: MeasureSeries, excluded_dates: Iterable[date]) -> float:
    """Mean outside the excluded dates via the rescaled-average identity.

    With full-sample size N and mean M, and excluded-sample size N2 with
    mean M2, the remaining N1 = N - N2 observations have mean
    (N/N1) * M - (N2/N1) * M2. Undefined days never enter either sample.
    """
    excluded = np.fromiter((d.toordinal() for d in excluded_dates), dtype=np.int64)
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
    n = len(series.dates)
    wanted = np.fromiter((d.toordinal() for d in event_dates), dtype=np.int64,
                         count=len(event_dates))
    positions = np.searchsorted(series.ordinals, wanted)
    found = positions < n
    found[found] = series.ordinals[positions[found]] == wanted[found]
    if not found.all():
        missing = event_dates[int(np.argmin(found))]
        raise ValueError(f"event date {missing} not in the series trading calendar")
    defined = series.defined_mask()

    # +1 at each window's start and -1 past its end, both clipped into the series
    edges = (np.bincount(np.clip(positions + lo, 0, n), minlength=n + 1)
             - np.bincount(np.clip(positions + hi + 1, 0, n), minlength=n + 1))
    baseline = series.values[defined & (np.cumsum(edges[:n]) == 0)]
    if baseline.size < 2:
        raise ValueError("baseline sample too small after exclusions")
    base = _moments(baseline)
    baseline_mean = float(base[1])

    results = []
    for k in range(lo, hi + 1):
        idx = positions + k
        idx = idx[(idx >= 0) & (idx < n)]
        sample = series.values[idx[defined[idx]]]
        if sample.size == 0:
            results.append(EventStudyResult(offset=k, event_mean=math.nan,
                                            baseline_mean=baseline_mean, n_events=0,
                                            t_stat=math.nan, p_value=math.nan,
                                            sig01=False, sig05=False))
            continue
        moments = _moments(sample)
        try:
            t, _, p = _two_sample_t(moments, base, variance)
        except _ZeroVarianceError:
            # zero standard error (both samples constant): reported as no shift
            t, p = 0.0, 1.0
        results.append(EventStudyResult(offset=k, event_mean=float(moments[1]),
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
