"""Calendar lookups on the ordinal date index, pinned to per-day references.

Each reference walks the calendar one day at a time, the way the lookups
are defined, and the library must agree with it exactly (``==``), errors
and their messages included.
"""

from dataclasses import astuple
from datetime import date, timedelta

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerauctions import (DeliveryPeriod, FuturesContractSeries, MarketDataError,
                           MarketZone, MeasureSeries, RegressionError,
                           SpotPriceSeries, average_price, baseline_mean_excluding,
                           event_study, r1_series, r2_series, settle_cfd, vol3y)
from powerauctions.premiums import _ZeroVarianceError, _two_sample_t

from conftest import daily_dates, make_futures

ES = MarketZone("OMEL", "ES")
FIRST, LAST = date(2004, 1, 5), date(2008, 2, 20)


def irregular_spot() -> SpotPriceSeries:
    """Daily prices from FIRST to LAST with every 7th day and a 16-day block missing."""
    days = [FIRST + timedelta(days=i) for i in range((LAST - FIRST).days + 1)]
    days = [d for d in days if d in (FIRST, LAST) or (
        d.toordinal() % 7 != 3 and not date(2006, 5, 3) <= d <= date(2006, 5, 18))]
    prices = np.random.default_rng(41).uniform(10.0, 90.0, size=len(days)).round(3)
    return SpotPriceSeries(ES, tuple(days), prices)


def calendar(period: DeliveryPeriod) -> list[date]:
    return [period.start + timedelta(days=i)
            for i in range((period.end - period.start).days + 1)]


def ref_average_price(spot, period, mode):
    by_day = dict(zip(spot.dates, spot.prices))
    missing = [d for d in calendar(period) if d not in by_day]
    if mode == "strict" and missing:
        raise MarketDataError(
            f"spot series missing {len(missing)} day(s) in delivery period, first {missing[0]}")
    picked = [by_day[d] for d in calendar(period) if d in by_day]
    if not picked:
        raise MarketDataError("no spot observations inside delivery period")
    return float(np.mean(picked))


def ref_settle_cfd(price, spot, period, quantity, hours=24):
    by_day = dict(zip(spot.dates, spot.prices))
    flows = []
    for d in calendar(period):
        if d not in by_day:
            raise MarketDataError(f"no spot price for {d}")
        flows.append((d, (price - float(by_day[d])) * quantity * hours))
    return flows


def ref_vol3y(spot, auction_date):
    start = auction_date - timedelta(days=3 * 365)
    picked = [p for d, p in zip(spot.dates, spot.prices) if start <= d < auction_date]
    if len(picked) < 2:
        raise RegressionError(
            f"need at least 2 spot observations before {auction_date}, got {len(picked)}")
    return float(np.std(picked, ddof=1))


def outcome(fn, *args, **kwargs):
    """The value of ``fn`` or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (MarketDataError, RegressionError) as exc:
        return type(exc), str(exc)


SPOT = irregular_spot()
GAP = date(2006, 5, 10)
PERIODS = {
    "first day only": (FIRST, FIRST),
    "last day only": (LAST, LAST),
    "one missing day": (GAP, GAP),
    "touches first day": (FIRST, FIRST + timedelta(days=40)),
    "touches last day": (LAST - timedelta(days=40), LAST),
    "starts before the series": (FIRST - timedelta(days=3), FIRST + timedelta(days=3)),
    "ends after the series": (LAST - timedelta(days=3), LAST + timedelta(days=3)),
    "wholly before": (date(2003, 1, 1), date(2003, 3, 31)),
    "wholly after": (date(2008, 4, 1), date(2008, 6, 30)),
    "over the block gap": (date(2006, 5, 1), date(2006, 5, 31)),
    "whole series": (FIRST, LAST),
}
# a week of present days: one stretch of the series without a missing day
FULL_WEEK = next((d, d + timedelta(days=6)) for d in SPOT.dates
                 if all(d + timedelta(days=i) in SPOT.dates for i in range(7)))


@pytest.mark.parametrize("bounds", list(PERIODS.values()) + [FULL_WEEK],
                         ids=list(PERIODS) + ["full week"])
class TestCalendarLookups:
    def test_average_price_both_modes(self, bounds):
        period = DeliveryPeriod(*bounds)
        for mode in ("strict", "available"):
            assert (outcome(average_price, SPOT, period, mode)
                    == outcome(ref_average_price, SPOT, period, mode))

    def test_settle_cfd_dates_and_flows(self, bounds):
        period = DeliveryPeriod(*bounds)
        assert (outcome(settle_cfd, 47.25, SPOT, period, 3.5)
                == outcome(ref_settle_cfd, 47.25, SPOT, period, 3.5))

    def test_price_on_each_day(self, bounds):
        for d in calendar(DeliveryPeriod(*bounds))[:50]:
            want = (float(SPOT.prices[SPOT.dates.index(d)]) if d in SPOT.dates
                    else (MarketDataError, f"no spot price for {d}"))
            assert outcome(SPOT.price_on, d) == want


def test_lookups_cover_every_kind_of_period():
    strict = [outcome(average_price, SPOT, DeliveryPeriod(*b)) for b in PERIODS.values()]
    assert any(isinstance(r, float) for r in strict)
    assert any(isinstance(r, tuple) and "missing" in r[1] for r in strict)
    assert (outcome(average_price, SPOT, DeliveryPeriod(*PERIODS["wholly after"]), "available")
            == (MarketDataError, "no spot observations inside delivery period"))
    assert isinstance(outcome(settle_cfd, 1.0, SPOT, DeliveryPeriod(*FULL_WEEK), 1.0), list)


def test_missing_day_messages_name_the_first_missing_day():
    period = DeliveryPeriod(date(2006, 5, 1), date(2006, 5, 31))
    first_gap = next(d for d in calendar(period) if d not in SPOT.dates)
    n_missing = sum(d not in SPOT.dates for d in calendar(period))
    with pytest.raises(MarketDataError, match=(
            rf"^spot series missing {n_missing} day\(s\) in delivery period, first {first_gap}$")):
        average_price(SPOT, period)
    with pytest.raises(MarketDataError, match=rf"^no spot price for {first_gap}$"):
        settle_cfd(50.0, SPOT, period, 1.0)
    # a period past the series end misses its first day
    after = DeliveryPeriod(LAST, LAST + timedelta(days=2))
    with pytest.raises(MarketDataError, match=rf"^no spot price for {LAST + timedelta(days=1)}$"):
        settle_cfd(50.0, SPOT, after, 1.0)


AUCTION_DAYS = [
    FIRST, FIRST + timedelta(days=1), FIRST + timedelta(days=2), GAP,
    date(2007, 1, 9), date(2007, 1, 10), LAST, LAST + timedelta(days=1),
    date(2010, 1, 1), date(2011, 2, 21), date(2011, 2, 22),
]


@pytest.mark.parametrize("auction_date", AUCTION_DAYS, ids=str)
def test_vol3y_matches_per_day_window(auction_date):
    assert outcome(vol3y, SPOT, auction_date) == outcome(ref_vol3y, SPOT, auction_date)


def test_vol3y_window_is_half_open():
    auction = next(d for d in SPOT.dates
                   if d.year == 2007 and d - timedelta(days=3 * 365) in SPOT.dates)
    start = auction - timedelta(days=3 * 365)
    base = vol3y(SPOT, auction)

    def bumped(day):
        prices = SPOT.prices.copy()
        prices[SPOT.dates.index(day)] += 1000.0
        return vol3y(SpotPriceSeries(ES, SPOT.dates, prices), auction)

    assert bumped(auction) == base  # the auction day never enters
    assert bumped(start) != base  # the first day of the window does
    assert bumped(SPOT.dates[SPOT.dates.index(start) - 1]) == base


# --- event study and excluded baseline ---------------------------------------


def ref_event_study(m, events, window=(-5, 5), variance="welch"):
    pos_of = {d: i for i, d in enumerate(m.dates)}
    for d in events:
        if d not in pos_of:
            raise ValueError(f"event date {d} not in the series trading calendar")
    positions = [pos_of[d] for d in events]
    n = len(m.dates)
    defined = [d not in m.undefined_dates for d in m.dates]
    excluded = {i for p in positions for i in range(p + window[0], p + window[1] + 1)}
    baseline = np.array([v for i, (v, ok) in enumerate(zip(m.values, defined))
                         if ok and i not in excluded])
    rows = []
    for k in range(window[0], window[1] + 1):
        sample = np.array([m.values[p + k] for p in positions
                           if 0 <= p + k < n and defined[p + k]])
        if not sample.size:
            rows.append((k, np.nan, float(baseline.mean()), 0, np.nan, np.nan, False, False))
            continue
        try:
            va = sample.var(ddof=1) if sample.size > 1 else np.nan
            t, _, p = _two_sample_t((sample.size, sample.mean(), va),
                                    (baseline.size, baseline.mean(), baseline.var(ddof=1)),
                                    variance)
        except _ZeroVarianceError:
            t, p = 0.0, 1.0
        rows.append((k, float(sample.mean()), float(baseline.mean()), sample.size, t, p,
                     p < 0.01, p < 0.05))
    return rows


def assert_same_study(m, events, **kwargs):
    got = [astuple(r) for r in event_study(m, events, **kwargs)]
    np.testing.assert_equal(got, ref_event_study(m, events, **kwargs))
    return {r[0]: r[3] for r in got}


@pytest.fixture
def measure(rng):
    dates = daily_dates(date(2007, 1, 1), 120)
    return MeasureSeries("C", "volume", dates, rng.normal(10.0, 2.0, 120).round(4))


class TestEventStudyEdges:
    @pytest.mark.parametrize("variance", ["welch", "pooled"])
    def test_unsorted_events(self, measure, variance):
        d = measure.dates
        n_events = assert_same_study(measure, [d[90], d[20], d[55]], variance=variance)
        assert set(n_events.values()) == {3}

    def test_duplicated_events_count_twice(self, measure):
        d = measure.dates
        n_events = assert_same_study(measure, [d[50], d[50], d[90]])
        assert n_events[0] == 3

    def test_events_near_both_edges(self, measure):
        d = measure.dates
        n_events = assert_same_study(measure, [d[1], d[60], d[117]])
        assert n_events == {-5: 2, -4: 2, -3: 2, -2: 2, -1: 3, 0: 3, 1: 3, 2: 3,
                            3: 2, 4: 2, 5: 2}

    def test_offset_with_every_event_day_undefined(self, rng):
        dates = daily_dates(date(2007, 1, 1), 120)
        events = [dates[30], dates[70]]
        m = MeasureSeries("C", "R1", dates, rng.normal(size=120),
                          undefined_dates=frozenset({dates[32], dates[72], date(1990, 1, 1)}))
        by_offset = {r.offset: r for r in event_study(m, events)}
        assert by_offset[2].n_events == 0
        assert np.isnan(by_offset[2].event_mean) and np.isnan(by_offset[2].t_stat)
        assert_same_study(m, events)

    def test_offset_undefined_on_a_futures_measure(self, rng):
        # open interest unchanged right after each event: R2 undefined at +1
        oi = 500.0 + np.cumsum(rng.integers(1, 20, size=100))
        for p in (30, 60):
            oi[p + 1:] -= oi[p + 1] - oi[p]
        m = r2_series(make_futures(rng.integers(1, 50, 100).astype(float), oi))
        events = [m.dates[30], m.dates[60]]
        assert_same_study(m, events)
        assert {r.offset: r.n_events for r in event_study(m, events)}[1] == 0

    @pytest.mark.parametrize("window", [(-5, -3), (3, 5), (-8, -6)])
    @pytest.mark.parametrize("edge", [(0, 1, 60), (60, 118, 119)], ids=["start", "end"])
    def test_window_off_the_event_day_at_the_series_edges(self, measure, window, edge):
        # a window wholly before or after its event day may lie wholly
        # outside the series: it then excludes nothing from the baseline
        assert_same_study(measure, [measure.dates[p] for p in edge], window=window)

    @pytest.mark.parametrize("missing", [
        [date(2007, 2, 1), date(1999, 1, 1), date(2030, 1, 1)],
        [date(2030, 1, 1), date(1999, 1, 1)],
        [date(1999, 1, 1)],
    ], ids=["gap", "after end", "before start"])
    def test_event_missing_from_calendar_named_in_input_order(self, rng, missing):
        dates = tuple(d for d in daily_dates(date(2007, 1, 1), 120) if d != date(2007, 2, 1))
        m = MeasureSeries("C", "volume", dates, rng.normal(size=len(dates)))
        with pytest.raises(ValueError, match=(
                rf"^event date {missing[0]} not in the series trading calendar$")):
            event_study(m, [dates[10]] + missing + [dates[40]])

    def test_baseline_excludes_only_dates_inside_the_series(self, measure):
        d = measure.dates
        inside = {d[5], d[6], d[60]}
        outside = {date(1990, 1, 1), date(2030, 1, 1), d[-1] + timedelta(days=1)}
        got = baseline_mean_excluding(measure, inside | outside)
        assert got == baseline_mean_excluding(measure, inside)
        keep = [v for day, v in zip(d, measure.values) if day not in inside]
        assert got == pytest.approx(np.mean(keep), abs=1e-12)

    def test_baseline_skips_undefined_days(self):
        m = r2_series(make_futures([5, 10, 7, 9, 4], [100, 100, 103, 110, 90]))
        # defined days: 2, 3, 4 -> values 7/3, 9/7, 4/20; exclude day 3
        got = baseline_mean_excluding(m, [m.dates[3], m.dates[0]])
        assert got == pytest.approx((7 / 3 + 4 / 20) / 2, abs=1e-12)


@st.composite
def _study_case(draw):
    n = draw(st.integers(2, 60))
    position = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n - 1]))
    positions = draw(st.lists(position, min_size=1, max_size=8))
    lo = draw(st.integers(-n - 5, n + 5))
    hi = draw(st.integers(lo, n + 6))
    undefined = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    return n, positions, (lo, hi), undefined, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=_study_case())
def test_event_study_baseline_is_the_excluded_baseline(case):
    n, positions, (lo, hi), undefined, seed = case
    dates = daily_dates(date(2007, 1, 1), n)
    m = MeasureSeries("C", "R1", dates, np.random.default_rng(seed).uniform(1.0, 100.0, n),
                      undefined_dates=frozenset(dates[i] for i in undefined))
    events = [dates[p] for p in positions]
    in_window = {dates[i] for p in positions for i in range(p + lo, p + hi + 1) if 0 <= i < n}
    try:
        want = baseline_mean_excluding(m, in_window)
    except ValueError:
        with pytest.raises(ValueError, match="^baseline sample too small after exclusions$"):
            event_study(m, events, window=(lo, hi))
        return
    got = event_study(m, events, window=(lo, hi))[0].baseline_mean
    assert math.isclose(got, want, rel_tol=1e-12)


# --- series validation -------------------------------------------------------


def faulty_dates(n, first_fault, second_fault):
    """n daily dates with two faults ("dup" or "back") at the given positions."""
    dates = list(daily_dates(date(1990, 1, 1), n))
    for kind, i in (first_fault, second_fault):
        dates[i] = dates[i - 1] if kind == "dup" else dates[i - 1] - timedelta(days=3)
    return tuple(dates)


FAULTS = {
    "duplicate first": ((("dup", 3000), ("back", 4000)),
                        "duplicate date {d} in {what}"),
    "non-monotone first": ((("back", 2500), ("dup", 4100)),
                           "non-monotone dates in {what}: {d} after {p}"),
}


@pytest.mark.parametrize("faults,message", FAULTS.values(), ids=list(FAULTS))
class TestSeriesValidation:
    def expected(self, dates, faults, message, what):
        i = faults[0][1]
        return "^" + message.format(d=dates[i], p=dates[i - 1], what=what) + "$"

    def test_futures_series(self, faults, message):
        dates = faulty_dates(5000, *faults)
        with pytest.raises(MarketDataError,
                           match=self.expected(dates, faults, message, "futures FTB-1")):
            FuturesContractSeries("FTB-1", ES, dates, np.full(5000, 50.0),
                                  np.ones(5000), np.ones(5000))

    def test_spot_series(self, faults, message):
        dates = faulty_dates(5000, *faults)
        with pytest.raises(MarketDataError,
                           match=self.expected(dates, faults, message, "spot series")):
            SpotPriceSeries(ES, dates, np.full(5000, 50.0))

    def test_measure_series(self, faults, message):
        dates = faulty_dates(5000, *faults)
        with pytest.raises(MarketDataError,
                           match=self.expected(dates, faults, message, "measure C")):
            MeasureSeries("C", "volume", dates, np.ones(5000))


def test_defined_mask_is_read_only(rng):
    f = make_futures(rng.integers(1, 50, 30).astype(float), np.full(30, 500.0))
    hand_built = MeasureSeries("C", "R2", f.dates, np.ones(30),
                               undefined_dates=frozenset(f.dates[:3]))
    for m in (r1_series(f), r2_series(f), hand_built):
        mask = m.defined_mask()
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = not mask[0]
    assert list(hand_built.defined_mask()[:4]) == [False, False, False, True]
    assert r2_series(f).undefined_dates == frozenset(f.dates)
    assert not r1_series(f).undefined_dates


def test_date_index_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        SPOT.ordinals[0] = 0


def test_series_compare_and_hash_by_identity():
    f = make_futures([1.0, 2.0], [5.0, 6.0])
    for make in (lambda: SpotPriceSeries(ES, f.dates, np.array([1.0, 2.0])),
                 lambda: make_futures([1.0, 2.0], [5.0, 6.0]),
                 lambda: MeasureSeries("C", "volume", f.dates, np.array([1.0, 2.0]))):
        a, b = make(), make()
        assert (a == b) is False
        assert a == a
        assert len({a, b, a}) == 2
