import math
from datetime import date

import numpy as np
import pytest

from powerauctions import (MeasureSeries, baseline_mean_excluding, event_study,
                           open_interest_series, r1_series, r2_series,
                           significance_tally, volume_series)
from powerauctions.activity import EventStudyResult

from conftest import daily_dates, make_futures


class TestRatios:
    def test_r1_basic(self):
        m = r1_series(make_futures([10, 0], [100, 50]))
        assert m.values[0] == pytest.approx(0.1)
        assert m.values[1] == 0.0
        assert not m.undefined_dates

    def test_r1_of_an_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty futures series"):
            r1_series(make_futures([], []))

    def test_r2_of_a_one_day_series_rejected(self):
        with pytest.raises(ValueError, match="at least 2 observations"):
            r2_series(make_futures([10], [100]))

    def test_r1_zero_open_interest_undefined(self):
        m = r1_series(make_futures([10, 5], [100, 0]))
        assert m.dates[1] in m.undefined_dates
        assert math.isnan(m.values[1])

    def test_r2_rising_and_falling_oi_symmetric(self):
        rising = r2_series(make_futures([5, 10], [100, 105]))
        falling = r2_series(make_futures([5, 10], [105, 100]))
        assert rising.values[1] == pytest.approx(2.0)
        assert falling.values[1] == pytest.approx(2.0)

    def test_r2_first_day_and_flat_oi_undefined(self):
        m = r2_series(make_futures([5, 10, 7], [100, 100, 103]))
        assert m.dates[0] in m.undefined_dates
        assert m.dates[1] in m.undefined_dates  # delta OI = 0
        assert m.values[2] == pytest.approx(7 / 3)

    def test_r2_invariant_under_oi_change_sign_flip(self, rng):
        oi = 500 + np.cumsum(rng.integers(-20, 21, size=60))
        vol = rng.integers(0, 100, size=60).astype(float)
        flipped_oi = oi[0] - np.cumsum(np.concatenate([[0], -np.diff(oi)]))
        a = r2_series(make_futures(vol, oi))
        b = r2_series(make_futures(vol, flipped_oi))
        np.testing.assert_allclose(a.values[2:], b.values[2:], rtol=1e-12)

    def test_volume_and_open_interest_passthrough(self):
        f = make_futures([1, 2, 3], [10, 20, 30])
        assert list(volume_series(f).values) == [1, 2, 3]
        assert list(open_interest_series(f).values) == [10, 20, 30]


class TestBaselineMean:
    def test_arithmetic_identity(self):
        # N=10 mean 5, excluded block of 2 with mean 8 -> remaining mean 4.25
        values = [8.0, 8.0] + [4.25] * 8
        m = MeasureSeries("C", "volume", daily_dates(date(2007, 1, 1), 10),
                          np.array(values))
        excluded = m.dates[:2]
        assert baseline_mean_excluding(m, excluded) == pytest.approx(4.25, abs=1e-12)

    def test_empty_exclusion_is_full_mean(self, rng):
        vals = rng.uniform(0, 10, size=25)
        m = MeasureSeries("C", "volume", daily_dates(date(2007, 1, 1), 25), vals)
        assert baseline_mean_excluding(m, []) == pytest.approx(vals.mean(), abs=1e-12)

    def test_identity_vs_direct_mean_randomized(self, rng):
        for _ in range(50):
            n = int(rng.integers(10, 120))
            vals = rng.uniform(-5, 50, size=n)
            dates = daily_dates(date(2007, 1, 1), n)
            m = MeasureSeries("C", "volume", dates, vals)
            k = int(rng.integers(0, n - 2))
            width = int(rng.integers(1, min(8, n - k)))
            excluded = set(dates[k:k + width])
            direct = np.mean([v for d, v in zip(dates, vals) if d not in excluded])
            got = baseline_mean_excluding(m, excluded)
            assert got == pytest.approx(direct, abs=1e-12)

    def test_all_excluded_rejected(self):
        m = MeasureSeries("C", "volume", daily_dates(date(2007, 1, 1), 4),
                          np.arange(4.0))
        with pytest.raises(ValueError):
            baseline_mean_excluding(m, m.dates)


def test_nan_values_are_the_undefined_days(rng):
    dates = daily_dates(date(2007, 1, 1), 60)
    values = rng.uniform(1.0, 10.0, 60)
    values[[3, 20, 21, 40]] = np.nan
    m = MeasureSeries("C", "volume", dates, values)
    assert m.undefined_dates == {dates[3], dates[20], dates[21], dates[40]}
    assert baseline_mean_excluding(m, dates[18:24]) == pytest.approx(
        np.nanmean(np.delete(values, range(18, 24))), abs=1e-12)
    by_offset = {r.offset: r for r in event_study(m, [dates[21], dates[41]], window=(-1, 1))}
    assert [by_offset[k].n_events for k in (-1, 0, 1)] == [0, 1, 2]
    assert by_offset[0].event_mean == values[41]
    assert by_offset[1].event_mean == pytest.approx((values[22] + values[42]) / 2)
    assert by_offset[0].baseline_mean == pytest.approx(
        np.nanmean(np.delete(values, [20, 21, 22, 40, 41, 42])), abs=1e-12)
    # only NaN is undefined: a ratio that overflowed to inf keeps its day
    inf_day = MeasureSeries("C", "R1", dates[:3], np.array([1.0, np.inf, np.nan]))
    assert inf_day.defined_mask().tolist() == [True, True, False]

def series_with_events(rng, n=400, n_events=8, level=100.0, noise=1.0,
                       spike_offsets=(), spike=0.0):
    dates = daily_dates(date(2007, 1, 3), n)
    values = level + noise * rng.standard_normal(n)
    positions = np.linspace(40, n - 40, n_events).astype(int)
    for p in positions:
        for k in spike_offsets:
            values[p + k] += spike
    events = [dates[p] for p in positions]
    return MeasureSeries("C", "volume", dates, values), events


class TestEventStudy:
    def test_constant_series_all_t_zero(self):
        dates = daily_dates(date(2007, 1, 1), 200)
        m = MeasureSeries("C", "volume", dates, np.full(200, 7.0))
        # one event takes the single-observation branch, two the two-sample one
        for events in ([dates[50], dates[120]], [dates[50]]):
            results = event_study(m, events)
            assert len(results) == 11
            assert all(r.t_stat == 0.0 and r.p_value == 1.0 for r in results)
            assert all(not r.sig01 and not r.sig05 for r in results)

    def test_offsets_cover_window_exactly(self, rng):
        m, events = series_with_events(rng)
        results = event_study(m, events, window=(-3, 2))
        assert [r.offset for r in results] == [-3, -2, -1, 0, 1, 2]

    def test_spike_detected_only_at_injected_offsets(self, rng):
        m, events = series_with_events(rng, spike_offsets=(-1, 0), spike=100.0,
                                       noise=2.0)
        results = event_study(m, events)
        for r in results:
            if r.offset in (-1, 0):
                assert r.sig01 and r.t_stat > 0
            else:
                assert not r.sig01

    def test_welch_matches_closed_form_oracle(self, rng):
        m, events = series_with_events(rng, n=300, n_events=6)
        results = event_study(m, events, window=(-2, 2))
        pos_of = {d: i for i, d in enumerate(m.dates)}
        excluded = set()
        for d in events:
            p = pos_of[d]
            excluded.update(range(p - 2, p + 3))
        baseline = np.array([v for i, v in enumerate(m.values) if i not in excluded])
        for r in results:
            sample = np.array([m.values[pos_of[d] + r.offset] for d in events])
            na, nb = sample.size, baseline.size
            sa, sb = sample.var(ddof=1) / na, baseline.var(ddof=1) / nb
            t = (sample.mean() - baseline.mean()) / math.sqrt(sa + sb)
            assert r.t_stat == pytest.approx(t, abs=1e-10)

    def test_event_not_in_calendar_rejected(self, rng):
        m, events = series_with_events(rng)
        with pytest.raises(ValueError, match="trading calendar"):
            event_study(m, [date(1999, 1, 1)])

    def test_unknown_variance_rejected(self, rng):
        m, events = series_with_events(rng)
        with pytest.raises(ValueError, match="unknown variance treatment 'student'"):
            event_study(m, events, variance="student")

    def test_no_events_rejected(self, rng):
        m, _ = series_with_events(rng)
        with pytest.raises(ValueError, match="no event dates"):
            event_study(m, [])

    def test_window_at_series_edge_drops_events(self, rng):
        dates = daily_dates(date(2007, 1, 1), 60)
        m = MeasureSeries("C", "volume", dates, rng.uniform(0, 1, 60))
        results = event_study(m, [dates[2], dates[30]], window=(-5, 5))
        by_offset = {r.offset: r for r in results}
        assert by_offset[-5].n_events == 1  # edge event dropped at k=-5
        assert by_offset[0].n_events == 2

    def test_pooled_variant_available(self, rng):
        m, events = series_with_events(rng)
        welch = event_study(m, events, variance="welch")
        pooled = event_study(m, events, variance="pooled")
        assert len(welch) == len(pooled)
        assert any(w.t_stat != p.t_stat for w, p in zip(welch, pooled))

    def test_undefined_days_excluded(self, rng):
        # R2-style undefined day right on an event date offset
        f = make_futures(rng.integers(1, 50, 100).astype(float),
                         np.full(100, 500.0))  # flat OI: everything undefined
        m = r2_series(f)
        with pytest.raises(ValueError, match="baseline"):
            event_study(m, [m.dates[50]])


def result(offset, t, p):
    return EventStudyResult(offset=offset, event_mean=0.0, baseline_mean=0.0,
                            n_events=5, t_stat=t, p_value=p,
                            sig01=p < 0.01, sig05=p < 0.05)


class TestSignificanceTally:
    def test_all_zero(self):
        tally = significance_tally([result(k, 0.0, 1.0) for k in range(-5, 6)])
        assert (tally.significant_positive, tally.significant_negative) == (0, 0)
        assert tally.total == 11
        assert tally.verdict == "inconclusive"

    def test_hedging_dominant_fixture_shape(self):
        results = ([result(0, -4.0, 0.001)] * 91 + [result(0, 4.0, 0.001)] * 3 +
                   [result(0, 0.5, 0.6)] * 82)
        tally = significance_tally(results)
        assert tally.total == 176
        assert tally.significant_negative == 91
        assert tally.significant_positive == 3
        assert tally.verdict == "hedging-dominant"

    def test_single_positive(self):
        tally = significance_tally([result(0, 5.0, 0.0001)])
        assert tally.verdict == "speculation-dominant"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            significance_tally([])

    @pytest.mark.parametrize("alpha", [float("nan"), 0.0, 1.0, -0.05, 1.5, float("inf")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            significance_tally([result(0, 5.0, 0.0001)], alpha=alpha)


@pytest.mark.parametrize("build, message", [
    (lambda: MeasureSeries("A", "R3", daily_dates(date(2007, 1, 1), 1), np.ones(1)),
     "unknown measure kind 'R3'"),
    (lambda: MeasureSeries("A", "R1", daily_dates(date(2007, 1, 1), 2), np.ones(1)),
     "dates and values length mismatch"),
    (lambda: event_study(volume_series(make_futures([1] * 20, [10] * 20)), [date(2007, 1, 10)],
                         window=(2, -2)),
     "window lower bound exceeds upper bound"),
], ids=["unknown_kind", "length_mismatch", "reversed_window"])
def test_measure_and_event_study_checks(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
