"""Acceptance suite: one test per release criterion, one printed line each."""

import math
import sys
from contextlib import contextmanager
from datetime import date

import numpy as np
import pytest

from powerauctions import (ClockAuctionConfig, ConstantSupply, FmpiSpec,
                           MeasureSeries, PremiumRow,
                           StochasticShrink, ThresholdExit,
                           baseline_mean_excluding, cesur_premium,
                           distribution_stats, equality_of_means, event_study,
                           fit_pooled_ols, fmpi_premium, fmpi_strip,
                           fmpi_weights, pjm_premium, run_descending_clock,
                           yearly_aggregate)
from powerauctions.datasets import (CESUR_AUCTIONS, CESUR_GRAND_AVERAGE,
                                    CESUR_YEARLY_AVERAGES, PJM_AUCTIONS,
                                    PJM_TOTAL_AVERAGE, PJM_ZONE_AVERAGES)

import conftest
from conftest import daily_dates
from test_panel import ols_oracle, oracle_panels


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        _report(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    _report(f"ACCEPTANCE {number} PASS: {description}")


def _report(line):
    print(line, file=sys.__stderr__)
    conftest.acceptance_lines.append(line)


def test_criterion_1_cesur_table_reproduction():
    with criterion(1, "CESUR table: 28 rows, yearly and grand averages"):
        rows = []
        for a in CESUR_AUCTIONS:
            premium, pct = cesur_premium(a.price, a.spot_avg)
            assert premium == pytest.approx(a.premium, abs=0.01), a.label
            assert pct * 100 == pytest.approx(a.premium_pct, abs=0.02), a.label
            f_prem, f_pct = fmpi_premium(a.price, 0.0, a.fmpi)
            assert f_prem == pytest.approx(a.fmpi_premium, abs=0.01), a.label
            assert f_pct * 100 == pytest.approx(a.fmpi_premium_pct, abs=0.02), a.label
            rows.append(PremiumRow(auction_ref=a.label, group=a.auction_date[:4],
                                   auction_price=a.price, spot_avg=a.spot_avg,
                                   costs=0.0, premium=premium, premium_pct=pct,
                                   fmpi=a.fmpi, fmpi_premium=f_prem,
                                   fmpi_premium_pct=f_pct))
        agg = yearly_aggregate(rows)
        for year, (price, spot, prem, pct, f_prem, f_pct) in CESUR_YEARLY_AVERAGES.items():
            g = agg.groups[str(year)]
            assert g["auction_price"] == pytest.approx(price, abs=0.05), year
            assert g["premium"] == pytest.approx(prem, abs=0.05), year
            assert g["premium_pct"] * 100 == pytest.approx(pct, abs=0.05), year
            assert g["fmpi_premium_pct"] * 100 == pytest.approx(f_pct, abs=0.05), year
        assert agg.grand["premium_pct"] * 100 == pytest.approx(7.22, abs=0.05)
        assert agg.grand["fmpi_premium_pct"] * 100 == pytest.approx(1.08, abs=0.05)
        assert agg.grand["premium"] == pytest.approx(CESUR_GRAND_AVERAGE[2], abs=0.05)


def test_criterion_2_pjm_table_reproduction():
    with criterion(2, "PJM table: 28 rows, zone averages and totals"):
        rows = []
        for a in PJM_AUCTIONS:
            premium, pct = pjm_premium(a.avg_price, a.costs, a.spot_avg)
            assert premium == pytest.approx(a.premium, abs=0.01), (a.year, a.zone)
            assert pct * 100 == pytest.approx(a.premium_pct, abs=0.05), (a.year, a.zone)
            f_prem, f_pct = fmpi_premium(a.bgsfp_price, a.costs, a.fmpi)
            assert f_prem == pytest.approx(a.fmpi_premium, abs=0.01), (a.year, a.zone)
            assert f_pct * 100 == pytest.approx(a.fmpi_premium_pct, abs=0.05), (a.year, a.zone)
            rows.append(PremiumRow(auction_ref=f"{a.year}-{a.zone}", group=a.zone,
                                   auction_price=a.avg_price, spot_avg=a.spot_avg,
                                   costs=a.costs, premium=premium, premium_pct=pct,
                                   fmpi=a.fmpi, fmpi_premium=f_prem,
                                   fmpi_premium_pct=f_pct))
        agg = yearly_aggregate(rows)
        for zone, (prem, pct, f_prem, f_pct) in PJM_ZONE_AVERAGES.items():
            g = agg.groups[zone]
            assert g["premium"] == pytest.approx(prem, abs=0.05), zone
            assert g["fmpi_premium_pct"] * 100 == pytest.approx(f_pct, abs=0.05), zone
        assert agg.grand["premium"] == pytest.approx(PJM_TOTAL_AVERAGE[0], abs=0.05)
        assert agg.grand["fmpi_premium"] == pytest.approx(PJM_TOTAL_AVERAGE[2], abs=0.05)


def test_criterion_3_zone_equality_of_means():
    with criterion(3, "zone mean tests: ex-post premium never rejected, RECO index premium rejected"):
        epfp = {}
        fmpi_prem = {}
        for a in PJM_AUCTIONS:
            epfp.setdefault(a.zone, []).append(a.premium)
            fmpi_prem.setdefault(a.zone, []).append(a.fmpi_premium)
        assert not any(c.rejected(0.05) for c in equality_of_means(epfp))
        reco_pairs = [c for c in equality_of_means(fmpi_prem)
                      if "RECO" in (c.label_a, c.label_b)]
        assert any(c.rejected(0.05) for c in reco_pairs)


def test_criterion_4_strip_index_properties(rng):
    with criterion(4, "futures-strip index: mean reduction, constancy, shift, weight order"):
        prices = rng.uniform(20, 90, size=36)
        assert fmpi_strip(FmpiSpec(tuple(prices), 0.0)) == pytest.approx(prices.mean(), abs=1e-12)
        for r in (0.0, 0.05, 0.25):
            assert fmpi_strip(FmpiSpec((55.5,) * 36, r)) == pytest.approx(55.5, abs=1e-12)
            base = fmpi_strip(FmpiSpec(tuple(prices), r))
            shifted = fmpi_strip(FmpiSpec(tuple(prices + 7.5), r))
            assert shifted == pytest.approx(base + 7.5, abs=1e-9)
        for r in (0.01, 0.12, 0.4):
            g = fmpi_weights(r)
            assert np.all(np.diff(g) < 0)
            assert g.sum() == pytest.approx(1.0, abs=1e-12)


def test_criterion_5_baseline_mean_identity(rng):
    with criterion(5, "excluded-baseline mean identity on 1000 randomized cases"):
        start = date(2007, 1, 1)
        for _ in range(1000):
            n = int(rng.integers(8, 150))
            vals = rng.uniform(-100, 100, size=n)
            dates = daily_dates(start, n)
            m = MeasureSeries("C", "volume", dates, vals)
            k = int(rng.integers(0, n - 3))
            width = int(rng.integers(0, min(10, n - 2 - k)))
            excluded = set(dates[k:k + width])
            keep = [v for d, v in zip(dates, vals) if d not in excluded]
            direct = float(np.mean(keep))
            got = baseline_mean_excluding(m, excluded)
            assert abs(got - direct) < 1e-12 * max(1.0, abs(direct))


def test_criterion_6_event_study_power_and_false_positive_rate():
    with criterion(6, "event study: spikes found at injected offsets, ~1% false positives"):
        rng = np.random.default_rng(5)
        n, n_events, reps = 260, 12, 10_000
        dates = daily_dates(date(2007, 1, 2), n)
        positions = np.linspace(20, n - 20, n_events).astype(int)
        events = [dates[p] for p in positions]
        injected = (-1, 0)
        other_offsets = [k for k in range(-5, 6) if k not in injected]
        false_positives = 0
        draws = 0
        for _ in range(reps):
            vals = 100.0 + rng.standard_normal(n)
            for p in positions:
                for k in injected:
                    vals[p + k] += 50.0
            m = MeasureSeries("C", "volume", dates, vals)
            by_offset = {r.offset: r for r in event_study(m, events)}
            for k in injected:
                assert by_offset[k].sig01 and by_offset[k].t_stat > 0
            for k in other_offsets:
                draws += 1
                if by_offset[k].sig01:
                    false_positives += 1
        rate = false_positives / draws
        assert 0.005 <= rate <= 0.015, f"false-positive rate {rate:.4f}"


def test_criterion_7_ols_oracle_equivalence():
    with criterion(7, "pooled OLS vs normal-equations sandwich oracle, 100 panels"):
        for trial, panel, covs, use_fe in oracle_panels():
            res = fit_pooled_ols(panel, covs, period_fixed_effects=use_fe)
            beta, se, rss = ols_oracle(panel, covs, use_fe)
            got_beta = np.array([c.estimate for c in res.coefficients])
            got_se = np.array([c.std_error for c in res.coefficients])
            np.testing.assert_allclose(got_beta, beta, rtol=1e-10, err_msg=str(trial))
            # absolute floor covers rank-deficient cases (few clusters) where a
            # diagonal entry of the sandwich is zero up to round-off
            np.testing.assert_allclose(got_se, se, rtol=1e-10,
                                       atol=1e-7 * float(se.max()),
                                       err_msg=str(trial))
            assert res.rss == pytest.approx(rss, rel=1e-10)
            y = np.array([o.y for o in panel])
            tss = float(((y - y.mean()) ** 2).sum())
            assert res.r_squared == pytest.approx(1 - rss / tss, rel=1e-10)
            assert res.rmse == pytest.approx(math.sqrt(rss / (res.n - res.k)), rel=1e-10)


def test_criterion_8_auction_engine_invariants():
    with criterion(8, "clock auction: conservation, monotonicity, exit, determinism"):
        # the three worked examples, against their hand-simulated oracles
        cfg = ClockAuctionConfig(target_quantity=10, opening_price=100, price_decrement=10)
        out = run_descending_clock(cfg, [ConstantSupply(5), ConstantSupply(5)], ["A", "B"])
        assert (out.clearing_price, out.rounds_used) == (100, 1)
        assert out.awards == {"A": 5, "B": 5}

        out = run_descending_clock(cfg, [ConstantSupply(10), ThresholdExit(10, 80)], ["A", "B"])
        assert (out.clearing_price, out.rounds_used) == (70, 4)
        assert out.awards == {"A": 10}

        out = run_descending_clock(cfg, [ThresholdExit(6, 80, below_quantity=4),
                                         ThresholdExit(6, 80, below_quantity=2)], ["A", "B"])
        assert out.clearing_price == 80
        assert out.awards["A"] == pytest.approx(16 / 3, abs=1e-12)
        assert out.awards["B"] == pytest.approx(14 / 3, abs=1e-12)

        # randomized strategy populations
        seed_rng = np.random.default_rng(8)
        for run in range(1000):
            n = int(seed_rng.integers(2, 8))
            seeds = [int(seed_rng.integers(1 << 31)) for _ in range(n)]
            quantities = seed_rng.uniform(1, 10, size=n)
            lows = seed_rng.uniform(0.2, 0.95, size=n)
            target = float(seed_rng.uniform(1.0, quantities.sum() * 0.9))
            policy = ("previous_price_prorata",
                      "previous_price_priority")[int(seed_rng.integers(2))]

            def build():
                return [StochasticShrink(float(q), low=float(l),
                                         rng=np.random.default_rng(s))
                        for q, l, s in zip(quantities, lows, seeds)]

            cfg = ClockAuctionConfig(target_quantity=target, opening_price=100,
                                     price_decrement=1, max_rounds=500,
                                     undershoot_policy=policy)
            out = run_descending_clock(cfg, build())
            again = run_descending_clock(cfg, build())
            assert out.awards == again.awards and out.round_log == again.round_log
            assert math.isclose(sum(out.awards.values()), target, abs_tol=1e-9)
            prices = [e.announced_price for e in out.round_log]
            assert all(b < a for a, b in zip(prices, prices[1:]))
            for bidder in out.round_log[0].offers:
                offers = [e.offers[bidder] for e in out.round_log]
                assert all(o2 <= o1 + 1e-12 for o1, o2 in zip(offers, offers[1:]))
                if 0.0 in offers:
                    first_zero = offers.index(0.0)
                    assert all(o == 0.0 for o in offers[first_zero:])


def test_criterion_9_moment_statistics():
    with criterion(9, "moment statistics: exact two-point values, seeded normal bands"):
        values = [9.0, 11.0] * 10  # symmetric two-point series around 10
        st = distribution_stats(values)
        assert st.skewness == pytest.approx(0.0, abs=1e-12)
        assert st.kurtosis == pytest.approx(1.0, abs=1e-12)
        n = len(values)
        assert st.jarque_bera == pytest.approx(n / 6 * ((1 - 3) ** 2 / 4), abs=1e-9)

        rng = np.random.default_rng(9)
        x = rng.standard_normal(100_000) + 3.0
        st = distribution_stats(x)
        assert abs(st.skewness) < 0.03
        assert st.kurtosis == pytest.approx(3.0, abs=0.06)
        assert st.coefficient_of_variation == pytest.approx(1 / 3, abs=0.01)
        assert st.jarque_bera < 12.0
