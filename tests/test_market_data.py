import copy
import csv
import inspect
import io
import pickle
import re
import tempfile
import warnings
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerauctions import (DeliveryPeriod, FuturesContractSeries, MarketDataError,
                           MarketZone, SpotPriceSeries, average_price, load_auctions_csv,
                           load_costs_csv, load_futures_csv, load_spot_csv_multi)
from powerauctions import (MeasureSeries, event_study, market_data, r1_series,
                           r2_series, volume_series)
from powerauctions.market_data import (_Calendar, write_auctions_csv, write_costs_csv,
                                       write_futures_csv, write_spot_csv)

from conftest import make_spot

ES = MarketZone("OMEL", "ES")


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestZones:
    def test_valid_zones(self):
        zones = [MarketZone(market, zone) for market, zones in market_data.MARKET_ZONES.items()
                 for zone in sorted(zones)]
        assert [(z.market, z.zone) for z in zones] == [
            ("OMEL", "ES"), ("PJM", "ACE"), ("PJM", "JCPL"), ("PJM", "PSEG"), ("PJM", "RECO")]

    def test_zone_must_match_market(self):
        with pytest.raises(MarketDataError):
            MarketZone("OMEL", "ACE")
        with pytest.raises(MarketDataError):
            MarketZone("NORDPOOL", "NO1")


class TestSpotLoader:
    def test_three_line_file(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "market,zone,date,price\n"
                  "OMEL,ES,2007-01-01,30\nOMEL,ES,2007-01-02,31\nOMEL,ES,2007-01-03,32\n")
        series = load_spot_csv_multi(p)[ES]
        assert len(series) == 3
        assert list(series.prices) == [30.0, 31.0, 32.0]

    def test_duplicate_date_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "market,zone,date,price\n"
                  "OMEL,ES,2007-01-01,30\nOMEL,ES,2007-01-01,31\n")
        with pytest.raises(MarketDataError, match="duplicate date"):
            load_spot_csv_multi(p)

    def test_non_monotone_dates_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "market,zone,date,price\n"
                  "OMEL,ES,2007-01-02,30\nOMEL,ES,2007-01-01,31\n")
        with pytest.raises(MarketDataError, match="non-monotone"):
            load_spot_csv_multi(p)

    def test_empty_data_section_warns(self, tmp_path):
        p = write(tmp_path / "s.csv", "market,zone,date,price\n")
        with pytest.warns(UserWarning, match="no data rows"):
            assert load_spot_csv_multi(p) == {}

    def test_malformed_row_reports_line(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "market,zone,date,price\nOMEL,ES,2007-01-01,30\nOMEL,ES,2007-01-02,oops\n")
        with pytest.raises(MarketDataError, match="line 3"):
            load_spot_csv_multi(p)

    def test_wrong_header_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "date,price\n2007-01-01,30\n")
        with pytest.raises(MarketDataError, match="header"):
            load_spot_csv_multi(p)

    def test_no_silent_drops(self, tmp_path):
        lines = [f"OMEL,ES,2007-01-{d:02d},{20 + d}" for d in range(1, 29)]
        p = write(tmp_path / "s.csv", "market,zone,date,price\n" + "\n".join(lines) + "\n")
        assert len(load_spot_csv_multi(p)[ES]) == len(lines)


class TestFuturesLoader:
    def test_negative_volume_rejected(self, tmp_path):
        p = write(tmp_path / "f.csv",
                  "contract_id,market,zone,date,settle,volume,open_interest\n"
                  "FTBQ-1,OMEL,ES,2007-01-01,50,-3,100\n")
        with pytest.raises(MarketDataError, match="negative volume"):
            load_futures_csv(p)

    def test_negative_open_interest_rejected(self, tmp_path):
        p = write(tmp_path / "f.csv",
                  "contract_id,market,zone,date,settle,volume,open_interest\n"
                  "FTBQ-1,OMEL,ES,2007-01-01,50,3,-1\n")
        with pytest.raises(MarketDataError, match="negative open interest"):
            load_futures_csv(p)

    def test_groups_by_contract(self, tmp_path):
        p = write(tmp_path / "f.csv",
                  "contract_id,market,zone,date,settle,volume,open_interest\n"
                  "A,OMEL,ES,2007-01-01,50,1,10\n"
                  "B,OMEL,ES,2007-01-01,51,2,20\n"
                  "A,OMEL,ES,2007-01-02,52,3,30\n")
        series = load_futures_csv(p)
        assert [s.contract_id for s in series] == ["A", "B"]
        assert len(series[0]) == 2 and len(series[1]) == 1

    HEADER = "contract_id,market,zone,date,settle,volume,open_interest\n"

    def test_interleaved_contracts_keep_file_order(self, tmp_path):
        p = write(tmp_path / "f.csv", self.HEADER +
                  "B,PJM,ACE,2007-01-01,51,2,20\nA,OMEL,ES,2007-01-01,50,1,10\n"
                  "B,PJM,ACE,2007-01-03,53,4,40\nA,OMEL,ES,2007-01-02,52,3,30\n")
        b, a = load_futures_csv(p)
        assert (b.contract_id, b.zone, a.contract_id, a.zone) == ("B", MarketZone("PJM", "ACE"),
                                                                 "A", ES)
        assert b.dates == (date(2007, 1, 1), date(2007, 1, 3))
        assert b.settle.tolist() == [51.0, 53.0] and a.open_interest.tolist() == [10.0, 30.0]

    def test_zone_change_reports_first_line(self, tmp_path):
        # B's change on line 5 comes before A's on line 6
        p = write(tmp_path / "f.csv", self.HEADER +
                  "A,OMEL,ES,2007-01-01,50,1,10\nB,OMEL,ES,2007-01-01,50,1,10\n"
                  "A,OMEL,ES,2007-01-02,50,1,10\nB,PJM,ACE,2007-01-02,50,1,10\n"
                  "A,PJM,ACE,2007-01-03,50,1,10\n")
        with pytest.raises(MarketDataError, match="line 5: contract B changes zone"):
            load_futures_csv(p)

    def test_contracts_on_one_calendar_share_their_index(self, tmp_path):
        rows = [f"{c},OMEL,ES,2007-01-0{d},50,1,10\n" for c in "ABC" for d in (1, 2, 4)]
        rows[-1] = "C,OMEL,ES,2007-01-05,50,1,10\n"
        a, b, c = load_futures_csv(write(tmp_path / "f.csv", self.HEADER + "".join(rows)))
        assert a.ordinals is b.ordinals and a.dates is b.dates
        assert c.ordinals is not a.ordinals
        assert c.ordinals.tolist() == [d.toordinal() for d in c.dates]
        assert not a.ordinals.flags.writeable

    def test_shared_index_still_checks_order(self, tmp_path):
        p = write(tmp_path / "f.csv", self.HEADER +
                  "A,OMEL,ES,2007-01-02,50,1,10\nA,OMEL,ES,2007-01-01,50,1,10\n"
                  "B,OMEL,ES,2007-01-02,50,1,10\nB,OMEL,ES,2007-01-01,50,1,10\n")
        with pytest.raises(MarketDataError, match="non-monotone dates in futures A"):
            load_futures_csv(p)


# --- calendars: the dates carry their own index --------------------------------

JAN_1_2_4 = [date(2007, 1, 1), date(2007, 1, 2), date(2007, 1, 4)]


def test_series_on_one_calendar_share_its_index():
    f = FuturesContractSeries("A", ES, JAN_1_2_4, np.ones(3), np.ones(3), np.ones(3))
    assert r1_series(f).ordinals is f.ordinals
    assert MeasureSeries("A", "volume", f.dates, np.ones(3)).ordinals is f.ordinals
    spot = SpotPriceSeries(ES, JAN_1_2_4, np.ones(3))
    assert SpotPriceSeries(ES, spot.dates, np.zeros(3)).ordinals is spot.ordinals
    assert f.ordinals is not spot.ordinals
    assert f.ordinals.tolist() == [d.toordinal() for d in JAN_1_2_4]


def test_no_constructor_takes_an_index():
    params = {cls: list(inspect.signature(cls).parameters) for cls in
              (SpotPriceSeries, FuturesContractSeries, MeasureSeries)}
    assert params == {
        SpotPriceSeries: ["zone", "dates", "prices"],
        FuturesContractSeries: ["contract_id", "zone", "dates", "settle", "volume",
                                "open_interest"],
        MeasureSeries: ["contract_id", "measure_kind", "dates", "values"],
    }


@pytest.mark.parametrize("make", [
    lambda days: SpotPriceSeries(ES, days, np.array([1.0, 2.0, 3.0])),
    lambda days: FuturesContractSeries("A", ES, days, np.ones(3), np.ones(3), np.ones(3)),
    lambda days: MeasureSeries("A", "volume", days, np.array([1.0, 2.0, 3.0])),
], ids=["spot", "futures", "measure"])
def test_dates_given_as_a_list_are_kept_as_a_tuple(make):
    days = list(JAN_1_2_4)
    series = make(days)
    days[1] = date(2007, 1, 9)
    assert isinstance(series.dates, tuple)
    assert series.dates == tuple(JAN_1_2_4)
    assert series.ordinals.tolist() == [d.toordinal() for d in JAN_1_2_4]
    if isinstance(series, SpotPriceSeries):
        assert average_price(series, DeliveryPeriod(date(2007, 1, 2), date(2007, 1, 2))) == 2.0
        with pytest.raises(MarketDataError, match="missing 1 day.*first 2007-01-09"):
            average_price(series, DeliveryPeriod(date(2007, 1, 9), date(2007, 1, 9)))
    else:
        measure = series if isinstance(series, MeasureSeries) else volume_series(series)
        assert event_study(measure, [date(2007, 1, 2)], window=(0, 0))[0].n_events == 1
        for absent in (date(2007, 1, 3), date(2007, 1, 9)):
            with pytest.raises(ValueError, match=f"event date {absent} not in the series"):
                event_study(measure, [absent], window=(0, 0))


ON_A_CALENDAR = {
    "spot": lambda cal: SpotPriceSeries(ES, cal, np.array([1.0, 2.0, 3.0])),
    "futures": lambda cal: FuturesContractSeries("A", ES, cal, np.ones(3), np.ones(3),
                                                 np.array([5.0, 5.0, 7.0])),
    "measure": lambda cal: r2_series(ON_A_CALENDAR["futures"](cal)),  # NaN on days 0 and 1
    "calendar": lambda cal: cal,
}


@pytest.mark.parametrize("make", ON_A_CALENDAR.values(), ids=list(ON_A_CALENDAR))
def test_copies_and_pickles_are_rebuilt_frozen(make):
    cal = _Calendar(JAN_1_2_4)
    original = make(cal)
    for twin in (copy.copy(original), copy.deepcopy(original),
                 pickle.loads(pickle.dumps(original))):
        assert type(twin) is type(original)
        assert tuple(getattr(twin, "dates", twin)) == tuple(JAN_1_2_4)
        np.testing.assert_equal(vars(twin), vars(original))
        arrays = [a for a in vars(twin).values() if isinstance(a, np.ndarray)]
        for a in arrays + [twin.ordinals]:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
    a, b = pickle.loads(pickle.dumps((make(cal), make(cal))))
    assert a.ordinals is b.ordinals


# CESUR session 4 sold two products: one row each, sharing the auction_id
TWO_PRODUCT_SESSION = ("OMEL,4,2008-03-13,Q2-08,2008-04-01,2008-06-30,baseload,fixed_quantity,"
                       "63.36,1800,29,14,22\n"
                       "OMEL,4,2008-03-13,Q2Q3-08,2008-04-01,2008-09-30,baseload,fixed_quantity,"
                       "63.73,1200,29,14,22\n")


class TestAuctionsLoader:
    HEADER = ("market,auction_id,auction_date,product_id,delivery_start,delivery_end,"
              "load_shape,product_kind,clearing_price,quantity,start_bidders,"
              "winning_bidders,rounds\n")

    def test_session_of_two_products_is_two_rows(self, tmp_path):
        p = write(tmp_path / "a.csv", self.HEADER + TWO_PRODUCT_SESSION)
        records = load_auctions_csv(p)
        assert [(r.auction_id, r.product_id) for r in records] == [(4, "Q2-08"), (4, "Q2Q3-08")]
        assert records[1].delivery == DeliveryPeriod(date(2008, 4, 1), date(2008, 9, 30))
        assert (records[0].clearing_price, records[1].clearing_price) == (63.36, 63.73)
        assert records[0].start_bidders == records[1].start_bidders == 29

    def test_product_kind_cross_checked_against_market(self, tmp_path):
        p = write(tmp_path / "a.csv", self.HEADER +
                  "OMEL,1,2007-06-19,Q3-07,2007-07-01,2007-09-30,baseload,"
                  "full_requirements,46.27,1000,30,15,23\n")
        with pytest.raises(MarketDataError, match="product kind"):
            load_auctions_csv(p)

    def test_auction_date_must_precede_delivery(self, tmp_path):
        p = write(tmp_path / "a.csv", self.HEADER +
                  "OMEL,1,2007-08-19,Q3-07,2007-07-01,2007-09-30,baseload,"
                  "fixed_quantity,46.27,1000,30,15,23\n")
        with pytest.raises(MarketDataError, match="not before delivery"):
            load_auctions_csv(p)

    def test_record_error_names_its_line(self, tmp_path):
        # the record's own reason, once with no file or line
        p = write(tmp_path / "a.csv", self.HEADER +
                  "OMEL,1,2007-06-19,Q3-07,2007-07-01,2007-09-30,baseload,"
                  "fixed_quantity,46.27,1000,30,15,23\n"
                  "OMEL,2,2007-09-18,Q4-07,2007-10-01,2007-12-31,baseload,"
                  "fixed_quantity,-1,1000,30,15,23\n")
        with pytest.raises(MarketDataError) as exc:
            load_auctions_csv(p)
        assert str(exc.value) == f"{p} line 3: clearing price must be positive, got -1.0"

    @pytest.mark.parametrize("market, kind, expected", [
        ("PJM", "fixed_quantity", "full_requirements"),
        ("OMEL", "full_requirements", "fixed_quantity")])
    def test_record_owns_the_product_kind_rule(self, market, kind, expected):
        from powerauctions import AuctionRecord
        with pytest.raises(MarketDataError) as exc:
            AuctionRecord(market=market, auction_id=1, auction_date=date(2007, 2, 5),
                          product_id="ACE-2007",
                          delivery=DeliveryPeriod(date(2007, 6, 1), date(2008, 5, 31)),
                          clearing_price=99.59, quantity=1000.0, product_kind=kind,
                          start_bidders=30, winning_bidders=15, rounds=23)
        assert str(exc.value) == f"market {market} expects product kind {expected}"


class TestCostsLoader:
    def test_costs_file(self, tmp_path):
        p = write(tmp_path / "c.csv", "market,zone,year,unit_cost\nPJM,ACE,2007,11.34\n")
        costs = load_costs_csv(p)
        assert costs[0].unit_cost == 11.34
        assert costs[0].zone == MarketZone("PJM", "ACE")

    def test_duplicate_key_rejected(self, tmp_path):
        p = write(tmp_path / "c.csv",
                  "market,zone,year,unit_cost\nPJM,ACE,2007,11.34\nPJM,ACE,2007,12\n")
        with pytest.raises(MarketDataError, match="duplicate"):
            load_costs_csv(p)

    @pytest.mark.parametrize("row, reason", [
        ("PJM,XYZ,2008,12", "zone 'XYZ' does not belong to market 'PJM'"),
        ("PJM,JCPL,2008,-1", "unit cost must be non-negative, got -1.0")])
    def test_bad_row_names_its_line(self, tmp_path, row, reason):
        p = write(tmp_path / "c.csv", f"market,zone,year,unit_cost\nPJM,ACE,2007,11.34\n{row}\n")
        with pytest.raises(MarketDataError) as exc:
            load_costs_csv(p)
        assert str(exc.value) == f"{p} line 3: {reason}"


class TestRoundTrip:
    def test_spot_round_trip(self, tmp_path):
        series = make_spot([30.5, 31.25, 29.875])
        path = tmp_path / "out.csv"
        write_spot_csv(path, series)
        back = load_spot_csv_multi(path)[ES]
        assert back.dates == series.dates
        np.testing.assert_array_equal(back.prices, series.prices)

    def test_futures_round_trip(self, tmp_path):
        from conftest import make_futures
        series = make_futures([1, 2, 3], [10, 12, 11], settle=[50.5, 51.0, 49.75])
        path = tmp_path / "out.csv"
        write_futures_csv(path, [series])
        back = load_futures_csv(path)[0]
        assert back.dates == series.dates
        np.testing.assert_array_equal(back.settle, series.settle)
        np.testing.assert_array_equal(back.volume, series.volume)
        np.testing.assert_array_equal(back.open_interest, series.open_interest)

    def test_auctions_round_trip(self, tmp_path):
        from powerauctions import AuctionRecord
        rec = AuctionRecord(market="OMEL", auction_id=1, auction_date=date(2007, 6, 19),
                            product_id="Q3-07",
                            delivery=DeliveryPeriod(date(2007, 7, 1), date(2007, 9, 30)),
                            clearing_price=46.27, quantity=1000.0,
                            product_kind="fixed_quantity", start_bidders=30,
                            winning_bidders=15, rounds=23)
        path = tmp_path / "out.csv"
        write_auctions_csv(path, [rec])
        assert load_auctions_csv(path) == [rec]

    def test_costs_round_trip(self, tmp_path):
        from powerauctions import CostComponents
        costs = [CostComponents(zone=MarketZone("PJM", "RECO"), year=2009, unit_cost=17.44)]
        path = tmp_path / "out.csv"
        write_costs_csv(path, costs)
        assert load_costs_csv(path) == costs


class TestAveragePrice:
    def test_three_day_mean(self):
        series = make_spot([10, 20, 30])
        period = DeliveryPeriod(date(2007, 1, 1), date(2007, 1, 3))
        assert average_price(series, period) == 20.0

    def test_single_day(self):
        series = make_spot([10, 20, 30])
        period = DeliveryPeriod(date(2007, 1, 2), date(2007, 1, 2))
        assert average_price(series, period) == 20.0

    def test_constant_series_any_period(self):
        series = make_spot([42.5] * 30)
        period = DeliveryPeriod(date(2007, 1, 5), date(2007, 1, 25))
        assert average_price(series, period) == 42.5

    def test_strict_mode_rejects_missing_days(self):
        series = make_spot([10, 20, 30])
        period = DeliveryPeriod(date(2007, 1, 1), date(2007, 1, 5))
        with pytest.raises(MarketDataError, match="missing"):
            average_price(series, period)

    def test_available_mode_uses_present_days(self):
        series = make_spot([10, 20, 30])
        period = DeliveryPeriod(date(2007, 1, 1), date(2007, 1, 5))
        assert average_price(series, period, mode="available") == 20.0


@pytest.mark.parametrize("shape", ["peak", "offpeak"])
def test_daily_prices_price_only_baseload_periods(shape):
    # a day's price covers its 24 hours: it gives no peak or off-peak average
    # and no CfD flow of such a product
    from powerauctions import settle_cfd
    series = make_spot([10, 20, 30])
    period = DeliveryPeriod(date(2007, 1, 1), date(2007, 1, 3), load_shape=shape)
    message = f"daily spot prices cannot price a {shape} delivery period"
    for price in (lambda: average_price(series, period),
                  lambda: average_price(series, period, mode="available"),
                  lambda: settle_cfd(50.0, series, period, 1.0)):
        with pytest.raises(MarketDataError) as exc:
            price()
        assert str(exc.value) == message


SERIES_ARRAYS = {
    "spot": (lambda a: SpotPriceSeries(ES, JAN_1_2_4, a), ["prices"]),
    "futures": (lambda a: FuturesContractSeries("A", ES, JAN_1_2_4, a, a, a),
                ["settle", "volume", "open_interest"]),
    "measure": (lambda a: MeasureSeries("A", "volume", JAN_1_2_4, a), ["values"]),
}


@pytest.mark.parametrize("name", SERIES_ARRAYS)
def test_series_copy_a_writeable_array_and_keep_a_read_only_one(name):
    make, fields = SERIES_ARRAYS[name]
    caller = np.array([1.0, 2.0, 3.0])
    series = make(caller)
    caller[0] = 9.0  # the caller's array stays writeable, and the series does not see this
    for field in fields:
        kept = getattr(series, field)
        assert kept.tolist() == [1.0, 2.0, 3.0] and not kept.flags.writeable
    frozen = np.array([1.0, 2.0, 3.0])
    frozen.setflags(write=False)
    assert all(getattr(make(frozen), field) is frozen for field in fields)


def test_loaders_and_ratios_hand_series_arrays_they_keep(tmp_path):
    # the loaders' arrays are views of one parsed column, and r1/r2 values
    # are fresh: each is read-only before its series is built, so none is copied
    p = write(tmp_path / "f.csv", TestFuturesLoader.HEADER +
              "B,OMEL,ES,2007-01-01,51,2,20\nA,OMEL,ES,2007-01-01,50,1,10\n"
              "B,OMEL,ES,2007-01-02,53,4,40\nA,OMEL,ES,2007-01-02,52,3,30\n")
    b, a = load_futures_csv(p)
    assert a.settle.base is not None and a.settle.base is b.settle.base
    assert volume_series(a).values is a.volume
    from powerauctions import activity
    with mock.patch.object(activity, "_read_only", side_effect=market_data._read_only) as spy:
        ratios = [r1_series(a), r2_series(a)]
    assert spy.call_count == 2 and all(m.values is call.args[0] for m, call in zip(ratios, spy.call_args_list))
    spot = load_spot_csv_multi(write(tmp_path / "s.csv", "market,zone,date,price\n"
                                     "PJM,ACE,2007-01-01,30\nOMEL,ES,2007-01-01,31\n"))
    prices = [s.prices for s in spot.values()]
    assert prices[0].base is not None and prices[0].base is prices[1].base


_DAY = date(2007, 1, 1)


def _auction(**fields):
    """An OMEL AuctionRecord that passes every check, with ``fields`` changed."""
    from powerauctions import AuctionRecord
    return AuctionRecord(**{**dict(
        market="OMEL", auction_id=1, auction_date=date(2006, 12, 1), product_id="Q1-07",
        delivery=DeliveryPeriod(_DAY, date(2007, 3, 31)), clearing_price=40.0, quantity=1.0,
        product_kind="fixed_quantity", start_bidders=3, winning_bidders=2, rounds=5), **fields})


def _futures(settle, n_dates=1):
    return FuturesContractSeries("A", ES, tuple(date(2007, 1, d) for d in range(1, n_dates + 1)),
                                 np.array(settle), np.ones(n_dates), np.ones(n_dates))


OBJECT_CHECKS = {
    "delivery_start_after_end": (lambda: DeliveryPeriod(date(2007, 2, 1), _DAY),
                                 "delivery start 2007-02-01 after end 2007-01-01"),
    "unknown_load_shape": (lambda: DeliveryPeriod(_DAY, _DAY, "midpeak"),
                           "unknown load shape 'midpeak'"),
    "spot_length_mismatch": (lambda: SpotPriceSeries(ES, (_DAY,), np.array([1.0, 2.0])),
                             "dates and prices length mismatch"),
    "spot_non_finite": (lambda: SpotPriceSeries(ES, (_DAY,), np.array([np.nan])),
                        "non-finite spot price"),
    "futures_length_mismatch": (lambda: _futures([50.0, 51.0]), "settle length mismatch in A"),
    "futures_non_finite": (lambda: _futures([np.inf]), "non-finite settle in A"),
    "auction_product_kind": (lambda: _auction(product_kind="forward"),
                             "unknown product kind 'forward'"),
    "auction_bidder_counts": (lambda: _auction(start_bidders=2, winning_bidders=3),
                              "bidder counts inconsistent: start 2, winning 3"),
}


@pytest.mark.parametrize("case", OBJECT_CHECKS)
def test_domain_object_checks(case):
    build, message = OBJECT_CHECKS[case]
    with pytest.raises(MarketDataError) as exc:
        build()
    assert str(exc.value) == message


def test_auction_of_unknown_market_rejected(tmp_path):
    p = write(tmp_path / "a.csv", TestAuctionsLoader.HEADER +
              "XX,1,2007-06-19,Q3-07,2007-07-01,2007-09-30,baseload,fixed_quantity,"
              "46.27,1000,30,15,23\n")
    with pytest.raises(MarketDataError) as exc:
        load_auctions_csv(p)
    assert str(exc.value) == f"{p} line 2: unknown market 'XX'"


def test_delivery_period_days_span_the_year_end():
    assert DeliveryPeriod(date(2007, 12, 30), date(2008, 1, 2)).days() == [
        date(2007, 12, 30), date(2007, 12, 31), date(2008, 1, 1), date(2008, 1, 2)]


def test_average_price_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown mode 'mean'"):
        average_price(make_spot([10, 20]), DeliveryPeriod(_DAY, _DAY), mode="mean")


# every table the package reads: (table, header, one valid data row, a column
# whose cell the bad-cell case replaces)
TABLES = {
    "spot": (market_data._SPOT, None, "OMEL,ES,2007-01-01,30.5", "date"),
    "futures": (market_data._FUTURES, None, "FTBQ-1,OMEL,ES,2007-01-01,50.5,3,100", "settle"),
    "auctions": (market_data._AUCTIONS, None,
                 "OMEL,4,2008-03-13,Q2-08,2008-04-01,2008-06-30,baseload,fixed_quantity,"
                 "63.36,1800,29,14,22", "clearing_price"),
    "costs": (market_data._COSTS, None, "PJM,ACE,2007,11.34", "year"),
    "fmpi": (market_data._FMPI, None, "OMEL,Q3-07,44.45", "fmpi"),
    "averages": (market_data._AVERAGES, None, "PJM,ACE,2007,67.1", "avg_price"),
    "strip_prices": (market_data._STRIP_PRICES, None, "1,50.25", "price"),
    "panel": (market_data._PANEL, None, "ACE,2007,1.5,12.0,25,11,0.4", "pls"),
    "panel_without_pls": (market_data._PANEL,
                          "unit,period,y,vol3y,startbidders,wbidders",
                          "ACE,2007,1.5,12.0,25,11", "period"),
    "events": (market_data._EVENTS, None, "2007-06-19", "date"),
}


@pytest.mark.parametrize("name", TABLES)
class TestTableCodec:
    def case(self, name):
        table, header, row, bad_column = TABLES[name]
        return table, (header or ",".join(table.columns)).split(","), row, bad_column

    def test_wrong_header_rejected(self, tmp_path, name):
        table, header, row, _ = self.case(name)
        p = write(tmp_path / "t.csv", ",".join(header[:-1] + ["bogus"]) + "\n" + row + "\n")
        with pytest.raises(MarketDataError, match="header"):
            market_data._read_table(p, table)

    def test_bad_cell_reports_line(self, tmp_path, name):
        table, header, row, bad_column = self.case(name)
        # non-finite numbers are bad cells too
        for bad in ("n/a", "nan", "inf", "-inf"):
            cells = row.split(",")
            cells[header.index(bad_column)] = bad
            p = write(tmp_path / "t.csv",
                      "\n".join([",".join(header), row, ",".join(cells)]) + "\n")
            with pytest.raises(MarketDataError, match=f"line 3: unparseable {bad_column} '{bad}'"):
                market_data._read_table(p, table)

    def test_blank_rows_skipped(self, tmp_path, name):
        table, header, row, _ = self.case(name)
        blank = ",".join([" "] * len(header))
        p = write(tmp_path / "t.csv", "\n".join([",".join(header), "", row, blank, row]) + "\n")
        (first, a), (second, b) = market_data._read_table(p, table)
        assert (first, second) == (3, 5)
        assert a == b and len(a) == len(header)

    def test_wrong_field_count_rejected(self, tmp_path, name):
        table, header, row, _ = self.case(name)
        p = write(tmp_path / "t.csv", ",".join(header) + "\n" + row + ",1\n")
        with pytest.raises(MarketDataError,
                           match=f"line 2: expected {len(header)} fields, got {len(header) + 1}"):
            market_data._read_table(p, table)


WRITTEN_TABLES = {
    "spot": (lambda p: load_spot_csv_multi(p)[ES], write_spot_csv,
             "market,zone,date,price\nOMEL,ES,2007-01-01,30\nOMEL,ES,2007-01-02,0.1\n"
             "OMEL,ES,2007-01-03,1e22\n"),
    "futures": (load_futures_csv, write_futures_csv,
                "contract_id,market,zone,date,settle,volume,open_interest\n"
                "A,OMEL,ES,2007-01-01,50.5,1,10\nB,PJM,ACE,2007-01-01,1e-07,2,20\n"
                "A,OMEL,ES,2007-01-02,52,3,30\n"),
    "auctions": (load_auctions_csv, write_auctions_csv,
                 TestAuctionsLoader.HEADER + TWO_PRODUCT_SESSION),
    "costs": (load_costs_csv, write_costs_csv,
              "market,zone,year,unit_cost\nPJM,ACE,2007,11.34\nPJM,RECO,2009,17\n"),
}


@pytest.mark.parametrize("name", WRITTEN_TABLES)
def test_write_read_write_byte_identical(tmp_path, name):
    load, write_table, text = WRITTEN_TABLES[name]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_table(first, load(write(tmp_path / "in.csv", text)))
    write_table(second, load(first))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("newline, expected", [(None, "a\nb\nc\n"), ("", "a\r\nb\rc\n")])
def test_read_text_translates_line_breaks_as_open_does(tmp_path, newline, expected):
    path = tmp_path / "t.txt"
    path.write_bytes(b"a\r\nb\rc\n")
    assert market_data._read_text(path, newline=newline) == expected
    with open(path, newline=newline, encoding="utf-8") as fh:
        assert fh.read() == expected


@pytest.mark.parametrize("newline", [None, ""])
@pytest.mark.parametrize("bad, reason", [(b"\xff", "invalid start byte"),
                                         (b"\xc3", "unexpected end of data")])
def test_read_text_names_where_a_file_stops_being_utf8(tmp_path, newline, bad, reason):
    # the position counts the file's bytes, line breaks as they are
    path = tmp_path / "t.csv"
    path.write_bytes(b"x,y\r\n" * 1800 + bad)
    with pytest.raises(MarketDataError) as exc:
        market_data._read_text(path, newline=newline)
    byte = bad.hex()
    assert str(exc.value) == (f"{path}: 'utf-8' codec can't decode byte 0x{byte} in position "
                              f"9000: {reason}")


# --- column-by-column parse vs the per-cell loop -----------------------------

ALL_TABLES = {name: table for name, table in vars(market_data).items()
              if isinstance(table, market_data._Table)}
_KEY_BYTES = market_data._KEY_BYTES  # the longest non-float cell the column parse codes
# one cell each kind accepts, or none; hypothesis mixes them with drawn numbers
CELL_POOL = ["0", "1", "7", "-3", "2.5", "1e-07", "1e22", "-0", "50.25", "2007-01-01",
             "2016-12-31", "OMEL", "ES", "FTB-01", "Q3-07", "", "a;b", "1.5;2.5",
             "2007-01-01;2007-03-01"]
HOSTILE_CELLS = ["1_000", "nan", "inf", "-inf", "1e400", "١", "2007-01", "20070101",
                 " 1.5 ", "\t2007-01-01 ", " ES", "\xa01", "\x1c2", "0x1p3", "1.5e", "n/a",
                 " ", '"1,5"', '"ES"', '"2007-01-01"', "E\rS", "\rES", "ES\r",
                 "x" * 140_000, "y" * (_KEY_BYTES + 1)]


def _accepts(kind, cell):
    try:
        kind[0](cell.strip())
    except ValueError:
        return False
    return True


def _read_outcome(path, table):
    """repr of the rows and column types, or the error; plus the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rows = market_data._read_table(path, table)
            result = repr(([type(c).__name__ for c in rows.columns], list(rows)))
        except MarketDataError as exc:
            result = f"MarketDataError: {exc}"
    return result, [str(w.message) for w in caught]


@st.composite
def _table_text(draw, table):
    """A file of good rows with up to two hostile or quoted cells and one odd row."""
    names, kinds = list(table.columns), list(table.columns.values())
    width = draw(st.integers(len(names) - table.optional, len(names)))
    good = [[c for c in CELL_POOL if _accepts(kind, c)] for kind in kinds[:width]]
    numbers = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
               | st.integers(-99, 99).map(str))

    def good_row():
        return [draw(numbers if _accepts(kinds[j], "2.5") and draw(st.booleans())
                     else st.sampled_from(good[j] or [""])) for j in range(width)]

    rows = [good_row() for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, width - 1))
        row[j] = draw(st.sampled_from(HOSTILE_CELLS + [f'"{row[j]}"']))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 1))):
        row = good_row()
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([
            "", "  \t", " ," * (width - 1), ",".join(row[:-1]), ",".join(row + ["1"])])))
    header = ",".join(draw(st.sampled_from([n, f" {n} "])) for n in names[:width])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header] + lines) + draw(st.sampled_from([end, ""]))


@pytest.mark.parametrize("name", ALL_TABLES)
def test_column_parse_matches_per_cell_loop(name):
    # _read_table's answer with the column-by-column parse must equal the
    # per-cell loop's alone: the same rows (repr), or the same error, and the
    # same warnings
    table = ALL_TABLES[name]
    taken = []

    @settings(max_examples=60, deadline=None)
    @given(text=_table_text(table))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            fast = _read_outcome(path, table)
            with mock.patch.object(market_data, "_parse_columns", lambda text, table: None):
                slow = _read_outcome(path, table)
        assert fast == slow
        taken.append(market_data._parse_columns(text.encode(), table) is not None)

    check()
    # both paths must have been exercised for the comparison to mean anything
    assert any(taken) and not all(taken)


_PREMIUMS_ROW = "a,b,1,2,3,4,5,6,7,8"
COLUMN_PARSE_CASES = {
    # name: (table, data lines, whether the column parse takes the file)
    "lf": (market_data._FMPI, "OMEL,Q3-07,44.45\nOMEL,Q4-07,-0\n", True),
    "crlf": (market_data._FMPI, "OMEL,Q3-07,44.45\r\nOMEL,Q4-07,1e22\r\n", True),
    "no_final_newline": (market_data._FMPI, "OMEL,Q3-07,44.45\nOMEL,Q4-07,1", True),
    "padded": (market_data._FMPI, " OMEL ,\tQ3-07, 44.45 \n", True),
    "text_only": (market_data._PREMIUMS, f"{_PREMIUMS_ROW}\n x ,,,,,,,,,\n", True),
    "quoted_text": (market_data._PREMIUMS, f'"a"{_PREMIUMS_ROW[1:]}\n', False),
    "lone_cr_in_cell": (market_data._PREMIUMS, f"a\rx{_PREMIUMS_ROW[1:]}\n", False),
    "lone_cr_line_end": (market_data._FMPI, "OMEL,Q3-07,44.45\rOMEL,Q4-07,1\r", False),
    "commas_row": (market_data._PREMIUMS, f"{_PREMIUMS_ROW}\n , ,,,,,,,,\n", False),
    "blank_line": (market_data._FMPI, "OMEL,Q3-07,44.45\n\nOMEL,Q4-07,1\n", False),
    "spaces_line": (market_data._EVENTS, "2007-01-01\n \t\n", False),
    "overlong_cell": (market_data._FMPI, f"OMEL,{'x' * 140_000},1.5\n", False),
    "nan": (market_data._FMPI, "OMEL,Q3-07,nan\n", False),
    "1e400": (market_data._FMPI, "OMEL,Q3-07,1e400\n", False),
    # float() takes "1_000", and a float cell that is not a short decimal goes
    # through numpy's cast of its bytes, which is float() of them
    "underscore": (market_data._FMPI, "OMEL,Q3-07,1_000\n", True),
    "nul_in_float": (market_data._FMPI, "OMEL,Q3-07,1\0\n", False),
    "nul_ended_float": (market_data._FMPI, "OMEL,Q3-07,44.45\0\nOMEL,Q4-07,1e22\n", False),
    "repr_17_digits": (market_data._FMPI, "OMEL,Q3-07,0.30000000000000004\n", True),
    "padded_float": (market_data._FMPI, "OMEL,Q3-07, 44.45 \n", True),
    # str.strip() strips "\x1c", float() of the bytes does not: the cast
    # rejects the cell and the per-cell loop reads it as 2.0
    "x1c_padded_float": (market_data._FMPI, "OMEL,Q3-07,\x1c2\n", False),
    "arabic_digit": (market_data._FMPI, "OMEL,Q3-07,١\n", False),
    "short_row": (market_data._FMPI, "OMEL,Q3-07\n", False),
    "long_row": (market_data._FMPI, "OMEL,Q3-07,1,2\n", False),
    "bad_date": (market_data._EVENTS, "2007-01\n", False),
    # non-float cells are coded by byte keys of at most _KEY_BYTES bytes; a
    # column with a longer cell is coded a cell at a time
    "crlf_text_last": (market_data._EVENTS, "2007-01-01\r\n2007-01-02\r\n", True),
    "cell_at_key_bound": (market_data._FMPI, f"OMEL,{'x' * _KEY_BYTES},1\nOMEL,x,2\n", True),
    "cell_past_key_bound": (market_data._FMPI, f"OMEL,{'x' * (_KEY_BYTES + 1)},1\n", True),
    "multi_byte_past_key_bound": (market_data._FMPI, f"OMEL,{'é' * (_KEY_BYTES // 2 + 1)},1\n",
                                  True),
    "non_ascii_keys": (market_data._FMPI, "OMEL,Ü7,1\nOMEL,日本,2\nOMEL,Ü7,3\n", True),
    "nul_ended_key": (market_data._FMPI, "OMEL,a,1\nOMEL,a\0,2\n", True),
    "date_shape_in_text": (market_data._FMPI, "OMEL,2007-01-20,1\nOMEL,2007/01-20,2\n", True),
    "month_13": (market_data._EVENTS, "2007-01-01\n2007-13-01\n", False),
    "february_30": (market_data._EVENTS, "2007-02-30\n", False),
    # date.fromisoformat takes these too, so the per-cell loop does
    "basic_date": (market_data._EVENTS, "20070101\n2007-01-01\n", True),
    "week_date": (market_data._EVENTS, "2007-W01-1\n", True),
}


@pytest.mark.parametrize("case", COLUMN_PARSE_CASES)
def test_column_parse_takes_only_plain_files(tmp_path, case):
    table, data, taken = COLUMN_PARSE_CASES[case]
    text = ",".join(table.columns) + "\n" + data
    assert (market_data._parse_columns(text.encode(), table) is not None) == taken
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(market_data, "_parse_columns", lambda text, table: None):
        slow = _read_outcome(path, table)
    assert _read_outcome(path, table) == slow


# a file the column parse reads decodes only its text cells, so each of these
# must send the file to the per-cell loop, which names the first bad byte
NOT_UTF8 = {"text_cell": b"OM\xffEL,Q3,1\n", "repeated_key": b"OMEL,Q3,1\nOMEL,Q\xc3,2\n",
            "long_text_cell": b"OMEL," + b"x" * 40 + b"\xff,1\n", "float_cell": b"OMEL,Q3,4\xff5\n",
            "sequence_cut_by_a_comma": b"OMEL,Q\xc3,\xa91\n"}


@pytest.mark.parametrize("case", [*NOT_UTF8, "header"])
def test_a_file_that_is_not_utf8_is_declined(tmp_path, case):
    raw = (b"market,key,fmpi\n" + NOT_UTF8[case] if case in NOT_UTF8
           else b"mark\xffet,key,fmpi\nOMEL,Q3,1\n")
    assert market_data._parse_columns(raw, market_data._FMPI) is None
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    with pytest.raises(UnicodeDecodeError) as decoded:
        raw.decode()
    with pytest.raises(MarketDataError, match=re.escape(f"{path}: {decoded.value}")):
        market_data._read_table(path, market_data._FMPI)


# --- float cells read from the bytes ------------------------------------------

FLOAT_PAIR = market_data._Table({"x": market_data._FLOAT, "y": market_data._FLOAT})
# a decimal of 0-18 digits either side of the dot, signed or not, padded or not
DECIMALS = st.builds(lambda pad, sign, a, dot, b: pad + sign + a + dot + b + pad,
                     st.sampled_from(["", "", " ", "\t"]), st.sampled_from(["", "+", "-"]),
                     st.text("0123456789", max_size=18), st.sampled_from(["", "."]),
                     st.text("0123456789", max_size=18))
FLOAT_CELLS = (DECIMALS.filter(lambda c: len(c) <= 20)
               | st.floats(allow_nan=False, allow_infinity=False).map(repr)
               | st.sampled_from(["1_000", "1_0.5", "1e5", "-2.5E-3", "\t-0 ", "1e22", "1e400"])
               | st.text(list("0123456789.+-eE_ \t\r\0é"), max_size=20))


def _float_or_error(cell: str):
    """The bits _finite_float gives the stripped cell, or None where it raises."""
    try:
        return np.float64(market_data._finite_float(cell.strip())).view(np.uint64)
    except ValueError:
        return None


def test_float_cells_read_as_float_reads_them():
    # a file the column parse takes holds the bits float() gives each stripped
    # cell; a cell float() rejects declines the file; so does a carriage
    # return inside a line, which the csv module reads as a line break
    outcomes = set()

    @settings(max_examples=400, deadline=None)
    @given(cells=st.lists(FLOAT_CELLS, min_size=1, max_size=12),
           end=st.sampled_from(["\n", "\r\n"]))
    def check(cells, end):
        if len(cells) % 2:
            cells.append("0")
        text = "x,y" + end + "".join(f"{x},{y}{end}" for x, y in zip(cells[::2], cells[1::2]))
        rows = market_data._parse_columns(text.encode(), FLOAT_PAIR)
        expected = [_float_or_error(c) for c in cells]
        if any(bits is None for bits in expected):
            assert rows is None
        elif rows is None:
            assert any("\r" in c for c in cells)
        else:
            got = np.stack(rows.columns, axis=1).ravel().view(np.uint64)
            assert got.tolist() == [int(bits) for bits in expected]
        outcomes.add(rows is None)

    check()
    assert outcomes == {True, False}


# whether the fast path takes a cell: a decimal of at most 15 digits, whatever
# its sign and dot
EXACT_CELLS = {"123456789012345": True, "-12345678.1234567": True, ".000000000000001": True,
               "1234567890123456": False, "12345678901234567": False,
               str(2**53 - 1): False, str(2**53 + 1): False, "900719925474099.3": False,
               "1e22": False, "-0": True, "+0.0": True, ".5": True, "5.": True, "-.5": True,
               "0.30000000000000004": False, "1_000": False, ".": False, "-": False,
               "1.2.3": False, "1-2": False, "12\0": False}


def test_exact_decimals_are_the_fast_path():
    cells = list(EXACT_CELLS)
    data = np.frombuffer(",".join(cells).encode() + bytes(_KEY_BYTES), dtype=np.uint8)
    sizes = np.array([len(c) for c in cells])
    starts = np.cumsum(sizes + 1) - sizes - 1
    ok, values = market_data._decimal_cells(market_data._words(data), starts, sizes)
    assert ok.tolist() == list(EXACT_CELLS.values())
    assert values[ok].view(np.uint64).tolist() == [
        _float_or_error(c) for c, fast in EXACT_CELLS.items() if fast]
    # the column parse reads every cell float() takes, on either path, as float() does
    readable = [c for c in cells if _float_or_error(c) is not None]
    rows = market_data._parse_columns(
        ("x,y\n" + "".join(f"{c},{c}\n" for c in readable)).encode(), FLOAT_PAIR)
    assert [column.view(np.uint64).tolist() for column in rows.columns] == [
        [_float_or_error(c) for c in readable]] * 2


def test_float_cells_across_chunks():
    # more cells than one chunk, exact decimals and other cells mixed, so the
    # chunk boundaries fall among both; the lines end in "\r\n", which the
    # last column's cells leave out, so each exact decimal is read as one
    n = market_data._FLOAT_CHUNK // 2 + 5
    rng = np.random.default_rng(7)
    cells = [repr(x) if i % 3 else f"{i % 1000}.{i % 97:02d}"
             for i, x in enumerate(rng.normal(0, 1e3, 2 * n).tolist())]
    text = "x,y\r\n" + "".join(f"{x},{y}\r\n" for x, y in zip(cells[::2], cells[1::2]))
    taken = []

    def decimal_cells(*args):
        ok, values = decimal_cells.real(*args)
        taken.append(int(ok.sum()))
        return ok, values
    decimal_cells.real = market_data._decimal_cells
    with mock.patch.object(market_data, "_decimal_cells", decimal_cells):
        rows = market_data._parse_columns(text.encode(), FLOAT_PAIR)
    got = np.stack(rows.columns, axis=1).ravel()
    assert got.view(np.uint64).tolist() == np.array([float(c) for c in cells]).view(
        np.uint64).tolist()
    exact = [m for c in cells if (m := re.fullmatch(r"[+-]?(\d*)\.?(\d*)", c))
             and 1 <= len(m[1] + m[2]) <= 15]
    assert len(taken) > 1 and sum(taken) == len(exact) > n // 2


# --- loaders on the parse-time codes vs the per-cell loop ---------------------

SERIES_ZONES = [("OMEL", "ES"), ("PJM", "ACE"), ("PJM", "RECO")]


@st.composite
def _series_text(draw, futures: bool):
    """A futures or spot file of a few series, with drawn faults.

    Cells may be padded with spaces, series interleaved by date, a series may
    change zone, a date may repeat or go back, a cell may be non-ASCII and a
    row may have the wrong width.
    """
    keys = draw(st.lists(st.sampled_from(["A", "B", "Ü7", "日本"] if futures else SERIES_ZONES),
                         min_size=1, max_size=3, unique=True))
    rows = []
    for key in keys:
        market, zone = draw(st.sampled_from(SERIES_ZONES)) if futures else key
        for day in sorted(draw(st.lists(st.integers(1, 28), min_size=1, max_size=5,
                                        unique=True))):
            numbers = [draw(st.sampled_from(["50", "50.5", "-0", "1e3"]))]
            if futures:
                numbers += [str(draw(st.integers(0, 9))) for _ in range(2)]
            rows.append([key] * futures + [market, zone, f"2007-01-{day:02d}", *numbers])
    if draw(st.booleans()):  # series interleaved by date
        rows.sort(key=lambda row: row[2 + futures])
    faults = st.sampled_from(["pad", "pad", "zone", "repeat", "back", "non_ascii", "short",
                              "long"])
    for fault in draw(st.lists(faults, max_size=3)):
        i = draw(st.integers(0, len(rows) - 1))
        date_col = 2 + futures
        if fault == "pad":
            j = draw(st.integers(0, date_col))
            rows[i][j] = draw(st.sampled_from([" ", "\t", ""])) + rows[i][j] + " "
        elif fault == "zone":
            rows[i][futures:date_col] = draw(st.sampled_from(SERIES_ZONES))
        elif fault == "repeat" and i:
            rows[i][date_col] = rows[i - 1][date_col]
        elif fault == "back":
            rows[i][date_col] = "2006-12-31"
        elif fault == "non_ascii":
            rows[i][draw(st.integers(0, date_col - 1))] = "Ésé"
        elif fault == "short":  # the row loses its last number, never its date
            rows[i] = rows[i][:max(date_col + 1, len(rows[i]) - 1)]
        elif fault == "long":
            rows[i] = rows[i] + ["1"]
    header = (["contract_id"] * futures + ["market", "zone", "date"]
              + (["settle", "volume", "open_interest"] if futures else ["price"]))
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


def _series_outcome(load, path):
    """repr of every series a loader returns, or its error."""
    try:
        loaded = load(path)
    except MarketDataError as exc:
        return f"MarketDataError: {exc}"
    series = loaded.values() if isinstance(loaded, dict) else loaded
    return repr([(getattr(s, "contract_id", None), s.zone, s.dates, s.ordinals.tolist(),
                  *(getattr(s, name).tolist() for name in
                    ("settle", "volume", "open_interest", "prices") if hasattr(s, name)))
                 for s in series])


@pytest.mark.parametrize("futures", [True, False], ids=["futures", "spot"])
def test_loaders_on_codes_match_per_cell_loop(futures):
    # load_futures_csv and load_spot_csv_multi group rows by the codes of the
    # column parse; the per-cell loop must give the same series or error
    load = market_data.load_futures_csv if futures else market_data.load_spot_csv_multi
    table = market_data._FUTURES if futures else market_data._SPOT
    taken, failed = [], []

    @settings(max_examples=150, deadline=None)
    @given(text=_series_text(futures))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            fast = _series_outcome(load, path)
            with mock.patch.object(market_data, "_parse_columns", lambda text, table: None):
                slow = _series_outcome(load, path)
        assert fast == slow
        taken.append(market_data._parse_columns(text.encode(), table) is not None)
        failed.append(fast.startswith("MarketDataError"))

    check()
    assert any(taken) and not all(taken)
    assert any(failed) and not all(failed)


def test_padded_cells_are_one_zone(tmp_path):
    # the codes are those of the stripped cells, so " ES" and "ES" are one zone
    p = write(tmp_path / "f.csv", "contract_id,market,zone,date,settle,volume,open_interest\n"
              "A,OMEL,ES,2007-01-01,50,1,10\n A ,OMEL, ES,2007-01-02,50,1,10\n")
    assert market_data._parse_columns(p.read_bytes(), market_data._FUTURES) is not None
    (series,) = load_futures_csv(p)
    assert (series.contract_id, series.zone, len(series)) == ("A", ES, 2)
    spot = write(tmp_path / "s.csv", "market,zone,date,price\n"
                 "OMEL,ES,2007-01-01,30\nOMEL , ES,2007-01-02,31\n")
    assert list(market_data.load_spot_csv_multi(spot)) == [ES]


def test_spot_zones_come_in_file_order(tmp_path):
    p = write(tmp_path / "s.csv", "market,zone,date,price\n"
              "PJM,RECO,2007-01-01,30\nOMEL,ES,2007-01-01,31\nPJM,ACE,2007-01-01,32\n"
              "OMEL,ES,2007-01-02,33\n")
    zones = market_data.load_spot_csv_multi(p)
    assert [(z.market, z.zone, len(s)) for z, s in zones.items()] == [
        ("PJM", "RECO", 1), ("OMEL", "ES", 2), ("PJM", "ACE", 1)]


# --- column-at-a-time write vs the csv.writer loop ---------------------------


def _write_rows_one_at_a_time(path, table, *blocks, preamble=""):
    """The writer _write_table replaced: every row through csv.writer."""
    formats = [fmt for _, fmt in table.columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(preamble)
        w = csv.writer(fh)
        w.writerow(list(table.columns))
        for block in blocks:
            w.writerows(zip(*[map(fmt, c.tolist() if hasattr(c, "tolist") else c)
                              for fmt, c in zip(formats, block)]))


# tables of one column whose cells can be empty: csv.writer quotes such a cell;
# and one of floats alone, whose blocks' values the writer formats together
WRITE_TABLES = {**ALL_TABLES, "one_text": market_data._Table({"note": market_data._TEXT}),
                "one_fixed": market_data._Table({"x": market_data._fixed(".4f")}),
                "floats": market_data._Table({"x": market_data._FLOAT,
                                              "y": market_data._FLOAT})}
TEXT = st.text(st.sampled_from(["a", "Z", "0", " ", ";", "-", ",", '"', "\r", "\n", "é",
                                "€", "日", "\x00"]), max_size=5)
FLOATS = (st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e16, 1e-5, 0.1, -2.5, 1e22])
          | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6))
VALUES = {id(market_data._TEXT): TEXT, id(market_data._DATE): st.dates(),
          id(market_data._FLOAT): FLOATS, id(market_data._INT): st.integers(-10**20, 10**20),
          id(market_data._FLAG): st.booleans()}


@st.composite
def _column(draw, kind, n):
    """``n`` values of ``kind``; a float column is often a numpy array."""
    if id(kind) in VALUES:
        values = draw(st.lists(VALUES[id(kind)], min_size=n, max_size=n))
    else:  # a _fixed kind: None is a blank cell
        assert kind[1](None) == ""
        values = draw(st.lists(st.none() | FLOATS, min_size=n, max_size=n))
    if kind is market_data._FLOAT and draw(st.booleans()):
        dtype = np.int64 if all(isinstance(v, int) for v in values) else np.float64
        return np.array(values, dtype=dtype)
    return draw(st.sampled_from([list, tuple]))(values)


def _rows_of(column) -> int:
    return len(column.codes if isinstance(column, market_data._Coded) else column)


@st.composite
def _write_blocks(draw, table):
    """Blocks of 0-4 rows; a column object may come back in a later block.

    A column may be a _Coded of 1-3 values, not all of them used.
    """
    kinds = list(table.columns.values())
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 4))
        block = []
        for j, kind in enumerate(kinds):
            earlier = [b[j] for b in blocks if _rows_of(b[j]) == n]
            if earlier and draw(st.booleans()):
                block.append(draw(st.sampled_from(earlier)))
            elif draw(st.integers(0, 2)) == 0:
                values = list(draw(_column(kind, draw(st.integers(1, 3)))))
                codes = draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))
                block.append(market_data._Coded(np.array(codes, dtype=np.int64), values))
            else:
                block.append(draw(_column(kind, n)))
        blocks.append(block)
    return blocks


def _csv_quotes(cell: str, width: int) -> bool:
    """Whether csv.writer quotes ``cell`` in a row of ``width`` cells."""
    row = [cell] + ["x"] * (width - 1)
    text = io.StringIO()
    csv.writer(text).writerow(row)
    return text.getvalue() != ",".join(row) + "\r\n"


def test_write_matches_csv_writer_loop():
    # _write_table's bytes must equal those of every row through csv.writer
    cells_csv = {"quotes": 0, "leaves": 0}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(WRITE_TABLES)),
           preamble=st.sampled_from(["", "# a\n# b=1\n"]))
    def check(data, name, preamble):
        table = WRITE_TABLES[name]
        blocks = data.draw(_write_blocks(table))
        with tempfile.TemporaryDirectory() as tmp:
            expected, written = Path(tmp) / "expected.csv", Path(tmp) / "written.csv"
            _write_rows_one_at_a_time(expected, table, *blocks, preamble=preamble)
            market_data._write_table(written, table, *blocks, preamble=preamble)
            assert written.read_bytes() == expected.read_bytes()
        width = len(table.columns)
        for (_, fmt), block in zip(table.columns.values(), zip(*blocks)):
            for column in block:
                for value in column.tolist() if hasattr(column, "tolist") else column:
                    cells_csv["quotes" if _csv_quotes(fmt(value), width) else "leaves"] += 1

    check()
    # the blocks must have held cells csv quotes and cells it leaves as they
    # are for the comparison to mean anything
    assert cells_csv["quotes"] and cells_csv["leaves"]


# --- one-word keys and the writers' blocks ------------------------------------


def _keys_of(cells: list) -> np.ndarray:
    """_cell_keys of byte strings ``cells``, laid end to end."""
    data = np.frombuffer(b"".join(cells) + bytes(_KEY_BYTES), dtype=np.uint8)
    sizes = np.array([len(c) for c in cells], dtype=np.int64)
    return market_data._cell_keys(data, np.cumsum(sizes) - sizes, sizes)


SHORT_CELLS = st.lists(st.sampled_from([b"", b"\0", b"a", b"a\0", b"\0a", b"ES", b"ES\0",
                                        b"1234567", b"123456\0", b"12345678"])
                       | st.binary(max_size=8), max_size=12)


@settings(max_examples=300, deadline=None)
@given(cells=SHORT_CELLS)
def test_one_word_keys_code_cells_as_multi_word_keys(cells):
    # a column of cells of at most 7 bytes gets one word per cell; an 8-byte
    # cell appended to it, which cannot change the codes before it, makes
    # every cell a row of words. Both must number the cells as their bytes do.
    keys, rows = _keys_of(cells), _keys_of(cells + [b"8 bytes!"])
    assert keys.ndim == (1 if all(len(c) <= 7 for c in cells) else 2) and rows.ndim == 2
    first_seen = {}
    expected = [first_seen.setdefault(c, len(first_seen)) for c in cells]
    assert market_data._first_seen(keys)[1].tolist() == expected
    assert market_data._first_seen(rows)[1][:len(cells)].tolist() == expected


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(0, 3) | st.sampled_from([2**63, 2**64 - 1]), max_size=30))
def test_first_seen_of_one_word_keys_equals_rows_of_them(values):
    keys = np.array(values, dtype=np.uint64)
    one, rows = market_data._first_seen(keys), market_data._first_seen(keys[:, None])
    assert [a.tolist() for a in one] == [a.tolist() for a in rows]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(0, 4) | st.sampled_from([2**63, 2**64 - 1]), max_size=200))
def test_first_seen_matches_a_dict(values):
    # many repeats, so that the sort meets long runs of equal keys
    codes = {}
    expected = [codes.setdefault(v, len(codes)) for v in values]
    heads, got = market_data._first_seen(np.array(values, dtype=np.uint64))
    assert got.tolist() == expected
    assert heads.tolist() == sorted(values.index(v) for v in codes)


def test_zone_codes_of_interleaved_zones():
    pairs = [("PJM", "ACE"), ("OMEL", "ES"), ("PJM", "RECO"), ("OMEL", "ES"), ("PJM", "ACE"),
             ("PJM", "RECO"), ("PJM", "ES"), ("OMEL", "ACE")] * 3
    columns = []
    for cells in zip(*pairs):
        code, values = market_data._coder(str)
        columns.append(market_data._Coded(np.array([code(c) for c in cells]), values))
    seen = {}
    assert market_data._zone_codes(*columns).tolist() == [
        seen.setdefault(pair, len(seen)) for pair in pairs]


# float values a column repeats across blocks, ±0.0 and subnormals among them
POOL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.5, 0.1, 50.25, 1e16,
                               1e22])


@st.composite
def _written_objects(draw, name):
    """What write_<name>_csv takes: several series or records.

    Futures series may share a calendar, also one that is not the previous
    series', or a settle array; their floats come from POOL_FLOATS.
    """
    def floats(n, low=-np.inf):
        return np.array(draw(st.lists(POOL_FLOATS.filter(lambda x: x >= low),
                                      min_size=n, max_size=n)), dtype=float)

    if name == "spot":
        n = draw(st.integers(0, 6))
        zone = MarketZone(*draw(st.sampled_from(SERIES_ZONES)))
        return SpotPriceSeries(zone, [date(2007, 1, d) for d in range(1, n + 1)], floats(n))
    if name == "futures":
        calendars = [_Calendar([date(2007, 1, d) for d in range(1, n + 1)]) for n in (0, 2, 3)]
        series = []
        for i in range(draw(st.integers(0, 5))):
            dates = draw(st.sampled_from(calendars))
            shared = [s.settle for s in series if len(s) == len(dates)]
            settle = (draw(st.sampled_from(shared)) if shared and draw(st.booleans())
                      else floats(len(dates)))
            series.append(FuturesContractSeries(
                f"C{i}", MarketZone(*draw(st.sampled_from(SERIES_ZONES))), dates, settle,
                floats(len(dates), low=0.0), floats(len(dates), low=0.0)))
        return series
    if name == "auctions":
        return [_auction(auction_id=i, product_id=draw(st.sampled_from(["Q1-07", "a,b", 'x"'])),
                         delivery=DeliveryPeriod(_DAY, date(2007, 3, 31),
                                                 draw(st.sampled_from(market_data.LOAD_SHAPES))),
                         clearing_price=draw(POOL_FLOATS.filter(lambda x: x > 0)),
                         quantity=draw(POOL_FLOATS))
                for i in range(draw(st.integers(0, 4)))]
    from powerauctions import CostComponents
    return [CostComponents(MarketZone(*draw(st.sampled_from(SERIES_ZONES))), 2007 + i,
                           draw(POOL_FLOATS.filter(lambda x: x >= 0)))
            for i in range(draw(st.integers(0, 4)))]


@pytest.mark.parametrize("name", WRITTEN_TABLES)
def test_writers_match_csv_writer_loop(name):
    # each writer's blocks (a block per series, or the zip of one column per
    # field) through _write_table give the bytes of every row through csv.writer
    writer = WRITTEN_TABLES[name][1]

    @settings(max_examples=100, deadline=None)
    @given(data=_written_objects(name))
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            expected, written = Path(tmp) / "expected.csv", Path(tmp) / "written.csv"
            with mock.patch.object(market_data, "_write_table", _write_rows_one_at_a_time):
                writer(expected, data)
            writer(written, data)
            assert written.read_bytes() == expected.read_bytes()

    check()


@settings(max_examples=150, deadline=None)
@given(contracts=st.lists(st.sampled_from(SERIES_ZONES), min_size=1, max_size=4),
       data=st.data())
def test_interleaved_contracts_come_in_file_order(contracts, data):
    # contracts come in the order of their first rows, and a zone change is
    # reported at the first row whose zone is not its contract's first one
    # each contract's rows in date order, the contracts interleaved
    order = data.draw(st.permutations([c for c in range(len(contracts))
                                       for _ in range(data.draw(st.integers(1, 4)))]))
    days = [0] * len(contracts)
    rows = []
    for c in order:
        days[c] += 1
        rows.append([f"C{c}", *contracts[c], f"2007-01-0{days[c]}"])
    for _ in range(data.draw(st.integers(0, 1))):
        rows[data.draw(st.integers(0, len(rows) - 1))][1:3] = data.draw(
            st.sampled_from(SERIES_ZONES))
    first = {}
    for row in rows:
        first.setdefault(row[0], row)
    change = next((i for i, row in enumerate(rows, start=2) if row[1:3] != first[row[0]][1:3]),
                  None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        path.write_text(TestFuturesLoader.HEADER + "".join(",".join(row) + ",50,1,10\n"
                                                         for row in rows))
        if change is not None:
            cid = rows[change - 2][0]
            with pytest.raises(MarketDataError,
                               match=f"line {change}: contract {cid} changes zone"):
                load_futures_csv(path)
            return
        series = load_futures_csv(path)
    assert [s.contract_id for s in series] == list(first)
    assert [(s.zone.market, s.zone.zone) for s in series] == [tuple(r[1:3]) for r in first.values()]
