import csv
import io
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
                           load_costs_csv, load_futures_csv, load_spot_csv)
from powerauctions import market_data
from powerauctions.market_data import (write_auctions_csv, write_costs_csv,
                                       write_futures_csv, write_spot_csv)

from conftest import make_spot

ES = MarketZone("OMEL", "ES")


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestZones:
    def test_valid_zones(self):
        assert MarketZone("PJM", "ACE").currency == "USD"
        assert ES.currency == "EUR"

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
        series = load_spot_csv(p, ES)
        assert len(series) == 3
        assert list(series.prices) == [30.0, 31.0, 32.0]

    def test_duplicate_date_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "market,zone,date,price\n"
                  "OMEL,ES,2007-01-01,30\nOMEL,ES,2007-01-01,31\n")
        with pytest.raises(MarketDataError, match="duplicate date"):
            load_spot_csv(p, ES)

    def test_non_monotone_dates_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "market,zone,date,price\n"
                  "OMEL,ES,2007-01-02,30\nOMEL,ES,2007-01-01,31\n")
        with pytest.raises(MarketDataError, match="non-monotone"):
            load_spot_csv(p, ES)

    def test_empty_data_section_warns(self, tmp_path):
        p = write(tmp_path / "s.csv", "market,zone,date,price\n")
        with pytest.warns(UserWarning, match="no data rows"):
            series = load_spot_csv(p, ES)
        assert len(series) == 0

    def test_malformed_row_reports_line(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "market,zone,date,price\nOMEL,ES,2007-01-01,30\nOMEL,ES,2007-01-02,oops\n")
        with pytest.raises(MarketDataError, match="line 3"):
            load_spot_csv(p, ES)

    def test_wrong_header_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "date,price\n2007-01-01,30\n")
        with pytest.raises(MarketDataError, match="header"):
            load_spot_csv(p, ES)

    def test_no_silent_drops(self, tmp_path):
        lines = [f"OMEL,ES,2007-01-{d:02d},{20 + d}" for d in range(1, 29)]
        p = write(tmp_path / "s.csv", "market,zone,date,price\n" + "\n".join(lines) + "\n")
        assert len(load_spot_csv(p, ES)) == len(lines)


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

    def test_index_must_match_the_dates(self):
        dates = (date(2007, 1, 1), date(2007, 1, 2))
        good = np.array([d.toordinal() for d in dates])
        series = FuturesContractSeries("A", ES, dates, np.ones(2), np.ones(2), np.ones(2),
                                       index=good)
        assert series.ordinals is good
        for bad in (good[:1], good + 1):
            with pytest.raises(MarketDataError, match="date index does not match"):
                FuturesContractSeries("A", ES, dates, np.ones(2), np.ones(2), np.ones(2),
                                      index=bad)


class TestAuctionsLoader:
    HEADER = ("market,auction_id,auction_date,product_id,delivery_start,delivery_end,"
              "load_shape,product_kind,clearing_price,quantity,start_bidders,"
              "winning_bidders,rounds\n")

    def test_multi_product_row_split(self, tmp_path):
        p = write(tmp_path / "a.csv", self.HEADER +
                  "OMEL,4,2008-03-13,Q2-08;Q2Q3-08,2008-04-01;2008-04-01,"
                  "2008-06-30;2008-09-30,baseload;baseload,fixed_quantity,"
                  "63.36;63.73,1800;1200,29,14,22\n")
        records = load_auctions_csv(p)
        assert len(records) == 2
        assert records[0].product_id == "Q2-08"
        assert records[1].clearing_price == 63.73
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
        back = load_spot_csv(path, ES)
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


def test_spot_row_of_another_zone_rejected(tmp_path):
    p = write(tmp_path / "s.csv",
              "market,zone,date,price\nOMEL,ES,2007-01-01,30\nPJM,ACE,2007-01-02,31\n")
    with pytest.raises(MarketDataError) as exc:
        load_spot_csv(p, ES)
    assert str(exc.value) == f"{p} line 3: row for PJM/ACE, expected OMEL/ES"


def test_multi_product_fields_of_unequal_counts_rejected(tmp_path):
    p = write(tmp_path / "a.csv", TestAuctionsLoader.HEADER +
              "OMEL,4,2008-03-13,Q2-08;Q2Q3-08,2008-04-01;2008-04-01,"
              "2008-06-30;2008-09-30,baseload,fixed_quantity,63.36;63.73,1800;1200,29,14,22\n")
    with pytest.raises(MarketDataError) as exc:
        load_auctions_csv(p)
    assert str(exc.value) == f"{p} line 2: multi-product fields have unequal counts"


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
                 "OMEL,4,2008-03-13,Q2-08;Q2Q3-08,2008-04-01;2008-04-01,2008-06-30;2008-09-30,"
                 "baseload;baseload,fixed_quantity,63.36;63.73,1800;1200,29,14,22",
                 "clearing_price"),
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
        rows = market_data._read_table(p, table)
        assert [lineno for lineno, _ in rows] == [3, 5]
        assert rows[0][1] == rows[1][1] and len(rows[0][1]) == len(header)

    def test_wrong_field_count_rejected(self, tmp_path, name):
        table, header, row, _ = self.case(name)
        p = write(tmp_path / "t.csv", ",".join(header) + "\n" + row + ",1\n")
        with pytest.raises(MarketDataError,
                           match=f"line 2: expected {len(header)} fields, got {len(header) + 1}"):
            market_data._read_table(p, table)


WRITTEN_TABLES = {
    "spot": (lambda p: load_spot_csv(p, ES), write_spot_csv,
             "market,zone,date,price\nOMEL,ES,2007-01-01,30\nOMEL,ES,2007-01-02,0.1\n"
             "OMEL,ES,2007-01-03,1e22\n"),
    "futures": (load_futures_csv, write_futures_csv,
                "contract_id,market,zone,date,settle,volume,open_interest\n"
                "A,OMEL,ES,2007-01-01,50.5,1,10\nB,PJM,ACE,2007-01-01,1e-07,2,20\n"
                "A,OMEL,ES,2007-01-02,52,3,30\n"),
    "auctions": (load_auctions_csv, write_auctions_csv, TestAuctionsLoader.HEADER +
                 "OMEL,4,2008-03-13,Q2-08;Q2Q3-08,2008-04-01;2008-04-01,"
                 "2008-06-30;2008-09-30,baseload;baseload,fixed_quantity,"
                 "63.36;63.73,1800;1200,29,14,22\n"),
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
        taken.append(market_data._parse_columns(text, table) is not None)

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
    "underscore": (market_data._FMPI, "OMEL,Q3-07,1_000\n", False),
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
    assert (market_data._parse_columns(text, table) is not None) == taken
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(market_data, "_parse_columns", lambda text, table: None):
        slow = _read_outcome(path, table)
    assert _read_outcome(path, table) == slow


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
        elif fault == "short":
            rows[i] = rows[i][:-1]
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
        taken.append(market_data._parse_columns(text, table) is not None)
        failed.append(fast.startswith("MarketDataError"))

    check()
    assert any(taken) and not all(taken)
    assert any(failed) and not all(failed)


def test_padded_cells_are_one_zone(tmp_path):
    # the codes are those of the stripped cells, so " ES" and "ES" are one zone
    p = write(tmp_path / "f.csv", "contract_id,market,zone,date,settle,volume,open_interest\n"
              "A,OMEL,ES,2007-01-01,50,1,10\n A ,OMEL, ES,2007-01-02,50,1,10\n")
    assert market_data._parse_columns(p.read_text(), market_data._FUTURES) is not None
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


# tables of one column whose cells can be empty: csv.writer quotes such a cell
WRITE_TABLES = {**ALL_TABLES, "one_text": market_data._Table({"note": market_data._TEXT}),
                "one_fixed": market_data._Table({"x": market_data._fixed(".4f")})}
TEXT = st.text(st.sampled_from(["a", "Z", "0", " ", ";", "-", ",", '"', "\r", "\n", "é",
                                "€", "日", "\x00"]), max_size=5)
FLOATS = (st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5, 1e22])
          | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6))
VALUES = {id(market_data._TEXT): TEXT, id(market_data._DATE): st.dates(),
          id(market_data._FLOAT): FLOATS, id(market_data._INT): st.integers(-10**20, 10**20),
          id(market_data._FLAG): st.booleans()}
# the ";"-list columns of _AUCTIONS, by the kind of their entries
MULTI = {"product_id": TEXT, "load_shape": TEXT, "delivery_start": st.dates(),
         "delivery_end": st.dates(), "clearing_price": FLOATS, "quantity": FLOATS}


@st.composite
def _column(draw, name, kind, n):
    """``n`` values of ``kind``; a float column is often a numpy array."""
    if id(kind) in VALUES:
        values = draw(st.lists(VALUES[id(kind)], min_size=n, max_size=n))
    elif name in MULTI:
        values = draw(st.lists(st.lists(MULTI[name], min_size=1, max_size=3),
                               min_size=n, max_size=n))
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
    kinds = list(table.columns.items())
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 4))
        block = []
        for j, (name, kind) in enumerate(kinds):
            earlier = [b[j] for b in blocks if _rows_of(b[j]) == n]
            if earlier and draw(st.booleans()):
                block.append(draw(st.sampled_from(earlier)))
            elif draw(st.integers(0, 2)) == 0:
                values = list(draw(_column(name, kind, draw(st.integers(1, 3)))))
                codes = draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))
                block.append(market_data._Coded(np.array(codes, dtype=np.int64), values))
            else:
                block.append(draw(_column(name, kind, n)))
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
