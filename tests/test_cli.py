import csv
import json
import math
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

import powerauctions
from powerauctions.cli import main

AUCTIONS_HEADER = ("market,auction_id,auction_date,product_id,delivery_start,"
                   "delivery_end,load_shape,product_kind,clearing_price,quantity,"
                   "start_bidders,winning_bidders,rounds\n")


@pytest.fixture
def omel_fixture(tmp_path):
    auctions = tmp_path / "auctions.csv"
    auctions.write_text(
        AUCTIONS_HEADER +
        "OMEL,1,2007-06-19,Q3-07,2007-07-01,2007-09-30,baseload,fixed_quantity,"
        "46.27,1800,30,15,23\n"
        "OMEL,2,2007-09-18,Q4-07,2007-10-01,2007-12-31,baseload,fixed_quantity,"
        "38.45,1800,30,15,23\n")
    lines = ["market,zone,date,price"]
    day = date(2007, 7, 1)
    while day <= date(2007, 12, 31):
        price = 36.45 if day <= date(2007, 9, 30) else 47.78
        lines.append(f"OMEL,ES,{day.isoformat()},{price}")
        day += timedelta(days=1)
    spot = tmp_path / "spot.csv"
    spot.write_text("\n".join(lines) + "\n")
    fmpi = tmp_path / "fmpi.csv"
    fmpi.write_text("market,key,fmpi\nOMEL,Q3-07,44.45\nOMEL,Q4-07,38.58\n")
    return auctions, spot, fmpi


def read_csv_skipping_comments(path):
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(l for l in fh if not l.startswith("#"))]
    return rows


class TestPremiumCommand:
    def test_table_shaped_output(self, tmp_path, omel_fixture):
        auctions, spot, fmpi = omel_fixture
        out = tmp_path / "out"
        rc = main(["premium", "--auctions", str(auctions), "--spot", str(spot),
                   "--fmpi", str(fmpi), "--out", str(out)])
        assert rc == 0
        rows = read_csv_skipping_comments(out / "premiums.csv")
        header, data = rows[0], rows[1:]
        assert header[0] == "auction_ref"
        by_ref = {r[0]: r for r in data}
        assert float(by_ref["Q3-07"][header.index("premium")]) == pytest.approx(9.82, abs=0.01)
        assert float(by_ref["Q4-07"][header.index("premium")]) == pytest.approx(-9.33, abs=0.01)
        assert float(by_ref["Q3-07"][header.index("fmpi_premium")]) == pytest.approx(1.82, abs=0.01)
        summary = json.loads((out / "premium_summary.json").read_text())
        assert "2007" in summary["aggregates"]["groups"]

    def test_outputs_carry_metadata_header(self, tmp_path, omel_fixture):
        auctions, spot, fmpi = omel_fixture
        out = tmp_path / "out"
        main(["premium", "--auctions", str(auctions), "--spot", str(spot),
              "--out", str(out)])
        first = (out / "premiums.csv").read_text().splitlines()[0]
        assert first.startswith("# powerauctions")

    def test_inputs_not_mutated(self, tmp_path, omel_fixture):
        auctions, spot, fmpi = omel_fixture
        before = auctions.read_bytes(), spot.read_bytes()
        main(["premium", "--auctions", str(auctions), "--spot", str(spot),
              "--out", str(tmp_path / "o")])
        assert (auctions.read_bytes(), spot.read_bytes()) == before


class TestSimulateCommand:
    SCENARIO = {
        "config": {"target_quantity": 10, "opening_price": 100,
                   "price_decrement": 10, "max_rounds": 50},
        "strategies": [
            {"kind": "constant", "quantity": 6},
            {"kind": "threshold_exit", "quantity": 6, "threshold": 75,
             "below_quantity": 2},
            {"kind": "stochastic_shrink", "quantity": 4, "low": 0.7},
        ],
    }

    def test_byte_identical_reruns(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(self.SCENARIO))
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert main(["simulate", "--scenario", str(scenario), "--seed", "7",
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(scenario), "--seed", "7",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_outcome_has_full_round_log(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(self.SCENARIO))
        out = tmp_path / "o.json"
        main(["simulate", "--scenario", str(scenario), "--seed", "3", "--out", str(out)])
        payload = json.loads(out.read_text())
        log = payload["outcome"]["round_log"]
        assert log[0]["round"] == 1
        assert all("offers" in e and "announced_price" in e for e in log)
        assert payload["metadata"]["seed"] == 3

    def test_undersubscribed_is_numeric_failure(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        bad = {"config": {"target_quantity": 100, "opening_price": 50},
               "strategies": [{"kind": "constant", "quantity": 1}]}
        scenario.write_text(json.dumps(bad))
        rc = main(["simulate", "--scenario", str(scenario), "--out",
                   str(tmp_path / "o.json")])
        assert rc == 3
        assert "error code=3" in capsys.readouterr().err

    def test_price_at_or_below_zero_is_numeric_failure(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        bad = {"config": {"target_quantity": 5, "opening_price": 10, "price_decrement": 3},
               "strategies": [{"kind": "threshold_exit", "quantity": 10, "threshold": -5},
                              {"kind": "constant", "quantity": 1}]}
        scenario.write_text(json.dumps(bad))
        out = tmp_path / "o.json"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error code=3 reason=announced price must be positive (round 5: -2)\n")
        assert not out.exists()

    @pytest.mark.parametrize("config,quantity,reason", [
        ({"target_quantity": math.nan, "opening_price": 100}, 5,
         "target quantity must be positive"),
        ({"target_quantity": 5, "opening_price": math.nan}, 5,
         "opening price must be positive"),
        ({"target_quantity": 5, "opening_price": 100}, math.nan,
         "non-finite offer nan from bidder B1 in round 1"),
    ], ids=["nan_target", "nan_opening_price", "nan_offer"])
    def test_nan_in_scenario_is_numeric_failure(self, tmp_path, capsys, config, quantity,
                                                reason):
        # json.dumps writes the NaN token, which json.load accepts
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(
            {"config": config, "strategies": [{"kind": "constant", "quantity": quantity}]}))
        out = tmp_path / "o.json"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error code=3 reason={reason}\n"
        assert not out.exists()


class TestEventStudyCommand:
    @pytest.fixture
    def futures_fixture(self, tmp_path, rng):
        lines = ["contract_id,market,zone,date,settle,volume,open_interest"]
        day = date(2007, 1, 1)
        dates = []
        for i in range(120):
            vol = int(rng.integers(50, 150))
            oi = int(rng.integers(500, 700))
            lines.append(f"Q1,OMEL,ES,{day.isoformat()},50.0,{vol},{oi}")
            dates.append(day)
            day += timedelta(days=1)
        futures = tmp_path / "f.csv"
        futures.write_text("\n".join(lines) + "\n")
        events = tmp_path / "e.csv"
        events.write_text("date\n" + "\n".join(d.isoformat() for d in (dates[30], dates[80])) + "\n")
        return futures, events

    def test_eleven_offset_rows(self, tmp_path, futures_fixture):
        futures, events = futures_fixture
        out = tmp_path / "out"
        rc = main(["event-study", "--futures", str(futures), "--measure", "volume",
                   "--events", str(events), "--window", "-5", "5", "--out", str(out)])
        assert rc == 0
        rows = read_csv_skipping_comments(out / "event_study.csv")
        assert rows[0] == ["offset", "t_stat", "sig01", "sig05"]
        assert len(rows) == 12
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(-5, 6)]

    def test_activity_command(self, tmp_path, futures_fixture):
        futures, _ = futures_fixture
        out = tmp_path / "out"
        rc = main(["activity", "--futures", str(futures), "--measure", "r1",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv_skipping_comments(out / "activity_r1.csv")
        assert rows[0][:2] == ["contract_id", "measure"]
        assert len(rows) == 121


class TestRegressCommand:
    def test_regress_json_output(self, tmp_path, rng):
        lines = ["unit,period,y,vol3y,startbidders,wbidders"]
        for u in ("ACE", "JCPL", "PSEG", "RECO"):
            for t in range(2007, 2014):
                lines.append(f"{u},{t},{rng.normal():.6f},{rng.uniform(8, 30):.4f},"
                             f"{rng.integers(15, 33)},{rng.integers(8, 16)}")
        panel = tmp_path / "panel.csv"
        panel.write_text("\n".join(lines) + "\n")
        out = tmp_path / "result.json"
        rc = main(["regress", "--panel", str(panel), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        for key in ("coefficients", "r_squared", "adj_r_squared", "rss", "rmse"):
            assert key in payload
        assert set(payload["coefficients"]) >= {"const", "vol3y", "startbidders", "wbidders"}


class TestErrorsAndConfig:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        rc = main(["ingest", "--kind", "spot", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error code=2" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self, capsys):
        rc = main(["premium", "--nonsense"])
        assert rc == 1
        assert "error code=1" in capsys.readouterr().err

    def test_config_file_defaults_and_flag_priority(self, tmp_path, omel_fixture):
        auctions, spot, fmpi = omel_fixture
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"auctions={auctions}\nspot={spot}\nspot_mode=strict\n")
        out = tmp_path / "out"
        rc = main(["premium", "--config", str(cfg), "--spot-mode", "available",
                   "--out", str(out)])
        assert rc == 0
        header_line = (out / "premiums.csv").read_text().splitlines()[1]
        assert '"spot_mode": "available"' in header_line

    def test_ingest_round_trip(self, tmp_path, omel_fixture):
        auctions, spot, fmpi = omel_fixture
        out = tmp_path / "norm"
        rc = main(["ingest", "--kind", "auctions", "--input", str(auctions),
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert summary["rows_accepted"] == 2

    def test_config_flag_without_value_is_usage_error(self, capsys):
        rc = main(["premium", "--config"])
        assert rc == 1
        assert "error code=1" in capsys.readouterr().err

    def test_spot_file_without_needed_zone_is_data_error(self, tmp_path, omel_fixture, capsys):
        auctions, _, _ = omel_fixture
        spot = tmp_path / "pjm_spot.csv"
        spot.write_text("market,zone,date,price\nPJM,ACE,2007-07-01,50\n")
        rc = main(["premium", "--auctions", str(auctions), "--spot", str(spot),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error code=2" in err and "OMEL/ES" in err

    @pytest.mark.parametrize("flag", ["--fmpi", "--averages", "--prices", "--panel"])
    def test_non_number_in_cli_table_is_data_error(self, tmp_path, omel_fixture, flag, capsys):
        auctions, spot, _ = omel_fixture
        bad = tmp_path / "bad.csv"
        premium = ["premium", "--auctions", str(auctions), "--spot", str(spot),
                   "--out", str(tmp_path / "o")]
        text, argv, reason = {
            "--fmpi": ("market,key,fmpi\nOMEL,Q3-07,44.45\nOMEL,Q4-07,{}\n", premium,
                       "line 3: unparseable fmpi '{}'"),
            "--averages": ("market,zone,year,avg_price\nPJM,ACE,2007,{}\n", premium,
                           "line 2: unparseable avg_price '{}'"),
            "--prices": ("month,price\n1,50\n2,{}\n", ["fmpi"],
                         "line 3: unparseable price '{}'"),
            "--panel": ("unit,period,y,vol3y,startbidders,wbidders\nACE,2007,1,2,3,{}\n",
                        ["regress", "--out", str(tmp_path / "r.json")],
                        "line 2: unparseable wbidders '{}'"),
        }[flag]
        for cell in ("abc", "nan", "inf", "-inf"):
            bad.write_text(text.format(cell))
            rc = main([*argv, flag, str(bad)])
            assert rc == 2
            err = capsys.readouterr().err
            assert "error code=2" in err and reason.format(cell) in err

    def test_non_finite_json_is_numeric_error(self, tmp_path, capsys):
        # y = 0 fits exactly: every standard error is 0 and every t statistic inf
        lines = ["unit,period,y,vol3y,startbidders,wbidders"]
        for i, u in enumerate(("ACE", "JCPL", "PSEG", "RECO")):
            for t in range(2007, 2012):
                lines.append(f"{u},{t},0,{10 + i + 0.7 * (t % 5)},{20 + t % 3},{8 + i}")
        panel = tmp_path / "panel.csv"
        panel.write_text("\n".join(lines) + "\n")
        out = tmp_path / "result.json"
        rc = main(["regress", "--panel", str(panel), "--no-period-effects", "--out", str(out)])
        assert rc == 3
        assert "error code=3" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.linalg"])
def test_cli_import_leaves_scipy_stats_out(module):
    env = dict(os.environ, PYTHONPATH=str(Path(powerauctions.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", "import powerauctions.cli, sys; "
                    f"assert {module!r} not in sys.modules"], env=env, check=True)
