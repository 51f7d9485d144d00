import ast
import contextlib
import copy
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import powerauctions
from powerauctions import auction_engine, market_data
from powerauctions.auction_engine import (ClockAuctionConfig, ConstantSupply, StochasticExit,
                                          StochasticShrink, ThresholdExit)
from powerauctions.cli import _build_parser, build_scenario, main
from powerauctions.datasets import PJM_AUCTIONS
from powerauctions.market_data import MarketZone, SpotPriceSeries, write_spot_csv
from powerauctions.premiums import FmpiSpec, fmpi_strip, pjm_premium

from test_panel import oracle_panels

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
        rc = main(["report", "--auctions", str(auctions), "--spot", str(spot),
                   "--fmpi", str(fmpi), "--out", str(out)])
        assert rc == 0
        rows = read_csv_skipping_comments(out / "premiums.csv")
        header, data = rows[0], rows[1:]
        assert header[0] == "auction_ref"
        by_ref = {r[0]: r for r in data}
        assert float(by_ref["Q3-07"][header.index("premium")]) == pytest.approx(9.82, abs=0.01)
        assert float(by_ref["Q4-07"][header.index("premium")]) == pytest.approx(-9.33, abs=0.01)
        assert float(by_ref["Q3-07"][header.index("fmpi_premium")]) == pytest.approx(1.82, abs=0.01)
        summary = json.loads((out / "report.json").read_text())
        assert "2007" in summary["aggregates"]["groups"]

    def test_outputs_carry_metadata_header(self, tmp_path, omel_fixture):
        auctions, spot, fmpi = omel_fixture
        out = tmp_path / "out"
        main(["report", "--auctions", str(auctions), "--spot", str(spot),
              "--out", str(out)])
        first = (out / "premiums.csv").read_text().splitlines()[0]
        assert first.startswith("# powerauctions")

    def test_inputs_not_mutated(self, tmp_path, omel_fixture):
        auctions, spot, fmpi = omel_fixture
        before = auctions.read_bytes(), spot.read_bytes()
        main(["report", "--auctions", str(auctions), "--spot", str(spot),
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

    @pytest.mark.parametrize("config,strategy,reason", [
        ({"target_quantity": math.nan, "opening_price": 100}, {"kind": "constant", "quantity": 5},
         "target quantity must be positive"),
        ({"target_quantity": 5, "opening_price": math.nan}, {"kind": "constant", "quantity": 5},
         "opening price must be positive"),
        ({"target_quantity": 5, "opening_price": 100}, {"kind": "constant", "quantity": math.nan},
         "non-finite offer nan from bidder B1 in round 1"),
        # a NaN low used to end in an OverflowError traceback from rng.uniform
        ({"target_quantity": 5, "opening_price": 100},
         {"kind": "stochastic_shrink", "quantity": 10, "low": math.nan},
         "StochasticShrink.low must be finite, got nan"),
        ({"target_quantity": 5, "opening_price": 100},
         {"kind": "stochastic_shrink", "quantity": 10, "low": -math.inf},
         "StochasticShrink.low must be finite, got -inf"),
        # a NaN exit probability used to mean "never exits"
        ({"target_quantity": 5, "opening_price": 100},
         {"kind": "stochastic_exit", "quantity": 10, "exit_probability": math.nan},
         "StochasticExit.exit_probability must be finite, got nan"),
        # this auction used to close in round 1, before the bidder's first draw
        ({"target_quantity": 5, "opening_price": 100},
         {"kind": "stochastic_shrink", "quantity": 5, "low": 1.5},
         "StochasticShrink.low must be at most 1, got 1.5"),
        # json reads 1e999 as inf: an infinite decrement used to announce nan
        # in round 1, and an infinite opening price to stop at round 2
        ({"target_quantity": 1e999, "opening_price": 100}, {"kind": "constant", "quantity": 5},
         "target quantity must be finite, got inf"),
        ({"target_quantity": 5, "opening_price": 1e999}, {"kind": "constant", "quantity": 5},
         "opening price must be finite, got inf"),
        ({"target_quantity": 5, "opening_price": 100, "price_decrement": 1e999},
         {"kind": "constant", "quantity": 10}, "price decrement must be finite, got inf"),
    ], ids=["nan_target", "nan_opening_price", "nan_offer", "nan_low", "inf_low",
            "nan_exit_probability", "low_above_one", "inf_target", "inf_opening_price",
            "inf_decrement"])
    def test_nan_in_scenario_is_numeric_failure(self, tmp_path, capsys, config, strategy,
                                                reason):
        # json.dumps writes the NaN token, which json.load accepts
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"config": config, "strategies": [strategy]}))
        out = tmp_path / "o.json"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error code=3 reason={reason}\n"
        assert not out.exists()


    def test_zero_max_rounds_is_numeric_failure(self, tmp_path, capsys):
        # used to end in an IndexError traceback from the empty round log
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "config": {"target_quantity": 5, "opening_price": 10, "max_rounds": 0},
            "strategies": [{"kind": "constant", "quantity": 10}]}))
        out = tmp_path / "o.json"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error code=3 reason=max rounds must be an integer >= 1, got 0\n")
        assert not out.exists()


# --- scenario schema ---------------------------------------------------------

_KINDS = {"constant": ConstantSupply, "threshold_exit": ThresholdExit,
          "stochastic_exit": StochasticExit, "stochastic_shrink": StochasticShrink}
_POSITIVE = st.one_of(st.integers(1, 500), st.floats(0.01, 500.0))
_ANY_NUMBER = st.one_of(st.integers(-50, 50), st.floats(-50.0, 50.0))


@st.composite
def _fields(draw, required: dict, optional: dict) -> dict:
    spec = {name: draw(values) for name, values in required.items()}
    for name, values in optional.items():
        if draw(st.booleans()):
            spec[name] = draw(values)
    return spec


_CONFIG = _fields(
    {"target_quantity": _POSITIVE, "opening_price": _POSITIVE},
    {"price_decrement": _POSITIVE, "max_rounds": st.integers(1, 2000),
     "undershoot_policy": st.sampled_from(["previous_price_prorata",
                                           "previous_price_priority"])})
_STRATEGY_FIELDS = {
    "constant": ({"quantity": _ANY_NUMBER}, {}),
    "threshold_exit": ({"quantity": _ANY_NUMBER, "threshold": _ANY_NUMBER},
                       {"below_quantity": _ANY_NUMBER}),
    "stochastic_exit": ({"quantity": _ANY_NUMBER, "exit_probability": _ANY_NUMBER}, {}),
    # a low above 1 is refused when built (test_nan_in_scenario_is_numeric_failure)
    "stochastic_shrink": ({"quantity": _ANY_NUMBER},
                          {"low": st.one_of(st.integers(-50, 1), st.floats(-50.0, 1.0))}),
}
_STRATEGY = st.sampled_from(sorted(_STRATEGY_FIELDS)).flatmap(
    lambda kind: _fields(*_STRATEGY_FIELDS[kind]).map(lambda spec: {"kind": kind, **spec}))
_SCENARIO = st.fixed_dictionaries({"config": _CONFIG,
                                   "strategies": st.lists(_STRATEGY, min_size=1, max_size=4)})


def _state(strategy) -> dict:
    fields = dict(vars(strategy))
    if "rng" in fields:
        fields["rng"] = fields["rng"].bit_generator.state
    return fields


@settings(max_examples=150, deadline=None)
@given(scenario=_SCENARIO, seed=st.integers(0, 2**32 - 1))
def test_scenario_builds_its_dataclasses(scenario, seed):
    config, strategies, ids = build_scenario(scenario, seed)
    assert config == ClockAuctionConfig(**scenario["config"])
    assert ids is None
    seeds = np.random.SeedSequence(seed).spawn(len(strategies))
    for built, spec, ss in zip(strategies, scenario["strategies"], seeds):
        fields = {k: v for k, v in spec.items() if k != "kind"}
        cls = _KINDS[spec["kind"]]
        if cls in (StochasticExit, StochasticShrink):
            fields["rng"] = np.random.default_rng(ss)
        expected = cls(**fields)
        assert type(built) is cls and _state(built) == _state(expected)
        # JSON numbers are passed on as they are: an int stays an int
        assert all(type(getattr(built, k)) is type(v) for k, v in spec.items() if k != "kind")


# an int seed in [0, 2**160), drawn as up to five uint32 words
_SEEDS = st.one_of(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5).map(
                       lambda words: sum(w << 32 * k for k, w in enumerate(words))),
                   st.integers(0, 2**63 - 1).map(np.int64),
                   st.lists(st.integers(0, 2**64), max_size=6), st.none())
_KIND_SPECS = {"constant": {}, "threshold_exit": {"threshold": 50},
               "stochastic_exit": {"exit_probability": 0.1}, "stochastic_shrink": {}}


@settings(max_examples=60, deadline=None, derandomize=True)
@example(seed=2**128 - 1, n=1000, pattern=sorted(_KIND_SPECS))  # 4 words: the pool's size
@example(seed=2**128, n=1000, pattern=["stochastic_shrink", "constant"])  # 5 words
@example(seed=2**160 - 1, n=7, pattern=["stochastic_exit"])
@example(seed=2022, n=7, pattern=["constant", "stochastic_exit", "threshold_exit",
                                  "stochastic_shrink", "stochastic_shrink", "constant",
                                  "stochastic_exit"])
@given(seed=_SEEDS, n=st.integers(1, 1000),
       pattern=st.lists(st.sampled_from(sorted(_KIND_SPECS)), min_size=1, max_size=6))
def test_random_bidders_get_the_spawned_generators_bit_for_bit(seed, n, pattern):
    # seeds past 2**128 have more uint32 words than the pool holds, which
    # changes where numpy's mixing of a child's spawn key starts
    kinds = [pattern[i % len(pattern)] for i in range(n)]
    scenario = {"config": {"target_quantity": 5, "opening_price": 100},
                "strategies": [{"kind": k, "quantity": 3, **_KIND_SPECS[k]} for k in kinds]}
    _, strategies, _ = build_scenario(scenario, seed)
    drawn = [(i, s.rng) for i, s in enumerate(strategies) if hasattr(s, "rng")]
    assert [i for i, _ in drawn] == [i for i, k in enumerate(kinds) if k.startswith("stochastic")]
    if seed is None and drawn:  # entropy from the OS: rebuild the root from it
        seed = drawn[0][1].bit_generator.seed_seq.entropy
    children = np.random.SeedSequence(seed).spawn(n)
    for i, rng in drawn:
        assert rng.bit_generator.state == np.random.default_rng(children[i]).bit_generator.state


def test_a_built_generator_acts_as_a_spawned_one():
    kinds = ["stochastic_shrink", "constant", "stochastic_exit", "stochastic_shrink"]
    scenario = {"config": {"target_quantity": 5, "opening_price": 100},
                "strategies": [{"kind": k, "quantity": 3, **_KIND_SPECS[k]} for k in kinds]}
    _, strategies, _ = build_scenario(scenario, 2**130 + 17)
    children = np.random.SeedSequence(2**130 + 17).spawn(len(kinds))
    # no two bidders share a generator, so the auction runs in block mode
    rngs = [s.rng for s in strategies if hasattr(s, "rng")]
    assert len({id(r) for r in rngs}) == len({id(r.bit_generator) for r in rngs}) == 3
    assert auction_engine._block_rules(strategies) is not None
    for i in (0, 2, 3):
        rng, expected = strategies[i].rng, np.random.default_rng(children[i])
        seq, child = rng.bit_generator.seed_seq, children[i]
        assert (seq.entropy, seq.spawn_key, seq.pool_size) == (2**130 + 17, (i,), 4)
        assert (seq.pool == child.pool).all()
        assert (seq.generate_state(8) == child.generate_state(8)).all()
        for copied in (copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))):
            assert copied.bit_generator.state == expected.bit_generator.state
            assert copied.bit_generator.seed_seq.state == child.state
        assert [g.bit_generator.state for g in rng.spawn(2)] == [
            g.bit_generator.state for g in expected.spawn(2)]
        assert seq.state == child.state == {"entropy": 2**130 + 17, "spawn_key": (i,),
                                            "pool_size": 4, "n_children_spawned": 2}
        assert repr(seq) == repr(child)
        assert rng.random(5).tolist() == expected.random(5).tolist()


_WRONG_VALUES = {"float": ["10", True, None, [1.0]], "int": [2.5, "3", False, None],
                 "str": [1, None, ["previous_price_prorata"]]}


@settings(max_examples=150, deadline=None)
@given(scenario=_SCENARIO, data=st.data())
def test_bad_scenario_field_is_data_error(scenario, data):
    # one fault per scenario: a mistyped value, a missing required field or an
    # unknown key, in the config or in one strategy
    config_fields = {"target_quantity": "float", "opening_price": "float",
                     "price_decrement": "float", "max_rounds": "int",
                     "undershoot_policy": "str"}
    i = data.draw(st.sampled_from([None, *range(len(scenario["strategies"]))]))
    if i is None:
        where, spec, types = "config", scenario["config"], config_fields
        required = ["target_quantity", "opening_price"]
    else:
        where, spec = f"strategies[{i}]", scenario["strategies"][i]
        required, optional = _STRATEGY_FIELDS[spec["kind"]]
        types = dict.fromkeys([*required, *optional], "float")
        required = list(required)
    fault = data.draw(st.sampled_from(["type", "missing", "unknown"]))
    if fault == "type":
        name = data.draw(st.sampled_from(sorted(types)))
        spec[name] = data.draw(st.sampled_from(_WRONG_VALUES[types[name]]))
        reason = f"{where}.{name}: expected {types[name]}, got {spec[name]!r}"
    elif fault == "missing":
        name = data.draw(st.sampled_from(required))
        del spec[name]
        reason = f"{where}.{name}: missing"
    else:
        name = data.draw(st.sampled_from(["price_schedule", "rng", "seed", "Quantity"]))
        spec[name] = 1.0
        reason = f"{where}.{name}: unknown field"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(scenario))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["simulate", "--scenario", str(path), "--out", str(Path(tmp) / "o.json")])
        assert rc == 2
        assert err.getvalue() == f"error code=2 reason={reason}\n"
        assert not (Path(tmp) / "o.json").exists()


@pytest.mark.parametrize("scenario,reason", [
    ({"config": {"target_quantity": "10", "opening_price": 100},
      "strategies": [{"kind": "constant", "quantity": 12}]},
     "config.target_quantity: expected float, got '10'"),
    ({"config": {"target_quantity": 10, "opening_price": 100},
      "strategies": [{"kind": "constant", "quantity": 12}, {"kind": "threshold_exit",
                                                           "threshold": 50}]},
     "strategies[1].quantity: missing"),
    ({"config": {"target_quantity": 10, "opening_price": 100, "max_rounds": 50.0},
      "strategies": [{"kind": "constant", "quantity": 12}]},
     "config.max_rounds: expected int, got 50.0"),
    ({"config": {"target_quantity": 10, "opening_price": 100},
      "strategies": [{"kind": "auctioneer", "quantity": 12}]},
     "strategies[0].kind: unknown strategy kind 'auctioneer'"),
    ({"config": {"target_quantity": 10, "opening_price": 100}, "strategies": {}},
     "scenario.strategies: expected list, got {}"),
    ({"strategies": [{"kind": "constant", "quantity": 12}]}, "scenario.config: missing"),
    ({"config": {"target_quantity": 10, "opening_price": 100},
      "strategies": [{"kind": "constant", "quantity": 12}], "seed": 3},
     "scenario.seed: unknown field"),
    ({"config": {"target_quantity": 10, "opening_price": 100},
      "strategies": [{"kind": "constant", "quantity": 12}], "bidder_ids": [1]},
     "scenario.bidder_ids: expected str ids, got [1]"),
    ([], "scenario: expected dict, got []"),
    ({"config": {"target_quantity": 10, "opening_price": 100},
      "strategies": [{"kind": "constant", "quantity": 10 ** 400}]},
     "strategies[0].quantity: integer too large for a float"),
    ({"config": {"target_quantity": 10, "opening_price": -10 ** 400},
      "strategies": [{"kind": "constant", "quantity": 12}]},
     "config.opening_price: integer too large for a float"),
    # a kind that cannot be a dict key used to end in a TypeError traceback
    ({"config": {"target_quantity": 10, "opening_price": 100},
      "strategies": [{"kind": [1], "quantity": 12}]},
     "strategies[0].kind: unknown strategy kind [1]"),
    ({"config": {"target_quantity": 10, "opening_price": 100},
      "strategies": [{"kind": {}, "quantity": 12}]},
     "strategies[0].kind: unknown strategy kind {}"),
    ({"config": {"target_quantity": 10, "opening_price": 100}, "strategies": [3]},
     "strategies[0]: expected dict, got 3"),
    ({"config": {"target_quantity": 10, "opening_price": 100},
      "strategies": [{"kind": "constant", "quantity": 12}], "bidder_ids": ["A", "B"]},
     "scenario.bidder_ids: 2 bidder ids for 1 strategies"),
    ({"config": {"target_quantity": 10, "opening_price": 100},
      "strategies": [{"kind": "constant", "quantity": 12}] * 2, "bidder_ids": ["A", "A"]},
     "scenario.bidder_ids: bidder ids must be unique"),
    # used to exit 3, as if the auction had failed
    ({"config": {"target_quantity": 10, "opening_price": 100, "undershoot_policy": "prorata"},
      "strategies": [{"kind": "constant", "quantity": 12}]},
     "config.undershoot_policy: unknown undershoot policy 'prorata'"),
], ids=["string_target", "strategy_without_quantity", "float_max_rounds", "unknown_kind",
        "strategies_not_a_list", "no_config", "unknown_top_level_key", "int_bidder_id",
        "not_an_object", "huge_quantity", "huge_opening_price", "list_kind", "dict_kind",
        "strategy_not_a_dict", "bidder_id_count", "repeated_bidder_id",
        "unknown_undershoot_policy"])
def test_malformed_scenario_file_is_data_error(tmp_path, capsys, scenario, reason):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "o.json"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error code=2 reason={reason}\n"
    assert not out.exists()


def test_integer_past_the_digit_limit_is_data_error(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for it
    path = tmp_path / "s.json"
    path.write_text('{"config": {"target_quantity": 10, "opening_price": %s}, '
                    '"strategies": [{"kind": "constant", "quantity": 12}]}' % ("9" * 5000))
    out = tmp_path / "o.json"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error code=2 reason={path}: invalid JSON (Exceeds the limit")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("nested", ["[" * 1000 + "]" * 1000,
                                    '{"config": ' * 1000 + "1" + "}" * 1000],
                         ids=["array", "object"])
def test_deeply_nested_scenario_is_data_error(tmp_path, capsys, nested):
    # json.loads raises RecursionError, which used to end in a traceback
    path = tmp_path / "s.json"
    path.write_text(nested)
    out = tmp_path / "o.json"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error code=2 reason={path}: JSON nested too deeply\n"
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

    @pytest.mark.parametrize("first", [0, 1])
    def test_window_before_the_event_day_off_the_series_start(self, tmp_path, first):
        # --window -5 -3 around days 0 and 1 lies wholly before the series, so
        # those events add nothing: not to the offsets, nor to the exclusions
        lines = ["contract_id,market,zone,date,settle,volume,open_interest"]
        days = [date(2007, 1, 1) + timedelta(days=i) for i in range(60)]
        lines += [f"Q1,OMEL,ES,{d},50.0,{50 + i * 7 % 31},600" for i, d in enumerate(days)]
        (tmp_path / "f.csv").write_text("\n".join(lines) + "\n")
        rows = {}
        for name, events in (("edge", [days[first], days[30]]), ("alone", [days[30]])):
            (tmp_path / f"{name}.csv").write_text("date\n" + "".join(f"{d}\n" for d in events))
            out = tmp_path / name
            assert main(["event-study", "--futures", str(tmp_path / "f.csv"), "--measure",
                         "volume", "--events", str(tmp_path / f"{name}.csv"), "--window",
                         "-5", "-3", "--out", str(out)]) == 0
            rows[name] = read_csv_skipping_comments(out / "event_study.csv")
        assert rows["edge"] == rows["alone"]
        assert [r[0] for r in rows["edge"][1:]] == ["-5", "-4", "-3"]

    @pytest.mark.parametrize("alpha", ["nan", "0", "1", "1.5"])
    def test_alpha_outside_unit_interval_writes_no_file(self, tmp_path, futures_fixture,
                                                        capsys, alpha):
        futures, events = futures_fixture
        out = tmp_path / "out"
        rc = main(["event-study", "--futures", str(futures), "--measure", "volume",
                   "--events", str(events), "--alpha", alpha, "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error code=3 reason=alpha must lie in (0, 1), got {float(alpha)}\n")
        assert not out.exists()

    def test_reversed_window_is_usage_error(self, tmp_path, futures_fixture, capsys):
        futures, events = futures_fixture
        out = tmp_path / "out"
        rc = main(["event-study", "--futures", str(futures), "--measure", "volume",
                   "--events", str(events), "--window", "5", "-5", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error code=1 reason=argument --window: lower bound 5 exceeds upper bound -5\n")
        assert not out.exists()

    def test_window_beyond_the_series_is_usage_error(self, tmp_path, futures_fixture, capsys):
        # an offset past +-(n - 1) holds no event, and a window of 10^20 such
        # offsets would never finish: found once the 120-day series is read
        futures, events = futures_fixture
        out = tmp_path / "out"
        for window, code in ((("-119", "-40"), 0), (("40", "119"), 0), (("-120", "-40"), 1),
                             (("40", "120"), 1), (("-1", "99999999999999999999"), 1)):
            rc = main(["event-study", "--futures", str(futures), "--measure", "volume",
                       "--events", str(events), "--window", *window, "--out", str(out)])
            assert rc == code, window
            err = capsys.readouterr().err
            if code:
                assert err == (f"error code=1 reason=argument --window: a series of 120 days "
                               f"has offsets -119 to 119, got {window[0]} {window[1]}\n")
            else:
                assert len(read_csv_skipping_comments(out / "event_study.csv")) == 1 + 80
            shutil.rmtree(out, ignore_errors=True)

    def test_json_failure_writes_no_csv(self, tmp_path, futures_fixture, capsys, monkeypatch):
        # the summary's JSON text is made before event_study.csv is written
        from powerauctions import activity

        tally = activity.significance_tally
        monkeypatch.setattr(activity, "significance_tally", lambda results, alpha:
                            dataclasses.replace(tally(results, alpha), total=math.nan))
        futures, events = futures_fixture
        out = tmp_path / "out"
        rc = main(["event-study", "--futures", str(futures), "--measure", "volume",
                   "--events", str(events), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (f"error code=3 reason={out}/event_study_summary.json: "
                                           "non-finite number in JSON output\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["activity", "event-study"])
    def test_futures_file_without_rows_is_data_error(self, tmp_path, futures_fixture, capsys,
                                                     command):
        _, events = futures_fixture
        futures = tmp_path / "empty.csv"
        futures.write_text("contract_id,market,zone,date,settle,volume,open_interest\n")
        out = tmp_path / "out"
        argv = [command, "--futures", str(futures), "--measure", "r1", "--out", str(out)]
        with pytest.warns(UserWarning, match="no data rows"):
            rc = main(argv + ["--events", str(events)] * (command == "event-study"))
        assert rc == 2
        assert capsys.readouterr().err == f"error code=2 reason={futures}: no contracts\n"
        assert not out.exists()

    def test_events_file_without_dates_is_data_error(self, tmp_path, futures_fixture):
        futures, _ = futures_fixture
        events = tmp_path / "no_events.csv"
        events.write_text("date\n")
        out = tmp_path / "out"
        assert run_main(["event-study", "--futures", str(futures), "--measure", "volume",
                         "--events", str(events), "--out", str(out)]) == (
            2, "", f"warning: {events}: no data rows\n"
                   f"error code=2 reason={events}: no event dates\n")
        assert not out.exists()

    def test_empty_input_warning_is_one_line(self, tmp_path):
        futures = tmp_path / "empty.csv"
        futures.write_text("contract_id,market,zone,date,settle,volume,open_interest\n")
        env = dict(os.environ, PYTHONPATH=str(Path(powerauctions.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "powerauctions.cli", "activity", "--futures",
                              str(futures), "--measure", "r1", "--out", str(tmp_path / "out")],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr.splitlines() == [f"warning: {futures}: no data rows",
                                           f"error code=2 reason={futures}: no contracts"]

    def test_each_main_call_shows_its_warnings(self, tmp_path):
        # Python shows a warning once per code location: the second call in
        # one process used to print no warning line
        prices = tmp_path / "empty.csv"
        prices.write_text("month,price\n")
        env = dict(os.environ, PYTHONPATH=str(Path(powerauctions.__file__).parents[1]))
        script = ("import sys\nfrom powerauctions.cli import main\n"
                  "for _ in range(2):\n    main(['fmpi', '--prices', sys.argv[1]])\n")
        run = subprocess.run([sys.executable, "-c", script, str(prices)],
                             env=env, capture_output=True, text=True)
        assert run.stderr.splitlines() == [
            f"warning: {prices}: no data rows",
            "error code=3 reason=strip needs 36 monthly prices, got 0"] * 2

    def test_activity_command(self, tmp_path, futures_fixture):
        futures, _ = futures_fixture
        out = tmp_path / "out"
        rc = main(["activity", "--futures", str(futures), "--measure", "r1",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv_skipping_comments(out / "activity_r1.csv")
        assert rows[0][:2] == ["contract_id", "measure"]
        assert len(rows) == 121


class TestNoFileFromAFailedRun:
    """A report run computes every number before it writes a file."""

    def test_auctions_without_rows(self, tmp_path, omel_fixture, capsys):
        _, spot, _ = omel_fixture
        auctions = tmp_path / "empty.csv"
        auctions.write_text(AUCTIONS_HEADER)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="no data rows"):
            rc = main(["report", "--auctions", str(auctions), "--spot", str(spot),
                       "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "error code=3 reason=no rows to aggregate\n"
        assert not out.exists()

    def test_report_whose_tests_fail(self, tmp_path, capsys):
        # equal premiums in both years: the equality-of-means tests have no variance
        auctions = tmp_path / "auctions.csv"
        auctions.write_text(AUCTIONS_HEADER + "".join(
            f"OMEL,{i},{day},{key},{start},{end},baseload,fixed_quantity,46,1800,30,15,23\n"
            for i, (day, key, start, end) in enumerate([
                ("2007-06-19", "Q3-07", "2007-07-01", "2007-09-30"),
                ("2007-09-18", "Q4-07", "2007-10-01", "2007-12-31"),
                ("2008-03-13", "Q2-08", "2008-04-01", "2008-06-30"),
                ("2008-06-17", "Q3-08", "2008-07-01", "2008-09-30")], start=1)))
        days = [date(2007, 7, 1) + timedelta(days=i) for i in range(460)]
        spot = tmp_path / "spot.csv"
        spot.write_text("market,zone,date,price\n" + "".join(f"OMEL,ES,{d},40\n" for d in days))
        out = tmp_path / "out"
        rc = main(["report", "--auctions", str(auctions), "--spot", str(spot),
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error code=3 reason=")
        assert not out.exists()


class TestPjmReport:
    """``report`` on two PJM zones over two years, with costs and averages."""

    AUCTIONS = [a for a in PJM_AUCTIONS if a.zone in ("ACE", "JCPL") and a.year in (2007, 2008)]

    @pytest.fixture
    def pjm_inputs(self, tmp_path):
        # one month of delivery per auction, at the published spot average
        auctions, spot, costs, averages = (tmp_path / f"{name}.csv" for name in (
            "auctions", "spot", "costs", "averages"))
        auctions.write_text(AUCTIONS_HEADER + "".join(
            f"PJM,{i},{a.year}-02-05,{a.zone}-{a.year},{a.year}-06-01,{a.year}-06-30,"
            f"baseload,full_requirements,{a.bgsfp_price},1000,30,15,23\n"
            for i, a in enumerate(self.AUCTIONS, start=1)))
        spot.write_text("market,zone,date,price\n" + "".join(
            f"PJM,{a.zone},{a.year}-06-{d:02d},{a.spot_avg}\n"
            for a in self.AUCTIONS for d in range(1, 31)))
        costs.write_text("market,zone,year,unit_cost\n" + "".join(
            f"PJM,{a.zone},{a.year},{a.costs}\n" for a in self.AUCTIONS))
        averages.write_text("market,zone,year,avg_price\n" + "".join(
            f"PJM,{a.zone},{a.year},{a.avg_price}\n" for a in self.AUCTIONS))
        return auctions, spot, costs, averages

    @pytest.mark.parametrize("config", [False, True])
    def test_rows_and_equality_of_means(self, tmp_path, pjm_inputs, config):
        auctions, spot, costs, averages = pjm_inputs
        out = tmp_path / "out"
        if config:  # abbreviated flags still name their options next to --config
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"auctions={auctions}\nspot={spot}\n")
            argv = ["--config", str(cfg), "--co", str(costs), "--av", str(averages)]
        else:
            argv = ["--auctions", str(auctions), "--spot", str(spot), "--costs", str(costs),
                    "--averages", str(averages)]
        assert main(["report", *argv, "--out", str(out)]) == 0
        rows = read_csv_skipping_comments(out / "premiums.csv")
        data = [dict(zip(rows[0], r)) for r in rows[1:]]
        assert [(r["auction_ref"], r["group"]) for r in data] == [
            (f"{a.year}-{a.zone}", a.zone) for a in self.AUCTIONS]
        for row, a in zip(data, self.AUCTIONS):
            premium, pct = pjm_premium(a.avg_price, a.costs, a.spot_avg)
            assert float(row["costs"]) == pytest.approx(a.costs, abs=5e-5)
            assert float(row["premium"]) == pytest.approx(premium, abs=5e-5)
            assert float(row["premium_pct"]) == pytest.approx(pct, abs=5e-7)
        (comparison,) = json.loads((out / "report.json").read_text())["equality_of_means"]
        assert (comparison["a"], comparison["b"]) == ("ACE", "JCPL")
        assert 0.0 <= comparison["p"] <= 1.0

    def test_without_side_tables_costs_are_0_and_the_average_is_the_price(self, tmp_path,
                                                                          pjm_inputs):
        auctions, spot, _, _ = pjm_inputs
        out = tmp_path / "out"
        assert main(["report", "--auctions", str(auctions), "--spot", str(spot),
                     "--out", str(out)]) == 0
        rows = read_csv_skipping_comments(out / "premiums.csv")[1:]
        for row, a in zip(rows, self.AUCTIONS, strict=True):
            premium, _ = pjm_premium(a.bgsfp_price, 0.0, a.spot_avg)
            assert float(row[4]) == 0.0
            assert float(row[5]) == pytest.approx(premium, abs=5e-5)

    @pytest.mark.parametrize("flag, what", [("--costs", "cost"), ("--averages", "avg_price")])
    def test_side_table_without_a_products_key_is_data_error(self, tmp_path, pjm_inputs,
                                                             capsys, flag, what):
        # a side table that is given must hold every PJM product's key
        auctions, spot, costs, averages = pjm_inputs
        side = {"--costs": costs, "--averages": averages}[flag]
        side.write_text("".join(line for line in side.read_text().splitlines(keepends=True)
                                if not line.startswith("PJM,ACE,2008,")))
        out = tmp_path / "out"
        assert main(["report", "--auctions", str(auctions), "--spot", str(spot),
                     "--costs", str(costs), "--averages", str(averages),
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error code=2 reason={side}: no {what} row ('PJM', 'ACE', 2008)\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, duplicate", [
        ("--fmpi", "duplicate fmpi row ('PJM', 'ACE-2007')"),
        ("--averages", "duplicate avg_price row ('PJM', 'ACE', 2007)"),
    ], ids=["fmpi", "averages"])
    def test_repeated_key_in_side_table_is_data_error(self, tmp_path, pjm_inputs, capsys,
                                                      flag, duplicate):
        # a key may not repeat; the blank line before the repeat keeps its
        # line number apart from its row number
        auctions, spot, _, averages = pjm_inputs
        side = {"--fmpi": tmp_path / "fmpi.csv", "--averages": averages}[flag]
        lines = {"--fmpi": ["market,key,fmpi", "PJM,ACE-2007,50", "PJM,JCPL-2007,51"],
                 "--averages": averages.read_text().splitlines()}[flag]
        side.write_text("\n".join([*lines, "", lines[1].rsplit(",", 1)[0] + ",1000"]) + "\n")
        out = tmp_path / "out"
        assert main(["report", "--auctions", str(auctions), "--spot", str(spot), flag, str(side),
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error code=2 reason={side} line {len(lines) + 2}: {duplicate}\n")
        assert not out.exists()


class TestContractSelection:
    @pytest.fixture
    def futures(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("contract_id,market,zone,date,settle,volume,open_interest\n" + "".join(
            f"{c},OMEL,ES,2007-01-{d:02d},50,{d + k},{100 + d * k}\n"
            for k, c in enumerate(("A", "B"), start=1) for d in range(1, 11)))
        return path

    def test_contract_picks_the_named_series(self, tmp_path, futures):
        out = tmp_path / "out"
        assert main(["activity", "--futures", str(futures), "--measure", "volume",
                     "--contract", "B", "--out", str(out)]) == 0
        rows = read_csv_skipping_comments(out / "activity_volume.csv")[1:]
        assert {r[0] for r in rows} == {"B"}
        assert [float(r[3]) for r in rows] == [d + 2.0 for d in range(1, 11)]

    def test_unknown_contract_is_data_error(self, tmp_path, futures, capsys):
        assert main(["activity", "--futures", str(futures), "--measure", "volume",
                     "--contract", "X", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error code=2 reason=contract 'X' not found in {futures}\n")

    def test_several_contracts_need_contract(self, tmp_path, futures, capsys):
        assert main(["activity", "--futures", str(futures), "--measure", "volume",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error code=1 reason=--contract required when "
                                           "the futures file holds several contracts\n")
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("y, cause", [
        ("0", "y is 0.0 in every observation"),
        ("1.5", "y is 1.5 in every observation"),
        ("{vol3y}", "y is a linear combination of the design's columns"),
    ], ids=["zero", "constant", "covariate"])
    def test_exact_fit_is_numeric_error(self, tmp_path, capsys, y, cause):
        # y = 1.5 used to exit 0 with a const t statistic of 6e14 and noise
        # t statistics for the other columns
        lines = ["unit,period,y,vol3y,startbidders,wbidders"]
        for i, u in enumerate(("ACE", "JCPL", "PSEG", "RECO")):
            for t in range(2007, 2012):
                vol3y = 10 + i + 0.7 * (t % 5)
                lines.append(f"{u},{t},{y.format(vol3y=vol3y)},{vol3y},{20 + t % 3},{8 + i}")
        panel = tmp_path / "panel.csv"
        panel.write_text("\n".join(lines) + "\n")
        out = tmp_path / "result.json"
        rc = main(["regress", "--panel", str(panel), "--no-period-effects", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error code=3 reason=exact fit: {cause}, "
            "so no standard error or t statistic is defined\n")
        assert not out.exists()

    def test_round_off_standard_error_is_numeric_error(self, tmp_path, capsys):
        # acceptance 7's trial-69 panel (2 units, 3 periods), its covariate
        # named vol3y: regress used to write a std_error of 1.68e-16 and a
        # t_stat of 2.5e15 for it
        _, rows, _, _ = next(trial for trial in oracle_panels() if trial[0] == 69)
        panel = tmp_path / "panel.csv"
        panel.write_text("unit,period,y,vol3y,startbidders,wbidders\n" + "".join(
            f"{o.unit},{o.period},{o.y!r},{o.covariates['x0']!r},20,5\n" for o in rows))
        out = tmp_path / "result.json"
        assert main(["regress", "--panel", str(panel), "--covariates", "vol3y",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error code=3 reason='vol3y': cluster-robust variance 0 up to round-off "
            "(2 clusters leave the score covariance rank at most 1), "
            "so no standard error or t statistic is defined\n")
        assert list(tmp_path.iterdir()) == [panel]

    @pytest.mark.parametrize("covariates", ["vol3y,foo", "pls", "y"])
    def test_covariate_without_column_is_data_error(self, tmp_path, capsys, covariates):
        # used to exit 3 from the fit: observation (ACE, 2007) missing covariate 'foo'
        panel = tmp_path / "panel.csv"
        panel.write_text("unit,period,y,vol3y,startbidders,wbidders\n" + "".join(
            f"{u},{t},{t % 3},{t % 5},20,{t % 7}\n"
            for u in ("ACE", "JCPL") for t in range(2007, 2011)))
        out = tmp_path / "result.json"
        assert main(["regress", "--panel", str(panel), "--covariates", covariates,
                     "--out", str(out)]) == 2
        name = covariates.split(",")[-1]
        assert capsys.readouterr().err == (
            f"error code=2 reason={panel}: {name!r} is not a covariate column\n")
        assert not out.exists()

    def test_covariate_listed_twice_is_numeric_error(self, tmp_path, capsys):
        # used to be reported as having the name of another design column
        panel = tmp_path / "panel.csv"
        panel.write_text("unit,period,y,vol3y,startbidders,wbidders\n" + "".join(
            f"{u},{t},{t % 3 + i},{t % 5},20,{t % 7}\n"
            for i, u in enumerate(("ACE", "JCPL")) for t in range(2007, 2011)))
        out = tmp_path / "result.json"
        assert main(["regress", "--panel", str(panel), "--covariates", "vol3y,vol3y",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error code=3 reason=covariate 'vol3y' is listed twice\n"
        assert not out.exists()

    def test_unit_effects_output_is_the_same_under_any_blas_thread_count(self, tmp_path):
        # with the 99 unit dummies in the QR, 18 standard errors and t
        # statistics of a G = 100, T = 20 panel differed in the last bit
        rng = np.random.default_rng(25)
        panel = tmp_path / "panel.csv"
        panel.write_text("unit,period,y,vol3y,startbidders,wbidders\n" + "".join(
            f"Z{u:03d},{2000 + t},{float(rng.normal(10 + u % 5, 3))!r},"
            f"{float(rng.uniform(5, 25))!r},{rng.integers(10, 40)},{rng.integers(1, 10)}\n"
            for u in range(100) for t in range(20)))
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"regress_{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(powerauctions.__file__).parents[1]))
            subprocess.run([sys.executable, "-m", "powerauctions.cli", "regress", "--panel",
                            str(panel), "--unit-effects", "--out", str(out)],
                           env=env, check=True, capture_output=True)
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("covariates", [",", "", " , "])
    def test_no_covariate_is_usage_error(self, tmp_path, capsys, covariates):
        # checked before the panel is read: this one does not exist
        out = tmp_path / "result.json"
        assert main(["regress", "--panel", str(tmp_path / "none.csv"), "--covariates",
                     covariates, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error code=1 reason=argument --covariates: names no covariate\n")
        assert not out.exists()


class TestErrorsAndConfig:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        rc = main(["ingest", "--kind", "spot", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error code=2" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self, capsys):
        rc = main(["report", "--nonsense"])
        assert rc == 1
        assert "error code=1" in capsys.readouterr().err

    def test_premium_is_not_a_subcommand(self, tmp_path, omel_fixture, capsys):
        # report is the one premiums command
        auctions, spot, _ = omel_fixture
        rc = main(["premium", "--auctions", str(auctions), "--spot", str(spot),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error code=1 reason=argument command: invalid choice: 'premium'")
        assert not (tmp_path / "o").exists()

    def test_reason_and_warning_stay_one_line(self, tmp_path, monkeypatch):
        # a config key or a file name that holds a line break went into the
        # reason or the warning as it was, and split its line in two
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("s\veed=abc\n")
        (tmp_path / "no\nrows.csv").write_text("month,price\n")
        assert run_main(["--config", "run.cfg", "fmpi", "--prices", "p.csv"]) == (
            1, "", "error code=1 reason=unrecognized arguments: --s\\x0beed abc\n")
        assert run_main(["fmpi", "--prices", "no\nrows.csv"]) == (
            3, "", "warning: no\\nrows.csv: no data rows\n"
                   "error code=3 reason=strip needs 36 monthly prices, got 0\n")

    @pytest.mark.parametrize("argv, command", [
        (["--help"], None), (["-h", "fmpi"], None), (["fmpi", "--help"], "fmpi"),
        (["simulate", "--seed", "-1", "-h"], "simulate"),
        (["--config", "run.cfg", "regress"], "regress"), (["--config", "run.cfg"], None)])
    def test_help_prints_and_returns(self, tmp_path, monkeypatch, argv, command):
        # argparse ends its help action with parser.exit, which raised SystemExit(0)
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("help=true\n")
        parser = _build_parser()
        text = (parser.commands[command] if command else parser).format_help()
        assert run_main(argv) == (0, text, "")
        assert os.listdir() == ["run.cfg"]

    def test_config_file_defaults_and_flag_priority(self, tmp_path, omel_fixture):
        auctions, spot, fmpi = omel_fixture
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"auctions={auctions}\nspot={spot}\nspot_mode=strict\n")
        out = tmp_path / "out"
        rc = main(["report", "--config", str(cfg), "--spot-mode", "available",
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

    @pytest.mark.parametrize("kind", ["auctions", "costs"])
    def test_ingest_of_a_file_without_rows_writes_its_header(self, tmp_path, kind):
        # an empty block of columns used to end the writer in a TypeError
        header = {"auctions": AUCTIONS_HEADER, "costs": "market,zone,year,unit_cost\n"}[kind]
        source, out = tmp_path / "in.csv", tmp_path / "norm"
        source.write_text(header)
        code, stdout, stderr = run_main(["ingest", "--kind", kind, "--input", str(source),
                                         "--out", str(out)])
        assert (code, stdout) == (0, f"ingest ok kind={kind} rows=0\n")
        assert f"{source}: no data rows" in stderr
        assert (out / f"{kind}.csv").read_bytes() == header.replace("\n", "\r\n").encode()

    def test_ingest_spot_writes_each_zone_alone(self, tmp_path):
        spot = tmp_path / "spot.csv"
        spot.write_text("market,zone,date,price\n" + "".join(
            f"PJM,{zone},2007-01-{day:02d},{day + len(zone)}\n"
            for day in range(1, 6) for zone in ("ACE", "RECO")))
        out = tmp_path / "norm"
        assert main(["ingest", "--kind", "spot", "--input", str(spot), "--out", str(out)]) == 0
        days = tuple(date(2007, 1, day) for day in range(1, 6))
        for zone in ("ACE", "RECO"):
            write_spot_csv(tmp_path / "alone.csv", SpotPriceSeries(
                MarketZone("PJM", zone), days, np.array([d.day + len(zone) for d in days])))
            assert (out / f"spot_PJM_{zone}.csv").read_bytes() == (
                tmp_path / "alone.csv").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == [
            "ingest_summary.json", "spot_PJM_ACE.csv", "spot_PJM_RECO.csv"]

    def test_fmpi_with_and_without_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("prices.csv").write_text("month,price\n" + "".join(
            f"{m},{40 + m}\n" for m in range(1, 37)))
        value = fmpi_strip(FmpiSpec(tuple(40.0 + m for m in range(1, 37))))
        stdout = json.dumps({"strip_value": value}) + "\n"
        assert main(["fmpi", "--prices", "prices.csv"]) == 0
        assert capsys.readouterr().out == stdout
        assert sorted(os.listdir()) == ["prices.csv"]
        assert main(["fmpi", "--prices", "prices.csv", "--out", "fmpi/strip.json"]) == 0
        assert capsys.readouterr().out == stdout
        payload = json.loads(Path("fmpi/strip.json").read_text())
        assert (payload["strip_value"], payload["n_prices"], payload["annual_rate"]) == (
            value, 36, 0.0)

    def test_failed_ingest_creates_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("market,zone,day,price\nOMEL,ES,2007-07-01,50\n")
        out = tmp_path / "norm"
        assert main(["ingest", "--kind", "spot", "--input", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error code=2 reason=")
        assert not out.exists()

    def test_config_flag_without_value_is_usage_error(self, capsys):
        rc = main(["report", "--config"])
        assert rc == 1
        assert "error code=1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, seed", [
        (["--config=CFG"], 5), (["--seed=7", "--config", "CFG"], 7),
        (["--config=CFG", "--seed", "7"], 7), (["--se", "7", "--config", "CFG"], 7),
        (["--se=7", "--config", "CFG"], 7)])
    def test_config_and_flags_in_equals_form(self, tmp_path, argv, seed):
        # --config=FILE is read, and a flag written --flag=value or abbreviated
        # still wins
        scenario, cfg = tmp_path / "s.json", tmp_path / "run.cfg"
        scenario.write_text(json.dumps(TestSimulateCommand.SCENARIO))
        cfg.write_text(f"scenario={scenario}\nseed=5\n")
        out = tmp_path / "o.json"
        argv = [a.replace("CFG", str(cfg)) for a in argv]
        assert main(["simulate", *argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["metadata"]["seed"] == seed

    @pytest.mark.parametrize("value, dropped", [("true", True), ("false", False)])
    def test_config_on_off_flag(self, tmp_path, value, dropped):
        panel, cfg = tmp_path / "panel.csv", tmp_path / "run.cfg"
        panel.write_text("unit,period,y,vol3y,startbidders,wbidders\n" + "".join(
            f"{u},{t},{(i * 7 + t) % 5 - 2},{8 + (i * 3 + t) % 7},{20 + (t * i) % 4},{5 + i}\n"
            for i, u in enumerate(("ACE", "JCPL", "PSEG", "RECO")) for t in range(2007, 2013)))
        cfg.write_text(f"panel={panel}\nno_period_effects={value}\n")
        out = tmp_path / "o.json"
        assert main(["regress", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["config"]["no_period_effects"] is dropped
        assert ("period_2008" in payload["coefficients"]) is not dropped

    def test_config_two_values(self, tmp_path):
        futures, events, cfg = tmp_path / "f.csv", tmp_path / "e.csv", tmp_path / "run.cfg"
        futures.write_text("contract_id,market,zone,date,settle,volume,open_interest\n" + "".join(
            f"A,OMEL,ES,2007-01-{d:02d},50,{d % 4 + 1},{10 + d}\n" for d in range(1, 29)))
        events.write_text("date\n2007-01-14\n")
        cfg.write_text(f"futures={futures}\nevents={events}\nwindow=-3 3\n")
        out = tmp_path / "out"
        assert main(["event-study", "--config", str(cfg), "--measure", "volume",
                     "--out", str(out)]) == 0
        rows = read_csv_skipping_comments(out / "event_study.csv")
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(-3, 4)]

    @pytest.mark.parametrize("line, reason", [
        ("no_period_effects=yes", "config key no_period_effects: expected true or false, "
                                  "got 'yes'"),
        ("no_period_effects=", "config key no_period_effects: expected true or false, got ''"),
        ("window=1", "config key window: expected 2 values, got '1'"),
        ("window=1 2 3", "config key window: expected 2 values, got '1 2 3'")])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, line, reason):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        command = "regress" if line.startswith("no_") else "event-study"
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error code=1 reason={reason}\n"

    @pytest.mark.parametrize("line, flag, reason", [
        ("seed=abc", ["--seed", "7"], "argument --seed: invalid int value: 'abc'"),
        ("no_period_effects=yes", ["--no-period-effects"],
         "config key no_period_effects: expected true or false, got 'yes'")])
    def test_config_value_is_parsed_under_a_flag(self, tmp_path, capsys, line, flag, reason):
        # the flag wins, but the key it overrides must still be a valid value
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        command = "simulate" if line.startswith("seed") else "regress"
        assert main([command, "--config", str(cfg), *flag]) == 1
        assert capsys.readouterr().err == f"error code=1 reason={reason}\n"

    def test_config_is_never_abbreviated(self, tmp_path, capsys):
        # --conf used to be taken for --config, echoed, and the file left unread
        cfg, out = tmp_path / "run.cfg", tmp_path / "o.json"
        cfg.write_text("seed=5\n")
        assert main(["--conf", str(cfg), "simulate", "--scenario", "s.json",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error code=1 reason=argument command: invalid choice: '{cfg}'")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [["--seed", "-1"], ["--seed=-1"]])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, seed):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(TestSimulateCommand.SCENARIO))
        out = tmp_path / "o.json"
        assert main(["simulate", "--scenario", str(scenario), *seed, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error code=1 reason=argument --seed: expected a non-negative integer, got -1\n")
        assert not out.exists()

    def test_spot_file_without_needed_zone_is_data_error(self, tmp_path, omel_fixture, capsys):
        auctions, _, _ = omel_fixture
        spot = tmp_path / "pjm_spot.csv"
        spot.write_text("market,zone,date,price\nPJM,ACE,2007-07-01,50\n")
        rc = main(["report", "--auctions", str(auctions), "--spot", str(spot),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error code=2" in err and "OMEL/ES" in err

    @pytest.mark.parametrize("shape", ["peak", "offpeak"])
    def test_non_baseload_product_is_data_error(self, tmp_path, omel_fixture, shape, capsys):
        # daily prices cannot price a peak or off-peak product; ingest still
        # round-trips its row
        auctions, spot, _ = omel_fixture
        shaped = tmp_path / "shaped.csv"
        shaped.write_text(auctions.read_text().replace(",baseload,", f",{shape},", 1))
        out = tmp_path / "o"
        assert main(["report", "--auctions", str(shaped), "--spot", str(spot),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error code=2 reason=daily spot prices cannot price a {shape} delivery period\n")
        assert not out.exists()
        first, second = tmp_path / "first", tmp_path / "second"
        for source, norm in ((shaped, first), (first / "auctions.csv", second)):
            assert main(["ingest", "--kind", "auctions", "--input", str(source),
                         "--out", str(norm)]) == 0
        written = (first / "auctions.csv").read_text().splitlines()
        assert f",{shape}," in written[-2] and ",baseload," in written[-1]
        assert written[-2:] == (second / "auctions.csv").read_text().splitlines()[-2:]

    @pytest.mark.parametrize("flag", ["--fmpi", "--averages", "--prices", "--panel"])
    def test_non_number_in_cli_table_is_data_error(self, tmp_path, omel_fixture, flag, capsys):
        auctions, spot, _ = omel_fixture
        bad = tmp_path / "bad.csv"
        report = ["report", "--auctions", str(auctions), "--spot", str(spot),
                  "--out", str(tmp_path / "o")]
        text, argv, reason = {
            "--fmpi": ("market,key,fmpi\nOMEL,Q3-07,44.45\nOMEL,Q4-07,{}\n", report,
                       "line 3: unparseable fmpi '{}'"),
            "--averages": ("market,zone,year,avg_price\nPJM,ACE,2007,{}\n", report,
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

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_non_finite_rate_is_numeric_error(self, tmp_path, capsys, rate):
        # a NaN rate used to print {"strip_value": NaN} and exit 0
        prices = tmp_path / "prices.csv"
        prices.write_text("month,price\n" + "".join(f"{m},{40 + m}\n" for m in range(1, 37)))
        out = tmp_path / "fmpi.json"
        assert main(["fmpi", "--prices", str(prices), f"--rate={rate}", "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", f"error code=3 reason=non-finite annual rate {rate}\n")
        assert not out.exists()

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


    @pytest.mark.parametrize("case", ["scenario_dir", "panel_dir", "prices_not_utf8",
                                      "scenario_not_utf8"])
    def test_unreadable_input_is_data_error(self, tmp_path, capsys, case):
        # a directory used to end in an IsADirectoryError traceback, a
        # non-UTF-8 byte in exit 3 like a numeric failure
        folder, bad = tmp_path / "folder", tmp_path / "bad"
        folder.mkdir()
        flag, contents, reason = {
            "scenario_dir": ("--scenario", None, "Is a directory"),
            "panel_dir": ("--panel", None, "Is a directory"),
            "prices_not_utf8": ("--prices", b"month,price\n1,4\xff0\n",
                                "can't decode byte 0xff"),
            "scenario_not_utf8": ("--scenario", b'{"config": "\xff"}', "can't decode byte 0xff"),
        }[case]
        if contents is not None:
            bad.write_bytes(contents)
        command = {"--scenario": "simulate", "--panel": "regress", "--prices": "fmpi"}[flag]
        out = tmp_path / "o.json"
        rc = main([command, flag, str(folder if contents is None else bad), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error code=2 reason=") and err.count("\n") == 1
        assert reason in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fmpi", "simulate", "config"])
    def test_non_utf8_input_names_the_file(self, tmp_path, capsys, command):
        bad = tmp_path / "bad"
        bad.write_bytes({"fmpi": b"month,price\n1,4\xff0\n", "simulate": b'{"config": "\xff"}',
                         "config": b"rate=0.1\xff\n"}[command])
        argv = {"fmpi": ["fmpi", "--prices", str(bad)],
                "simulate": ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")],
                "config": ["fmpi", "--prices", str(bad), "--config", str(bad)]}[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error code=2 reason={bad}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("line", [1, 3])
    def test_overlong_cell_is_data_error(self, tmp_path, capsys, line):
        # past the csv module's field limit (131072 characters)
        rows = ["month,price", "1,50.5", "2,51.5"]
        rows.insert(line - 1, "x" * 200_000 + ",1.0")
        prices = tmp_path / "prices.csv"
        prices.write_text("\n".join(rows) + "\n")
        assert main(["fmpi", "--prices", str(prices)]) == 2
        assert capsys.readouterr().err == (
            f"error code=2 reason={prices} line {line}: field larger than field limit (131072)\n")


class TestArtifactBytes:
    """premiums.csv, activity_r2.csv and event_study.csv pinned byte for byte.

    The fixture has an auction without an fmpi value (blank cells), a quoted
    auction reference, undefined R2 days and an offset with no events (nan).
    """

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        # relative paths keep the config line, and so the bytes, fixed
        monkeypatch.chdir(tmp_path)
        Path("auctions.csv").write_text(
            AUCTIONS_HEADER +
            "OMEL,1,2007-06-19,M07-07,2007-07-01,2007-07-04,baseload,fixed_quantity,"
            "46.27,1800,30,15,23\n"
            'OMEL,2,2007-06-20,"M07,b",2007-07-02,2007-07-05,baseload,fixed_quantity,'
            "38.5,900,20,9,12\n")
        Path("spot.csv").write_text("market,zone,date,price\n" + "".join(
            f"OMEL,ES,2007-07-0{d},{p}\n"
            for d, p in zip(range(1, 6), (40.1, 42.35, 39.0, 44.2, 41.75))))
        Path("fmpi.csv").write_text("market,key,fmpi\nOMEL,M07-07,44.45\n")
        oi = [500, 520, 520, 490, 530, 560, 540, 540, 575, 600, 585, 610, 650, 640]
        vol = [80, 95, 60, 120, 70, 88, 101, 64, 90, 111, 77, 93, 105, 84]
        Path("futures.csv").write_text(
            "contract_id,market,zone,date,settle,volume,open_interest\n" + "".join(
                f"F1,OMEL,ES,2007-01-{i + 1:02d},50,{v},{o}\n"
                for i, (v, o) in enumerate(zip(vol, oi))))
        Path("events.csv").write_text("date\n2007-01-06\n2007-01-14\n")

    def test_premiums_csv(self, inputs):
        assert main(["report", "--auctions", "auctions.csv", "--spot", "spot.csv",
                     "--fmpi", "fmpi.csv", "--out", "out"]) == 0
        assert Path("out/premiums.csv").read_bytes() == (
            b"# powerauctions 0.1.0\n"
            b'# config={"auctions": "auctions.csv", "command": "report", "fmpi": "fmpi.csv", '
            b'"spot": "spot.csv", "spot_mode": "strict"}\n'
            b"auction_ref,group,auction_price,spot_avg,costs,premium,premium_pct,fmpi,"
            b"fmpi_premium,fmpi_premium_pct\r\n"
            b"M07-07,2007,46.2700,41.4125,0.0000,4.8575,0.104982,44.4500,1.8200,0.039334\r\n"
            b'"M07,b",2007,38.5000,41.8250,0.0000,-3.3250,-0.086364,,,\r\n')

    def test_activity_csv(self, inputs):
        assert main(["activity", "--futures", "futures.csv", "--measure", "r2",
                     "--out", "out"]) == 0
        values = ["", "4.75", "", "4", "1.75", "2.933333333", "5.05", "", "2.571428571",
                  "4.44", "5.133333333", "3.72", "2.625", "8.4"]
        assert Path("out/activity_r2.csv").read_bytes() == (
            b"# powerauctions 0.1.0\n"
            b'# config={"command": "activity", "futures": "futures.csv", "measure": "r2"}\n'
            b"contract_id,measure,date,value,defined\r\n" + "".join(
                f"F1,R2,2007-01-{i + 1:02d},{v},{int(bool(v))}\r\n"
                for i, v in enumerate(values)).encode())

    def test_event_study_csv(self, inputs):
        assert main(["event-study", "--futures", "futures.csv", "--measure", "r2",
                     "--events", "events.csv", "--window", "-1", "2", "--out", "out"]) == 0
        assert Path("out/event_study.csv").read_bytes() == (
            b"# powerauctions 0.1.0\n"
            b'# config={"alpha": 0.05, "command": "event-study", "events": "events.csv", '
            b'"futures": "futures.csv", "measure": "r2", "variance": "welch", '
            b'"window": [-1, 2]}\n'
            b"offset,t_stat,sig01,sig05\r\n"
            b"-1,-3.343842537,0,0\r\n"
            b"0,0.5671111765,0,0\r\n"
            b"1,0.9691435582,0,0\r\n"
            b"2,nan,0,0\r\n")


def test_one_table_reader_and_writer():
    # only market_data imports csv, and only its codec's reader calls it: the
    # writer quotes its own cells
    package = Path(powerauctions.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        if path.name == "market_data.py":
            assert "csv" in modules
        else:
            assert "csv" not in modules, path.name

    def csv_calls(node):
        return sorted(n.func.attr for n in ast.walk(node)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and isinstance(n.func.value, ast.Name) and n.func.value.id == "csv")

    tree = ast.parse((package / "market_data.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert csv_calls(tree) == ["reader"]
    assert csv_calls(functions["_read_table"]) == ["reader"]
    assert csv_calls(functions["_write_table"]) == []


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.linalg", "scipy.special"])
def test_cli_import_leaves_scipy_stats_out(module):
    env = dict(os.environ, PYTHONPATH=str(Path(powerauctions.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", "import powerauctions.cli, sys; "
                    f"assert {module!r} not in sys.modules"], env=env, check=True)


def test_cli_import_leaves_the_engine_out():
    # the scenario schema lives in auction_engine; cli loads it on first use
    env = dict(os.environ, PYTHONPATH=str(Path(powerauctions.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", "import sys; import powerauctions.cli as cli; "
                    "loaded = {'powerauctions.auction_engine', 'scipy'} & set(sys.modules); "
                    "assert not loaded, loaded; "
                    "build, to_dict = cli.build_scenario, cli.outcome_to_dict; "
                    "from powerauctions import auction_engine; "
                    "assert build is auction_engine.build_scenario; "
                    "assert to_dict is auction_engine.outcome_to_dict"], env=env, check=True)
    with pytest.raises(AttributeError, match="has no attribute 'nonsense'"):
        importlib.import_module("powerauctions.cli").nonsense  # noqa: B018


# the powerauctions modules a subcommand may load besides cli and market_data
FOOTPRINT = {"ingest": set(), "report": {"premiums"},
             "fmpi": {"premiums"}, "activity": {"activity", "premiums"},
             "event-study": {"activity", "premiums"}, "regress": {"panel"},
             "simulate": {"auction_engine"}}


@pytest.fixture
def subcommand_runs(tmp_path, omel_fixture):
    """Valid inputs in ``tmp_path`` and one argv per subcommand, its paths
    relative to ``tmp_path``."""
    auctions, spot, fmpi = omel_fixture
    # a second auction year gives report two groups of two to test
    auctions.write_text(auctions.read_text() + "".join(
        f"OMEL,{i},2006-0{i}-15,Q{i}-07,2007-{start},2007-{end},baseload,fixed_quantity,"
        f"{price},1800,30,15,23\n" for i, start, end, price in (
            (3, "07-01", "09-30", 45.10), (4, "10-01", "12-31", 39.20))))
    (tmp_path / "futures.csv").write_text(
        "contract_id,market,zone,date,settle,volume,open_interest\n" + "".join(
            f"A,OMEL,ES,2007-01-{d:02d},{50 + d % 3},{d % 4 + 1},{10 + d}\n" for d in range(1, 29)))
    (tmp_path / "events.csv").write_text("date\n2007-01-14\n")
    (tmp_path / "prices.csv").write_text(
        "month,price\n" + "".join(f"{m},{40 + m}\n" for m in range(1, 37)))
    (tmp_path / "panel.csv").write_text("unit,period,y,vol3y,startbidders,wbidders\n" + "".join(
        f"{u},{t},{(i * 7 + t) % 5 - 2},{8 + (i * 3 + t) % 7},{20 + (t * i) % 4},{5 + i}\n"
        for i, u in enumerate(("ACE", "JCPL", "PSEG", "RECO")) for t in range(2007, 2013)))
    (tmp_path / "scenario.json").write_text(json.dumps(TestSimulateCommand.SCENARIO))
    report_inputs = ["--auctions", auctions.name, "--spot", spot.name, "--fmpi", fmpi.name]
    runs = {"ingest": ["--kind", "futures", "--input", "futures.csv", "--out", "ingest"],
            "report": [*report_inputs, "--out", "report"],
            "fmpi": ["--prices", "prices.csv"],
            "activity": ["--futures", "futures.csv", "--measure", "r1", "--out", "activity"],
            "event-study": ["--futures", "futures.csv", "--measure", "volume", "--events",
                            "events.csv", "--window", "-2", "2", "--out", "event_study"],
            "regress": ["--panel", "panel.csv", "--out", "regress.json"],
            "simulate": ["--scenario", "scenario.json", "--out", "simulate.json"]}
    assert set(runs) == set(_build_parser().commands)
    return runs


def test_readme_csv_schemas_are_the_codec_tables():
    # each entry of README's "CSV schemas" list is its table's header, an
    # optional column in brackets
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### CSV schemas\n\n", 1)[1].split("\n\n", 1)[0]
    entries = {re.sub(r" \(.*\)$", "", name): header
               for name, header in re.findall(r"^- (.+?): `([^`]*)`", section, re.M)}
    tables = {"spot": "_SPOT", "futures": "_FUTURES", "auctions": "_AUCTIONS",
              "costs": "_COSTS", "fmpi": "_FMPI", "averages": "_AVERAGES",
              "strip prices": "_STRIP_PRICES", "events": "_EVENTS", "panel": "_PANEL"}
    expected = {}
    for name, table in tables.items():
        columns = list(getattr(market_data, table).columns)
        required = len(columns) - getattr(market_data, table).optional
        expected[name] = ",".join(columns[:required]) + "".join(
            f"[,{c}]" for c in columns[required:])
    assert entries == expected


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("scriptable through `powerauctions <subcommand>`:", 1)[1]
    listed = re.findall(r"`([^`]+)`", sentence.split(".", 1)[0])
    assert sorted(listed) == sorted(_build_parser().commands)


def test_subcommands_without_p_values_leave_scipy_out(tmp_path, subcommand_runs):
    # each subcommand imports only the modules it runs, and none imports
    # scipy.special: report and event-study take their p values from the
    # t cdf that scipy exports without it
    runs = subcommand_runs
    assert set(runs) == set(FOOTPRINT)
    env = dict(os.environ, PYTHONPATH=str(Path(powerauctions.__file__).parents[1]))
    for command, argv in runs.items():
        out = subprocess.run(
            [sys.executable, "-c", "import json, sys; from powerauctions.cli import main; "
             f"code = main({[command, *argv]!r}); "
             "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)"],
            env=env, cwd=tmp_path, check=True, capture_output=True, text=True)
        code, modules = json.loads(out.stderr.splitlines()[-1])
        assert code == 0, (command, out.stderr)
        loaded = {m.removeprefix("powerauctions.") for m in modules
                  if m.startswith("powerauctions.")}
        assert loaded == {"cli", "market_data"} | FOOTPRINT[command], command
        assert "scipy.special" not in modules, command
    assert json.loads((tmp_path / "report" / "report.json").read_text())["equality_of_means"]


@pytest.mark.parametrize("command", sorted(FOOTPRINT))
def test_subcommand_builds_its_outputs_and_main_writes_them(tmp_path, monkeypatch, capsys,
                                                            subcommand_runs, command):
    # a subcommand touches no file; main writes exactly the outputs it returns
    monkeypatch.chdir(tmp_path)
    argv = [command, *subcommand_runs[command]]
    if command == "fmpi":
        argv += ["--out", "fmpi/fmpi.json"]

    before = set(tmp_path.rglob("*"))
    args = _build_parser().parse_args(argv)
    outputs, message = args.func(args)
    assert outputs and set(tmp_path.rglob("*")) == before
    assert main(argv) == 0
    assert capsys.readouterr().out == message + "\n"
    written = set(tmp_path.rglob("*")) - before
    assert {tmp_path / path for path, _ in outputs} == {p for p in written if p.is_file()}


def run_main(argv):
    """``main(argv)`` in this process: its exit code, stdout and stderr.

    Each warning is printed to stderr as ``main`` formats it: pytest would
    record it instead, and the suite's error filter would raise it in ``main``.
    """
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, category, filename, lineno, file=None, line=None: (
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line)))
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_CELLS = ["", " ", "nan", "inf", "-1", "0", "-0", "1e400", "abc", "2007-02-30", "2007-13-01",
          "9999-12-31", '"a,b"', '"', "x" * 40, "OMEL", "PJM", "ACE", "Q3-07;Q4-07", "peak",
          "full_requirements", "\r"]
_JSON_VALUES = [None, True, 0, -1, 0.5, 1e308, 10 ** 400, math.nan, math.inf, "x", "constant",
                [], {}, [1], {"kind": "constant"}]
_TOKENS = ["", "nan", "inf", "-1", "0", "2", "1e400", "99999999999999999999", "abc", "--", "-",
           "spot.csv", "none.csv", "out", "r1"]
_CONFIG_LINES = ["seed=abc", "alpha=2", "window=1", "window=3 -3", "no_period_effects=maybe",
                 "unit_effects=true", "bogus=1", "measure=r9", "rate=nan", "covariates=,",
                 "# comment", "", "=", "config=run.cfg"]
# flags whose value alone decides the exit code
_BAD_FLAGS = {"event-study": [(["--alpha", "2"], 3), (["--window", "2", "-2"], 1),
                              (["--window", "-1", "99999999999999999999"], 1)],
              "fmpi": [(["--rate", "nan"], 3)], "regress": [(["--covariates", ","], 1)],
              "simulate": [(["--seed", "-1"], 1)]}


def _mutate_json(draw, text):
    root = [json.loads(text)]
    holder, key = root, 0  # the value to change is holder[key]
    for _ in range(draw(st.integers(0, 3))):
        node = holder[key]
        if not isinstance(node, (dict, list)) or not node:
            break
        holder, key = node, draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
    op = draw(st.sampled_from(["replace", "delete", "nest"]))
    if op == "delete" and isinstance(holder, dict):
        del holder[key]
    elif op == "nest":
        depth = draw(st.sampled_from([1, 2, 50, 5000]))
        holder[key] = "nest here"
        return json.dumps(root[0]).replace('"nest here"', "[" * depth + "1" + "]" * depth)
    else:
        holder[key] = draw(st.sampled_from(_JSON_VALUES))
    return json.dumps(root[0])


@st.composite
def _mutated_run(draw, runs, inputs):
    """One valid run with one mutation: the input files (name -> bytes), the
    argv, and the exit code the mutation decides, or None."""
    command = draw(st.sampled_from(sorted(runs)))
    argv = [command, *runs[command]]
    files = dict(inputs)
    name = draw(st.sampled_from([a for a in argv if a in inputs]))
    data = files[name]
    lines = data.decode().split("\n")
    row = draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    col = draw(st.integers(0, len(cells) - 1))
    kinds = ["bytes", "lines", "encoding", "flag", "config", "unknown flag"]
    kinds += ["bad flag"] * (command in _BAD_FLAGS)
    kinds += ["json"] if name.endswith(".json") else ["cell", "width", "header"]
    kind = draw(st.sampled_from(kinds))
    code = None
    if kind == "bytes":
        at, byte = draw(st.integers(0, len(data))), bytes([draw(st.integers(0, 255))])
        op = draw(st.sampled_from(["insert", "replace", "delete", "truncate"]))
        files[name] = {"insert": data[:at] + byte + data[at:],
                       "replace": data[:at] + byte + data[at + 1:],
                       "delete": data[:at] + data[at + 1:], "truncate": data[:at]}[op]
        if op in ("insert", "replace") and byte[0] >= 0x80:
            code = 2  # every input is ASCII, so the file is no longer UTF-8
    elif kind in ("cell", "width", "header"):
        if kind == "cell":
            cells[col] = draw(st.sampled_from(_CELLS) | st.text(max_size=6)
                              | st.floats().map(repr) | st.integers().map(str))
        elif kind == "width":
            cells = cells[:-1] if draw(st.booleans()) else [*cells, "1"]
        else:
            cells = lines[0].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] += "_x"
            row, code = 0, 2
        lines[row] = ",".join(cells)
        files[name] = "\n".join(lines).encode()
    elif kind == "lines":
        op = draw(st.sampled_from(["repeat", "drop", "blank", "swap", "crlf", "cr",
                                   "unterminated"]))
        if op in ("repeat", "drop", "blank", "swap"):
            lines[row:row + 2] = {"repeat": [lines[row]] * 2 + lines[row + 1:row + 2],
                                  "drop": lines[row + 1:row + 2],
                                  "blank": [lines[row], ""] + lines[row + 1:row + 2],
                                  "swap": lines[row:row + 2][::-1]}[op]
        text = "\n".join(lines)
        text = {"crlf": text.replace("\n", "\r\n"), "cr": text.replace("\n", "\r"),
                "unterminated": text.rstrip("\n")}.get(op, text)
        files[name] = text.encode()
    elif kind == "encoding":
        encoding = draw(st.sampled_from(["utf-16", "utf-32", "utf-8-sig"]))
        files[name] = data.decode().encode(encoding)
        code = 2  # not UTF-8, or a byte-order mark ahead of the header or the JSON
    elif kind == "json":
        files[name] = _mutate_json(draw, data.decode()).encode()
    elif kind == "flag":
        at = draw(st.integers(0, len(argv) - 1))
        op = draw(st.sampled_from(["replace", "drop", "repeat", "insert"]))
        token = draw(st.sampled_from(_TOKENS))
        argv[at:at + 1] = {"replace": [token], "drop": [], "repeat": [argv[at]] * 2,
                           "insert": [token, argv[at]]}[op]
    elif kind == "config":
        config = draw(st.lists(st.sampled_from(_CONFIG_LINES), min_size=1, max_size=3))
        files["run.cfg"] = "\n".join(config).encode()
        argv = ["--config", "run.cfg", *argv]
    elif kind == "unknown flag":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-q"])))
        code = 1
    else:
        flags, code = draw(st.sampled_from(_BAD_FLAGS[command]))
        argv += flags
    return files, argv, code


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_main_on_mutated_inputs(tmp_path, monkeypatch, subcommand_runs, data):
    # the fixtures' files are only read: each example runs in a fresh "work"
    # directory that holds its own inputs
    inputs = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    files, argv, decided = data.draw(_mutated_run(subcommand_runs, inputs))
    work = tmp_path / "work"
    monkeypatch.chdir(tmp_path)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    for name, content in files.items():
        (work / name).write_bytes(content)
    monkeypatch.chdir(work)
    before = set(work.rglob("*"))

    code, out, err = run_main(argv)
    assert code in (0, 1, 2, 3)
    lines = err.splitlines()
    if code == 0:
        assert out.count("\n") == 1 and out.endswith("\n")
    else:
        assert out == "" and lines[-1].startswith(f"error code={code} reason=")
        lines.pop()
        assert set(work.rglob("*")) == before
    assert all(line.startswith("warning: ") for line in lines), err
    if decided is not None:
        assert code == decided, err


EXPORTED = """
    AggregateReport AuctionError AuctionOutcome AuctionRecord ClockAuctionConfig Coefficient
    ConstantSupply CostComponents DeliveryPeriod DistributionStats EventStudyResult FmpiSpec
    FuturesContractSeries MarketDataError MarketZone MeanComparison MeasureSeries
    PanelObservation PremiumRow RegressionError RegressionResult SignificanceTally
    SpotPriceSeries StochasticExit StochasticShrink ThresholdExit activity auction_engine
    average_price baseline_mean_excluding cesur_premium distribution_stats equality_of_means
    event_study fit_pooled_ols fmpi_premium fmpi_strip fmpi_weights load_auctions_csv
    load_costs_csv load_futures_csv load_spot_csv_multi market_data monetary_impact
    open_interest_series panel pjm_premium
    premiums r1_series r2_series run_descending_clock settle_cfd significance_tally
    standardize_by_group vol3y volume_series welch_t yearly_aggregate
""".split()
SUBMODULES = ("activity", "auction_engine", "market_data", "panel", "premiums")


def test_auctions_row_of_several_products_is_data_error(tmp_path, omel_fixture, capsys):
    # a row is one product: a row of ";"-separated products fails at its first
    # date cell, with its line
    auctions, _, _ = omel_fixture
    auctions.write_text(auctions.read_text() + "OMEL,4,2008-03-13,Q2-08;Q2Q3-08,"
                        "2008-04-01;2008-04-01,2008-06-30;2008-09-30,baseload;baseload,"
                        "fixed_quantity,63.36;63.73,1800;1200,29,14,22\n")
    out = tmp_path / "out"
    assert main(["ingest", "--kind", "auctions", "--input", str(auctions),
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error code=2 reason={auctions} line 4: unparseable "
                                       "delivery_start '2008-04-01;2008-04-01'\n")
    assert not out.exists()


def test_package_namespace():
    # every name the package exported when it imported all five modules up
    # front still resolves, to the object its module defines
    assert sorted(powerauctions.__all__) == sorted(EXPORTED)
    listed = dir(powerauctions)
    for name in EXPORTED:
        value = getattr(powerauctions, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"powerauctions.{name}")
        else:
            assert value.__module__.removeprefix("powerauctions.") in SUBMODULES, name
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert name in listed, name
    star: dict = {}
    exec("from powerauctions import *", star)
    star.pop("__builtins__")
    assert star == {name: getattr(powerauctions, name) for name in EXPORTED}
    with pytest.raises(AttributeError, match="has no attribute 'nonsense'"):
        powerauctions.nonsense  # noqa: B018


def test_package_imports_a_module_when_a_name_is_used():
    env = dict(os.environ, PYTHONPATH=str(Path(powerauctions.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", "import sys, powerauctions; "
                    "loaded = lambda: {m for m in sys.modules if m.startswith('powerauctions')}; "
                    "assert loaded() == {'powerauctions'}, loaded(); "
                    "powerauctions.run_descending_clock; "
                    "assert loaded() == {'powerauctions', 'powerauctions.auction_engine', "
                    "'powerauctions.market_data'}, loaded()"], env=env, check=True)
    # panel annotates vol3y with SpotPriceSeries but never loads market_data
    subprocess.run([sys.executable, "-c", "import sys, powerauctions; "
                    "powerauctions.fit_pooled_ols; "
                    "loaded = {m for m in sys.modules if m.startswith('powerauctions')}; "
                    "assert loaded == {'powerauctions', 'powerauctions.panel'}, loaded"],
                   env=env, check=True)
