"""Clock outcomes pinned byte for byte.

Each case is the sha256 of ``json.dumps(outcome_to_dict(outcome))``, or the
error it raises as ``"<type>: <message>"``, as recorded in
``auction_digests.json``. The scenarios are drawn like the benchmark's
(10, 60 and 1000 bidders of all four kinds, both undershoot policies), plus
hostile populations and five special populations: four that take the
engine's per-call path (a shared generator, a repeated strategy object, a
subclass of a built-in type, a user strategy) and one priced in ints.
Regenerate the file only for an intended change of cases or outcomes:

    PYTHONPATH=src python tests/test_auction_pinned.py > tests/auction_digests.json
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from powerauctions.auction_engine import (ClockAuctionConfig, ConstantSupply, StochasticExit,
                                          StochasticShrink, ThresholdExit, build_scenario,
                                          outcome_to_dict, run_descending_clock)

DIGESTS = Path(__file__).with_name("auction_digests.json")
KINDS = ("constant", "threshold_exit", "stochastic_exit", "stochastic_shrink")
POLICIES = ("previous_price_prorata", "previous_price_priority")


def draw_scenario(rng, n_bidders, target_share=(0.25, 0.6), ticks=(200, 300)):
    """A scenario drawn as the benchmark's auction_mc workload draws them."""
    opening = float(rng.uniform(60.0, 120.0))
    ticks = int(rng.integers(*ticks))
    kinds = rng.choice(4, size=n_bidders, p=(0.1, 0.3, 0.2, 0.4))
    quantities = rng.uniform(1.0, 10.0, size=n_bidders).round(3)
    strategies = []
    for kind, q in zip(kinds, quantities):
        spec = {"kind": KINDS[kind], "quantity": float(q)}
        if kind == 1:
            spec["threshold"] = round(float(rng.uniform(0.2, 0.95)) * opening, 3)
        elif kind == 2:
            spec["exit_probability"] = round(float(rng.uniform(0.05, 0.15)), 4)
        elif kind == 3:
            spec["low"] = round(float(rng.uniform(0.9, 0.98)), 4)
        strategies.append(spec)
    total, constant = float(quantities.sum()), float(quantities[kinds == 0].sum())
    target = constant + float(rng.uniform(*target_share)) * (total - constant)
    return {"config": {"target_quantity": round(target, 6), "opening_price": round(opening, 4),
                       "price_decrement": round(opening / ticks, 6), "max_rounds": ticks - 1,
                       "undershoot_policy": POLICIES[int(rng.integers(2))]},
            "strategies": strategies}


HOSTILE_VALUES = (0, 0.0, -0.0, -1.0, -3, 1e-300, 1e6, 5, 100, 150)


def hostile_scenario(rng):
    """Zero, negative and non-finite quantities, below_quantity above
    quantity, low outside [0, 1], exit probabilities 0, 1 and 1.5,
    thresholds above the opening price, int and float prices."""
    def value():
        u = rng.random()
        if u < 0.03:
            return (float("inf"), float("-inf"), float("nan"))[int(rng.integers(3))]
        if u < 0.25:
            return HOSTILE_VALUES[int(rng.integers(len(HOSTILE_VALUES)))]
        return round(float(rng.uniform(0.0, 12.0)), 3)

    strategies = []
    for _ in range(int(rng.integers(1, 9))):
        kind = KINDS[rng.choice(4, p=(0.1, 0.3, 0.3, 0.3))]
        spec = {"kind": kind, "quantity": value()}
        if kind == "threshold_exit":
            spec["threshold"] = round(float(rng.uniform(0.0, 150.0)), 2)
            if rng.random() < 0.7:
                spec["below_quantity"] = value()
        elif kind == "stochastic_exit":
            spec["exit_probability"] = (0, 1, 1.5, 0.0, -0.5, 0.1, 0.3)[int(rng.integers(7))]
        elif kind == "stochastic_shrink" and rng.random() < 0.8:
            spec["low"] = (0.5, 0.9, -0.5, 1.5, 0, 1, -2, 0.99)[int(rng.integers(8))]
        strategies.append(spec)
    supply = sum(s["quantity"] for s in strategies if 0 < s["quantity"] < 1e6)
    target = supply * float(rng.uniform(0.2, 0.9)) + 0.5
    return {"config": {"target_quantity": (round(target, 3) if rng.random() < 0.8
                                           else int(target)),
                       "opening_price": (100, 100.0, 60.5)[int(rng.integers(3))],
                       "price_decrement": (1, 0.5, 3, 0.25)[int(rng.integers(4))],
                       "max_rounds": int(rng.integers(20, 400)),
                       "undershoot_policy": POLICIES[int(rng.integers(2))]},
            "strategies": strategies}


def drawn_cases():
    rng = np.random.default_rng(20220601)
    sizes = [10] * 300 + [60] * 96 + [1000] * 8
    for i, n in enumerate(sizes):
        ranges = {"target_share": (0.38, 0.42), "ticks": (240, 260)} if n == 1000 else {}
        scenario, seed = draw_scenario(rng, n, **ranges), int(rng.integers(1 << 31))
        yield f"drawn/{n}/{i}", lambda s=scenario, seed=seed: build_scenario(s, seed)
    for i in range(120):
        scenario = hostile_scenario(rng)
        yield f"hostile/{i}", lambda s=scenario, seed=i: build_scenario(s, seed)


class Sub(StochasticShrink):
    """A subclass of a built-in type: called per round."""


class Trend:
    """A user strategy with its own generator."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def offer(self, round_no, price, last_offer):
        return 9.0 - 0.08 * round_no * self.rng.random()


def special_cases():
    def config(**kw):
        return ClockAuctionConfig(**{"target_quantity": 15.5, "opening_price": 100.0,
                                     "price_decrement": 0.75, **kw})

    def shared_generator():
        g = np.random.default_rng(5)
        return config(), [StochasticShrink(8, 0.95, rng=g), StochasticExit(8, 0.05, rng=g),
                          ConstantSupply(3)], None

    def repeated_object():
        s = StochasticShrink(8, 0.95, rng=np.random.default_rng(6))
        return config(), [s, ThresholdExit(6, 70), s], None

    def subclass():
        return config(), [Sub(8, 0.95, rng=np.random.default_rng(7)),
                          StochasticShrink(9, 0.96, rng=np.random.default_rng(8)),
                          ThresholdExit(5, 70)], None

    def mixed():
        return (config(undershoot_policy="previous_price_priority"),
                [ConstantSupply(2), Trend(9), StochasticExit(6, 0.1, rng=np.random.default_rng(10)),
                 ThresholdExit(6, 80, 1), StochasticShrink(7, 0.93, rng=np.random.default_rng(11))],
                ["c", "user", "exit", "thr", "shrink"])

    def int_priced():
        return (ClockAuctionConfig(target_quantity=15, opening_price=100, price_decrement=3),
                [ThresholdExit(8, 91, 2), ThresholdExit(9, 70), ConstantSupply(4),
                 StochasticExit(5, 0.2, rng=np.random.default_rng(14))], None)

    for make in (shared_generator, repeated_object, subclass, mixed, int_priced):
        yield f"special/{make.__name__}", make


def result(make) -> str:
    try:
        outcome = run_descending_clock(*make())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    text = json.dumps(outcome_to_dict(outcome))
    return hashlib.sha256(text.encode()).hexdigest()


def all_cases():
    yield from drawn_cases()
    yield from special_cases()


def test_outcomes_are_pinned():
    pinned = json.loads(DIGESTS.read_text())
    got = {name: result(make) for name, make in all_cases()}
    assert sum(name.startswith("drawn/") for name in got) >= 400
    assert got.keys() == pinned.keys()
    assert [name for name in got if got[name] != pinned[name]] == []


def test_int_prices_are_logged_as_ints():
    outcome = run_descending_clock(*dict(special_cases())["special/int_priced"]())
    assert [type(e.announced_price) for e in outcome.round_log] == [int] * outcome.rounds_used


if __name__ == "__main__":
    print(json.dumps({name: result(make) for name, make in all_cases()}, indent=0))
