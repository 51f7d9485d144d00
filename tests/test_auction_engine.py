import contextlib
import dataclasses
import math
import re
from dataclasses import dataclass, field
from datetime import date
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerauctions import (AuctionError, ClockAuctionConfig, ConstantSupply,
                           DeliveryPeriod, StochasticExit, StochasticShrink, ThresholdExit,
                           run_descending_clock, settle_cfd)
from powerauctions.auction_engine import _WIDE, RoundLogEntry, _block_rules, _clamp

from conftest import make_spot


def config(target=10, opening=100, tick=10, **kw):
    return ClockAuctionConfig(target_quantity=target, opening_price=opening,
                              price_decrement=tick, **kw)


class TestClockAuction:
    def test_immediate_match(self):
        out = run_descending_clock(config(), [ConstantSupply(5), ConstantSupply(5)],
                                   bidder_ids=["A", "B"])
        assert out.rounds_used == 1
        assert out.clearing_price == 100
        assert out.awards == {"A": 5, "B": 5}

    def test_exit_to_exact_match(self):
        # hand-simulated: aggregate 20 at 100/90/80, drops to 10 at 70
        strategies = [ConstantSupply(10), ThresholdExit(10, threshold=80)]
        out = run_descending_clock(config(), strategies, bidder_ids=["A", "B"])
        assert out.rounds_used == 4
        assert out.clearing_price == 70
        assert out.awards == {"A": 10}
        assert [e.aggregate for e in out.round_log] == [20, 20, 20, 10]

    def test_undershoot_prorata(self):
        # previous round: A=6, B=6 at price 80; final round: A=4, B=2 (agg 6)
        # reductions 2 and 4 are restored scaled by shortfall/total = 4/6
        strategies = [ThresholdExit(6, 80, below_quantity=4),
                      ThresholdExit(6, 80, below_quantity=2)]
        out = run_descending_clock(config(), strategies, bidder_ids=["A", "B"])
        assert out.undershoot_resolved
        assert out.clearing_price == 80
        assert out.awards["A"] == pytest.approx(4 + 2 * (4 / 6), abs=1e-12)
        assert out.awards["B"] == pytest.approx(2 + 4 * (4 / 6), abs=1e-12)
        assert sum(out.awards.values()) == 10

    def test_undershoot_priority(self):
        # same setup; equal previous offers tie-break by bidder id, so A's
        # reduction (2) is restored whole, then B gets the remaining 2
        strategies = [ThresholdExit(6, 80, below_quantity=4),
                      ThresholdExit(6, 80, below_quantity=2)]
        out = run_descending_clock(
            config(undershoot_policy="previous_price_priority"), strategies,
            bidder_ids=["A", "B"])
        assert out.clearing_price == 80
        assert out.awards == {"A": 6, "B": 4}

    def test_undershoot_priority_descending_quantity_order(self):
        # previous offers 8 and 4: the larger previous bidder is restored first
        strategies = [ThresholdExit(8, 80, below_quantity=1),
                      ThresholdExit(4, 80, below_quantity=1)]
        out = run_descending_clock(
            config(undershoot_policy="previous_price_priority"), strategies,
            bidder_ids=["A", "B"])
        # final offers 1+1=2, shortfall 8; A restored min(7, 8)=7, B gets 1
        assert out.awards == {"A": 8, "B": 2}
        assert sum(out.awards.values()) == 10

    def test_undersubscribed_opening(self):
        with pytest.raises(AuctionError, match="undersubscribed at opening"):
            run_descending_clock(config(target=10), [ConstantSupply(4)])

    def test_max_rounds_exhausted(self):
        with pytest.raises(AuctionError, match="max rounds"):
            run_descending_clock(config(target=10, opening=100, tick=1, max_rounds=5),
                                 [ConstantSupply(20)])

    @pytest.mark.parametrize("ids", [["A"], ["A", "B", "C"]], ids=["short", "long"])
    def test_one_bidder_id_per_strategy(self, ids):
        # a short list used to drop bidders silently, a long one to raise a
        # KeyError at an undershoot close
        with pytest.raises(AuctionError, match=f"{len(ids)} bidder ids for 2 strategies"):
            run_descending_clock(config(target=5), [ThresholdExit(6, 85, 2), ConstantSupply(2)],
                                 bidder_ids=ids)

    def test_duplicate_bidder_ids_rejected(self):
        with pytest.raises(AuctionError, match="^bidder ids must be unique$"):
            run_descending_clock(config(target=5), [ThresholdExit(6, 85, 2), ConstantSupply(2)],
                                 bidder_ids=["A", "A"])

    def test_default_bidder_ids(self):
        out = run_descending_clock(config(target=5), [ThresholdExit(6, 85, 2), ConstantSupply(2),
                                                      ConstantSupply(1)])
        # 9 offered at 100 and 90; the threshold bidder drops to 2 at 80
        assert [list(e.offers) for e in out.round_log] == [["B1", "B2", "B3"]] * 3
        assert out.clearing_price == 80 and out.awards == {"B1": 2, "B2": 2, "B3": 1}

    def test_offer_above_previous_is_clamped(self):
        @dataclass
        class Raiser:
            def offer(self, round_no, price, last_offer):
                return 5.0 if round_no == 1 else 8.0

        out = run_descending_clock(config(target=5), [Raiser(), ThresholdExit(5, 95)],
                                   bidder_ids=["A", "B"])
        # round 2: A tries 8, clamped to 5; B exits; clears exactly at 5
        round2 = out.round_log[1]
        assert round2.offers["A"] == 5.0
        assert "A" in round2.clamped

    def test_negative_offer_clamped_to_zero_and_exits(self):
        @dataclass
        class Negative:
            def offer(self, round_no, price, last_offer):
                return 5.0 if round_no == 1 else -3.0

        out = run_descending_clock(config(target=5), [Negative(), ConstantSupply(5)],
                                   bidder_ids=["A", "B"])
        assert out.round_log[-1].offers["A"] == 0.0

    def test_permanent_exit(self):
        exited_round = []

        @dataclass
        class Flapper:
            def offer(self, round_no, price, last_offer):
                if round_no == 2:
                    exited_round.append(round_no)
                    return 0.0
                return 6.0  # would re-enter if allowed

        out = run_descending_clock(config(target=10), [Flapper(), ConstantSupply(10)],
                                   bidder_ids=["A", "B"])
        for entry in out.round_log[1:]:
            assert entry.offers["A"] == 0.0

    def test_hostile_scripted_offers(self, rng):
        # each bidder replays pre-drawn offers: negatives, raises above its last
        # offer, zeros and positive offers after a zero (re-entry attempts)
        @dataclass
        class Replay:
            script: list
            calls: list = field(default_factory=list)  # (round_no, last_offer, raw)

            def offer(self, round_no, price, last_offer):
                raw = self.script[round_no - 1]
                self.calls.append((round_no, last_offer, raw))
                return raw

        for _ in range(100):
            n = int(rng.integers(2, 7))
            ids = [f"B{i + 1}" for i in range(n)]
            bidders = []
            for _ in range(n):
                script = rng.choice([-1.0, 0.0, 2.0, 4.0, 6.0, 9.0], size=40,
                                    p=[0.06, 0.06, 0.22, 0.22, 0.22, 0.22]).tolist()
                # a positive opening offer, and a zero by round 40 so every run closes
                script[0], script[-1] = float(rng.choice([4.0, 6.0, 9.0])), 0.0
                bidders.append(Replay(script))
            policy = ("previous_price_prorata", "previous_price_priority")[int(rng.integers(2))]
            target = float(rng.integers(1, 2 * n + 1))
            out = run_descending_clock(config(target=target, tick=2, max_rounds=40,
                                              undershoot_policy=policy), bidders, ids)
            log = out.round_log
            assert math.isclose(sum(out.awards.values()), target, rel_tol=0, abs_tol=1e-9)
            raw_by_round = [{} for _ in log]
            for b, bidder in zip(ids, bidders):
                offers = [e.offers[b] for e in log]
                # a retired bidder is asked no more, so its draws stay in order
                asked = [r for r in range(1, len(log) + 1) if r == 1 or offers[r - 2] > 0]
                assert [r for r, _, _ in bidder.calls] == asked
                for r, last, raw in bidder.calls:
                    assert last == (math.inf if r == 1 else offers[r - 2])
                    assert offers[r - 1] == min(max(raw, 0.0), last)
                    raw_by_round[r - 1][b] = (raw, last)
                first_zero = offers.index(0.0) if 0.0 in offers else len(offers)
                assert all(q == 0.0 for q in offers[first_zero:])
            for entry, raws in zip(log, raw_by_round):
                assert entry.clamped == tuple(
                    b for b, (raw, last) in raws.items() if not 0.0 <= raw <= last)

    @pytest.mark.parametrize("name", ["target_quantity", "opening_price", "price_decrement"])
    def test_nan_config_rejected(self, name):
        kw = {"target_quantity": 10, "opening_price": 100, "price_decrement": 10, name: math.nan}
        with pytest.raises(AuctionError, match=name.replace("_", " ") + " must be positive"):
            ClockAuctionConfig(**kw)

    @pytest.mark.parametrize("name", ["target_quantity", "opening_price", "price_decrement"])
    def test_infinite_config_rejected(self, name):
        # an infinite decrement used to announce nan in round 1 and an
        # infinite opening price to stop at round 2 as not decreasing
        kw = {"target_quantity": 10, "opening_price": 100, "price_decrement": 10, name: math.inf}
        with pytest.raises(AuctionError, match=re.escape(
                f"{name.replace('_', ' ')} must be finite, got inf")):
            ClockAuctionConfig(**kw)
        # an int too large for a float used to pass here, and then raise a bare
        # OverflowError from the price arithmetic
        for big in (10 ** 400, Fraction(10 ** 400, 3)):
            with pytest.raises(AuctionError, match=re.escape(
                    f"{name.replace('_', ' ')} must be finite, got a value too large for a float")):
                ClockAuctionConfig(**{**kw, name: big})

    @pytest.mark.parametrize("max_rounds", [0, -3, 2.5, 1.0, "5", None])
    def test_max_rounds_must_be_a_positive_integer(self, max_rounds):
        # max_rounds=0 used to run no round and fail reading the empty log
        with pytest.raises(AuctionError, match=re.escape(
                f"max rounds must be an integer >= 1, got {max_rounds!r}")):
            config(max_rounds=max_rounds)
        assert config(max_rounds=np.int64(1)).max_rounds == 1

    def test_unknown_undershoot_policy_rejected(self):
        # a scenario file's policy is checked before this, as a data error
        with pytest.raises(AuctionError, match="unknown undershoot policy 'prorata'"):
            config(undershoot_policy="prorata")

    @pytest.mark.parametrize("make", [lambda: StochasticExit(4, 0.2),
                                      lambda: StochasticShrink(4, low=0.7)],
                             ids=["stochastic_exit", "stochastic_shrink"])
    def test_random_strategy_needs_a_generator(self, make):
        # no unseeded default: a random bidder is seeded by whoever builds it
        with pytest.raises(TypeError, match="rng"):
            make()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bad_round", [1, 3])
    def test_non_finite_offer_raises(self, bad, bad_round):
        @dataclass
        class Bad:
            def offer(self, round_no, price, last_offer):
                return bad if round_no == bad_round else 5.0

        message = f"non-finite offer {bad} from bidder B in round {bad_round}"
        with pytest.raises(AuctionError, match=re.escape(message)):
            run_descending_clock(config(target=5), [ConstantSupply(5), Bad()],
                                 bidder_ids=["A", "B"])

    @pytest.mark.parametrize("first", ["block", "per_call"])
    def test_bidders_after_a_non_finite_offer_are_still_asked(self, first):
        # the round's per-call bidders are all asked, and the error names the
        # first bad bidder in bidder order
        @dataclass
        class Record:
            quantity: float
            calls: list = field(default_factory=list)

            def offer(self, round_no, price, last_offer):
                self.calls.append(round_no)
                return self.quantity

        bad = ConstantSupply(math.nan) if first == "block" else Record(math.nan)
        later = Record(5.0)
        with pytest.raises(AuctionError, match="non-finite offer nan from bidder A in round 1"):
            run_descending_clock(config(target=5), [bad, Record(math.inf), later],
                                 bidder_ids=["A", "B", "C"])
        assert later.calls == [1]

    def test_announced_prices_must_strictly_decrease(self):
        # a tick below half the opening price's last bit leaves the price unchanged
        cfg = config(target=5, opening=100.0, tick=1e-15)
        with pytest.raises(AuctionError, match=re.escape(
                "announced prices must strictly decrease (round 2: 100.0 >= 100.0)")):
            run_descending_clock(cfg, [ConstantSupply(10)])

    def test_price_at_or_below_zero_stops_the_clock(self):
        # without the stop this clears at -5 after 7 rounds
        cfg = config(target=5, opening=10, tick=3)
        with pytest.raises(AuctionError, match=r"must be positive \(round 5: -2\)"):
            run_descending_clock(cfg, [ThresholdExit(10, threshold=-5), ConstantSupply(1)])
        cfg = config(target=5, opening=2.0, tick=1.0)
        with pytest.raises(AuctionError, match=r"must be positive \(round 3: 0.0\)"):
            run_descending_clock(cfg, [ConstantSupply(10)])

    @pytest.mark.parametrize("mode", ["block", "per_call"])
    @pytest.mark.parametrize("opening, tick, message", [
        (64, 1, "announced price must be positive (round 65: 0)"),  # block 2's first round
        (65.0, 1.0, "announced price must be positive (round 66: 0.0)"),  # mid-block
        # 2**53 + 1 rounds to 2**53, so round 3's price ties round 2's
        (2.0 ** 53 + 2, 1.0, "announced prices must strictly decrease "
         "(round 3: 9007199254740992.0 >= 9007199254740992.0)"),
    ], ids=["block_start", "mid_block", "rounding_tie"])
    def test_first_bad_price_is_named(self, opening, tick, message, mode):
        bidder = ConstantSupply(10)
        with pytest.raises(AuctionError, match=f"^{re.escape(message)}$"):
            run_descending_clock(config(target=5, opening=opening, tick=tick),
                                 [bidder if mode == "block" else Forward(bidder)])

    @pytest.mark.parametrize("opening, tick", [
        (Fraction(201, 2), Fraction(1, 3)), (np.float32(100.1), np.float32(0.3)),
        (100.1, np.float32(0.3))], ids=["fraction", "float32", "float32_tick"])
    def test_inexact_tick_keeps_pythons_arithmetic(self, opening, tick):
        # every bidder is called per round, and each price is Python's
        out = run_descending_clock(config(target=6.5, opening=opening, tick=tick),
                                   [ThresholdExit(8, 60.0, 2), ThresholdExit(9, 30.0),
                                    ConstantSupply(4)])
        expected = [opening - (r - 1) * tick for r in range(1, out.rounds_used + 1)]
        assert out.rounds_used > 3
        assert [(type(e.announced_price), e.announced_price) for e in out.round_log] == [
            (type(p), p) for p in expected]

    def test_determinism_with_seeded_randomness(self):
        def run():
            rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
            strategies = [StochasticShrink(8, low=0.6, rng=r) for r in rngs]
            return run_descending_clock(config(target=6, tick=1), strategies)

        a, b = run(), run()
        assert a.awards == b.awards
        assert a.clearing_price == b.clearing_price
        assert a.round_log == b.round_log

    def test_reused_stochastic_exit_strategies_clear_again(self):
        # an exited bidder is retired by the engine, so the strategy keeps no
        # exit flag and the same objects can run a second auction
        strategies = [StochasticExit(4, 0.2, rng=np.random.default_rng(s)) for s in range(5)]
        for _ in range(2):
            out = run_descending_clock(config(target=6, tick=1), strategies)
            assert math.isclose(sum(out.awards.values()), 6, rel_tol=0, abs_tol=1e-9)

    def test_conservation_on_random_populations(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            strategies = [
                StochasticShrink(float(rng.uniform(2, 8)), low=float(rng.uniform(0.3, 0.9)),
                                 rng=np.random.default_rng(int(rng.integers(1 << 31))))
                for _ in range(n)
            ]
            target = float(rng.uniform(1.0, n * 1.5))
            policy = ("previous_price_prorata", "previous_price_priority")[int(rng.integers(2))]
            out = run_descending_clock(
                config(target=target, tick=1, undershoot_policy=policy), strategies)
            assert math.isclose(sum(out.awards.values()), target, rel_tol=0, abs_tol=1e-9)
            assert out.clearing_price > 0
            # offer monotonicity and strictly decreasing prices
            prices = [e.announced_price for e in out.round_log]
            assert all(p2 < p1 for p1, p2 in zip(prices, prices[1:]))
            for b in out.round_log[0].offers:
                offers = [e.offers[b] for e in out.round_log]
                assert all(o2 <= o1 + 1e-12 for o1, o2 in zip(offers, offers[1:]))


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make,name", [
        (lambda v: StochasticShrink(4, low=v, rng=np.random.default_rng(1)), "StochasticShrink.low"),
        (lambda v: StochasticExit(4, v, rng=np.random.default_rng(1)),
         "StochasticExit.exit_probability")], ids=["low", "exit_probability"])
    def test_non_finite_random_parameter_rejected(self, make, name, bad):
        # a NaN low used to end in an OverflowError from rng.uniform, and a
        # NaN exit probability silently meant "never exits"
        with pytest.raises(AuctionError, match=re.escape(f"{name} must be finite, got {bad!r}")):
            make(bad)

    def test_round_log_reads_like_a_tuple_of_entries(self):
        strategies = [ThresholdExit(6, 80, below_quantity=4), ThresholdExit(6, 90, 2),
                      StochasticShrink(5, low=0.8, rng=np.random.default_rng(3))]
        out = run_descending_clock(config(target=12, tick=5), strategies, ["A", "B", "C"])
        log = out.round_log
        entries = tuple(log)
        assert len(entries) == out.rounds_used >= 3
        assert all(type(e) is RoundLogEntry for e in entries)
        assert [e.round_no for e in entries] == list(range(1, len(log) + 1))
        assert log[-1] == entries[-1] and log[1:3] == entries[1:3]
        assert type(log[1:]) is tuple and log[::-1] == entries[::-1]
        assert log == entries and entries == log and log == list(entries)
        assert repr(log) == repr(entries)
        assert (log == 3) is False and (log != 3) is True  # not a sequence: NotImplemented
        assert log != entries[:-1] and log != (*entries[:-1], dataclasses.replace(
            entries[-1], aggregate=entries[-1].aggregate + 1))
        with pytest.raises(IndexError):
            log[len(log)]
        assert entries[0].offers == {"A": 6.0, "B": 6.0, "C": 5.0}
        assert entries[0].announced_price == 100 and type(entries[0].announced_price) is int
        # an outcome with the log replaced by its entries is the same outcome
        assert dataclasses.replace(out, round_log=entries) == out

    def test_block_boundaries_and_retired_bidders(self):
        # a clock of 200 rounds spans several blocks; the exit bidders retire
        # mid-block and are logged at 0.0 from then on
        strategies = [ConstantSupply(1.0)] + [
            StochasticExit(1.0, 0.02, rng=np.random.default_rng(s)) for s in range(8)]
        out = run_descending_clock(config(target=2, opening=300, tick=1, max_rounds=299),
                                   strategies)
        assert out.rounds_used > 64
        for b in out.round_log[0].offers:
            offers = [e.offers[b] for e in out.round_log]
            first_zero = offers.index(0.0) if 0.0 in offers else len(offers)
            assert set(offers[:first_zero]) <= {1.0} and set(offers[first_zero:]) <= {0.0}

    def test_aggregate_is_pythons_sum(self):
        # sum() starts from 0, so offers of -0.0 add up to 0.0, not -0.0
        with pytest.raises(AuctionError, match=re.escape("aggregate 0.0 < target 5")):
            run_descending_clock(config(target=5), [ConstantSupply(-0.0), ConstantSupply(-0.0)])

    def test_retired_bidders_draw_no_more(self):
        # rounds 2-64 are drawn at once at the start of the first block; a
        # bidder retired in that block (in round 1 or 2 here) draws nothing
        # in the next one, though the clock runs on to round 82
        strategies = [StochasticExit(1.0, 1.0, rng=np.random.default_rng(1)),
                      StochasticExit(0.0, 0.5, rng=np.random.default_rng(2)),
                      ThresholdExit(5.0, 20.0)]
        out = run_descending_clock(config(target=1, opening=100, tick=1), strategies)
        assert out.rounds_used == 82
        for seed, s in zip((1, 2), strategies):
            drew = np.random.default_rng(seed)
            drew.random(63)
            assert s.rng.bit_generator.state == drew.bit_generator.state

    def test_retired_shrink_bidders_draw_no_more(self):
        # B2 is active in both blocks and draws rounds 2-64, then 65-128; B3
        # retires in the first block (a factor below 0 is clamped to 0) and
        # draws nothing in the second. B1 holds the clock up until round 82
        strategies = [ThresholdExit(5.0, 120.0),
                      StochasticShrink(1.0, low=0.999, rng=np.random.default_rng(1)),
                      StochasticShrink(1.0, low=-1.0, rng=np.random.default_rng(2))]
        out = run_descending_clock(config(target=1, opening=200, tick=1), strategies)
        assert out.rounds_used == 82
        log = out.round_log
        assert log[81].offers["B2"] > 0 and log[63].offers["B3"] == 0.0
        for seed, s, n in zip((1, 2), strategies[1:], (63 + 64, 63)):
            drew = np.random.default_rng(seed)
            drew.random(n)
            assert s.rng.bit_generator.state == drew.bit_generator.state

    def test_listed_strategy_held_by_a_wrapper_is_called_per_round(self):
        def run(shared):
            first = StochasticShrink(6, low=0.9, rng=np.random.default_rng(4))
            second = first if shared else StochasticShrink(6, low=0.9, rng=np.random.default_rng(4))
            return run_descending_clock(config(target=7, tick=1), [Forward(second), first])

        # both bidders draw from one generator, one draw each per round, in bidder order
        shared = run(True)
        assert shared != run(False)
        g = np.random.default_rng(4)
        offers = [6.0, 6.0]
        for entry in shared.round_log[1:]:
            offers = [q * g.uniform(0.9, 1.0) for q in offers]
            assert list(entry.offers.values()) == offers

    def test_big_int_prices_compare_exactly(self):
        # 2**60 - 1 < 2**60, but not once the price is a float
        cfg = ClockAuctionConfig(target_quantity=3, opening_price=2 ** 60 + 1, price_decrement=1)
        out = run_descending_clock(cfg, [ThresholdExit(5, float(2 ** 60), below_quantity=1),
                                         ConstantSupply(2)])
        assert out.rounds_used == 3 and out.clearing_price == 2 ** 60 - 1

    @pytest.mark.parametrize("foreign", [False, True])
    def test_an_auction_runs_in_one_mode(self, foreign):
        # one bidder of another type sends every bidder, the built-ins too, to
        # be called per round; without it no bidder is called
        @dataclass
        class Fixed:
            quantity: float

            def offer(self, round_no, price, last_offer):
                return self.quantity

        builtins = [ConstantSupply(2.0), ThresholdExit(3.0, 95.0, 1.0),
                    StochasticExit(2.0, 0.3, rng=np.random.default_rng(1)),
                    StochasticShrink(2.0, 0.9, rng=np.random.default_rng(2))]
        types = [type(s) for s in builtins]
        with contextlib.ExitStack() as stack:
            # autospec passes each call's self on to the wrapped offer
            offers = [stack.enter_context(mock.patch.object(t, "offer", autospec=True,
                                                            side_effect=t.offer)) for t in types]
            rules = [stack.enter_context(mock.patch.object(t, "_block_offers",
                                                           wraps=t._block_offers)) for t in types]
            out = run_descending_clock(config(target=4 + foreign, tick=1),
                                       builtins + [Fixed(1.0)] * foreign,
                                       bidder_ids=list("ABCDE")[:4 + foreign])
        log = out.round_log
        assert out.rounds_used > 7 and 0.0 in log[-2].offers.values()  # a bidder retired
        for s, b, offer in zip(builtins, "ABCD", offers):
            # asked in round 1, then in each round after a non-zero offer
            asked = [r for r in range(1, len(log) + 1) if r == 1 or log[r - 2].offers[b]]
            assert [c.args[:2] for c in offer.call_args_list] == (
                [(s, r) for r in asked] if foreign else [])
        assert [rule.call_count for rule in rules] == [1 - foreign] * 4


_FIELD_VALUES = {"quantity": 2.0, "threshold": 95.0, "below_quantity": 1.0,
                 "exit_probability": 0.3, "low": 0.9}
_NUMERIC_FIELDS = [(t, f) for t in (ConstantSupply, ThresholdExit, StochasticExit,
                                    StochasticShrink)
                   for f in t.__dataclass_fields__ if f != "rng"]


@pytest.mark.parametrize("cls, name", _NUMERIC_FIELDS,
                         ids=[f"{t.__name__}.{f}" for t, f in _NUMERIC_FIELDS])
def test_block_eligibility_per_field_value(cls, name):
    # a bidder is block-eligible when each numeric field is a float or an int
    # that a float holds exactly (a StochasticShrink's low also in (-inf, 1])
    def rules(value):
        fields = {f: _FIELD_VALUES[f] for f in cls.__dataclass_fields__ if f != "rng"}
        extra = {"rng": np.random.default_rng(1)} if "rng" in cls.__dataclass_fields__ else {}
        s = cls(**fields, **extra)
        setattr(s, name, value)
        return _block_rules([s, ConstantSupply(1.0)])

    for value in (True, 2 ** 53 + 1, -2 ** 53 - 1, 2 ** 60, np.float64(3.5), np.float32(1)):
        assert rules(value) is None, value
    good = (0.5, -0.0, -1e300, 0, 1, -2 ** 53) if name == "low" else (
        2.5, -0.0, 1e300, math.inf, 0, 3, 2 ** 53, -2 ** 53)
    for value in good:
        assert rules(value) is not None, value


@pytest.mark.parametrize("n", [_WIDE - 1, _WIDE, 3 * _WIDE])
@pytest.mark.parametrize("rounds", [1, 64])
def test_clamp_row_by_row_is_numpys_running_minimum(n, rounds):
    # from _WIDE bidders on, the running minimum is taken one row at a time
    rng = np.random.default_rng([n, rounds])
    special = np.array([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
    raw = np.where(rng.random((rounds, n)) < 0.05, rng.choice(special, (rounds, n)),
                   rng.uniform(0.0, 10.0, (rounds, n)))
    last = rng.choice(np.array([math.inf, 0.0, -0.0, 5.0, 9.5]), n)
    bounds = np.concatenate((last[None], np.where(raw >= 0.0, raw, 0.0)))
    np.minimum.accumulate(bounds, out=bounds)
    asked = bounds[:-1] != 0.0
    expected = np.where(asked, bounds[1:], 0.0)
    with np.errstate(all="ignore"):
        offers, clamped, nonfinite = _clamp(raw, last)
    assert offers.tobytes() == expected.tobytes()  # the signs of zeros too
    assert (clamped == asked & (expected != raw)).all()
    assert (nonfinite == asked & ~np.isfinite(raw)).all()


class Forward:
    """Forwards offer() to a built-in strategy: the engine can only call it
    per round, which makes it the reference for the block path."""

    def __init__(self, inner):
        self.inner = inner

    def offer(self, round_no, announced_price, last_offer):
        return self.inner.offer(round_no, announced_price, last_offer)


_QUANTITY = st.one_of(st.floats(0.0, 20.0), st.integers(-3, 20), st.sampled_from(
    [0.0, -0.0, -2.5, 1e6] * 3 + [math.inf, -math.inf, math.nan]
    # inexact fields: every bidder of the auction is called per round
    + [2 ** 60, 2 ** 53 + 1, np.float64(3.5), np.float64(math.nan)]))
_BIDDER = st.one_of(
    st.tuples(st.just(ConstantSupply), st.fixed_dictionaries({"quantity": _QUANTITY})),
    st.tuples(st.just(ThresholdExit), st.fixed_dictionaries({
        "quantity": _QUANTITY, "below_quantity": _QUANTITY,
        "threshold": st.one_of(st.floats(0.0, 250.0), st.integers(0, 250), st.floats(0.0, 20.0))})),
    st.tuples(st.just(StochasticExit), st.fixed_dictionaries({
        "quantity": _QUANTITY,
        "exit_probability": st.one_of(st.sampled_from([0, 1, 1.5, 0.0, -0.5]),
                                      st.floats(0.0, 0.5), st.floats(0.0, 0.03))})),
    st.tuples(st.just(StochasticShrink), st.fixed_dictionaries({
        "quantity": _QUANTITY,
        "low": st.one_of(st.sampled_from([0, 1, 1.5, -0.5, 0.5]), st.floats(-1.0, 1.0),
                         st.floats(0.97, 1.0))})))
# the target is drawn as a share of the finite opening offers
_CLOCK = st.fixed_dictionaries({
    "opening_price": st.one_of(st.floats(1.0, 200.0), st.integers(1, 200)),
    "price_decrement": st.one_of(st.floats(0.01, 5.0), st.integers(1, 5),
                                 st.sampled_from([0.05, 0.1, 0.25])),
    "max_rounds": st.integers(1, 400),
    "undershoot_policy": st.sampled_from(["previous_price_prorata", "previous_price_priority"])})

def _run(clock, bidders, seed, forward):
    """Fresh strategies for ``bidders``, each wrapped in Forward where asked."""
    strategies = []
    for i, ((cls, fields), wrap) in enumerate(zip(bidders, forward)):
        extra = {"rng": np.random.default_rng([seed, i])} if "rng" in cls.__dataclass_fields__ else {}
        # a low above 1 is refused when a StochasticShrink is built, but its
        # fields stay mutable: one set afterwards must give the same outcome too
        s = cls(**{k: min(v, 1) if k == "low" else v for k, v in fields.items()}, **extra)
        vars(s).update(fields)
        strategies.append(Forward(s) if wrap else s)
    try:
        return run_descending_clock(ClockAuctionConfig(**clock), strategies)
    except (AuctionError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=300, deadline=None)
@given(clock=_CLOCK, share=st.floats(0.05, 0.95) | st.floats(0.05, 0.3), int_target=st.booleans(),
       bidders=st.lists(_BIDDER, min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_block_path_matches_per_call_path(clock, share, int_target, bidders, seed, data):
    opening = [f["below_quantity"] if cls is ThresholdExit and f["threshold"] > clock[
        "opening_price"] else f["quantity"] for cls, f in bidders]
    target = share * sum(q for q in opening if 0 < q < math.inf) + 0.5
    clock = {**clock, "target_quantity": math.ceil(target) if int_target else target}
    n = len(bidders)
    block = _run(clock, bidders, seed, [False] * n)
    mixed = _run(clock, bidders, seed, data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    per_call = _run(clock, bidders, seed, [True] * n)
    assert block == per_call and mixed == per_call
    assert _run(clock, bidders, seed, [False] * n) == block  # fresh strategies, same seed
    if isinstance(block, str):
        return
    target = clock["target_quantity"]
    assert math.isclose(sum(block.awards.values()), target, rel_tol=1e-9, abs_tol=1e-9)
    log = block.round_log
    for b in log[0].offers:
        offers = [e.offers[b] for e in log]
        assert all(q2 <= q1 for q1, q2 in zip(offers, offers[1:]))
        first_zero = offers.index(0.0) if 0.0 in offers else len(offers)
        assert all(q == 0.0 for q in offers[first_zero:])


def _outcome_or_error(strategies, target):
    try:
        return run_descending_clock(config(target=target, opening=100, tick=1), strategies)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("quantity, others, target, expected", [
    (4.0, [], 6, "AuctionError: undersubscribed at opening: aggregate 5.0 < target 6"),
    (4.0, [], 5, 1),  # clears in round 1
    (4.0, [], 4.5, "OverflowError: high - low range exceeds valid bounds"),  # drawn in round 2
    # retired in round 1, so it never draws; the threshold bidder exits in round 7
    (0.0, [ThresholdExit(4.0, 95.0)], 3, 7),
], ids=["undersubscribed", "round-1", "round-2", "retired"])
def test_shrink_with_a_low_of_minus_inf_runs_per_round(quantity, others, target, expected):
    # __post_init__ refuses a low of -inf, but the field can be set later;
    # numpy's uniform(-inf, 1.0) raises, so the bidder is called per round
    def strategies(forward):
        shrink = StochasticShrink(quantity, rng=np.random.default_rng(5))
        shrink.low = -math.inf
        bidders = [shrink, ConstantSupply(1.0), *others]
        return [Forward(s) for s in bidders] if forward else bidders

    block = _outcome_or_error(strategies(False), target)
    assert block == _outcome_or_error(strategies(True), target)
    assert (block if isinstance(block, str) else block.rounds_used) == expected


@pytest.mark.parametrize("low", [0.0, 1.0, 0.5, -0.5, 0.97, 1 - 2 ** -53, 5e-324, -1e308])
def test_shrink_factors_are_numpys_uniform(low):
    # StochasticShrink's block rule scales a block of random() doubles as
    # numpy's uniform(low, 1.0) does, low + (1.0 - low) * u: the same bits,
    # and the generator ends in the same state
    g, g2 = np.random.default_rng(11), np.random.default_rng(11)
    lows = np.array([low])
    u = np.empty((1, 500))
    g.random(out=u[0])
    factors = np.empty((500, 1))
    np.multiply(u.T, 1.0 - lows, out=factors)
    factors += lows
    assert (factors[:, 0].view(np.uint64) == g2.uniform(low, 1.0, 500).view(np.uint64)).all()
    assert g.bit_generator.state == g2.bit_generator.state


class TestSettlement:
    def test_cfd_zero_when_prices_equal(self):
        spot = make_spot([50.0] * 10)
        period = DeliveryPeriod(date(2007, 1, 1), date(2007, 1, 10))
        flows = settle_cfd(50.0, spot, period, quantity=3.0)
        assert all(f == 0.0 for _, f in flows)

    def test_cfd_daily_flow_matches_hourly_arithmetic(self):
        spot = make_spot([36.45])
        period = DeliveryPeriod(date(2007, 1, 1), date(2007, 1, 1))
        (_, flow), = settle_cfd(46.27, spot, period, quantity=1.0)
        assert flow == pytest.approx(9.82 * 24, abs=1e-9)
        assert flow == pytest.approx(235.68, abs=1e-9)

    def test_cfd_negative_when_spot_above_auction(self):
        spot = make_spot([47.78] * 5)
        period = DeliveryPeriod(date(2007, 1, 1), date(2007, 1, 5))
        flows = settle_cfd(38.45, spot, period, quantity=2.0)
        assert all(f < 0 for _, f in flows)
        assert flows[0][1] == pytest.approx(-9.33 * 2 * 24, abs=1e-9)

    def test_cfd_antisymmetry_and_linearity(self, rng):
        prices = rng.uniform(20, 80, size=14)
        spot = make_spot(prices)
        period = DeliveryPeriod(date(2007, 1, 3), date(2007, 1, 12))
        base = settle_cfd(55.0, spot, period, quantity=1.0)
        # swapping roles = negating flows; doubling quantity doubles flows
        swapped = [(d, -(f)) for d, f in base]
        doubled = settle_cfd(55.0, spot, period, quantity=2.0)
        for (d1, f1), (d2, f2) in zip(doubled, base):
            assert f1 == pytest.approx(2 * f2, abs=1e-9)
        for (d, f), (ds, fs) in zip(base, swapped):
            assert f == -fs

    def test_cfd_missing_spot_day(self):
        spot = make_spot([50.0] * 3)
        period = DeliveryPeriod(date(2007, 1, 1), date(2007, 1, 5))
        with pytest.raises(Exception, match="no spot price"):
            settle_cfd(50.0, spot, period, quantity=1.0)


def test_clock_without_strategies_rejected():
    with pytest.raises(AuctionError, match="at least one strategy required"):
        run_descending_clock(config(), [])
