"""Simultaneous descending-clock auction engine and settlement calculators.

The clock auction lowers an announced price each round; bidders may keep or
reduce (never raise) their offered quantity and cannot re-enter once they
offer zero. The auction closes in the first round where aggregate supply no
longer exceeds the target. An exact match clears at that round's price with
offers awarded as bid; an undershoot clears at the previous round's price
with the final-round reductions partially restored so awards sum exactly to
the target.

Settlement side: fixed-quantity contracts settle as daily contracts for
differences against spot, full-requirements contracts pay the auction price
times a seasonal factor on realized load.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import date
from typing import Callable, Protocol

import numpy as np

from .market_data import MarketDataError


class AuctionError(RuntimeError):
    """Auction cannot proceed: bad configuration or no feasible close."""


@dataclass(frozen=True)
class ClockAuctionConfig:
    target_quantity: float
    opening_price: float
    price_decrement: float = 1.0
    # optional explicit schedule round -> price; overrides the fixed tick
    price_schedule: Callable[[int], float] | None = None
    max_rounds: int = 1000
    undershoot_policy: str = "previous_price_prorata"  # or previous_price_priority

    def __post_init__(self):
        # written as "not > 0" so that NaN is rejected too
        if not self.target_quantity > 0:
            raise AuctionError("target quantity must be positive")
        if not self.opening_price > 0:
            raise AuctionError("opening price must be positive")
        if self.price_schedule is None and not self.price_decrement > 0:
            raise AuctionError("price decrement must be positive")
        if not (isinstance(self.max_rounds, (int, np.integer)) and self.max_rounds >= 1):
            raise AuctionError(f"max rounds must be an integer >= 1, got {self.max_rounds!r}")
        if self.undershoot_policy not in ("previous_price_prorata", "previous_price_priority"):
            raise AuctionError(f"unknown undershoot policy {self.undershoot_policy!r}")

    def price_for_round(self, round_no: int) -> float:
        if self.price_schedule is not None:
            return float(self.price_schedule(round_no))
        return self.opening_price - (round_no - 1) * self.price_decrement


class Strategy(Protocol):
    """A bidder's offer rule; ``last_offer`` is inf in round 1, then the
    bidder's logged (clamped) offer of the previous round."""

    def offer(self, round_no: int, announced_price: float, last_offer: float) -> float: ...


# Each built-in strategy's _block_offers(bidders) gives the offer rule of
# those bidders over a block of rounds: a function (first, prices, last) ->
# raw offers, rounds x bidders, where ``first`` is true for a block that
# starts at round 1, ``prices`` are the block's announced prices and
# ``last`` the bidders' logged offers before the block. A bidder's offers
# depend only on its own history, so the whole block has a closed form.


@dataclass
class ConstantSupply:
    """Offers a fixed quantity at any price."""
    quantity: float

    def offer(self, round_no, announced_price, last_offer):
        return self.quantity

    @staticmethod
    def _block_offers(bidders):
        q = np.array([b.quantity for b in bidders], dtype=float)
        return lambda first, prices, last: q


@dataclass
class ThresholdExit:
    """Offers `quantity` while price >= threshold, then `below_quantity`."""
    quantity: float
    threshold: float
    below_quantity: float = 0.0

    def offer(self, round_no, announced_price, last_offer):
        return self.quantity if announced_price >= self.threshold else self.below_quantity

    @staticmethod
    def _block_offers(bidders):
        q, threshold, below = (np.array([getattr(b, name) for b in bidders], dtype=float)
                               for name in ("quantity", "threshold", "below_quantity"))
        return lambda first, prices, last: np.where(
            np.array(prices, dtype=float)[:, None] >= threshold, q, below)


def _draws(active, n: int, draw) -> np.ndarray:
    """``draw(j, n)`` for each active bidder j, as an n x len(active) array."""
    return np.array([draw(j, n) for j in active]).reshape(len(active), n).T


@dataclass
class StochasticExit:
    """Offers `quantity` until a per-round coin flip sends it to zero."""
    quantity: float
    exit_probability: float
    rng: np.random.Generator = field(kw_only=True)

    def __post_init__(self):
        if not -math.inf < self.exit_probability < math.inf:
            raise AuctionError(
                f"StochasticExit.exit_probability must be finite, got {self.exit_probability!r}")

    def offer(self, round_no, announced_price, last_offer):
        # the engine retires a bidder at its first zero offer and asks it no more
        if round_no > 1 and self.rng.random() < self.exit_probability:
            return 0.0
        return self.quantity

    @staticmethod
    def _block_offers(bidders):
        q, p = (np.array([getattr(b, name) for b in bidders], dtype=float)
                for name in ("quantity", "exit_probability"))
        rngs = [b.rng for b in bidders]

        def offers(first, prices, last):
            raw = np.full((len(prices), q.size), q)
            active = np.flatnonzero(last)  # a retired bidder draws nothing
            u = _draws(active, len(prices) - first, lambda j, n: rngs[j].random(n))
            raw[first:, active] = np.where(u < p[active], 0.0, q[active])
            return raw
        return offers


@dataclass
class StochasticShrink:
    """Multiplies its offer by a random factor in [low, 1] each round."""
    quantity: float
    low: float = 0.5
    rng: np.random.Generator = field(kw_only=True)

    def __post_init__(self):
        if not -math.inf < self.low < math.inf:
            raise AuctionError(f"StochasticShrink.low must be finite, got {self.low!r}")

    def offer(self, round_no, announced_price, last_offer):
        if round_no == 1:
            return self.quantity
        return last_offer * self.rng.uniform(self.low, 1.0)

    @staticmethod
    def _block_offers(bidders):
        q, low = (np.array([getattr(b, name) for b in bidders], dtype=float)
                  for name in ("quantity", "low"))
        rngs = [b.rng for b in bidders]

        def offers(first, prices, last):
            raw = np.zeros((len(prices), len(rngs)))
            active = np.flatnonzero(last)  # a retired bidder draws nothing
            factor = np.ones((len(prices), active.size))  # round 1 offers the quantity
            factor[first:] = _draws(active, len(prices) - first,
                                    lambda j, n: rngs[j].uniform(low[j], 1.0, n))
            # with low <= 1 no factor exceeds 1, so an offer is only ever
            # clamped to 0, which retires the bidder: until then each raw
            # offer is the previous one times its factor
            start = q[active] if first else last[active]
            raw[:, active] = np.multiply.accumulate(np.vstack([start, factor]))[1:]
            return raw
        return offers


_BLOCK_TYPES = (ConstantSupply, ThresholdExit, StochasticExit, StochasticShrink)
BLOCK = 64  # rounds priced at once for the bidders of _BLOCK_TYPES
_EXACT_INT = 2 ** 53


def _exact(x) -> bool:
    """A float, or an int that a float holds exactly: float64 arithmetic
    on it is Python's."""
    return type(x) is float or (type(x) is int and -_EXACT_INT <= x <= _EXACT_INT)


@dataclass(frozen=True)
class RoundLogEntry:
    round_no: int
    announced_price: float
    offers: dict[str, float]
    aggregate: float
    clamped: tuple[str, ...] = ()


class RoundLog(Sequence):
    """Read-only round log kept as arrays: rounds x bidders offers and clamp
    flags, plus the announced prices and aggregates. Each ``RoundLogEntry``
    is built when it is read; a slice is a tuple of entries, and ``==``
    compares entry by entry with any sequence of entries."""

    def __init__(self, bidder_ids, prices, offers, aggregates, clamped):
        self._ids, self._prices, self._offers = bidder_ids, prices, offers
        self._aggregates, self._clamped = aggregates, clamped

    def __len__(self):
        return len(self._prices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        r = range(len(self))[i]
        return RoundLogEntry(
            round_no=r + 1, announced_price=self._prices[r],
            offers=dict(zip(self._ids, self._offers[r].tolist())),
            aggregate=self._aggregates[r],
            clamped=tuple(self._ids[j] for j in np.flatnonzero(self._clamped[r])))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return repr(tuple(self))


@dataclass(frozen=True)
class AuctionOutcome:
    clearing_price: float
    awards: dict[str, float]
    rounds_used: int
    round_log: Sequence[RoundLogEntry]
    undershoot_resolved: bool = False


def _resolve_undershoot(config, prev_offers, final_offers):
    """Clear at the previous round's price, restoring final-round reductions.

    prorata: every bidder's reduction is scaled by the common factor that
    makes awards sum to the target. priority: reductions are restored whole,
    in descending previous-offer order (ties by bidder id), the last one
    partially.
    """
    target = config.target_quantity
    shortfall = target - sum(final_offers.values())
    reductions = {b: prev_offers[b] - q for b, q in final_offers.items()}
    total_reduction = sum(reductions.values())
    awards = dict(final_offers)
    if config.undershoot_policy == "previous_price_prorata":
        scale = shortfall / total_reduction
        for b, r in reductions.items():
            awards[b] = final_offers[b] + r * scale
    else:
        remaining = shortfall
        by_priority = sorted(final_offers, key=lambda b: (-prev_offers[b], b))
        for b in by_priority:
            give = min(reductions[b], remaining)
            awards[b] = final_offers[b] + give
            remaining -= give
            if remaining <= 0:
                break
    # exact conservation regardless of float rounding above
    drift = target - sum(awards.values())
    if awards:
        largest = max(awards, key=lambda b: (awards[b], b))
        awards[largest] += drift
    return {b: q for b, q in awards.items() if q > 0}


def _split_bidders(strategies, exact_prices: bool):
    """Columns and block rules of the bidders priced a block of rounds at a
    time, by type, and the columns of the bidders called per round.

    Only the exact built-in types with exact numeric fields go into blocks.
    A bidder whose strategy object or generator is also held by another
    bidder stays per call: drawing its block at once would change the draws
    the other sees. A ThresholdExit needs exact prices to compare.
    """
    held = Counter(map(id, strategies))
    for s in strategies:
        if type(s) in (StochasticExit, StochasticShrink):
            held[id(s.rng)] += 1
        elif type(s) not in _BLOCK_TYPES:
            held.update(map(id, getattr(s, "__dict__", {}).values()))

    def in_block(s) -> bool:
        fields = vars(s)
        if held[id(s)] > 1 or not all(_exact(v) for k, v in fields.items() if k != "rng"):
            return False
        if "rng" in fields and (type(s.rng) is not np.random.Generator or held[id(s.rng)] > 1):
            return False
        if type(s) is ThresholdExit:
            return exact_prices
        if type(s) is StochasticShrink:
            return s.low <= 1  # numpy raises at a draw from uniform(low > 1, 1.0)
        return True

    by_type = {t: [] for t in _BLOCK_TYPES}
    per_call = []
    for i, s in enumerate(strategies):
        (by_type[type(s)] if type(s) in by_type and in_block(s) else per_call).append(i)
    blocks = [(np.array(cols), t._block_offers([strategies[i] for i in cols]))
              for t, cols in by_type.items() if cols]
    return blocks, per_call


def _clamp(raw, last):
    """Logged offers, clamp flags and non-finite flags of a block of rounds.

    A bidder is asked while its previous offer is not 0, and an asked offer
    outside [0, previous] is clamped into it: the logged offers are a
    running minimum of max(raw, 0) from ``last``, and 0.0 once retired.
    """
    nonneg = raw >= 0.0
    bounds = np.minimum.accumulate(np.vstack([last, np.where(nonneg, raw, 0.0)]))
    prev = bounds[:-1]
    asked = prev != 0.0
    offers = np.where(asked, bounds[1:], 0.0)
    return offers, asked & ~(nonneg & (raw <= prev)), asked & ~np.isfinite(raw)


def run_descending_clock(config: ClockAuctionConfig, strategies: list[Strategy],
                         bidder_ids: list[str] | None = None) -> AuctionOutcome:
    """Run one deterministic descending-clock auction.

    The previous round's offers are the only bidder state. An offer outside
    [0, last offer] is clamped (and logged), a non-finite one stops the
    auction, a zero offer retires the bidder permanently, and the returned
    awards always sum exactly to the target quantity. A round whose
    announced price is not positive stops the auction, so it can only clear
    at a positive price.

    Bidders of the built-in types are priced ``BLOCK`` rounds at a time from
    their closed forms; any other strategy is called per round, in bidder
    order and only while active, and then (as with a ``price_schedule``)
    the clock advances one round at a time. A random bidder's generator may
    end up to one block past its last used draw.
    """
    if not strategies:
        raise AuctionError("at least one strategy required")
    if bidder_ids is None:
        bidder_ids = [f"B{i + 1}" for i in range(len(strategies))]
    if len(bidder_ids) != len(strategies):
        raise AuctionError(f"{len(bidder_ids)} bidder ids for {len(strategies)} strategies")
    if len(bidder_ids) != len(set(bidder_ids)):
        raise AuctionError("bidder ids must be unique")
    # an exact fixed tick is computed a block at a time, as Python would
    tick = (config.price_schedule is None and _exact(config.opening_price)
            and _exact(config.price_decrement))
    blocks, per_call = _split_bidders(strategies, tick or config.price_schedule is not None)
    step = BLOCK if tick and not per_call else 1
    target = config.target_quantity
    n = len(strategies)
    last = np.full(n, math.inf)
    prices: list = []  # as price_for_round returns them: an int tick logs ints
    offer_log, clamp_log, aggregates = [], [], []

    while len(prices) < config.max_rounds:
        round_no = len(prices) + 1
        k = int(min(step, config.max_rounds - len(prices)))
        if step == BLOCK:
            rounds = np.arange(round_no - 1, round_no - 1 + k)
            candidates = (config.opening_price - rounds * config.price_decrement).tolist()
        else:
            candidates = [config.price_for_round(round_no)]
        # a bad price ends the block, and raises unless the auction closes before it
        price_error, block_prices = None, []
        prev_price = prices[-1] if prices else None
        for r, price in enumerate(candidates, round_no):
            if prev_price is not None and price >= prev_price:
                price_error = AuctionError(
                    f"announced prices must strictly decrease (round {r}: {price} >= {prev_price})")
                break
            if not price > 0:
                price_error = AuctionError(f"announced price must be positive (round {r}: {price})")
                break
            block_prices.append(price)
            prev_price = price
        if not block_prices:
            raise price_error
        raw = np.zeros((len(block_prices), n))
        with np.errstate(all="ignore"):  # inf and nan arise as in Python floats, silently
            for cols, block_offers in blocks:
                raw[:, cols] = block_offers(round_no == 1, block_prices, last[cols])
        if per_call:  # one round: called in bidder order, up to a bad block offer
            bad = np.flatnonzero((last != 0.0) & ~np.isfinite(raw[0]))
            stop = bad[0] if bad.size else n
            lasts = last.tolist()
            for i in per_call:
                if i > stop:
                    break
                if lasts[i] == 0.0:
                    continue
                q = float(strategies[i].offer(round_no, block_prices[0], lasts[i]))
                if not math.isfinite(q):
                    raise AuctionError(
                        f"non-finite offer {q} from bidder {bidder_ids[i]} in round {round_no}")
                raw[0, i] = q
        offers, clamped, bad = _clamp(raw, last)
        # a left-to-right sum like Python's sum over the offers; sum starts
        # from 0, so + 0.0 turns an all -0.0 round into 0.0
        with np.errstate(over="ignore"):
            block_aggregates = (np.cumsum(offers, axis=1)[:, -1] + 0.0).tolist()
        # offers never rise, so neither do the aggregates: bisect for the close
        t = bisect.bisect_left(block_aggregates, -target, key=operator.neg)
        bad_rounds = np.flatnonzero(bad.any(axis=1))
        if bad_rounds.size and bad_rounds[0] <= t:
            t = int(bad_rounds[0])
            j = int(np.argmax(bad[t]))
            raise AuctionError(f"non-finite offer {raw[t, j].item()} from bidder "
                               f"{bidder_ids[j]} in round {round_no + t}")
        if round_no == 1 and block_aggregates[0] < target:
            raise AuctionError(f"undersubscribed at opening: aggregate {block_aggregates[0]} "
                               f"< target {target}")
        done = t < len(block_prices)
        end = t + 1 if done else len(block_prices)
        prices += block_prices[:end]
        aggregates += block_aggregates[:end]
        offer_log.append(offers[:end])
        clamp_log.append(clamped[:end])
        if done:
            final = dict(zip(bidder_ids, offers[t].tolist()))
            log = RoundLog(bidder_ids, prices, np.concatenate(offer_log), aggregates,
                           np.concatenate(clamp_log))
            if block_aggregates[t] == target:
                return AuctionOutcome(clearing_price=prices[-1],
                                      awards={b: q for b, q in final.items() if q > 0},
                                      rounds_used=len(prices), round_log=log)
            before = offers[t - 1] if t else last
            awards = _resolve_undershoot(config, dict(zip(bidder_ids, before.tolist())), final)
            return AuctionOutcome(clearing_price=prices[-2], awards=awards,
                                  rounds_used=len(prices), round_log=log,
                                  undershoot_resolved=True)
        if price_error is not None:
            raise price_error
        last = offers[-1]
    raise AuctionError(
        f"max rounds ({config.max_rounds}) exhausted without closing; "
        f"final aggregate {aggregates[-1]} vs target {target}"
    )


# --- settlement --------------------------------------------------------------


@dataclass(frozen=True)
class SeasonalPayoutFactors:
    summer_factor: float = 1.2
    winter_factor: float = 0.9
    summer_months: frozenset[int] = frozenset({6, 7, 8, 9})

    def __post_init__(self):
        if self.summer_factor <= 0 or self.winter_factor <= 0:
            raise ValueError("payout factors must be positive")

    def factor_for(self, day: date) -> float:
        return self.summer_factor if day.month in self.summer_months else self.winter_factor


def settle_cfd(auction_price: float, spot, period, quantity: float,
               hours_per_day: int = 24) -> list[tuple[date, float]]:
    """Daily contract-for-differences cash flows over the delivery period.

    Positive flows favour the winning bidder (seller): it receives the
    auction price and pays out spot.
    """
    days, _, first_missing = spot._period_slice(period)
    if first_missing is not None:
        raise MarketDataError(f"no spot price for {first_missing}")
    flows = (auction_price - spot.prices[days]) * quantity * hours_per_day
    return list(zip(spot.dates[days], flows.tolist()))


def full_requirements_payout(auction_price: float, load: list[tuple[date, float]],
                             factors: SeasonalPayoutFactors) -> list[tuple[date, float]]:
    """Daily payout = auction price x seasonal factor x MWh of load served."""
    flows = []
    for day, mwh in load:
        if mwh < 0:
            raise ValueError(f"negative load {mwh} on {day}")
        flows.append((day, auction_price * factors.factor_for(day) * mwh))
    return flows
