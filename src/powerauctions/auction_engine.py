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

import math
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


@dataclass
class ConstantSupply:
    """Offers a fixed quantity at any price."""
    quantity: float

    def offer(self, round_no, announced_price, last_offer):
        return self.quantity


@dataclass
class ThresholdExit:
    """Offers `quantity` while price >= threshold, then `below_quantity`."""
    quantity: float
    threshold: float
    below_quantity: float = 0.0

    def offer(self, round_no, announced_price, last_offer):
        return self.quantity if announced_price >= self.threshold else self.below_quantity


@dataclass
class StochasticExit:
    """Offers `quantity` until a per-round coin flip sends it to zero."""
    quantity: float
    exit_probability: float
    rng: np.random.Generator = field(kw_only=True)

    def offer(self, round_no, announced_price, last_offer):
        # the engine retires a bidder at its first zero offer and asks it no more
        if round_no > 1 and self.rng.random() < self.exit_probability:
            return 0.0
        return self.quantity


@dataclass
class StochasticShrink:
    """Multiplies its offer by a random factor in [low, 1] each round."""
    quantity: float
    low: float = 0.5
    rng: np.random.Generator = field(kw_only=True)

    def offer(self, round_no, announced_price, last_offer):
        if round_no == 1:
            return self.quantity
        return last_offer * self.rng.uniform(self.low, 1.0)


@dataclass(frozen=True)
class RoundLogEntry:
    round_no: int
    announced_price: float
    offers: dict[str, float]
    aggregate: float
    clamped: tuple[str, ...] = ()


@dataclass(frozen=True)
class AuctionOutcome:
    clearing_price: float
    awards: dict[str, float]
    rounds_used: int
    round_log: tuple[RoundLogEntry, ...]
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


def run_descending_clock(config: ClockAuctionConfig, strategies: list[Strategy],
                         bidder_ids: list[str] | None = None) -> AuctionOutcome:
    """Run one deterministic descending-clock auction.

    The previous round's offers dict is the only bidder state. An offer
    outside [0, last offer] is clamped (and logged), a non-finite one stops
    the auction, a zero offer retires the bidder permanently, and the
    returned awards always sum exactly to the target quantity. A round whose
    announced price is not positive stops the auction, so it can only clear
    at a positive price.
    """
    if not strategies:
        raise AuctionError("at least one strategy required")
    if bidder_ids is None:
        bidder_ids = [f"B{i + 1}" for i in range(len(strategies))]
    if len(bidder_ids) != len(strategies):
        raise AuctionError(f"{len(bidder_ids)} bidder ids for {len(strategies)} strategies")
    if len(bidder_ids) != len(set(bidder_ids)):
        raise AuctionError("bidder ids must be unique")
    log: list[RoundLogEntry] = []
    prev_offers = dict.fromkeys(bidder_ids, math.inf)
    prev_price = None

    for round_no in range(1, config.max_rounds + 1):
        price = config.price_for_round(round_no)
        if prev_price is not None and price >= prev_price:
            raise AuctionError(
                f"announced prices must strictly decrease (round {round_no}: {price} >= {prev_price})"
            )
        if not price > 0:
            raise AuctionError(f"announced price must be positive (round {round_no}: {price})")
        offers: dict[str, float] = {}
        clamped = []
        for (b, last), strat in zip(prev_offers.items(), strategies):
            if last == 0.0:
                offers[b] = 0.0
                continue
            q = float(strat.offer(round_no, price, last))
            if not math.isfinite(q):
                raise AuctionError(f"non-finite offer {q} from bidder {b} in round {round_no}")
            if not 0.0 <= q <= last:
                q = min(max(q, 0.0), last)
                clamped.append(b)
            offers[b] = q
        aggregate = sum(offers.values())
        log.append(RoundLogEntry(round_no=round_no, announced_price=price,
                                 offers=offers, aggregate=aggregate,
                                 clamped=tuple(clamped)))
        if round_no == 1 and aggregate < config.target_quantity:
            raise AuctionError(
                f"undersubscribed at opening: aggregate {aggregate} < target {config.target_quantity}"
            )
        if aggregate == config.target_quantity:
            awards = {b: q for b, q in offers.items() if q > 0}
            return AuctionOutcome(clearing_price=price, awards=awards,
                                  rounds_used=round_no, round_log=tuple(log))
        if aggregate < config.target_quantity:
            awards = _resolve_undershoot(config, prev_offers, offers)
            return AuctionOutcome(clearing_price=prev_price, awards=awards,
                                  rounds_used=round_no, round_log=tuple(log),
                                  undershoot_resolved=True)
        prev_offers = offers
        prev_price = price
    raise AuctionError(
        f"max rounds ({config.max_rounds}) exhausted without closing; "
        f"final aggregate {log[-1].aggregate} vs target {config.target_quantity}"
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
