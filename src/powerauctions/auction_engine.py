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
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field
from datetime import date
from typing import Callable, Protocol

import numpy as np

from .market_data import AuctionError, MarketDataError


_UNDERSHOOT_POLICIES = ("previous_price_prorata", "previous_price_priority")


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
        if self.undershoot_policy not in _UNDERSHOOT_POLICIES:
            raise AuctionError(f"unknown undershoot policy {self.undershoot_policy!r}")

    def price_for_round(self, round_no: int) -> float:
        if self.price_schedule is not None:
            return float(self.price_schedule(round_no))
        return self.opening_price - (round_no - 1) * self.price_decrement


class Strategy(Protocol):
    """A bidder's offer rule; ``last_offer`` is inf in round 1, then the
    bidder's logged (clamped) offer of the previous round."""

    def offer(self, round_no: int, announced_price: float, last_offer: float) -> float: ...


# Each built-in strategy's _block_offers(bidders, cols) gives the offer rule
# of those bidders, columns ``cols`` of the auction, over a block of rounds:
# a function (first, prices, last, raw) that writes their raw offers into
# raw[:, cols], rounds x bidders. ``first`` is true for a block that starts
# at round 1, ``prices`` are the block's announced prices and ``last`` every
# bidder's logged offer before the block. A bidder's offers depend only on
# its own history, so the whole block has a closed form.


def _fields(bidders, *names) -> np.ndarray:
    """The fields ``names`` of ``bidders`` as floats, one row per name."""
    return np.array(list(map(operator.attrgetter(*names), bidders)), dtype=float).reshape(
        len(bidders), len(names)).T


@dataclass
class ConstantSupply:
    """Offers a fixed quantity at any price."""
    quantity: float

    def offer(self, round_no, announced_price, last_offer):
        return self.quantity

    @staticmethod
    def _block_offers(bidders, cols):
        q, = _fields(bidders, "quantity")

        def offers(first, prices, last, raw):
            raw[:, cols] = q
        return offers


@dataclass
class ThresholdExit:
    """Offers `quantity` while price >= threshold, then `below_quantity`."""
    quantity: float
    threshold: float
    below_quantity: float = 0.0

    def offer(self, round_no, announced_price, last_offer):
        return self.quantity if announced_price >= self.threshold else self.below_quantity

    @staticmethod
    def _block_offers(bidders, cols):
        q, threshold, below = _fields(bidders, "quantity", "threshold", "below_quantity")

        def offers(first, prices, last, raw):
            raw[:, cols] = np.where(np.array(prices, dtype=float)[:, None] >= threshold, q, below)
        return offers


def _draws(active, n: int, draw) -> np.ndarray:
    """``draw(j, n)`` for each active bidder j, as an n x len(active) array."""
    return np.array([draw(j, n) for j in active.tolist()]).reshape(len(active), n).T


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
    def _block_offers(bidders, cols):
        q, p = _fields(bidders, "quantity", "exit_probability")
        rngs = [b.rng for b in bidders]

        def offers(first, prices, last, raw):
            raw[:, cols] = q
            active = last[cols].nonzero()[0]  # a retired bidder draws nothing
            u = _draws(active, len(prices) - first, lambda j, n: rngs[j].random(n))
            raw[first:, cols[active]] = np.where(u < p[active], 0.0, q[active])
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
    def _block_offers(bidders, cols):
        q, low = _fields(bidders, "quantity", "low")
        rngs = [b.rng for b in bidders]

        def offers(first, prices, last, raw):
            # a retired bidder draws nothing, and its raw offers stay 0
            active = last[cols].nonzero()[0]
            # with low <= 1 no factor exceeds 1, so an offer is only ever
            # clamped to 0, which retires the bidder: until then each raw
            # offer is the previous one times its factor. Round 1 offers the
            # quantity; the first factor of a later block multiplies the last offer.
            steps = np.empty((len(prices), active.size))
            steps[first:] = _draws(active, len(prices) - first,
                                   lambda j, n: rngs[j].uniform(low[j], 1.0, n))
            if first:
                steps[0] = q[active]
            else:
                steps[0] *= last[cols[active]]
            raw[:, cols[active]] = np.multiply.accumulate(steps)
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


def _resolve_undershoot(config, bidder_ids, prev, final):
    """Clear at the previous round's price, restoring final-round reductions.

    ``prev`` and ``final`` are the offer arrays of the last two rounds.
    prorata: every bidder's reduction is scaled by the common factor that
    makes awards sum to the target. priority: reductions are restored whole,
    in descending previous-offer order (ties by bidder id), the last one
    partially. Every sum is Python's left-to-right one.
    """
    target = config.target_quantity
    shortfall = target - sum(final.tolist())
    if config.undershoot_policy == "previous_price_prorata":
        reductions = prev - final
        awards = (final + reductions * (shortfall / sum(reductions.tolist()))).tolist()
    else:
        awards, prev_l, remaining = final.tolist(), prev.tolist(), shortfall
        for _, _, i in sorted(zip((-prev).tolist(), bidder_ids, range(len(awards)))):
            give = min(prev_l[i] - awards[i], remaining)
            awards[i] += give
            remaining -= give
            if remaining <= 0:
                break
    # exact conservation regardless of float rounding above: the drift goes
    # to the largest award, ties by bidder id
    top = max(awards)
    largest = awards.index(top) if awards.count(top) == 1 else max(
        (i for i, q in enumerate(awards) if q == top), key=bidder_ids.__getitem__)
    awards[largest] += target - sum(awards)
    return {b: q for b, q in zip(bidder_ids, awards) if q > 0}


def _split_bidders(strategies, exact_prices: bool):
    """The block rules of the bidders priced a block of rounds at a time, one
    per type, and the columns of the bidders called per round.

    Only the exact built-in types with exact numeric fields (a float, or an
    int that a float holds exactly, so that float64 arithmetic on it is
    Python's) go into blocks. When a strategy object or generator is held
    by two bidders, every bidder is called per round: drawing a block at once
    would change the draws the other sees. A ThresholdExit needs exact
    prices to compare.
    """
    held = list(map(id, strategies))  # the ids of the objects each bidder holds
    by_type = {t: [] for t in _BLOCK_TYPES if exact_prices or t is not ThresholdExit}
    shrink = by_type[StochasticShrink]
    per_call = []
    for i, s in enumerate(strategies):
        cols = by_type.get(type(s))
        if cols is not None:
            fields = s.__dict__
            rng = fields.get("rng", s)  # s: no generator
            for v in fields.values():
                if not (type(v) is float or v is rng
                        or type(v) is int and -_EXACT_INT <= v <= _EXACT_INT):
                    break
            else:
                # numpy raises at a draw from uniform(low > 1, 1.0)
                if (rng is s or type(rng) is np.random.Generator) and (
                        cols is not shrink or s.low <= 1):
                    cols.append(i)
                    if rng is not s:
                        held.append(id(rng))
                    continue
        held += map(id, getattr(s, "__dict__", {}).values())
        per_call.append(i)
    if len(set(held)) < len(held):  # an object held twice
        return [], list(range(len(strategies)))
    blocks = [t._block_offers([strategies[i] for i in cols], np.array(cols))
              for t, cols in by_type.items() if cols]
    return blocks, per_call


def _clamp(raw, last, bounds):
    """Logged offers, clamp flags and non-finite flags (None if there are
    none) of a block of rounds.

    A bidder is asked while its previous offer is not 0, and an asked offer
    outside [0, previous] is clamped into it: the logged offers are a
    running minimum of max(raw, 0) from ``last``, and 0.0 once retired.
    ``bounds`` is a buffer of at least one row more than ``raw`` to hold it.
    """
    bounds = bounds[:len(raw) + 1]
    bounds[0] = last
    bounds[1:] = np.where(raw >= 0.0, raw, 0.0)
    np.minimum.accumulate(bounds, out=bounds)
    asked = bounds[:-1] != 0.0
    offers = np.where(asked, bounds[1:], 0.0)
    # an asked offer in [0, previous] is logged as it is
    clamped = asked & (offers != raw)
    finite = np.isfinite(raw)
    return offers, clamped, None if finite.all() else asked & ~finite


def _valid_prefix(candidates, prev_price, round_no):
    """The announced prices up to the first bad one, and the error it raises
    (None if every price is good)."""
    for r, price in enumerate(candidates, round_no):
        if prev_price is not None and price >= prev_price:
            return candidates[:r - round_no], AuctionError(
                f"announced prices must strictly decrease (round {r}: {price} >= {prev_price})")
        if not price > 0:
            return candidates[:r - round_no], AuctionError(
                f"announced price must be positive (round {r}: {price})")
        prev_price = price
    return candidates, None


def _check_ids(bidder_ids, n: int, error: type[Exception], where: str = "") -> None:
    if len(bidder_ids) != n:
        raise error(f"{where}{len(bidder_ids)} bidder ids for {n} strategies")
    if len(bidder_ids) != len(set(bidder_ids)):
        raise error(f"{where}bidder ids must be unique")


@np.errstate(all="ignore")  # inf and nan arise as in Python floats, silently
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
    end up to one block past its last used draw. Strategies are called with
    numpy's floating-point errors ignored.
    """
    if not strategies:
        raise AuctionError("at least one strategy required")
    if bidder_ids is None:
        bidder_ids = [f"B{i + 1}" for i in range(len(strategies))]
    _check_ids(bidder_ids, len(strategies), AuctionError)
    # an exact fixed tick is computed a block at a time, as Python would
    tick = (config.price_schedule is None and _exact(config.opening_price)
            and _exact(config.price_decrement))
    blocks, per_call = _split_bidders(strategies, tick or config.price_schedule is not None)
    step = BLOCK if tick and not per_call else 1
    target = config.target_quantity
    n = len(strategies)
    last = np.full(n, math.inf)
    bounds = np.empty((step + 1, n))
    prices: list = []  # as price_for_round returns them: an int tick logs ints
    offer_log, clamp_log, aggregates = [], [], []

    while len(prices) < config.max_rounds:
        round_no = len(prices) + 1
        if step == BLOCK:
            k = int(min(step, config.max_rounds - len(prices)))
            grid = config.opening_price - np.arange(round_no - 1, round_no - 1 + k) * (
                config.price_decrement)
            candidates = grid.tolist()
            # prices that fall strictly and end above 0 are all good
            valid = (grid[-1] > 0 and (grid[1:] < grid[:-1]).all()
                     and (not prices or candidates[0] < prices[-1]))
        else:
            candidates, valid = [config.price_for_round(round_no)], False
        # a bad price ends the block, and raises unless the auction closes before it
        block_prices, price_error = (candidates, None) if valid else _valid_prefix(
            candidates, prices[-1] if prices else None, round_no)
        if not block_prices:
            raise price_error
        raw = np.zeros((len(block_prices), n))
        for block_offers in blocks:
            block_offers(round_no == 1, block_prices, last, raw)
        if per_call:  # one round: called in bidder order while active
            lasts = last.tolist()
            for i in per_call:
                if lasts[i] != 0.0:
                    raw[0, i] = float(strategies[i].offer(round_no, block_prices[0], lasts[i]))
        offers, clamped, bad = _clamp(raw, last, bounds)
        # a left-to-right sum like Python's sum over the offers; sum starts
        # from 0, so + 0.0 turns an all -0.0 round into 0.0
        block_aggregates = (np.cumsum(offers, axis=1)[:, -1] + 0.0).tolist()
        # offers never rise, so neither do the aggregates: bisect for the close
        t = bisect.bisect_left(block_aggregates, -target, key=operator.neg)
        bad_rounds = () if bad is None else bad.any(axis=1).nonzero()[0]
        if len(bad_rounds) and bad_rounds[0] <= t:
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
            log = RoundLog(bidder_ids, prices, np.concatenate(offer_log), aggregates,
                           np.concatenate(clamp_log))
            if block_aggregates[t] == target:
                awards = {b: q for b, q in zip(bidder_ids, offers[t].tolist()) if q > 0}
                return AuctionOutcome(clearing_price=prices[-1], awards=awards,
                                      rounds_used=len(prices), round_log=log)
            awards = _resolve_undershoot(config, bidder_ids, offers[t - 1] if t else last,
                                         offers[t])
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


# --- scenarios ---------------------------------------------------------------


@dataclass
class _Scenario:
    """The top level of a ``simulate --scenario`` file."""
    config: dict
    strategies: list
    bidder_ids: list | None = None


_STRATEGY_KINDS = {"constant": ConstantSupply, "threshold_exit": ThresholdExit,
                  "stochastic_exit": StochasticExit, "stochastic_shrink": StochasticShrink}
# A scenario's keys are the fields of these dataclasses whose type is one of
# _JSON_TYPES. A JSON number passes as it is (an int stays an int);
# true/false is no number.
_NUMBER = (int, float)
_JSON_TYPES = {"float": _NUMBER, "int": (int,), "str": (str,), "dict": (dict,),
               "list": (list,), "list | None": (list, type(None))}


def _schema(cls) -> tuple[dict, list, bool]:
    """``cls``'s keys -> accepted types, its required keys in field order,
    and whether it draws (has an ``rng`` field)."""
    fields = cls.__dataclass_fields__
    accepted = {name: _JSON_TYPES[f.type] for name, f in fields.items() if f.type in _JSON_TYPES}
    return (accepted, [name for name in accepted if fields[name].default is MISSING],
            "rng" in fields)


_SCHEMAS = {cls: _schema(cls) for cls in (_Scenario, ClockAuctionConfig, *_STRATEGY_KINDS.values())}


def _where(where) -> str:
    return where if isinstance(where, str) else f"strategies[{where}]"


def _from_json(cls, spec, where, seed=None):
    """Build dataclass ``cls`` from the JSON object ``spec``, naming the first
    bad key in ``spec``'s order, else the first missing field.

    ``where`` is the spec's name, or a strategy's index. An ``rng`` field
    gets a generator seeded from ``seed``.
    """
    if not isinstance(spec, dict):
        raise MarketDataError(f"{_where(where)}: expected dict, got {spec!r}")
    accepted, required, draws = _SCHEMAS[cls]
    for key, value in spec.items():
        types = accepted.get(key)
        if types is None:
            raise MarketDataError(f"{_where(where)}.{key}: unknown field")
        if not isinstance(value, types) or type(value) is bool:
            raise MarketDataError(f"{_where(where)}.{key}: expected "
                                  f"{cls.__dataclass_fields__[key].type}, got {value!r}")
        if types is _NUMBER and type(value) is not float:
            try:
                float(value)
            except OverflowError:
                raise MarketDataError(
                    f"{_where(where)}.{key}: integer too large for a float") from None
    if len(spec) < len(accepted):
        for name in required:
            if name not in spec:
                raise MarketDataError(f"{_where(where)}.{name}: missing")
    return cls(**spec, rng=np.random.default_rng(seed)) if draws else cls(**spec)


def build_scenario(scenario: dict, seed: int | None):
    """Instantiate (config, strategies, bidder_ids) from a scenario dict.

    Each strategy's ``kind`` names its class; the random strategy at index
    i gets a generator seeded by child i of ``SeedSequence(seed).spawn(n)``.
    A malformed scenario raises ``MarketDataError`` naming the bad key.
    """
    top = _from_json(_Scenario, scenario, "scenario")
    ids = top.bidder_ids
    if ids is not None:
        if not all(isinstance(b, str) for b in ids):
            raise MarketDataError(f"scenario.bidder_ids: expected str ids, got {ids!r}")
        _check_ids(ids, len(top.strategies), MarketDataError, "scenario.bidder_ids: ")
    policy = top.config.get("undershoot_policy")
    if isinstance(policy, str) and policy not in _UNDERSHOOT_POLICIES:
        raise MarketDataError(f"config.undershoot_policy: unknown undershoot policy {policy!r}")
    config = _from_json(ClockAuctionConfig, top.config, "config")
    root = np.random.SeedSequence(seed)
    strategies = []
    for i, spec in enumerate(top.strategies):
        if not isinstance(spec, dict):
            raise MarketDataError(f"strategies[{i}]: expected dict, got {spec!r}")
        kind = spec.get("kind")
        cls = _STRATEGY_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise MarketDataError(f"strategies[{i}].kind: unknown strategy kind {kind!r}")
        fields = spec.copy()
        del fields["kind"]
        # child i of root.spawn(n), built only for the bidders that draw
        strategies.append(_from_json(cls, fields, i, np.random.SeedSequence(
            root.entropy, spawn_key=(i,), pool_size=root.pool_size)
            if _SCHEMAS[cls][2] else None))
    return config, strategies, ids


def outcome_to_dict(outcome) -> dict:
    return {
        "clearing_price": outcome.clearing_price,
        "awards": dict(sorted(outcome.awards.items())),
        "rounds_used": outcome.rounds_used,
        "undershoot_resolved": outcome.undershoot_resolved,
        "round_log": [
            {"round": e.round_no, "announced_price": e.announced_price,
             "offers": dict(sorted(e.offers.items())), "aggregate": e.aggregate,
             "clamped": sorted(e.clamped)}
            for e in outcome.round_log
        ],
    }


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
