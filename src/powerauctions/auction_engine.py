"""Simultaneous descending-clock auction engine and settlement calculators.

The clock auction lowers an announced price each round; bidders may keep or
reduce (never raise) their offered quantity and cannot re-enter once they
offer zero. The auction closes in the first round where aggregate supply no
longer exceeds the target. An exact match clears at that round's price with
offers awarded as bid; an undershoot clears at the previous round's price
with the final-round reductions partially restored so awards sum exactly to
the target.

Settlement side: fixed-quantity contracts settle as daily contracts for
differences against spot.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field
from datetime import date
from typing import Protocol

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .market_data import AuctionError, MarketDataError


_UNDERSHOOT_POLICIES = ("previous_price_prorata", "previous_price_priority")


@dataclass(frozen=True)
class ClockAuctionConfig:
    """Round r announces ``opening_price - (r - 1) * price_decrement``. The
    target quantity, the opening price and the decrement are positive and finite."""
    target_quantity: float
    opening_price: float
    price_decrement: float = 1.0
    max_rounds: int = 1000
    undershoot_policy: str = "previous_price_prorata"  # or previous_price_priority

    def __post_init__(self):
        for name in ("target_quantity", "opening_price", "price_decrement"):
            value, text = getattr(self, name), name.replace("_", " ")
            if not value > 0:  # written so that NaN is rejected too
                raise AuctionError(f"{text} must be positive")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # the price arithmetic would raise it mid-auction
                raise AuctionError(
                    f"{text} must be finite, got a value too large for a float") from None
            if not finite:
                raise AuctionError(f"{text} must be finite, got {value!r}")
        if not (isinstance(self.max_rounds, (int, np.integer)) and self.max_rounds >= 1):
            raise AuctionError(f"max rounds must be an integer >= 1, got {self.max_rounds!r}")
        if self.undershoot_policy not in _UNDERSHOOT_POLICIES:
            raise AuctionError(f"unknown undershoot policy {self.undershoot_policy!r}")


class Strategy(Protocol):
    """A bidder's offer rule; ``last_offer`` is inf in round 1, then the
    bidder's logged (clamped) offer of the previous round."""

    def offer(self, round_no: int, announced_price: float, last_offer: float) -> float: ...


# Each built-in strategy's _block_offers(bidders, cols) gives the offer rule
# of those bidders, columns ``cols`` of the auction, over a block of rounds:
# a function (round_no, prices, last, raw) that writes their raw offers into
# raw[:, cols], rounds x bidders. ``round_no`` is the block's first round,
# ``prices`` are its announced prices and ``last`` every bidder's logged
# offer before it. A bidder's offers depend only on its own history, so the
# whole block has a closed form.


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

        def offers(round_no, prices, last, raw):
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

        def offers(round_no, prices, last, raw):
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

        def offers(round_no, prices, last, raw):
            raw[:, cols] = q
            first = round_no == 1  # round 1 draws nothing
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
        if self.low > 1:  # numpy would raise at uniform(low, 1.0) in round 2
            raise AuctionError(f"StochasticShrink.low must be at most 1, got {self.low!r}")

    def offer(self, round_no, announced_price, last_offer):
        if round_no == 1:
            return self.quantity
        return last_offer * self.rng.uniform(self.low, 1.0)

    @staticmethod
    def _block_offers(bidders, cols):
        q, low = _fields(bidders, "quantity", "low")
        rngs = [b.rng for b in bidders]

        def offers(round_no, prices, last, raw):
            first = round_no == 1
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
    """One clock round: the announced price, each bidder's offer and the clamps."""
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
    """How a clock auction closed: price, awards and its rounds."""
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


def _block_rules(strategies):
    """The block rules of all the bidders, one per type, or None unless each
    is of an exact built-in type with ``_exact`` numeric fields, shares
    neither itself nor its ``Generator``, if it draws, with another bidder (a
    block drawn at once would change the other holder's draws) and, if a
    StochasticShrink, has ``low`` <= 1 (numpy raises at uniform(low > 1, 1.0);
    ``__post_init__`` refuses such a low, but the field can be set later)."""
    held = list(map(id, strategies))  # the ids of the objects each bidder holds
    by_type = {t: [] for t in _BLOCK_TYPES}
    for i, s in enumerate(strategies):
        cols = by_type.get(type(s))
        if cols is None:
            return None
        fields = s.__dict__
        rng = fields.get("rng", s)  # s: no generator
        for v in fields.values():
            if not (_exact(v) or v is rng):
                return None
        if rng is not s and type(rng) is not np.random.Generator or (
                type(s) is StochasticShrink and not s.low <= 1):
            return None
        cols.append(i)
        if rng is not s:
            held.append(id(rng))
    if len(set(held)) < len(held):  # an object held twice
        return None
    return [t._block_offers([strategies[i] for i in cols], np.array(cols))
            for t, cols in by_type.items() if cols]


def _call_rule(strategies):
    """The offer rule of bidders that are called: one round, in which each
    bidder's ``offer`` is called in bidder order while it is active."""
    def offers(round_no, prices, last, raw):
        price = prices[0]
        raw[0] = [float(s.offer(round_no, price, q)) if q != 0.0 else 0.0
                  for s, q in zip(strategies, last.tolist())]
    return offers


def _clamp(raw, last):
    """Logged offers, clamp flags and non-finite flags (None if there are
    none) of a block of rounds.

    A bidder is asked while its previous offer is not 0, and an asked offer
    outside [0, previous] is clamped into it: the logged offers are a
    running minimum of max(raw, 0) from ``last``, and 0.0 once retired.
    """
    bounds = np.concatenate((last[None], np.where(raw >= 0.0, raw, 0.0)))
    np.minimum.accumulate(bounds, out=bounds)
    asked = bounds[:-1] != 0.0
    offers = np.where(asked, bounds[1:], 0.0)
    # an asked offer in [0, previous] is logged as it is
    clamped = asked & (offers != raw)
    finite = np.isfinite(raw)
    # count_nonzero is one C call; finite.all() goes through Python first
    return offers, clamped, None if np.count_nonzero(finite) == finite.size else asked & ~finite


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
    awards always sum exactly to the target quantity.

    Round r announces ``opening_price - (r - 1) * price_decrement``, computed
    k rounds at a time: in numpy's default dtype when both numbers are
    ``_exact`` (float64 or int64 arithmetic on them is Python's), else in an
    object array, which keeps Python's arithmetic on, say, a huge int, a
    ``Fraction`` or a ``np.float32``; an int tick logs ints. The first round
    whose price is not below the previous one, or not positive, stops the
    auction, so it can only clear at a positive price.

    With an exact tick and every bidder eligible for ``_block_rules``, all
    bidders are priced k = ``BLOCK`` rounds at a time from their closed
    forms, and a random bidder's generator may end up to one block past its
    last used draw. Otherwise each bidder is called per round (k = 1), in
    bidder order and only while active. Strategies are called with numpy's
    floating-point errors ignored.
    """
    if not strategies:
        raise AuctionError("at least one strategy required")
    if bidder_ids is None:
        bidder_ids = [f"B{i + 1}" for i in range(len(strategies))]
    _check_ids(bidder_ids, len(strategies), AuctionError)
    dtype = None if _exact(config.opening_price) and _exact(config.price_decrement) else object
    # 0-d arrays: in an object array numpy would make a np.float32 scalar a
    # Python float, and a 0-d operand is the cheapest for numpy to compare with
    opening, tick, zero = (np.array(x, dtype) for x in (
        config.opening_price, config.price_decrement, 0))
    blocks = _block_rules(strategies) if dtype is None else None
    rules, step = (blocks, BLOCK) if blocks else ([_call_rule(strategies)], 1)
    target = config.target_quantity
    n = len(strategies)
    last = np.full(n, math.inf)
    prices: list = []
    offer_log, clamp_log, aggregates = [], [], []

    while len(prices) < config.max_rounds:
        done = len(prices)
        lo = max(done - 1, 0)  # from the last logged round, if any, to compare with
        k = min(step, config.max_rounds - done)
        ahead = opening - np.arange(lo, done + k, dtype=tick.dtype) * tick
        # the first price not below the one before, or not positive, ends the block,
        # and raises unless the auction closes before it. The config's numbers are
        # positive and finite, so round 1's price is good and no price is NaN
        cur = ahead[1:]
        bad = ((cur >= ahead[:-1]) | (cur <= zero)).tolist()
        ahead = ahead.tolist()
        end = bad.index(True) + 1 if True in bad else len(ahead)
        block_prices, price_error = ahead[done - lo:end], None
        if end < len(ahead):
            r, price, prev = lo + end + 1, ahead[end], ahead[end - 1]
            price_error = AuctionError(
                f"announced prices must strictly decrease (round {r}: {price} >= {prev})"
                if price >= prev else f"announced price must be positive (round {r}: {price})")
        if not block_prices:
            raise price_error
        raw = np.zeros((len(block_prices), n))
        for rule in rules:
            rule(done + 1, block_prices, last, raw)
        offers, clamped, nonfinite = _clamp(raw, last)
        # a left-to-right sum like Python's sum over the offers; sum starts
        # from 0, so + 0.0 turns an all -0.0 round into 0.0
        block_aggregates = (offers.cumsum(axis=1)[:, -1] + 0.0).tolist()
        # offers never rise, so neither do the aggregates: bisect for the close
        t = bisect.bisect_left(block_aggregates, -target, key=operator.neg)
        bad_rounds = () if nonfinite is None else nonfinite.any(axis=1).nonzero()[0]
        if len(bad_rounds) and bad_rounds[0] <= t:
            t = int(bad_rounds[0])
            j = int(np.argmax(nonfinite[t]))
            raise AuctionError(f"non-finite offer {raw[t, j].item()} from bidder "
                               f"{bidder_ids[j]} in round {done + 1 + t}")
        if done == 0 and block_aggregates[0] < target:
            raise AuctionError(f"undersubscribed at opening: aggregate {block_aggregates[0]} "
                               f"< target {target}")
        prices += block_prices[:t + 1]
        aggregates += block_aggregates[:t + 1]
        if t < len(block_prices):
            log = RoundLog(bidder_ids, prices, np.concatenate(offer_log + [offers[:t + 1]]),
                           aggregates, np.concatenate(clamp_log + [clamped[:t + 1]]))
            exact = block_aggregates[t] == target
            awards = ({b: q for b, q in zip(bidder_ids, offers[t].tolist()) if q > 0} if exact
                      else _resolve_undershoot(config, bidder_ids, offers[t - 1] if t else last,
                                               offers[t]))
            return AuctionOutcome(clearing_price=prices[-1 if exact else -2], awards=awards,
                                  rounds_used=len(prices), round_log=log,
                                  undershoot_resolved=not exact)
        if price_error is not None:
            raise price_error
        offer_log.append(offers)
        clamp_log.append(clamped)
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the pool
# is mixed with INIT_A/MULT_A, the output hashed with INIT_B/MULT_B
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_U32 = 0xFFFFFFFF


def _hash_steps(const: int, mult: int, n: int) -> np.ndarray:
    """The hash constant of n steps, before and after each multiply by
    ``mult``, as a (2, n) uint32 array: step k hashes a word w as
    ``(w ^ before[k]) * after[k]``, mod 2**32, then xors in its top 16 bits."""
    steps = []
    for _ in range(n):
        after = const * mult & _U32
        steps.append((const & _U32, after))
        const = after
    return np.array(steps, np.uint32).T


_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 8)  # generate_state(4, np.uint64)


def _entropy_words(entropy) -> int:
    """The number of uint32 words numpy makes of a SeedSequence's entropy."""
    if isinstance(entropy, (int, np.integer)):
        return max(1, (int(entropy).bit_length() + 31) // 32)
    return sum(map(_entropy_words, entropy))


def _child_words(root, n: int) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of child i of ``root.spawn(n)``, for
    each i < n < 2**32, as row i of an (n, 4) uint64 array, hashed from
    ``root.pool`` alone (``root`` has no spawn key of its own).

    numpy mixes a child's entropy (the root's, padded with zeros to the pool
    size p, then the spawn key i) into the pool word by word. All but the
    last word are the root's, so the child's pool is the root's pool with i
    mixed into each word, and the hash constant at that point is
    INIT_A * MULT_A**(p * max(p, L)), L being the entropy's uint32 words:
    p hashes fill the pool, p * (p - 1) cross-mix it and p more mix in each
    later word. The 8 uint32 state words then hash the pool cyclically.
    """
    p = root.pool_size
    const = _INIT_A * pow(_MULT_A, p * max(p, _entropy_words(root.entropy)), 1 << 32)
    cols = np.arange(8) % p  # the pool word each state word hashes
    before, after = _hash_steps(const, _MULT_A, p)[:, cols]
    h = (np.arange(n, dtype=np.uint32)[:, None] ^ before) * after
    h ^= h >> 16
    h = (_MIX_MULT_L * root.pool)[cols] - _MIX_MULT_R * h
    h ^= h >> 16
    h ^= _STATE_STEPS[0]
    h *= _STATE_STEPS[1]
    h ^= h >> 16
    # pairs of uint32 words read as little-endian uint64, as numpy does
    return h.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _ChildSeed(ISpawnableSeedSequence):
    """Child ``key`` of ``root.spawn(n)``. ``generate_state(4, np.uint64)``,
    which is how PCG64 seeds itself, returns a copy of the precomputed
    ``words``; every other use goes to the real child ``SeedSequence``, built
    on first use, and a copy or a pickle of this object is that child."""

    def __init__(self, root, key: int, words: np.ndarray):
        self._root, self._key, self._words = root, key, words

    @functools.cached_property
    def _seq(self):
        return np.random.SeedSequence(self._root.entropy, spawn_key=(self._key,),
                                      pool_size=self._root.pool_size)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._words.copy()
        return self._seq.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._seq.spawn(n_children)

    entropy, spawn_key, pool_size, n_children_spawned, pool, state = (
        property(operator.attrgetter(f"_seq.{name}")) for name in
        ("entropy", "spawn_key", "pool_size", "n_children_spawned", "pool", "state"))

    def __reduce__(self):
        return self._seq.__reduce__()

    def __repr__(self):
        return repr(self._seq)


def build_scenario(scenario: dict, seed: int | None):
    """Instantiate (config, strategies, bidder_ids) from a scenario dict.

    Each strategy's ``kind`` names its class; the random strategy at index
    i of n gets the generator ``default_rng(SeedSequence(seed).spawn(n)[i])``,
    bit for bit, and the others get none. The children are not spawned:
    ``_child_words`` hashes the PCG64 seed words of all n of them at once
    from the root's pool, with numpy's SeedSequence constants (INIT_A,
    MULT_A, MIX_MULT_L, MIX_MULT_R for the pool, INIT_B, MULT_B for the
    state), and ``_ChildSeed`` hands bidder i's words to PCG64.
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
    words = _child_words(root, len(top.strategies))
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
        strategies.append(_from_json(cls, fields, i, _ChildSeed(root, i, words[i])
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


def settle_cfd(auction_price: float, spot, period, quantity: float) -> list[tuple[date, float]]:
    """Daily contract-for-differences cash flows over the delivery period,
    for ``quantity`` MW delivered 24 hours a day: the period must be baseload.

    Positive flows favour the winning bidder (seller): it receives the
    auction price and pays out spot.
    """
    days, _, first_missing = spot._period_slice(period)
    if first_missing is not None:
        raise MarketDataError(f"no spot price for {first_missing}")
    flows = (auction_price - spot.prices[days]) * quantity * 24
    return list(zip(spot.dates[days], flows.tolist()))
