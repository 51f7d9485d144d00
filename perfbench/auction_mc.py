"""auction_mc: an in-process Monte Carlo of seeded descending-clock auctions.

Every pass runs the same drawn pool: many 10-bidder auctions, which measure
per-auction overhead, and a few 1000-bidder auctions, which measure the cost
per bidder-round. Each auction gets fresh strategy objects from
``cli.build_scenario``, so every pass after the first also checks that the
same seed with fresh strategies gives the same outcome.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from powerauctions import cli
from powerauctions.auction_engine import run_descending_clock

from . import checks, inputs
from .common import PassResult

SIZES = {"full": {"small": 300, "large": 4, "large_bidders": 1000},
         "tiny": {"small": 6, "large": 1, "large_bidders": 40}}
SMALL_BIDDERS = 10
# Large auctions draw their target share and tick count from narrow ranges:
# with 1000 bidders the round count follows those two almost exactly, and a
# few large auctions per pass must not make wall_s depend on the seed.
LARGE_RANGES = {"target_share": (0.38, 0.42), "ticks": (240, 260)}


def count_auction(tracer, outcome, n_bidders: int) -> None:
    """Rounds, strategy calls (bidder-rounds), clamps and undershoot closes."""
    if not tracer.enabled:
        return
    log = outcome.round_log
    tracer.count("auction_engine.completed")
    tracer.count("auction_engine.rounds", outcome.rounds_used)
    tracer.count("auction_engine.bidder_rounds", n_bidders + sum(
        sum(1 for q in e.offers.values() if q > 0) for e in log[:-1]))
    tracer.count("auction_engine.clamps", sum(len(e.clamped) for e in log))
    tracer.count("auction_engine.undershoot", int(outcome.undershoot_resolved))


class AuctionMc:
    name = "auction_mc"

    def __init__(self, root: Path, workdir: Path, seed: int, size: str):
        self.seed, self.size = seed, SIZES[size]
        self.reference: dict[tuple[str, int], object] = {}

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.small = inputs.scenario_pool(rng, self.size["small"], SMALL_BIDDERS)
        self.large = inputs.scenario_pool(rng, self.size["large"], self.size["large_bidders"],
                                          **LARGE_RANGES)
        for scenario, seed in self.small[:10]:
            run_descending_clock(*cli.build_scenario(scenario, seed))

    def _auction(self, tracer, kind: str, i: int, scenario: dict, seed: int, res: PassResult):
        res.attempted += 1
        tracer.count("auction_engine.attempts")
        t0 = time.perf_counter()
        try:
            with tracer.span("cli.build_scenario"):
                config, strategies, ids = cli.build_scenario(scenario, seed)
            with tracer.span(f"auction_engine.run.{kind}"):
                outcome = run_descending_clock(config, strategies, ids)
        except Exception as exc:  # counted as a failed operation, never skipped
            tracer.count("auction_engine.errors")
            res.record([f"{kind} auction {i}: {type(exc).__name__}: {exc}"])
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        count_auction(tracer, outcome, len(strategies))
        problems = checks.check_auction(outcome, config.target_quantity)
        reference = self.reference.setdefault((kind, i), outcome)
        if not checks.same_outcome(outcome, reference):
            problems.append("same seed, fresh strategies, different outcome")
        res.record([f"{kind} auction {i}: {p}" for p in problems])
        return dt

    def run_pass(self, tracer, index: int) -> PassResult:
        res = PassResult()
        small_time = 0.0
        for i, (scenario, seed) in enumerate(self.small):
            small_time += self._auction(tracer, "small", i, scenario, seed, res)
        large = [self._auction(tracer, "large", i, scenario, seed, res)
                 for i, (scenario, seed) in enumerate(self.large)]
        res.wall = small_time + sum(large)
        res.samples["auction_small_per_s"] = [len(self.small) / small_time]
        res.samples["auction_large_s"] = large
        return res

