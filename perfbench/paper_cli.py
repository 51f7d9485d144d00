"""paper_cli: the paper pipeline scripted through the command line.

Each step runs in a fresh ``python -m powerauctions.cli`` interpreter, one
child at a time, so the time goes to interpreter start, imports and CSV
parsing and writing. The numeric work is small (the panel has 28 rows).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from powerauctions import cli
from powerauctions.activity import baseline_mean_excluding, event_study, r1_series, r2_series
from powerauctions.auction_engine import run_descending_clock
from powerauctions.datasets import CESUR_AUCTIONS, PJM_AUCTIONS
from powerauctions.market_data import (MarketZone, average_price, load_auctions_csv,
                                       load_costs_csv, load_futures_csv,
                                       load_spot_csv_multi, write_futures_csv)
from powerauctions.panel import fit_pooled_ols
from powerauctions.premiums import (FmpiSpec, PremiumRow, cesur_premium,
                                    distribution_stats, equality_of_means,
                                    fmpi_premium, fmpi_strip, pjm_premium,
                                    yearly_aggregate)

from . import checks, inputs
from .auction_mc import count_auction
from .candle import CHILD_CANDLE_REF_S, child_candle
from .common import PassResult, child_env

FUTURES_ROWS = {"full": 100_000, "tiny": 3_000}


class PaperCli:
    name = "paper_cli"

    def __init__(self, root: Path, workdir: Path, seed: int, size: str):
        self.workdir, self.seed = workdir, seed
        self.futures_rows = FUTURES_ROWS[size]
        self.indir = workdir / "in"
        self.env = child_env(root)
        self.env["PYTHONPATH"] += os.pathsep + str(root)
        self.reference: dict[str, dict[str, str]] = {}

    def setup(self) -> None:
        self.meta = inputs.write_paper_inputs(self.indir, self.seed, self.futures_rows)
        # compiles the package's bytecode and warms the file cache
        subprocess.run([sys.executable, "-c", "import powerauctions.cli"],
                       env=self.env, cwd=self.indir, check=True)

    def steps(self, out: str) -> list[tuple[str, str, list[str]]]:
        """(step key, subcommand, argv); step ``key`` writes under ``out/key``."""
        m, c, p = self.meta, self.meta["cesur"], self.meta["pjm"]
        return [
            ("ingest", "ingest", ["--kind", "futures", "--input", m["futures"],
                                  "--out", f"{out}/ingest"]),
            ("cesur", "report", ["--auctions", c["auctions"], "--spot", c["spot"],
                                 "--fmpi", c["fmpi"], "--out", f"{out}/cesur"]),
            ("pjm", "report", ["--auctions", p["auctions"], "--spot", p["spot"],
                               "--costs", p["costs"], "--averages", p["averages"],
                               "--fmpi", p["fmpi"], "--out", f"{out}/pjm"]),
            ("event_study", "event-study", ["--futures", m["futures"], "--contract",
                                            m["contract"], "--measure", "r2", "--events",
                                            m["events"], "--out", f"{out}/event_study"]),
            ("fmpi", "fmpi", ["--prices", m["prices"], "--rate", str(m["rate"]),
                              "--out", f"{out}/fmpi/fmpi.json"]),
            ("regress", "regress", ["--panel", m["panel"],
                                    "--out", f"{out}/regress/regress.json"]),
            ("simulate", "simulate", ["--scenario", m["scenario"], "--seed",
                                      str(m["sim_seed"]), "--out",
                                      f"{out}/simulate/simulate.json"]),
        ]

    def run_pass(self, tracer, index: int) -> PassResult:
        res = PassResult(ref_wall=0.0)
        out = self.workdir / f"out{index}"
        for key, sub, argv in self.steps(os.path.relpath(out, self.indir)):
            t0 = time.perf_counter()
            with tracer.span(f"cli.run.{sub}"):
                proc = subprocess.run([sys.executable, "-m", "powerauctions.cli", sub, *argv],
                                      env=self.env, cwd=self.indir, capture_output=True,
                                      text=True)
            dt = time.perf_counter() - t0
            res.wall += dt
            res.samples.setdefault("cli_run_s", []).append(dt)
            res.attempted += 1
            if proc.returncode != 0:
                problems = [f"{key}: exit {proc.returncode}: {proc.stderr.strip()}"]
            else:
                problems = self.check(key, out / key)
            res.record(problems)
            # each step is scaled by the machine speed measured right after it
            res.candles.append(child_candle(self.env, self.indir))
            res.ref_wall += dt * CHILD_CANDLE_REF_S / res.candles[-1]
        shutil.rmtree(out, ignore_errors=True)
        return res

    def check(self, key: str, out: Path) -> list[str]:
        """The step's own checks, then byte identity with its first-pass artifacts."""
        try:
            problems = getattr(self, f"_check_{key}")(out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"{key}: artifact unreadable: {exc!r}"]
        digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.rglob("*")) if p.is_file()}
        reference = self.reference.setdefault(key, digests)
        if digests != reference:
            problems.append(f"{key}: artifacts differ from the first pass")
        return problems

    def _check_ingest(self, out: Path) -> list[str]:
        problems = []
        if (out / "futures.csv").read_bytes() != (self.indir / self.meta["futures"]).read_bytes():
            problems.append("ingest did not round-trip the futures file")
        accepted = json.loads((out / "ingest_summary.json").read_text())["rows_accepted"]
        if accepted != self.meta["futures_rows"]:
            problems.append(f"ingest accepted {accepted} of {self.meta['futures_rows']} rows")
        return problems

    def _check_cesur(self, out: Path) -> list[str]:
        return checks.check_premium_table(out / "premiums.csv", out / "report.json", "OMEL")

    def _check_pjm(self, out: Path) -> list[str]:
        return checks.check_premium_table(out / "premiums.csv", out / "report.json", "PJM")

    def _check_event_study(self, out: Path) -> list[str]:
        lines = (out / "event_study.csv").read_text().splitlines()
        lo, hi = inputs.EVENT_WINDOW
        if len([ln for ln in lines if not ln.startswith("#")]) != 2 + hi - lo:
            return ["event_study.csv does not hold one row per offset"]
        return []

    def _check_fmpi(self, out: Path) -> list[str]:
        strip = json.loads((out / "fmpi.json").read_text())["strip_value"]
        w = (1.0 + self.meta["rate"]) ** (-np.arange(1, 37) / 12.0)
        if abs(strip - float(w @ self.meta["strip"] / w.sum())) > 1e-9:
            return [f"fmpi strip {strip} != discounted-weight mean"]
        return []

    def _check_regress(self, out: Path) -> list[str]:
        n = json.loads((out / "regress.json").read_text())["n"]
        return [] if n == len(self.meta["panel_rows"]) else [f"regress used {n} rows"]

    def _check_simulate(self, out: Path) -> list[str]:
        sim = json.loads((out / "simulate.json").read_text())["outcome"]
        target = json.loads((self.indir / self.meta["scenario"]).read_text())[
            "config"]["target_quantity"]
        problems = []
        if abs(sum(sim["awards"].values()) - target) > checks.AWARD_TOL * max(1.0, target):
            problems.append("simulate awards do not sum to the target")
        if not sim["clearing_price"] > 0:
            problems.append(f"simulate cleared at {sim['clearing_price']}")
        return problems

    def probe(self, tracer) -> None:
        """Per-layer sources for the CLI work, in this process.

        Replays the same argv through ``cli.main`` and calls the loaders, the
        premium routines, the activity measures, the panel fit and the clock
        engine directly on the same inputs.
        """
        out = os.path.relpath(self.workdir / "probe", self.indir)
        cwd = os.getcwd()
        os.chdir(self.indir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for _, sub, argv in self.steps(out):
                    with tracer.span(f"cli.main.{sub}"):
                        code = cli.main([sub, *argv])
                    if code != 0:
                        raise RuntimeError(f"cli.main {sub} returned {code}")
            self._probe_layers(tracer)
        finally:
            os.chdir(cwd)
            shutil.rmtree(self.workdir / "probe", ignore_errors=True)

    def _probe_layers(self, tracer) -> None:
        m = self.meta
        with tracer.span("market_data.load.futures"):
            futures = load_futures_csv(m["futures"])
        tracer.count("market_data.rows", sum(len(s) for s in futures))
        with tracer.span("market_data.write"):
            write_futures_csv(os.path.join(os.path.relpath(self.workdir, self.indir),
                                           "probe_futures.csv"), futures)
        spot = {}
        records = []
        for files in (m["cesur"], m["pjm"]):
            with tracer.span("market_data.load.spot"):
                zones = load_spot_csv_multi(files["spot"])
            spot.update(zones)
            tracer.count("market_data.rows", sum(len(s) for s in zones.values()))
            with tracer.span("market_data.load.auctions"):
                recs = load_auctions_csv(files["auctions"])
            records += recs
            tracer.count("market_data.rows", len(recs))
        with tracer.span("market_data.load.costs"):
            costs = load_costs_csv(m["pjm"]["costs"])
        tracer.count("market_data.rows", len(costs))
        for rec in records:
            zone = (MarketZone("OMEL", "ES") if rec.market == "OMEL"
                    else MarketZone("PJM", rec.product_id.split("-")[0]))
            with tracer.span("market_data.average_price"):
                average_price(spot[zone], rec.delivery)
            tracer.count("market_data.days", len(rec.delivery.days()))

        for rows in (_cesur_rows(), _pjm_rows()):
            by_group: dict[str, list[float]] = {}
            for r in rows:
                by_group.setdefault(r.group, []).append(r.premium)
            with tracer.span("premiums.yearly_aggregate"):
                yearly_aggregate(rows)
            with tracer.span("premiums.distribution_stats"):
                distribution_stats([r.premium for r in rows])
            if all(len(v) >= 2 for v in by_group.values()):
                with tracer.span("premiums.equality_of_means"):
                    equality_of_means(by_group)
        with tracer.span("premiums.fmpi_strip"):
            fmpi_strip(FmpiSpec(tuple(m["strip"]), m["rate"]))

        contract = next(s for s in futures if s.contract_id == m["contract"])
        events = m["event_dates"]
        with tracer.span("activity.r1_series"):
            r1_series(contract)
        with tracer.span("activity.r2_series"):
            r2 = r2_series(contract)
        tracer.count("activity.undefined_days", len(r2.undefined_dates))
        positions, excluded = inputs.event_windows(contract.dates, events)
        with tracer.span("activity.baseline_mean_excluding"):
            baseline_mean_excluding(r2, excluded)
        with tracer.span("activity.event_study"):
            event_study(r2, events, window=inputs.EVENT_WINDOW)
        tracer.count("activity.events_dropped", inputs.events_dropped(len(contract), positions))

        with tracer.span("panel.fit"):
            fit = fit_pooled_ols(m["panel_rows"], inputs.PANEL_COVARIATES)
        tracer.count("panel.k", fit.k)

        scenario = json.loads(Path(m["scenario"]).read_text())
        with tracer.span("cli.build_scenario"):
            config, strategies, ids = cli.build_scenario(scenario, m["sim_seed"])
        with tracer.span("auction_engine.run.small"):
            outcome = run_descending_clock(config, strategies, ids)
        count_auction(tracer, outcome, len(strategies))


def _cesur_rows() -> list[PremiumRow]:
    rows = []
    for a in CESUR_AUCTIONS:
        prem, pct = cesur_premium(a.price, a.spot_avg)
        f_prem, f_pct = fmpi_premium(a.price, 0.0, a.fmpi)
        rows.append(PremiumRow(a.label, a.auction_date[:4], a.price, a.spot_avg, 0.0,
                               prem, pct, a.fmpi, f_prem, f_pct))
    return rows


def _pjm_rows() -> list[PremiumRow]:
    rows = []
    for a in PJM_AUCTIONS:
        prem, pct = pjm_premium(a.avg_price, a.costs, a.spot_avg)
        f_prem, f_pct = fmpi_premium(a.bgsfp_price, a.costs, a.fmpi)
        rows.append(PremiumRow(f"{a.year}-{a.zone}", a.zone, a.avg_price, a.spot_avg,
                               a.costs, prem, pct, a.fmpi, f_prem, f_pct))
    return rows
