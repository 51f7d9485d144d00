"""Self-tests of the benchmark: run with ``python -m pytest perfbench``.

Each workload runs at a tiny size and must report every metric named in
BENCHMARK.json with its unit; each correctness check must reject a
deliberately corrupted output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, inputs
from perfbench.common import top_percentile
from perfbench.tracing import Tracer
from powerauctions import cli
from powerauctions.activity import event_study, r2_series
from powerauctions.auction_engine import run_descending_clock
from powerauctions.panel import fit_pooled_ols

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "auction_mc", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_follow_the_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs.write_paper_inputs(tmp_path / name, seed, futures_rows=500)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
               for f in files)
    assert (tmp_path / "a/futures.csv").read_bytes() != (tmp_path / "c/futures.csv").read_bytes()


def test_spot_means_equal_published_period_means():
    rng = np.random.default_rng(0)
    days = inputs.calendar_days(date(2007, 1, 1), date(2009, 12, 31))
    periods = [(*inputs.quarter_period(2, 2009), 56.92), (*inputs.pjm_delivery(2007), 70.79)]
    prices = inputs.monthly_spot(rng, days, periods, base=45.0)
    ordinals = np.array([d.toordinal() for d in days])
    for start, end, mean in periods:
        inside = (ordinals >= start.toordinal()) & (ordinals <= end.toordinal())
        assert prices[inside].mean() == pytest.approx(mean, abs=1e-9)
        assert len(np.unique(prices[inside])) > 1


@pytest.fixture(scope="module")
def paper_reports(tmp_path_factory):
    """premiums.csv and report.json for both markets, written by cli.main."""
    work = tmp_path_factory.mktemp("paper")
    meta = inputs.write_paper_inputs(work, seed=2, futures_rows=500)
    c, p = meta["cesur"], meta["pjm"]
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["report", "--auctions", c["auctions"], "--spot", c["spot"],
                             "--fmpi", c["fmpi"], "--out", "cesur"]) == 0
            assert cli.main(["report", "--auctions", p["auctions"], "--spot", p["spot"],
                             "--costs", p["costs"], "--averages", p["averages"],
                             "--fmpi", p["fmpi"], "--out", "pjm"]) == 0
    finally:
        os.chdir(cwd)
    return work


@pytest.mark.parametrize("market,folder", [("OMEL", "cesur"), ("PJM", "pjm")])
def test_premium_check_rejects_a_row_off_by_002(paper_reports, tmp_path, market, folder):
    src = paper_reports / folder
    assert checks.check_premium_table(src / "premiums.csv", src / "report.json", market) == []
    lines = (src / "premiums.csv").read_text().splitlines(keepends=True)
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cells = lines[header + 3].split(",")
    cells[5] = f"{float(cells[5]) + 0.02:.4f}"  # the premium column
    lines[header + 3] = ",".join(cells)
    (tmp_path / "premiums.csv").write_text("".join(lines))
    problems = checks.check_premium_table(tmp_path / "premiums.csv", src / "report.json", market)
    assert len(problems) == 1 and "premium" in problems[0]


def test_premium_check_rejects_a_group_average_off_by_006(paper_reports, tmp_path):
    src = paper_reports / "pjm"
    report = json.loads((src / "report.json").read_text())
    report["aggregates"]["groups"]["RECO"]["premium"] += 0.06
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert checks.check_premium_table(src / "premiums.csv", tmp_path / "report.json", "PJM")


@pytest.fixture(scope="module")
def auction():
    rng = np.random.default_rng(4)
    scenario, seed = inputs.scenario_pool(rng, 1, 10)[0]
    config, strategies, ids = cli.build_scenario(scenario, seed)
    return scenario, seed, config, run_descending_clock(config, strategies, ids)


def test_auction_checks_pass_and_repeat(auction):
    scenario, seed, config, outcome = auction
    assert checks.check_auction(outcome, config.target_quantity) == []
    again = run_descending_clock(*cli.build_scenario(scenario, seed))
    assert checks.same_outcome(outcome, again)


def test_auction_check_rejects_awards_past_the_target(auction):
    _, _, config, outcome = auction
    awards = dict(outcome.awards)
    first = next(iter(awards))
    awards[first] += 1e-6
    bad = dataclasses.replace(outcome, awards=awards)
    assert checks.check_auction(bad, config.target_quantity)
    assert not checks.same_outcome(outcome, bad)


def test_auction_check_rejects_rising_offers_and_reentry(auction):
    _, _, config, outcome = auction
    log = list(outcome.round_log)
    assert len(log) >= 3
    bidder = next(iter(log[1].offers))
    raised = dict(log[1].offers, **{bidder: log[0].offers[bidder] + 1.0})
    bad = dataclasses.replace(outcome, round_log=(log[0], dataclasses.replace(
        log[1], offers=raised), *log[2:]))
    assert any("raised" in p for p in checks.check_auction(bad, config.target_quantity))
    exited = dict(log[1].offers, **{bidder: 0.0})
    back = dict(log[2].offers, **{bidder: 0.5})
    bad = dataclasses.replace(outcome, round_log=(
        log[0], dataclasses.replace(log[1], offers=exited),
        dataclasses.replace(log[2], offers=back), *log[3:]))
    assert any("re-entered" in p for p in checks.check_auction(bad, config.target_quantity))


def test_ols_check_rejects_a_perturbed_coefficient():
    data = inputs.analytics_inputs(1, years=2, n_contracts=1, n_events=4, n_units=5,
                                   n_periods=4)
    panel = [dataclasses.replace(o, y=float(y)) for o, y in zip(data["panel"], data["y_raw"])]
    fit = fit_pooled_ols(panel, data["covariates"], unit_fixed_effects=True)
    assert checks.check_ols(fit, data["covariates"], panel, data["y_raw"]) == []
    coefs = list(fit.coefficients)
    coefs[1] = dataclasses.replace(coefs[1], estimate=coefs[1].estimate * (1 + 1e-6))
    bad = dataclasses.replace(fit, coefficients=tuple(coefs))
    assert checks.check_ols(bad, data["covariates"], panel, data["y_raw"])


def test_event_count_check_rejects_a_wrong_count():
    data = inputs.analytics_inputs(2, years=2, n_contracts=1, n_events=6, n_units=3,
                                   n_periods=3)
    series, dates = data["contracts"][0]
    m = r2_series(series)
    pos = {d: i for i, d in enumerate(series.dates)}
    positions = [pos[d] for d in dates]
    res = event_study(m, dates, window=(-5, 5))
    assert checks.check_event_study(res, positions, m.defined_mask(), (-5, 5)) == []
    res[3] = dataclasses.replace(res[3], n_events=res[3].n_events + 1)
    assert checks.check_event_study(res, positions, m.defined_mask(), (-5, 5))


def test_top_percentile_needs_ten_samples_beyond():
    assert top_percentile(list(range(19))) is None
    assert top_percentile(list(range(20)))[0] == 50.0
    assert top_percentile(list(range(100))) == (90.0, 89)
    assert top_percentile(list(range(1000)))[0] == 99.0


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    (parent, parent_self), *children = tracer.self_times()
    covered = sum(s.end - s.start for s, _ in children)
    assert parent_self == pytest.approx(parent.end - parent.start - covered)
    assert all(s.parent == 0 for s, _ in children)
