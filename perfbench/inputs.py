"""Seeded input generation for the three workloads.

Every input is a function of the workload seed: the same seed gives the same
files and objects. The published CESUR and PJM-BGS tables come from
``powerauctions.datasets``; the daily spot series around them are
piecewise constant by calendar month, with each delivery period's
day-weighted mean equal to the published ``spot_avg``.
"""

from __future__ import annotations

import csv
import json
import re
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from powerauctions.datasets import CESUR_AUCTIONS, PJM_AUCTIONS
from powerauctions.market_data import (DeliveryPeriod, FuturesContractSeries,
                                       MarketZone, SpotPriceSeries)
from powerauctions.panel import PanelObservation

PJM_ZONE_ORDER = ("ACE", "JCPL", "PSEG", "RECO")
EVENT_WINDOW = (-5, 5)
PANEL_COVARIATES = ("vol3y", "startbidders", "wbidders")
STRATEGY_KINDS = ("constant", "threshold_exit", "stochastic_exit", "stochastic_shrink")
STRATEGY_MIX = (0.1, 0.3, 0.2, 0.4)
POLICIES = ("previous_price_prorata", "previous_price_priority")


def calendar_days(start: date, end: date) -> list[date]:
    return [date.fromordinal(o) for o in range(start.toordinal(), end.toordinal() + 1)]


def weekdays(start: date, end: date) -> list[date]:
    return [d for d in calendar_days(start, end) if d.weekday() < 5]


def quarter_period(q: int, year: int) -> tuple[date, date]:
    start = date(year, 3 * q - 2, 1)
    nxt = date(year + (q == 4), 1 if q == 4 else 3 * q + 1, 1)
    return start, nxt - timedelta(days=1)


def cesur_delivery(product: str) -> tuple[date, date]:
    """Delivery dates of a CESUR product code such as ``Q3-08`` or ``Q2Q3-08``."""
    m = re.fullmatch(r"Q(\d)(?:Q(\d))?-(\d\d)", product)
    if m is None:
        raise ValueError(f"unrecognised CESUR product {product!r}")
    first, last, yy = int(m.group(1)), int(m.group(2) or m.group(1)), 2000 + int(m.group(3))
    return quarter_period(first, yy)[0], quarter_period(last, yy)[1]


def pjm_delivery(year: int) -> tuple[date, date]:
    return date(year, 6, 1), date(year + 1, 5, 31)


def monthly_spot(rng, days: list[date], periods, base: float) -> np.ndarray:
    """Piecewise-constant daily prices, one level per calendar month.

    ``periods`` holds non-overlapping, month-aligned ``(start, end, mean)``
    triples; inside each, the monthly levels are shifted so the day-weighted
    mean over the period is exactly ``mean`` (up to float rounding).
    """
    month_of = np.array([d.year * 12 + d.month - 1 for d in days])
    months, inverse = np.unique(month_of, return_inverse=True)
    level = base + rng.normal(0.0, 5.0, size=months.size)
    ordinals = np.array([d.toordinal() for d in days])
    for start, end, mean in periods:
        inside = (ordinals >= start.toordinal()) & (ordinals <= end.toordinal())
        ms = np.unique(inverse[inside])
        level[ms] = mean + rng.normal(0.0, 3.0, size=ms.size)
        level[ms] += mean - level[inverse[inside]].mean()
    return level[inverse]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _session_fields(rng) -> tuple[int, int, int]:
    """Start bidders, winning bidders and rounds of a drawn auction session."""
    start = int(rng.integers(8, 40))
    return start, int(rng.integers(1, start + 1)), int(rng.integers(10, 120))


def event_windows(dates, event_dates, window=EVENT_WINDOW) -> tuple[list[int], set[date]]:
    """Positions of the event dates and every date inside an event window."""
    pos = {d: i for i, d in enumerate(dates)}
    positions = [pos[d] for d in event_dates]
    n = len(dates)
    excluded = {dates[i] for p in positions
                for i in range(max(0, p + window[0]), min(n, p + window[1] + 1))}
    return positions, excluded


def events_dropped(n: int, positions, window=EVENT_WINDOW) -> int:
    """Event-offset pairs that fall off either end of a series of length n."""
    pos = np.asarray(positions)
    return int(sum(((pos + k < 0) | (pos + k >= n)).sum()
                   for k in range(window[0], window[1] + 1)))


# --- auction scenarios -------------------------------------------------------


def draw_scenario(rng, n_bidders: int, target_share=(0.25, 0.6), ticks=(200, 300)) -> dict:
    """One clock-auction scenario in the ``simulate --scenario`` JSON schema.

    The price would reach zero after ``ticks`` rounds; max_rounds stops the
    clock one tick before that. The target is ``target_share`` of the
    non-constant supply on top of the constant supply. Constant supply alone stays below the
    target, threshold bidders leave by 20% of the opening price and the
    stochastic bidders decay geometrically, so a scenario closes well inside
    that limit unless the engine misbehaves.
    """
    opening = float(rng.uniform(60.0, 120.0))
    ticks = int(rng.integers(*ticks))
    kinds = rng.choice(len(STRATEGY_KINDS), size=n_bidders, p=STRATEGY_MIX)
    quantities = rng.uniform(1.0, 10.0, size=n_bidders).round(3)
    strategies = []
    for kind, q in zip(kinds, quantities):
        spec = {"kind": STRATEGY_KINDS[kind], "quantity": float(q)}
        if kind == 1:
            spec["threshold"] = round(float(rng.uniform(0.2, 0.95)) * opening, 3)
        elif kind == 2:
            spec["exit_probability"] = round(float(rng.uniform(0.05, 0.15)), 4)
        elif kind == 3:
            spec["low"] = round(float(rng.uniform(0.9, 0.98)), 4)
        strategies.append(spec)
    total = float(quantities.sum())
    constant = float(quantities[kinds == 0].sum())
    target = constant + float(rng.uniform(*target_share)) * (total - constant)
    return {
        "config": {
            "target_quantity": round(target, 6),
            "opening_price": round(opening, 4),
            "price_decrement": round(opening / ticks, 6),
            "max_rounds": ticks - 1,
            "undershoot_policy": POLICIES[int(rng.integers(2))],
        },
        "strategies": strategies,
    }


def scenario_pool(rng, count: int, n_bidders: int, **ranges) -> list[tuple[dict, int]]:
    """``count`` drawn scenarios, each with the seed its strategies get."""
    return [(draw_scenario(rng, n_bidders, **ranges), int(rng.integers(1 << 31)))
            for _ in range(count)]


# --- paper_cli files ---------------------------------------------------------


def _cesur_files(rng, workdir: Path, days: list[date]) -> dict:
    auctions, fmpi, periods = [], [], []
    for a in CESUR_AUCTIONS:
        start, end = cesur_delivery(a.product)
        if "Q" not in a.product[1:]:  # single quarters pin the monthly levels
            periods.append((start, end, a.spot_avg))
        sb, wb, rounds = _session_fields(rng)
        auctions.append(["OMEL", a.label.split("(")[0], a.auction_date, a.product,
                         start.isoformat(), end.isoformat(), "baseload",
                         "fixed_quantity", repr(a.price),
                         repr(float(rng.integers(500, 5000))), sb, wb, rounds])
        fmpi.append(["OMEL", a.product, repr(a.fmpi)])
    prices = monthly_spot(rng, days, periods, base=45.0)
    _write_csv(workdir / "cesur_auctions.csv", AUCTIONS_COLUMNS, auctions)
    _write_csv(workdir / "cesur_fmpi.csv", ["market", "key", "fmpi"], fmpi)
    _write_csv(workdir / "cesur_spot.csv", ["market", "zone", "date", "price"],
               [["OMEL", "ES", d.isoformat(), repr(float(p))] for d, p in zip(days, prices)])
    return {"auctions": "cesur_auctions.csv", "fmpi": "cesur_fmpi.csv", "spot": "cesur_spot.csv"}


def _pjm_files(rng, workdir: Path, days: list[date]) -> dict:
    auctions, costs, averages, fmpi = [], [], [], []
    by_zone: dict[str, list] = {z: [] for z in PJM_ZONE_ORDER}
    for i, a in enumerate(PJM_AUCTIONS):
        start, end = pjm_delivery(a.year)
        by_zone[a.zone].append((start, end, a.spot_avg))
        sb, wb, rounds = _session_fields(rng)
        product = f"{a.zone}-{a.year}"
        auctions.append(["PJM", i + 1, date(a.year, 2, 5).isoformat(), product,
                         start.isoformat(), end.isoformat(), "baseload",
                         "full_requirements", repr(a.bgsfp_price),
                         repr(float(rng.integers(500, 3000))), sb, wb, rounds])
        costs.append(["PJM", a.zone, a.year, repr(a.costs)])
        averages.append(["PJM", a.zone, a.year, repr(a.avg_price)])
        fmpi.append(["PJM", product, repr(a.fmpi)])
    spot_rows = []
    for zone in PJM_ZONE_ORDER:
        prices = monthly_spot(rng, days, by_zone[zone], base=55.0)
        spot_rows += [["PJM", zone, d.isoformat(), repr(float(p))] for d, p in zip(days, prices)]
    _write_csv(workdir / "pjm_auctions.csv", AUCTIONS_COLUMNS, auctions)
    _write_csv(workdir / "pjm_costs.csv", ["market", "zone", "year", "unit_cost"], costs)
    _write_csv(workdir / "pjm_averages.csv", ["market", "zone", "year", "avg_price"], averages)
    _write_csv(workdir / "pjm_fmpi.csv", ["market", "key", "fmpi"], fmpi)
    _write_csv(workdir / "pjm_spot.csv", ["market", "zone", "date", "price"], spot_rows)
    return {"auctions": "pjm_auctions.csv", "costs": "pjm_costs.csv",
            "averages": "pjm_averages.csv", "fmpi": "pjm_fmpi.csv", "spot": "pjm_spot.csv"}


AUCTIONS_COLUMNS = ["market", "auction_id", "auction_date", "product_id", "delivery_start",
                    "delivery_end", "load_shape", "product_kind", "clearing_price",
                    "quantity", "start_bidders", "winning_bidders", "rounds"]


def futures_paths(rng, n_days: int, n_contracts: int):
    """Settle, volume and open-interest paths, shape (n_contracts, n_days).

    About one day in eight leaves open interest unchanged, so R2 has
    undefined days; open interest stays far from zero, so R1 has none.
    """
    shape = (n_contracts, n_days)
    settle = (50.0 + np.cumsum(rng.normal(0.0, 0.6, size=shape), axis=1)).clip(5.0).round(2)
    volume = rng.poisson(300.0, size=shape).astype(float)
    step = rng.integers(-150, 151, size=shape) * (rng.random(shape) > 0.125)
    oi = (rng.integers(5000, 20000, size=(n_contracts, 1)) + np.cumsum(step, axis=1))
    return settle, volume, np.abs(oi).astype(float) + 1000.0


def write_paper_inputs(workdir: Path, seed: int, futures_rows: int) -> dict:
    """Write every paper_cli input file; returns names and expected counts."""
    rng = np.random.default_rng([seed, 1])
    workdir.mkdir(parents=True, exist_ok=True)
    spot_days = calendar_days(date(2007, 1, 1), date(2016, 12, 31))
    trade_days = weekdays(date(2007, 1, 1), date(2016, 12, 31))
    cesur = _cesur_files(rng, workdir, spot_days)
    pjm = _pjm_files(rng, workdir, spot_days)

    n_contracts = max(1, round(futures_rows / len(trade_days)))
    settle, volume, oi = futures_paths(rng, len(trade_days), n_contracts)
    iso = [d.isoformat() for d in trade_days]
    rows = []
    for c in range(n_contracts):
        cid = f"FTB-{c + 1:02d}"
        rows += [[cid, "OMEL", "ES", d, repr(p), repr(v), repr(o)]
                 for d, p, v, o in zip(iso, settle[c].tolist(), volume[c].tolist(),
                                       oi[c].tolist())]
    _write_csv(workdir / "futures.csv",
               ["contract_id", "market", "zone", "date", "settle", "volume", "open_interest"],
               rows)
    events = sorted({a.auction_date for a in CESUR_AUCTIONS})
    _write_csv(workdir / "events.csv", ["date"], [[d] for d in events])

    rate = round(float(rng.uniform(0.0, 0.1)), 4)
    strip = (40.0 + np.cumsum(rng.normal(0.0, 1.0, size=36))).round(2).tolist()
    _write_csv(workdir / "prices.csv", ["month", "price"],
               [[m + 1, repr(p)] for m, p in enumerate(strip)])

    panel = []
    for a in PJM_AUCTIONS:
        sb = int(rng.integers(15, 36))
        panel.append(PanelObservation(
            unit=a.zone, period=a.year, y=a.premium_pct,
            covariates={"vol3y": round(float(rng.uniform(8.0, 25.0)), 3),
                        "startbidders": sb, "wbidders": int(rng.integers(5, sb + 1))}))
    _write_csv(workdir / "panel.csv", ["unit", "period", "y", *PANEL_COVARIATES],
               [[o.unit, o.period, repr(o.y), *(o.covariates[c] for c in PANEL_COVARIATES)]
                for o in panel])

    scenario = draw_scenario(rng, 10)
    with open(workdir / "scenario.json", "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, sort_keys=True, indent=1)

    return {
        "cesur": cesur, "pjm": pjm, "futures": "futures.csv", "events": "events.csv",
        "event_dates": [date.fromisoformat(d) for d in events],
        "prices": "prices.csv", "strip": strip, "rate": rate,
        "panel": "panel.csv", "panel_rows": panel,
        "scenario": "scenario.json", "sim_seed": int(rng.integers(1 << 31)),
        "futures_rows": len(rows), "contract": f"FTB-{int(rng.integers(n_contracts)) + 1:02d}",
    }


# --- analytics_long objects --------------------------------------------------


def analytics_inputs(seed: int, years: int, n_contracts: int, n_events: int,
                     n_units: int, n_periods: int) -> dict:
    """In-memory series, products, contracts and panel for analytics_long."""
    rng = np.random.default_rng([seed, 3])
    end_year = 2016
    first = end_year - years + 1
    spot_days = calendar_days(date(first - 1, 1, 1), date(end_year, 12, 31))
    zone = MarketZone("OMEL", "ES")
    spot = SpotPriceSeries(zone=zone, dates=tuple(spot_days),
                           prices=monthly_spot(rng, spot_days, [], base=50.0)
                           + rng.normal(0.0, 4.0, size=len(spot_days)))
    products = []
    for year in range(first, end_year + 1):
        for q in (1, 2, 3, 4):
            start, end = quarter_period(q, year)
            products.append({
                "period": DeliveryPeriod(start, end),
                "auction_date": start - timedelta(days=int(rng.integers(10, 40))),
                "price": round(float(rng.uniform(35.0, 70.0)), 2),
                "quantity": float(rng.integers(1, 50)),
            })

    trade_days = tuple(weekdays(date(first, 1, 1), date(end_year, 12, 31)))
    settle, volume, oi = futures_paths(rng, len(trade_days), n_contracts)
    contracts = []
    for c in range(n_contracts):
        series = FuturesContractSeries(
            contract_id=f"FTB-{c + 1:02d}", zone=zone, dates=trade_days,
            settle=settle[c], volume=volume[c], open_interest=oi[c])
        positions = np.sort(rng.choice(len(trade_days), size=n_events, replace=False))
        contracts.append((series, [trade_days[p] for p in positions]))

    markets = [f"M{u % 5}" for u in range(n_units)]
    panel, y_raw, labels = [], [], []
    for u in range(n_units):
        for t in range(n_periods):
            labels.append(markets[u])
            y_raw.append(float(rng.normal(10.0 + u % 5, 3.0)))
            sb = int(rng.integers(10, 40))
            panel.append(PanelObservation(
                unit=f"U{u:03d}", period=2000 + t, y=0.0,
                covariates={"vol3y": float(rng.uniform(5.0, 25.0)),
                            "startbidders": float(sb),
                            "wbidders": float(rng.integers(1, sb + 1))}))
    return {"spot": spot, "products": products, "contracts": contracts,
            "panel": panel, "y_raw": np.array(y_raw), "labels": labels,
            "covariates": list(PANEL_COVARIATES)}
