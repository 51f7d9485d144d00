"""Correctness checks on the outputs each workload produces.

Each check returns a list of problems; an empty list means the output is
correct. The checks test invariants and published values rather than
pinning digests, so a faster implementation that draws its random numbers
differently still passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from powerauctions.datasets import (CESUR_AUCTIONS, CESUR_GRAND_AVERAGE,
                                    CESUR_YEARLY_AVERAGES, PJM_AUCTIONS,
                                    PJM_TOTAL_AVERAGE, PJM_ZONE_AVERAGES)

# acceptance criteria 1 and 2: row tolerances (value, percent) and group tolerance
CESUR_ROW_TOL = (0.01, 0.02)
PJM_ROW_TOL = (0.01, 0.05)
GROUP_TOL = 0.05
# awards must meet the target to float round-off, as acceptance criterion 8 asks
AWARD_TOL = 1e-9
# agreement of fit_pooled_ols with an independent lstsq solve, relative to max(1, |b|)
OLS_RTOL = 1e-8


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def read_premium_rows(path: Path) -> list[dict]:
    """Data rows of a premiums.csv, skipping the two metadata comment lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_premium_table(premiums_csv: Path, report_json: Path, market: str) -> list[str]:
    """premiums.csv and report.json reproduce the published table of ``market``."""
    rows = read_premium_rows(premiums_csv)
    with open(report_json, encoding="utf-8") as fh:
        aggregates = json.load(fh)["aggregates"]
    problems = []
    if market == "OMEL":
        published = {a.product: (a.premium, a.premium_pct, a.fmpi_premium, a.fmpi_premium_pct)
                     for a in CESUR_AUCTIONS}
        tol = CESUR_ROW_TOL
    else:
        published = {f"{a.year}-{a.zone}": (a.premium, a.premium_pct, a.fmpi_premium,
                                            a.fmpi_premium_pct) for a in PJM_AUCTIONS}
        tol = PJM_ROW_TOL
    if sorted(r["auction_ref"] for r in rows) != sorted(published):
        return [f"{market}: premium rows {[r['auction_ref'] for r in rows]} "
                f"do not match the published {sorted(published)}"]
    for r in rows:
        prem, pct, f_prem, f_pct = published[r["auction_ref"]]
        got = (float(r["premium"]), 100 * float(r["premium_pct"]),
               float(r["fmpi_premium"]), 100 * float(r["fmpi_premium_pct"]))
        for what, g, w, t in zip(("premium", "premium_pct", "fmpi_premium", "fmpi_premium_pct"),
                                 got, (prem, pct, f_prem, f_pct), (tol[0], tol[1]) * 2):
            if not _close(g, w, t):
                problems.append(f"{market} {r['auction_ref']}: {what} {g:.4f} != published {w}")

    groups, grand = aggregates["groups"], aggregates["grand"]
    if market == "OMEL":
        wanted = {str(y): {"auction_price": v[0], "premium": v[2], "premium_pct": v[3],
                           "fmpi_premium_pct": v[5]} for y, v in CESUR_YEARLY_AVERAGES.items()}
        wanted_grand = {"premium": CESUR_GRAND_AVERAGE[2], "premium_pct": CESUR_GRAND_AVERAGE[3],
                        "fmpi_premium_pct": CESUR_GRAND_AVERAGE[5]}
    else:
        wanted = {z: {"premium": v[0], "fmpi_premium_pct": v[3]}
                  for z, v in PJM_ZONE_AVERAGES.items()}
        wanted_grand = {"premium": PJM_TOTAL_AVERAGE[0], "fmpi_premium": PJM_TOTAL_AVERAGE[2]}
    for label, fields in list(wanted.items()) + [("grand", wanted_grand)]:
        got_fields = grand if label == "grand" else groups.get(label)
        if got_fields is None:
            problems.append(f"{market}: group {label} missing from report.json")
            continue
        for name, want in fields.items():
            got = got_fields[name] * (100 if name.endswith("_pct") else 1)
            if not _close(got, want, GROUP_TOL):
                problems.append(f"{market} group {label}: {name} {got:.4f} != published {want}")
    return problems


# --- clock auctions ----------------------------------------------------------


def check_auction(outcome, target: float) -> list[str]:
    """Conservation, positive price, offers never rise, no re-entry after exit."""
    problems = []
    total = sum(outcome.awards.values())
    if abs(total - target) > AWARD_TOL * max(1.0, abs(target)):
        problems.append(f"awards sum {total!r} != target {target!r}")
    if any(q <= 0 for q in outcome.awards.values()):
        problems.append("non-positive award")
    if not outcome.clearing_price > 0:
        problems.append(f"clearing price {outcome.clearing_price} not positive")
    log = outcome.round_log
    for prev, cur in zip(log, log[1:]):
        for bidder, q in cur.offers.items():
            before = prev.offers[bidder]
            if q > before:
                problems.append(f"round {cur.round_no}: {bidder} raised {before} -> {q}")
            if before == 0.0 and q != 0.0:
                problems.append(f"round {cur.round_no}: {bidder} re-entered")
        if problems:
            break
    return problems


def same_outcome(a, b) -> bool:
    return (a.clearing_price == b.clearing_price and a.awards == b.awards
            and a.rounds_used == b.rounds_used)


# --- analytics ---------------------------------------------------------------


def check_ols(result, covariates, panel, y) -> list[str]:
    """Coefficients agree with an independent lstsq on a design built here."""
    units = sorted({o.unit for o in panel})
    periods = sorted({o.period for o in panel})
    cols = [np.ones(len(panel))]
    cols += [np.array([o.covariates[c] for o in panel]) for c in covariates]
    period = np.array([o.period for o in panel])
    unit = np.array([o.unit for o in panel])
    cols += [(period == p).astype(float) for p in periods[1:]]
    cols += [(unit == u).astype(float) for u in units[1:]]
    X = np.column_stack(cols)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    got = np.array([c.estimate for c in result.coefficients])
    if got.shape != beta.shape:
        return [f"fit has {got.size} coefficients, expected {beta.size}"]
    worst = float(np.max(np.abs(got - beta) / np.maximum(1.0, np.abs(beta))))
    if not worst <= OLS_RTOL:
        return [f"OLS coefficients differ from lstsq by {worst:.3g} (tolerance {OLS_RTOL})"]
    return []


def check_standardized(z, values, labels) -> list[str]:
    labels = np.asarray(labels)
    for g in np.unique(labels):
        x = values[labels == g]
        want = (x - x.mean()) / x.std(ddof=1)
        if not np.allclose(z[labels == g], want, rtol=1e-12, atol=1e-12):
            return [f"standardize_by_group differs in group {g}"]
    return []


def event_counts(n: int, positions, defined, window) -> dict[int, int]:
    """Events per offset: inside the series and on a defined day."""
    pos = np.asarray(positions)
    out = {}
    for k in range(window[0], window[1] + 1):
        idx = pos + k
        idx = idx[(idx >= 0) & (idx < n)]
        out[k] = int(defined[idx].sum())
    return out


def check_event_study(results, positions, defined, window) -> list[str]:
    want = event_counts(len(defined), positions, defined, window)
    got = {r.offset: r.n_events for r in results}
    if got != want:
        return [f"n_events {got} != counts from event positions {want}"]
    return []


def check_baseline(results, baseline: float) -> list[str]:
    """event_study's baseline mean equals baseline_mean_excluding's."""
    got = results[0].baseline_mean
    if not math.isclose(got, baseline, rel_tol=1e-9, abs_tol=1e-12):
        return [f"event-study baseline {got!r} != excluded-baseline mean {baseline!r}"]
    return []
