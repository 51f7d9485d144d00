"""Pooled OLS with period fixed effects and cluster-robust covariance.

Covariates follow the standardized-premium regression design: within-market
z-scored dependent variable, three-year spot volatility, bidder counts and
an optional load-share column. Groups (units, periods, markets) are coded once,
in sorted order. One QR of [X | y] does all the fitting: its leading k x k
block R names the first collinear column and is the bread of the
unit-clustered covariance, which carries the usual G/(G-1) * (n-1)/(n-K)
finite-sample factor; its column k holds Q'y, so R beta = Q'y gives the
coefficients, and its last diagonal entry is the residual norm, which decides
an exact fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

from .market_data import SpotPriceSeries


class RegressionError(ValueError):
    """Design problem: rank deficiency, too few clusters or bad inputs."""


def vol3y(spot: SpotPriceSeries, auction_date: date) -> float:
    """Sample std of daily spot prices over the 3 years before the auction.

    The window is [auction_date - 3 years, auction_date), half-open so the
    auction day itself never enters.
    """
    end = auction_date.toordinal()
    lo, hi = np.searchsorted(spot.ordinals, (end - 3 * 365, end)).tolist()
    picked = spot.prices[lo:hi]
    if len(picked) < 2:
        raise RegressionError(
            f"need at least 2 spot observations before {auction_date}, got {len(picked)}"
        )
    return float(np.std(picked, ddof=1))


def _group_codes(labels) -> tuple[list, np.ndarray]:
    """Distinct labels in sorted order, and each label's position among them."""
    levels, codes = np.unique(np.array(labels, dtype=object), return_inverse=True)
    return levels.tolist(), codes


def standardize_by_group(values: Sequence[float], labels: Sequence[str]) -> np.ndarray:
    """Within-group z-scores (group mean 0, sample std 1); bad groups named in sorted order."""
    x = np.asarray(values, dtype=float)
    if len(x) != len(labels):
        raise ValueError("values and labels length mismatch")
    levels, codes = _group_codes(labels)
    counts = np.bincount(codes)
    dev = x - (np.bincount(codes, weights=x) / counts)[codes]
    ss = np.bincount(codes, weights=dev * dev)
    # min == max finds a constant group exactly; its round-off deviations
    # from the computed mean need not give ss == 0
    lo, hi = np.full(len(levels), np.inf), np.full(len(levels), -np.inf)
    np.minimum.at(lo, codes, x)
    np.maximum.at(hi, codes, x)
    bad = np.flatnonzero((counts < 2) | (lo == hi) | (ss == 0))
    if bad.size:
        i = bad[0]
        reason = "has fewer than 2 observations" if counts[i] < 2 else "has zero variance"
        raise RegressionError(f"group {levels[i]!r} {reason}")
    return dev / np.sqrt(ss / (counts - 1))[codes]


@dataclass(frozen=True)
class PanelObservation:
    unit: str
    period: int
    y: float
    covariates: dict[str, float]


@dataclass(frozen=True)
class Coefficient:
    name: str
    estimate: float
    std_error: float
    t_stat: float


@dataclass(frozen=True)
class RegressionResult:
    coefficients: tuple[Coefficient, ...]
    r_squared: float
    adj_r_squared: float
    rss: float
    rmse: float
    n: int
    k: int  # total fitted parameters, dummies included
    n_clusters: int
    fixed_effects: dict[str, float] = field(default_factory=dict)

    def coefficient(self, name: str) -> Coefficient:
        for c in self.coefficients:
            if c.name == name:
                return c
        raise KeyError(name)


def _build_design(panel, covariate_names, groups, y):
    """Design matrix X, column names and the R factor of [X | y]; ``groups``
    hold (prefix, coding). X is a view of the first k columns of [X | y]."""
    n = len(panel)
    names = ["const"]
    cols = [np.ones(n)]
    for name in covariate_names:
        missing = next((obs for obs in panel if name not in obs.covariates), None)
        if missing is not None:
            raise RegressionError(
                f"observation ({missing.unit}, {missing.period}) missing covariate {name!r}")
        names.append(name)
        cols.append(np.array([obs.covariates[name] for obs in panel], dtype=float))
    for prefix, (levels, codes) in groups:  # first level dropped for identification
        names += [f"{prefix}_{v}" for v in levels[1:]]
        cols.append(codes[:, None] == np.arange(1, len(levels)))
    clash = next((c for c in covariate_names if names.count(c) > 1), None)
    if clash is not None:
        raise RegressionError(f"covariate {clash!r} has the name of another design column")
    a = np.column_stack(cols + [y])
    finite = np.isfinite(a)  # the constant and the dummies are
    if not finite.all():  # a QR would spread it over every result as NaN
        i, j = np.unravel_index(np.argmin(finite), a.shape)  # the first in row order
        raise RegressionError(f"observation ({panel[i].unit}, {panel[i].period}) "
                              f"has non-finite {(names + ['y'])[j]} {a[i, j]}")
    # |R_jj| is column j's distance from the span of the columns before it;
    # the tolerance is numpy's SVD rank default with max |R_ii| for the top singular value
    r = np.linalg.qr(a, mode="r")
    diag = np.abs(np.diagonal(r[:, :-1]))
    small = np.flatnonzero(diag <= diag.max() * max(n, len(names)) * np.finfo(float).eps)
    if small.size or n < len(names):  # then column n is the first that adds no rank
        j = small[0] if small.size else n
        raise RegressionError(f"design matrix rank deficient at column {names[j]!r}")
    return a[:, :-1], names, r


def fit_pooled_ols(panel: Sequence[PanelObservation], covariates: Sequence[str],
                   period_fixed_effects: bool = True,
                   unit_fixed_effects: bool = False) -> RegressionResult:
    """Pooled least squares with unit-clustered robust standard errors.

    With R and Q'y from one QR of [X | y], the coefficients are R^-1 Q'y and
    the sandwich's bread is R^-1 R^-T (X'X = R'R), so X'X is neither formed
    nor inverted. The fit is exact when y's distance from the span of X is
    within the rank rule's tolerance for y's own norm; every standard error
    is then 0.0 (and every t statistic inf). With G clusters the scores'
    covariance has rank at most G - 1, so one coefficient's sandwich variance
    can be 0 up to round-off: its standard error is reported as 0.0 too when
    it is within (n + k) eps of the same sum over the absolute values of the
    scores and of R^-1 R^-T, a test that no column's units change.
    """
    if not panel:
        raise RegressionError("empty panel")
    twice = next((c for i, c in enumerate(covariates) if c in covariates[:i]), None)
    if twice is not None:
        raise RegressionError(f"covariate {twice!r} is listed twice")
    seen = set()
    for obs in panel:
        key = (obs.unit, obs.period)
        if key in seen:
            raise RegressionError(f"duplicate (unit, period) pair {key}")
        seen.add(key)
    y = np.array([obs.y for obs in panel], dtype=float)
    units = _group_codes([obs.unit for obs in panel])
    groups = []
    if period_fixed_effects:
        groups.append(("period", _group_codes([obs.period for obs in panel])))
    if unit_fixed_effects:
        groups.append(("unit", units))
    X, names, r = _build_design(panel, covariates, groups, y)
    n, k = X.shape
    if n <= k:
        raise RegressionError(f"not enough observations ({n}) for {k} parameters")
    unit_levels, clusters = units
    g = len(unit_levels)
    if g < 2:
        raise RegressionError("need at least 2 clusters")

    r_inv = np.linalg.inv(r[:k, :k])
    beta = r_inv @ r[:k, k]
    resid = y - X @ beta
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k)
    rmse = float(np.sqrt(rss / (n - k)))

    if abs(r[k, k]) <= np.linalg.norm(y) * max(n, k + 1) * np.finfo(float).eps:
        se = np.zeros(k)  # exact fit: the residuals are round-off
    else:
        # diag of c A S'S A, A = R^-1 R^-T, S = per-unit score sums: a sum of squares
        scores = np.zeros((g, k))
        np.add.at(scores, clusters, X * resid[:, None])
        c_factor = (g / (g - 1)) * ((n - 1) / (n - k))
        se = np.sqrt(c_factor * ((scores @ r_inv @ r_inv.T) ** 2).sum(axis=0))
        # the round-off bound: the same sum over |S| and |A|, in the column's units
        bound = np.sqrt(c_factor * ((np.abs(scores) @ np.abs(r_inv @ r_inv.T)) ** 2).sum(axis=0))
        se[se <= bound * (n + k) * np.finfo(float).eps] = 0.0

    coefs = tuple(Coefficient(name=name, estimate=float(b), std_error=float(s),
                              t_stat=float(b / s) if s > 0 else float("inf"))
                  for name, b, s in zip(names, beta, se))
    dummies = 1 + len(covariates)  # the dummies follow const and the covariates
    fixed = {c.name: c.estimate for c in coefs[dummies:]}
    return RegressionResult(coefficients=coefs, r_squared=r2,
                            adj_r_squared=float(adj_r2), rss=rss, rmse=rmse,
                            n=n, k=k, n_clusters=g, fixed_effects=fixed)
