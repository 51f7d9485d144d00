"""Pooled OLS with period fixed effects and cluster-robust covariance.

Covariates follow the standardized-premium regression design: within-market
z-scored dependent variable, three-year spot volatility, bidder counts and
an optional load-share column. The covariance estimator clusters by
cross-section unit (robust to heteroskedasticity and within-unit serial
correlation) with the usual G/(G-1) * (n-1)/(n-K) finite-sample factor.
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


def standardize_by_group(values: Sequence[float], labels: Sequence[str]) -> np.ndarray:
    """Within-group z-scores (group mean 0, sample std 1)."""
    x = np.asarray(values, dtype=float)
    if len(x) != len(labels):
        raise ValueError("values and labels length mismatch")
    out = np.empty_like(x)
    for label in set(labels):
        mask = np.array([l == label for l in labels])
        if mask.sum() < 2:
            raise RegressionError(f"group {label!r} has fewer than 2 observations")
        sd = x[mask].std(ddof=1)
        if sd == 0:
            raise RegressionError(f"group {label!r} has zero variance")
        out[mask] = (x[mask] - x[mask].mean()) / sd
    return out


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


def _build_design(panel, covariate_names, period_fixed_effects, unit_fixed_effects):
    n = len(panel)
    names = ["const"]
    cols = [np.ones(n)]
    for name in covariate_names:
        col = []
        for obs in panel:
            if name not in obs.covariates:
                raise RegressionError(
                    f"observation ({obs.unit}, {obs.period}) missing covariate {name!r}"
                )
            col.append(obs.covariates[name])
        names.append(name)
        cols.append(np.asarray(col, dtype=float))
    if period_fixed_effects:
        periods = sorted({obs.period for obs in panel})
        for p in periods[1:]:  # first period dropped for identification
            names.append(f"period_{p}")
            cols.append(np.array([1.0 if obs.period == p else 0.0 for obs in panel]))
    if unit_fixed_effects:
        units = sorted({obs.unit for obs in panel})
        for u in units[1:]:
            names.append(f"unit_{u}")
            cols.append(np.array([1.0 if obs.unit == u else 0.0 for obs in panel]))
    X = np.column_stack(cols)
    # incremental rank check names the first offending column
    rank = 0
    for j in range(X.shape[1]):
        new_rank = np.linalg.matrix_rank(X[:, :j + 1])
        if new_rank == rank:
            raise RegressionError(f"design matrix rank deficient at column {names[j]!r}")
        rank = new_rank
    return X, names


def fit_pooled_ols(panel: Sequence[PanelObservation], covariates: Sequence[str],
                   period_fixed_effects: bool = True,
                   unit_fixed_effects: bool = False) -> RegressionResult:
    """Pooled least squares with unit-clustered robust standard errors.

    The coefficient solve goes through an orthogonal decomposition
    (numpy lstsq); no normal-equations inverse is formed for estimation.
    """
    if not panel:
        raise RegressionError("empty panel")
    seen = set()
    for obs in panel:
        key = (obs.unit, obs.period)
        if key in seen:
            raise RegressionError(f"duplicate (unit, period) pair {key}")
        seen.add(key)
    y = np.array([obs.y for obs in panel], dtype=float)
    X, names = _build_design(panel, covariates, period_fixed_effects, unit_fixed_effects)
    n, k = X.shape
    if n <= k:
        raise RegressionError(f"not enough observations ({n}) for {k} parameters")
    clusters = [obs.unit for obs in panel]
    unique_clusters = sorted(set(clusters))
    g = len(unique_clusters)
    if g < 2:
        raise RegressionError("need at least 2 clusters")

    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k)
    rmse = float(np.sqrt(rss / (n - k)))

    # cluster-robust sandwich with finite-sample factor
    xtx_inv = np.linalg.inv(X.T @ X)
    meat = np.zeros((k, k))
    for cu in unique_clusters:
        mask = np.array([c == cu for c in clusters])
        s = X[mask].T @ resid[mask]
        meat += np.outer(s, s)
    c_factor = (g / (g - 1)) * ((n - 1) / (n - k))
    cov = c_factor * xtx_inv @ meat @ xtx_inv
    # the diagonal is a sum of squares; clip round-off that dips below zero
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    coefs = []
    fixed = {}
    for name, b, s in zip(names, beta, se):
        coefs.append(Coefficient(name=name, estimate=float(b), std_error=float(s),
                                 t_stat=float(b / s) if s > 0 else float("inf")))
        if name.startswith(("period_", "unit_")):
            fixed[name] = float(b)
    return RegressionResult(coefficients=tuple(coefs), r_squared=r2,
                            adj_r_squared=float(adj_r2), rss=rss, rmse=rmse,
                            n=n, k=k, n_clusters=g, fixed_effects=fixed)
