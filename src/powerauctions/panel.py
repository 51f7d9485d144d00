"""Pooled OLS with period and unit fixed effects and cluster-robust covariance.

Covariates follow the standardized-premium regression design: within-market
z-scored dependent variable, three-year spot volatility, bidder counts and
an optional load-share column. Groups (units, periods, markets) are coded once,
in sorted order. One QR of [W | y] does all the fitting; with unit effects W is
demeaned within unit, so that no unit dummy enters it (see ``fit_pooled_ols``).
The unit-clustered covariance, built from products of W's width, carries the
usual G/(G-1) * (n-1)/(n-K) finite-sample factor, K counting every design column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
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
    """One unit in one period: the outcome and its covariates."""
    unit: str
    period: int
    y: float
    covariates: dict[str, float]


@dataclass(frozen=True)
class Coefficient:
    """A fitted coefficient with its cluster-robust standard error."""
    name: str
    estimate: float
    std_error: float
    t_stat: float


@dataclass(frozen=True)
class RegressionResult:
    """A pooled OLS fit: coefficients, fit statistics and fixed effects."""
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


def _unit_sums(codes, g, v):
    """Per-unit sums of v's columns, g x m: one bincount, each unit's rows in row order."""
    m = v.shape[1]
    idx = codes[:, None] * m + np.arange(m)
    return np.bincount(idx.ravel(), weights=v.ravel(), minlength=g * m).reshape(g, m)


def _build_design(panel, covariate_names, periods, units, y):
    """[W | y], the design's names, None and 0.0. The design is const, the
    covariates, then the dummies of ``periods`` and ``units`` ((levels, codes) or
    None, first level dropped). With ``units`` [W | y] drops const and the unit
    dummies and is demeaned within unit; its unit means and the largest norm of
    const and W's columns before demeaning replace None and 0.0."""
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
    if periods is not None:
        names += [f"period_{v}" for v in periods[0][1:]]
        cols.append(periods[1][:, None] == np.arange(1, len(periods[0])))
    if units is not None:
        names += [f"unit_{v}" for v in units[0][1:]]
    clash = next((c for c in covariate_names if names.count(c) > 1), None)
    if clash is not None:
        raise RegressionError(f"covariate {clash!r} has the name of another design column")
    a = np.column_stack(cols + [y])
    finite = np.isfinite(a)  # the constant and the dummies are
    if not finite.all():  # a QR would spread it over every result as NaN
        i, j = np.unravel_index(np.argmin(finite), a.shape)  # the first in row order
        raise RegressionError(f"observation ({panel[i].unit}, {panel[i].period}) "
                              f"has non-finite {(names[:a.shape[1] - 1] + ['y'])[j]} {a[i, j]}")
    if units is None:
        return a, names, None, 0.0
    means = _unit_sums(units[1], len(units[0]), a[:, 1:]) / np.bincount(units[1])[:, None]
    norm = np.sqrt(np.einsum("ij,ij->j", a[:, :-1], a[:, :-1]).max())
    return a[:, 1:] - means[units[1]], names, means, norm


def fit_pooled_ols(panel: Sequence[PanelObservation], covariates: Sequence[str],
                   period_fixed_effects: bool = True,
                   unit_fixed_effects: bool = False) -> RegressionResult:
    """Pooled least squares with unit-clustered robust standard errors.

    One QR of [W | y] gives b = R^-1 Q'y and M^-1 = R^-1 R^-T (W'W = R'R). W is
    X, or with unit effects the covariates and period dummies demeaned within
    unit (Frisch-Waugh-Lovell); the unit intercepts a_g = ybar_g - wbar_g b then
    give const = a_0 and unit_g = a_g - a_0. A map e takes W's columns to all k:
    the identity, or [-wbar_0' | I | -(wbar_g - wbar_0)'], so that M^-1 e holds
    the rows of (X'X)^-1 for W. The scores of const and of the unit dummies sum
    to 0 in every unit, so with S the per-unit sums of W's scores and P = S M^-1,
    column j's variance is c e_j' P'P e_j, and no product grows with both G and
    k. An exact fit (y's distance from the span of X within the rank rule's
    tolerance for ||y||) has every standard error 0.0 and every t statistic
    inf. With G clusters the scores' covariance has rank at most G - 1, so a
    variance can be 0 up to round-off: it is reported as 0.0 when it is within
    (n + k) eps of the same form over |S| and |M^-1 e|, a test that no column's
    units change.
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
    periods = _group_codes([obs.period for obs in panel]) if period_fixed_effects else None
    a, names, means, norm = _build_design(panel, covariates, periods,
                                          units if unit_fixed_effects else None, y)
    n, k, f = len(panel), len(names), a.shape[1] - 1  # f columns in W
    first = 1 if unit_fixed_effects else 0  # W's column j is design column first + j
    if first and n < k:  # rank deficient: test X itself, as demeaned W hides copies
        x = _build_design(panel, covariates, periods, None, y)[0]
        a, first, norm = np.column_stack(
            [x[:, :-1], units[1][:, None] == np.arange(1, len(units[0])), y]), 0, 0.0
    # |R_jj| is column j's distance from the span of the columns before it and the
    # absorbed ones; the tolerance is numpy's SVD rank default, top singular value
    # max |R_ii|, or with unit effects the larger norm that X had before demeaning
    r = np.linalg.qr(a, mode="r")
    diag = np.abs(np.diagonal(r[:, :-1]))
    tol = max(np.max(diag, initial=0.0), norm) * max(n, k) * np.finfo(float).eps
    small = first + np.flatnonzero(diag <= tol)
    if n < k and not small.size:  # then column n is the first that adds no rank
        small = [n]
    if len(small):
        raise RegressionError(f"design matrix rank deficient at column {names[small[0]]!r}")
    if n <= k:
        raise RegressionError(f"not enough observations ({n}) for {k} parameters")
    unit_levels, clusters = units
    g = len(unit_levels)
    if g < 2:
        raise RegressionError("need at least 2 clusters")

    r_inv = np.linalg.inv(r[:f, :f])
    b = r_inv @ r[:f, f]
    resid = a[:, f] - a[:, :f] @ b
    # (b, -1) e is every coefficient, (a_0, b, a_g - a_0) with unit effects; the
    # products are einsum, not OpenBLAS, which rounds a large one differently per
    # thread count
    e = np.eye(f + 1, f) if means is None else np.hstack(
        [-means[:1].T, np.eye(f + 1, f), -(means[1:] - means[0]).T])
    beta = np.einsum("l,lj->j", np.append(b, -1.0), e)
    rss = float(np.einsum("i,i->", resid, resid))
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k)
    rmse = float(np.sqrt(rss / (n - k)))

    if abs(r[f, f]) <= np.linalg.norm(y) * max(n, k + 1) * np.finfo(float).eps:
        se = np.zeros(k)  # exact fit: the residuals are round-off
    else:
        # c e_j' P'P e_j, P = S M^-1: for W's columns e_j picks P'P's diagonal,
        # a sum of squares, and the unit-level sums make P G x f, not G x k
        c_factor = (g / (g - 1)) * ((n - 1) / (n - k))
        m_inv, quad = r_inv @ r_inv.T, "lj,lm,mj->j"
        scores = _unit_sums(clusters, g, a[:, :f] * resid[:, None])
        p = np.einsum("gl,lm->gm", scores, m_inv)
        var = c_factor * np.einsum(quad, e[:f], np.einsum("gl,gm->lm", p, p), e[:f])
        # the round-off bound: the same form over |S| and |M^-1 e|, in the column's
        # units; a quadratic form's round-off scales with it, not with its root
        s_abs, b_abs = np.abs(scores), np.abs(np.einsum("lm,mj->lj", m_inv, e[:f]))
        bound = c_factor * np.einsum(quad, b_abs, np.einsum("gl,gm->lm", s_abs, s_abs), b_abs)
        se = np.sqrt(np.where(var > bound * (n + k) * np.finfo(float).eps, var, 0.0))

    coefs = tuple(Coefficient(name=name, estimate=float(b), std_error=float(s),
                              t_stat=float(b / s) if s > 0 else float("inf"))
                  for name, b, s in zip(names, beta, se))
    dummies = 1 + len(covariates)  # the dummies follow const and the covariates
    fixed = {c.name: c.estimate for c in coefs[dummies:]}
    return RegressionResult(coefficients=coefs, r_squared=r2,
                            adj_r_squared=float(adj_r2), rss=rss, rmse=rmse,
                            n=n, k=k, n_clusters=g, fixed_effects=fixed)
