"""Forward-premium arithmetic, futures-strip index, distribution diagnostics.

Two premium definitions coexist. CESUR-style fixed-quantity products compare
the auction price directly with the realized average spot price; PJM-style
full-requirements products first strip out capacity/transmission/ancillary
costs. Percentage conventions differ on purpose: the ex-post premium of a
full-requirements product is expressed over the net-of-costs price, while
the futures-index premium is expressed over the gross auction price. Both
conventions are locked by golden tests against published auction results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MWH_PER_MW_CAPACITY = 2200.0
FMPI_STRIP_LENGTH = 36


@dataclass(frozen=True)
class PremiumRow:
    """One auction's premium over spot, and over the FMPI when one is given."""
    auction_ref: str
    group: str  # grouping label for aggregation (year, zone, ...)
    auction_price: float
    spot_avg: float
    costs: float
    premium: float
    premium_pct: float
    fmpi: float | None = None
    fmpi_premium: float | None = None
    fmpi_premium_pct: float | None = None


def cesur_premium(auction_price: float, spot_avg: float) -> tuple[float, float]:
    """Fixed-quantity ex-post premium and its share of the auction price."""
    if auction_price <= 0:
        raise ValueError("auction price must be positive")
    premium = auction_price - spot_avg
    return premium, premium / auction_price


def pjm_premium(avg_auction_price: float, costs: float, spot_avg: float) -> tuple[float, float]:
    """Full-requirements ex-post premium, net of non-energy costs.

    The percentage uses the net-of-costs price as denominator.
    """
    net = avg_auction_price - costs
    if net <= 0:
        raise ValueError("auction price net of costs must be positive")
    premium = net - spot_avg
    return premium, premium / net


@dataclass(frozen=True)
class FmpiSpec:
    """A 36-month futures strip plus the annual discount rate for weighting."""
    monthly_prices: tuple[float, ...]
    annual_rate: float = 0.0

    def __post_init__(self):
        if len(self.monthly_prices) != FMPI_STRIP_LENGTH:
            raise ValueError(
                f"strip needs {FMPI_STRIP_LENGTH} monthly prices, got {len(self.monthly_prices)}"
            )
        if not all(math.isfinite(p) for p in self.monthly_prices):
            raise ValueError("non-finite price in strip")
        if not math.isfinite(self.annual_rate):
            raise ValueError(f"non-finite annual rate {self.annual_rate}")
        if self.annual_rate <= -1:
            raise ValueError("annual rate must exceed -1")


def fmpi_strip(spec: FmpiSpec) -> float:
    """Discounted-weight average of the 36 monthly futures prices.

    Month j gets weight (1+r)^(-j/12), normalized to sum to one: at r=0 the
    plain mean but for the rounding of 1/36 (41..76 give 58.50000000000001).
    """
    return float(fmpi_weights(spec.annual_rate) @ np.asarray(spec.monthly_prices, dtype=float))


def fmpi_weights(annual_rate: float) -> np.ndarray:
    """Normalized strip weights g(j), j = 1..36."""
    j = np.arange(1, FMPI_STRIP_LENGTH + 1)
    w = (1.0 + annual_rate) ** (-j / 12.0)
    return w / w.sum()


def fmpi_premium(gross_price: float, costs: float, fmpi: float) -> tuple[float, float]:
    """Premium over the futures index; percentage over the gross price."""
    if gross_price <= 0:
        raise ValueError("gross price must be positive")
    premium = gross_price - costs - fmpi
    return premium, premium / gross_price


def monetary_impact(premium: float, capacity_mw: float) -> float:
    """Cash impact of a per-MWh premium on an awarded capacity, at
    ``MWH_PER_MW_CAPACITY`` MWh per MW."""
    if capacity_mw < 0:
        raise ValueError("capacity must be non-negative")
    return premium * capacity_mw * MWH_PER_MW_CAPACITY


# --- aggregation -------------------------------------------------------------

_NUMERIC_FIELDS = ("auction_price", "spot_avg", "costs", "premium", "premium_pct",
                   "fmpi", "fmpi_premium", "fmpi_premium_pct")


@dataclass(frozen=True)
class AggregateReport:
    """Column means per group and the grand mean of the group means."""
    groups: dict[str, dict[str, float]]
    grand: dict[str, float]


def yearly_aggregate(rows: Sequence[PremiumRow]) -> AggregateReport:
    """Unweighted column means per group, plus the grand mean of group means.

    The grand row averages the group averages (not the raw rows), matching
    the published convention for multi-year auction result tables.
    """
    if not rows:
        raise ValueError("no rows to aggregate")
    groups: dict[str, list[PremiumRow]] = {}
    for r in rows:
        groups.setdefault(r.group, []).append(r)
    group_means = {}
    for label, members in groups.items():
        means = {}
        for name in _NUMERIC_FIELDS:
            vals = [getattr(m, name) for m in members]
            if any(v is None for v in vals):
                continue
            means[name] = float(np.mean(vals))
        group_means[label] = means
    grand = {}
    for name in _NUMERIC_FIELDS:
        per_group = [m[name] for m in group_means.values() if name in m]
        if per_group and len(per_group) == len(group_means):
            grand[name] = float(np.mean(per_group))
    return AggregateReport(groups=group_means, grand=grand)


# --- distribution diagnostics ------------------------------------------------


@dataclass(frozen=True)
class DistributionStats:
    """Moment statistics and the Jarque-Bera statistic of a sample."""
    n: int
    mean: float
    std: float  # sample (n-1)
    coefficient_of_variation: float
    skewness: float  # population moments (divisor n)
    kurtosis: float  # raw, population moments; normal = 3
    jarque_bera: float


def distribution_stats(values: Sequence[float]) -> DistributionStats:
    """Moment statistics with population-moment skew/kurtosis and JB test.

    JB = n/6 * (S^2 + (K-3)^2 / 4) with S, K built from divisor-n moments;
    the standard deviation itself uses the n-1 convention.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 observations, got {n}")
    mean = float(x.mean())
    if mean == 0:
        raise ValueError("mean is zero; coefficient of variation undefined")
    m2 = float(np.mean((x - mean) ** 2))
    if m2 == 0:
        raise ValueError("zero variance; shape statistics undefined")
    std = float(x.std(ddof=1))
    m3 = float(np.mean((x - mean) ** 3))
    m4 = float(np.mean((x - mean) ** 4))
    skew = m3 / m2 ** 1.5
    kurt = m4 / m2 ** 2
    jb = n / 6.0 * (skew ** 2 + (kurt - 3.0) ** 2 / 4.0)
    return DistributionStats(n=n, mean=mean, std=std,
                             coefficient_of_variation=std / mean,
                             skewness=skew, kurtosis=kurt, jarque_bera=jb)


# --- equality of means -------------------------------------------------------


@dataclass(frozen=True)
class MeanComparison:
    """A two-sample t test of equal means."""
    label_a: str
    label_b: str
    t_stat: float
    dof: float
    p_value: float

    def rejected(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


class _ZeroVarianceError(ValueError):
    """The t statistic is undefined: its standard error is zero."""


def _moments(a: np.ndarray) -> tuple[int, np.float64, np.float64]:
    """Size, mean and ddof=1 variance (NaN for one element) of a 1-D float sample:
    the sums and divisions of ``a.mean()`` and ``a.var(ddof=1)``, so the same
    bits, without numpy's Python-level wrappers."""
    n = a.size
    mean = np.add.reduce(a) / n
    d = a - mean
    return n, mean, np.add.reduce(d * d) / (n - 1) if n > 1 else np.float64(math.nan)


def _two_sample_t(a: tuple, b: tuple, variance: str = "welch") -> tuple[float, float, float]:
    """Two-sample t statistic, degrees of freedom and two-sided p value.

    Each sample comes as its ``_moments`` (size, mean, ddof=1 variance), so
    a caller testing many samples against one baseline summarises it once.
    ``variance`` is "welch" (Welch-Satterthwaite dof) or "pooled" (one
    common variance, na + nb - 2 dof). A one-element ``a`` has no variance
    of its own and takes b's: se^2 = vb (1 + 1/nb) on nb - 1 dof. Raises
    _ZeroVarianceError when the standard error is zero.
    """
    (na, mean_a, va), (nb, mean_b, vb) = a, b
    if na == 1:
        se2, dof = vb * (1 + 1 / nb), nb - 1
    elif variance == "welch":
        sa, sb = va / na, vb / nb
        se2 = sa + sb
        den = sa ** 2 / (na - 1) + sb ** 2 / (nb - 1)
        if den:
            dof = se2 ** 2 / den
        elif se2:  # the squares underflowed: scale both shares by se2 first
            dof = 1 / ((sa / se2) ** 2 / (na - 1) + (sb / se2) ** 2 / (nb - 1))
        else:
            dof = math.nan
    else:
        pooled = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
        se2, dof = pooled * (1 / na + 1 / nb), na + nb - 2
    if se2 == 0:
        raise _ZeroVarianceError("both samples have zero variance")
    t = float((mean_a - mean_b) / math.sqrt(se2))
    return t, float(dof), 2.0 * _t_cdf(dof, -abs(t))


def _t_cdf(df: float, t: float) -> float:
    """P(T <= t) for Student's t on ``df`` degrees of freedom, bit for bit
    ``scipy.special.stdtr(df, t)``."""
    return float(_t_cdf_function()(df, t))


@functools.cache
def _t_cdf_function():
    """The function ``_t_cdf`` calls: Boost's ``t_cdf`` as scipy exports it,
    else ``scipy.special.stdtr``.

    Importing ``scipy.special`` is most of a p-value run's import time, and
    most of that goes to array-API support that a p value never uses.
    ``stdtr``'s float64 loop calls ``_ufuncs_cxx``'s exported
    ``t_cdf_double`` and does nothing else that changes the result (an
    error check that is silent by default), so that export, loaded from its
    own file, gives the same bits for a fraction of the import. A scipy
    without it (older releases, whose ``stdtr`` may not be Boost's) gets
    ``stdtr`` itself.
    """
    try:
        return _boost_t_cdf()
    except (ImportError, OSError, KeyError, ValueError):
        from scipy import special
        return special.stdtr


def _boost_t_cdf():
    """``scipy.special._ufuncs_cxx``'s ``t_cdf_double`` as a ctypes function.

    The module is loaded without importing ``scipy.special``, and is kept
    on the function so that its library stays loaded.
    """
    import ctypes
    import importlib.machinery
    import importlib.util
    import os

    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy not found")
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.special._ufuncs_cxx",
        [os.path.join(scipy.submodule_search_locations[0], "special")])
    if spec is None:
        raise ImportError("scipy.special._ufuncs_cxx not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    capsule = getattr(module, "__pyx_capi__", {})["_export_t_cdf_double"]
    # the capsule holds the address of the exported ``void *``, which holds
    # the function's; a capsule of any other name raises ValueError
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = ctypes.c_void_p.from_address(get_pointer(capsule, b"void *")).value
    if not address:
        raise ImportError("scipy.special._ufuncs_cxx exports a null t_cdf_double")
    t_cdf = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_double, ctypes.c_double)(address)
    t_cdf.module = module
    return t_cdf


def welch_t(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """Welch two-sample t statistic, Welch-Satterthwaite dof, two-sided p."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least 2 observations")
    return _two_sample_t(_moments(a), _moments(b))


def equality_of_means(groups: dict[str, Sequence[float]]) -> list[MeanComparison]:
    """Pairwise Welch tests over two or more labelled samples."""
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    labels = list(groups)
    out = []
    for i, la in enumerate(labels):
        for lb in labels[i + 1:]:
            t, dof, p = welch_t(np.asarray(groups[la], float), np.asarray(groups[lb], float))
            out.append(MeanComparison(label_a=la, label_b=lb, t_stat=t, dof=dof, p_value=p))
    return out
