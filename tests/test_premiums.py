
import ctypes
import datetime
import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import powerauctions
from powerauctions import (FmpiSpec, PremiumRow, cesur_premium,
                           distribution_stats, equality_of_means, fmpi_premium,
                           fmpi_strip, fmpi_weights, monetary_impact,
                           pjm_premium, premiums, welch_t, yearly_aggregate)
from powerauctions.datasets import CESUR_AUCTIONS, PJM_AUCTIONS


class TestCesurPremium:
    def test_first_auction(self):
        premium, pct = cesur_premium(46.27, 36.45)
        assert premium == pytest.approx(9.82, abs=1e-9)
        assert pct * 100 == pytest.approx(21.22, abs=0.01)

    def test_negative_premium(self):
        premium, pct = cesur_premium(38.45, 47.78)
        assert premium == pytest.approx(-9.33, abs=1e-9)
        assert pct * 100 == pytest.approx(-24.27, abs=0.01)

    def test_identity(self):
        assert cesur_premium(50.0, 50.0) == (0.0, 0.0)

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError):
            cesur_premium(0.0, 10.0)


class TestPjmPremium:
    def test_ace_2007(self):
        premium, pct = pjm_premium(90.02, 11.34, 70.79)
        assert premium == pytest.approx(7.89, abs=1e-9)
        # published 10.02%; the net-of-costs denominator gives 10.03%
        assert pct * 100 == pytest.approx(10.02, abs=0.02)

    def test_ace_2009(self):
        premium, pct = pjm_premium(107.15, 17.44, 41.29)
        assert premium == pytest.approx(48.42, abs=1e-9)
        assert pct * 100 == pytest.approx(53.97, abs=0.01)

    def test_reco_2009(self):
        premium, pct = pjm_premium(114.39, 17.44, 40.80)
        assert premium == pytest.approx(56.15, abs=1e-9)
        assert pct * 100 == pytest.approx(57.91, abs=0.02)

    def test_nonpositive_net_price_rejected(self):
        with pytest.raises(ValueError):
            pjm_premium(10.0, 15.0, 5.0)


class TestFmpiStrip:
    def test_zero_rate_is_plain_mean(self, rng):
        prices = tuple(rng.uniform(20, 90, size=36))
        value = fmpi_strip(FmpiSpec(prices, annual_rate=0.0))
        assert value == pytest.approx(float(np.mean(prices)), abs=1e-12)

    def test_constant_prices_any_rate(self):
        for r in (0.0, 0.05, 0.12, 0.5):
            assert fmpi_strip(FmpiSpec((42.5,) * 36, annual_rate=r)) == pytest.approx(42.5, abs=1e-12)

    def test_against_direct_summation_oracle(self):
        # independent brute-force sum over the 36 terms
        r = 0.12
        prices = tuple(float(j) for j in range(1, 37))
        weights = [(1.0 + r) ** (-j / 12.0) for j in range(1, 37)]
        total = sum(weights)
        expected = sum(w / total * p for w, p in zip(weights, prices))
        assert fmpi_strip(FmpiSpec(prices, annual_rate=r)) == pytest.approx(expected, abs=1e-12)

    def test_shift_linearity(self, rng):
        prices = rng.uniform(20, 90, size=36)
        base = fmpi_strip(FmpiSpec(tuple(prices), annual_rate=0.07))
        shifted = fmpi_strip(FmpiSpec(tuple(prices + 3.25), annual_rate=0.07))
        assert shifted == pytest.approx(base + 3.25, abs=1e-9)

    def test_weights_sum_to_one_and_decrease(self):
        for r in (0.01, 0.12, 0.3):
            g = fmpi_weights(r)
            assert g.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(g) < 0)
        g0 = fmpi_weights(0.0)
        assert np.allclose(g0, 1.0 / 36.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="36"):
            FmpiSpec((50.0,) * 35)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_rejected(self, rate):
        # NaN used to pass the "> -1" check and give a NaN strip value
        with pytest.raises(ValueError, match="non-finite annual rate"):
            FmpiSpec((50.0,) * 36, annual_rate=rate)


class TestFmpiPremium:
    def test_cesur_auction_1(self):
        premium, pct = fmpi_premium(46.27, 0.0, 44.45)
        assert premium == pytest.approx(1.82, abs=1e-9)
        assert pct * 100 == pytest.approx(3.93, abs=0.01)

    def test_ace_2007(self):
        premium, pct = fmpi_premium(99.59, 11.34, 72.01)
        assert premium == pytest.approx(16.24, abs=1e-9)
        assert pct * 100 == pytest.approx(16.31, abs=0.01)

    def test_identity(self):
        assert fmpi_premium(50.0, 0.0, 50.0) == (0.0, 0.0)

    @pytest.mark.parametrize("gross", [0.0, -1.0])
    def test_nonpositive_gross_price_rejected(self, gross):
        with pytest.raises(ValueError, match="gross price must be positive"):
            fmpi_premium(gross, 0.0, 50.0)


class TestYearlyAggregate:
    @staticmethod
    def rows():
        out = []
        for a in CESUR_AUCTIONS:
            premium, pct = cesur_premium(a.price, a.spot_avg)
            f_prem, f_pct = fmpi_premium(a.price, 0.0, a.fmpi)
            out.append(PremiumRow(auction_ref=a.label, group=a.auction_date[:4],
                                  auction_price=a.price, spot_avg=a.spot_avg,
                                  costs=0.0, premium=premium, premium_pct=pct,
                                  fmpi=a.fmpi, fmpi_premium=f_prem,
                                  fmpi_premium_pct=f_pct))
        return out

    def test_2007_average(self):
        agg = yearly_aggregate(self.rows())
        g = agg.groups["2007"]
        assert g["premium"] == pytest.approx(-0.24, abs=0.01)
        assert g["premium_pct"] * 100 == pytest.approx(-1.63, abs=0.02)

    def test_grand_average(self):
        agg = yearly_aggregate(self.rows())
        assert agg.grand["premium_pct"] * 100 == pytest.approx(7.22, abs=0.05)
        assert agg.grand["fmpi_premium_pct"] * 100 == pytest.approx(1.08, abs=0.05)

    def test_single_row_group_is_identity(self):
        row = PremiumRow(auction_ref="x", group="g", auction_price=50.0,
                         spot_avg=45.0, costs=0.0, premium=5.0, premium_pct=0.1)
        agg = yearly_aggregate([row])
        assert agg.groups["g"]["premium"] == 5.0
        assert agg.grand["premium"] == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            yearly_aggregate([])


class TestMonetaryImpact:
    def test_unit_conversion(self):
        assert monetary_impact(1.0, 1.0) == 2200.0

    def test_zero_premium(self):
        assert monetary_impact(0.0, 123.0) == 0.0

    def test_linearity(self, rng):
        p, c = float(rng.uniform(0, 20)), float(rng.uniform(0, 5000))
        assert monetary_impact(2 * p, c) == pytest.approx(2 * monetary_impact(p, c))
        assert monetary_impact(p, 3 * c) == pytest.approx(3 * monetary_impact(p, c))


class TestDistributionStats:
    def test_two_point_symmetric(self):
        values = [-1.0, 1.0] * 10
        # mean is 0, so shift to keep the CV defined while leaving shape alone
        st = distribution_stats([v + 10.0 for v in values])
        assert st.skewness == pytest.approx(0.0, abs=1e-12)
        assert st.kurtosis == pytest.approx(1.0, abs=1e-12)
        n = len(values)
        assert st.jarque_bera == pytest.approx(n / 6.0 * ((1 - 3) ** 2 / 4.0), abs=1e-9)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="mean"):
            distribution_stats([-1.0, 1.0, -1.0, 1.0])

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            distribution_stats([5.0] * 10)

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            distribution_stats([1.0, 2.0, 3.0])

    def test_seeded_normal_monte_carlo(self, rng):
        x = rng.standard_normal(200_000) + 5.0
        st = distribution_stats(x)
        assert st.skewness == pytest.approx(0.0, abs=0.02)
        assert st.kurtosis == pytest.approx(3.0, abs=0.05)
        assert st.coefficient_of_variation == pytest.approx(0.2, abs=0.005)
        # JB approximately chi2(2): small relative to sample size
        assert st.jarque_bera < 15.0


class TestEqualityOfMeans:
    def test_identical_groups_t_zero(self):
        res = equality_of_means({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]})
        assert res[0].t_stat == 0.0
        assert not res[0].rejected()

    def test_separated_groups_reject(self):
        a = [0.0, 0.01, -0.01, 0.0]
        b = [10.0, 10.01, 9.99, 10.02]
        (cmp,) = equality_of_means({"a": a, "b": b})
        assert abs(cmp.t_stat) > 100
        assert cmp.rejected(0.05)

    def test_matches_scipy_welch(self, rng):
        a = rng.normal(0, 1, size=9)
        b = rng.normal(0.5, 2, size=14)
        t, dof, p = welch_t(a, b)
        ref = stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_tiny_variances_keep_the_dof(self):
        # the squared variance shares underflow to 0 at this scale
        a, b = np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 1.0, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, dof, p = welch_t(a * 1e-100, b * 1e-100)
        assert dof == pytest.approx(welch_t(a, b)[1], abs=1e-12)

    def test_zero_variance_both_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            welch_t(np.array([1.0, 1.0]), np.array([2.0, 2.0]))

    def test_pairs_cover_all_combinations(self):
        groups = {z: [1.0, 2.0, 3.0] for z in ("ACE", "JCPL", "PSEG", "RECO")}
        res = equality_of_means(groups)
        assert len(res) == 6

    def test_one_group_rejected(self):
        with pytest.raises(ValueError, match="at least two groups"):
            equality_of_means({"ACE": [1.0, 2.0, 3.0]})

    def test_one_element_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2 observations"):
            welch_t(np.array([1.0]), np.array([2.0, 3.0]))


def _t_with_numpy_moments(a, b, variance):
    """The t test written out with ``a.mean()`` and ``a.var(ddof=1)``."""
    na, nb, mean_b, vb = a.size, b.size, b.mean(), b.var(ddof=1)
    if na == 1:
        se2, dof = vb * (1 + 1 / nb), nb - 1
    elif variance == "welch":
        sa, sb = a.var(ddof=1) / na, vb / nb
        se2 = sa + sb
        den = sa ** 2 / (na - 1) + sb ** 2 / (nb - 1)
        if den:
            dof = se2 ** 2 / den
        elif se2:  # variances below about 1e-154 square to 0
            dof = 1 / ((sa / se2) ** 2 / (na - 1) + (sb / se2) ** 2 / (nb - 1))
        else:
            dof = math.nan
    else:
        pooled = ((na - 1) * a.var(ddof=1) + (nb - 1) * vb) / (na + nb - 2)
        se2, dof = pooled * (1 / na + 1 / nb), na + nb - 2
    if se2 == 0:
        return None
    t = float((a.mean() - mean_b) / math.sqrt(se2))
    return t, float(dof), 2.0 * premiums._t_cdf(dof, -abs(t))


def _sample(min_size):
    values = st.floats(-1e6, 1e6) | st.integers(-50, 50).map(float)
    return (st.lists(values, min_size=min_size, max_size=200)
            | st.tuples(values, st.integers(min_size, 200)).map(lambda c: [c[0]] * c[1])
            ).map(np.array)


@settings(max_examples=500, deadline=None)
@given(a=_sample(1), b=_sample(2), variance=st.sampled_from(["welch", "pooled"]))
def test_two_sample_t_keeps_numpys_mean_and_var(a, b, variance):
    want = _t_with_numpy_moments(a, b, variance)
    try:
        got = premiums._two_sample_t(premiums._moments(a), premiums._moments(b), variance)
    except premiums._ZeroVarianceError:
        got = None
    assert (got is None) == (want is None)
    if got is not None:
        assert all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(got, want))


# --- the t distribution's cdf -----------------------------------------------

_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e300]


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


@settings(max_examples=500, deadline=None)
@given(df=st.one_of(st.floats(0.1, 1e8), st.integers(1, 10 ** 6), st.sampled_from(_EDGES)),
       t=st.one_of(st.floats(), st.sampled_from(_EDGES)))
def test_t_cdf_is_stdtr_bit_for_bit(df, t):
    assert isinstance(premiums._t_cdf_function(), ctypes._CFuncPtr)
    assert _bits(premiums._t_cdf(df, t)) == _bits(special.stdtr(df, t))


def test_t_cdf_takes_the_boost_export_without_scipy_special():
    # a silent fallback to stdtr would cost every p-value run the import of
    # scipy.special; importing it afterwards still gives the same function
    env = dict(os.environ, PYTHONPATH=str(Path(powerauctions.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", "import ctypes, sys; "
                    "from powerauctions.premiums import _t_cdf, _t_cdf_function; "
                    "p = _t_cdf(3.0, -1.5); "
                    "assert isinstance(_t_cdf_function(), ctypes._CFuncPtr); "
                    "assert 'scipy.special' not in sys.modules; "
                    "from scipy import special; assert p == special.stdtr(3.0, -1.5)"],
                   env=env, check=True)


def _no_file(monkeypatch, tmp_path):
    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)


def _no_key(monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules["scipy.special._ufuncs_cxx"], "__pyx_capi__", {})


def _wrong_capsule_name(monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules["scipy.special._ufuncs_cxx"], "__pyx_capi__",
                        {"_export_t_cdf_double": datetime.datetime_CAPI})


@pytest.fixture
def fresh_t_cdf():
    premiums._t_cdf_function.cache_clear()
    yield
    premiums._t_cdf_function.cache_clear()


@pytest.mark.parametrize("break_loader", [_no_file, _no_key, _wrong_capsule_name])
def test_t_cdf_falls_back_to_stdtr(monkeypatch, tmp_path, rng, fresh_t_cdf, break_loader):
    samples = [(rng.normal(0, 1, 9), rng.normal(0.5, 2, 14)) for _ in range(20)]
    samples.append((np.array([1.0, 2.0]), np.array([1.5, 2.5])))
    assert isinstance(premiums._t_cdf_function(), ctypes._CFuncPtr)
    fast = [welch_t(a, b) for a, b in samples]
    premiums._t_cdf_function.cache_clear()
    break_loader(monkeypatch, tmp_path)
    assert premiums._t_cdf_function() is special.stdtr
    assert [welch_t(a, b) for a, b in samples] == fast


class TestPublishedTables:
    def test_all_cesur_rows(self):
        for a in CESUR_AUCTIONS:
            premium, pct = cesur_premium(a.price, a.spot_avg)
            assert premium == pytest.approx(a.premium, abs=0.01), a.label
            assert pct * 100 == pytest.approx(a.premium_pct, abs=0.02), a.label
            f_prem, f_pct = fmpi_premium(a.price, 0.0, a.fmpi)
            assert f_prem == pytest.approx(a.fmpi_premium, abs=0.01), a.label
            assert f_pct * 100 == pytest.approx(a.fmpi_premium_pct, abs=0.02), a.label

    def test_all_pjm_rows(self):
        for a in PJM_AUCTIONS:
            premium, pct = pjm_premium(a.avg_price, a.costs, a.spot_avg)
            assert premium == pytest.approx(a.premium, abs=0.01), (a.year, a.zone)
            assert pct * 100 == pytest.approx(a.premium_pct, abs=0.05), (a.year, a.zone)
            f_prem, f_pct = fmpi_premium(a.bgsfp_price, a.costs, a.fmpi)
            assert f_prem == pytest.approx(a.fmpi_premium, abs=0.01), (a.year, a.zone)
            assert f_pct * 100 == pytest.approx(a.fmpi_premium_pct, abs=0.05), (a.year, a.zone)


@pytest.mark.parametrize("call, message", [
    (lambda: FmpiSpec(monthly_prices=(40.0,) * 35 + (math.nan,)), "non-finite price in strip"),
    (lambda: FmpiSpec(monthly_prices=(40.0,) * 36, annual_rate=-1),
     "annual rate must exceed -1"),
    (lambda: monetary_impact(1.0, -5.0), "capacity must be non-negative"),
], ids=["fmpi_non_finite_price", "fmpi_rate_minus_one", "negative_capacity"])
def test_fmpi_and_impact_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
