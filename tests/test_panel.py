import math
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from powerauctions import (PanelObservation, RegressionError, fit_pooled_ols,
                           standardize_by_group, vol3y)

from conftest import make_spot


class TestVol3y:
    def test_constant_series(self):
        spot = make_spot([50.0] * 400, start=date(2006, 1, 1))
        assert vol3y(spot, date(2007, 2, 1)) == 0.0

    def test_alternating_two_point(self):
        spot = make_spot([10.0, 20.0] * 100, start=date(2006, 6, 1))
        got = vol3y(spot, date(2007, 2, 1))
        expected = np.std([10.0, 20.0] * 100, ddof=1)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_auction_day_excluded(self):
        # a huge outlier on the auction day must not enter the window
        prices = [50.0] * 100 + [1000.0]
        spot = make_spot(prices, start=date(2007, 1, 1))
        assert vol3y(spot, date(2007, 4, 11)) == 0.0

    def test_window_is_three_years(self):
        # outlier older than 3 years is out of the window
        prices = [1000.0] + [50.0] * 1200
        spot = make_spot(prices, start=date(2003, 1, 1))
        assert vol3y(spot, date(2007, 1, 1)) == 0.0

    def test_insufficient_data_rejected(self):
        spot = make_spot([50.0] * 5, start=date(2010, 1, 1))
        with pytest.raises(RegressionError):
            vol3y(spot, date(2007, 1, 1))


class TestStandardize:
    def test_simple_zscores(self):
        out = standardize_by_group([1.0, 2.0, 3.0], ["g", "g", "g"])
        np.testing.assert_allclose(out, [-1.0, 0.0, 1.0])

    def test_groups_independent(self, rng):
        values = np.concatenate([rng.normal(5, 2, 10), rng.normal(-3, 7, 12)])
        labels = list(rng.permutation(["a"] * 10 + ["b"] * 12))
        out = standardize_by_group(values, labels)
        for lab in ("a", "b"):
            mask = np.array([l == lab for l in labels])
            assert out[mask].mean() == pytest.approx(0.0, abs=1e-12)
            assert out[mask].std(ddof=1) == pytest.approx(1.0, abs=1e-12)
            x = values[mask]
            np.testing.assert_allclose(out[mask], (x - x.mean()) / x.std(ddof=1),
                                       rtol=1e-12, atol=1e-12)

    def test_zero_variance_group_rejected(self):
        with pytest.raises(RegressionError, match="zero variance"):
            standardize_by_group([1.0, 1.0, 2.0, 3.0], ["a", "a", "b", "b"])
        # the mean of three 0.1s is not 0.1, so the deviations are not all zero
        with pytest.raises(RegressionError, match="group 'a' has zero variance"):
            standardize_by_group([0.1, 0.1, 0.1, 1.0, 2.0], ["a", "a", "a", "b", "b"])

    def test_singleton_group_rejected(self):
        with pytest.raises(RegressionError, match="group 'b' has fewer than 2 observations"):
            standardize_by_group([1.0, 2.0, 3.0], ["a", "a", "b"])

    @pytest.mark.parametrize("labels,message", [
        (["z", "z", "k", "k", "m", "a", "a"], "group 'k' has zero variance"),
        (["z", "z", "k", "k", "c", "a", "a"], "group 'c' has fewer than 2 observations"),
    ], ids=["zero_variance_first", "singleton_first"])
    def test_first_bad_group_in_sorted_order_named(self, labels, message):
        values = [1.0, 1.0, 4.0, 4.0, 5.0, 2.0, 3.0]
        with pytest.raises(RegressionError, match=message):
            standardize_by_group(values, labels)


def make_panel(rng, n_units=4, n_periods=6, covs=("x1", "x2"), beta=None):
    panel = []
    for u in range(n_units):
        for t in range(n_periods):
            x = {c: float(rng.uniform(-2, 2)) for c in covs}
            y = 1.0 + sum((i + 1) * v for i, v in enumerate(x.values()))
            y += float(rng.standard_normal()) * 0.5
            panel.append(PanelObservation(unit=f"U{u}", period=2007 + t, y=y,
                                          covariates=x))
    return panel


def ols_oracle(panel, covariates, period_fixed_effects):
    """Normal equations + explicit sandwich, independent of the fit path."""
    y = np.array([o.y for o in panel])
    cols = [np.ones(len(panel))]
    for c in covariates:
        cols.append(np.array([o.covariates[c] for o in panel]))
    if period_fixed_effects:
        periods = sorted({o.period for o in panel})
        for p in periods[1:]:
            cols.append(np.array([1.0 if o.period == p else 0.0 for o in panel]))
    X = np.column_stack(cols)
    n, k = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    resid = y - X @ beta
    rss = float(resid @ resid)
    clusters = sorted({o.unit for o in panel})
    g = len(clusters)
    meat = np.zeros((k, k))
    for cu in clusters:
        mask = np.array([o.unit == cu for o in panel])
        s = X[mask].T @ resid[mask]
        meat += np.outer(s, s)
    c = (g / (g - 1)) * ((n - 1) / (n - k))
    cov = c * xtx_inv @ meat @ xtx_inv
    # diagonal is a sum of squares; round-off can dip just below zero
    return beta, np.sqrt(np.clip(np.diag(cov), 0.0, None)), rss


def oracle_panels():
    """Acceptance 7's 100 panels, drawn from seed 11: (trial, panel, covariates,
    period effects), with 2-8 units, 3-5 periods and 1-3 covariates."""
    rng = np.random.default_rng(11)
    for trial in range(100):
        g = int(rng.integers(2, 9))
        n_periods = int(rng.integers(3, 6))
        n_covs = int(rng.integers(1, 4))
        use_fe = bool(rng.integers(2))
        # keep the design estimable: k must stay below n = g * n_periods
        k = 1 + n_covs + (n_periods - 1 if use_fe else 0)
        while k > g * n_periods - 2:
            if use_fe:
                use_fe = False
            else:
                n_covs -= 1
            k = 1 + n_covs + (n_periods - 1 if use_fe else 0)
        covs = [f"x{i}" for i in range(n_covs)]
        panel = []
        for u in range(g):
            for t in range(n_periods):
                x = {c: float(rng.uniform(-3, 3)) for c in covs}
                y = 0.5 + sum(v for v in x.values()) + float(rng.standard_normal())
                panel.append(PanelObservation(unit=f"U{u}", period=2000 + t,
                                              y=y, covariates=x))
        yield trial, panel, covs, use_fe


# acceptance 7's coefficients whose sandwich variance is 0 up to round-off:
# with two units and period effects, a covariate's cluster scores cancel
ROUND_OFF_ZEROS = {(17, "x0"), (27, "x0"), (27, "x1"), (27, "x2"), (69, "x0")}


def grid_panel(rng, n_units, n_periods, make_covariates):
    """Units U0.. by periods 2000.., covariates from make_covariates(rng, t)."""
    return [PanelObservation(unit=f"U{u}", period=2000 + t, y=float(rng.standard_normal()),
                             covariates=make_covariates(rng, t))
            for u in range(n_units) for t in range(n_periods)]


def near_collinear(rng, scale):
    x = float(rng.uniform(-scale, scale))
    return {"x": x, "x2": 2 * x + 1e-9 * float(rng.standard_normal()), "x_sq": x * x}


def with_x(**others):
    def make(rng, t):
        x = float(rng.uniform(-1, 1))
        return {"x": x, **{name: f(x, t) for name, f in others.items()}}
    return make


# case: ((units, periods), covariates, (period effects, unit effects), named column)
RANK_CASES = {
    "x_copy": ((3, 4), with_x(x_copy=lambda x, t: 2 * x), (False, False), "x_copy"),
    "constant_covariate": ((3, 4), with_x(c=lambda x, t: 7.0), (True, False), "c"),
    "period_indicator": ((3, 4), with_x(d=lambda x, t: float(t == 2)), (True, False),
                         "period_2002"),
    # 3 observations, 4 columns: column n = 3 is the first that adds no rank
    "fewer_rows_than_columns": ((3, 1), with_x(), (True, True), "unit_U2"),
    # x2 is 2x up to 1e-9 at scale 1e3: an SVD rank test on growing column
    # slices only sees it once the later, larger x_sq column raises its tolerance
    "near_collinear": ((4, 10), lambda rng, t: near_collinear(rng, 1e3), (True, True), "x2"),
}


class TestPooledOls:
    def test_exact_fit(self):
        panel = [PanelObservation(unit="A" if i % 2 else "B", period=i, y=1.0 + 2.0 * i,
                                  covariates={"x": float(i)}) for i in range(8)]
        res = fit_pooled_ols(panel, ["x"], period_fixed_effects=False)
        assert res.coefficient("const").estimate == pytest.approx(1.0, abs=1e-9)
        assert res.coefficient("x").estimate == pytest.approx(2.0, abs=1e-9)
        assert res.r_squared == pytest.approx(1.0, abs=1e-12)
        assert res.rss == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("y", [lambda i: 0.0, lambda i: 1.5, lambda i: 1.0 + 2.0 * i],
                             ids=["zero", "constant", "line"])
    def test_exact_fit_has_zero_standard_errors(self, y):
        panel = [PanelObservation(unit="A" if i % 2 else "B", period=i, y=y(i),
                                  covariates={"x": float(i), "w": float(i % 3)})
                 for i in range(8)]
        res = fit_pooled_ols(panel, ["x", "w"], period_fixed_effects=False)
        assert [c.std_error for c in res.coefficients] == [0.0] * 3
        assert [c.t_stat for c in res.coefficients] == [math.inf] * 3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["y", "x"])
    def test_non_finite_input_named(self, capfd, field, value):
        # used to give NaN estimates (y) or LinAlgError after LAPACK's stderr lines (x)
        panel = [PanelObservation(unit="A" if i % 2 else "B", period=i, y=float(i * i),
                                  covariates={"x": float(i)}) for i in range(8)]
        bad = {"y": value} if field == "y" else {"covariates": {"x": value}}
        panel[5] = replace(panel[5], **bad)
        with pytest.raises(RegressionError) as exc:
            fit_pooled_ols(panel, ["x"], period_fixed_effects=False)
        assert str(exc.value) == f"observation (A, 5) has non-finite {field} {value}"
        assert capfd.readouterr().err == ""

    def test_round_off_standard_errors_are_zero(self):
        # they were 2e-16 to 4e-15, with t statistics of 2e14 to 2.5e15
        zeros = set()
        for trial, panel, covs, use_fe in oracle_panels():
            res = fit_pooled_ols(panel, covs, period_fixed_effects=use_fe)
            zeros |= {(trial, c.name) for c in res.coefficients if c.std_error == 0}
            assert all(c.t_stat == math.inf for c in res.coefficients if c.std_error == 0)
        assert zeros == ROUND_OFF_ZEROS

    @pytest.mark.parametrize("scale", [1e6, 1e-6])
    def test_round_off_rule_ignores_a_covariates_units(self, scale):
        for trial, panel, covs, use_fe in oracle_panels():
            for name in covs:
                scaled = [replace(o, covariates={**o.covariates, name: o.covariates[name] * scale})
                          for o in panel]
                res = fit_pooled_ols(scaled, covs, period_fixed_effects=use_fe)
                assert ({c.name for c in res.coefficients if c.std_error == 0}
                        == {c for t, c in ROUND_OFF_ZEROS if t == trial}), (trial, name)

    def test_one_factorization_per_fit(self, rng, monkeypatch):
        qr, calls = np.linalg.qr, []

        def counting_qr(*args, **kwargs):
            calls.append(args)
            return qr(*args, **kwargs)

        def no_lstsq(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        fit_pooled_ols(make_panel(rng), ["x1", "x2"])
        assert len(calls) == 1

    def test_matches_matrix_oracle(self, rng):
        panel = make_panel(rng)
        res = fit_pooled_ols(panel, ["x1", "x2"], period_fixed_effects=True)
        beta, se, rss = ols_oracle(panel, ["x1", "x2"], True)
        got_beta = [c.estimate for c in res.coefficients]
        got_se = [c.std_error for c in res.coefficients]
        np.testing.assert_allclose(got_beta, beta, rtol=1e-10)
        np.testing.assert_allclose(got_se, se, rtol=1e-10)
        assert res.rss == pytest.approx(rss, rel=1e-10)
        assert res.rmse == pytest.approx(np.sqrt(rss / (res.n - res.k)), rel=1e-12)

    def test_singleton_clusters_equal_hc0_up_to_factor(self, rng):
        # every observation its own cluster: the meat collapses to HC0
        panel = []
        for i in range(12):
            x = float(rng.uniform(-1, 1))
            panel.append(PanelObservation(unit=f"U{i}", period=2007, y=2 * x + float(rng.standard_normal()),
                                          covariates={"x": x}))
        res = fit_pooled_ols(panel, ["x"], period_fixed_effects=False)
        y = np.array([o.y for o in panel])
        X = np.column_stack([np.ones(12), [o.covariates["x"] for o in panel]])
        xtx_inv = np.linalg.inv(X.T @ X)
        beta = xtx_inv @ X.T @ y
        u = y - X @ beta
        hc0 = xtx_inv @ (X.T @ np.diag(u ** 2) @ X) @ xtx_inv
        n, k, g = 12, 2, 12
        c = (g / (g - 1)) * ((n - 1) / (n - k))
        np.testing.assert_allclose([co.std_error for co in res.coefficients],
                                   np.sqrt(np.diag(c * hc0)), rtol=1e-10)

    def test_residuals_orthogonal_to_design(self, rng):
        panel = make_panel(rng)
        res = fit_pooled_ols(panel, ["x1", "x2"])
        beta = np.array([c.estimate for c in res.coefficients])
        y = np.array([o.y for o in panel])
        cols = [np.ones(len(panel)),
                np.array([o.covariates["x1"] for o in panel]),
                np.array([o.covariates["x2"] for o in panel])]
        for p in sorted({o.period for o in panel})[1:]:
            cols.append(np.array([1.0 if o.period == p else 0.0 for o in panel]))
        X = np.column_stack(cols)
        resid = y - X @ beta
        assert np.max(np.abs(X.T @ resid)) < 1e-8 * max(1.0, np.abs(y).sum())

    def test_period_effects_never_increase_rss(self, rng):
        panel = make_panel(rng)
        with_fe = fit_pooled_ols(panel, ["x1", "x2"], period_fixed_effects=True)
        without = fit_pooled_ols(panel, ["x1", "x2"], period_fixed_effects=False)
        assert with_fe.rss <= without.rss + 1e-10

    def test_invariant_under_observation_reordering(self, rng):
        panel = make_panel(rng)
        shuffled = list(panel)
        rng.shuffle(shuffled)
        a = fit_pooled_ols(panel, ["x1", "x2"])
        b = fit_pooled_ols(shuffled, ["x1", "x2"])
        for ca, cb in zip(a.coefficients, b.coefficients):
            assert ca.estimate == pytest.approx(cb.estimate, abs=1e-10)

    @pytest.mark.parametrize("case", list(RANK_CASES), ids=list(RANK_CASES))
    def test_rank_deficiency_names_column(self, rng, case):
        shape, make, fixed_effects, named = RANK_CASES[case]
        panel = grid_panel(rng, *shape, make)
        with pytest.raises(RegressionError, match=f"rank deficient at column '{named}'"):
            fit_pooled_ols(panel, list(panel[0].covariates), *fixed_effects)

    def test_nearly_collinear_at_unit_scale_still_fits(self, rng):
        # the same 1e-9 perturbation as the "near_collinear" case, at scale 1
        panel = grid_panel(rng, 4, 10, lambda rng, t: near_collinear(rng, 1.0))
        res = fit_pooled_ols(panel, ["x", "x2", "x_sq"], True, True)
        assert res.k == 1 + 3 + 9 + 3
        assert all(np.isfinite(c.std_error) for c in res.coefficients)

    def test_fewer_than_two_clusters_rejected(self, rng):
        panel = [PanelObservation(unit="U", period=2007 + i,
                                  y=float(rng.standard_normal()),
                                  covariates={"x": float(i)}) for i in range(6)]
        with pytest.raises(RegressionError, match="clusters"):
            fit_pooled_ols(panel, ["x"], period_fixed_effects=False)

    def test_as_many_parameters_as_observations_rejected(self):
        panel = [PanelObservation(unit=u, period=2007, y=y, covariates={"x": x})
                 for u, y, x in (("A", 1.0, 1.0), ("B", 3.0, 2.0))]
        with pytest.raises(RegressionError, match=r"not enough observations \(2\) for 2"):
            fit_pooled_ols(panel, ["x"], period_fixed_effects=False)

    def test_duplicate_unit_period_rejected(self):
        obs = PanelObservation(unit="U", period=2007, y=1.0, covariates={"x": 1.0})
        with pytest.raises(RegressionError, match="duplicate"):
            fit_pooled_ols([obs, obs], ["x"])

    def test_missing_covariate_named(self):
        panel = [PanelObservation(unit="A", period=2007, y=1.0, covariates={"x": 1.0}),
                 PanelObservation(unit="B", period=2008, y=2.0, covariates={})]
        with pytest.raises(RegressionError, match="missing covariate 'x'"):
            fit_pooled_ols(panel, ["x"])


@pytest.mark.parametrize("call, error, message", [
    (lambda: standardize_by_group([1.0, 2.0], ["A"]), ValueError,
     "values and labels length mismatch"),
    (lambda: fit_pooled_ols([], ["x"]), RegressionError, "empty panel"),
    (lambda: fit_pooled_ols([PanelObservation(unit="A" if i % 2 else "B", period=i, y=i * i,
                                              covariates={"x": float(i)}) for i in range(8)],
                            ["x"], period_fixed_effects=False).coefficient("missing"),
     KeyError, "'missing'"),
], ids=["standardize_length_mismatch", "empty_panel", "unknown_coefficient"])
def test_panel_checks(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
