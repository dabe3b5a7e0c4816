"""Tests for the experiment drivers: plan bookkeeping, line fits, the
Lyapunov scaling table, deviation-fraction tables, and localization runs."""

import json
import math

import numpy as np
import pytest
import scipy.stats

from szegolab import experiments
from szegolab.experiments import (
    PRUFER_FAMILIES,
    DeviationRow,
    ExperimentPlan,
    eigenvector_decay_fit,
    ldt_deviation,
    linear_fit,
    localization,
    lyapunov_scaling,
    prufer_term_ldt,
    summary_json,
)
from szegolab.sampling import preset, spectral_function, spectral_window
from szegolab.torus_dynamics import CAT_MAP


# ---------------------------------------------------------------------------
# plans and fits


def test_plan_validation():
    ok = dict(lams=(0.1,), etas=(1.5708,), Ns=(100,))
    ExperimentPlan(**ok)
    with pytest.raises(ValueError):
        ExperimentPlan(lams=(), etas=(1.5708,), Ns=(100,))
    with pytest.raises(ValueError):
        ExperimentPlan(lams=(2.0,), etas=(1.5708,), Ns=(100,))
    with pytest.raises(ValueError):
        ExperimentPlan(lams=(-0.1,), etas=(1.5708,), Ns=(100,))
    with pytest.raises(ValueError):
        ExperimentPlan(lams=(0.1,), etas=(0.01,), Ns=(100,))
    with pytest.raises(ValueError):
        ExperimentPlan(lams=(0.1,), etas=(1.5708,), Ns=(1,))
    with pytest.raises(ValueError):
        ExperimentPlan(lams=(0.1,), etas=(1.5708,), Ns=(100,), samples=0)


def test_plan_rng_streams():
    plan = ExperimentPlan(lams=(0.1,), etas=(1.5708,), Ns=(100,), seed=7)
    a = plan.rng(0, 0).random(4)
    b = plan.rng(0, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, plan.rng(0, 1).random(4))
    assert not np.array_equal(a, plan.rng(1, 0).random(4))


def test_plan_config_deterministic():
    plan = ExperimentPlan(lams=(0.1,), etas=(1.5708,), Ns=(100,), seed=3)
    c1 = plan.config(0.1, 2, 5)
    c2 = plan.config(0.1, 2, 5)
    assert (c1.base.x, c1.base.y) == (c2.base.x, c2.base.y)
    c3 = plan.config(0.1, 3, 5)
    assert (c1.base.x, c1.base.y) != (c3.base.x, c3.base.y)


def test_linear_fit_exact_line():
    fit = linear_fit([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.r2 == 1.0
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-10)
    d = fit.as_dict()
    assert set(d) == {"slope", "intercept", "r2", "slope_stderr", "intercept_stderr"}


def test_linear_fit_two_points_has_infinite_stderr():
    fit = linear_fit([0.0, 1.0], [0.0, 2.0])
    assert fit.slope == pytest.approx(2.0)
    assert math.isinf(fit.slope_stderr)


def test_linear_fit_validation():
    with pytest.raises(ValueError):
        linear_fit([1.0], [2.0])
    with pytest.raises(ValueError):
        linear_fit([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        linear_fit([0.0, 1.0, 2.0], [0.0, math.inf, 1.0])
    with pytest.raises(ValueError):
        linear_fit([0.0, 1.0, 2.0], [0.0, math.nan, 1.0])


# ---------------------------------------------------------------------------
# Lyapunov scaling


def test_lyapunov_scaling_single_cell():
    plan = ExperimentPlan(
        lams=(0.1,), etas=(1.5708,), Ns=(20_000,), seed=0, base_points=2
    )
    res = lyapunov_scaling(plan)
    assert len(res.rows) == 1
    row = res.rows[0]
    # flat spectral density 1/2 for the two-frequency preset
    assert row.prediction == pytest.approx(0.0025, rel=1e-12)
    assert row.residual == abs(row.L_N - row.prediction)
    assert row.cross_delta <= 1e-3 + 10.0 / row.N
    assert res.residual_fit is None
    lines = res.csv().strip().split("\n")
    assert lines[0] == res.CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 7
    assert float(fields[0]) == 0.1
    assert json.loads(summary_json(res)) == res.summary()


def test_prediction_comes_from_spectral_function():
    eta = math.pi / 2
    plan = ExperimentPlan(
        lams=(0.1,),
        etas=(eta,),
        Ns=(500,),
        seed=0,
        base_points=1,
        alpha=preset("alpha1"),
    )
    res = lyapunov_scaling(plan)
    want = 0.5 * 0.1**2 * float(spectral_function(preset("alpha1"), CAT_MAP, eta))
    assert res.rows[0].prediction == pytest.approx(want, rel=1e-12)
    # cosine-squared density at the quarter turn is one half
    assert res.rows[0].prediction == pytest.approx(0.0025, rel=1e-9)


# ---------------------------------------------------------------------------
# deviation tables


def _small_plan(**kw):
    base = dict(lams=(0.1,), etas=(1.5708,), Ns=(50, 100), samples=64, seed=0)
    base.update(kw)
    return ExperimentPlan(**base)


def test_threshold_too_large_reports_bounds():
    res = ldt_deviation(_small_plan(), "birkhoff", threshold_fn=lambda lam: 1e6)
    assert len(res.rows) == 2
    for row in res.rows:
        assert row.count == 0
        assert row.fraction == 0.0
        assert row.stderr == 0.0
        assert 0.0 < row.upper95 < 1.0
        assert math.isfinite(row.q95)
    assert res.fit is None


def test_family_validation():
    with pytest.raises(ValueError):
        ldt_deviation(_small_plan(), "bogus")


@pytest.mark.parametrize("family", ["birkhoff", "lyapunov", "prufer"])
def test_deviation_csv_identical_across_jobs(family):
    plan = _small_plan(samples=1100, Ns=(50,))
    if family == "prufer":
        run = lambda jobs: prufer_term_ldt(plan, jobs=jobs)
    else:
        run = lambda jobs: ldt_deviation(plan, family, jobs=jobs)
    assert run(1).csv() == run(2).csv()


def test_clopper_pearson_upper_bound():
    row = DeviationRow(
        family="birkhoff", lam=0.1, N=50, count=3, samples=100, threshold=0.2, q95=0.1
    )
    assert row.fraction == pytest.approx(0.03)
    assert row.stderr == pytest.approx(math.sqrt(0.03 * 0.97 / 100))
    assert row.upper95 == pytest.approx(float(scipy.stats.beta.ppf(0.95, 4, 97)))
    full = DeviationRow(
        family="birkhoff", lam=0.1, N=50, count=100, samples=100, threshold=0.2, q95=0.1
    )
    assert full.upper95 == 1.0


@pytest.mark.parametrize("samples", [1, 7, 50, 500])
def test_upper95_equals_beta_quantile_at_every_count(samples):
    # the bound is the beta quantile, computed without importing scipy.stats
    for count in range(samples):
        row = DeviationRow(
            family="birkhoff", lam=0.1, N=50, count=count, samples=samples,
            threshold=0.2, q95=0.1,
        )
        assert row.upper95 == float(scipy.stats.beta.ppf(0.95, count + 1, samples - count))


def test_prufer_term_table():
    plan = _small_plan(samples=32, Ns=(400,))
    res = prufer_term_ldt(plan)
    assert res.family == "prufer"
    assert len(res.rows) == len(PRUFER_FAMILIES)
    assert tuple(r.family for r in res.rows) == PRUFER_FAMILIES
    for row in res.rows:
        assert 0.0 <= row.fraction <= 1.0
        assert math.isfinite(row.q95)
        assert row.threshold == pytest.approx(0.1**3)
    assert res.fit is None
    assert dict(res.per_family).keys() == set(PRUFER_FAMILIES)
    assert res.csv() == prufer_term_ldt(plan).csv()


def test_prufer_terms_need_orbits_longer_than_the_lag():
    # lambda = 0.01 puts the lag at T = 5: lags up to T need N > T samples
    with pytest.raises(ValueError, match="lag"):
        prufer_term_ldt(_small_plan(lams=(0.01,), Ns=(5, 50)))


def test_prufer_terms_all_quiet_under_huge_threshold():
    plan = _small_plan(samples=32, Ns=(400,))
    res = prufer_term_ldt(plan, threshold_fn=lambda lam: 1e9)
    assert all(row.count == 0 for row in res.rows)
    assert json.loads(summary_json(res)) == res.summary()


# ---------------------------------------------------------------------------
# localization


def test_localization_needs_enough_efoldings():
    plan = ExperimentPlan(lams=(0.5,), etas=(1.5708,), Ns=(200,), seed=0)
    with pytest.raises(ValueError):
        localization(plan)


def test_localization_small_run():
    plan = ExperimentPlan(lams=(0.7,), etas=(1.5708,), Ns=(200,), seed=0)
    res = localization(plan, lyap_N=50_000)
    assert not res.empty
    assert res.window == tuple(spectral_window(preset("alpha0"), CAT_MAP, 0.3, 0.05))
    for row in res.rows:
        assert any(lo <= row.eta <= hi for lo, hi in res.window)
        assert math.isfinite(row.decay_rate)
        assert 0.0 <= row.r2 <= 1.0
        assert row.ratio == pytest.approx(row.decay_rate / row.lyapunov)
        if row.decay_rate > 0:
            assert row.localization_length == pytest.approx(1.0 / row.decay_rate)
    assert math.isfinite(res.median_ratio())
    assert json.loads(summary_json(res)) == res.summary()


def test_localization_counts_what_it_drops(monkeypatch):
    # one in-window pair is flagged over tolerance and another has a
    # vector no fit can use; both are counted, only the second loses its row
    plan = ExperimentPlan(lams=(0.7,), etas=(1.5708,), Ns=(200,), seed=0)
    window = ((1.0, 2.0),)
    clean = localization(plan, window=window, lyap_N=5_000)
    assert clean.fits_skipped == 0
    assert clean.eigen_over_tol == 0
    assert 0.0 < clean.worst_eigen_residual <= 1e-8

    real = experiments.eigenpairs
    picked = {}

    def tampered(op):
        dec = real(op)
        inside = np.flatnonzero((dec.etas >= 1.0) & (dec.etas <= 2.0))
        flagged, unfit = int(inside[0]), int(inside[1])
        dec.ok[flagged] = False
        dec.residuals[flagged] = 0.5
        dec.vectors[:, unfit] = 0.0
        dec.vectors[0, unfit] = 1.0
        picked.update(flagged=float(dec.etas[flagged]), unfit=float(dec.etas[unfit]))
        return dec

    monkeypatch.setattr(experiments, "eigenpairs", tampered)
    res = localization(plan, window=window, lyap_N=5_000)
    assert res.fits_skipped == 1
    assert res.eigen_over_tol == 1
    assert res.worst_eigen_residual == 0.5
    etas = [r.eta for r in res.rows]
    assert len(etas) == len(clean.rows) - 1
    assert picked["flagged"] in etas and picked["unfit"] not in etas
    summary = json.loads(summary_json(res))
    assert (summary["fits_skipped"], summary["eigen_over_tol"]) == (1, 1)
    assert summary["worst_eigen_residual"] == 0.5


def test_localization_empty_window():
    plan = ExperimentPlan(lams=(0.7,), etas=(1.5708,), Ns=(200,), seed=0)
    res = localization(plan, c=0.6)
    assert res.empty
    assert res.rows == ()
    assert math.isnan(res.median_ratio())


def test_localization_window_override():
    plan = ExperimentPlan(lams=(0.7,), etas=(1.5708,), Ns=(200,), seed=0)
    res = localization(plan, window=((1.0, 2.0),), lyap_N=50_000)
    assert res.window == ((1.0, 2.0),)
    assert all(1.0 <= row.eta <= 2.0 for row in res.rows)


def test_boundary_value_barely_moves_decay_rates():
    # localization is a bulk property: swapping the right boundary value
    # moves each matched decay rate by less than half
    plan = ExperimentPlan(lams=(0.7,), etas=(1.5708,), Ns=(200,), seed=0)
    r1 = localization(plan, lyap_N=50_000)
    ri = localization(plan, gamma=1j, lyap_N=50_000)
    e1 = np.array([r.eta for r in r1.rows])
    d1 = np.array([r.decay_rate for r in r1.rows])
    e2 = np.array([r.eta for r in ri.rows])
    d2 = np.array([r.decay_rate for r in ri.rows])
    paired = 0
    for k in range(len(e1)):
        j = int(np.argmin(np.abs(e2 - e1[k])))
        if int(np.argmin(np.abs(e1 - e2[j]))) != k:
            continue
        paired += 1
        assert abs(d2[j] - d1[k]) / abs(d1[k]) < 0.5
    assert paired >= 100


def test_eigenvector_decay_fit_recovers_rate():
    n = np.arange(61)
    vec = np.exp(-0.3 * np.abs(n - 30))
    fit = eigenvector_decay_fit(vec)
    assert fit.slope == pytest.approx(0.3, rel=1e-9)
    assert fit.r2 == 1.0


def test_eigenvector_decay_fit_validation():
    with pytest.raises(ValueError):
        eigenvector_decay_fit(np.ones(12))
    vec = np.zeros(40)
    vec[20] = 1.0
    vec[21] = 0.5
    with pytest.raises(ValueError):
        eigenvector_decay_fit(vec)
