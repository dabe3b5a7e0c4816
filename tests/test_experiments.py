"""Tests for the experiment drivers: plan bookkeeping, line fits, the
Lyapunov scaling table, deviation-fraction tables, and localization runs."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from szegolab import experiments, verblunsky
from szegolab.cmv_operator import EIGEN_BLOCK, build
from szegolab.experiments import (
    FAMILIES,
    DeviationRow,
    ExperimentPlan,
    _decay_fits,
    ldt_deviation,
    linear_fit,
    localization,
    lyapunov_scaling,
)
from szegolab.prufer import expansion_diagnostics
from szegolab.sampling import evaluate_many, preset, spectral_function, spectral_window
from szegolab.szego_cocycle import SpectralPoint, lyapunov_poly_many
from szegolab.torus_dynamics import CAT_MAP, TWO_PI, orbit_slices

from helpers import sorted_pairs
from oracles import deviation_statistics, eigenvector_decay_fit, scalar_orbit


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
    # a repeated grid entry gives a duplicate cell, and a repeated N a
    # singular deviation fit after every cell has been sampled
    for grids in (
        dict(lams=(0.1, 0.1), etas=(1.5708,), Ns=(100,)),
        dict(lams=(0.1,), etas=(1.5708, 1.0, 1.5708), Ns=(100,)),
        # one angle a turn apart: SpectralPoint reduces eta mod 2 pi
        dict(lams=(0.1,), etas=(1.0, 1.0 + TWO_PI), Ns=(100,)),
        dict(lams=(0.1,), etas=(1.5708,), Ns=(100, 100, 100)),
    ):
        with pytest.raises(ValueError, match="repeats"):
            ExperimentPlan(**grids)


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
    assert 0.0 < row.cross_delta <= 1e-12
    assert res.residual_fit is None
    lines = res.csv().strip().split("\n")
    assert lines[0] == res.CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 7
    assert float(fields[0]) == 0.1
    assert json.loads(json.dumps(res.summary())) == res.summary()


def test_lyapunov_cell_walks_each_orbit_once(monkeypatch):
    # every base point's orbit is generated once per cell: the growth rate,
    # its lag-T correction and cross_delta all come from one pass
    walked = []

    def counting_slices(*args):
        for xs, ys in orbit_slices(*args):
            walked.append(xs.size)
            yield xs, ys

    monkeypatch.setattr(verblunsky, "orbit_slices", counting_slices)
    N = 20_000
    plan = ExperimentPlan(lams=(0.1,), etas=(1.5708,), Ns=(N,), seed=0, base_points=2)
    lyapunov_scaling(plan)
    assert sum(walked) == 2 * N


def test_lyapunov_cross_delta_is_the_worst_base_point():
    N = (1 << 16) + 917
    plan = ExperimentPlan(lams=(0.2,), etas=(1.0,), Ns=(N,), seed=4, base_points=2)
    row = lyapunov_scaling(plan).rows[0]
    s = SpectralPoint(1.0)
    diag = expansion_diagnostics([plan.config(0.2, 0, r) for r in range(2)], s, N)
    assert row.cross_delta == max(abs(diag.lhs - diag.lhs_poly))
    assert 0.0 < row.cross_delta <= 1e-12


def test_lyapunov_cell_memory_is_flat_in_N():
    # a cell streams its orbits in fixed slices, so no array grows with N
    peaks = []
    for N in (100_000, 1_000_000):
        plan = ExperimentPlan(lams=(0.1,), etas=(1.0,), Ns=(N,), seed=2, base_points=2)
        tracemalloc.start()
        try:
            lyapunov_scaling(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 1.05 * peaks[0]


def test_lyapunov_csv_identical_across_jobs():
    plan = ExperimentPlan(lams=(0.1, 0.2), etas=(1.0,), Ns=(2000,), seed=3, base_points=2)
    assert lyapunov_scaling(plan, jobs=1).csv() == lyapunov_scaling(plan, jobs=2).csv()


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


DEFAULT_THRESHOLDS = {"birkhoff": 0.2, "lyapunov": 0.3**3, "prufer": 0.3**3}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_table_row(family):
    row = FAMILIES[family]
    res = ldt_deviation(_small_plan(lams=(0.3,), samples=16), family)
    assert row.threshold(0.3) == DEFAULT_THRESHOLDS[family]
    assert {r.threshold for r in res.rows} == {DEFAULT_THRESHOLDS[family]}
    # one fit per statistic; each of the two N cells lists every statistic
    # once, in that order
    names = [name for name, _ in res.fits]
    assert [r.family for r in res.rows] == names * 2
    # statistics that read the angle run at one eta; a second would be dropped
    two_etas = _small_plan(etas=(1.0, 2.0), samples=16)
    if row.reads_angle:
        with pytest.raises(ValueError, match="one eta"):
            ldt_deviation(two_etas, family)
    else:
        ldt_deviation(two_etas, family)


def test_threshold_override_replaces_the_default():
    # a constant equal to the family's default at the plan's one lambda
    # changes nothing; any other constant is every row's threshold
    plan = _small_plan(lams=(0.3,))
    default = ldt_deviation(plan, "lyapunov").csv()
    assert ldt_deviation(plan, "lyapunov", threshold=0.3**3).csv() == default
    res = ldt_deviation(plan, "birkhoff", threshold=0.08)
    assert [row.threshold for row in res.rows] == [0.08] * len(res.rows)
    assert all(line.endswith(",0.08") for line in res.csv().splitlines()[1:])


@pytest.mark.parametrize("family, lam, threshold", [
    # lambda^3 underflows to 0.0 below lambda ~ 5e-109
    ("prufer", 1e-320, None),
    ("lyapunov", 1e-120, None),
    ("birkhoff", 0.1, 0.0),
    ("prufer", 0.1, math.inf),
    ("lyapunov", 0.1, math.nan),
    ("birkhoff", 0.1, -0.2),
])
def test_threshold_not_positive_and_finite_is_refused(monkeypatch, family, lam, threshold):
    # every row would read fraction 1 (or 0) against a threshold that
    # separates nothing; the error names the family and lambda, before any
    # chunk runs
    def no_chunk(args):
        raise AssertionError("a chunk ran before the threshold check")

    monkeypatch.setattr(experiments, "_deviation_chunk", no_chunk)
    plan = _small_plan(lams=(lam,), Ns=(800, 900), samples=3)
    with pytest.raises(ValueError, match=f"the {family} threshold at lambda = {lam} is"):
        ldt_deviation(plan, family, threshold=threshold)


def test_threshold_too_large_reports_bounds():
    res = ldt_deviation(_small_plan(), "birkhoff", threshold=1e6)
    assert len(res.rows) == 2
    for row in res.rows:
        assert row.count == 0
        assert row.fraction == 0.0
        assert row.stderr == 0.0
        assert 0.0 < row.upper95 < 1.0
        assert math.isfinite(row.q95)
    assert res.fits == (("birkhoff", None),)


def test_family_validation():
    with pytest.raises(ValueError):
        ldt_deviation(_small_plan(), "bogus")


@pytest.mark.parametrize("family", ["birkhoff", "lyapunov", "prufer"])
def test_deviation_csv_identical_across_jobs(family):
    plan = _small_plan(samples=1100, Ns=(50,))
    assert ldt_deviation(plan, family, jobs=1).csv() == ldt_deviation(plan, family, jobs=2).csv()


def _streamed_orbits(monkeypatch):
    """Record every orbit stream that sample_slices opens: its starts and
    the x and y of every slice it yields."""
    streams = []
    real = verblunsky.orbit_slices

    def recorded(A, starts, n, width):
        streams.append((np.array(starts), [], []))
        for xs, ys in real(A, starts, n, width):
            streams[-1][1].append(xs.copy())
            streams[-1][2].append(ys.copy())
            yield xs, ys

    monkeypatch.setattr(verblunsky, "orbit_slices", recorded)
    return streams


# Chunk 0 holds 512 rows (slices of 64 steps), chunk 1 holds 40, under
# WIDE_BATCH (slices of 819 steps); N = 400 and 1000 are multiples of
# neither, and at lambda = 1e-30 the Prufer lag T = 72 passes 64.
@pytest.mark.parametrize("family, N, lam", [
    pytest.param(family, N, 0.3, id=f"{N}-{family}")
    for N in (50, 400, 1000)
    for family in ("birkhoff", "lyapunov", "prufer")
] + [pytest.param("prufer", 400, 1e-30, id="400-prufer-lag72")])
def test_deviation_chunk_bitwise_equal_to_one_orbit_at_a_time(monkeypatch, family, N, lam):
    # the orbits a chunk walks together are bitwise those of scalar_orbit,
    # one sample at a time; the statistics folded slice by slice match the
    # whole-row formulas to 1e-12 of the larger of the value and its scale
    plan = _small_plan(lams=(lam,), etas=(1.3,), Ns=(N,), samples=552, seed=4)
    T = FAMILIES["prufer"].lag(lam, CAT_MAP)
    # the size of each statistic's terms (sup |F| = 1 for the preset), the
    # measure of rounding where the statistic itself comes out near 0
    scales = {"birkhoff": 1.0, "lyapunov": lam, "fsq": 1.0, "mixed": 1.0, "corr": T, "zeta2": 1.0}
    assert 0 < T < 400 and (T > 64) == (lam < 0.3)
    streams = _streamed_orbits(monkeypatch)
    for chunk_index, rows in ((0, 512), (1, 40)):
        args = (plan, family, 2, chunk_index, lam, N)
        got = experiments._deviation_chunk(args)
        starts, xs, ys = streams.pop()
        assert starts.shape == (rows, 2) and not streams
        orbits = [scalar_orbit(plan.autom, x, y, N) for x, y in starts.tolist()]
        for got_xy, want_xy in zip((xs, ys), zip(*orbits)):
            got_xy = np.concatenate(got_xy, axis=1)
            assert np.array_equal(got_xy.view(np.uint64), np.array(want_xy).view(np.uint64))
        F = evaluate_many(plan.alpha, *(np.array(c) for c in zip(*orbits)))
        want = deviation_statistics(plan, family, lam, N, F)
        assert list(got) == list(want)
        for name, w in want.items():
            g = got[name]
            assert g.shape == (rows,)
            assert np.all(np.abs(g - w) <= 1e-12 * np.maximum(np.abs(w), scales[name])), name


def test_deviation_chunk_reads_one_stream_of_all_rows(monkeypatch):
    streams = _streamed_orbits(monkeypatch)
    plan = _small_plan(lams=(0.3,), etas=(1.3,), Ns=(400,), samples=600, seed=4)
    for family in FAMILIES:
        for chunk_index, rows in ((0, 512), (1, 88)):
            experiments._deviation_chunk((plan, family, 0, chunk_index, 0.3, 400))
            (starts, xs, _), = streams
            streams.clear()
            assert starts.shape == (rows, 2)
            assert xs[0].shape == (rows, verblunsky.SLICE_POINTS // rows)
            assert sum(x.shape[1] for x in xs) == 400


@pytest.mark.parametrize("family", ["birkhoff", "lyapunov", "prufer"])
def test_deviation_chunk_memory_is_flat_in_N(family):
    # two samples walk 2^20 steps in slices of 2^14: a (2, 2^20) sample
    # array alone would take 32 MiB, and the whole-row statistics several
    # times that
    plan = _small_plan(lams=(0.3,), etas=(1.3,), Ns=(1 << 20,), samples=2, seed=4)
    peaks = []
    for N in (1 << 16, 1 << 20):
        tracemalloc.start()
        try:
            experiments._deviation_chunk((plan, family, 0, 0, 0.3, N))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 1.05 * peaks[0]
    assert peaks[1] <= 8 << 20


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
    res = ldt_deviation(plan, "prufer")
    assert res.family == "prufer"
    names = ("fsq", "mixed", "corr", "zeta2")
    assert tuple(r.family for r in res.rows) == names
    for row in res.rows:
        assert 0.0 <= row.fraction <= 1.0
        assert math.isfinite(row.q95)
        assert row.threshold == pytest.approx(0.1**3)
    assert tuple(name for name, _ in res.fits) == names
    assert res.csv() == ldt_deviation(plan, "prufer").csv()


def test_prufer_terms_need_orbits_longer_than_the_lag():
    # lambda = 0.01 puts the lag at T = 5: lags up to T need N > T samples
    with pytest.raises(ValueError, match="lag"):
        ldt_deviation(_small_plan(lams=(0.01,), Ns=(5, 50)), "prufer")


def test_prufer_lag_may_pass_the_power_cap():
    # lambda = 1e-90 puts the lag at T = 216, past the 200 powers of the
    # automorphism that an exact autocorrelation evaluates; every lag past
    # the correlation cutoff adds exactly 0 to the limit
    T = FAMILIES["prufer"].lag(1e-90, CAT_MAP)
    assert T > 200
    res = ldt_deviation(_small_plan(lams=(1e-90,), Ns=(T + 1,), samples=8), "prufer")
    assert tuple(r.family for r in res.rows) == ("fsq", "mixed", "corr", "zeta2")
    assert all(math.isfinite(r.q95) for r in res.rows)


def test_prufer_terms_all_quiet_under_huge_threshold():
    plan = _small_plan(samples=32, Ns=(400,))
    res = ldt_deviation(plan, "prufer", threshold=1e9)
    assert all(row.count == 0 for row in res.rows)
    assert json.loads(json.dumps(res.summary())) == res.summary()


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
    assert json.loads(json.dumps(res.summary())) == res.summary()
    good = [r for r in res.rows if r.r2 >= 0.8 and r.decay_rate > 0.0]
    assert res.summary()["good_fits"] == len(good) > 0


def test_localization_counts_what_it_drops(monkeypatch):
    # one in-window pair is flagged over tolerance and another has a
    # vector no fit can use; both are counted, only the second loses its row.
    # Both are picked in [1, 2], inside the default window
    plan = ExperimentPlan(lams=(0.7,), etas=(1.5708,), Ns=(200,), seed=0)
    clean = localization(plan, lyap_N=5_000)
    assert clean.fits_skipped == 0
    assert clean.eigen_over_tol == 0
    assert 0.0 < clean.worst_eigen_residual <= 1e-8

    real = experiments.eigenpair_blocks
    picked = {}

    def tampered(op):
        # the first block with two pairs in [1, 2] gets both defects
        for blk in real(op):
            inside = np.flatnonzero((blk.etas >= 1.0) & (blk.etas <= 2.0))
            if len(inside) >= 2 and not picked:
                flagged, unfit = int(inside[0]), int(inside[1])
                blk.ok[flagged] = False
                blk.residuals[flagged] = 0.5
                blk.vectors[:, unfit] = 0.0
                blk.vectors[0, unfit] = 1.0
                picked.update(flagged=float(blk.etas[flagged]), unfit=float(blk.etas[unfit]))
            yield blk

    monkeypatch.setattr(experiments, "eigenpair_blocks", tampered)
    res = localization(plan, lyap_N=5_000)
    assert res.fits_skipped == 1
    assert res.eigen_over_tol == 1
    assert res.worst_eigen_residual == 0.5
    etas = [r.eta for r in res.rows]
    assert len(etas) == len(clean.rows) - 1
    assert picked["flagged"] in etas and picked["unfit"] not in etas
    summary = res.summary()
    assert json.loads(json.dumps(summary)) == summary
    assert (summary["fits_skipped"], summary["eigen_over_tol"]) == (1, 1)
    assert summary["worst_eigen_residual"] == 0.5


def test_localization_sums_the_repaired_pairs(monkeypatch):
    # the Rayleigh-Ritz count of every block of every cell reaches the summary
    plan = ExperimentPlan(lams=(0.7,), etas=(1.5708,), Ns=(200, 240), seed=0)
    real = experiments.eigenpair_blocks
    counts = []

    def marked(op):
        for blk in real(op):
            counts.append(blk.count)
            yield dataclasses.replace(blk, repaired=3)

    monkeypatch.setattr(experiments, "eigenpair_blocks", marked)
    res = localization(plan, lyap_N=2_000)
    assert sum(counts) == 201 + 241
    assert res.eigen_repaired == 3 * len(counts)
    summary = res.summary()
    assert json.loads(json.dumps(summary)) == summary
    assert summary["eigen_repaired"] == 3 * len(counts)


def test_streamed_localization_matches_the_full_decomposition():
    # rows from the whole decomposition in angle order, fitted 64 columns
    # at a time: eta and L agree bit for bit, the fits to rounding
    plan = ExperimentPlan(lams=(0.5,), etas=(0.5 * math.pi,), Ns=(400,), seed=3)
    res = localization(plan, lyap_N=20_000)
    cfg = plan.config(0.5, 0, 0)
    dec = sorted_pairs(build(cfg, 0, 400, None, 1.0))
    inside = np.flatnonzero(
        [any(lo <= eta <= hi for lo, hi in res.window) for eta in dec.etas]
    )
    fits = [_decay_fits(dec.vectors[:, inside[s : s + 64]]) for s in range(0, inside.size, 64)]
    rates, r2s, ok = (np.concatenate(f) for f in zip(*fits))
    assert ok.all() and res.fits_skipped == 0
    etas = dec.etas[inside]
    L = lyapunov_poly_many(cfg, [SpectralPoint(eta=e) for e in etas], 20_000)
    assert [r.eta for r in res.rows] == etas.tolist()
    assert [r.lyapunov for r in res.rows] == L.tolist()
    for row, rate, r2, lyap in zip(res.rows, rates, r2s, L):
        assert row.decay_rate == pytest.approx(rate, rel=1e-12)
        assert row.r2 == pytest.approx(r2, rel=1e-12)
        assert row.localization_length == pytest.approx(1.0 / rate, rel=1e-12)
        assert row.ratio == pytest.approx(rate / lyap, rel=1e-12)


def test_localization_memory_is_a_few_blocks():
    # 2001 sites: the m x m vectors alone took 61 MiB; the stream holds
    # one block of them and its fit at a time
    plan = ExperimentPlan(lams=(0.5,), etas=(0.5 * math.pi,), Ns=(2000,), seed=3)
    # a small run first keeps the imports and caches out of the trace
    localization(ExperimentPlan(lams=(0.7,), etas=(1.0,), Ns=(200,), seed=3), lyap_N=100)
    tracemalloc.start()
    try:
        res = localization(plan, lyap_N=2_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.rows) > 1000
    assert peak < 8 * 2**20


def test_localization_empty_window():
    plan = ExperimentPlan(lams=(0.7,), etas=(1.5708,), Ns=(200,), seed=0)
    res = localization(plan, c=0.6)
    assert res.empty
    assert res.rows == ()
    assert math.isnan(res.median_ratio())


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


def test_batched_decay_fits_match_the_oracle():
    # criterion 08's window: every in-window vector, fitted in one block
    # and one by one
    plan = ExperimentPlan(lams=(0.5,), etas=(0.5 * math.pi,), Ns=(400,), seed=3)
    dec = sorted_pairs(build(plan.config(0.5, 0, 0), 0, 400, None, 1.0))
    win = spectral_window(plan.alpha, plan.autom, 0.3, 0.05)
    inside = [j for j, eta in enumerate(dec.etas) if any(lo <= eta <= hi for lo, hi in win)]
    assert len(inside) > EIGEN_BLOCK
    rates, r2s, ok = _decay_fits(dec.vectors[:, inside])
    assert ok.all()
    fits = [eigenvector_decay_fit(dec.vectors[:, j]) for j in inside]
    assert np.max(np.abs(rates - [f.slope for f in fits])) <= 1e-12
    assert np.max(np.abs(r2s - [f.r2 for f in fits])) <= 1e-12


def test_decay_fit_of_a_column_does_not_depend_on_its_block():
    # alone, in a pair, or among 64: the same bits for every column
    plan = ExperimentPlan(lams=(0.5,), etas=(0.5 * math.pi,), Ns=(400,), seed=3)
    vectors = sorted_pairs(build(plan.config(0.5, 0, 0), 0, 400, None, 1.0)).vectors
    cols = np.arange(100, 164)
    block = _decay_fits(vectors[:, cols])
    for width in (1, 2, 5):
        parts = [_decay_fits(vectors[:, cols[s : s + width]]) for s in range(0, cols.size, width)]
        for got, want in zip(zip(*parts), block):
            assert np.array_equal(np.concatenate(got), want)


def test_batched_decay_fits_flag_unusable_columns():
    # fewer than 3 nonzero inner sites, or a non-finite profile, is no fit;
    # the other columns of the block are unaffected
    n = np.arange(61)
    good = np.exp(-0.3 * np.abs(n - 30))
    sparse = np.zeros(61)
    sparse[20] = 1.0
    sparse[21] = 0.5
    blown = good.copy()
    blown[30] = np.inf
    rates, r2s, ok = _decay_fits(np.column_stack([good, np.zeros(61), sparse, blown, good]))
    assert ok.tolist() == [True, False, False, False, True]
    assert rates[0] == pytest.approx(0.3, rel=1e-9)
    assert r2s[0] == 1.0
    assert not _decay_fits(np.ones((12, 3)))[2].any()
