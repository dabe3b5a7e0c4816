"""End-to-end acceptance battery, one numbered check per test.

Each test exercises one documented guarantee at its stated tolerance and
prints a single summary line (visible under -s, or in the captured
output of a failing check). The battery is heavier than the unit files
and pins the exact seeds, grids and budgets of the advertised runs, so
its numbers are reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from szegolab.cli import main
from szegolab.cmv_operator import build
from szegolab.experiments import (
    ExperimentPlan,
    ldt_deviation,
    localization,
    lyapunov_scaling,
)
from szegolab.greens import (
    ResolventBlowupError,
    green_direct,
    green_modulus_formula,
)
from szegolab.prufer import expansion_diagnostics
from szegolab.sampling import CorrelationSpectrum, autocorrelation_exact, preset
from szegolab.szego_cocycle import (
    SpectralPoint,
    polynomials,
    transfer_identity_residual,
)
from szegolab.torus_dynamics import CAT_MAP, TWO_PI, TorusPoint
from szegolab.verblunsky import VerblunskyConfig

from helpers import sorted_pairs
from oracles import autocorrelation_birkhoff, eigenvector_decay_fit, zeta_trace

ALPHA0 = preset("alpha0")
ALPHA1 = preset("alpha1")


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


def _random_case(rng, alpha=ALPHA0):
    hi = 0.9 / alpha.sup_bound
    lam = float(rng.uniform(0.1 * hi, hi))
    cfg = VerblunskyConfig(
        lam=lam, base=TorusPoint.random(rng), autom=CAT_MAP, alpha=alpha
    )
    s = SpectralPoint(eta=float(rng.uniform(0.2, TWO_PI - 0.2)))
    return cfg, s


def _unimodular(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, TWO_PI)))


def test_criterion_01_cocycle_polynomial_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        cfg, s = _random_case(rng)
        for N in (1, 10, 100, 1000):
            worst = max(worst, transfer_identity_residual(cfg, s, N))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    line = _report(1, ok, f"worst residual {worst:.3e} <= 1e-8, {elapsed:.1f}s < 10s")
    assert ok, line


def test_criterion_02_prufer_radius_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        cfg, s = _random_case(rng)
        _, log_r = zeta_trace(cfg, s, 10_000)
        quad = polynomials(cfg, s, 10_000)
        worst = max(worst, abs(math.exp(log_r - quad.log_abs_phi()) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    line = _report(2, ok, f"worst rel mismatch {worst:.3e} <= 1e-8, {elapsed:.1f}s < 5s")
    assert ok, line


def test_criterion_03_window_unitarity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    biggest = 0
    for k in range(100):
        cfg, _ = _random_case(rng)
        a = 0 if k % 2 == 0 else int(rng.integers(1, 30))
        width = int(rng.integers(10, 499))
        beta = None if a == 0 else _unimodular(rng)
        op = build(cfg, a, a + width, beta, _unimodular(rng))
        biggest = max(biggest, op.m)
        worst = max(worst, op.unitarity_defect())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and biggest <= 500 and elapsed < 10.0
    line = _report(
        3, ok, f"worst defect {worst:.3e} <= 1e-12, max m {biggest}, {elapsed:.1f}s < 10s"
    )
    assert ok, line


def test_criterion_04_green_modulus_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    hits = skips = 0
    while hits + skips < 200:
        cfg, s = _random_case(rng)
        b = int(rng.integers(12, 200))
        n1, n2 = (int(n) for n in rng.integers(0, b + 1, size=2))
        op = build(cfg, 0, b, None, _unimodular(rng))
        try:
            direct = abs(green_direct(op, s.z, n1, n2))
        except ResolventBlowupError:
            skips += 1
            continue
        formula = green_modulus_formula(op, s.z, n1, n2)
        worst = max(worst, abs(formula - direct) / max(direct, 1e-300))
        hits += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and hits >= 150 and elapsed < 30.0
    line = _report(
        4,
        ok,
        f"worst rel err {worst:.3e} <= 1e-6 over {hits} queries"
        f" ({skips} blowups skipped), {elapsed:.1f}s < 30s",
    )
    assert ok, line


def test_criterion_05_autocorrelation_and_spectral_function():
    t0 = time.perf_counter()
    worst_sigma = 0.0
    for pi_, alpha in enumerate((ALPHA0, ALPHA1)):
        for n in range(-10, 11):
            exact = autocorrelation_exact(alpha, CAT_MAP, n)
            est = autocorrelation_birkhoff(alpha, CAT_MAP, n, 1_000_000, 100 + 50 * pi_ + n)
            worst_sigma = max(worst_sigma, abs(est.value - exact) / est.stderr)
    worst_imag = 0.0
    worst_preset = 0.0
    closed_forms = ((ALPHA0, lambda e: 0.5), (ALPHA1, lambda e: math.cos(0.5 * e) ** 2))
    for alpha, form in closed_forms:
        spec = CorrelationSpectrum.build(alpha, CAT_MAP)
        lags = np.arange(-spec.cutoff, spec.cutoff + 1)
        for eta in np.linspace(0.0, TWO_PI, 64, endpoint=False):
            total = complex(np.sum(np.exp(1j * lags * eta) * spec.correlations))
            worst_imag = max(worst_imag, abs(total.imag))
            value = spec.value(eta)
            worst_preset = max(worst_preset, abs(value - form(eta)))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_sigma <= 3.0
        and worst_imag <= 1e-10
        and worst_preset <= 1e-12
        and elapsed < 60.0
    )
    line = _report(
        5,
        ok,
        f"worst MC deviation {worst_sigma:.2f} sigma <= 3, imag {worst_imag:.1e} <= 1e-10,"
        f" preset error {worst_preset:.1e} <= 1e-12, {elapsed:.1f}s < 60s",
    )
    assert ok, line


def test_criterion_06_lyapunov_small_coupling_law():
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        lams=(0.05, 0.1, 0.2), etas=(0.5 * math.pi,), Ns=(1_000_000,), seed=0
    )
    result = lyapunov_scaling(plan, jobs=1)
    elapsed = time.perf_counter() - t0
    margins = [(r.lam, r.residual, 10.0 * r.lam**3) for r in result.rows]
    residuals_ok = all(res <= bound for _, res, bound in margins)
    slope = result.residual_fit.slope
    ok = residuals_ok and slope >= 2.5
    detail = ", ".join(f"lam={lam}: {res:.2e} <= {bound:.2e}" for lam, res, bound in margins)
    line = _report(6, ok, f"{detail}; residual slope {slope:.2f} >= 2.5, {elapsed:.0f}s")
    assert ok, line


def test_criterion_07_large_deviation_decay():
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        lams=(0.3,), etas=(0.5 * math.pi,), Ns=(50, 100, 200, 400), samples=10_000, seed=0
    )
    # The orbit average of a zero-mean sampling function has variance close
    # to c0/N, so P(|mean| > t) is close to exp(-N t^2 / c0). The event must
    # be resolvable at every N: samples * exp(-max(N) t^2 / c0) >= 50 expected
    # exceedances. The driver's default t = 0.2 gives about 1e-14 at N = 400,
    # an event that no feasible sample budget can observe.
    birkhoff_t = 0.08
    c0 = plan.alpha.mean_square()
    expected = plan.samples * math.exp(-max(plan.Ns) * birkhoff_t**2 / c0)
    assert expected >= 50.0, (
        f"birkhoff threshold {birkhoff_t} is unresolvable at N = {max(plan.Ns)}"
        f" with {plan.samples} samples: {expected:.2g} expected exceedances < 50"
    )
    thresholds = {"birkhoff": birkhoff_t, "lyapunov": None}
    clauses = []
    details = []
    for family in ("birkhoff", "lyapunov"):
        result = ldt_deviation(plan, family=family, threshold=thresholds[family])
        fractions = [r.fraction for r in result.rows]
        decreasing = all(b < a for a, b in zip(fractions, fractions[1:]))
        fit = dict(result.fits)[family]
        fit_ok = fit is not None and fit.slope < 0.0 and abs(fit.slope) * 400 >= 2.0
        clauses.append(decreasing and fit_ok)
        slope = (
            "no fit (fewer than 2 positive cells)"
            if fit is None
            else f"|slope|*400 = {abs(fit.slope) * 400:.1f} >= 2"
        )
        details.append(
            f"{family} fractions {fractions} strictly decreasing: {decreasing},"
            f" {slope}: {fit_ok}"
        )
    elapsed = time.perf_counter() - t0
    ok = all(clauses)
    line = _report(7, ok, "; ".join(details) + f", {elapsed:.0f}s")
    assert ok, line


def test_criterion_08_localization_in_window():
    t0 = time.perf_counter()
    plan = ExperimentPlan(lams=(0.5,), etas=(0.5 * math.pi,), Ns=(400,), seed=3)
    result = localization(plan)
    rows = result.rows
    assert rows, "no in-window eigenvalues at these settings"
    good = sum(1 for r in rows if r.r2 >= 0.8 and r.decay_rate > 0.0)
    frac = good / len(rows)
    med = result.median_ratio()

    # negative control: effectively free coefficients must show no decay
    cfg_free = VerblunskyConfig(
        lam=1e-8,
        base=TorusPoint.random(np.random.default_rng(np.random.SeedSequence(3))),
        autom=CAT_MAP,
        alpha=ALPHA0,
    )
    dec = sorted_pairs(build(cfg_free, 0, 400, None, 1.0))
    rates = []
    for j in range(dec.count):
        try:
            rates.append(eigenvector_decay_fit(dec.vectors[:, j]).slope)
        except ValueError:
            continue
    elapsed = time.perf_counter() - t0
    ok = (
        frac >= 0.9
        and 0.5 <= med <= 2.0
        and len(rates) >= 300
        and max(rates) <= 0.01
        and elapsed < 300.0
    )
    line = _report(
        8,
        ok,
        f"good fraction {frac:.3f} >= 0.9 ({good}/{len(rows)}), median ratio {med:.2f}"
        f" in [0.5, 2], free-case max rate {max(rates):.1e} <= 0.01"
        f" over {len(rates)} fits, {elapsed:.0f}s < 300s",
    )
    assert ok, line


def test_criterion_09_phase_expansion_residuals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = []
    for lam in (0.1, 0.05):
        bound_123 = 10.0 * lam**3
        bound_456 = 10.0 * lam**3 * math.log(1.0 / lam) ** 2
        w123 = w456 = 0.0
        for _ in range(4):
            cfg = VerblunskyConfig(
                lam=lam, base=TorusPoint.random(rng), autom=CAT_MAP, alpha=ALPHA0
            )
            s = SpectralPoint(eta=float(rng.uniform(0.2, TWO_PI - 0.2)))
            diag = expansion_diagnostics([cfg], s, 100_000)
            w123 = max(w123, diag.residual_123[0])
            w456 = max(w456, diag.residual_456[0])
        worst.append((lam, w123, bound_123, w456, bound_456))
    elapsed = time.perf_counter() - t0
    ok = all(w1 <= b1 and w4 <= b4 for _, w1, b1, w4, b4 in worst) and elapsed < 60.0
    detail = "; ".join(
        f"lam={lam}: r123 {w1:.1e} <= {b1:.1e}, r456 {w4:.1e} <= {b4:.1e}"
        for lam, w1, b1, w4, b4 in worst
    )
    line = _report(9, ok, f"{detail}, {elapsed:.1f}s < 60s")
    assert ok, line


def test_criterion_10_deterministic_parallel_output(tmp_path):
    t0 = time.perf_counter()
    base = [
        "ldt", "--family", "birkhoff", "--lambda", "0.1",
        "--N-grid", "50,100", "--samples", "1100", "--seed", "5",
    ]
    payloads = []
    for jobs in (1, 2, 3):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main([*base, "--jobs", str(jobs), "--out", str(out)]) == 0
        payloads.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = payloads[0] == payloads[1] == payloads[2]
    line = _report(
        10, ok, f"byte-identical CSV across jobs 1/2/3 ({len(payloads[0])} bytes), {elapsed:.0f}s"
    )
    assert ok, line
