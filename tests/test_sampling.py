"""Trig-polynomial sampling functions, orbit autocorrelations, and the
correlation spectral density."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_trig_poly
from oracles import autocorrelation_birkhoff, evaluate
from szegolab.sampling import (
    CorrelationSpectrum,
    TrigPolynomial,
    autocorrelation_exact,
    correlation_cutoff,
    evaluate_many,
    preset,
    spectral_function,
    spectral_window,
)
from szegolab.torus_dynamics import CAT_MAP, TWO_PI, TorusPoint, validate

ALPHA0 = preset("alpha0")
ALPHA1 = preset("alpha1")


# --- construction ---------------------------------------------------------


def test_mean_coefficient_rejected():
    with pytest.raises(ValueError):
        TrigPolynomial.from_coeffs({(0, 0): 0.3, (1, 0): 0.5})


def test_empty_rejected():
    with pytest.raises(ValueError):
        TrigPolynomial.from_coeffs({})


def test_all_zero_rejected():
    with pytest.raises(ValueError):
        TrigPolynomial.from_coeffs({(1, 0): 0.0})


def test_sup_bound_over_one_rejected():
    with pytest.raises(ValueError):
        TrigPolynomial.from_coeffs({(1, 0): 0.7, (0, 1): 0.5})


def test_bounds_and_mean_square():
    assert ALPHA0.sup_bound == pytest.approx(1.0)
    assert ALPHA0.grad_bound == pytest.approx(1.0)
    assert ALPHA0.mean_square() == pytest.approx(0.5)
    assert ALPHA1.grad_bound == pytest.approx(0.5 + 0.5 * math.hypot(2, 1))


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("alpha9")


# --- pointwise evaluation -------------------------------------------------


def test_evaluate_examples():
    xs = np.array([0.0, math.pi, math.pi / 2])
    ys = np.array([0.0, 0.0, math.pi])
    values = evaluate_many(ALPHA0, xs, ys)
    assert values[0] == pytest.approx(1.0)
    assert values[1] == pytest.approx(0.0, abs=1e-15)
    assert values[2] == pytest.approx((1j - 1) / 2)


def test_evaluate_many_matches_pointwise():
    rng = np.random.default_rng(5)
    xs = rng.uniform(0, TWO_PI, size=20)
    ys = rng.uniform(0, TWO_PI, size=20)
    alpha = random_trig_poly(rng)
    vec = evaluate_many(alpha, xs, ys)
    for i in range(20):
        assert vec[i] == pytest.approx(
            evaluate(alpha, xs[i], ys[i]), abs=1e-12
        )


@given(st.integers(0, 2**32 - 1))
def test_evaluate_bounded_by_sup(seed):
    rng = np.random.default_rng(seed)
    alpha = random_trig_poly(rng)
    p = TorusPoint.random(rng)
    assert abs(evaluate_many(alpha, p.x, p.y)) <= alpha.sup_bound + 1e-12


# --- exact autocorrelation ------------------------------------------------


def test_autocorrelation_examples():
    assert autocorrelation_exact(ALPHA0, CAT_MAP, 0) == pytest.approx(0.5)
    assert autocorrelation_exact(ALPHA0, CAT_MAP, 1) == 0
    assert autocorrelation_exact(ALPHA0, CAT_MAP, -1) == 0
    assert autocorrelation_exact(ALPHA1, CAT_MAP, 1) == pytest.approx(0.25)


@given(st.integers(0, 2**32 - 1), st.integers(-10, 10))
def test_autocorrelation_hermitian(seed, n):
    rng = np.random.default_rng(seed)
    alpha = random_trig_poly(rng)
    plus = autocorrelation_exact(alpha, CAT_MAP, n)
    minus = autocorrelation_exact(alpha, CAT_MAP, -n)
    assert minus == pytest.approx(np.conj(plus), abs=1e-14)


def test_autocorrelation_vanishes_beyond_cutoff():
    for alpha in (ALPHA0, ALPHA1):
        nc = correlation_cutoff(alpha, CAT_MAP)
        for n in range(nc + 1, nc + 21):
            assert autocorrelation_exact(alpha, CAT_MAP, n) == 0
            assert autocorrelation_exact(alpha, CAT_MAP, -n) == 0


def test_cutoff_is_sharp_for_alpha1():
    nc = correlation_cutoff(ALPHA1, CAT_MAP)
    assert nc >= 1
    assert autocorrelation_exact(ALPHA1, CAT_MAP, nc) != 0 or autocorrelation_exact(
        ALPHA1, CAT_MAP, -nc
    ) != 0


# --- Monte Carlo cross-check ----------------------------------------------


def test_birkhoff_matches_exact_within_three_sigma():
    rng = np.random.default_rng(123)
    for rep in range(4):
        alpha = random_trig_poly(rng)
        for n in range(-10, 11):
            exact = autocorrelation_exact(alpha, CAT_MAP, n)
            est = autocorrelation_birkhoff(
                alpha, CAT_MAP, n, samples=20_000, seed=1000 + rep
            )
            assert abs(est.value - exact) <= 3.0 * est.stderr + 1e-12


def test_birkhoff_lag_zero_is_real():
    est = autocorrelation_birkhoff(ALPHA1, CAT_MAP, 0, samples=50_000, seed=2)
    assert abs(est.value.imag) <= 3.0 * est.stderr


def test_birkhoff_needs_two_samples():
    with pytest.raises(ValueError):
        autocorrelation_birkhoff(ALPHA0, CAT_MAP, 0, samples=1, seed=0)


# --- spectral density -----------------------------------------------------


def test_spectrum_lag_matches_exact():
    # correlations[n + cutoff] is the lag n; beyond the cutoff it vanishes
    spec = CorrelationSpectrum.build(ALPHA1, CAT_MAP)
    assert spec.correlations.shape == (2 * spec.cutoff + 1,)
    for n in range(-spec.cutoff - 3, spec.cutoff + 4):
        lag = spec.correlations[n + spec.cutoff] if abs(n) <= spec.cutoff else 0.0
        assert lag == pytest.approx(autocorrelation_exact(ALPHA1, CAT_MAP, n), abs=1e-15)


def test_flat_density_for_alpha0():
    for eta in np.linspace(0.0, TWO_PI, 37):
        assert spectral_function(ALPHA0, CAT_MAP, eta) == 0.5


def test_cosine_density_for_alpha1():
    spec = CorrelationSpectrum.build(ALPHA1, CAT_MAP)
    for eta in np.linspace(0.0, TWO_PI, 37):
        assert spec.value(eta) == pytest.approx(math.cos(eta / 2.0) ** 2, abs=1e-12)


def test_density_is_real_for_random_polynomials():
    rng = np.random.default_rng(77)
    for _ in range(10):
        alpha = random_trig_poly(rng)
        val = spectral_function(alpha, CAT_MAP, float(rng.uniform(0, TWO_PI)))
        assert isinstance(val, float)


def test_spectral_function_array_shape():
    etas = np.linspace(0.1, 1.0, 6).reshape(2, 3)
    vals = spectral_function(ALPHA1, CAT_MAP, etas)
    assert vals.shape == (2, 3)
    assert vals[1, 2] == pytest.approx(math.cos(etas[1, 2] / 2.0) ** 2, abs=1e-12)


@pytest.mark.parametrize(
    "alpha",
    [
        ALPHA0,
        ALPHA1,
        TrigPolynomial.from_coeffs({(1, 0): 0.3, (0, 1): 0.2j, (1, 1): -0.15, (2, -1): 0.1}),
    ],
    ids=["alpha0", "alpha1", "four_terms"],
)
def test_spectral_function_array_equals_per_angle_sums(alpha):
    # one vectorized call reproduces the per-angle sum bit for bit
    spec = CorrelationSpectrum.build(alpha, CAT_MAP)
    n = np.arange(-spec.cutoff, spec.cutoff + 1)
    etas = np.linspace(0.0, TWO_PI, 2542)
    want = np.array(
        [complex(np.sum(np.exp(1j * n * e) * spec.correlations)).real for e in etas.tolist()]
    )
    got = spectral_function(alpha, CAT_MAP, etas)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert [spec.value(e) for e in etas[::97].tolist()] == got[::97].tolist()


def test_density_on_other_automorphism():
    # the flat result for alpha0 is automorphism-independent: any hyperbolic
    # matrix ejects the two support frequencies immediately
    A = validate([[3, 2], [1, 1]])
    assert spectral_function(ALPHA0, A, 1.234) == 0.5


# --- level-set windows ----------------------------------------------------


def test_full_window_for_alpha0():
    win = spectral_window(ALPHA0, CAT_MAP, 0.1, 0.25)
    assert len(win) == 2
    (a1, b1), (a2, b2) = win
    assert a1 == pytest.approx(0.1)
    assert b1 == pytest.approx(math.pi - 0.1)
    assert a2 == pytest.approx(math.pi + 0.1)
    assert b2 == pytest.approx(TWO_PI - 0.1)


def test_empty_window_when_level_too_high():
    assert spectral_window(ALPHA0, CAT_MAP, 0.1, 0.6) == []


def test_alpha1_window_endpoints():
    # cos^2(eta/2) crosses 0.4 at eta* = 2 arccos(sqrt(0.4)); the first
    # branch is [0.1, eta*], the second its mirror [2 pi - eta*, 2 pi - 0.1]
    eta_star = 2.0 * math.acos(math.sqrt(0.4))
    win = spectral_window(ALPHA1, CAT_MAP, 0.1, 0.4)
    assert len(win) == 2
    assert win[0][0] == pytest.approx(0.1)
    assert win[0][1] == pytest.approx(eta_star, abs=1e-9)
    assert win[1][0] == pytest.approx(TWO_PI - eta_star, abs=1e-9)
    assert win[1][1] == pytest.approx(TWO_PI - 0.1)


def test_window_rejects_bad_delta_and_level():
    with pytest.raises(ValueError):
        spectral_window(ALPHA0, CAT_MAP, 0.0, 0.1)
    with pytest.raises(ValueError):
        spectral_window(ALPHA0, CAT_MAP, 1.0, 0.1)
    with pytest.raises(ValueError):
        spectral_window(ALPHA0, CAT_MAP, 0.1, 0.0)
