"""Closed-form checks of the numpy reference (run: python3 -m pytest labbench -q)."""

import math

import numpy as np
import pytest

import reference as ref


def _random_alphas(rng, n, lam=0.6):
    r = lam * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(1j * rng.uniform(0.0, ref.TWO_PI, n))


def test_tree_product_equals_sequential_product():
    rng = np.random.default_rng(1)
    for n in (1, 2, 7, 37, 64, 101):
        alphas = _random_alphas(rng, n)
        eta = float(rng.uniform(0.1, ref.TWO_PI - 0.1))
        for chunk in (4, 1 << 13):
            m, scale = ref.product_tree(alphas, eta, chunk=chunk)
            want = ref.sequential_product(alphas, eta)
            got = m * math.exp(float(scale))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("a, eta", [(0.3 + 0.2j, 0.4), (0.5j, 2.9), (0.2, 1.5), (0.05, 2.0)])
def test_constant_coefficient_rate_is_log_of_step_eigenvalue(a, eta):
    # A constant sequence gives the power of one step matrix; its growth
    # rate tends to log |mu_max| with an O(1/N) eigenbasis correction
    # (zero when the step is elliptic and both |mu| = 1).
    N = 1 << 16
    rate = float(ref.growth_rate(np.full(N, a, dtype=complex), eta))
    assert abs(rate - ref.step_eigen_rate(a, eta)) <= 20.0 / N


def test_phase_count_matches_dense_window_eigenvalues():
    rng = np.random.default_rng(2)
    for _ in range(40):
        b = int(rng.integers(3, 60))
        alphas = _random_alphas(rng, b, lam=float(rng.uniform(0.1, 0.9)))
        gamma = complex(np.exp(1j * rng.uniform(0.0, ref.TWO_PI)))
        ev = np.linalg.eigvals(ref.cmv_window(alphas, gamma))
        assert np.allclose(np.abs(ev), 1.0, atol=1e-10)
        angles = np.angle(ev) % ref.TWO_PI
        lo, hi = np.sort(rng.uniform(0.0, ref.TWO_PI, size=2))
        dense = int(np.sum((angles > lo) & (angles <= hi)))
        assert int(ref.eigen_count(alphas, gamma, lo, hi)) == dense
        # the whole circle holds all b + 1 eigenvalues
        assert int(ref.eigen_count(alphas, gamma, 0.0, ref.TWO_PI)) == b + 1


def test_small_coupling_law():
    # L(lam, eta) = lam^2 J(eta) / 2 + O(lam^3) on the cat-map model.
    lam, N, starts = 0.1, 1 << 17, 8
    rng = np.random.default_rng(3)
    x0, y0 = rng.uniform(0.0, ref.TWO_PI, size=(2, starts))
    xs, ys = ref.cat_orbit(x0, y0, N)
    for preset, eta in (("alpha0", 1.2), ("alpha1", 0.9)):
        alphas = lam * ref.sample_values(ref.PRESETS[preset], xs, ys)
        rate = float(np.mean(ref.growth_rate(alphas, eta)))
        law = 0.5 * lam**2 * float(ref.spectral_function(preset, eta))
        assert abs(rate / law - 1.0) <= 0.1, (preset, rate, law)


def test_orbit_sample_mean_square_is_parseval():
    xs, ys = ref.cat_orbit([0.3, 1.1], [2.0, 0.7], 20_000)
    for coeffs in ref.PRESETS.values():
        got = float(np.mean(np.abs(ref.sample_values(coeffs, xs, ys)) ** 2))
        assert abs(got - ref.mean_square(coeffs)) <= 0.02


def test_binomial_cdf_matches_direct_sum():
    n, p = 40, 0.3
    direct = sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(13))
    assert abs(ref.binom_cdf(12, n, p) - direct) <= 1e-12
