"""Tests for the one-step cocycle, scaled transfer products, and the
orthogonal polynomial recursion."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from szegolab._kernels import POLY_BYTES, POLY_RADIUS, _steps
from szegolab.experiments import ExperimentPlan, localization
from szegolab.sampling import preset
from szegolab.szego_cocycle import (
    SpectralPoint,
    _growth,
    _log_rho,
    lyapunov_poly_many,
    polynomials,
    transfer,
    transfer_identity_residual,
)
from szegolab.verblunsky import VerblunskyConfig, sequence
from szegolab.torus_dynamics import CAT_MAP, TorusPoint

from helpers import free_config, random_config, random_eta
from oracles import growth_rate_extended, log_norm, lyapunov_norm, step_matrix


def _recover(prod):
    """The unscaled product matrix."""
    return prod.matrix * math.exp(prod.log_scale)

# ---------------------------------------------------------------------------
# spectral point


def test_spectral_point_reduces_eta():
    s = SpectralPoint(7.0)
    assert s.eta == pytest.approx(7.0 % (2.0 * math.pi), abs=1e-15)
    assert abs(abs(s.z) - 1.0) <= 1e-15


def test_sqrt_z_squares_to_z():
    for eta in (0.1, 1.5708, 3.0, 5.9):
        s = SpectralPoint(eta)
        assert s.phase_power(1) ** 2 == pytest.approx(s.z, abs=1e-15)


def test_phase_power_matches_small_powers():
    s = SpectralPoint(2.1)
    for n in (-5, -3, -1, 0, 1, 2, 7):
        assert s.phase_power(n) == pytest.approx(cmath.exp(0.5j * s.eta) ** n, abs=1e-12)


# ---------------------------------------------------------------------------
# one-step matrix


def test_step_matrix_identity_at_free_point():
    m = step_matrix(0.0, SpectralPoint(0.0))
    assert np.allclose(m, np.eye(2), atol=0.0)


def test_step_matrix_free_is_diagonal_phase():
    eta = 0.8
    m = step_matrix(0.0, SpectralPoint(eta))
    expect = np.diag([cmath.exp(0.5j * eta), cmath.exp(-0.5j * eta)])
    assert np.allclose(m, expect, atol=1e-15)


def test_step_matrix_half_coefficient():
    m = step_matrix(0.5, SpectralPoint(0.0))
    expect = (2.0 / math.sqrt(3.0)) * np.array([[1.0, -0.5], [-0.5, 1.0]])
    assert np.allclose(m, expect, atol=1e-15)


@given(
    r=st.floats(min_value=0.0, max_value=0.99),
    phase=st.floats(min_value=0.0, max_value=6.28),
    eta=st.floats(min_value=0.0, max_value=6.28),
)
def test_step_matrix_has_unit_determinant(r, phase, eta):
    a = r * cmath.exp(1j * phase)
    m = step_matrix(a, SpectralPoint(eta))
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert det == pytest.approx(1.0, abs=1e-13)


def test_step_matrix_rejects_disk_boundary():
    s = SpectralPoint(1.0)
    with pytest.raises(ValueError):
        step_matrix(1.0, s)
    with pytest.raises(ValueError):
        step_matrix(1.2j, s)


# ---------------------------------------------------------------------------
# transfer products


def test_free_transfer_is_pure_phase():
    cfg = free_config()
    eta = 1.1
    s = SpectralPoint(eta)
    prod = transfer(cfg, s, 40)
    expect = np.diag([cmath.exp(20j * eta), cmath.exp(-20j * eta)])
    assert np.allclose(_recover(prod), expect, atol=1e-12)
    assert abs(log_norm(prod.matrix, prod.log_scale)) <= 1e-7


def test_single_step_transfer_matches_step_matrix():
    rng = np.random.default_rng(5)
    cfg = random_config(rng)
    s = SpectralPoint(random_eta(rng))
    prod = transfer(cfg, s, 1)
    expect = step_matrix(sequence(cfg, 1)[0], s)
    assert np.allclose(_recover(prod), expect, rtol=1e-14, atol=1e-14)


def test_transfer_matches_brute_force_product():
    rng = np.random.default_rng(17)
    for _ in range(3):
        cfg = random_config(rng)
        s = SpectralPoint(random_eta(rng))
        N = 20
        alphas = sequence(cfg, N)
        brute = np.eye(2, dtype=np.complex128)
        for a in alphas:
            brute = step_matrix(a, s) @ brute
        got = _recover(transfer(cfg, s, N))
        assert np.allclose(got, brute, rtol=1e-10)


def test_transfer_rejects_negative_steps():
    rng = np.random.default_rng(2)
    cfg = random_config(rng)
    with pytest.raises(ValueError):
        transfer(cfg, SpectralPoint(1.0), -1)


def test_scaled_product_determinant_stays_unimodular():
    rng = np.random.default_rng(23)
    cfg = random_config(rng)
    prod = transfer(cfg, SpectralPoint(random_eta(rng)), 200)
    _, log_abs_det = np.linalg.slogdet(prod.matrix)
    assert abs(2.0 * prod.log_scale + log_abs_det) <= 1e-10


def test_product_norm_never_below_one():
    # determinant-one products have operator norm at least 1
    rng = np.random.default_rng(31)
    for _ in range(5):
        cfg = random_config(rng)
        prod = transfer(cfg, SpectralPoint(random_eta(rng)), 300)
        assert log_norm(prod.matrix, prod.log_scale) >= -1e-10


# ---------------------------------------------------------------------------
# polynomial recursion


def test_free_polynomials_are_powers():
    cfg = free_config()
    eta = 0.9
    s = SpectralPoint(eta)
    q = polynomials(cfg, s, 30)
    scale = math.exp(q.log_r)
    assert scale * q.phi == pytest.approx(cmath.exp(30j * eta), abs=1e-12)
    assert scale * q.psi == pytest.approx(cmath.exp(30j * eta), abs=1e-12)
    assert scale * q.phi_star == pytest.approx(1.0, abs=1e-12)
    assert scale * q.psi_star == pytest.approx(1.0, abs=1e-12)


def test_single_step_polynomials():
    rng = np.random.default_rng(41)
    cfg = random_config(rng)
    eta = random_eta(rng)
    s = SpectralPoint(eta)
    a = complex(sequence(cfg, 1)[0])
    r = math.sqrt(1.0 - abs(a) ** 2)
    z = s.z
    q = polynomials(cfg, s, 1)
    scale = math.exp(q.log_r)
    assert scale * q.phi == pytest.approx((z - np.conj(a)) / r, abs=1e-14)
    assert scale * q.phi_star == pytest.approx((1.0 - a * z) / r, abs=1e-14)
    assert scale * q.psi == pytest.approx((z + np.conj(a)) / r, abs=1e-14)
    assert scale * q.psi_star == pytest.approx((1.0 + a * z) / r, abs=1e-14)


def _plain_recursion(alphas, z):
    """Unrenormalized first/second kind recursion, for short oracles."""
    phi, phi_s = 1.0 + 0j, 1.0 + 0j
    psi, psi_s = 1.0 + 0j, 1.0 + 0j
    for a in alphas:
        r = math.sqrt(1.0 - abs(a) ** 2)
        phi, phi_s = (z * phi - np.conj(a) * phi_s) / r, (phi_s - a * z * phi) / r
        psi, psi_s = (z * psi + np.conj(a) * psi_s) / r, (psi_s + a * z * psi) / r
    return phi, phi_s, psi, psi_s


def test_polynomials_match_plain_recursion():
    rng = np.random.default_rng(43)
    for _ in range(4):
        cfg = random_config(rng)
        eta = random_eta(rng)
        s = SpectralPoint(eta)
        N = int(rng.integers(2, 16))
        alphas = sequence(cfg, N)
        want = _plain_recursion(alphas, s.z)
        q = polynomials(cfg, s, N)
        scale = math.exp(q.log_r)
        got = (scale * q.phi, scale * q.phi_star, scale * q.psi, scale * q.psi_star)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-10, abs=1e-12)


def test_modulus_duality_on_circle():
    # |phi*_N| = |phi_N| on the circle; the shared scale cancels
    rng = np.random.default_rng(47)
    cfg = random_config(rng)
    s = SpectralPoint(random_eta(rng))
    for N in (50, 2000):
        q = polynomials(cfg, s, N)
        assert abs(q.phi_star) == pytest.approx(abs(q.phi), rel=1e-10)


def test_modulus_duality_long_run():
    base = TorusPoint(0.4, 1.9)
    cfg = VerblunskyConfig(lam=0.3, base=base, autom=CAT_MAP, alpha=preset("alpha0"))
    q = polynomials(cfg, SpectralPoint(1.5708), 100_000)
    assert abs(q.phi_star) == pytest.approx(abs(q.phi), rel=1e-10)


# ---------------------------------------------------------------------------
# transfer identity and Lyapunov exponents


def test_transfer_identity_free_case():
    assert transfer_identity_residual(free_config(), SpectralPoint(0.7), 25) <= 1e-12


def test_transfer_identity_short_products():
    rng = np.random.default_rng(53)
    for _ in range(3):
        cfg = random_config(rng)
        s = SpectralPoint(random_eta(rng))
        assert transfer_identity_residual(cfg, s, 1) <= 1e-12
        assert transfer_identity_residual(cfg, s, 17) <= 1e-10


def test_transfer_identity_long_product():
    rng = np.random.default_rng(59)
    cfg = random_config(rng)
    s = SpectralPoint(random_eta(rng))
    assert transfer_identity_residual(cfg, s, 500) <= 1e-8


def test_lyapunov_estimators_cross_agree():
    base = TorusPoint(2.2, 0.6)
    cfg = VerblunskyConfig(lam=0.2, base=base, autom=CAT_MAP, alpha=preset("alpha0"))
    s = SpectralPoint(1.5708)
    N = 100_000
    lp = lyapunov_poly_many(cfg, [s], N)[0]
    ln = lyapunov_norm(cfg, s, N)
    assert abs(lp - ln) <= 1e-3 + 10.0 / N


def test_free_lyapunov_vanishes():
    # the polynomial estimator keeps a log(2)/(2N) offset at the free point
    # because |phi| = |psi| = 1 there
    cfg = free_config()
    s = SpectralPoint(1.0)
    N = 1000
    assert abs(lyapunov_norm(cfg, s, N)) <= 1e-7
    assert abs(lyapunov_poly_many(cfg, [s], N)[0]) <= math.log(2.0) / (2.0 * N) + 1e-7


def test_lyapunov_poly_many_matches_scalar():
    rng = np.random.default_rng(67)
    for _ in range(5):
        cfg = random_config(rng)
        points = [SpectralPoint(random_eta(rng)) for _ in range(4)]
        N = int(rng.integers(1, 3000))
        many = lyapunov_poly_many(cfg, points, N)
        ref = [lyapunov_poly_many(cfg, [s], N)[0] for s in points]
        assert many.shape == (4,)
        assert np.allclose(many, ref, rtol=1e-9, atol=1e-12)
    assert lyapunov_poly_many(cfg, [], N).shape == (0,)
    with pytest.raises(ValueError):
        lyapunov_poly_many(cfg, points, 0)


def test_lyapunov_rejects_empty_run():
    rng = np.random.default_rng(61)
    cfg = random_config(rng)
    with pytest.raises(ValueError):
        lyapunov_poly_many(cfg, [SpectralPoint(1.0)], 0)


def _growth_by_steps(alphas: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The polynomial-route growth rate of one coefficient row at every z
    by the step schedule, the row broadcast over the batch."""
    top = np.ones((z.size, 2), dtype=np.complex128)
    bot = np.ones((z.size, 2), dtype=np.complex128)
    bot[:, 1] = -1.0
    log_r = np.zeros(z.size)
    _steps(alphas[:, None, None], z[:, None], top, bot, log_r)
    return _growth(top, log_r - _log_rho(alphas), alphas.size)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double"
)
@pytest.mark.parametrize("seed", [3, 7])
def test_l_column_near_extended_precision(seed):
    # the L column of a 401-site window at its in-window angles, where L
    # from the window's base point is most sensitive to rounding: the
    # polynomial schedule (lyapunov_poly_many) stays within 4x the step
    # schedule's worst distance from the 80-bit step route and within 8x
    # its 90th percentile; bounds fixed before the schedule was measured
    plan = ExperimentPlan(lams=(0.5,), etas=(1.0,), Ns=(400,), seed=seed)
    points = [SpectralPoint(r.eta) for r in localization(plan, lyap_N=100).rows]
    cfg = plan.config(0.5, 0, 0)
    N = 20_000
    alphas = sequence(cfg, N)
    z = np.array([p.z for p in points])
    ref = growth_rate_extended(alphas, z)
    err_poly = np.abs(lyapunov_poly_many(cfg, points, N) - ref).astype(float)
    err_step = np.abs(_growth_by_steps(alphas, z) - ref).astype(float)
    assert len(points) > 300
    assert err_poly.max() <= 4.0 * err_step.max()
    assert np.quantile(err_poly, 0.9) <= 8.0 * np.quantile(err_step, 0.9)


# bytes per angle a growth-rate call holds besides the schedule: the angle
# as a Python complex in a list and in an array, the carried state (two
# columns of top and bot), two log scales and one temporary of them
STATE_BYTES = 40 + 16 + 4 * 16 + 3 * 8


def test_l_column_memory_is_the_budget_plus_the_state():
    # 4096 angles: a table of the powers of every angle alone would take
    # 3.3 MiB; blocks of angles, stretches of time and a few chunks' values
    # keep the schedule within POLY_BYTES
    cfg = ExperimentPlan(lams=(0.5,), etas=(1.0,), Ns=(400,), seed=83).config(0.5, 0, 0)
    N = 2000
    assert np.abs(sequence(cfg, N)).max() <= POLY_RADIUS
    points = [SpectralPoint(eta) for eta in np.linspace(0.1, 6.2, 4096)]
    lyapunov_poly_many(cfg, points[:64], N)
    peaks = []
    for batch in (points[:1], points):
        tracemalloc.start()
        try:
            lyapunov_poly_many(cfg, batch, N)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= POLY_BYTES + len(points) * STATE_BYTES
