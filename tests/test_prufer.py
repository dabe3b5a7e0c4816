"""Tests for the Prufer phase/radius recursion and the second-order
expansion diagnostics."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from szegolab.prufer import circle_variables, default_decorrelation_time, expansion_diagnostics
from szegolab.sampling import preset
from szegolab.szego_cocycle import SpectralPoint, polynomials
from szegolab.torus_dynamics import CAT_MAP, TorusPoint
from szegolab.verblunsky import SLICE_POINTS, VerblunskyConfig, sample_slices, sequence

from helpers import free_config, random_config, random_eta
from oracles import PruferState, init, step, zeta_trace
from oracles import expansion_diagnostics as materialized_diagnostics


def _cfg(lam, x=0.8, y=2.1, alpha="alpha0"):
    base = TorusPoint(x, y)
    return VerblunskyConfig(lam=lam, base=base, autom=CAT_MAP, alpha=preset(alpha))


# ---------------------------------------------------------------------------
# single steps


def test_initial_state():
    s = SpectralPoint(1.2)
    assert init(s) == PruferState(log_r=0.0, theta=0.0, zeta=s.z, n=0)


def test_free_step_rotates_zeta_only():
    s = SpectralPoint(0.7)
    st = step(init(s), 0.0, s)
    assert st.log_r == 0.0
    assert st.theta == 0.0
    assert st.zeta == pytest.approx(s.z**2, abs=1e-15)
    assert st.n == 1


def test_step_rejects_disk_boundary():
    s = SpectralPoint(0.5)
    with pytest.raises(ValueError):
        step(init(s), 1.0, s)


def test_one_step_matches_first_polynomial():
    rng = np.random.default_rng(3)
    for _ in range(5):
        cfg = random_config(rng)
        eta = random_eta(rng)
        s = SpectralPoint(eta)
        a = complex(sequence(cfg, 1)[0])
        st = step(init(s), a, s)
        phi1 = (s.z - np.conj(a)) / math.sqrt(1.0 - abs(a) ** 2)
        assert math.exp(st.log_r) == pytest.approx(abs(phi1), rel=1e-14)
        theta1 = cmath.phase(phi1 * cmath.exp(-1j * eta))
        assert st.theta == pytest.approx(theta1, abs=1e-14)
        assert st.zeta == pytest.approx(cmath.exp(1j * (2 * eta + 2 * st.theta)), abs=1e-14)


# ---------------------------------------------------------------------------
# traces


def _circle_trace(cfg, s, N):
    """zeta_0 .. zeta_N and log r_0 .. log r_N of one block through
    circle_variables, and theta_0 .. theta_N of the scalar step oracle."""
    alphas = sequence(cfg, N)[None, :]
    top = np.ones((1, 1), dtype=np.complex128)
    bot = np.ones((1, 1), dtype=np.complex128)
    zetas, half_log_h, _ = circle_variables(alphas, s.z, top, bot)
    state = init(s)
    theta = [state.theta]
    for a in alphas[0].tolist():
        state = step(state, a, s)
        theta.append(state.theta)
    log_r = np.concatenate([[0.0], np.cumsum(half_log_h[0])])
    return zetas[0], np.array(theta), log_r


def test_radius_matches_polynomial_recursion():
    rng = np.random.default_rng(7)
    for n_steps in (2000, 10_000):
        cfg = random_config(rng)
        s = SpectralPoint(random_eta(rng))
        _, got = zeta_trace(cfg, s, n_steps)
        want = polynomials(cfg, s, n_steps).log_abs_phi()
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_free_run_keeps_zero_radius():
    _, log_r = zeta_trace(free_config(), SpectralPoint(1.0), 500)
    assert log_r == 0.0
    _, _, log_rs = _circle_trace(free_config(), SpectralPoint(1.0), 500)
    assert np.all(log_rs == 0.0)


def test_zeta_trace_matches_run():
    # against a run of the scalar step, the per-step oracle
    rng = np.random.default_rng(17)
    cfg = random_config(rng)
    s = SpectralPoint(random_eta(rng))
    N = 200
    zetas, log_r = zeta_trace(cfg, s, N)
    alphas = sequence(cfg, N)
    state = init(s)
    want = []
    for n in range(N):
        want.append(state.zeta)
        state = step(state, alphas[n], s)
    assert len(zetas) == N
    assert np.allclose(zetas, want, atol=1e-12)
    assert log_r == pytest.approx(state.log_r, rel=1e-12, abs=1e-12)


def test_zeta_stays_on_circle():
    rng = np.random.default_rng(19)
    cfg = random_config(rng)
    zetas, _ = zeta_trace(cfg, SpectralPoint(random_eta(rng)), 2000)
    assert np.max(np.abs(np.abs(zetas) - 1.0)) <= 1e-12


def test_zeta_phase_identity():
    # zeta_n = exp(i((n+1) eta + 2 theta_n)) propagates exactly through the
    # recursion, so the two integrations only drift by rounding
    cfg = _cfg(0.3)
    eta = 1.5708
    zetas, theta, _ = _circle_trace(cfg, SpectralPoint(eta), 10_000)
    expect = np.exp(1j * ((np.arange(10_001) + 1) * eta + 2.0 * theta))
    assert np.max(np.abs(zetas - expect)) <= 1e-9


def test_phase_increments_below_pi():
    rng = np.random.default_rng(23)
    cfg = random_config(rng)
    _, theta, _ = _circle_trace(cfg, SpectralPoint(random_eta(rng)), 5000)
    assert np.max(np.abs(np.diff(theta))) < math.pi


# ---------------------------------------------------------------------------
# expansion diagnostics


def test_default_decorrelation_time():
    assert default_decorrelation_time(0.1, CAT_MAP) == 3
    assert default_decorrelation_time(0.05, CAT_MAP) == 4
    assert default_decorrelation_time(0.5, CAT_MAP) == 1


def test_diagnostics_validation():
    # lambda = 0.1 puts the lag at T = 3: the lagged terms need N > T
    cfg = _cfg(0.1)
    s = SpectralPoint(1.5708)
    with pytest.raises(ValueError, match="must exceed the lag T = 3"):
        expansion_diagnostics([cfg], s, 3)
    assert expansion_diagnostics([cfg], s, 4).T == 3


def test_diagnostics_read_the_zeta_trace():
    # one orbit pass feeds both the samples and the circle variables; it
    # must give what zeta_trace gives, across slice and block boundaries.
    # The slices cut the engine's schedule differently from zeta_trace's
    # blocks, so the sums agree to rounding, on the scale of their summands
    cfg = _cfg(0.3)
    s = SpectralPoint(2.2)
    N = (1 << 16) + 917
    d = expansion_diagnostics([cfg], s, N)
    zetas, log_r = zeta_trace(cfg, s, N)
    slices = sample_slices(cfg.autom, cfg.alpha, [[cfg.base.x, cfg.base.y]], N)
    F = np.concatenate(list(slices), axis=1)[0]
    assert d.lhs[0] == pytest.approx(log_r / N, rel=1e-12, abs=0.0)
    I2 = -(cfg.lam / N) * float(np.sum((zetas * F).real))
    assert abs(d.I2[0] - I2) <= 1e-12 * (cfg.lam / N) * float(np.sum(np.abs(F)))


def test_diagnostics_rows_differ_only_in_the_base_point():
    rows = [_cfg(0.1), _cfg(0.1, x=0.3)]
    d = expansion_diagnostics(rows, SpectralPoint(1.5708), 100)
    assert d.lhs.shape == (2,)
    with pytest.raises(ValueError, match="base point"):
        expansion_diagnostics([_cfg(0.1), _cfg(0.2)], SpectralPoint(1.5708), 100)
    with pytest.raises(ValueError, match="base point"):
        expansion_diagnostics([_cfg(0.1), _cfg(0.1, alpha="alpha1")], SpectralPoint(1.5708), 100)


# the terms of ExpansionDiagnostics and the size of their summands, given
# the coupling lam, the sup bound of the samples and the lag T: a
# (rows, N) stream and its oracle agree to 1e-12 of that size
_TERM_SIZES = {
    "I1": lambda lam, sup, T: (lam * sup) ** 2,
    "I2": lambda lam, sup, T: lam * sup,
    "I3": lambda lam, sup, T: (lam * sup) ** 2,
    "I4": lambda lam, sup, T: lam * sup,
    "I5": lambda lam, sup, T: T * (lam * sup) ** 2,
    "I6": lambda lam, sup, T: T * (lam * sup) ** 2,
    "lhs": lambda lam, sup, T: lam * sup,
    "lhs_poly": lambda lam, sup, T: lam * sup,
}


@given(
    rows=st.integers(1, 9),
    offset=st.sampled_from(("T+1", "S-1", "S", "S+1", "S+T-1", "3S+917")),
    lam=st.floats(0.05, 0.9),
    eta=st.floats(0.1, 2.0 * math.pi - 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_rows_match_the_materialized_oracle(rows, offset, lam, eta, seed):
    # the last slice can be shorter than T, so the lag sums must reach back
    # across the slice edge into the carried samples and circle variables;
    # the coupling range puts the lag T anywhere in 1 .. 4
    T = default_decorrelation_time(lam, CAT_MAP)
    S = SLICE_POINTS // rows
    N = {"T+1": T + 1, "S-1": S - 1, "S": S, "S+1": S + 1, "S+T-1": S + T - 1,
         "3S+917": 3 * S + 917}[offset]
    rng = np.random.default_rng(seed)
    cfgs = [
        VerblunskyConfig(lam=lam, base=TorusPoint.random(rng), autom=CAT_MAP, alpha=preset("alpha1"))
        for _ in range(rows)
    ]
    s = SpectralPoint(eta)
    got = expansion_diagnostics(cfgs, s, N)
    assert (got.N, got.T) == (N, T)
    sup = cfgs[0].alpha.sup_bound
    for r, cfg in enumerate(cfgs):
        want = materialized_diagnostics(cfg, s, N)
        for name, size in _TERM_SIZES.items():
            g, w = getattr(got, name)[r], getattr(want, name)[0]
            assert abs(g - w) <= 1e-12 * max(abs(w), size(lam, sup, T)), name


def test_diagnostics_growth_rate_by_both_routes():
    # lhs_poly, log |phi_N| / N from the monic products of the same pass,
    # is what the polynomial recursion gives on its own; lhs, the Prufer sum
    # over the same steps, differs from it by rounding only
    cfg = _cfg(0.1)
    s = SpectralPoint(1.3)
    N = (1 << 16) + 917
    d = expansion_diagnostics([cfg], s, N)
    want = polynomials(cfg, s, N).log_abs_phi() / N
    assert d.lhs_poly[0] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert abs(d.lhs[0] - d.lhs_poly[0]) <= 1e-12


def test_second_order_residual_small():
    lam = 0.1
    d = expansion_diagnostics([_cfg(lam)], SpectralPoint(1.5708), 100_000)
    assert d.T == 3
    assert d.residual_123[0] <= 5.0 * lam**3
    assert d.residual_456[0] <= 5.0 * lam**3 * math.log(1.0 / lam) ** 2


def test_leading_term_matches_mean_square():
    # I1 estimates (lam^2 / 2) <|F|^2> = lam^2 / 4 for the two-frequency
    # preset; the sampler variance of |F|^2 is 1/8 and orbit correlations of
    # cos(x - y) vanish at every lag, so a plain 3 sigma band applies
    lam = 0.3
    N = 100_000
    d = expansion_diagnostics([_cfg(lam)], SpectralPoint(1.5708), N)
    sigma = (lam**2 / 2.0) * math.sqrt(0.125) / math.sqrt(N)
    assert abs(d.I1[0] - lam**2 / 4.0) <= 3.0 * sigma


def test_residual_scales_like_coupling_cubed():
    rng = np.random.default_rng(np.random.SeedSequence(7))
    base = TorusPoint.random(rng)
    lams = (0.2, 0.1, 0.05)
    logs = []
    for lam in lams:
        cfg = VerblunskyConfig(lam=lam, base=base, autom=CAT_MAP, alpha=preset("alpha0"))
        d = expansion_diagnostics([cfg], SpectralPoint(1.5708), 100_000)
        logs.append(math.log(d.residual_123[0]))
    slope = np.polyfit(np.log(lams), logs, 1)[0]
    assert slope >= 2.5


def test_free_diagnostics_vanish():
    d = expansion_diagnostics([free_config()], SpectralPoint(1.0), 1000)
    assert d.lhs[0] == 0.0
    assert d.residual_123[0] <= 1e-200
    assert d.residual_456[0] <= 1e-200

