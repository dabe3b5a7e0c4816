"""Tests for resolvent entries: direct banded solves against dense
inverses, the on-circle modulus formula against the direct route, interior
reconstruction from edge columns, and decay-rate profiles."""

import cmath
import math

import numpy as np
import pytest

from szegolab import greens
from szegolab.cmv_operator import build, eigenpairs
from szegolab.greens import (
    GreenFitError,
    GreenQuery,
    ResolventBlowupError,
    boundary_vector,
    decay_profile,
    green_direct,
    green_modulus_formula,
    reconstruction_residual,
)
from szegolab.sampling import preset
from szegolab.szego_cocycle import SpectralPoint
from szegolab.torus_dynamics import CAT_MAP, TorusPoint
from szegolab.verblunsky import VerblunskyConfig, sequence

from helpers import free_config, random_config
from oracles import dense, lyapunov_norm


def _gap_midpoint(op):
    """Angle in the widest spectral gap of a window, a safe on-circle z."""
    etas = eigenpairs(op).etas
    gaps = np.diff(np.concatenate([etas, [etas[0] + 2.0 * math.pi]]))
    i = int(np.argmax(gaps))
    return float((etas[i] + 0.5 * gaps[i]) % (2.0 * math.pi))


# ---------------------------------------------------------------------------
# direct solver


def test_free_three_site_against_dense_inverse():
    cfg = free_config()
    z = 2.0
    inv = np.linalg.inv(dense(build(cfg, 0, 2, None, 1.0)) - z * np.eye(3))
    for n1 in range(3):
        for n2 in range(3):
            q = GreenQuery(cfg=cfg, a=0, b=2, beta=None, gamma=1.0, z=z, n1=n1, n2=n2)
            assert green_direct(q) == pytest.approx(inv[n1, n2], abs=1e-12)


def test_direct_respects_resolvent_norm_bound():
    rng = np.random.default_rng(3)
    cfg = random_config(rng)
    z = 1.3 * cmath.exp(0.9j)
    op = build(cfg, 0, 30, None, 1.0)
    dist = float(np.min(np.abs(eigenpairs(op).eigenvalues - z)))
    q = GreenQuery(cfg=cfg, a=0, b=30, beta=None, gamma=1.0, z=z, n1=4, n2=17)
    assert abs(green_direct(q)) <= 1.0 / dist + 1e-10


def test_query_validation():
    rng = np.random.default_rng(4)
    cfg = random_config(rng)
    with pytest.raises(ValueError):
        GreenQuery(cfg=cfg, a=0, b=1, beta=None, gamma=1.0, z=2.0, n1=0, n2=0)
    with pytest.raises(ValueError):
        GreenQuery(cfg=cfg, a=0, b=4, beta=1.0, gamma=1.0, z=2.0, n1=0, n2=1)
    with pytest.raises(ValueError):
        GreenQuery(cfg=cfg, a=2, b=6, beta=None, gamma=1.0, z=2.0, n1=2, n2=3)
    with pytest.raises(ValueError):
        GreenQuery(cfg=cfg, a=0, b=4, beta=None, gamma=1.0, z=2.0, n1=0, n2=5)


# ---------------------------------------------------------------------------
# modulus formula


def test_formula_matches_direct_on_circle():
    rng = np.random.default_rng(6)
    for b in (12, 25):
        cfg = random_config(rng)
        gamma = cmath.exp(1j * rng.uniform(0.0, 6.0))
        op = build(cfg, 0, b, None, gamma)
        z = cmath.exp(1j * _gap_midpoint(op))
        pairs = [(0, 0), (0, b), (3, b - 2), (b - 1, 2), (b, b)]
        for n1, n2 in pairs:
            q = GreenQuery(cfg=cfg, a=0, b=b, beta=None, gamma=gamma, z=z, n1=n1, n2=n2)
            want = abs(green_direct(q))
            assert green_modulus_formula(q) == pytest.approx(want, rel=1e-6)


def test_formula_rejects_off_circle():
    rng = np.random.default_rng(7)
    cfg = random_config(rng)
    q = GreenQuery(cfg=cfg, a=0, b=6, beta=None, gamma=1.0, z=2.0, n1=1, n2=3)
    with pytest.raises(ValueError):
        green_modulus_formula(q)


def test_formula_rejects_shifted_window():
    rng = np.random.default_rng(8)
    cfg = random_config(rng)
    q = GreenQuery(
        cfg=cfg, a=1, b=7, beta=1.0, gamma=1.0, z=cmath.exp(0.4j), n1=2, n2=5
    )
    with pytest.raises(ValueError):
        green_modulus_formula(q)


# ---------------------------------------------------------------------------
# boundary vectors and reconstruction


def test_boundary_vector_validation():
    rng = np.random.default_rng(9)
    cfg = random_config(rng)
    xi = np.ones(10, dtype=np.complex128)
    alphas, _ = sequence(cfg, 10)
    with pytest.raises(ValueError):
        boundary_vector(xi, 0, "left", 1.0, 1.0, alphas)
    with pytest.raises(ValueError):
        boundary_vector(xi, 3, "middle", 1.0, 1.0, alphas)


# (base point, window [0, N], reconstructed stretch [a, b])
RECONSTRUCTION_CASES = [
    ((1.1, 0.4), 80, 20, 60),
    # both edges past step 40, where the float orbit of this start and its
    # exact rational orbit have parted: the edge coefficients must be the
    # window's own
    ((2.0 * math.pi / 7.0, 4.0 * math.pi / 9.0), 160, 60, 120),
]


def test_eigenvector_reconstructs_through_window():
    for (x, y), N, a, b in RECONSTRUCTION_CASES:
        base = TorusPoint(x, y)
        cfg = VerblunskyConfig(lam=0.5, base=base, autom=CAT_MAP, alpha=preset("alpha0"))
        dec = eigenpairs(build(cfg, 0, N, None, 1.0))
        peaks = np.argmax(np.abs(dec.vectors), axis=0)
        candidates = np.argsort(np.abs(peaks - (a + b) // 2))
        checked = 0
        for j in candidates[:6]:
            xi = dec.vectors[:, j]
            try:
                res = reconstruction_residual(cfg, dec.eigenvalues[j], a, b, 1.0, 1.0, xi)
            except ResolventBlowupError:
                continue
            assert res <= 1e-6, (x, y, N, res)
            checked += 1
        assert checked >= 1


def test_reconstruction_zero_input():
    rng = np.random.default_rng(10)
    cfg = random_config(rng)
    xi = np.zeros(40, dtype=np.complex128)
    assert reconstruction_residual(cfg, cmath.exp(0.3j), 5, 20, 1.0, 1.0, xi) == 0.0


def test_reconstruction_validation():
    rng = np.random.default_rng(11)
    cfg = random_config(rng)
    xi = np.ones(40, dtype=np.complex128)
    with pytest.raises(ValueError):
        reconstruction_residual(cfg, 2.0, 0, 20, None, 1.0, xi)
    with pytest.raises(ValueError):
        reconstruction_residual(cfg, 2.0, 5, 39, 1.0, 1.0, xi)


def test_random_vector_fails_reconstruction():
    rng = np.random.default_rng(12)
    cfg = random_config(rng)
    xi = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    res = reconstruction_residual(cfg, 1.2 * cmath.exp(0.9j), 5, 30, 1.0, 1.0, xi)
    assert res >= 0.01


# ---------------------------------------------------------------------------
# decay profiles


def test_decay_rate_tracks_lyapunov_exponent():
    base = TorusPoint(0.8, 2.1)
    cfg = VerblunskyConfig(lam=0.5, base=base, autom=CAT_MAP, alpha=preset("alpha0"))
    s = SpectralPoint(1.5708)
    prof = decay_profile(cfg, s.z, 300, None, 1.0)
    L = lyapunov_norm(cfg, s, 200_000)
    assert 0.0 <= prof.r2 <= 1.0
    assert 0.5 * L <= prof.slope <= 2.0 * L


def test_free_profile_is_flat():
    prof = decay_profile(free_config(), cmath.exp(0.77j), 200, None, 1.0)
    assert abs(prof.slope) <= 0.01
    assert 0.0 <= prof.r2 <= 1.0


def test_profile_aborts_on_spectrum():
    # z = 1 is an eigenvalue of the free window, every column blows up
    with pytest.raises(GreenFitError):
        decay_profile(free_config(), 1.0, 40, None, 1.0)


def test_profile_csv_shape():
    prof = decay_profile(free_config(), cmath.exp(0.77j), 120, None, 1.0)
    lines = prof.csv().strip().split("\n")
    assert lines[0] == "n1,n2,log_abs_G"
    assert len(lines) == len(prof.rows) + 1
    n1, n2, lg = lines[1].split(",")
    assert (int(n1), int(n2), float(lg)) == prof.rows[0]


@pytest.mark.parametrize("N", [20, 120, 300])
@pytest.mark.parametrize("K", [1, 2, 5, 12])
def test_profile_samples_exactly_the_requested_columns(monkeypatch, N, K):
    solved = []
    solve = greens._solve_column

    def record(op, z, col):
        solved.append(col)
        return solve(op, z, col)

    monkeypatch.setattr(greens, "_solve_column", record)
    cfg = random_config(np.random.default_rng(N + K))
    prof = decay_profile(cfg, 0.7 * cmath.exp(1.3j), N, None, 1.0, columns=K)
    m = N + 1
    lo, hi = m // 8, (7 * m) // 8
    assert len(solved) == min(K, hi - lo + 1)
    assert solved == sorted(set(solved))
    assert solved[0] == lo and solved[-1] <= hi
    assert {n2 for _, n2, _ in prof.rows} == set(solved)
    # spread over [lo, hi]: the last column lies within one grid step of hi
    step = max(1, (hi - lo) // max(1, K - 1))
    if K > 1:
        assert hi - solved[-1] < step
    # where the evenly stepped grid already holds K columns, they are it
    grid = list(range(lo, hi + 1, step))
    if len(grid) == K:
        assert solved == grid
