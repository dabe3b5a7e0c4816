"""Tests for resolvent entries: direct banded solves against dense
inverses, the on-circle modulus formula against the direct route, interior
reconstruction from edge columns, and decay-rate profiles."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from szegolab import greens, verblunsky
from szegolab.cmv_operator import build
from szegolab.experiments import linear_fit
from szegolab.greens import (
    GreenFitError,
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
from szegolab.torus_dynamics import orbit_slices
from szegolab.verblunsky import VerblunskyConfig, sequence

from helpers import free_config, random_config, sorted_pairs
from oracles import dense, lyapunov_norm


def _gap_midpoint(op):
    """Angle in the widest spectral gap of a window, a safe on-circle z."""
    etas = sorted_pairs(op).etas
    gaps = np.diff(np.concatenate([etas, [etas[0] + 2.0 * math.pi]]))
    i = int(np.argmax(gaps))
    return float((etas[i] + 0.5 * gaps[i]) % (2.0 * math.pi))


# ---------------------------------------------------------------------------
# direct solver


def test_free_three_site_against_dense_inverse():
    cfg = free_config()
    z = 2.0
    op = build(cfg, 0, 2, None, 1.0)
    inv = np.linalg.inv(dense(op) - z * np.eye(3))
    for n1 in range(3):
        for n2 in range(3):
            assert green_direct(op, z, n1, n2) == pytest.approx(inv[n1, n2], abs=1e-12)


def test_direct_respects_resolvent_norm_bound():
    rng = np.random.default_rng(3)
    cfg = random_config(rng)
    z = 1.3 * cmath.exp(0.9j)
    op = build(cfg, 0, 30, None, 1.0)
    dist = float(np.min(np.abs(sorted_pairs(op).eigenvalues - z)))
    assert abs(green_direct(op, z, 4, 17)) <= 1.0 / dist + 1e-10


def test_shifted_window_takes_absolute_sites():
    rng = np.random.default_rng(5)
    cfg = random_config(rng)
    op = build(cfg, 3, 12, cmath.exp(0.4j), 1.0)
    z = 1.3 * cmath.exp(0.9j)
    inv = np.linalg.inv(dense(op) - z * np.eye(op.m))
    assert green_direct(op, z, 3, 12) == pytest.approx(inv[0, 9], abs=1e-12)
    assert green_direct(op, z, 7, 5) == pytest.approx(inv[4, 2], abs=1e-12)


def test_routes_reject_sites_outside_the_window():
    rng = np.random.default_rng(4)
    cfg = random_config(rng)
    op = build(cfg, 0, 4, None, 1.0)
    shifted = build(cfg, 2, 8, 1.0, 1.0)
    for n1, n2 in ((0, 5), (-1, 2), (5, 0)):
        with pytest.raises(ValueError, match="outside"):
            green_direct(op, 2.0, n1, n2)
        with pytest.raises(ValueError, match="outside"):
            green_modulus_formula(op, cmath.exp(0.4j), n1, n2)
    for n1, n2 in ((1, 4), (2, 9)):
        with pytest.raises(ValueError, match="outside"):
            green_direct(shifted, 2.0, n1, n2)


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
            want = abs(green_direct(op, z, n1, n2))
            assert green_modulus_formula(op, z, n1, n2) == pytest.approx(want, rel=1e-6)


def test_formula_rejects_off_circle():
    rng = np.random.default_rng(7)
    op = build(random_config(rng), 0, 6, None, 1.0)
    with pytest.raises(ValueError):
        green_modulus_formula(op, 2.0, 1, 3)


def test_formula_rejects_shifted_window():
    rng = np.random.default_rng(8)
    op = build(random_config(rng), 1, 7, 1.0, 1.0)
    with pytest.raises(ValueError):
        green_modulus_formula(op, cmath.exp(0.4j), 2, 5)


# ---------------------------------------------------------------------------
# boundary vectors and reconstruction


def test_boundary_vector_validation():
    rng = np.random.default_rng(9)
    cfg = random_config(rng)
    xi = np.ones(10, dtype=np.complex128)
    alphas = sequence(cfg, 10)
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
        dec = sorted_pairs(build(cfg, 0, N, None, 1.0))
        window = build(cfg, a, b, 1.0, 1.0)
        peaks = np.argmax(np.abs(dec.vectors), axis=0)
        candidates = np.argsort(np.abs(peaks - (a + b) // 2))
        checked = 0
        for j in candidates[:6]:
            xi = dec.vectors[:, j]
            try:
                res = reconstruction_residual(window, dec.eigenvalues[j], xi)
            except ResolventBlowupError:
                continue
            assert res <= 1e-6, (x, y, N, res)
            checked += 1
        assert checked >= 1


def test_reconstruction_zero_input():
    rng = np.random.default_rng(10)
    cfg = random_config(rng)
    xi = np.zeros(40, dtype=np.complex128)
    op = build(cfg, 5, 20, 1.0, 1.0)
    assert reconstruction_residual(op, cmath.exp(0.3j), xi) == 0.0


def test_reconstruction_validation():
    rng = np.random.default_rng(11)
    cfg = random_config(rng)
    xi = np.ones(40, dtype=np.complex128)
    with pytest.raises(ValueError):
        reconstruction_residual(build(cfg, 0, 20, None, 1.0), 2.0, xi)
    with pytest.raises(ValueError):
        reconstruction_residual(build(cfg, 5, 39, 1.0, 1.0), 2.0, xi)


def test_random_vector_fails_reconstruction():
    rng = np.random.default_rng(12)
    cfg = random_config(rng)
    xi = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    res = reconstruction_residual(build(cfg, 5, 30, 1.0, 1.0), 1.2 * cmath.exp(0.9j), xi)
    assert res >= 0.01


# ---------------------------------------------------------------------------
# decay profiles


def test_decay_rate_tracks_lyapunov_exponent():
    base = TorusPoint(0.8, 2.1)
    cfg = VerblunskyConfig(lam=0.5, base=base, autom=CAT_MAP, alpha=preset("alpha0"))
    s = SpectralPoint(1.5708)
    prof = decay_profile(build(cfg, 0, 300, None, 1.0), s.z)
    L = lyapunov_norm(cfg, s, 200_000)
    assert 0.0 <= prof.r2 <= 1.0
    assert 0.5 * L <= prof.slope <= 2.0 * L


def test_free_profile_is_flat():
    prof = decay_profile(build(free_config(), 0, 200, None, 1.0), cmath.exp(0.77j))
    assert abs(prof.slope) <= 0.01
    assert 0.0 <= prof.r2 <= 1.0


def test_profile_aborts_on_spectrum():
    # z = 1 is an eigenvalue of the free window, every column blows up
    with pytest.raises(GreenFitError):
        decay_profile(build(free_config(), 0, 40, None, 1.0), 1.0)


def test_profile_csv_shape():
    prof = decay_profile(build(free_config(), 0, 120, None, 1.0), cmath.exp(0.77j))
    lines = "".join(prof.csv_blocks()).strip().split("\n")
    assert lines[0] == "n1,n2,log_abs_G"
    assert len(lines) == len(prof.rows) + 1
    n1, n2, lg = lines[1].split(",")
    assert (int(n1), int(n2), float(lg)) == prof.rows[0]


def test_profile_rows_iterate_as_triples():
    # the entries are kept as three arrays; rows gives them back as
    # (n1, n2, log|G|) triples of Python scalars, as tracing code unpacks them
    op = build(random_config(np.random.default_rng(12)), 5, 205, cmath.exp(0.2j), 1.0)
    prof = decay_profile(op, 0.7 * cmath.exp(1.3j), columns=5)
    assert len(prof.rows) == prof.n1.size == prof.n2.size == prof.log_abs_G.size > 0
    for (n1, n2, lg), a, b, c in zip(prof.rows, prof.n1, prof.n2, prof.log_abs_G):
        assert (type(n1), type(n2), type(lg)) == (int, int, float)
        assert (n1, n2, lg) == (a, b, c)
    assert len({n2 for _, n2, _ in prof.rows}) == 5
    fit = linear_fit([-abs(n1 - n2) for n1, n2, _ in prof.rows], [lg for _, _, lg in prof.rows])
    assert (fit.slope, fit.intercept, fit.r2) == (prof.slope, prof.intercept, prof.r2)


@pytest.mark.parametrize("N", [20, 120, 300])
@pytest.mark.parametrize("K", [1, 2, 5, 12])
def test_profile_samples_exactly_the_requested_columns(monkeypatch, N, K):
    solved = []
    solver = greens._column_solver

    def record(op, z):
        column = solver(op, z)

        def recorded(col):
            solved.append(col)
            return column(col)

        return recorded

    monkeypatch.setattr(greens, "_column_solver", record)
    cfg = random_config(np.random.default_rng(N + K))
    prof = decay_profile(build(cfg, 0, N, None, 1.0), 0.7 * cmath.exp(1.3j), columns=K)
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


def test_each_resolvent_call_factors_once(monkeypatch):
    # one banded LU of C - z per call, however many columns it solves
    from scipy.linalg import lapack

    factored = []
    zgbtrf = lapack.zgbtrf

    def counted(*args, **kwargs):
        factored.append(args[0].shape)
        return zgbtrf(*args, **kwargs)

    monkeypatch.setattr(lapack, "zgbtrf", counted)
    op = build(random_config(np.random.default_rng(41)), 3, 200, cmath.exp(0.4j), 1.0)
    z = 0.7 * cmath.exp(1.3j)
    prof = decay_profile(op, z, columns=12)
    assert len({n2 for _, n2, _ in prof.rows}) == 12
    assert len(factored) == 1
    reconstruction_residual(op, z, np.ones(op.b + 2, dtype=np.complex128))
    assert len(factored) == 2
    green_direct(op, z, 50, 120)
    assert factored == [(7, op.m)] * 3


def test_singular_factor_raises_blowup():
    # C - z with an exact zero pivot: every column is a singular solve
    op = build(random_config(np.random.default_rng(42)), 0, 40, None, 1.0)
    zero = dataclasses.replace(op, bands=np.zeros_like(op.bands))
    with pytest.raises(ResolventBlowupError, match="^singular solve: ") as info:
        green_direct(zero, 0.0, 3, 7)
    assert info.value.distance_estimate == 0.0
    with pytest.raises(GreenFitError, match="only 0 usable entries"):
        decay_profile(zero, 0.0)


def test_shifted_profile_rows_are_absolute_entries():
    rng = np.random.default_rng(13)
    cfg = random_config(rng)
    a = 37
    op = build(cfg, a, a + 90, cmath.exp(0.6j), 1.0)
    z = 0.7 * cmath.exp(1.3j)
    prof = decay_profile(op, z, columns=4)
    m = op.m
    lo, hi = m // 8, (7 * m) // 8
    assert {n1 for n1, _, _ in prof.rows} == set(range(a + lo, a + hi + 1))
    for n1, n2, lg in prof.rows[:: len(prof.rows) // 25]:
        assert lg == pytest.approx(math.log(abs(green_direct(op, z, n1, n2))), abs=1e-12)


# ---------------------------------------------------------------------------
# one walk per window


def test_window_orbit_is_walked_once(monkeypatch):
    # build reads the coefficients 0 .. b+1 in one walk; every resolvent
    # route then reads the window and walks nothing
    walks = []

    def counting_slices(*args):
        walks.append(0)
        for xs, ys in orbit_slices(*args):
            walks[-1] += xs.size
            yield xs, ys

    monkeypatch.setattr(verblunsky, "orbit_slices", counting_slices)
    cfg = random_config(np.random.default_rng(14))
    N, a, b = 60, 20, 40
    op = build(cfg, 0, N, None, 1.0)
    window = build(cfg, a, b, 1.0, 1.0)
    assert walks == [N + 2, b + 2]
    z = cmath.exp(1j * _gap_midpoint(op))
    green_direct(op, z, 5, 30)
    green_modulus_formula(op, z, 5, 30)
    decay_profile(op, z)
    xi = np.ones(N + 1, dtype=np.complex128)
    reconstruction_residual(window, 1.2 * cmath.exp(0.9j), xi)
    assert walks == [N + 2, b + 2]
