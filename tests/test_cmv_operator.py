"""Tests for finite unitary windows: assembly against an independent dense
factor product, characteristic values against the monic recursion, and the
banded eigensolver against dense complex Schur and the determinant scan."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg as sla

from szegolab.cmv_operator import (
    DENSE_CAP,
    ConstructionError,
    _hermitian_part,
    band_matvec,
    build,
    char_poly,
    eigenpairs,
    eigenvalues_by_scan,
    restricted_char_poly,
)
from szegolab.experiments import ExperimentPlan
from szegolab.sampling import preset
from szegolab.torus_dynamics import CAT_MAP, TorusPoint
from szegolab.verblunsky import VerblunskyConfig, sequence

from helpers import free_config, random_config


def _theta_block(al):
    r = math.sqrt(1.0 - abs(al) ** 2)
    return np.array([[np.conj(al), r], [r, -al]], dtype=np.complex128)


def _dense_window_oracle(alphas_mod, a, b):
    """Window of the factor product, assembled densely and sliced.

    Even-index blocks go into one factor, odd ones into the other (which
    starts with a lone unit entry); the window rows only touch fully
    assembled rows of both factors.
    """
    size = b + 3
    L = np.zeros((size, size), dtype=np.complex128)
    M = np.zeros((size, size), dtype=np.complex128)
    M[0, 0] = 1.0
    for j in range(b + 2):
        blk = _theta_block(complex(alphas_mod[j]))
        target = L if j % 2 == 0 else M
        target[j : j + 2, j : j + 2] += blk
    return (L @ M)[a : b + 1, a : b + 1]


def _modified_alphas(cfg, a, b, beta, gamma):
    alphas, _ = sequence(cfg, b + 2)
    alphas = alphas.copy()
    if a >= 1:
        alphas[a - 1] = beta
    alphas[b] = gamma
    return alphas


# ---------------------------------------------------------------------------
# assembly


def test_free_five_site_window_is_a_cycle():
    op = build(free_config(), 0, 4, None, 1.0)
    perm = np.zeros((5, 5), dtype=np.complex128)
    # 0 -> 1 -> 3 -> 4 -> 2 -> 0 under the two shift factors
    for col, row in [(0, 1), (1, 3), (3, 4), (4, 2), (2, 0)]:
        perm[row, col] = 1.0
    assert np.allclose(op.dense(), perm, atol=1e-12)


@pytest.mark.parametrize("a,b", [(0, 5), (1, 7), (4, 40)])
def test_window_matches_dense_factor_product(a, b):
    rng = np.random.default_rng(a + b)
    cfg = random_config(rng)
    beta = cmath.exp(0.4j)
    gamma = cmath.exp(-1.1j)
    op = build(cfg, a, b, beta, gamma)
    want = _dense_window_oracle(_modified_alphas(cfg, a, b, beta, gamma), a, b)
    assert np.allclose(op.dense(), want, atol=1e-14)


def test_window_is_pentadiagonal():
    rng = np.random.default_rng(9)
    cfg = random_config(rng)
    op = build(cfg, 2, 30, 1.0, 1.0)
    d = op.dense()
    ii, jj = np.indices(d.shape)
    assert np.all(d[np.abs(ii - jj) > 2] == 0)


def test_window_metadata():
    rng = np.random.default_rng(10)
    cfg = random_config(rng)
    beta = cmath.exp(2.0j)
    gamma = cmath.exp(0.3j)
    op = build(cfg, 3, 9, beta, gamma)
    assert op.m == 7
    assert op.beta == beta
    assert op.alphas_mod[2] == beta
    assert op.alphas_mod[9] == gamma
    half = build(cfg, 0, 6, None, gamma)
    assert half.beta is None


def test_build_validation():
    rng = np.random.default_rng(11)
    cfg = random_config(rng)
    with pytest.raises(ValueError):
        build(cfg, 0, 1, None, 1.0)
    with pytest.raises(ValueError):
        build(cfg, 3, 3, 1.0, 1.0)
    with pytest.raises(ConstructionError):
        build(cfg, 0, 4, None, 0.5)
    with pytest.raises(ConstructionError):
        build(cfg, 2, 6, 0.5, 1.0)


def test_unitarity_defect_small():
    rng = np.random.default_rng(12)
    for _ in range(5):
        cfg = random_config(rng)
        op = build(cfg, 0, int(rng.integers(10, 60)), None, cmath.exp(1j * rng.uniform(0, 6)))
        assert op.unitarity_defect() <= 1e-12


def test_apply_matches_dense():
    rng = np.random.default_rng(13)
    cfg = random_config(rng)
    op = build(cfg, 1, 25, 1.0, 1.0)
    v = rng.standard_normal(op.m) + 1j * rng.standard_normal(op.m)
    got = op.apply(v)
    assert np.allclose(got, op.dense() @ v, rtol=1e-12, atol=1e-12)
    assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(v), rel=1e-12)
    with pytest.raises(ValueError):
        op.apply(np.ones(op.m + 1))


def test_band_matvec_takes_a_block_of_columns():
    rng = np.random.default_rng(15)
    op = build(random_config(rng), 2, 30, 1.0, 1j)
    V = rng.standard_normal((op.m, 4)) + 1j * rng.standard_normal((op.m, 4))
    got = band_matvec(op.bands, V)
    assert got.shape == V.shape
    assert np.allclose(got, op.dense() @ V, rtol=1e-12, atol=1e-12)
    for k in range(V.shape[1]):
        assert np.array_equal(got[:, k], band_matvec(op.bands, V[:, k]))


def test_hermitian_part_is_c_plus_c_star():
    rng = np.random.default_rng(16)
    op = build(random_config(rng), 1, 20, 1j, -1.0)
    d = op.dense()
    H = d + d.conj().T
    upper = _hermitian_part(op.bands)
    for k in range(3):
        assert np.allclose(upper[2 - k, k:], np.diag(H, k), rtol=0.0, atol=1e-15)


def test_entries_csv_shape():
    rng = np.random.default_rng(14)
    cfg = random_config(rng)
    op = build(cfg, 0, 4, None, 1.0)
    lines = op.entries_csv().strip().split("\n")
    assert lines[0] == "row,col,re,im"
    row, col, re, im = lines[1].split(",")
    d = op.dense()
    assert complex(float(re), float(im)) == d[int(row), int(col)]
    nnz = int(np.count_nonzero(d))
    assert len(lines) == nnz + 1


# ---------------------------------------------------------------------------
# characteristic values


def test_char_poly_unimodular_at_origin():
    # |det(0 - C)| = 1 for a unitary window
    rng = np.random.default_rng(15)
    for _ in range(3):
        cfg = random_config(rng)
        op = build(cfg, 0, int(rng.integers(5, 30)), None, 1.0)
        assert abs(char_poly(op, 0.0).value) == pytest.approx(1.0, rel=1e-10)


def test_char_poly_free_cycle_closed_form():
    # the free five-site window is a 5-cycle, so det(z - C) = z^5 - 1
    op = build(free_config(), 0, 4, None, 1.0)
    for z in (2.0, 0.5j, cmath.exp(1.1j)):
        assert char_poly(op, z).value == pytest.approx(z**5 - 1.0, rel=1e-10)


def _monic_pair(alphas, z):
    phi, phs = 1.0 + 0j, 1.0 + 0j
    for al in alphas:
        phi, phs = z * phi - np.conj(al) * phs, phs - al * z * phi
    return phi, phs


def test_restriction_matches_monic_recursion():
    rng = np.random.default_rng(16)
    for n in (1, 2, 5, 12):
        cfg = random_config(rng)
        alphas, _ = sequence(cfg, n)
        for eta in (0.4, 2.9):
            z = cmath.exp(1j * eta)
            want, _ = _monic_pair(alphas, z)
            got = restricted_char_poly(cfg, 0, n - 1, z).value
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_right_boundary_splits_into_monic_pair():
    rng = np.random.default_rng(17)
    cfg = random_config(rng)
    for b in (3, 9):
        alphas, _ = sequence(cfg, b)
        for gamma in (1.0, 1j, cmath.exp(0.3j)):
            for eta in (1.2, 5.1):
                z = cmath.exp(1j * eta)
                phi, phs = _monic_pair(alphas, z)
                want = z * phi - np.conj(gamma) * phs
                got = restricted_char_poly(cfg, 0, b, z, right=gamma).value
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_single_site_restriction():
    rng = np.random.default_rng(18)
    cfg = random_config(rng)
    alphas, _ = sequence(cfg, 5)
    d = _dense_window_oracle(alphas, 3, 3)
    z = cmath.exp(0.8j)
    got = restricted_char_poly(cfg, 3, 3, z).value
    assert got == pytest.approx(z - d[0, 0], rel=1e-12, abs=1e-14)


def test_left_replacement_needs_interior_window():
    rng = np.random.default_rng(19)
    cfg = random_config(rng)
    with pytest.raises(ValueError):
        restricted_char_poly(cfg, 0, 4, 1.0, left=1.0)


def test_normalization_divides_window_radii():
    rng = np.random.default_rng(20)
    cfg = random_config(rng)
    a, b = 2, 14
    _, rhos = sequence(cfg, b + 2)
    val = restricted_char_poly(cfg, a, b, 2.0)
    want = val.log_abs - float(np.sum(np.log(rhos[a : b + 1])))
    assert val.log_abs_normalized == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# eigenpairs


def test_eigenpairs_basics():
    rng = np.random.default_rng(21)
    cfg = random_config(rng)
    op = build(cfg, 0, 40, None, 1.0)
    dec = eigenpairs(op)
    assert dec.count == op.m
    assert np.max(np.abs(np.abs(dec.eigenvalues) - 1.0)) <= 1e-8
    assert np.all(np.diff(dec.etas) >= 0)
    assert np.all(dec.ok)
    gram = dec.vectors.conj().T @ dec.vectors
    assert np.max(np.abs(gram - np.eye(op.m))) <= 1e-8


def test_char_poly_vanishes_at_eigenvalues():
    rng = np.random.default_rng(22)
    cfg = random_config(rng)
    op = build(cfg, 0, 12, None, 1.0)
    dec = eigenpairs(op)
    grid = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
    ceiling = max(abs(char_poly(op, z).value) for z in grid)
    for z in dec.eigenvalues:
        assert abs(char_poly(op, z).value) <= 1e-6 * ceiling


def _angle_hausdorff(x, y):
    d = np.abs(x[:, None] - y[None, :])
    d = np.minimum(d, 2.0 * math.pi - d)
    return max(d.min(axis=0).max(), d.min(axis=1).max())


def _schur_etas(op):
    """Spectral angles of the dense complex Schur form, the oracle."""
    T, _ = sla.schur(op.dense(), output="complex")
    vals = np.diag(T)
    assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-12
    return np.sort(np.angle(vals) % (2.0 * math.pi))


def _unrepaired_over_tol(op, tol=1e-8):
    """Pairs of the raw banded solve of H whose residual misses tol."""
    _, V = sla.eig_banded(_hermitian_part(op.bands))
    cv = band_matvec(op.bands, V)
    z = np.sum(V.conj() * cv, axis=0)
    return int(np.sum(np.linalg.norm(cv - V * z, axis=0) > tol))


def _circle_mismatch(x, y):
    """Largest angle gap of a one-to-one pairing of two sorted angle lists.

    A root at angle 0 may sort first in one list and last (as 2 pi - 0)
    in the other, so shifts by one place are tried as well.
    """
    assert len(x) == len(y)
    worst = math.inf
    for shift in (-1, 0, 1):
        d = np.abs(x - np.roll(y, shift))
        worst = min(worst, float(np.max(np.minimum(d, 2.0 * math.pi - d))))
    return worst


def _assert_matches_schur(op, dec, eta_tol):
    assert dec.count == op.m
    assert _circle_mismatch(dec.etas, _schur_etas(op)) <= eta_tol
    assert np.all(dec.ok), f"worst residual {dec.residuals.max():.1e}"
    assert np.all(dec.residuals <= 1e-8)
    assert np.max(np.abs(np.abs(dec.eigenvalues) - 1.0)) <= 1e-12
    gram = dec.vectors.conj().T @ dec.vectors
    assert np.max(np.abs(gram - np.eye(op.m))) <= 1e-8
    # each column really is an eigenvector with its angle
    got = band_matvec(op.bands, dec.vectors)
    want = dec.vectors * np.exp(1j * dec.etas)
    assert np.max(np.linalg.norm(got - want, axis=0)) <= 1e-8


def test_eigenpairs_match_schur_on_criterion_08_window():
    plan = ExperimentPlan(lams=(0.5,), etas=(0.5 * math.pi,), Ns=(400,), seed=3)
    op = build(plan.config(0.5, 0, 0), 0, 400, None, 1.0)
    _assert_matches_schur(op, eigenpairs(op), 1e-10)


def test_eigenpairs_repair_mixed_pairs_near_free():
    # criterion 08's negative control: eta and 2 pi - eta nearly collide,
    # so the banded solve of H mixes almost every pair
    cfg = VerblunskyConfig(
        lam=1e-8,
        base=TorusPoint.random(np.random.default_rng(np.random.SeedSequence(3))),
        autom=CAT_MAP,
        alpha=preset("alpha0"),
    )
    op = build(cfg, 0, 400, None, 1.0)
    assert _unrepaired_over_tol(op) >= op.m // 2
    _assert_matches_schur(op, eigenpairs(op), 1e-10)


def test_eigenpairs_repair_degenerate_pairs_free():
    # C is real to working precision: eta and 2 pi - eta coincide exactly
    op = build(free_config(), 0, 200, None, 1.0)
    assert _unrepaired_over_tol(op) >= op.m // 2
    _assert_matches_schur(op, eigenpairs(op), 1e-10)


def test_eigenpairs_reject_windows_over_the_cap():
    op = build(free_config(), 0, DENSE_CAP, None, 1.0)
    assert op.m == DENSE_CAP + 1
    with pytest.raises(ValueError, match="capped"):
        eigenpairs(op)


def test_scan_agrees_with_dense_eigenvalues_free():
    op = build(free_config(), 0, 7, None, 1.0)
    dec = eigenpairs(op)
    scanned = eigenvalues_by_scan(op)
    assert _angle_hausdorff(scanned, dec.etas) <= 1e-8


def test_scan_agrees_with_dense_eigenvalues_random():
    rng = np.random.default_rng(23)
    cfg = random_config(rng)
    op = build(cfg, 0, 5, None, 1.0)
    dec = eigenpairs(op)
    scanned = eigenvalues_by_scan(op)
    assert _angle_hausdorff(scanned, dec.etas) <= 1e-8
