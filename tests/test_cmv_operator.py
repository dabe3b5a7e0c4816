"""Tests for finite unitary windows: assembly against an independent dense
factor product, its determinants against the monic recursion, and the
banded eigensolver against dense complex Schur."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from szegolab import cmv_operator
from szegolab.cmv_operator import (
    EIGEN_BLOCK,
    EIGEN_TOL,
    ConstructionError,
    EigenDecomposition,
    FiniteCMV,
    _hermitian_part,
    _window_bands,
    band_matvec,
    build,
    eigenpair_blocks,
)
from szegolab.experiments import ExperimentPlan
from szegolab.greens import _edge_det
from szegolab.sampling import preset
from szegolab.torus_dynamics import CAT_MAP, TorusPoint
from szegolab.verblunsky import VerblunskyConfig, sequence

from helpers import free_config, random_config, sorted_pairs
from oracles import dense


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
    alphas = sequence(cfg, b + 2)
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
    assert np.allclose(dense(op), perm, atol=1e-12)


@pytest.mark.parametrize(
    "a,b",
    [
        (0, 5),
        (1, 7),
        (4, 40),
        # three sites, from each parity of start
        (0, 2),
        (1, 3),
        (2, 4),
        # beta sits at index 0; ends of both parities
        (1, 8),
        (1, 9),
        (3, 16),
        (3, 17),
    ],
)
def test_window_matches_dense_factor_product(a, b):
    rng = np.random.default_rng(a + b)
    beta = cmath.exp(0.4j) if a >= 1 else None
    gamma = cmath.exp(-1.1j)
    # moderate coefficients, then coefficients close to the unit circle
    for cfg in (random_config(rng), random_config(rng, lam_hi_frac=0.999)):
        op = build(cfg, a, b, beta, gamma)
        want = _dense_window_oracle(_modified_alphas(cfg, a, b, beta, gamma), a, b)
        assert np.allclose(dense(op), want, atol=1e-14)


def test_window_is_pentadiagonal():
    rng = np.random.default_rng(9)
    cfg = random_config(rng)
    op = build(cfg, 2, 30, 1.0, 1.0)
    d = dense(op)
    ii, jj = np.indices(d.shape)
    assert np.all(d[np.abs(ii - jj) > 2] == 0)


def test_window_metadata():
    rng = np.random.default_rng(10)
    cfg = random_config(rng)
    beta = cmath.exp(2.0j)
    gamma = cmath.exp(0.3j)
    op = build(cfg, 3, 9, beta, gamma)
    assert op.m == 7
    # the window keeps what it read: the unmodified coefficients 0 .. b+1
    assert np.array_equal(op.alphas, sequence(cfg, 11))
    assert (op.beta, op.gamma) == (beta, gamma)
    assert build(cfg, 0, 9, None, gamma).beta is None


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
    # NaN boundary values compare False with every bound
    with pytest.raises(ConstructionError, match="unimodular"):
        build(cfg, 0, 4, None, math.nan)
    with pytest.raises(ConstructionError, match="unimodular"):
        build(cfg, 2, 6, complex(math.nan, 1.0), 1.0)
    # beta is None exactly when a == 0
    with pytest.raises(ValueError, match="beta"):
        build(cfg, 2, 6, None, 1.0)
    with pytest.raises(ValueError, match="beta"):
        build(cfg, 0, 4, 1.0, 1.0)


def test_unitarity_defect_small():
    rng = np.random.default_rng(12)
    for _ in range(5):
        cfg = random_config(rng)
        op = build(cfg, 0, int(rng.integers(10, 60)), None, cmath.exp(1j * rng.uniform(0, 6)))
        assert op.unitarity_defect() <= 1e-12


def _dense_defect(d):
    return float(np.max(np.abs(d.conj().T @ d - np.eye(d.shape[0]))))


def test_unitarity_defect_matches_dense():
    rng = np.random.default_rng(24)
    for k in range(8):
        cfg = random_config(rng, lam_hi_frac=0.999 if k % 2 else 0.9)
        a = int(rng.integers(0, 4))
        b = a + int(rng.integers(2, 80))
        beta = cmath.exp(0.7j * k) if a >= 1 else None
        op = build(cfg, a, b, beta, cmath.exp(-1.3j * k))
        assert abs(op.unitarity_defect() - _dense_defect(dense(op))) <= 1e-15


def test_unitarity_defect_sees_one_bad_entry():
    rng = np.random.default_rng(25)
    cases = [
        (build(random_config(rng), 1, 30, 1.0, 1j), [(2, 10), (0, 29), (4, 0), (3, 5)]),
        # the free window is a permutation: 1e-8 at C[4, 2] (band row 4)
        # meets row 4's unit entry in column 6, so it shows only in
        # (C*C)[2, 6], four places off the diagonal
        (build(free_config(), 0, 8, None, 1.0), [(4, 2)]),
    ]
    for op, entries in cases:
        assert op.unitarity_defect() <= 1e-14
        for row, col in entries:
            bands = op.bands.copy()
            bands[row, col] += 1e-8
            bad = dataclasses.replace(op, bands=bands)
            assert bad.unitarity_defect() > 1e-9
            assert abs(bad.unitarity_defect() - _dense_defect(dense(bad))) <= 1e-15
    # one NaN entry makes the defect NaN, not the largest finite entry
    bands = op.bands.copy()
    bands[2, 3] = math.nan
    assert math.isnan(dataclasses.replace(op, bands=bands).unitarity_defect())


def test_bands_hold_no_negative_zero():
    # the factor product sums every entry onto +0.0; real factors such as
    # alpha_{-1} = -1 or gamma = 1 make -0.0 imaginary parts that must not
    # leak into the bands
    op = build(random_config(np.random.default_rng(27)), 0, 12, None, 1.0)
    for part in (op.bands.real, op.bands.imag):
        assert not np.any(np.signbit(part) & (part == 0.0))


def test_band_matvec_matches_dense():
    rng = np.random.default_rng(13)
    cfg = random_config(rng)
    op = build(cfg, 1, 25, 1.0, 1.0)
    v = rng.standard_normal(op.m) + 1j * rng.standard_normal(op.m)
    got = band_matvec(op.bands, v)
    assert np.allclose(got, dense(op) @ v, rtol=1e-12, atol=1e-12)
    assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(v), rel=1e-12)
    with pytest.raises(ValueError):
        band_matvec(op.bands, np.ones(op.m + 1))


def test_band_matvec_takes_a_block_of_columns():
    rng = np.random.default_rng(15)
    op = build(random_config(rng), 2, 30, 1.0, 1j)
    V = rng.standard_normal((op.m, 4)) + 1j * rng.standard_normal((op.m, 4))
    got = band_matvec(op.bands, V)
    assert got.shape == V.shape
    assert np.allclose(got, dense(op) @ V, rtol=1e-12, atol=1e-12)
    for k in range(V.shape[1]):
        assert np.array_equal(got[:, k], band_matvec(op.bands, V[:, k]))


def test_hermitian_part_is_c_plus_c_star():
    rng = np.random.default_rng(16)
    op = build(random_config(rng), 1, 20, 1j, -1.0)
    d = dense(op)
    H = d + d.conj().T
    hb = _hermitian_part(op.bands)
    for k in range(-2, 3):
        band = hb[2 - k, max(k, 0) : op.m + min(k, 0)]
        assert np.allclose(band, np.diag(H, k), rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# determinants


def _monic_pair(alphas, z):
    phi, phs = 1.0 + 0j, 1.0 + 0j
    for al in alphas:
        phi, phs = z * phi - np.conj(al) * phs, phs - al * z * phi
    return phi, phs


def _assert_edge_identity(alphas, b, gamma, z):
    """det(z - C) on [0, b] with gamma at index b, from the dense factor
    product, against z Phi_b - conj(gamma) Phi*_b from the monic pair."""
    mod = alphas.copy()
    mod[b] = gamma
    got = np.linalg.det(z * np.eye(b + 1) - _dense_window_oracle(mod, 0, b))
    phi, phs = _monic_pair(alphas[:b], z)
    want = _edge_det(phi, phs, np.conj(gamma), z)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_restriction_matches_monic_recursion():
    # with gamma the window's own coefficient, the identity reads
    # det(z - C_[0, n-1]) = Phi_n
    rng = np.random.default_rng(16)
    for n in (1, 2, 5, 12):
        cfg = random_config(rng)
        alphas = sequence(cfg, n + 1)
        for eta in (0.4, 2.9):
            _assert_edge_identity(alphas, n - 1, alphas[n - 1], cmath.exp(1j * eta))


def test_right_boundary_splits_into_monic_pair():
    rng = np.random.default_rng(17)
    cfg = random_config(rng)
    for b in (3, 9):
        alphas = sequence(cfg, b + 2)
        for gamma in (1.0, 1j, cmath.exp(0.3j)):
            for eta in (1.2, 5.1):
                _assert_edge_identity(alphas, b, gamma, cmath.exp(1j * eta))


def test_replacement_outside_the_disk_rejected():
    rng = np.random.default_rng(26)
    alphas = sequence(random_config(rng), 8)
    for a, index, value in ((2, 1, 1.5), (0, 6, 1.0 + 1e-11)):
        bad = alphas.copy()
        bad[index] = value
        with pytest.raises(ConstructionError, match="exceeds 1"):
            _window_bands(bad, a, 6)
    # unimodular up to rounding is still a legal boundary value
    alphas[6] = 1.0 + 1e-13
    _window_bands(alphas, 0, 6)


# ---------------------------------------------------------------------------
# eigenpairs


def test_eigenpairs_basics():
    rng = np.random.default_rng(21)
    cfg = random_config(rng)
    op = build(cfg, 0, 40, None, 1.0)
    dec = sorted_pairs(op)
    assert dec.count == op.m
    assert np.max(np.abs(np.abs(dec.eigenvalues) - 1.0)) <= 1e-8
    assert np.all(np.diff(dec.etas) >= 0)
    assert np.all(dec.ok)
    gram = dec.vectors.conj().T @ dec.vectors
    assert np.max(np.abs(gram - np.eye(op.m))) <= 1e-8


def _schur_etas(op):
    """Spectral angles of the dense complex Schur form, the oracle."""
    T, _ = sla.schur(dense(op), output="complex")
    vals = np.diag(T)
    assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-12
    return np.sort(np.angle(vals) % (2.0 * math.pi))


def _unrepaired_over_tol(op):
    """Pairs of the raw banded solve of H whose residual misses EIGEN_TOL."""
    _, V = sla.eig_banded(_hermitian_part(op.bands)[:3])
    cv = band_matvec(op.bands, V)
    z = np.sum(V.conj() * cv, axis=0)
    return int(np.sum(np.linalg.norm(cv - V * z, axis=0) > EIGEN_TOL))


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
    assert _circle_mismatch(np.sort(dec.etas), _schur_etas(op)) <= eta_tol
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
    dec = sorted_pairs(op)
    _assert_matches_schur(op, dec, 1e-10)
    # no eta collides with 2 pi - eta here, so nothing needs the repair
    assert dec.repaired == 0


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
    dec = sorted_pairs(op)
    _assert_matches_schur(op, dec, 1e-10)
    assert dec.repaired >= op.m // 2


def test_eigenpairs_repair_degenerate_pairs_free():
    # C is real to working precision: eta and 2 pi - eta coincide exactly
    op = build(free_config(), 0, 400, None, 1.0)
    assert _unrepaired_over_tol(op) >= op.m // 2
    _assert_matches_schur(op, sorted_pairs(op), 1e-10)


def _split_halves(scale=0.6):
    """Two identical halves split by a unimodular coefficient (rho = 0):
    C itself has every eigenvalue twice. At scale 0 the halves are free
    and C is real, so H has every eigenvalue four times."""
    k = 99  # odd, so the second half starts at the even site k + 1
    rng = np.random.default_rng(35)
    half = scale * np.sqrt(rng.uniform(size=k)) * np.exp(2j * math.pi * rng.uniform(size=k))
    # alpha_k = -1 repeats the first half's left edge alpha_{-1} = -1, and
    # the right edge alpha_{2k+1} = -1 repeats alpha_k
    alphas = np.concatenate((half, [-1.0], half, [-1.0, 0.0]))
    b = 2 * k + 1
    return FiniteCMV(
        a=0, b=b, bands=_window_bands(alphas, 0, b), alphas=alphas, beta=None, gamma=-1.0
    )


def test_eigenpairs_split_exactly_degenerate_eigenvalues_of_c():
    # C itself has every eigenvalue twice, which Rayleigh-Ritz on C cannot
    # split, so the two vectors of each pair must come out orthogonal
    op = _split_halves()
    assert op.unitarity_defect() <= 1e-14
    schur = _schur_etas(op)
    assert np.max(np.abs(schur[0::2] - schur[1::2])) <= 1e-12
    assert np.min(np.diff(schur[0::2])) >= 1e-5
    _assert_matches_schur(op, sorted_pairs(op), 1e-10)


@pytest.mark.parametrize("b, gamma", [(8, -1.0), (20, 1.0)])
def test_eigenpairs_move_singular_shifts(b, gamma):
    # free windows with exact eigenvalues: some shifts make the banded LU
    # of H - h I singular to working precision (a zero or a 1e-300 pivot)
    op = build(free_config(), 0, b, None, gamma)
    _assert_matches_schur(op, sorted_pairs(op), 1e-10)


# ---------------------------------------------------------------------------
# the streamed decomposition


def _collected(op):
    """The blocks of eigenpair_blocks, concatenated in stream order."""
    blocks = list(eigenpair_blocks(op))
    return blocks, {
        "eigenvalues": np.concatenate([b.eigenvalues for b in blocks]),
        "etas": np.concatenate([b.etas for b in blocks]),
        "vectors": np.hstack([b.vectors for b in blocks]),
        "residuals": np.concatenate([b.residuals for b in blocks]),
        "ok": np.concatenate([b.ok for b in blocks]),
        "repaired": sum(b.repaired for b in blocks),
    }


def test_streamed_blocks_in_angle_order_are_eigenpairs():
    # criterion 08's window: the blocks, concatenated, are the eigenpairs
    # of dense Schur
    plan = ExperimentPlan(lams=(0.5,), etas=(0.5 * math.pi,), Ns=(400,), seed=3)
    op = build(plan.config(0.5, 0, 0), 0, 400, None, 1.0)
    blocks, got = _collected(op)
    assert len(blocks) > 1
    assert all(b.count >= EIGEN_BLOCK for b in blocks[:-1])
    assert sum(b.count for b in blocks) == op.m
    _assert_matches_schur(op, EigenDecomposition(**got), 1e-10)


@pytest.mark.parametrize(
    "lam, build_args, block, invit_gap",
    [
        (0.5, (0, 400, None, 1.0), EIGEN_BLOCK, cmv_operator.INVIT_GAP),
        # a shifted window with both boundary values
        (0.3, (17, 300, cmath.exp(0.3j), cmath.exp(1.1j)), EIGEN_BLOCK, cmv_operator.INVIT_GAP),
        # eta and 2 pi - eta nearly collide: the pairs are clusters that
        # Rayleigh-Ritz rotates, and odd blocks end past them
        (1e-8, (0, 400, None, 1.0), 7, cmv_operator.INVIT_GAP),
        # the same with a wider gap: clusters of many members
        (1e-8, (0, 400, None, 1.0), 7, 1e-3),
    ],
)
def test_blocks_do_not_change_the_pairs(monkeypatch, lam, build_args, block, invit_gap):
    # a block holds whole clusters, whatever gap cuts them, and no step
    # reads across a cluster's edge, so the stream gives the bits of one
    # block over the whole window
    cfg = VerblunskyConfig(
        lam=lam,
        base=TorusPoint.random(np.random.default_rng(np.random.SeedSequence(3))),
        autom=CAT_MAP,
        alpha=preset("alpha0"),
    )
    op = build(cfg, *build_args)
    monkeypatch.setattr(cmv_operator, "INVIT_GAP", invit_gap)
    monkeypatch.setattr(cmv_operator, "EIGEN_BLOCK", block)
    blocks, streamed = _collected(op)
    monkeypatch.setattr(cmv_operator, "EIGEN_BLOCK", op.m)
    whole, single = _collected(op)
    assert len(blocks) > 1 and len(whole) == 1
    if block % 2:
        assert any(b.count > block for b in blocks[:-1])
        assert streamed["repaired"] >= op.m // 2
    for name, value in streamed.items():
        assert np.array_equal(value, single[name]), name


@pytest.mark.parametrize("window", ["free", "split", "free split"])
def test_blocks_end_only_between_clusters(monkeypatch, window):
    # each window has clusters of two (free, split) or four (free split)
    # H-eigenvalues; at EIGEN_BLOCK = 7 every block still ends where the
    # sorted H-spectrum jumps by more than INVIT_GAP ||H||_1, the pairs are
    # eigenpairs (each four-member cluster rotated whole), and the stream
    # has the bits of one block
    op = {
        "free": lambda: build(free_config(), 0, 400, None, 1.0),
        "split": _split_halves,
        "free split": lambda: _split_halves(0.0),
    }[window]()
    monkeypatch.setattr(cmv_operator, "EIGEN_BLOCK", 7)
    blocks, streamed = _collected(op)
    hb = _hermitian_part(op.bands)
    h_vals = sla.eig_banded(hb[:3], eigvals_only=True)
    ends = np.cumsum([b.count for b in blocks])[:-1]
    assert any(b.count > 7 for b in blocks[:-1])
    gap = cmv_operator.INVIT_GAP * np.abs(hb).sum(axis=0).max()
    assert np.all(h_vals[ends] - h_vals[ends - 1] > gap)
    _assert_matches_schur(op, EigenDecomposition(**streamed), 1e-10)
    monkeypatch.setattr(cmv_operator, "EIGEN_BLOCK", op.m)
    _, single = _collected(op)
    for name, value in streamed.items():
        assert np.array_equal(value, single[name]), name


@settings(max_examples=25)
@given(
    lam=st.sampled_from([1e-300, 1e-8, 0.3, "edge"]),
    alpha=st.sampled_from(["alpha0", "alpha1"]),
    a=st.integers(0, 40),
    sites=st.integers(3, 120),
    base=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    angles=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)),
)
def test_stream_matches_schur_and_one_block(lam, alpha, a, sites, base, angles):
    # any coupling from free to the edge of the disk (0.999 / sup |alpha|),
    # any window and boundary values: every pair is an eigenpair of dense
    # Schur, and blocks of 7 give the bits of one block
    poly = preset(alpha)
    cfg = VerblunskyConfig(
        lam=0.999 / poly.sup_bound if lam == "edge" else lam,
        base=TorusPoint(*base),
        autom=CAT_MAP,
        alpha=poly,
    )
    beta = cmath.exp(1j * angles[0]) if a else None
    op = build(cfg, a, a + sites - 1, beta, cmath.exp(1j * angles[1]))
    _assert_matches_schur(op, sorted_pairs(op), 1e-10)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cmv_operator, "EIGEN_BLOCK", 7)
        _, streamed = _collected(op)
        mp.setattr(cmv_operator, "EIGEN_BLOCK", op.m)
        _, single = _collected(op)
    for name, value in streamed.items():
        assert np.array_equal(value, single[name]), name


def test_eigenpairs_match_schur_on_small_free_window():
    op = build(free_config(), 0, 7, None, 1.0)
    _assert_matches_schur(op, sorted_pairs(op), 1e-10)


def test_eigenpairs_match_schur_on_small_random_window():
    op = build(random_config(np.random.default_rng(23)), 0, 5, None, 1.0)
    _assert_matches_schur(op, sorted_pairs(op), 1e-10)
