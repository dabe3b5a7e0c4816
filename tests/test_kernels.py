"""Property tests of the recursion engine against the per-step oracles.

The engine's transfer product and polynomial columns are checked against a
sequential product of oracles.step_matrix, its circle variables and
log-radius against a loop of oracles.step, all to 1e-10 relative. Draws reach
|alpha| = 1 - 1e-6 (rho -> 0), angles within 1e-3 of 0 and pi, lengths that
leave chunk and block tails, and batches on both sides of the width where
the schedule changes.

Beyond about a thousand steps, rounding (about n eps times the conditioning
of the steps, which grows as rho -> 0) moves both sides by more than 1e-10 in
the product matrix itself and, at single steps, in zeta. Against an 80-bit
run of the monic recursion the engine was seen up to 3e-10 off at n = 4099,
and step_matrix up to 4e-10 at n = 65537. Longer runs are therefore
compared through what the routes report: the log-norm, the polynomial
moduli, log r, the phase sum and the mean-square zeta mismatch.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from szegolab._kernels import WIDE_BATCH, monic_scan
from szegolab.prufer import circle_variables
from szegolab.szego_cocycle import SpectralPoint, lyapunov_poly_many, lyapunov_poly_rows, transfer
from szegolab.verblunsky import sequence

from helpers import random_config
from oracles import init, log_norm, step, step_matrix

REL = 1e-10
LONG = (65535, 65537)
# longest run whose product matrix and zeta trace are compared pointwise
POINTWISE_MAX_N = 1009
LENGTHS = st.sampled_from((0, 1, 2, 5, 31, 97, 331, 1009, 4099) + LONG)
ETAS = st.one_of(
    st.floats(min_value=-1e-3, max_value=1e-3),
    st.floats(min_value=math.pi - 1e-3, max_value=math.pi + 1e-3),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
RADII = st.sampled_from((0.3, 0.9, 0.999, 1.0 - 1e-6))
# 1 to 64 rows, the wide schedule's width drawn often; long runs stay narrow
# to keep the coefficient array small
BATCHES = st.one_of(st.integers(1, WIDE_BATCH), st.just(WIDE_BATCH))


@st.composite
def shapes(draw):
    n = draw(LENGTHS)
    B = draw(st.integers(1, 3) if n in LONG else BATCHES)
    return B, n


def _coefficients(seed: int, rows: int, n: int, r_max: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = r_max * np.sqrt(rng.uniform(0.0, 1.0, size=(rows, n)))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(rows, n)))


def _engine_matrices(alphas: np.ndarray, z: complex):
    """Monic products of every row from the identity: (B, 2, 2) and logs."""
    B = alphas.shape[0]
    top = np.zeros((B, 2), dtype=np.complex128)
    bot = np.zeros((B, 2), dtype=np.complex128)
    top[:, 0] = 1.0
    bot[:, 1] = 1.0
    log_scale = monic_scan(alphas, z, top, bot)
    return np.stack([top, bot], axis=1), log_scale


def _oracle_transfer(row: np.ndarray, s: SpectralPoint):
    """Sequential step_matrix product, renormalized as it goes."""
    m = np.eye(2, dtype=np.complex128)
    log_scale = 0.0
    for a in row.tolist():
        m = step_matrix(a, s) @ m
        big = np.abs(m).max()
        m /= big
        log_scale += math.log(big)
    return m, log_scale


def _rel(a: np.ndarray, la: float, b: np.ndarray, lb: float) -> float:
    """Relative distance of a e^la from b e^lb in the Frobenius norm."""
    return float(np.linalg.norm(a * math.exp(la - lb) - b) / np.linalg.norm(b))


def _checked_rows(B: int, n: int) -> list[int]:
    return [0] if n in LONG else sorted({0, B // 2, B - 1})


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * max(1.0, abs(want))


@given(seed=st.integers(0, 2**32 - 1), shape=shapes(), eta=ETAS, r_max=RADII)
@example(seed=1, shape=(1, 65535), eta=1e-4, r_max=1.0 - 1e-6)
@example(seed=2, shape=(3, 65537), eta=math.pi - 1e-3, r_max=0.999)
@example(seed=3, shape=(WIDE_BATCH, 4099), eta=math.pi + 1e-4, r_max=1.0 - 1e-6)
@settings(max_examples=30)
def test_transfer_and_polynomials_match_step_matrix(seed, shape, eta, r_max):
    B, n = shape
    s = SpectralPoint(eta)
    alphas = _coefficients(seed, B, n, r_max)
    mats, logs = _engine_matrices(alphas, s.z)
    assert np.all(np.isfinite(mats)) and np.all(np.isfinite(logs))
    log_rho = 0.5 * np.log1p(-np.abs(alphas) ** 2).sum(axis=1)
    # polynomial columns (phi, phi*) and (psi, -psi*): s^N M_N applied to
    # the columns of [[1, 1], [1, -1]]
    cols = np.array([[1.0, 1.0], [1.0, -1.0]])
    for i in _checked_rows(B, n):
        want, want_log = _oracle_transfer(alphas[i], s)
        got = s.phase_power(-n) * mats[i]
        got_log = float(logs[i] - log_rho[i])
        got_poly = mats[i] @ cols
        want_poly = s.phase_power(n) * want @ cols
        assert _close(log_norm(got, got_log), log_norm(want, want_log))
        for j in range(2):
            assert _close(
                got_log + math.log(abs(got_poly[0, j])),
                want_log + math.log(abs(want_poly[0, j])),
            )
        if n <= POINTWISE_MAX_N:
            assert _rel(got, got_log, want, want_log) <= REL
            assert _rel(got_poly, got_log, want_poly, want_log) <= REL


@given(seed=st.integers(0, 2**32 - 1), shape=shapes(), eta=ETAS, r_max=RADII)
@example(seed=1, shape=(2, 65535), eta=-1e-3, r_max=0.999)
@example(seed=2, shape=(1, 65537), eta=math.pi + 1e-3, r_max=0.9)
@example(seed=3, shape=(WIDE_BATCH, 1009), eta=1e-3, r_max=1.0 - 1e-6)
@settings(max_examples=30)
def test_circle_variables_match_prufer_step(seed, shape, eta, r_max):
    B, n = shape
    s = SpectralPoint(eta)
    alphas = _coefficients(seed, B, n, r_max)
    top = np.ones((B, 1), dtype=np.complex128)
    bot = np.ones((B, 1), dtype=np.complex128)
    zetas, half_log_h, _ = circle_variables(alphas, s.z, top, bot)
    assert zetas.shape == (B, n + 1)
    assert np.all(np.isfinite(zetas)) and np.all(np.isfinite(half_log_h))
    for i in _checked_rows(B, n):
        state = init(s)
        want = np.empty(n + 1, dtype=np.complex128)
        for k, a in enumerate(alphas[i].tolist()):
            want[k] = state.zeta
            state = step(state, a, s)
        want[n] = state.zeta
        mismatch = np.abs(zetas[i] - want)
        assert math.sqrt(np.mean(mismatch**2)) <= REL
        if n <= POINTWISE_MAX_N:
            assert mismatch.max() <= REL
        assert _close(float(half_log_h[i].sum()), state.log_r)


@pytest.mark.parametrize("n", [1, 97, POINTWISE_MAX_N])
def test_row_does_not_depend_on_its_batch(n):
    rng = np.random.default_rng(n)
    s = SpectralPoint(1.3)
    for B in (3, WIDE_BATCH - 1, WIDE_BATCH, WIDE_BATCH + 5):
        alphas = _coefficients(int(rng.integers(2**32)), B, n, 0.99)
        others = _coefficients(int(rng.integers(2**32)), B, n, 0.99)
        others[-1] = alphas[0]
        mats, logs = _engine_matrices(alphas, s.z)
        mats2, logs2 = _engine_matrices(others, s.z)
        assert np.array_equal(mats[0], mats2[-1]) and logs[0] == logs2[-1]
        # alone the row takes the narrow schedule; it agrees to rounding
        alone, alone_log = _engine_matrices(alphas[:1], s.z)
        assert _rel(alone[0], float(alone_log[0]), mats[0], float(logs[0])) <= REL


@pytest.mark.parametrize("n", [1, 97, 4099])
def test_shared_row_matches_the_row_repeated(n):
    # a wide batch that shares one coefficient row has the bits of the
    # same row repeated on every batch member
    rng = np.random.default_rng(n + 5)
    B = WIDE_BATCH + 7
    alphas = _coefficients(n, 1, n, 0.99)
    z = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=B))
    runs = []
    for rows in (alphas, np.repeat(alphas, B, axis=0)):
        top = np.ones((B, 2), dtype=np.complex128)
        bot = np.ones((B, 2), dtype=np.complex128)
        bot[:, 1] = -1.0
        log_scale = monic_scan(rows, z, top, bot)
        top1 = np.ones((B, 1), dtype=np.complex128)
        bot1 = np.ones((B, 1), dtype=np.complex128)
        log1, ratio = monic_scan(rows, z, top1, bot1, record=True)
        runs.append((top, bot, log_scale, top1, bot1, log1, ratio))
    for shared, repeated in zip(*runs):
        assert np.array_equal(shared, repeated)


def test_lyapunov_rows_match_route():
    rng = np.random.default_rng(71)
    cfg = random_config(rng)
    s = SpectralPoint(2.2)
    alphas = sequence(cfg, 800)
    rows = np.stack([alphas, alphas[::-1]])
    got = lyapunov_poly_rows(rows, s)
    assert got[0] == pytest.approx(lyapunov_poly_many(cfg, [s], 800)[0], rel=1e-12)
    assert got[1] != got[0]


def test_route_near_sup_bound_matches_oracle():
    rng = np.random.default_rng(73)
    cfg = random_config(rng, lam_hi_frac=1.0 - 1e-6)
    for eta in (1e-3, math.pi - 1e-3, math.pi + 1e-4):
        s = SpectralPoint(eta)
        got = transfer(cfg, s, 301)
        alphas = sequence(cfg, 301)
        want, want_log = _oracle_transfer(alphas, s)
        assert _rel(got.matrix, got.log_scale, want, want_log) <= REL


@pytest.mark.parametrize(
    "alphas, z",
    [
        ([[1.5 + 0j]], 1j),
        ([[0.1, math.nan]], 1j),
        ([[0.1, 0.2]], complex(math.inf, 0.0)),
    ],
)
def test_edge_inputs_raise(alphas, z):
    top = np.ones((1, 1), dtype=np.complex128)
    bot = np.ones((1, 1), dtype=np.complex128)
    with pytest.raises(ValueError):
        monic_scan(np.array(alphas, dtype=np.complex128), z, top, bot)


def test_unimodular_step_is_legal_but_not_a_transfer_step():
    # the resolvent formula steps through alpha = +-1 (rho = 0); the engine
    # takes it, the normalized routes refuse it with a typed error
    top = np.ones((1, 1), dtype=np.complex128)
    bot = np.full((1, 1), -1.0 + 0j)
    monic_scan(np.array([[1.0 + 0j, 0.2]]), cmath.exp(0.4j), top, bot)
    assert np.all(np.isfinite(top)) and np.all(np.isfinite(bot))
    with pytest.raises(ValueError):
        step_matrix(1.0, SpectralPoint(0.4))
    with pytest.raises(ValueError):
        lyapunov_poly_rows(np.array([[1.0 + 0j, 0.2]]), SpectralPoint(0.4))
