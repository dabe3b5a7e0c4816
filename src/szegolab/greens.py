"""Resolvent entries of finite unitary windows.

Four services around G := (C - z)^{-1} for a boundary-conditioned window
of the half-line operator: direct entry queries by banded solve, a
three-determinant product formula for |G| on the unit circle, edge
vectors that rebuild interior solution values from the two extreme
resolvent columns, and decay-rate profiles of log|G| along a window.
Each route takes a window from cmv_operator.build and reads its
coefficients and boundary values; none walks an orbit. Each resolvent
call factors C - z once (FiniteCMV.factor) and solves its columns
through that LU. Sites are absolute: a window on [a, b] answers for
n1, n2 in [a, b].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import monic_scan
from .cmv_operator import FiniteCMV, band_matvec
from .experiments import CSV_BLOCK, _csv_blocks, linear_fit
from .szego_cocycle import _log_rho

DIRECT_RESIDUAL_TOL = 1e-10
BLOWUP_DISTANCE = 1e-12


class ResolventBlowupError(Exception):
    """The queried point is numerically indistinguishable from spectrum.

    distance_estimate is an upper bound on the distance to the spectrum
    obtained from the solution norm (the window matrix is normal, so
    ||(C - z)^{-1}|| = 1/dist).
    """

    def __init__(self, message: str, distance_estimate: float):
        super().__init__(f"{message} (distance to spectrum <= {distance_estimate:.3e})")
        self.distance_estimate = distance_estimate


class GreenFitError(Exception):
    """Too few usable entries survived to fit a decay rate."""


def _column_solver(op: FiniteCMV, z: complex):
    """Columns of (C - z)^{-1}, by window-relative index, from one banded
    LU of C - z; each column is checked for a singular factor, a norm
    blowup and its residual."""
    solve, pivots = op.factor(z)

    def column(col: int) -> np.ndarray:
        if not np.all(pivots):
            raise ResolventBlowupError("singular solve: singular matrix", 0.0)
        e = np.zeros(op.m, dtype=np.complex128)
        e[col] = 1.0
        u = solve(e)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(u))
        if not math.isfinite(norm) or norm * BLOWUP_DISTANCE > 1.0:
            dist = 0.0 if not math.isfinite(norm) or norm == 0.0 else 1.0 / norm
            raise ResolventBlowupError("resolvent norm blowup", dist)
        residual = float(np.linalg.norm(band_matvec(op.bands, u) - z * u - e))
        if residual > DIRECT_RESIDUAL_TOL * (1.0 + norm):
            raise ResolventBlowupError(
                f"solve residual {residual:.3e} above {DIRECT_RESIDUAL_TOL:.1e} relative",
                1.0 / norm if norm > 0 else 0.0,
            )
        return u

    return column


def _check_sites(op: FiniteCMV, n1: int, n2: int) -> None:
    for name, n in (("n1", n1), ("n2", n2)):
        if not (op.a <= n <= op.b):
            raise ValueError(f"{name} = {n} outside [{op.a}, {op.b}]")


def green_direct(op: FiniteCMV, z: complex, n1: int, n2: int) -> complex:
    """Entry (n1, n2) of (C - z)^{-1} on the window, by one banded LU of
    C - z and one column solve, at any z off the spectrum (the modulus
    formula needs |z| = 1)."""
    _check_sites(op, n1, n2)
    u = _column_solver(op, z)(n2 - op.a)
    return complex(u[n1 - op.a])


# ---------------------------------------------------------------------------
# modulus formula


def _monic_pairs(alphas: np.ndarray, z: complex, stops: list[int]):
    """Renormalized monic pairs after k recursion steps, k in stops.

    The pair after k steps is (Phi_k, Phi*_k, log_scale) with the true
    values Phi e^{log_scale}: the monic product of alphas[:k] applied to
    (1, 1). Returns a dict keyed by the requested step counts.
    """
    top = np.ones((1, 1), dtype=np.complex128)
    bot = np.ones((1, 1), dtype=np.complex128)
    ls = 0.0
    done = 0
    out = {}
    for k in sorted(set(stops)):
        ls += float(monic_scan(alphas[None, done:k], z, top, bot)[0])
        done = k
        out[k] = (complex(top[0, 0]), complex(bot[0, 0]), ls)
    return out


def _edge_det(phi: complex, phs: complex, gamma_bar: complex, z: complex) -> complex:
    """det(z - window) with a unimodular right value, from the monic pair."""
    return z * phi - gamma_bar * phs


def _log_green_formula(
    alphas: np.ndarray,
    b: int,
    gamma: complex,
    z: complex,
    n1: int,
    n2: int,
) -> float:
    gbar = complex(gamma).conjugate()
    base = _monic_pairs(alphas, z, [n1, n2, b])
    p1, q1, l1 = base[n1]
    log_det1 = math.log(max(abs(p1), 5e-324)) + l1 if p1 != 0 else -math.inf
    pN, qN, lN = base[b]
    det3 = _edge_det(pN, qN, gbar, z)
    if det3 == 0:
        raise ResolventBlowupError("characteristic value underflow", 0.0)
    log_det3 = math.log(abs(det3)) + lN

    if n2 == b:
        log_det2 = 0.0
    else:
        p2, q2, _ = base[n2]
        splits = np.array([1.0, -1.0])
        dens = _edge_det(p2, q2, splits, z)
        if np.any(dens == 0):
            raise ResolventBlowupError("interior splitting underflow", 0.0)
        # continue the recursion from the checkpoint through the replaced
        # coefficient v = +-1 (unimodular, so rho = 0) and on to b
        rows = np.empty((2, b - n2), dtype=np.complex128)
        rows[:, 0] = splits
        rows[:, 1:] = alphas[n2 + 1 : b]
        top = np.full((2, 1), p2, dtype=np.complex128)
        bot = np.full((2, 1), q2, dtype=np.complex128)
        lv = monic_scan(rows, z, top, bot)
        m_ls = float(lv.max())
        # det2 is affine in the replaced coefficient: weights 1 - w and w
        # on v = 1 and v = -1 give its value at alpha_{n2}
        w = (1.0 - complex(alphas[n2])) / 2.0
        ratios = _edge_det(top[:, 0], bot[:, 0], gbar, z) / dens
        det2 = complex(np.sum(np.array([1 - w, w]) * ratios * np.exp(lv - m_ls)))
        if det2 == 0:
            raise ResolventBlowupError("interior determinant underflow", 0.0)
        log_det2 = math.log(abs(det2)) + m_ls

    return log_det1 + log_det2 - log_det3 + float(_log_rho(alphas[n1:n2]))


def green_modulus_formula(op: FiniteCMV, z: complex, n1: int, n2: int) -> float:
    """|G(n1, n2)| on a window [0, b] from three boundary determinants.

    The identity expresses the entry modulus as |d1 d2 / d3| times the
    product of complementary radii between the two indices, where d1 is
    the characteristic value of the left block [0, n1-1], d3 that of the
    full window with the right value gamma, and d2 that of the right
    block [n2+1, b] with left value alpha_{n2}, evaluated by splitting
    the window at a unimodular replacement and using that the
    determinant is affine in the replaced coefficient. It is an
    identity on the unit circle only; off-circle queries must go
    through the direct solver. Index order does not matter: the entry
    modulus is symmetric, so the query is normalized to n1 <= n2.
    """
    if op.a != 0:
        raise ValueError("formula route needs the window to start at 0")
    _check_sites(op, n1, n2)
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-9:
        raise ValueError("modulus formula holds on the unit circle only")
    n1, n2 = min(n1, n2), max(n1, n2)
    return math.exp(_log_green_formula(op.alphas, op.b, op.gamma, z, n1, n2))


# ---------------------------------------------------------------------------
# boundary vectors and reconstruction


def boundary_vector(
    xi: np.ndarray,
    index: int,
    side: str,
    bdata: complex,
    z: complex,
    alphas: np.ndarray,
) -> complex:
    """Edge scalar pairing with a resolvent column to rebuild solutions.

    xi and the coefficient sequence alphas are indexed by absolute site
    number. xi must cover the endpoint and its outward neighbor (index-1
    for the left edge, index+1 for the right), alphas the cut bond
    (index-1 for the left edge, index for the right). The four cases
    (edge side x index parity) are one z-linear combination of the
    endpoint value and the outward neighbor, with coefficients from the
    boundary value and the cut bond's coefficient/radius pair; odd
    indices conjugate the coefficient data, and the sign turns with the
    parity and with the side.
    """
    z = complex(z)
    bdata = complex(bdata)
    xi = np.asarray(xi)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if side == "left" and index < 1:
        raise ValueError("left edge vector needs index >= 1")
    al = complex(alphas[index - 1 if side == "left" else index])
    r = math.sqrt(1.0 - (al.real * al.real + al.imag * al.imag))
    even = index % 2 == 0
    w = bdata.conjugate() if even else bdata
    c = w * (al if even else al.conjugate())
    neighbor = xi[index - 1] if side == "left" else -xi[index + 1]
    signed_z = z if even == (side == "left") else -z
    return signed_z * ((1 - c) * xi[index] + w * r * neighbor)


def reconstruction_residual(op: FiniteCMV, z: complex, xi: np.ndarray) -> float:
    """Sup-norm defect of the two-column interior reconstruction.

    xi must solve the full operator's eigenvalue equation at z on an
    interval strictly containing the window [a, b] (one extra site on each
    side), indexed by absolute site. The window must start at a >= 1.
    Interior values are rebuilt as G(n, a) xitilde(a) + G(n, b)
    xitilde(b) from the window resolvent columns at the two edges; the
    return value is the max interior mismatch over the sup of |xi| on
    the window. Zero input gives zero.
    """
    a, b = op.a, op.b
    if a < 1:
        raise ValueError("reconstruction needs a >= 1 for the left edge vector")
    z = complex(z)
    xi = np.asarray(xi, dtype=np.complex128)
    if len(xi) < b + 2:
        raise ValueError("xi must cover the outward neighbors of both edges")
    column = _column_solver(op, z)
    col_a = column(0)
    col_b = column(op.m - 1)
    xa = boundary_vector(xi, a, "left", op.beta, z, op.alphas)
    xb = boundary_vector(xi, b, "right", op.gamma, z, op.alphas)
    scale = float(np.max(np.abs(xi[a : b + 1])))
    if scale == 0.0:
        return 0.0
    rebuilt = col_a * xa + col_b * xb
    mism = np.abs(xi[a + 1 : b] - rebuilt[1:-1])
    return float(np.max(mism)) / scale


# ---------------------------------------------------------------------------
# decay profiling


@dataclass(frozen=True)
class DecayProfile:
    """Least-squares decay fit of log|G| against -|n1 - n2|.

    slope is the empirical decay rate (positive means decay); the sampled
    entries behind the fit are the arrays n1, n2 and log_abs_G, one entry
    per index, and rows gives them as (n1, n2, log|G|) triples.
    columns_skipped counts the sampled columns whose solve blew up.
    """

    slope: float
    intercept: float
    r2: float
    n1: np.ndarray
    n2: np.ndarray
    log_abs_G: np.ndarray
    columns_skipped: int

    CSV_HEADER = "n1,n2,log_abs_G"

    @property
    def rows(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.n1.tolist(), self.n2.tolist(), self.log_abs_G.tolist()))

    def csv_blocks(self):
        """The CSV table as text blocks, its rows read from the arrays one
        block of CSV_BLOCK entries at a time."""
        parts = (slice(s, s + CSV_BLOCK) for s in range(0, self.n1.size, CSV_BLOCK))
        rows = itertools.chain.from_iterable(
            zip(self.n1[p].tolist(), self.n2[p].tolist(), self.log_abs_G[p].tolist())
            for p in parts
        )
        return _csv_blocks(self.CSV_HEADER, rows)


MIN_FIT_PAIRS = 10


def decay_profile(op: FiniteCMV, z: complex, columns: int = 12) -> DecayProfile:
    """Decay-rate fit of resolvent entries over the window.

    Samples min(columns, hi - lo + 1) evenly spaced resolvent columns
    over the middle [lo, hi] of the window, keeps every finite log-modulus
    in that interior, and fits
    log|G(n1, n2)| = intercept - slope |n1 - n2|. Columns whose solve
    blows up are skipped and counted; fewer than MIN_FIT_PAIRS surviving
    entries abort the fit. The caller is responsible for keeping z away
    from the window spectrum (the experiment layer picks z inside a
    spectral window and at a checked distance). The entries give absolute
    sites.
    """
    z = complex(z)
    m = op.m
    lo, hi = m // 8, (7 * m) // 8
    k = min(columns, hi - lo + 1)
    # a grid of step (hi - lo) // (k - 1) holds at least k columns; take k
    # of them spread over it (all of them when it holds exactly k)
    grid = range(lo, hi + 1, max(1, (hi - lo) // max(1, k - 1)))
    column = _column_solver(op, z)
    sites = np.arange(op.a + lo, op.a + hi + 1)
    # every sampled entry of every column, filled in place; the unused
    # tail (skipped columns, non-finite logs) is cut off at the end
    n1 = np.empty(k * sites.size, dtype=np.int64)
    n2 = np.empty_like(n1)
    lg = np.empty(n1.size)
    used = skipped = 0
    for j in range(k):
        col = grid[j * (len(grid) - 1) // max(1, k - 1)]
        try:
            u = column(col)
        except ResolventBlowupError:
            skipped += 1
            continue
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(u[lo : hi + 1]))
        finite = np.isfinite(logs)
        end = used + int(np.count_nonzero(finite))
        n1[used:end] = sites[finite]
        n2[used:end] = op.a + col
        lg[used:end] = logs[finite]
        used = end
    if used < MIN_FIT_PAIRS:
        raise GreenFitError(f"only {used} usable entries, need {MIN_FIT_PAIRS}")
    n1, n2, lg = n1[:used], n2[:used], lg[:used]
    fit = linear_fit(-np.abs(n1 - n2), lg)
    return DecayProfile(
        slope=fit.slope,
        intercept=fit.intercept,
        r2=fit.r2,
        n1=n1,
        n2=n2,
        log_abs_G=lg,
        columns_skipped=skipped,
    )
