"""Resolvent entries of finite unitary windows.

Four services around G := (C - z)^{-1} for a boundary-conditioned window
of the half-line operator: direct entry queries by banded solve, a
three-determinant product formula for |G| on the unit circle, edge
vectors that rebuild interior solution values from the two extreme
resolvent columns, and decay-rate profiles of log|G| along a window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._kernels import monic_scan
from .cmv_operator import FiniteCMV, N_BANDS_UP, build, _check_unimodular
from .szego_cocycle import SpectralPoint
from .verblunsky import VerblunskyConfig, coefficient, rho, sequence

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


def _as_z(zlike) -> complex:
    if isinstance(zlike, SpectralPoint):
        return zlike.z
    return complex(zlike)


@dataclass(frozen=True)
class GreenQuery:
    """One resolvent entry request on the window [a, b].

    z is a plain complex number so that off-circle queries reach the
    direct solver; the modulus formula itself insists on |z| = 1. beta
    is None exactly when a == 0 (the half-line start needs no left
    boundary value), matching the window constructor.
    """

    cfg: VerblunskyConfig
    a: int
    b: int
    beta: complex | None
    gamma: complex
    z: complex
    n1: int
    n2: int

    def __post_init__(self):
        if not (0 <= self.a < self.b):
            raise ValueError("need 0 <= a < b")
        if self.b - self.a < 2:
            raise ValueError("window needs at least 3 sites")
        if (self.beta is None) != (self.a == 0):
            raise ValueError("beta must be None exactly when a == 0")
        if self.beta is not None:
            _check_unimodular("beta", self.beta)
        _check_unimodular("gamma", self.gamma)
        for name, n in (("n1", self.n1), ("n2", self.n2)):
            if not (self.a <= n <= self.b):
                raise ValueError(f"{name} = {n} outside [{self.a}, {self.b}]")

    @classmethod
    def at_point(
        cls,
        cfg: VerblunskyConfig,
        a: int,
        b: int,
        beta: complex | None,
        gamma: complex,
        s: SpectralPoint,
        n1: int,
        n2: int,
    ) -> "GreenQuery":
        return cls(cfg=cfg, a=a, b=b, beta=beta, gamma=gamma, z=s.z, n1=n1, n2=n2)


def _resolvent_bands(bands: np.ndarray, z: complex) -> np.ndarray:
    """Bands of (C - z) from the bands of C."""
    out = bands.copy()
    out[N_BANDS_UP] -= z
    return out


def _solve_column(op: FiniteCMV, z: complex, col: int) -> np.ndarray:
    """Column col (window-relative) of (C - z)^{-1}, with blowup checks."""
    m = op.m
    e = np.zeros(m, dtype=np.complex128)
    e[col] = 1.0
    ab = _resolvent_bands(op.bands, z)
    try:
        u = sla.solve_banded((N_BANDS_UP, N_BANDS_UP), ab, e)
    except np.linalg.LinAlgError as exc:
        raise ResolventBlowupError(f"singular solve: {exc}", 0.0) from exc
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(u))
    if not math.isfinite(norm) or norm * BLOWUP_DISTANCE > 1.0:
        dist = 0.0 if not math.isfinite(norm) or norm == 0.0 else 1.0 / norm
        raise ResolventBlowupError("resolvent norm blowup", dist)
    residual = float(np.linalg.norm(op.apply(u) - z * u - e))
    if residual > DIRECT_RESIDUAL_TOL * (1.0 + norm):
        raise ResolventBlowupError(
            f"solve residual {residual:.3e} above {DIRECT_RESIDUAL_TOL:.1e} relative",
            1.0 / norm if norm > 0 else 0.0,
        )
    return u


def green_direct(q: GreenQuery) -> complex:
    """Entry (n1, n2) of (C - z)^{-1} on the window, by banded solve."""
    op = build(q.cfg, q.a, q.b, q.beta, q.gamma)
    u = _solve_column(op, q.z, q.n2 - q.a)
    return complex(u[q.n1 - q.a])


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
    rhos: np.ndarray,
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

    log_rho = float(np.sum(np.log(rhos[n1:n2]))) if n2 > n1 else 0.0
    return log_det1 + log_det2 - log_det3 + log_rho


def green_modulus_formula(q: GreenQuery) -> float:
    """|G(n1, n2)| on [0, b] from three boundary determinants.

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
    if q.a != 0:
        raise ValueError("formula route needs the window to start at 0")
    z = complex(q.z)
    if abs(abs(z) - 1.0) > 1e-9:
        raise ValueError("modulus formula holds on the unit circle only")
    n1, n2 = min(q.n1, q.n2), max(q.n1, q.n2)
    alphas, rhos = sequence(q.cfg, q.b + 1)
    return math.exp(_log_green_formula(alphas, rhos, q.b, q.gamma, z, n1, n2))


# ---------------------------------------------------------------------------
# boundary vectors and reconstruction


def boundary_vector(
    xi: np.ndarray,
    index: int,
    side: str,
    bdata: complex,
    z,
    cfg: VerblunskyConfig,
) -> complex:
    """Edge scalar pairing with a resolvent column to rebuild solutions.

    xi is indexed by absolute site number and must cover the endpoint
    and its outward neighbor (index-1 for the left edge, index+1 for
    the right). The four cases (edge side x index parity) share one
    shape: a z-linear combination of the endpoint value and the outward
    neighbor, with coefficients built from the boundary value and the
    coefficient/radius pair at the cut bond; odd indices conjugate the
    coefficient data and flip the overall sign.
    """
    z = _as_z(z)
    bdata = complex(bdata)
    xi = np.asarray(xi)
    if side == "left":
        if index < 1:
            raise ValueError("left edge vector needs index >= 1")
        al = coefficient(cfg, index - 1)
        r = rho(cfg, index - 1)
        if index % 2 == 0:
            return z * (
                (1 - bdata.conjugate() * al) * xi[index]
                + bdata.conjugate() * r * xi[index - 1]
            )
        return -z * (
            (1 - bdata * al.conjugate()) * xi[index] + bdata * r * xi[index - 1]
        )
    if side == "right":
        al = coefficient(cfg, index)
        r = rho(cfg, index)
        if index % 2 == 0:
            return -z * (
                (1 - bdata.conjugate() * al) * xi[index]
                - bdata.conjugate() * r * xi[index + 1]
            )
        return z * (
            (1 - bdata * al.conjugate()) * xi[index] - bdata * r * xi[index + 1]
        )
    raise ValueError("side must be 'left' or 'right'")


def reconstruction_residual(
    cfg: VerblunskyConfig,
    z,
    a: int,
    b: int,
    beta: complex,
    gamma: complex,
    xi: np.ndarray,
) -> float:
    """Sup-norm defect of the two-column interior reconstruction.

    xi must solve the full operator's eigenvalue equation at z on an
    interval strictly containing [a, b] (one extra site on each side).
    Interior values are rebuilt as G(n, a) xitilde(a) + G(n, b)
    xitilde(b) from the window resolvent columns at the two edges; the
    return value is the max interior mismatch over the sup of |xi| on
    the window. Zero input gives zero.
    """
    if a < 1:
        raise ValueError("reconstruction needs a >= 1 for the left edge vector")
    z = _as_z(z)
    xi = np.asarray(xi, dtype=np.complex128)
    if len(xi) < b + 2:
        raise ValueError("xi must cover the outward neighbors of both edges")
    op = build(cfg, a, b, beta, gamma)
    col_a = _solve_column(op, z, 0)
    col_b = _solve_column(op, z, op.m - 1)
    xa = boundary_vector(xi, a, "left", beta, z, cfg)
    xb = boundary_vector(xi, b, "right", gamma, z, cfg)
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

    slope is the empirical decay rate (positive means decay), rows
    holds the sampled (n1, n2, log|G|) triples behind the fit.
    """

    slope: float
    intercept: float
    r2: float
    rows: tuple[tuple[int, int, float], ...]

    def csv(self) -> str:
        lines = ["n1,n2,log_abs_G"]
        for n1, n2, lg in self.rows:
            lines.append(f"{n1},{n2},{float(lg)!r}")
        return "\n".join(lines) + "\n"


MIN_FIT_PAIRS = 10


def decay_profile(
    cfg: VerblunskyConfig,
    z,
    N: int,
    beta: complex | None,
    gamma: complex,
    columns: int = 12,
) -> DecayProfile:
    """Decay-rate fit of resolvent entries over the window [0, N].

    Samples evenly spaced resolvent columns over the middle of the
    window, keeps every finite log-modulus in the interior, and fits
    log|G(n1, n2)| = intercept - slope |n1 - n2|. Columns whose solve
    blows up are skipped; fewer than MIN_FIT_PAIRS surviving entries
    abort the fit. The caller is responsible for keeping z away from
    the window spectrum (the experiment layer picks z inside a spectral
    window and at a checked distance).
    """
    z = _as_z(z)
    op = build(cfg, 0, N, None, gamma)
    m = op.m
    lo, hi = m // 8, (7 * m) // 8
    step = max(1, (hi - lo) // max(1, columns - 1))
    rows: list[tuple[int, int, float]] = []
    for n2 in range(lo, hi + 1, step):
        try:
            u = _solve_column(op, z, n2)
        except ResolventBlowupError:
            continue
        mags = np.abs(u[lo : hi + 1])
        with np.errstate(divide="ignore"):
            logs = np.log(mags)
        for i, lg in enumerate(logs):
            if math.isfinite(lg):
                rows.append((lo + i, n2, float(lg)))
    if len(rows) < MIN_FIT_PAIRS:
        raise GreenFitError(f"only {len(rows)} usable entries, need {MIN_FIT_PAIRS}")
    dist = np.array([-abs(n1 - n2) for n1, n2, _ in rows], dtype=float)
    vals = np.array([lg for _, _, lg in rows], dtype=float)
    A = np.column_stack([dist, np.ones_like(dist)])
    (slope, intercept), res, *_ = np.linalg.lstsq(A, vals, rcond=None)
    pred = A @ np.array([slope, intercept])
    ss_res = float(np.sum((vals - pred) ** 2))
    ss_tot = float(np.sum((vals - vals.mean()) ** 2))
    if ss_tot > 0.0:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    else:
        r2 = 1.0 if ss_res <= 1e-12 else 0.0
    return DecayProfile(
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
        rows=tuple(rows),
    )
