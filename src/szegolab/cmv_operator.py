"""Finite CMV matrices: assembly, characteristic polynomials, eigenpairs.

The half-line operator is the product C = L M of two block-diagonal
unitaries built from 2x2 blocks

    Theta_j = [[conj(a_j), r_j], [r_j, -a_j]],   r_j = sqrt(1 - |a_j|^2),

where Theta_j occupies rows and columns (j, j+1); L carries the even j
blocks, M the odd ones plus a 1x1 identity at index 0. Restricting to a
window [a, b] is done by assembling L and M on a slightly larger window,
multiplying, and projecting the product; this is exact for the rows and
columns kept. Setting the coefficient at index a-1 (for a >= 1) and at
index b to unimodular values decouples the window from the rest of the
half line and makes the restriction unitary; those two values are the
boundary data of the finite matrix.

The restricted matrix is pentadiagonal, stored in solve_banded layout (row
u + i - j holds entry (i, j), with u = l = 2). Characteristic polynomial
values are computed from a banded LU factorization in log-scale so windows
of thousands of sites neither overflow nor underflow.

Eigenpairs come from the Hermitian pentadiagonal H = C + C*: C is unitary,
hence normal, so its eigenvectors are eigenvectors of H with eigenvalue
2 cos eta. eig_banded solves H; the Rayleigh quotient v* C v of each vector
gives its eigenvalue on the circle and a residual against C. eta and
2 pi - eta share cos eta, so nearly colliding pairs come back mixed and are
separated again by Rayleigh-Ritz on the small cluster. Dense complex Schur
of the window is the oracle in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack as _lapack

from .verblunsky import VerblunskyConfig, sequence

N_BANDS_UP = 2
N_BANDS_LOW = 2

DENSE_CAP = 5000
UNITARITY_HARD_TOL = 1e-10


class ConstructionError(Exception):
    """Raised when an assembled matrix fails its structural checks."""


def _rho_of(a: complex) -> float:
    m2 = a.real * a.real + a.imag * a.imag
    if m2 > 1.0 + 1e-12:
        raise ConstructionError(f"coefficient modulus exceeds 1: {a}")
    return math.sqrt(max(1.0 - m2, 0.0))


def assemble_factors(alphas: np.ndarray, size: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Half-line factors L (even blocks) and M (odd blocks) on [0, size).

    alphas[j] feeds block Theta_j; blocks are placed for every j with
    j + 1 < size plus the trailing partial block at j = size - 1 when a
    coefficient for it is supplied.
    """
    rows_l, cols_l, vals_l = [], [], []
    rows_m, cols_m, vals_m = [], [], []
    # index 0 of M is not covered by any odd block
    rows_m.append(0)
    cols_m.append(0)
    vals_m.append(1.0 + 0.0j)
    nblocks = min(len(alphas), size)
    for j in range(nblocks):
        a = complex(alphas[j])
        r = _rho_of(a)
        rows, cols, vals = (rows_l, cols_l, vals_l) if j % 2 == 0 else (
            rows_m,
            cols_m,
            vals_m,
        )
        rows.append(j)
        cols.append(j)
        vals.append(np.conj(a))
        if j + 1 < size:
            rows.append(j)
            cols.append(j + 1)
            vals.append(r)
            rows.append(j + 1)
            cols.append(j)
            vals.append(r)
            rows.append(j + 1)
            cols.append(j + 1)
            vals.append(-a)
    L = sp.csr_matrix(
        (np.array(vals_l, dtype=np.complex128), (rows_l, cols_l)), shape=(size, size)
    )
    M = sp.csr_matrix(
        (np.array(vals_m, dtype=np.complex128), (rows_m, cols_m)), shape=(size, size)
    )
    return L, M


def _product_window_bands(alphas_ext: np.ndarray, a: int, b: int) -> np.ndarray:
    """Bands of P (L M) P* on the window [a, b].

    alphas_ext must cover coefficient indices 0 .. b+1 (already carrying
    any boundary modifications). Assembles the factors on [0, b+3), whose
    product is exact on the kept rows and columns, then projects.
    """
    size = b + 3
    if len(alphas_ext) < b + 2:
        raise ValueError("need coefficients up to index b+1")
    L, M = assemble_factors(np.asarray(alphas_ext)[: b + 2], size)
    C = (L @ M).tocoo()
    m = b - a + 1
    bands = np.zeros((N_BANDS_UP + N_BANDS_LOW + 1, m), dtype=np.complex128)
    for i, j, v in zip(C.row, C.col, C.data):
        if a <= i <= b and a <= j <= b:
            li, lj = i - a, j - a
            if abs(li - lj) > N_BANDS_UP:
                raise ConstructionError("entry outside pentadiagonal band")
            bands[N_BANDS_UP + li - lj, lj] += v
    return bands


def bands_to_dense(bands: np.ndarray) -> np.ndarray:
    m = bands.shape[1]
    out = np.zeros((m, m), dtype=np.complex128)
    for off in range(-N_BANDS_LOW, N_BANDS_UP + 1):
        row = N_BANDS_UP - off
        for j in range(m):
            i = j + off
            if 0 <= i < m:
                out[i, j] = bands[N_BANDS_UP + i - j, j]
    return out


def bands_to_sparse(bands: np.ndarray) -> sp.csr_matrix:
    m = bands.shape[1]
    diags = []
    offsets = []
    for off in range(-N_BANDS_LOW, N_BANDS_UP + 1):
        if m - abs(off) < 1:
            continue
        if off >= 0:
            diags.append(bands[N_BANDS_UP - off, off:m])
        else:
            diags.append(bands[N_BANDS_UP - off, : m + off])
        offsets.append(off)
    return sp.diags(diags, offsets, shape=(m, m), format="csr", dtype=np.complex128)


def band_matvec(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pentadiagonal matrix times a vector (m,) or a block of columns (m, k)."""
    v = np.asarray(v)
    m = bands.shape[1]
    if v.ndim == 2:
        bands = bands[:, :, None]
    out = bands[N_BANDS_UP] * v
    for off in range(1, N_BANDS_UP + 1):
        # superdiagonal off: entry (i, i+off) stored at [u - off, i + off]
        out[: m - off] += bands[N_BANDS_UP - off, off:] * v[off:]
        # subdiagonal off: entry (i+off, i) stored at [u + off, i]
        out[off:] += bands[N_BANDS_UP + off, : m - off] * v[: m - off]
    return out


@dataclass(frozen=True)
class FiniteCMV:
    """Unitary restriction of the half-line operator to [a, b].

    alphas_mod holds coefficients 0 .. b+1 with the boundary values
    already substituted (index a-1 when a >= 1, and index b). beta is None
    exactly when a == 0, where the half-line start needs no left boundary.
    """

    a: int
    b: int
    alphas_mod: np.ndarray
    beta: complex | None
    gamma: complex
    bands: np.ndarray

    @property
    def m(self) -> int:
        return self.b - self.a + 1

    def dense(self) -> np.ndarray:
        if self.m > DENSE_CAP:
            raise ValueError(f"dense form capped at {DENSE_CAP} sites")
        return bands_to_dense(self.bands)

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (self.m,):
            raise ValueError(f"vector length {v.shape} does not match {self.m}")
        return band_matvec(self.bands, v)

    def unitarity_defect(self) -> float:
        C = bands_to_sparse(self.bands)
        E = (C.getH() @ C - sp.identity(self.m, format="csr")).tocoo()
        return float(np.max(np.abs(E.data))) if E.nnz else 0.0

    def rho_mod(self, j: int) -> float:
        return _rho_of(complex(self.alphas_mod[j]))

    def entries_csv(self) -> str:
        """Entry dump, one line per stored entry: row,col,re,im."""
        lines = ["row,col,re,im"]
        m = self.m
        for j in range(m):
            for off in range(-N_BANDS_LOW, N_BANDS_UP + 1):
                i = j + off
                if 0 <= i < m:
                    v = self.bands[N_BANDS_UP + i - j, j]
                    if v != 0:
                        lines.append(f"{i},{j},{float(v.real)!r},{float(v.imag)!r}")
        return "\n".join(lines) + "\n"


def _check_unimodular(name: str, value: complex) -> complex:
    value = complex(value)
    if abs(abs(value) - 1.0) > 1e-15 * 4:
        raise ConstructionError(f"{name} must be unimodular, |{name}| = {abs(value)}")
    return value


def build(
    cfg: VerblunskyConfig,
    a: int,
    b: int,
    beta: complex,
    gamma: complex,
) -> FiniteCMV:
    """Unitary finite matrix on [a, b] with boundary data (beta, gamma).

    beta replaces the coefficient at index a - 1 (ignored when a == 0,
    where the half line already starts cleanly); gamma replaces the one at
    index b. Both must be unimodular. Fails hard when the assembled matrix
    is not unitary to 1e-10.
    """
    if not (0 <= a < b):
        raise ValueError("need 0 <= a < b")
    if b - a < 2:
        raise ValueError("window needs at least 3 sites")
    gamma = _check_unimodular("gamma", gamma)
    use_beta: complex | None = None
    if a >= 1:
        use_beta = _check_unimodular("beta", beta)
    alphas, _ = sequence(cfg, b + 2)
    alphas = alphas.copy()
    if use_beta is not None:
        alphas[a - 1] = use_beta
    alphas[b] = gamma
    bands = _product_window_bands(alphas, a, b)
    op = FiniteCMV(a=a, b=b, alphas_mod=alphas, beta=use_beta, gamma=gamma, bands=bands)
    defect = op.unitarity_defect()
    if defect > UNITARITY_HARD_TOL:
        raise ConstructionError(f"unitarity defect {defect:.3e} exceeds hard bound")
    return op


@dataclass(frozen=True)
class CharPolyValue:
    """Characteristic polynomial value det(z - C) in log form.

    value = phase * exp(log_abs); phase is unimodular (zero when the
    determinant vanishes). log_abs_normalized divides out the product of
    the complementary radii over the window, skipping indices where the
    modified coefficient is unimodular.
    """

    log_abs: float
    phase: complex
    log_abs_normalized: float

    @property
    def value(self) -> complex:
        return self.phase * math.exp(self.log_abs)

    @property
    def normalized(self) -> complex:
        return self.phase * math.exp(self.log_abs_normalized)


def _banded_logdet(bands: np.ndarray) -> tuple[float, complex]:
    """log|det| and phase of a pentadiagonal matrix via banded LU."""
    m = bands.shape[1]
    kl = ku = N_BANDS_UP
    afb = np.zeros((2 * kl + ku + 1, m), dtype=np.complex128)
    afb[kl:, :] = bands
    lu, ipiv, info = _lapack.zgbtrf(afb, kl, ku)
    if info < 0:
        raise ValueError(f"banded factorization failed, argument {-info}")
    diag = lu[kl + ku, :]
    # the scipy wrapper hands back zero-based pivot indices
    sign = 1.0
    for j in range(m):
        if ipiv[j] != j:
            sign = -sign
    log_abs = 0.0
    phase = complex(sign)
    for d in diag:
        ad = abs(d)
        if ad == 0.0:
            return -math.inf, 0.0 + 0.0j
        log_abs += math.log(ad)
        phase *= d / ad
    return log_abs, phase


def _shifted_bands(bands: np.ndarray, z: complex) -> np.ndarray:
    """Bands of (z - C) from the bands of C."""
    out = -bands.copy()
    out[N_BANDS_UP] += z
    return out


def char_poly(op: FiniteCMV, z: complex) -> CharPolyValue:
    """det(z - C) for the finite matrix, with the radius-normalized form."""
    log_abs, phase = _banded_logdet(_shifted_bands(op.bands, complex(z)))
    log_norm = log_abs
    for j in range(op.a, op.b + 1):
        r = op.rho_mod(j)
        if r > 0.0:
            log_norm -= math.log(r)
    return CharPolyValue(log_abs=log_abs, phase=phase, log_abs_normalized=log_norm)


def restricted_char_poly(
    cfg: VerblunskyConfig,
    a: int,
    b: int,
    z: complex,
    left: complex | None = None,
    right: complex | None = None,
) -> CharPolyValue:
    """det(z - restriction to [a, b]) with optional boundary replacements.

    left, when given, replaces the coefficient at a - 1 (requires a >= 1);
    right replaces the one at b. Unmodified restrictions are generally not
    unitary; they are the raw building blocks of resolvent formulas. The
    normalization divides by the complementary radii over [a, b] of the
    possibly modified sequence, skipping unimodular indices.
    """
    if not (0 <= a <= b):
        raise ValueError("need 0 <= a <= b")
    alphas, _ = sequence(cfg, b + 2)
    alphas = alphas.copy()
    if left is not None:
        if a < 1:
            raise ValueError("left replacement needs a >= 1")
        alphas[a - 1] = complex(left)
    if right is not None:
        alphas[b] = complex(right)
    bands = _product_window_bands(alphas, a, b)
    log_abs, phase = _banded_logdet(_shifted_bands(bands, complex(z)))
    log_norm = log_abs
    for j in range(a, b + 1):
        r = _rho_of(complex(alphas[j]))
        if r > 0.0:
            log_norm -= math.log(r)
    return CharPolyValue(log_abs=log_abs, phase=phase, log_abs_normalized=log_norm)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a finite unitary matrix, sorted by spectral angle.

    residuals[j] = ||C xi_j - z_j xi_j||_2; ok[j] flags residuals within
    the requested tolerance. Nothing is hidden: callers see every pair
    with its residual.
    """

    eigenvalues: np.ndarray
    etas: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    ok: np.ndarray

    @property
    def count(self) -> int:
        return len(self.eigenvalues)


def _hermitian_part(bands: np.ndarray) -> np.ndarray:
    """Upper bands of H = C + C* in eig_banded's layout.

    Row u - k, column i + k holds H[i, i+k] = C[i, i+k] + conj(C[i+k, i]);
    row u holds the real diagonal 2 Re C[i, i].
    """
    m = bands.shape[1]
    upper = np.zeros((N_BANDS_UP + 1, m), dtype=np.complex128)
    upper[N_BANDS_UP] = 2.0 * bands[N_BANDS_UP].real
    for k in range(1, N_BANDS_UP + 1):
        upper[N_BANDS_UP - k, k:] = bands[N_BANDS_UP - k, k:] + np.conj(
            bands[N_BANDS_UP + k, : m - k]
        )
    return upper


def _cluster_runs(h_vals: np.ndarray, bad: np.ndarray) -> list[tuple[int, int]]:
    """Index runs [s, e) of H-eigenvalues that must be resolved together.

    Each pair over tolerance is joined to its nearest neighbour in the
    sorted H-spectrum; the runs are the connected groups with at least
    two members.
    """
    gaps = np.diff(h_vals)
    if gaps.size == 0:
        return []
    padded = np.concatenate(([np.inf], gaps, [np.inf]))
    # link i -- i+1 when one end is bad and the other is its nearest neighbour
    up = bad[:-1] & (padded[1:-1] <= padded[:-2])
    down = bad[1:] & (padded[1:-1] <= padded[2:])
    link = np.concatenate(([False], up | down, [False])).astype(np.int8)
    edges = np.diff(link)
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1) + 1
    return list(zip(starts.tolist(), stops.tolist()))


def eigenpairs(op: FiniteCMV, tol: float = 1e-8) -> EigenDecomposition:
    """Full eigendecomposition through the banded Hermitian part of C.

    C is unitary, hence normal, so every eigenvector of C is one of the
    Hermitian pentadiagonal H = C + C*, with eigenvalue 2 cos eta.
    eig_banded solves H; each unit vector v then gets the Rayleigh
    quotient z = v* C v as its eigenvalue and the residual
    ||C v - z v||_2, both from one banded product C V.

    eta and 2 pi - eta share cos eta, so where such a pair is close the
    solver can hand back a mix of the two vectors. Every pair over tol is
    grouped with its nearest neighbours in the H-spectrum, and the group
    is rotated by the complex Schur form of the small matrix Vc* C Vc
    (Rayleigh-Ritz), which separates the two eigenvalues again. Pairs
    still over tol after that are flagged in ok, not dropped. Dense
    complex Schur of the whole window is the oracle in the tests.
    """
    m = op.m
    if m > DENSE_CAP:
        raise ValueError(f"eigenpairs capped at {DENSE_CAP} sites, window has {m}")
    h_vals, vectors = sla.eig_banded(_hermitian_part(op.bands), overwrite_a_band=True)
    cv = band_matvec(op.bands, vectors)
    vals = np.einsum("ij,ij->j", vectors.conj(), cv)
    residuals = np.linalg.norm(cv - vectors * vals, axis=0)
    for s, e in _cluster_runs(h_vals, residuals > tol):
        vc, cvc = vectors[:, s:e], cv[:, s:e]
        T, Q = sla.schur(vc.conj().T @ cvc, output="complex")
        vectors[:, s:e] = vc @ Q
        cv[:, s:e] = cvc @ Q
        vals[s:e] = np.diag(T)
        residuals[s:e] = np.linalg.norm(cv[:, s:e] - vectors[:, s:e] * vals[s:e], axis=0)
    etas = np.angle(vals) % (2.0 * math.pi)
    order = np.argsort(etas)
    residuals = residuals[order]
    return EigenDecomposition(
        eigenvalues=vals[order],
        etas=etas[order],
        vectors=vectors[:, order],
        residuals=residuals,
        ok=residuals <= tol,
    )


def eigenvalues_by_scan(
    op: FiniteCMV,
    oversample: int = 16,
    refine_tol: float = 1e-12,
) -> np.ndarray:
    """Spectral angles located as minima of |det(z - C)| on the circle.

    Independent of the banded eigensolver: scans an oversampled angle grid,
    brackets every local minimum of the log-determinant modulus and
    refines it by golden-section search. Intended as an oracle for modest
    sizes; cost grows like oversample * m^2.
    """
    m = op.m
    grid_n = max(oversample * m, 512)
    thetas = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)

    def f(theta: float) -> float:
        val = char_poly(op, cmath.exp(1j * theta))
        return val.log_abs

    vals = np.array([f(t) for t in thetas])
    found = []
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for i in range(grid_n):
        prev_v = vals[i - 1]
        here = vals[i]
        nxt = vals[(i + 1) % grid_n]
        if here <= prev_v and here < nxt:
            lo = thetas[i - 1] if i > 0 else thetas[0] - 2.0 * math.pi / grid_n
            hi = thetas[(i + 1) % grid_n]
            if hi < lo:
                hi += 2.0 * math.pi
            x1 = hi - invphi * (hi - lo)
            x2 = lo + invphi * (hi - lo)
            f1, f2 = f(x1), f(x2)
            while hi - lo > refine_tol:
                if f1 < f2:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - invphi * (hi - lo)
                    f1 = f(x1)
                else:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + invphi * (hi - lo)
                    f2 = f(x2)
            found.append((0.5 * (lo + hi)) % (2.0 * math.pi))
    return np.array(sorted(found))
