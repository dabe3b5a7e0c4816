"""Finite CMV matrices: assembly and eigenpairs.

The half-line operator is the product C = L M of two block-diagonal
unitaries built from 2x2 blocks

    Theta_j = [[conj(a_j), r_j], [r_j, -a_j]],   r_j = sqrt(1 - |a_j|^2),

where Theta_j occupies rows and columns (j, j+1); L carries the even j
blocks, M the odd ones plus a 1x1 identity at index 0. Writing that unit
entry as -alpha_{-1} with alpha_{-1} = -1 (rho_{-1} = 0), every entry of
C is one product of a coefficient or a radius:

    even i:  C[i, i-1] = conj(a_i) r_{i-1}     C[i, i]   = -conj(a_i) a_{i-1}
             C[i, i+1] = r_i conj(a_{i+1})     C[i, i+2] = r_i r_{i+1}
    odd i:   C[i, i-2] = r_{i-1} r_{i-2}       C[i, i-1] = -r_{i-1} a_{i-2}
             C[i, i]   = -a_{i-1} conj(a_i)    C[i, i+1] = -a_{i-1} r_i

A window [a, b] fills its bands straight from these formulas and keeps
the entries whose row and column both lie in the window. Setting the
coefficient at index a-1 (for a >= 1) and at index b to unimodular values
decouples the window from the rest of the half line and makes the
restriction unitary; those two values are the boundary data of the
finite matrix. The dense factor product L M, projected onto the window,
is the oracle of the assembly tests.

The restricted matrix is pentadiagonal, stored as its five bands (row
u + i - j holds entry (i, j), with u = l = 2); tests/oracles.py fills it
into a dense matrix for the tests. Only this module reads that layout;
inverse iteration and the resolvent routes share its one banded LU.

Eigenpairs come from the Hermitian pentadiagonal H = C + C*: C is unitary,
hence normal, so its eigenvectors are eigenvectors of H with eigenvalue
2 cos eta. eig_banded gives the eigenvalues of H alone; each vector comes
from inverse iteration with the banded LU of H - h I, O(m) per
pair (Bunse-Gerstner & Elsner, LAA 1991; Simon, OPUC section 2.2), so no
step is cubic in m and the vectors are the one m x m array. The Rayleigh
quotient v* C v of each vector, taken in column blocks, gives its
eigenvalue on the circle and a residual against C. eta and 2 pi - eta
share cos eta, so nearly colliding pairs come back mixed and are
separated again by Rayleigh-Ritz on the small cluster. Dense complex Schur
of that dense window is the oracle of the eigenpair tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import TWO_PI
from .verblunsky import VerblunskyConfig, sequence

N_BANDS_UP = 2
N_BANDS_LOW = 2

DENSE_CAP = 5000
UNITARITY_HARD_TOL = 1e-10

# eigenpairs: the residual tolerance of a pair, ||C v - z v||_2;
# columns per block of Rayleigh quotients and residuals;
# clusters for reorthogonalization, in units of ||H||_1; the fixed start
# vectors of inverse iteration have phases proportional to k * GOLDEN_ANGLE
EIGEN_TOL = 1e-8
EIGEN_BLOCK = 64
INVIT_GAP = 1e-6
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class ConstructionError(Exception):
    """Raised when an assembled matrix fails its structural checks."""


def _radii(alphas: np.ndarray) -> np.ndarray:
    """Complementary radii sqrt(1 - |alpha|^2), elementwise."""
    m2 = alphas.real * alphas.real + alphas.imag * alphas.imag
    if np.any(m2 > 1.0 + 1e-12):
        raise ConstructionError(f"coefficient modulus exceeds 1: {alphas[np.argmax(m2)]}")
    return np.sqrt(np.maximum(1.0 - m2, 0.0))


def _window_bands(alphas: np.ndarray, a: int, b: int) -> np.ndarray:
    """Bands of C = L M on the window [a, b], entry by entry in closed form.

    alphas must cover coefficient indices 0 .. b+1 (already carrying any
    boundary modifications). Indices below 0 read alpha = -1, rho = 0:
    alpha_{-1} = -1 is M's lone unit entry, and alpha_{-2} only feeds
    entries outside the window.
    """
    if len(alphas) < b + 2:
        raise ValueError("need coefficients up to index b+1")
    m = b - a + 1
    pad = max(2 - a, 0)
    ext = np.concatenate((np.full(pad, -1.0 + 0.0j), alphas[a - 2 + pad : b + 2]))
    rho = _radii(ext)
    # row i of the window sees alpha_{i-2+k} as al[k] and likewise rho
    al = [ext[k : k + m] for k in range(4)]
    r = [rho[k : k + m] for k in range(4)]
    even = np.arange(a, b + 1) % 2 == 0
    bands = np.zeros((N_BANDS_UP + N_BANDS_LOW + 1, m), dtype=np.complex128)
    # C[i, i] = conj(alpha_i) * (-alpha_{i-1}) in either parity; spelled out
    # in real arithmetic, as the factor product rounds it
    xr, xi = al[2].real, -al[2].imag
    yr, yi = -al[1].real, -al[1].imag
    bands[N_BANDS_UP].real = xr * yr - xi * yi
    bands[N_BANDS_UP].imag = xr * yi + xi * yr
    off_diagonals = {
        2: np.where(even, r[2] * r[3], 0.0),
        1: np.where(even, r[2] * np.conj(al[3]), -al[1] * r[2]),
        -1: np.where(even, np.conj(al[2]) * r[1], -r[1] * al[0]),
        -2: np.where(even, 0.0, r[1] * r[0]),
    }
    for d, vals in off_diagonals.items():
        # entry (i, i+d) sits at band row u - d, column i + d
        bands[N_BANDS_UP - d, max(d, 0) : m + min(d, 0)] = vals[max(-d, 0) : m - max(d, 0)]
    # the factor product sums onto +0.0; match its signed zeros too
    bands += 0.0
    return bands


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


def _banded_lu(bands: np.ndarray):
    """factor(shift) for a five-band matrix B: the banded LU of B - shift I
    (zgbtrf) as a solve(rhs) through it (zgbtrs) and U's diagonal, where an
    exact zero marks a singular factor. B is padded into zgbtrf's layout
    (N_BANDS_LOW fill-in rows on top) once, and each shift factors a copy.
    """
    from scipy.linalg import lapack

    kl, ku = N_BANDS_LOW, N_BANDS_UP
    base = np.zeros((kl + bands.shape[0], bands.shape[1]), dtype=np.complex128, order="F")
    base[kl:] = bands

    def factor(shift):
        ab = base.copy(order="F")
        ab[kl + ku] -= shift
        lu, ipiv, _ = lapack.zgbtrf(ab, kl, ku, overwrite_ab=1)
        return (lambda rhs: lapack.zgbtrs(lu, kl, ku, rhs, ipiv)[0]), lu[kl + ku]

    return factor


@dataclass(frozen=True)
class FiniteCMV:
    """Unitary restriction of the half-line operator to [a, b], stored as
    its pentadiagonal bands, with what build read: the unmodified
    coefficients alpha_0 .. alpha_{b+1} and the boundary values beta (None
    when a == 0) and gamma."""

    a: int
    b: int
    bands: np.ndarray
    alphas: np.ndarray
    beta: complex | None
    gamma: complex

    @property
    def m(self) -> int:
        return self.b - self.a + 1

    def factor(self, z: complex):
        """Banded LU of C - z: a solve and U's diagonal (_banded_lu)."""
        return _banded_lu(self.bands)(z)

    def unitarity_defect(self) -> float:
        """max |C*C - I|, read off the bands.

        (C*C)[j, j+d] = sum_s conj(B[s, j]) B[s-d, j+d] over band rows s;
        C*C is Hermitian, so the offsets d = 0 .. 4 cover every entry.
        """
        B = self.bands
        depth = B.shape[0]
        worst = 0.0
        for d in range(min(depth, self.m)):
            g = np.einsum("sj,sj->j", B[d:, : self.m - d].conj(), B[: depth - d, d:])
            if d == 0:
                g -= 1.0
            worst = max(worst, float(np.max(np.abs(g))))
        return worst


def _check_unimodular(name: str, value: complex) -> complex:
    value = complex(value)
    if abs(abs(value) - 1.0) > 1e-15 * 4:
        raise ConstructionError(f"{name} must be unimodular, |{name}| = {abs(value)}")
    return value


def build(
    cfg: VerblunskyConfig,
    a: int,
    b: int,
    beta: complex | None,
    gamma: complex,
) -> FiniteCMV:
    """Unitary finite matrix on [a, b] with boundary data (beta, gamma).

    beta replaces the coefficient at index a - 1 and must be None exactly
    when a == 0, where the half line already starts cleanly; gamma
    replaces the one at index b. Both must be unimodular. The window's
    coefficients are read once, here: the result keeps them with beta and
    gamma, and the resolvent routes read nothing else. Fails hard when the
    assembled matrix is not unitary to 1e-10.
    """
    if not (0 <= a < b):
        raise ValueError("need 0 <= a < b")
    if b - a < 2:
        raise ValueError("window needs at least 3 sites")
    if (beta is None) != (a == 0):
        raise ValueError("beta must be None exactly when a == 0")
    gamma = _check_unimodular("gamma", gamma)
    alphas = sequence(cfg, b + 2)
    modified = alphas.copy()
    if beta is not None:
        beta = _check_unimodular("beta", beta)
        modified[a - 1] = beta
    modified[b] = gamma
    op = FiniteCMV(
        a=a, b=b, bands=_window_bands(modified, a, b), alphas=alphas, beta=beta, gamma=gamma
    )
    defect = op.unitarity_defect()
    if defect > UNITARITY_HARD_TOL:
        raise ConstructionError(f"unitarity defect {defect:.3e} exceeds hard bound")
    return op


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a finite unitary matrix, sorted by spectral angle.

    residuals[j] = ||C xi_j - z_j xi_j||_2; ok[j] flags residuals within
    EIGEN_TOL; repaired counts the pairs that the cluster Rayleigh-Ritz
    step rotated. Nothing is hidden: callers see every pair with its
    residual.
    """

    eigenvalues: np.ndarray
    etas: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    ok: np.ndarray
    repaired: int

    @property
    def count(self) -> int:
        return len(self.eigenvalues)


def _hermitian_part(bands: np.ndarray) -> np.ndarray:
    """The five bands of H = C + C*, in the layout of C's bands.

    Row u - k, column i + k holds H[i, i+k] = C[i, i+k] + conj(C[i+k, i]),
    row u + k, column i its mirror conj(H[i, i+k]); row u holds the real
    diagonal 2 Re C[i, i]. Rows 0 .. u are eig_banded's upper layout.
    Entries within eps max|H| of zero are flushed to zero: that is inside
    the solver's own backward error, and left in place (tiny coefficients,
    e.g. 1e-300) they drive LAPACK into slow subnormal arithmetic.
    """
    m = bands.shape[1]
    u = N_BANDS_UP
    hb = np.zeros_like(bands)
    hb[u] = 2.0 * bands[u].real
    for k in range(1, u + 1):
        hb[u - k, k:] = bands[u - k, k:] + np.conj(bands[u + k, : m - k])
        hb[u + k, : m - k] = np.conj(hb[u - k, k:])
    mags = np.abs(hb)
    hb[mags <= np.finfo(np.float64).eps * mags.max()] = 0.0
    return hb


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


def _inverse_iteration(hb: np.ndarray, h_vals: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of H for its sorted eigenvalues h_vals.

    hb holds H's five bands (_hermitian_part). Each column comes from two
    solves with the banded LU of H - h I (_banded_lu), started from fixed
    vectors, so the result does not depend on any random state. A column
    whose h lies within INVIT_GAP * ||H||_1 of the previous one belongs to
    the same cluster, starts from its own vector and is orthogonalized
    against the cluster's earlier columns after each solve; an exactly
    double eigenvalue thus yields two orthonormal vectors, not one twice.
    A shift whose factor comes out singular to working precision is moved
    by eps ||H||_1.
    """
    m = hb.shape[1]
    factor = _banded_lu(hb)
    norm1 = float(np.abs(hb).sum(axis=0).max())
    eps = np.finfo(np.float64).eps
    nudge = eps * norm1
    tiny = eps * nudge
    phases = GOLDEN_ANGLE * np.arange(m)
    start = np.exp(1j * phases)
    vectors = np.empty((m, m), dtype=np.complex128, order="F")
    first = 0
    for j, h in enumerate(h_vals):
        if j == 0 or h - h_vals[j - 1] > INVIT_GAP * norm1:
            first = j
        earlier = vectors[:, first:j]
        shift = h
        while True:
            solve, pivots = factor(shift)
            # a zero pivot or one below eps^2 ||H||_1 is singular to
            # working precision: solves through two such pivots overflow
            if np.abs(pivots).min() > tiny:
                break
            shift += nudge
        # the r-th member of a cluster starts from phases k * r * GOLDEN_ANGLE:
        # one start for all would leave the later members of an exactly
        # double eigenvalue no component to grow from
        x = start if j == first else np.exp(1j * (j - first + 1) * phases)
        for _ in range(2):
            x = solve(x)
            if j > first:
                x -= earlier @ (earlier.conj().T @ x)
            x /= np.linalg.norm(x)
        vectors[:, j] = x
    return vectors


def _permute_columns(a: np.ndarray, order: np.ndarray) -> None:
    """a[:, j] <- a[:, order[j]] for every j, in place: each cycle of the
    permutation is walked with one column held aside."""
    placed = np.zeros(len(order), dtype=bool)
    for start in range(len(order)):
        if placed[start]:
            continue
        held = a[:, start].copy()
        j = start
        while order[j] != start:
            a[:, j] = a[:, order[j]]
            placed[j] = True
            j = order[j]
        a[:, j] = held
        placed[j] = True


def eigenpairs(op: FiniteCMV) -> EigenDecomposition:
    """Full eigendecomposition through the banded Hermitian part of C.

    C is unitary, hence normal, so every eigenvector of C is one of the
    Hermitian pentadiagonal H = C + C*, with eigenvalue 2 cos eta.
    eig_banded gives H's eigenvalues alone, in O(m^2); each vector then
    comes from banded inverse iteration at O(m) (_inverse_iteration). In
    blocks of EIGEN_BLOCK columns, each unit vector v gets the Rayleigh
    quotient z = v* C v as its eigenvalue and the residual ||C v - z v||_2,
    so no m x m product C V is ever held.

    eta and 2 pi - eta share cos eta, so where such a pair is close the
    H-eigenvector can be a mix of the two C-eigenvectors. Every pair whose
    residual exceeds EIGEN_TOL is grouped with its nearest neighbours in
    the H-spectrum, and the group is rotated by the complex Schur form of
    the small matrix Vc* C Vc (Rayleigh-Ritz), which separates the two
    eigenvalues again; repaired counts the rotated pairs. Pairs still over
    EIGEN_TOL after that are flagged in ok, not dropped. Dense complex
    Schur of the whole window is the oracle in the tests.
    """
    import scipy.linalg as sla

    m = op.m
    if m > DENSE_CAP:
        raise ValueError(f"eigenpairs capped at {DENSE_CAP} sites, window has {m}")
    hb = _hermitian_part(op.bands)
    h_vals = sla.eig_banded(hb[: N_BANDS_UP + 1], eigvals_only=True)
    vectors = _inverse_iteration(hb, h_vals)
    vals = np.empty(m, dtype=np.complex128)
    residuals = np.empty(m)
    for s in range(0, m, EIGEN_BLOCK):
        e = min(s + EIGEN_BLOCK, m)
        v = vectors[:, s:e]
        cv = band_matvec(op.bands, v)
        vals[s:e] = np.einsum("ij,ij->j", v.conj(), cv)
        residuals[s:e] = np.linalg.norm(cv - v * vals[s:e], axis=0)
    repaired = 0
    for s, e in _cluster_runs(h_vals, residuals > EIGEN_TOL):
        vc = vectors[:, s:e]
        cvc = band_matvec(op.bands, vc)
        T, Q = sla.schur(vc.conj().T @ cvc, output="complex")
        vectors[:, s:e] = vc @ Q
        cvc = cvc @ Q
        vals[s:e] = np.diag(T)
        residuals[s:e] = np.linalg.norm(cvc - vectors[:, s:e] * vals[s:e], axis=0)
        repaired += e - s
    etas = np.angle(vals) % TWO_PI
    order = np.argsort(etas)
    residuals = residuals[order]
    _permute_columns(vectors, order)
    return EigenDecomposition(
        eigenvalues=vals[order],
        etas=etas[order],
        vectors=vectors,
        residuals=residuals,
        ok=residuals <= EIGEN_TOL,
        repaired=repaired,
    )
