"""Finite CMV matrices: assembly and streamed eigenpairs.

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
step is cubic in m. The Rayleigh quotient v* C v of each vector gives its
eigenvalue on the circle and a residual against C. One rule groups the
pairs: a cluster is a run of H's sorted eigenvalues cut at every gap over
INVIT_GAP ||H||_1. Inverse iteration orthogonalizes within a cluster;
eta and 2 pi - eta share cos eta, so nearly colliding pairs come back
mixed and are separated again by Rayleigh-Ritz on their cluster.
eigenpair_blocks, the one decomposition, streams the pairs in blocks of
whole clusters, at least EIGEN_BLOCK columns each, so a consumer that
drops each block holds O(EIGEN_BLOCK m) memory. Dense complex Schur of
the dense window is the oracle of the eigenpair tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import TWO_PI
from .verblunsky import VerblunskyConfig, sequence

N_BANDS_UP = 2
N_BANDS_LOW = 2

# localization refuses windows over DENSE_CAP sites: past it the
# whole-window decay fit reads the vectors' noise floor, not their decay
DENSE_CAP = 5000
UNITARITY_HARD_TOL = 1e-10

# eigenpair_blocks: the residual tolerance of a pair, ||C v - z v||_2;
# the least columns per block of the streamed decomposition; the gap in
# H's sorted spectrum, in units of ||H||_1, at which a cluster ends; the
# fixed start vectors of inverse iteration have phases k * GOLDEN_ANGLE
EIGEN_TOL = 1e-8
EIGEN_BLOCK = 16
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
        worst = []
        for d in range(min(depth, self.m)):
            g = np.einsum("sj,sj->j", B[d:, : self.m - d].conj(), B[: depth - d, d:])
            if d == 0:
                g -= 1.0
            worst.append(np.max(np.abs(g)))
        # np.max keeps a NaN, where Python's max would drop it
        return float(np.max(worst))


def _check_unimodular(name: str, value: complex) -> complex:
    value = complex(value)
    if not abs(abs(value) - 1.0) <= 1e-15 * 4:
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
    if not defect <= UNITARITY_HARD_TOL:
        raise ConstructionError(f"unitarity defect {defect:.3e} exceeds hard bound")
    return op


@dataclass(frozen=True)
class EigenDecomposition:
    """One block of eigenpairs of a finite unitary matrix, in H-order
    (eigenpair_blocks).

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


def _clusters(h_vals: np.ndarray, norm1: float) -> list[tuple[int, int]]:
    """Index runs [s, e) of the sorted H-spectrum h_vals, cut wherever two
    neighbours lie more than INVIT_GAP * norm1 apart (norm1 = ||H||_1)."""
    cuts = (np.flatnonzero(np.diff(h_vals) > INVIT_GAP * norm1) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(h_vals)]))


def _inverse_iteration(hb: np.ndarray, h_vals: np.ndarray):
    """Unit eigenvectors of H for its sorted eigenvalues h_vals, in order.

    hb holds H's five bands (_hermitian_part). Yields the vectors of each
    cluster (_clusters) as the rows of one (k, m) array. Each vector comes
    from two solves with the banded LU of H - h I (_banded_lu), started
    from a fixed vector, so the result does not depend on any random
    state; within a cluster it is orthogonalized against the cluster's
    earlier rows after each solve, so an exactly double eigenvalue yields
    two orthonormal vectors, not one twice. A shift whose factor comes out
    singular to working precision is moved by eps ||H||_1.
    """
    m = hb.shape[1]
    factor = _banded_lu(hb)
    norm1 = float(np.abs(hb).sum(axis=0).max())
    eps = np.finfo(np.float64).eps
    nudge = eps * norm1
    tiny = eps * nudge
    phases = GOLDEN_ANGLE * np.arange(m)
    start = np.exp(1j * phases)
    for s, e in _clusters(h_vals, norm1):
        rows = np.empty((e - s, m), dtype=np.complex128)
        for r, h in enumerate(h_vals[s:e]):
            shift = h
            while True:
                solve, pivots = factor(shift)
                # a zero pivot or one below eps^2 ||H||_1 is singular to
                # working precision: solves through two such pivots overflow
                if np.abs(pivots).min() > tiny:
                    break
                shift += nudge
            # the r-th member starts from phases k * (r + 1) * GOLDEN_ANGLE:
            # one start for all would leave the later members of an exactly
            # double eigenvalue no component to grow from
            x = np.exp(1j * (r + 1) * phases) if r else start
            earlier = rows[:r].T
            for _ in range(2):
                x = solve(x)
                if r:
                    x -= earlier @ (earlier.conj().T @ x)
                x /= np.linalg.norm(x)
            rows[r] = x
        yield rows


def _block(bands: np.ndarray, clusters: list[np.ndarray]) -> EigenDecomposition:
    """The eigenpairs of C from whole clusters of H-eigenvectors (the rows
    of each array): Rayleigh quotients z = v* C v with their residuals
    ||C v - z v||_2, then Rayleigh-Ritz on every cluster of two or more
    with a pair over EIGEN_TOL."""
    import scipy.linalg as sla

    v = np.concatenate(clusters).T
    cv = band_matvec(bands, v)
    vals = np.einsum("ij,ij->j", v.conj(), cv)
    residuals = np.linalg.norm(cv - v * vals, axis=0)
    repaired = e = 0
    for rows in clusters:
        s, e = e, e + len(rows)
        if e - s < 2 or not np.any(residuals[s:e] > EIGEN_TOL):
            continue
        vc = v[:, s:e]
        T, Q = sla.schur(vc.conj().T @ cv[:, s:e], output="complex")
        v[:, s:e] = vc @ Q
        cvc = cv[:, s:e] @ Q
        vals[s:e] = np.diag(T)
        cvc -= v[:, s:e] * vals[s:e]
        residuals[s:e] = np.linalg.norm(cvc, axis=0)
        repaired += e - s
    return EigenDecomposition(
        eigenvalues=vals,
        etas=np.angle(vals) % TWO_PI,
        vectors=v,
        residuals=residuals,
        ok=residuals <= EIGEN_TOL,
        repaired=repaired,
    )


def eigenpair_blocks(op: FiniteCMV):
    """The eigenpairs of C as a stream of blocks, in H-order.

    C is unitary, hence normal, so every eigenvector of C is one of the
    Hermitian pentadiagonal H = C + C*, with eigenvalue 2 cos eta.
    eig_banded gives H's eigenvalues alone, in O(m^2); each vector then
    comes from banded inverse iteration at O(m) (_inverse_iteration), in
    the ascending order of those eigenvalues (H-order). Each unit vector v
    gets the Rayleigh quotient z = v* C v as its eigenvalue and the
    residual ||C v - z v||_2.

    One rule says which pairs belong together: a cluster is a run of the
    sorted H-spectrum cut wherever two neighbours lie more than
    INVIT_GAP ||H||_1 apart (_clusters). Inverse iteration orthogonalizes
    within a cluster. eta and 2 pi - eta share cos eta, so where such a
    pair is close the H-eigenvectors can be a mix of the two
    C-eigenvectors; every cluster of two or more holding a pair whose
    residual exceeds EIGEN_TOL is rotated by the complex Schur form of the
    small matrix Vc* C Vc (Rayleigh-Ritz), which separates the two
    eigenvalues again. Pairs still over EIGEN_TOL after that are flagged
    in ok, not dropped.

    Yields EigenDecomposition blocks, each a run of whole clusters with at
    least EIGEN_BLOCK columns (the last may have fewer), with the count of
    pairs it rotated. No step reads across a cluster's edge, so the blocks
    do not change a bit of the result. Only the current block is held,
    O(EIGEN_BLOCK m) memory, and no size cap applies.
    """
    import scipy.linalg as sla

    hb = _hermitian_part(op.bands)
    h_vals = sla.eig_banded(hb[: N_BANDS_UP + 1], eigvals_only=True)
    clusters: list[np.ndarray] = []
    for rows in _inverse_iteration(hb, h_vals):
        clusters.append(rows)
        if sum(map(len, clusters)) >= EIGEN_BLOCK:
            yield _block(op.bands, clusters)
            clusters = []
    if clusters:
        yield _block(op.bands, clusters)
