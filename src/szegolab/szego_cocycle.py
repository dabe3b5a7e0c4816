"""Szego cocycle over the torus automorphism and Lyapunov exponents.

One step of the cocycle is the determinant-one matrix

    A(alpha, s) = (1 - |alpha|^2)^{-1/2} [[s, -conj(alpha)/s],
                                          [-alpha s, 1/s]]

with s a fixed square root of the spectral parameter z on the unit circle.
Products over the coefficient sequence are accumulated in scaled form
(matrix times exp(log_scale)) so runs of 10^7 steps neither overflow nor
lose the exponent. The same module carries the recursion for the
orthogonal polynomials of the first and second kind, which gives an
independent route to the Lyapunov exponent and a cross-check identity
tying the product to the polynomials. Both run on the monic engine of
_kernels; step_matrix stays as the per-step oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import monic_scan
from .verblunsky import VerblunskyConfig, iter_blocks

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpectralPoint:
    """Point z = e^{i eta} on the unit circle with a chosen square root.

    branch selects between the two square roots; the default is
    s = e^{i eta / 2}. Flipping the branch multiplies an N-step product by
    (-1)^N and is exposed for diagnostics only.
    """

    eta: float
    branch: int = 1

    def __post_init__(self):
        object.__setattr__(self, "eta", float(self.eta) % TWO_PI)
        if self.branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")

    @property
    def z(self) -> complex:
        return cmath.exp(1j * self.eta)

    @property
    def sqrt_z(self) -> complex:
        return self.branch * cmath.exp(0.5j * self.eta)

    def phase_power(self, n: int) -> complex:
        """sqrt_z raised to the n-th power, evaluated stably for large n."""
        out = cmath.exp(0.5j * ((n * self.eta) % (2.0 * TWO_PI)))
        if self.branch == -1 and n % 2:
            out = -out
        return out


def step_matrix(alpha_n: complex, s: SpectralPoint) -> np.ndarray:
    """Single determinant-one cocycle step for one coefficient."""
    a = complex(alpha_n)
    if abs(a) >= 1.0:
        raise ValueError("coefficient must lie strictly inside the unit disk")
    r = math.sqrt(1.0 - abs(a) ** 2)
    sq = s.sqrt_z
    return np.array(
        [[sq / r, -np.conj(a) / (sq * r)], [-a * sq / r, 1.0 / (sq * r)]],
        dtype=np.complex128,
    )


@dataclass(frozen=True)
class ScaledProduct:
    """Product of cocycle steps stored as matrix * exp(log_scale).

    The stored matrix has max-entry modulus one by construction (the
    engine renormalizes the product), so all the growth lives in log_scale.
    """

    matrix: np.ndarray
    log_scale: float
    steps: int

    def sigma_max(self) -> float:
        """Largest singular value of the stored matrix (closed form)."""
        m = self.matrix
        t = float(np.sum(np.abs(m) ** 2))
        d = abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) ** 2
        disc = max(t * t - 4.0 * d, 0.0)
        return math.sqrt((t + math.sqrt(disc)) / 2.0)

    def log_norm(self) -> float:
        """log of the operator norm of the full product."""
        return self.log_scale + math.log(self.sigma_max())

    def log_abs_det(self) -> float:
        """log |det| of the full product; zero for determinant-one steps."""
        m = self.matrix
        return 2.0 * self.log_scale + math.log(
            abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        )

    def recover(self) -> np.ndarray:
        """Unscaled product matrix; overflows for long runs, test use only."""
        return self.matrix * math.exp(self.log_scale)


def _log_rho(alphas: np.ndarray) -> np.ndarray:
    """Sum of log rho_n = log sqrt(1 - |alpha_n|^2) along the last axis."""
    aa = alphas.real**2 + alphas.imag**2
    if not np.all(aa < 1.0):
        raise ValueError("coefficients must lie strictly inside the unit disk")
    return 0.5 * np.log1p(-aa).sum(axis=-1)


def transfer(cfg: VerblunskyConfig, s: SpectralPoint, N: int) -> ScaledProduct:
    """N-step cocycle product, later steps multiplying from the left.

    A(alpha, s) is the monic step P(alpha, z) over rho s, so the product is
    s^{-N} prod(1/rho) times the monic product started from the identity.
    """
    if N < 0:
        raise ValueError("step count must be nonnegative")
    top = np.array([[1.0, 0.0]], dtype=np.complex128)
    bot = np.array([[0.0, 1.0]], dtype=np.complex128)
    log_scale = 0.0
    for alphas in iter_blocks(cfg, N):
        block = alphas[None, :]
        log_scale += float(monic_scan(block, s.z, top, bot)[0] - _log_rho(block)[0])
    matrix = s.phase_power(-N) * np.vstack([top, bot])
    return ScaledProduct(matrix=matrix, log_scale=log_scale, steps=N)


@dataclass(frozen=True)
class PolynomialQuad:
    """First and second kind polynomials and their reversed partners at
    step n, stored as values times exp(log_r)."""

    phi: complex
    phi_star: complex
    psi: complex
    psi_star: complex
    log_r: float
    n: int

    def log_abs_phi(self) -> float:
        return self.log_r + math.log(abs(self.phi))

    def log_abs_psi(self) -> float:
        return self.log_r + math.log(abs(self.psi))


def _poly_run(blocks, z, batch: int):
    """The four-polynomial recursion over a stream of (1 or batch, n)
    coefficient blocks: the monic product applied to the columns
    (phi, phi*) = (1, 1) and (psi, -psi*) = (1, -1). Returns the stored
    tops (phi, psi), bottoms (phi*, -psi*) and their shared log scale."""
    top = np.ones((batch, 2), dtype=np.complex128)
    bot = np.ones((batch, 2), dtype=np.complex128)
    bot[:, 1] = -1.0
    log_r = np.zeros(batch)
    for alphas in blocks:
        log_r += monic_scan(alphas, z, top, bot) - _log_rho(alphas)
    return top, bot, log_r


def _growth(top: np.ndarray, log_r: np.ndarray, N: int) -> np.ndarray:
    """(1/2N) log(|phi_N|^2 + |psi_N|^2) per row."""
    return (log_r + 0.5 * np.log(np.abs(top[:, 0]) ** 2 + np.abs(top[:, 1]) ** 2)) / N


def polynomials(cfg: VerblunskyConfig, s: SpectralPoint, N: int) -> PolynomialQuad:
    """Run the recursion for (phi, phi*, psi, psi*) up to step N.

    The second-kind pair evolves with the sign-flipped coefficients. All
    four values share one running scale factor exp(log_r).
    """
    if N < 0:
        raise ValueError("step count must be nonnegative")
    blocks = (alphas[None, :] for alphas in iter_blocks(cfg, N))
    top, bot, log_r = _poly_run(blocks, s.z, 1)
    return PolynomialQuad(
        phi=complex(top[0, 0]),
        phi_star=complex(bot[0, 0]),
        psi=complex(top[0, 1]),
        psi_star=complex(-bot[0, 1]),
        log_r=float(log_r[0]),
        n=N,
    )


def transfer_identity_residual(cfg: VerblunskyConfig, s: SpectralPoint, N: int) -> float:
    """Relative Frobenius mismatch between the cocycle product and the
    polynomial combination

        M_N = s^{-N} / 2 * [[phi + psi, phi - psi],
                            [phi* - psi*, phi* + psi*]].

    The prefactor s^{-N} restores determinant one; without it the scalar
    side has determinant z^N.
    """
    prod = transfer(cfg, s, N)
    quad = polynomials(cfg, s, N)
    phase = s.phase_power(-N)
    combo = 0.5 * phase * np.array(
        [
            [quad.phi + quad.psi, quad.phi - quad.psi],
            [quad.phi_star - quad.psi_star, quad.phi_star + quad.psi_star],
        ],
        dtype=np.complex128,
    )
    scale = math.exp(quad.log_r - prod.log_scale)
    diff = prod.matrix - scale * combo
    return float(np.linalg.norm(diff) / np.linalg.norm(prod.matrix))


def lyapunov_poly(cfg: VerblunskyConfig, s: SpectralPoint, N: int) -> float:
    """Finite-volume Lyapunov exponent from the polynomial route,
    (1/2N) log(|phi_N|^2 + |psi_N|^2)."""
    return float(lyapunov_poly_many(cfg, [s], N)[0])


def lyapunov_poly_many(
    cfg: VerblunskyConfig, points: list[SpectralPoint], N: int
) -> np.ndarray:
    """lyapunov_poly at every point.

    The coefficient stream is generated once and the polynomial recursion
    advances all points together, with the points on the batch axis.
    """
    if N <= 0:
        raise ValueError("need at least one step")
    z = np.array([s.z for s in points], dtype=np.complex128)
    if z.size == 0:
        return np.empty(0)
    blocks = (alphas[None, :] for alphas in iter_blocks(cfg, N))
    top, _, log_r = _poly_run(blocks, z, z.size)
    return _growth(top, log_r, N)


def lyapunov_poly_rows(alphas: np.ndarray, s: SpectralPoint) -> np.ndarray:
    """lyapunov_poly of every row of a (rows, N) coefficient array."""
    top, _, log_r = _poly_run([alphas], s.z, alphas.shape[0])
    return _growth(top, log_r, alphas.shape[1])


def lyapunov_norm(cfg: VerblunskyConfig, s: SpectralPoint, N: int) -> float:
    """Finite-volume Lyapunov exponent from the product operator norm."""
    if N <= 0:
        raise ValueError("need at least one step")
    return transfer(cfg, s, N).log_norm() / N
