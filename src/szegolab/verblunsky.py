"""Verblunsky coefficients sampled along a hyperbolic torus orbit.

The coefficient sequence is alpha_n = lam * alpha(A^n p) where alpha is a
zero-mean trigonometric polynomial, A a hyperbolic automorphism and p the
orbit base point. The coupling keeps every coefficient strictly inside
the unit disk because lam * sup_bound < 1 is enforced at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import TrigPolynomial, evaluate, evaluate_many
from .torus_dynamics import ToralAutomorphism, TorusPoint, iterate, orbit_blocks


@dataclass(frozen=True)
class VerblunskyConfig:
    """Full description of one coefficient sequence; lam is the coupling
    strength."""

    lam: float
    base: TorusPoint
    autom: ToralAutomorphism
    alpha: TrigPolynomial

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError("coupling lam must be positive and finite")
        if self.lam * self.alpha.sup_bound >= 1.0:
            raise ValueError(
                "lam * sup_bound must stay below 1, got "
                f"{self.lam * self.alpha.sup_bound}"
            )


def coefficient(cfg: VerblunskyConfig, n: int) -> complex:
    """Single coefficient alpha_n; n must be nonnegative."""
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    p = iterate(cfg.autom, cfg.base, n)
    return cfg.lam * evaluate(cfg.alpha, p)


def _samples(cfg: VerblunskyConfig, N: int):
    """The unscaled samples F_n = alpha(A^n p), n < N, one orbit block at a
    time; every streamer below reads them from here."""
    for bx, by in orbit_blocks(cfg.autom, cfg.base, N):
        yield evaluate_many(cfg.alpha, bx, by)


def sequence(cfg: VerblunskyConfig, N: int) -> tuple[np.ndarray, np.ndarray]:
    """First N coefficients and their complementary radii as arrays."""
    if N < 0:
        raise ValueError("length must be nonnegative")
    alphas = np.empty(N, dtype=np.complex128)
    pos = 0
    for F in _samples(cfg, N):
        alphas[pos : pos + len(F)] = F
        pos += len(F)
    alphas *= cfg.lam
    rhos = np.sqrt(1.0 - np.abs(alphas) ** 2)
    return alphas, rhos


def sampled_values_blocks(cfg: VerblunskyConfig, N: int):
    """Stream the unscaled samples F_n, so that the coefficient sequence is
    lam times the streamed values."""
    yield from _samples(cfg, N)
