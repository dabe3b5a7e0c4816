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

from .sampling import TrigPolynomial, evaluate_many
from .torus_dynamics import ORBIT_BLOCK, ToralAutomorphism, TorusPoint, orbit_slices


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


# orbit points (rows x steps) of one slice of a many-row stream: the slices
# of a Lyapunov cell's expansion sums and of a deviation chunk's Monte Carlo
# passes hold at most this many points per array, whatever N is
SLICE_POINTS = 1 << 15


def sample_slices(
    autom: ToralAutomorphism, alpha: TrigPolynomial, starts, N: int, width: int = ORBIT_BLOCK
):
    """The unscaled samples F_n = alpha(A^n p), n < N, of every start p of a
    (B, 2) array, as (B, <= width) slices of its orbit_slices."""
    for xs, ys in orbit_slices(autom, starts, N, width):
        yield evaluate_many(alpha, xs, ys)


def coefficient_slices(cfg: VerblunskyConfig, N: int):
    """The first N coefficients of one config as (1, <= ORBIT_BLOCK) slices,
    each lam times its samples, scaled in place."""
    for F in sample_slices(cfg.autom, cfg.alpha, [[cfg.base.x, cfg.base.y]], N):
        F *= cfg.lam
        yield F


def sequence(cfg: VerblunskyConfig, N: int) -> np.ndarray:
    """The first N coefficients as one array."""
    if N < 0:
        raise ValueError("length must be nonnegative")
    alphas = np.empty(N, dtype=np.complex128)
    pos = 0
    for block in coefficient_slices(cfg, N):
        alphas[pos : pos + block.shape[1]] = block[0]
        pos += block.shape[1]
    return alphas
