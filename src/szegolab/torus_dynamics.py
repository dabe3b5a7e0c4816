"""Hyperbolic automorphisms of the two-torus and their orbits.

The torus is R^2 / (2 pi Z)^2. An automorphism is an integer matrix with
determinant one and trace of modulus larger than two, acting by matrix
multiplication modulo 2 pi. Orbits come from one stream, orbit_slices,
which every consumer reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import TWO_PI, WIDE_BATCH, orbit_block

Entries = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class ToralAutomorphism:
    """Validated integer matrix together with its eigendata.

    rho is the eigenvalue of modulus larger than one; v_plus and v_minus
    are unit eigenvectors for rho and for the other eigenvalue 1/rho.
    """

    entries: Entries
    rho: float
    v_plus: tuple[float, float]
    v_minus: tuple[float, float]

    @property
    def expansion_rate(self) -> float:
        """Log of the expanding eigenvalue modulus, the orbit's growth rate."""
        return math.log(abs(self.rho))


def _eigvec(entries: Entries, t: float) -> tuple[float, float]:
    (a, b), (c, d) = entries
    # Validation rules out b == 0 (that would force |trace| == 2).
    vx, vy = float(b), t - a
    norm = math.hypot(vx, vy)
    return (vx / norm, vy / norm)


def validate(matrix) -> ToralAutomorphism:
    """Check the hyperbolicity conditions and package the eigendata.

    Accepts a 2x2 nested sequence or a flat length-4 sequence of integers.
    Raises ValueError when the matrix is not integer, not of determinant
    one, or not hyperbolic.
    """
    flat = list(np.asarray(matrix).reshape(-1))
    if len(flat) != 4:
        raise ValueError("expected four integer entries")
    vals = []
    for v in flat:
        iv = int(v) if math.isfinite(v) else None
        if iv != v:
            raise ValueError(f"non-integer entry {v!r}")
        vals.append(iv)
    a, b, c, d = vals
    det = a * d - b * c
    if det != 1:
        raise ValueError(f"determinant must be 1, got {det}")
    tr = a + d
    if abs(tr) <= 2:
        raise ValueError(f"|trace| must exceed 2, got {tr}")
    entries = ((a, b), (c, d))
    disc = math.sqrt(tr * tr - 4.0)
    if tr > 0:
        rho = (tr + disc) / 2.0
    else:
        rho = (tr - disc) / 2.0
    return ToralAutomorphism(
        entries=entries,
        rho=rho,
        v_plus=_eigvec(entries, rho),
        v_minus=_eigvec(entries, 1.0 / rho),
    )


CAT_MAP = validate([[2, 1], [1, 1]])


@dataclass(frozen=True)
class TorusPoint:
    """Point on the torus, radian coordinates in [0, 2 pi)."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", self.x % TWO_PI)
        object.__setattr__(self, "y", self.y % TWO_PI)

    @classmethod
    def random(cls, rng: np.random.Generator) -> "TorusPoint":
        x, y = rng.uniform(0.0, TWO_PI, size=2)
        return cls(x=float(x), y=float(y))


def matrix_power(entries: Entries, n: int) -> Entries:
    """Exact integer power of a determinant-one matrix; n may be negative."""
    if n < 0:
        (a, b), (c, d) = entries
        return matrix_power(((d, -b), (-c, a)), -n)
    result = ((1, 0), (0, 1))
    base = entries
    while n > 0:
        if n & 1:
            (a, b), (c, d) = result
            (e, f), (g, h) = base
            result = (
                (a * e + b * g, a * f + b * h),
                (c * e + d * g, c * f + d * h),
            )
        (e, f), (g, h) = base
        base = (
            (e * e + f * g, e * f + f * h),
            (g * e + h * g, g * f + h * h),
        )
        n >>= 1
    return result


# Points per orbit slice of the coefficient streamers. Fixed: they feed one
# slice at a time to the recursion engine, whose along-time schedule is cut
# from the slice length, so the size sets the output bits.
ORBIT_BLOCK = 1 << 16


def orbit_slices(A: ToralAutomorphism, starts, n: int, width: int = ORBIT_BLOCK):
    """Yield the first n orbit points of many starts, width steps at a time.

    starts is a (B, 2) array of radian coordinates, reduced modulo 2 pi as
    TorusPoint does. Each slice is a pair of C-contiguous (B, <= width) x
    and y arrays. Below WIDE_BATCH rows every row steps on Python floats
    with its own carry; from there on all rows step together as arrays.
    The points are bitwise the same either way and do not depend on width.
    """
    (a, b), (c, d) = A.entries
    entries = float(a), float(b), float(c), float(d)
    starts = np.asarray(starts, dtype=float) % TWO_PI
    rows = starts.shape[0]
    batched = rows >= WIDE_BATCH
    # one (x, y) carry of (B,) arrays, or one of floats per row
    carry = [tuple(starts.T)] if batched else starts.tolist()
    for done in range(0, n, width):
        xs = np.empty((rows, min(width, n - done)))
        ys = np.empty_like(xs)
        outs = [(xs.T, ys.T)] if batched else zip(xs, ys)
        carry = [orbit_block(*entries, *xy, *out) for xy, out in zip(carry, outs)]
        yield xs, ys


FREQUENCY_POWER_CAP = 200


def frequency_pushforward(A: ToralAutomorphism, k: tuple[int, int], n: int) -> tuple[int, int]:
    """Image of an integer frequency vector under the transpose action,
    (A^T)^n k, computed in exact integer arithmetic.

    The power is capped at |n| <= 200; beyond that the entries are
    astronomically large and indicate a misuse upstream.
    """
    if abs(n) > FREQUENCY_POWER_CAP:
        raise ValueError(f"|n| <= {FREQUENCY_POWER_CAP} required, got {n}")
    k1, k2 = int(k[0]), int(k[1])
    (a, b), (c, d) = matrix_power(A.entries, n)
    # transpose of A^n acts on frequencies
    return (a * k1 + c * k2, b * k1 + d * k2)
