"""Sampling functions on the torus and their dynamical correlations.

The sampling function is a trigonometric polynomial with zero mean and
sup-norm bound below one. Because the automorphism permutes frequencies,
autocorrelations along the orbit reduce to finite exact sums, the
correlation sequence has compact support, and its Fourier transform (the
spectral function evaluated on the unit circle) is available in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .torus_dynamics import TWO_PI, ToralAutomorphism, frequency_pushforward


@dataclass(frozen=True)
class TrigPolynomial:
    """Zero-mean trigonometric polynomial sum_k c_k exp(i k . p).

    coeffs maps integer frequency pairs to complex amplitudes. sup_bound is
    the triangle-inequality bound sum |c_k| and must not exceed one.
    """

    coeffs: Mapping[tuple[int, int], complex]
    sup_bound: float

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[tuple[int, int], complex]) -> "TrigPolynomial":
        clean: dict[tuple[int, int], complex] = {}
        for k, c in coeffs.items():
            k1, k2 = int(k[0]), int(k[1])
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient at {k}")
            if c == 0:
                continue
            if (k1, k2) == (0, 0):
                raise ValueError("mean must vanish: coefficient at (0, 0)")
            clean[(k1, k2)] = clean.get((k1, k2), 0.0) + c
        clean = {k: c for k, c in clean.items() if c != 0}
        if not clean:
            raise ValueError("empty coefficient set")
        sup = sum(abs(c) for c in clean.values())
        if sup > 1.0 + 1e-12:
            raise ValueError(f"sup-norm bound {sup} exceeds 1")
        return cls(coeffs=clean, sup_bound=sup)

    def mean_square(self) -> float:
        """Spatial average of |value|^2 (Parseval)."""
        return sum(abs(c) ** 2 for c in self.coeffs.values())


PRESETS = {
    "alpha0": {(1, 0): 0.5, (0, 1): 0.5},
    "alpha1": {(1, 0): 0.5, (2, 1): 0.5},
}


def preset(name: str) -> TrigPolynomial:
    try:
        coeffs = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
    return TrigPolynomial.from_coeffs(coeffs)


def _unit_wave(k1: int, k2: int, x, y, phase: np.ndarray) -> np.ndarray:
    """exp(1j * (k1 x + k2 y)) as a new complex array: the phase goes
    into the float work array phase (the result's real half holds k2 y
    on the way), then its cosine and sine into the real and imaginary
    halves of the result."""
    wave = np.empty(phase.shape, dtype=np.complex128)
    np.multiply(k1, x, out=phase)
    np.multiply(k2, y, out=wave.real)
    phase += wave.real
    np.cos(phase, out=wave.real)
    np.sin(phase, out=wave.imag)
    return wave


def evaluate_many(alpha: TrigPolynomial, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on coordinate arrays, with the bits of
    sum c * np.exp(1j * phase) and one temporary per frequency. The wave
    is a temporary as exp's result was, so numpy forms its product with c
    in the same operand order (numpy may reuse a large temporary for the
    product, and its complex product is not symmetric in the last bit)."""
    out = np.zeros(np.broadcast(x, y).shape, dtype=np.complex128)
    phase = np.empty(out.shape)
    for (k1, k2), c in alpha.coeffs.items():
        out += c * _unit_wave(k1, k2, x, y, phase)
    return out


def autocorrelation_exact(alpha: TrigPolynomial, A: ToralAutomorphism, n: int) -> complex:
    """<conj(alpha(p)) alpha(A^n p)> integrated over the torus.

    The automorphism maps the frequency k of alpha(A^n .) to (A^T)^n k, so
    the integral picks out coincidences with the original support and the
    sum is exact.
    """
    out = 0.0 + 0.0j
    for k, c in alpha.coeffs.items():
        kn = frequency_pushforward(A, k, n)
        base = alpha.coeffs.get(kn)
        if base is not None:
            # term <conj(c_kn e^{i kn p}) c_k e^{i kn p}> of <conj(alpha) alpha o A^n>
            out += np.conj(base) * c
    return complex(out)


def _dual_components(A: ToralAutomorphism, k: tuple[int, int]) -> tuple[float, float]:
    """Coordinates of the frequency k in the eigenbasis of the transpose.

    The transpose has the same eigenvalues; its eigenvector for rho is
    orthogonal to v_minus and vice versa, which gives the components by
    projection without solving a system.
    """
    vpx, vpy = A.v_plus
    vmx, vmy = A.v_minus
    # write k = c_plus u_plus + c_minus u_minus with u_plus _|_ v_minus
    up = np.array([vmy, -vmx])
    um = np.array([vpy, -vpx])
    kv = np.array([float(k[0]), float(k[1])])
    det = up[0] * um[1] - up[1] * um[0]
    c_plus = (kv[0] * um[1] - kv[1] * um[0]) / det
    c_minus = (up[0] * kv[1] - up[1] * kv[0]) / det
    return c_plus, c_minus


def correlation_cutoff(alpha: TrigPolynomial, A: ToralAutomorphism) -> int:
    """Smallest N_c with autocorrelation identically zero for |n| > N_c.

    A frequency pushed forward n times has norm at least
    |c_plus| rho^n - |c_minus|, so once that exceeds the support radius the
    correlation vanishes for good; the returned cutoff is then sharpened by
    direct evaluation below that bound.
    """
    support = list(alpha.coeffs)
    radius = max(math.hypot(k[0], k[1]) for k in support)
    log_rho = math.log(abs(A.rho))
    bound = 0
    for k in support:
        c_plus, c_minus = _dual_components(A, k)
        for grow, other in ((abs(c_plus), abs(c_minus)), (abs(c_minus), abs(c_plus))):
            # integer frequencies never sit on an eigendirection (the
            # eigenvalue is a quadratic irrational), so grow > 0
            n0 = math.ceil(math.log((radius + other + 1.0) / grow) / log_rho)
            bound = max(bound, n0)
    bound = max(bound, 1)
    if bound > 200:
        raise ValueError("support too spread out for a practical cutoff")
    cutoff = 0
    for n in range(1, bound + 1):
        if autocorrelation_exact(alpha, A, n) != 0 or autocorrelation_exact(alpha, A, -n) != 0:
            cutoff = n
    return cutoff


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Two-sided correlation sequence and its trigonometric transform.

    correlations[i] holds the autocorrelation at lag i - cutoff for
    i = 0 .. 2 cutoff. Values at lags beyond the cutoff vanish exactly.
    """

    correlations: np.ndarray
    cutoff: int

    @classmethod
    def build(cls, alpha: TrigPolynomial, A: ToralAutomorphism) -> "CorrelationSpectrum":
        nc = correlation_cutoff(alpha, A)
        corr = np.array(
            [autocorrelation_exact(alpha, A, n) for n in range(-nc, nc + 1)],
            dtype=np.complex128,
        )
        return cls(correlations=corr, cutoff=nc)

    def value(self, eta) -> float | np.ndarray:
        """Spectral function sum_n e^{i n eta} corr(n) at one angle, or at
        an array of angles as an array of the same shape."""
        eta = np.asarray(eta, dtype=float)
        n = np.arange(-self.cutoff, self.cutoff + 1)
        total = np.sum(np.exp(1j * n * eta[..., None]) * self.correlations, axis=-1)
        bad = np.abs(total.imag) > 1e-10
        if np.any(bad):
            raise ValueError(f"spectral function not real at eta={eta[bad][0]}: {total[bad][0]}")
        return float(total.real) if eta.ndim == 0 else total.real


def spectral_function(alpha: TrigPolynomial, A: ToralAutomorphism, eta) -> float | np.ndarray:
    """Spectral function at one angle or an array of angles."""
    return CorrelationSpectrum.build(alpha, A).value(eta)


WINDOW_GRID_STEP = 1e-3
BISECT_TOL = 1e-12


def spectral_window(
    alpha: TrigPolynomial,
    A: ToralAutomorphism,
    delta: float,
    c: float,
) -> list[tuple[float, float]]:
    """Subintervals of [delta, pi - delta] u [pi + delta, 2 pi - delta]
    where the spectral function exceeds c.

    The ranges are scanned in steps of WINDOW_GRID_STEP. Endpoints interior
    to them are located by bisection to BISECT_TOL; endpoints at the range
    boundary are kept as is.
    """
    if not (0.0 < delta < math.pi / 4):
        raise ValueError("delta must lie in (0, pi/4)")
    if c <= 0.0:
        raise ValueError("level c must be positive")
    spec = CorrelationSpectrum.build(alpha, A)

    def f(eta: float) -> float:
        return spec.value(eta) - c

    intervals: list[tuple[float, float]] = []
    for lo, hi in ((delta, math.pi - delta), (math.pi + delta, TWO_PI - delta)):
        npts = max(2, int(math.ceil((hi - lo) / WINDOW_GRID_STEP)) + 1)
        grid = np.linspace(lo, hi, npts)
        vals = spec.value(grid) - c
        above = vals > 0.0
        start: float | None = None
        for i in range(npts):
            if above[i] and start is None:
                start = lo if i == 0 else _bisect(f, grid[i - 1], grid[i])
            elif not above[i] and start is not None:
                intervals.append((start, _bisect(f, grid[i - 1], grid[i])))
                start = None
        if start is not None:
            intervals.append((start, hi))
    return intervals


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < BISECT_TOL:
            return mid
        fm = f(mid)
        if (flo <= 0.0) == (fm <= 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
