"""Scalar and dense references the tests hold the package's engines to.

Each oracle computes a quantity the package also computes, by the plain
route: one orbit step at a time (in floats, or exactly in fractions of a
turn), one sample, one Prufer step or one cocycle step at a time, growth
rates one monic step at a time in long double, the engine's
renormalization by its first formula, the samples by complex exponentials, the zeta trace and the expansion terms
from whole-orbit arrays, the LDT statistics from whole rows, the window
matrix filled densely from its bands, the product norm by SVD, one decay
fit per eigenvector, correlations by Monte Carlo. None of them runs in
the package itself.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from szegolab.cmv_operator import DENSE_CAP, N_BANDS_LOW, N_BANDS_UP, FiniteCMV
from szegolab.experiments import BOUNDARY_SKIP, FitResult, linear_fit
from szegolab.prufer import ExpansionDiagnostics, circle_variables, default_decorrelation_time
from szegolab.sampling import (
    TrigPolynomial,
    autocorrelation_exact,
    evaluate_many,
    spectral_function,
)
from szegolab.szego_cocycle import SpectralPoint, _growth, _log_rho, _poly_run, transfer
from szegolab.torus_dynamics import FREQUENCY_POWER_CAP, TWO_PI, ToralAutomorphism
from szegolab.verblunsky import VerblunskyConfig, sample_slices


def scalar_orbit(
    A: ToralAutomorphism, x: float, y: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first n orbit points of (x, y), one Python float step at a time,
    reducing modulo 2 pi after each step; the start is reduced as
    TorusPoint does."""
    (a, b), (c, d) = A.entries
    x, y = float(x) % TWO_PI, float(y) % TWO_PI
    xs = np.empty(n)
    ys = np.empty(n)
    for i in range(n):
        xs[i], ys[i] = x, y
        x, y = (a * x + b * y) % TWO_PI, (c * x + d * y) % TWO_PI
    return xs, ys


def exact_orbit(
    A: ToralAutomorphism, x_turn, y_turn, n: int
) -> list[tuple[Fraction, Fraction]]:
    """The first n orbit points of a rational start, in turns (fractions
    of 2 pi), stepped exactly and reduced modulo one turn."""
    (a, b), (c, d) = A.entries
    x, y = Fraction(x_turn) % 1, Fraction(y_turn) % 1
    out = []
    for _ in range(n):
        out.append((x, y))
        x, y = (a * x + b * y) % 1, (c * x + d * y) % 1
    return out


def evaluate_exp(alpha: TrigPolynomial, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values of the polynomial on coordinate arrays, each frequency's term
    as c * np.exp(1j * phase)."""
    out = np.zeros(np.broadcast(x, y).shape, dtype=np.complex128)
    for (k1, k2), c in alpha.coeffs.items():
        out += c * np.exp(1j * (k1 * x + k2 * y))
    return out


def evaluate(alpha: TrigPolynomial, x: float, y: float) -> complex:
    """Value of the polynomial at one point of radian coordinates, one
    frequency at a time through math.cos and math.sin."""
    out = 0.0 + 0.0j
    for (k1, k2), c in alpha.coeffs.items():
        out += c * complex(math.cos(k1 * x + k2 * y), math.sin(k1 * x + k2 * y))
    return out


@dataclass(frozen=True)
class PruferState:
    """Radius (as log), phase, circle variable and step counter."""

    log_r: float
    theta: float
    zeta: complex
    n: int


def init(s: SpectralPoint) -> PruferState:
    """State matching phi_0 = phi*_0 = 1: zeta starts at z itself."""
    return PruferState(log_r=0.0, theta=0.0, zeta=s.z, n=0)


def step(state: PruferState, alpha_n: complex, s: SpectralPoint) -> PruferState:
    """Advance one step; alpha_n must lie strictly inside the unit disk."""
    a = complex(alpha_n)
    aa = abs(a) ** 2
    if aa >= 1.0:
        raise ValueError("coefficient must lie strictly inside the unit disk")
    az = a * state.zeta
    w = 1.0 - az
    # Re(w) >= 1 - |a| > 0, so the principal argument is already the
    # nearest-branch phase increment; the assertion pins the invariant and
    # the principal value doubles as the fallback if it were ever violated.
    assert w.real > 0.0 or abs(cmath.phase(w)) <= math.pi
    dtheta = -cmath.phase(w)
    hn = (1.0 + aa - 2.0 * az.real) / (1.0 - aa)
    zeta = s.z * state.zeta * (1.0 + aa - 2.0 * az.real) / (w * w)
    zeta /= abs(zeta)
    return PruferState(
        log_r=state.log_r + 0.5 * math.log(hn),
        theta=state.theta + dtheta,
        zeta=zeta,
        n=state.n + 1,
    )


def zeta_trace(cfg: VerblunskyConfig, s: SpectralPoint, N: int) -> tuple[np.ndarray, float]:
    """Circle variables zeta_0 .. zeta_{N-1} (value seen by step n) together
    with the final log-radius, log r_N = sum of log(H_n) / 2 along the
    trace. Materializes 2N complex values: the trace and its samples."""
    return _samples_and_zeta_trace(cfg, s, N)[1:3]


def _samples_and_zeta_trace(
    cfg: VerblunskyConfig, s: SpectralPoint, N: int
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """zeta_trace together with the unscaled samples F_n (alpha_n = lam * F_n)
    that drive it and log |phi_N| (block log scales plus log |top_N|, minus
    sum log rho_n), from one pass over the orbit."""
    top = np.ones((1, 1), dtype=np.complex128)
    bot = np.ones((1, 1), dtype=np.complex128)
    F = np.empty(N, dtype=np.complex128)
    zetas = np.empty(N, dtype=np.complex128)
    log_r = 0.0
    log_phi = 0.0
    pos = 0
    # one row, in slices of the default ORBIT_BLOCK points
    for Fb in sample_slices(cfg.autom, cfg.alpha, [[cfg.base.x, cfg.base.y]], N):
        n = Fb.shape[1]
        F[pos : pos + n] = Fb[0]
        Fb *= cfg.lam  # the slice's coefficients, scaled in place
        zs, half_log_h, log_scale = circle_variables(Fb, s.z, top, bot)
        zetas[pos : pos + n] = zs[0, :-1]
        log_r += float(half_log_h.sum())
        log_phi += float(log_scale[0] - _log_rho(Fb)[0])
        pos += n
    return F, zetas, log_r, log_phi + math.log(abs(top[0, 0]))


def expansion_diagnostics(cfg: VerblunskyConfig, s: SpectralPoint, N: int) -> ExpansionDiagnostics:
    """Evaluate the expansion terms on one orbit, as a cell of one row.

    Materializes the sample values and circle variables (32 bytes per
    step), so N around 10^6 is comfortable and 10^7 is the practical top.
    """
    T = default_decorrelation_time(cfg.lam, cfg.autom)
    if N <= T:
        raise ValueError(f"N = {N} must exceed the lag T = {T}")
    lam = cfg.lam
    z = s.z
    F, zetas, log_r, log_phi = _samples_and_zeta_trace(cfg, s, N)

    zF = zetas * F
    I1 = (lam**2 / (2.0 * N)) * float(np.sum(np.abs(F) ** 2))
    I2 = -(lam / N) * float(np.sum(zF.real))
    I3 = -(lam**2 / (2.0 * N)) * float(np.sum((zF**2).real))
    lhs = log_r / N
    residual_123 = abs(lhs - (I1 + I2 + I3))

    zT = z**T
    I4 = -(lam / N) * float(np.sum((zT * zetas[: N - T] * F[T:]).real))
    I5 = 0.0
    I6 = 0.0
    zeta_back_sq = zetas[: N - T] ** 2
    for sh in range(1, T + 1):
        cross = np.conj(F[T - sh : N - sh]) * F[T:]
        I5 += (lam**2 / N) * float(np.sum((z**sh * cross).real))
        tangled = zeta_back_sq * F[T - sh : N - sh] * F[T:]
        I6 -= (lam**2 / N) * float(np.sum((z ** (2 * T - sh) * tangled).real))
    residual_456 = abs(I2 - (I4 + I5 + I6))
    terms = dict(
        I1=I1,
        I2=I2,
        I3=I3,
        I4=I4,
        I5=I5,
        I6=I6,
        lhs=lhs,
        lhs_poly=log_phi / N,
        residual_123=residual_123,
        residual_456=residual_456,
    )
    return ExpansionDiagnostics(N=N, T=T, **{k: np.array([v]) for k, v in terms.items()})


def deviation_statistics(plan, family: str, lam: float, N: int, F: np.ndarray) -> dict:
    """The statistics of an LDT family on whole (samples, N) rows of
    unscaled orbit samples F, each a mean over its row: the modulus of the
    orbit average (birkhoff); the distance of the polynomial-route growth
    rate, run over the whole rows, from lam^2 J(eta) / 2 (lyapunov); and
    the expansion terms of the prufer family, their lagged means over
    N - T and N - sh steps."""
    if family == "birkhoff":
        return {"birkhoff": np.abs(np.mean(F, axis=1))}
    s = SpectralPoint(eta=plan.etas[0])
    z = s.z
    if family == "lyapunov":
        pred = 0.5 * lam * lam * float(spectral_function(plan.alpha, plan.autom, s.eta))
        top, _, log_r = _poly_run([lam * F], z, F.shape[0])
        return {"lyapunov": np.abs(_growth(top, log_r, N) - pred)}
    T = default_decorrelation_time(lam, plan.autom)
    corr_limit = sum(
        (z**sh * autocorrelation_exact(plan.alpha, plan.autom, sh)).real
        for sh in range(1, min(T, FREQUENCY_POWER_CAP) + 1)
    )
    top = np.ones((F.shape[0], 1), dtype=np.complex128)
    bot = np.ones((F.shape[0], 1), dtype=np.complex128)
    zetas = circle_variables(lam * F, z, top, bot)[0][:, :-1]
    corr = sum(
        np.mean((z**sh * np.conj(F[:, : N - sh]) * F[:, sh:]).real, axis=1)
        for sh in range(1, T + 1)
    )
    mixed = np.mean((z**T * zetas[:, : N - T] * F[:, T:]).real, axis=1)
    return {
        "fsq": np.abs(np.mean(np.abs(F) ** 2, axis=1) - plan.alpha.mean_square()),
        "mixed": np.abs(mixed),
        "corr": np.abs(corr - corr_limit),
        "zeta2": 0.5 * np.abs(np.mean((zetas**2 * F**2).real, axis=1)),
    }


def step_matrix(alpha_n: complex, s: SpectralPoint) -> np.ndarray:
    """Single determinant-one cocycle step for one coefficient."""
    a = complex(alpha_n)
    if abs(a) >= 1.0:
        raise ValueError("coefficient must lie strictly inside the unit disk")
    r = math.sqrt(1.0 - abs(a) ** 2)
    sq = cmath.exp(0.5j * s.eta)  # the square root s of z
    return np.array(
        [[sq / r, -np.conj(a) / (sq * r)], [-a * sq / r, 1.0 / (sq * r)]],
        dtype=np.complex128,
    )


def renormalize(top: np.ndarray, bot: np.ndarray, log_scale: np.ndarray) -> None:
    """The engine's renormalization by its first formula: the max-entry
    modulus of each state as a reduction over the trailing axis of both
    halves, zero rows left as they are."""
    mx = np.maximum(np.abs(top).max(axis=-1), np.abs(bot).max(axis=-1))
    mx[mx == 0.0] = 1.0
    top /= mx[..., None]
    bot /= mx[..., None]
    log_scale += np.log(mx)


def growth_rate_extended(alphas: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The polynomial-route growth rate (1/2N) log(|phi_N|^2 + |psi_N|^2)
    of one coefficient row at every z, by the monic step route in
    np.clongdouble: the given double alphas and z are widened, stepped one
    at a time and renormalized every 32 steps. Returns longdouble values;
    where longdouble is double this is the step route itself."""
    a = np.asarray(alphas).astype(np.clongdouble)
    zs = np.asarray(z).astype(np.clongdouble)[:, None]
    N = a.shape[0]
    top = np.ones((zs.shape[0], 2), dtype=np.clongdouble)
    bot = top.copy()
    bot[:, 1] = -1.0
    log_r = np.zeros(zs.shape[0], dtype=np.longdouble)
    for k, ak in enumerate(a):
        zt = top * zs
        top = zt - np.conj(ak) * bot
        bot = bot - ak * zt
        if (k + 1) % 32 == 0 or k + 1 == N:
            mx = np.maximum(np.abs(top).max(axis=1), np.abs(bot).max(axis=1))
            top /= mx[:, None]
            bot /= mx[:, None]
            log_r += np.log(mx)
    log_r -= 0.5 * np.log1p(-(a.real**2 + a.imag**2)).sum()
    return (log_r + 0.5 * np.log(np.abs(top[:, 0]) ** 2 + np.abs(top[:, 1]) ** 2)) / N


def log_norm(matrix: np.ndarray, log_scale: float) -> float:
    """log of the operator norm of matrix * exp(log_scale)."""
    return log_scale + math.log(np.linalg.norm(matrix, 2))


def lyapunov_norm(cfg: VerblunskyConfig, s: SpectralPoint, N: int) -> float:
    """Finite-volume Lyapunov exponent from the product operator norm."""
    prod = transfer(cfg, s, N)
    return log_norm(prod.matrix, prod.log_scale) / N


def dense(op: FiniteCMV) -> np.ndarray:
    """The window matrix filled densely from its bands."""
    m = op.m
    if m > DENSE_CAP:
        raise ValueError(f"dense form capped at {DENSE_CAP} sites")
    out = np.zeros((m, m), dtype=np.complex128)
    for off in range(-N_BANDS_LOW, N_BANDS_UP + 1):
        # entry (j + off, j) sits at band row u + off, column j
        j = np.arange(max(-off, 0), m - max(off, 0))
        out[j + off, j] = op.bands[N_BANDS_UP + off, j]
    return out


def eigenvector_decay_fit(vec: np.ndarray) -> FitResult:
    """Exponential decay fit of a profile from its peak outward.

    Fits log|vec(n)| = intercept - rate |n - peak| over both sides
    pooled, skipping BOUNDARY_SKIP sites at each end and any exact
    zeros. The returned slope is the decay rate (positive = decay).
    """
    mag = np.abs(np.asarray(vec))
    m = mag.size
    if m <= 2 * BOUNDARY_SKIP + 2:
        raise ValueError("profile too short for a decay fit")
    peak = int(np.argmax(mag))
    idx = np.arange(BOUNDARY_SKIP, m - BOUNDARY_SKIP)
    keep = mag[idx] > 0.0
    idx = idx[keep]
    if idx.size < 3:
        raise ValueError("not enough nonzero sites for a decay fit")
    fit = linear_fit(-np.abs(idx - peak).astype(float), np.log(mag[idx]))
    return fit


class _BirkhoffEstimate(NamedTuple):
    value: complex
    stderr: float


def autocorrelation_birkhoff(
    alpha: TrigPolynomial,
    A: ToralAutomorphism,
    n: int,
    samples: int,
    seed: int,
) -> _BirkhoffEstimate:
    """Monte Carlo estimate of the autocorrelation over uniform points.

    Returns the sample mean of conj(alpha(p)) alpha(A^n p) and the standard
    error of that mean (combined over real and imaginary parts).
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, TWO_PI, size=samples)
    y = rng.uniform(0.0, TWO_PI, size=samples)
    v0 = evaluate_many(alpha, x, y)
    (a, b), (c, d) = A.entries
    if n < 0:
        (a, b), (c, d) = (d, -b), (-c, a)
    for _ in range(abs(n)):
        x, y = (a * x + b * y) % TWO_PI, (c * x + d * y) % TWO_PI
    vn = evaluate_many(alpha, x, y)
    w = np.conj(v0) * vn
    mean = complex(w.mean())
    stderr = float(np.sqrt(np.mean(np.abs(w - mean) ** 2) / samples))
    return _BirkhoffEstimate(mean, stderr)
