"""Prufer variables for the polynomial recursion on the unit circle.

Writing phi_n = r_n exp(i(n eta + theta_n)) and phi*_n = r_n exp(-i theta_n)
turns the polynomial recursion into a closed system for the radius r_n, the
phase theta_n, and the circle variable zeta_n = exp(i((n+1) eta + 2 theta_n)).
One step reads

    r_{n+1}^2 / r_n^2 = H_n = (1 + |a_n|^2 - 2 Re(a_n zeta_n)) / (1 - |a_n|^2)
    theta_{n+1} - theta_n = -arg(1 - a_n zeta_n)
    zeta_{n+1} = z zeta_n (1 + |a_n|^2 - 2 Re(a_n zeta_n)) / (1 - a_n zeta_n)^2

with a_n the n-th coefficient. Since |a_n| < 1 the argument above has
positive real part, so the principal branch realizes the phase increment
of modulus below pi automatically; zeta is renormalized to the circle each
step. The module also evaluates the second-order expansion of the mean
log-radius in the coupling, whose terms are the quantities controlled by
the large-deviation estimates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import monic_scan
from .sampling import evaluate_many
from .szego_cocycle import SpectralPoint
from .torus_dynamics import orbit_blocks
from .verblunsky import VerblunskyConfig, iter_blocks


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


@dataclass(frozen=True)
class PruferTrace:
    """Thinned history of a Prufer run: entry i holds the state at step
    i * thin, the first entry being the initial state."""

    steps: np.ndarray
    log_r: np.ndarray
    theta: np.ndarray
    zeta: np.ndarray
    thin: int
    final: PruferState


def circle_variables(alphas: np.ndarray, z, top: np.ndarray, bot: np.ndarray):
    """The Prufer terms of a (rows, n) coefficient block.

    top and bot, of shape (rows, 1), carry the polynomial pair
    (phi_n, phi*_n) into the block and are advanced past it. Returns the
    circle variables zeta = z phi / phi*, shape (rows, n + 1), seen by every
    step plus the one after the block, and the half log H_n and dtheta_n
    of every step, shape (rows, n).
    """
    _, ratio = monic_scan(alphas, z, top, bot, record=True)
    zetas = z * np.concatenate([ratio, top / bot], axis=1)
    zetas /= np.abs(zetas)
    az = alphas * zetas[:, :-1]
    aa = alphas.real**2 + alphas.imag**2
    half_log_h = 0.5 * np.log((1.0 + aa - 2.0 * az.real) / (1.0 - aa))
    # |alpha| < 1 forces Re(1 - alpha zeta) > 0, so the principal branch
    # realizes the |dtheta| < pi normalization directly
    dtheta = -np.angle(1.0 - az)
    return zetas, half_log_h, dtheta


def run(cfg: VerblunskyConfig, s: SpectralPoint, N: int, thin: int = 1) -> PruferTrace:
    """Iterate the recursion N steps, recording every thin-th state."""
    if N < 0:
        raise ValueError("step count must be nonnegative")
    if thin < 1:
        raise ValueError("thinning stride must be positive")
    top = np.ones((1, 1), dtype=np.complex128)
    bot = np.ones((1, 1), dtype=np.complex128)
    parts = [(np.zeros(1), np.zeros(1), np.array([s.z]))]
    log_r, theta, zeta = 0.0, 0.0, s.z
    done = 0
    for alphas in iter_blocks(cfg, N):
        zs, half_log_h, dtheta = circle_variables(alphas[None, :], s.z, top, bot)
        cum_r = log_r + np.cumsum(half_log_h[0])
        cum_theta = theta + np.cumsum(dtheta[0])
        # the thin marks inside this block, as step counts past its start
        local = np.arange(thin - done % thin, len(alphas) + 1, thin)
        parts.append((cum_r[local - 1], cum_theta[local - 1], zs[0, local]))
        log_r, theta, zeta = float(cum_r[-1]), float(cum_theta[-1]), complex(zs[0, -1])
        done += len(alphas)
    log_rs, thetas, zetas = (np.concatenate(column) for column in zip(*parts))
    return PruferTrace(
        steps=np.arange(0, N + 1, thin, dtype=np.int64),
        log_r=log_rs,
        theta=thetas,
        zeta=zetas,
        thin=thin,
        final=PruferState(log_r=log_r, theta=theta, zeta=zeta, n=N),
    )


def zeta_trace(cfg: VerblunskyConfig, s: SpectralPoint, N: int) -> tuple[np.ndarray, float]:
    """Circle variables zeta_0 .. zeta_{N-1} (value seen by step n) together
    with the final log-radius, log r_N = sum of log(H_n) / 2 along the
    trace. Materializes N complex values."""
    top = np.ones((1, 1), dtype=np.complex128)
    bot = np.ones((1, 1), dtype=np.complex128)
    zetas = np.empty(N, dtype=np.complex128)
    log_r = 0.0
    pos = 0
    for alphas in iter_blocks(cfg, N):
        zs, half_log_h, _ = circle_variables(alphas[None, :], s.z, top, bot)
        zetas[pos : pos + len(alphas)] = zs[0, :-1]
        log_r += float(half_log_h.sum())
        pos += len(alphas)
    return zetas, log_r


def default_decorrelation_time(cfg: VerblunskyConfig) -> int:
    """Number of steps after which the expansion treats the circle variable
    as decoupled from the sample, ceil(log(1/lam) / log rho)."""
    return max(1, math.ceil(math.log(1.0 / cfg.lam) / math.log(abs(cfg.autom.rho))))


@dataclass(frozen=True)
class ExpansionDiagnostics:
    """Terms of the second-order expansion of the mean log-radius.

    lhs is log r_N / N. I1 + I2 + I3 approximates lhs to third order in the
    coupling; I4 + I5 + I6 re-expands I2 by pushing the circle variable T
    steps back along the orbit.
    """

    N: int
    T: int
    I1: float
    I2: float
    I3: float
    I4: float
    I5: float
    I6: float
    lhs: float
    residual_123: float
    residual_456: float

    CSV_HEADER = "N,T,I1,I2,I3,I4,I5,I6,lhs,residual_123,residual_456"

    def csv_row(self) -> str:
        vals = [
            self.N,
            self.T,
            self.I1,
            self.I2,
            self.I3,
            self.I4,
            self.I5,
            self.I6,
            self.lhs,
            self.residual_123,
            self.residual_456,
        ]
        return ",".join(
            str(v) if isinstance(v, int) else repr(float(v)) for v in vals
        )


def expansion_diagnostics(
    cfg: VerblunskyConfig,
    s: SpectralPoint,
    N: int,
    T: int | None = None,
) -> ExpansionDiagnostics:
    """Evaluate the expansion terms on one orbit.

    Materializes the sample values and circle variables (32 bytes per
    step), so N around 10^6 is comfortable and 10^7 is the practical top.
    """
    if T is None:
        T = default_decorrelation_time(cfg)
    if not (1 <= T < N):
        raise ValueError("need 1 <= T < N")
    lam = cfg.lam
    z = s.z
    # unscaled samples with the sign folded in, so alpha_n = lam * F[n]
    F = np.empty(N, dtype=np.complex128)
    pos = 0
    for bx, by in orbit_blocks(cfg.autom, cfg.base, N):
        F[pos : pos + len(bx)] = cfg.sign * evaluate_many(cfg.alpha, bx, by)
        pos += len(bx)
    zetas, log_r = zeta_trace(cfg, s, N)

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
    return ExpansionDiagnostics(
        N=N,
        T=T,
        I1=I1,
        I2=I2,
        I3=I3,
        I4=I4,
        I5=I5,
        I6=I6,
        lhs=lhs,
        residual_123=residual_123,
        residual_456=residual_456,
    )
