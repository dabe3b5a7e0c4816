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

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import monic_scan
from .szego_cocycle import SpectralPoint, _log_rho
from .torus_dynamics import ToralAutomorphism
from .verblunsky import VerblunskyConfig, sampled_values_blocks


def circle_variables(alphas: np.ndarray, z, top: np.ndarray, bot: np.ndarray):
    """The Prufer terms of a (rows, n) coefficient block.

    top and bot, of shape (rows, 1), carry the polynomial pair
    (phi_n, phi*_n) into the block and are advanced past it. Returns the
    circle variables zeta = z phi / phi*, shape (rows, n + 1), seen by every
    step plus the one after the block, the half log H_n of every step,
    shape (rows, n), and the log scale of the advanced pair, shape (rows,):
    the true monic pair is (top, bot) times exp(log_scale).
    """
    log_scale, ratio = monic_scan(alphas, z, top, bot, record=True)
    zetas = z * np.concatenate([ratio, top / bot], axis=1)
    zetas /= np.abs(zetas)
    az = alphas * zetas[:, :-1]
    aa = alphas.real**2 + alphas.imag**2
    half_log_h = 0.5 * np.log((1.0 + aa - 2.0 * az.real) / (1.0 - aa))
    return zetas, half_log_h, log_scale


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
    for Fb in sampled_values_blocks(cfg, N):
        F[pos : pos + len(Fb)] = Fb
        Fb *= cfg.lam  # the block's coefficients, scaled in place
        zs, half_log_h, log_scale = circle_variables(Fb[None, :], s.z, top, bot)
        zetas[pos : pos + len(Fb)] = zs[0, :-1]
        log_r += float(half_log_h.sum())
        log_phi += float(log_scale[0] - _log_rho(Fb[None, :])[0])
        pos += len(Fb)
    return F, zetas, log_r, log_phi + math.log(abs(top[0, 0]))


def default_decorrelation_time(lam: float, autom: ToralAutomorphism) -> int:
    """Number of steps after which the expansion treats the circle variable
    as decoupled from the sample, ceil(log(1/lam) / log rho)."""
    return max(1, math.ceil(math.log(1.0 / lam) / autom.expansion_rate))


@dataclass(frozen=True)
class ExpansionDiagnostics:
    """Terms of the second-order expansion of the mean log-radius.

    lhs is log r_N / N, the Prufer sum of log(H_n) / 2; lhs_poly, log |phi_N| / N
    from the monic products of the same pass, is a second formula for it.
    I1 + I2 + I3 approximates lhs to third order in the coupling; I4 + I5 + I6
    re-expands I2 by pushing the circle variable T steps back along the orbit.
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
    lhs_poly: float
    residual_123: float
    residual_456: float


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
        T = default_decorrelation_time(cfg.lam, cfg.autom)
    if not (1 <= T < N):
        raise ValueError("need 1 <= T < N")
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
        lhs_poly=log_phi / N,
        residual_123=residual_123,
        residual_456=residual_456,
    )
