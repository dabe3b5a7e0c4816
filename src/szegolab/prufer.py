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
the large-deviation estimates. It streams: the orbits of a Lyapunov cell's
base points are the rows of one sample stream and run side by side on the
engine's batch axis, in slices of a fixed number of points, and only
running sums and the last few samples cross a slice edge, so N = 10^7
takes the memory of N = 10^5. The materialized trace and terms are the
oracles in tests/oracles.py.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._kernels import monic_scan
from .szego_cocycle import SpectralPoint, _log_rho
from .torus_dynamics import ToralAutomorphism
from .verblunsky import SLICE_POINTS, VerblunskyConfig, sample_slices


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


def default_decorrelation_time(lam: float, autom: ToralAutomorphism) -> int:
    """Number of steps after which the expansion treats the circle variable
    as decoupled from the sample, ceil(-log(lam) / log rho)."""
    return max(1, math.ceil(-math.log(lam) / autom.expansion_rate))


@dataclass(frozen=True)
class ExpansionDiagnostics:
    """Terms of the second-order expansion of the mean log-radius.

    lhs is log r_N / N, the Prufer sum of log(H_n) / 2; lhs_poly, log |phi_N| / N
    from the monic products of the same pass, is a second formula for it.
    I1 + I2 + I3 approximates lhs to third order in the coupling; I4 + I5 + I6
    re-expands I2 by pushing the circle variable T steps back along the orbit.
    Every term is a (rows,) array, one entry per config of the cell.
    """

    N: int
    T: int
    I1: np.ndarray
    I2: np.ndarray
    I3: np.ndarray
    I4: np.ndarray
    I5: np.ndarray
    I6: np.ndarray
    lhs: np.ndarray
    lhs_poly: np.ndarray
    residual_123: np.ndarray
    residual_456: np.ndarray


class _StreamSums:
    """The running sums of the expansion terms over a stream of (rows, n)
    sample slices, and what each slice hands to the next: the polynomial
    pair and the last T samples and circle variables of every row."""

    def __init__(self, rows: int, lam: float, z: complex, T: int):
        self.lam, self.z, self.T = lam, z, T
        self.top = np.ones((rows, 1), dtype=np.complex128)
        self.bot = np.ones((rows, 1), dtype=np.complex128)
        # per row: log r, log |phi| before the final state, sum |F|^2,
        # Re zeta F, Re (zeta F)^2 and the lag-T sum of I4
        self.sums = np.zeros((6, rows))
        # per shift 1..T and row: the lag sums of I5 and I6
        self.shifted = np.zeros((2, T, rows))
        self.back_F = self.back_zeta = np.empty((rows, 0), dtype=np.complex128)

    def add(self, F: np.ndarray) -> None:
        """Fold in the next slice of unscaled samples."""
        T = self.T
        zetas = self._advance(F)
        # the steps whose lags reach into the carried values, then those
        # whose lags lie inside the slice
        head_F = np.concatenate([self.back_F, F[:, :T]], axis=1)
        head_zeta = np.concatenate([self.back_zeta, zetas[:, :T]], axis=1)
        self._add_lagged(head_F, head_zeta)
        self._add_lagged(F, zetas)
        self.back_F = np.concatenate([self.back_F, F[:, -T:]], axis=1)[:, -T:]
        self.back_zeta = np.concatenate([self.back_zeta, zetas[:, -T:]], axis=1)[:, -T:]

    def _advance(self, F: np.ndarray) -> np.ndarray:
        """Run the slice's steps and add its unlagged sums; return the
        circle variable seen by each step."""
        alphas = self.lam * F
        zetas, half_log_h, log_scale = circle_variables(alphas, self.z, self.top, self.bot)
        zetas = zetas[:, :-1]
        zF = zetas * F
        self.sums[:5] += [
            half_log_h.sum(axis=1),
            log_scale - _log_rho(alphas),
            np.sum(np.abs(F) ** 2, axis=1),
            np.sum(zF.real, axis=1),
            np.sum((zF**2).real, axis=1),
        ]
        return zetas

    def _add_lagged(self, F: np.ndarray, zetas: np.ndarray) -> None:
        """The lag sums over the columns q >= T of a run of consecutive
        steps; the run starts T steps before its first summed column, or at
        step 0 of the orbit."""
        T, z = self.T, self.z
        m = F.shape[1]
        if m <= T:
            return
        ahead = F[:, T:]
        back = zetas[:, : m - T]
        self.sums[5] += np.sum((z**T * back * ahead).real, axis=1)
        back_sq = back**2
        for sh in range(1, T + 1):
            lagged = F[:, T - sh : m - sh]
            self.shifted[0, sh - 1] += np.sum((z**sh * (np.conj(lagged) * ahead)).real, axis=1)
            tangled = back_sq * lagged * ahead
            self.shifted[1, sh - 1] += np.sum((z ** (2 * T - sh) * tangled).real, axis=1)


def expansion_diagnostics(
    cfgs: Sequence[VerblunskyConfig], s: SpectralPoint, N: int
) -> ExpansionDiagnostics:
    """Evaluate the expansion terms on the orbits of a cell.

    cfgs are configs that differ only in their base point, one row each.
    The lag is T = default_decorrelation_time of their coupling, and N
    must exceed it. The rows are walked together in slices of
    SLICE_POINTS // rows steps, read from one sample_slices stream of all
    base points; each slice's coefficients go through circle_variables as
    one batch, and every term is summed slice by slice. The polynomial
    pair and the last T samples and circle variables are carried across
    each slice edge, so memory does not grow with N.
    """
    first = cfgs[0]
    if any((c.lam, c.autom, c.alpha) != (first.lam, first.autom, first.alpha) for c in cfgs):
        raise ValueError("the rows must differ only in their base point")
    T = default_decorrelation_time(first.lam, first.autom)
    if N <= T:
        raise ValueError(f"N = {N} must exceed the lag T = {T}")
    lam = first.lam
    rows = len(cfgs)
    acc = _StreamSums(rows, lam, s.z, T)
    starts = [[c.base.x, c.base.y] for c in cfgs]
    for F in sample_slices(first.autom, first.alpha, starts, N, max(1, SLICE_POINTS // rows)):
        acc.add(F)

    log_r, log_phi, abs_sq, re_zF, re_zF_sq, re_lag = acc.sums
    I1 = (lam**2 / (2.0 * N)) * abs_sq
    I2 = -(lam / N) * re_zF
    I3 = -(lam**2 / (2.0 * N)) * re_zF_sq
    lhs = log_r / N
    I4 = -(lam / N) * re_lag
    I5 = np.zeros(rows)
    I6 = np.zeros(rows)
    for k in range(T):
        I5 += (lam**2 / N) * acc.shifted[0, k]
        I6 -= (lam**2 / N) * acc.shifted[1, k]
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
        lhs_poly=(log_phi + np.log(np.abs(acc.top[:, 0]))) / N,
        residual_123=np.abs(lhs - (I1 + I2 + I3)),
        residual_456=np.abs(I2 - (I4 + I5 + I6)),
    )
