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
takes the memory of N = 10^5. The LDT Prufer family of experiments folds
its chunks' streams through the same carry and lag sums. The materialized
trace and terms are the oracles in tests/oracles.py.
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
    zetas = np.concatenate([ratio, top / bot], axis=1)
    del ratio  # copied; freed before the terms below are formed
    zetas *= z
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


class _LagSums:
    """The running sums over a stream of (rows, n) sample slices that the
    expansion terms and the LDT Prufer statistics share, and what each
    slice hands to the next: the polynomial pair and the last T samples
    and circle variables of every row.

    sums holds, per row, the sums of |F|^2, of Re (zeta F)^2 and of the
    lag-T term Re(z^T zeta_{q-T} F_q); shifted[sh - 1], per row, the sum of
    Re(z^sh conj(F_{q-sh}) F_q) for each shift sh = 1 .. T. The lagged sums
    run over the steps q >= T.
    """

    def __init__(self, rows: int, lam: float, z: complex, T: int):
        self.lam, self.z, self.T = lam, z, T
        self.top = np.ones((rows, 1), dtype=np.complex128)
        self.bot = np.ones((rows, 1), dtype=np.complex128)
        self.sums = np.zeros((3, rows))
        self.shifted = np.zeros((T, rows))
        self.back_F = self.back_zeta = np.empty((rows, 0), dtype=np.complex128)

    def add(self, F: np.ndarray) -> None:
        """Fold in the next slice of unscaled samples."""
        T = self.T
        alphas = self.lam * F
        zetas, half_log_h, log_scale = circle_variables(alphas, self.z, self.top, self.bot)
        zetas = zetas[:, :-1]
        zF = zetas * F
        self._add_unlagged(F, zF, alphas, half_log_h, log_scale)
        # the steps whose lags reach into the carried values, then those
        # whose lags lie inside the slice
        head_F = np.concatenate([self.back_F, F[:, :T]], axis=1)
        head_zeta = np.concatenate([self.back_zeta, zetas[:, :T]], axis=1)
        for run_F, run_zeta in ((head_F, head_zeta), (F, zetas)):
            # a run starts T steps before its first summed column, or at
            # step 0 of the orbit
            m = run_F.shape[1]
            if m > T:
                self._add_lagged(run_F, run_F[:, T:], run_zeta[:, : m - T])
        self.back_F = np.concatenate([self.back_F, F[:, -T:]], axis=1)[:, -T:]
        self.back_zeta = np.concatenate([self.back_zeta, zetas[:, -T:]], axis=1)[:, -T:]

    def _add_unlagged(self, F, zF, alphas, half_log_h, log_scale) -> None:
        """Add the sums of a slice's steps that look back at nothing."""
        self.sums[:2] += [np.sum(np.abs(F) ** 2, axis=1), np.sum((zF**2).real, axis=1)]

    def _add_lagged(self, F, ahead, back) -> None:
        """Add the lag sums of a run of consecutive samples F over its
        columns q >= T: ahead holds those columns, back the circle
        variables T steps before them."""
        T, z = self.T, self.z
        m = F.shape[1]
        self.sums[2] += np.sum((z**T * back * ahead).real, axis=1)
        for sh in range(1, T + 1):
            lagged = F[:, T - sh : m - sh]
            self.shifted[sh - 1] += np.sum((z**sh * (np.conj(lagged) * ahead)).real, axis=1)


class _StreamSums(_LagSums):
    """The shared lag sums plus the rest of the expansion terms: per row
    the log radius, log |phi| before the final state and sum Re zeta F
    (more), and per shift the tangled lag sum of I6 (tangled)."""

    def __init__(self, rows: int, lam: float, z: complex, T: int):
        super().__init__(rows, lam, z, T)
        self.more = np.zeros((3, rows))
        self.tangled = np.zeros((T, rows))

    def _add_unlagged(self, F, zF, alphas, half_log_h, log_scale) -> None:
        super()._add_unlagged(F, zF, alphas, half_log_h, log_scale)
        self.more += [
            half_log_h.sum(axis=1),
            log_scale - _log_rho(alphas),
            np.sum(zF.real, axis=1),
        ]

    def _add_lagged(self, F, ahead, back) -> None:
        super()._add_lagged(F, ahead, back)
        T, z = self.T, self.z
        m = F.shape[1]
        back_sq = back**2
        for sh in range(1, T + 1):
            tangled = back_sq * F[:, T - sh : m - sh] * ahead
            self.tangled[sh - 1] += np.sum((z ** (2 * T - sh) * tangled).real, axis=1)


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

    abs_sq, re_zF_sq, re_lag = acc.sums
    log_r, log_phi, re_zF = acc.more
    I1 = (lam**2 / (2.0 * N)) * abs_sq
    I2 = -(lam / N) * re_zF
    I3 = -(lam**2 / (2.0 * N)) * re_zF_sq
    lhs = log_r / N
    I4 = -(lam / N) * re_lag
    I5 = np.zeros(rows)
    I6 = np.zeros(rows)
    for k in range(T):
        I5 += (lam**2 / N) * acc.shifted[k]
        I6 -= (lam**2 / N) * acc.tangled[k]
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
