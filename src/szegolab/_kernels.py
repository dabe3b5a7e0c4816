"""Orbit generation and the one recursion engine of the package.

The orbit step is one Python loop over time, the only float orbit step of
the package. It advances a single start (scalars) or a batch of starts
(arrays, stepped in place in preallocated buffers) with the same
operations in the same order, and each batch member's points are bitwise
those of its scalar run: the products and sums are elementwise IEEE
operations, and np.remainder and float % both take fmod and apply the same
sign fix. torus_dynamics.orbit_slices drives it and picks between the two
from the row count; a Monte Carlo chunk of the LDT drivers is one such
batch of up to 512 starts.

Every recursion (transfer products, the polynomials of both kinds, the
Prufer circle variable, the resolvent formula's monic pairs) is a product of
monic Szego steps P(alpha, z) = [[z, -conj(alpha)], [-alpha z, 1]] applied
to a state pair (top, bot). The engine never divides by rho: callers
subtract sum log rho themselves, so alpha = +-1 (rho = 0) is a legal step.
monic_scan picks its schedule from the shapes. A wide batch (many angles or
samples) advances one step at a time over the batch axis. A narrow one (a
long orbit) is cut along time into about sqrt(steps) chunks, which advance
side by side from the identity; their products are then combined in order,
and a second pass from the chunk starts records per-step values (Blelloch,
"Prefix sums and their applications", 1990; Martin & Cundy, ICLR 2018).
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# |P| <= 2 bounds the growth between renormalizations, and |det P| = rho^2
# the decay, for |alpha| up to 1 - 1e-6
RENORM_EVERY = 32
# from this many rows on, one step at a time over the batch keeps numpy busy
WIDE_BATCH = 64


def orbit_block(a00, a01, a10, a11, x, y, out_x, out_y):
    """Fill out_x/out_y with the orbit points starting at (x, y); return the
    point following the last recorded one (the carry for the next block).

    x and y are scalars with (n,) outputs, or (B,) arrays with (n, B)
    outputs, one column per start; out_x[i] is the i-th point. A batch
    steps in place in its own (2, B) carry through two scratch arrays: the
    first column of the matrix times x, the second times y, their sum
    reduced, each entry by the scalar expression's operations in its order.
    """
    n = out_x.shape[0]
    if np.ndim(x) == 0:
        for i in range(n):
            out_x[i] = x
            out_y[i] = y
            x, y = (a00 * x + a01 * y) % TWO_PI, (a10 * x + a11 * y) % TWO_PI
        return x, y
    xy = np.array([x, y], dtype=float)
    x, y = xy
    first, second = np.array([[a00, a01], [a10, a11]], dtype=float).T[:, :, None]
    u, v = np.empty_like(xy), np.empty_like(xy)
    for i in range(n):
        out_x[i] = x
        out_y[i] = y
        np.multiply(first, x, out=u)
        np.multiply(second, y, out=v)
        u += v
        np.remainder(u, TWO_PI, out=xy)
    return x, y


def _renormalize(top, bot, log_scale):
    """Divide each state by its max-entry modulus (over the trailing axis of
    both halves) and add the log of that modulus to log_scale."""
    mx = np.maximum(np.abs(top).max(axis=-1), np.abs(bot).max(axis=-1))
    mx[mx == 0.0] = 1.0
    top /= mx[..., None]
    bot /= mx[..., None]
    log_scale += np.log(mx)


def _steps(at, z, top, bot, log_scale, ratio=None):
    """The inner loop: top, bot <- P(at[k], z) (top, bot) for every k.

    at[k] and z broadcast against the state; log_scale has the state's
    shape without the trailing axis. ratio, when given, receives the
    pre-step top/bot of every step.
    """
    act = np.conj(at)
    z = np.broadcast_to(z, top.shape).copy()
    zt = np.empty_like(top)
    tmp = np.empty_like(top)
    for k in range(at.shape[0]):
        if ratio is not None:
            np.divide(top, bot, out=ratio[k])
        np.multiply(top, z, out=zt)
        np.multiply(bot, act[k], out=tmp)
        np.subtract(zt, tmp, out=top)
        np.multiply(zt, at[k], out=zt)
        np.subtract(bot, zt, out=bot)
        if (k + 1) % RENORM_EVERY == 0:
            _renormalize(top, bot, log_scale)
    _renormalize(top, bot, log_scale)


def monic_scan(alphas, z, top, bot, record=False):
    """Apply the monic product of each row of alphas to the state in place.

    alphas has shape (rows, steps) with rows 1 or B; z is a scalar or has
    shape (1,) or (B,); top and bot have shape (B, C), one column per
    carried vector. On return the state is renormalized and the true state
    is the stored one times exp(log_scale), the returned (B,) array. With
    record=True (C = 1 only) the pre-step ratios top/bot of every step come
    back too, as a (B, steps) array. A coefficient outside the closed unit
    disk, or any non-finite input, raises ValueError.
    """
    alphas = np.asarray(alphas, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if not np.all(alphas.real**2 + alphas.imag**2 <= 1.0):
        raise ValueError("coefficients must be finite and lie in the closed unit disk")
    if not np.all(np.isfinite(z)):
        raise ValueError("spectral parameter must be finite")
    rows, n = alphas.shape
    B, C = top.shape
    log_scale = np.zeros(B)
    ratio = np.empty((B, n), dtype=np.complex128) if record else None
    done = 0
    if B < WIDE_BATCH and n >= 4:
        K = math.isqrt(n)
        done = K * (n // K)
        _chunked(alphas[:, :done].reshape(rows, K, -1), z, top, bot, log_scale, ratio)
    if done < n:
        rec = np.empty((n - done, B, C), dtype=np.complex128) if record else None
        _steps(alphas[:, done:].T[:, :, None], z[:, None], top, bot, log_scale, rec)
        if record:
            ratio[:, done:] = rec[:, :, 0].T
    return (log_scale, ratio) if record else log_scale


def _chunked(chunks, z, top, bot, log_scale, ratio):
    """The along-time schedule; chunks is (rows, K, L), L steps per chunk.

    Every chunk's 2x2 product is built from the identity with all chunks of
    all rows side by side, then the products are applied in order to the
    carried state. With ratio, a second pass from the chunk start vectors
    fills its first K*L columns.
    """
    rows, K, L = chunks.shape
    B = top.shape[0]
    at = np.moveaxis(chunks, 2, 0)[..., None]  # (L, rows, K, 1)
    zc = z[:, None, None]
    m_top = np.zeros((B, K, 2), dtype=np.complex128)
    m_bot = np.zeros((B, K, 2), dtype=np.complex128)
    m_top[..., 0] = 1.0
    m_bot[..., 1] = 1.0
    m_log = np.zeros((B, K))
    _steps(at, zc, m_top, m_bot, m_log)
    start_top = np.empty((B, K, top.shape[1]), dtype=np.complex128)
    start_bot = np.empty_like(start_top)
    for j in range(K):
        start_top[:, j], start_bot[:, j] = top, bot
        m00, m01 = m_top[:, j, 0:1], m_top[:, j, 1:2]
        m10, m11 = m_bot[:, j, 0:1], m_bot[:, j, 1:2]
        top[...], bot[...] = m00 * top + m01 * bot, m10 * top + m11 * bot
        log_scale += m_log[:, j]
        _renormalize(top, bot, log_scale)
    if ratio is not None:
        rec = np.empty((L, B, K, 1), dtype=np.complex128)
        _steps(at, zc, start_top, start_bot, np.zeros((B, K)), rec)
        ratio[:, : K * L] = rec[..., 0].transpose(1, 2, 0).reshape(B, K * L)


def warmup():
    """Run the orbit step and the engine once on tiny inputs."""
    orbit_block(2.0, 1.0, 1.0, 1.0, 0.3, 0.4, np.empty(4), np.empty(4))
    state = np.ones((2, 1, 1), dtype=np.complex128)
    monic_scan(np.full((1, 4), 0.05 + 0.02j), 1j, state[0], state[1], record=True)
