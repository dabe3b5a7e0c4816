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
monic_scan picks one of three schedules from the shapes; none has an option.

- Steps: a wide batch (many angles or samples, each with its own
  coefficient row) advances one step at a time over the batch axis.
- Along time: a narrow batch (a long orbit) is cut into about sqrt(steps)
  chunks, which advance side by side from the identity; their products are
  then combined in order, and a second pass from the chunk starts records
  per-step values (Blelloch, "Prefix sums and their applications", 1990;
  Martin & Cundy, ICLR 2018).
- Polynomial chunks: one coefficient row, no |alpha| over POLY_RADIUS,
  shared by a wide batch of z (the growth rates at many angles), without
  per-step records. A product of POLY_CHUNK steps is a 2x2 matrix of
  polynomials in z of degree at most POLY_CHUNK whose coefficients depend
  on the alphas alone (Simon, OPUC Part 1, ch. 1-3). They are built once
  for every z; a complex matrix product with the table of powers of z,
  split so that it rounds about once, evaluates them at every z, and the
  state takes one 2x2 product per chunk. The last steps short of a chunk
  take the step schedule.
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
# steps per chunk of the polynomial schedule, a divisor of RENORM_EVERY
POLY_CHUNK = 16
# bytes the polynomial schedule holds besides the state: the powers of a
# block of z, the chunk polynomials of a stretch of time and the values of
# a few chunks at that block, each split for an exact matrix product
POLY_BYTES = 1 << 21
# largest |alpha| of a row the polynomial schedule takes. A chunk's product
# has condition number up to ((1 + |alpha|) / (1 - |alpha|))^POLY_CHUNK, and
# its rounding grows with it: up to |alpha| = 0.6 the schedule's log-norms
# stayed within 10x of the step schedule's distance from an 80-bit run, at
# 0.8 to 0.999 they fell 10x to 10^4x behind
POLY_RADIUS = 0.6
# bits of the high halves of a split: 2 (POLY_CHUNK + 1) products of two
# halves, each under 2^(2 SPLIT_BITS) units, sum exactly below 2^53
SPLIT_BITS = 23


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
    both halves) and add the log of that modulus to log_scale. The trailing
    axis (one or two columns) is folded column by column: a reduction over
    so short an axis costs several times the arithmetic."""
    a_top = np.abs(top)
    a_bot = np.abs(bot)
    mx = np.maximum(a_top[..., 0], a_bot[..., 0])
    for c in range(1, top.shape[-1]):
        np.maximum(mx, a_top[..., c], out=mx)
        np.maximum(mx, a_bot[..., c], out=mx)
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
    disk, or any non-finite input, raises ValueError. One row shared by at
    least WIDE_BATCH values of z, without record and with every |alpha| at
    most POLY_RADIUS, takes the polynomial schedule: it agrees with the row
    repeated on every batch member to rounding, not bitwise.
    """
    alphas = np.asarray(alphas, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    aa = alphas.real**2 + alphas.imag**2
    if not np.all(aa <= 1.0):
        raise ValueError("coefficients must be finite and lie in the closed unit disk")
    if not np.all(np.isfinite(z)):
        raise ValueError("spectral parameter must be finite")
    rows, n = alphas.shape
    B, C = top.shape
    shared = rows == 1 and B >= WIDE_BATCH and not record
    poly = shared and aa.max(initial=0.0) <= POLY_RADIUS**2
    del aa  # held through the scan, a long row's moduli would add half its bytes
    log_scale = np.zeros(B)
    ratio = np.empty((B, n), dtype=np.complex128) if record else None
    done = 0
    if B < WIDE_BATCH and n >= 4:
        K = math.isqrt(n)
        done = K * (n // K)
        _chunked(alphas[:, :done].reshape(rows, K, -1), z, top, bot, log_scale, ratio)
    elif poly:
        done = POLY_CHUNK * (n // POLY_CHUNK)
        if done:
            _poly_chunks(alphas[0, :done], np.broadcast_to(z, (B,)), top, bot, log_scale)
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


def _poly_chunks(row, z, top, bot, log_scale):
    """The polynomial schedule; row is (steps,), a multiple of POLY_CHUNK
    long, and z is (B,).

    z is taken in blocks; each block's powers z^0 .. z^POLY_CHUNK are
    stepped in extended precision, rounded once and split (_split). Time
    is taken in stretches; each stretch's chunk polynomials are built and
    split the same way. A few chunks at a time are evaluated at the block
    by two matrix products, the exact product of the high halves and the
    correction, and each chunk's matrix is applied to the state, which is
    renormalized every RENORM_EVERY steps. Half of POLY_BYTES goes to a
    block (its tables, their split and the scratch state), a quarter to a
    stretch (its polynomials while they are built and split) and a quarter
    to a few chunks' values and corrections.
    """
    d = POLY_CHUNK + 1
    B, C = top.shape
    # bytes per z: the table, the scratch state, two extended-precision
    # values and the split's moduli; per chunk: the halves, the polynomials,
    # their build scratch and the chunk's coefficients with their conjugates
    per_z = 16 * (3 * d + 2 * C + 4) + 8 * d
    per_chunk = 16 * (16 * d + 2 * POLY_CHUNK)
    blocks = -(-B // max(1, POLY_BYTES // 2 // per_z))
    width = -(-B // blocks)
    stretch = POLY_CHUNK * max(1, POLY_BYTES // 4 // per_chunk)
    few = max(1, POLY_BYTES // 4 // (128 * width))
    renorm = RENORM_EVERY // POLY_CHUNK
    # rows: the high halves of the powers, their low halves, the powers
    table = np.empty((3 * d, width), dtype=np.complex128)
    scratch = np.empty((2, width, C), dtype=np.complex128)
    # the high and low halves of a stretch's polynomials, side by side
    store = np.empty((4 * stretch // POLY_CHUNK, 2 * d), dtype=np.complex128)
    buf = np.empty((2, 4 * few * width), dtype=np.complex128)
    for b0 in range(0, B, width):
        blk = slice(b0, b0 + width)
        t, b, ls = top[blk], bot[blk], log_scale[blk]
        w = t.shape[0]
        tb = table[:, :w]
        u, v = scratch[:, :w]
        zl = z[blk].astype(np.clongdouble)
        power = np.ones(w, dtype=np.clongdouble)
        for k in range(2 * d, 3 * d):
            tb[k] = power
            power *= zl
        _split(tb[2 * d :], tb[:d], tb[d : 2 * d], axis=0)
        for t0 in range(0, row.shape[0], stretch):
            chunks = row[t0 : t0 + stretch].reshape(-1, POLY_CHUNK)
            halves = store[: 4 * chunks.shape[0]]
            _split(_chunk_polynomials(chunks).reshape(-1, d), halves[:, :d], halves[:, d:], 1)
            for j0 in range(0, chunks.shape[0], few):
                group = halves[4 * j0 : 4 * (j0 + few)]
                vals, corr = buf[:, : group.shape[0] * w].reshape(2, -1, w)
                np.matmul(group[:, :d], tb[:d], out=vals)
                np.matmul(group, tb[d:], out=corr)
                vals += corr
                for j, (m00, m01, m10, m11) in enumerate(
                    vals.reshape(-1, 4, w, 1), t0 // POLY_CHUNK + j0 + 1
                ):
                    np.multiply(m01, b, out=u)
                    np.multiply(m10, t, out=v)
                    b *= m11
                    b += v
                    t *= m00
                    t += u
                    if j % renorm == 0:
                        _renormalize(t, b, ls)
    if (row.shape[0] // POLY_CHUNK) % renorm:
        _renormalize(top, bot, log_scale)


def _split(a, hi, lo, axis):
    """Write a = hi + lo exactly, where along the axis every entry of hi
    is an integer of at most SPLIT_BITS bits times one power of two, set by
    the line's largest real or imaginary part. The products of two such
    lines then sum exactly in doubles, so hi_a @ hi_b + (hi_a @ lo_b +
    lo_a @ b) rounds the matrix product a @ b about once (the error-free
    splitting of Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59, 2012)."""
    big = np.abs(a.real).max(axis=axis, keepdims=True)
    np.maximum(big, np.abs(a.imag).max(axis=axis, keepdims=True), out=big)
    unit = np.ldexp(1.0, np.frexp(big)[1] - SPLIT_BITS)
    np.divide(a, unit, out=hi)
    np.rint(hi, out=hi)
    hi *= unit
    np.subtract(a, hi, out=lo)


def _chunk_polynomials(chunks):
    """The monic products of the (K, POLY_CHUNK) coefficient chunks as
    polynomials in z: a (K, 4, POLY_CHUNK + 1) array whose [k, i] row holds
    the coefficients of entry i (m00, m01, m10, m11) in ascending powers."""
    K = chunks.shape[0]
    polys = np.zeros((K, 4, POLY_CHUNK + 1), dtype=np.complex128)
    polys[:, 0, 0] = 1.0
    polys[:, 3, 0] = 1.0
    top, bot = polys[:, :2], polys[:, 2:]
    zt = np.zeros_like(top)
    tmp = np.empty_like(top)
    at = chunks.T[:, :, None, None]
    act = np.conj(at)
    for k in range(POLY_CHUNK):
        zt[..., 1:] = top[..., :-1]
        np.multiply(bot, act[k], out=tmp)
        np.subtract(zt, tmp, out=top)
        np.multiply(zt, at[k], out=zt)
        np.subtract(bot, zt, out=bot)
    return polys


def warmup():
    """Run the orbit step and the engine once on tiny inputs."""
    orbit_block(2.0, 1.0, 1.0, 1.0, 0.3, 0.4, np.empty(4), np.empty(4))
    state = np.ones((2, 1, 1), dtype=np.complex128)
    monic_scan(np.full((1, 4), 0.05 + 0.02j), 1j, state[0], state[1], record=True)
