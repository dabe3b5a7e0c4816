"""Independent numpy reference for the quantities the benchmark checks.

Nothing here imports szegolab. Each function is written from the model's
definitions:

- the cat-map orbit x' = (2x + y) mod 2 pi, y' = (x + y) mod 2 pi;
- the coefficients alpha_n = lam * f(A^n p) for a trigonometric polynomial f;
- the transfer step rho^{-1} [[s, -conj(a)/s], [-a s, 1/s]], s = e^{i eta/2},
  multiplied in a balanced product tree, later steps on the left;
- the Pruefer phase Phi(eta) = (b+1) eta + 2 theta_b(eta) of the window [0, b],
  whose level crossings count the window's eigenvalues;
- the closed-form spectral functions of the two presets;
- the binomial tail behind a Clopper-Pearson bound.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
CAT_MAP = ((2, 1), (1, 1))
PRESETS = {
    "alpha0": {(1, 0): 0.5, (0, 1): 0.5},
    "alpha1": {(1, 0): 0.5, (2, 1): 0.5},
}


def mean_square(coeffs: dict) -> float:
    """Spatial mean of |f|^2 (Parseval)."""
    return float(sum(abs(c) ** 2 for c in coeffs.values()))


def spectral_function(preset: str, eta) -> np.ndarray:
    """Closed forms: 1/2 for alpha0, cos^2(eta/2) for alpha1."""
    eta = np.asarray(eta, dtype=float)
    if preset == "alpha0":
        return np.full_like(eta, 0.5)
    if preset == "alpha1":
        return np.cos(0.5 * eta) ** 2
    raise ValueError(f"no closed form for {preset!r}")


def program_base_point(seed: int, spawn_key: tuple = ()) -> tuple[float, float]:
    """The base point the program draws for a seed: two uniforms on
    [0, 2 pi) from PCG64 seeded by SeedSequence(seed, spawn_key)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    x, y = np.random.Generator(np.random.PCG64(ss)).uniform(0.0, TWO_PI, size=2)
    return float(x), float(y)


def cat_orbit(x0, y0, n: int, A=CAT_MAP) -> tuple[np.ndarray, np.ndarray]:
    """First n orbit points of each start, shape (starts, n), stepped one
    multiplication at a time and reduced mod 2 pi after each step."""
    x = np.array(x0, dtype=float, ndmin=1)
    y = np.array(y0, dtype=float, ndmin=1)
    (a, b), (c, d) = ((float(v) for v in row) for row in A)
    xs = np.empty((x.size, n))
    ys = np.empty((x.size, n))
    for i in range(n):
        xs[:, i] = x
        ys[:, i] = y
        x, y = (a * x + b * y) % TWO_PI, (c * x + d * y) % TWO_PI
    return xs, ys


def sample_values(coeffs: dict, xs, ys) -> np.ndarray:
    """f(x, y) = sum_k c_k exp(i (k1 x + k2 y))."""
    out = np.zeros(np.broadcast(xs, ys).shape, dtype=np.complex128)
    for (k1, k2), c in coeffs.items():
        out += c * np.exp(1j * (k1 * xs + k2 * ys))
    return out


def _steps(alphas: np.ndarray, eta) -> tuple[np.ndarray, ...]:
    """Entries of the transfer steps, broadcast over leading angle axes."""
    s = np.exp(0.5j * np.asarray(eta, dtype=float))[..., None]
    rho = np.sqrt(1.0 - np.abs(alphas) ** 2)
    return (s / rho, -np.conj(alphas) / (s * rho), -alphas * s / rho, 1.0 / (s * rho))


RENORM_SPAN = 64


def _tree(m00, m01, m10, m11, logs):
    """Balanced product over the last axis, later factors on the left.

    Nodes spanning RENORM_SPAN steps or more are renormalized by their
    largest entry modulus, whose log is carried in logs. A step has norm
    at most 2/rho <= 20 for |a| <= 0.995, so a node of fewer than
    RENORM_SPAN steps stays below 20^64 ~ 1e83 and cannot overflow.
    """
    size = 1
    while m00.shape[-1] > 1:
        size *= 2
        if m00.shape[-1] % 2:
            pad = [(0, 0)] * (m00.ndim - 1) + [(0, 1)]
            m00 = np.pad(m00, pad, constant_values=1.0)
            m01 = np.pad(m01, pad)
            m10 = np.pad(m10, pad)
            m11 = np.pad(m11, pad, constant_values=1.0)
            logs = np.pad(logs, pad)
        e = (m00[..., 0::2], m01[..., 0::2], m10[..., 0::2], m11[..., 0::2])
        l = (m00[..., 1::2], m01[..., 1::2], m10[..., 1::2], m11[..., 1::2])
        m00 = l[0] * e[0] + l[1] * e[2]
        m01 = l[0] * e[1] + l[1] * e[3]
        m10 = l[2] * e[0] + l[3] * e[2]
        m11 = l[2] * e[1] + l[3] * e[3]
        logs = logs[..., 0::2] + logs[..., 1::2]
        if size >= RENORM_SPAN or m00.shape[-1] == 1:
            mx = np.maximum(
                np.maximum(np.abs(m00), np.abs(m01)), np.maximum(np.abs(m10), np.abs(m11))
            )
            m00, m01, m10, m11 = m00 / mx, m01 / mx, m10 / mx, m11 / mx
            logs += np.log(mx)
    return (m00[..., 0], m01[..., 0], m10[..., 0], m11[..., 0]), logs[..., 0]


def product_tree(alphas, eta, chunk: int = 1 << 13):
    """Transfer product over alphas (last axis) as (matrix, log_scale).

    Each chunk of the time axis is reduced by a balanced tree; the chunk
    products are then combined in order. Leading axes of alphas and eta
    broadcast against each other.
    """
    alphas = np.asarray(alphas, dtype=np.complex128)
    eta = np.asarray(eta, dtype=float)
    shape = np.broadcast_shapes(alphas.shape[:-1], eta.shape)
    total = [np.ones(shape, complex), np.zeros(shape, complex)]
    total += [np.zeros(shape, complex), np.ones(shape, complex)]
    log_scale = np.zeros(shape)
    for lo in range(0, alphas.shape[-1], chunk):
        block = alphas[..., lo : lo + chunk]
        steps = _steps(block, eta)
        steps = [np.broadcast_to(m, shape + block.shape[-1:]) for m in steps]
        (c00, c01, c10, c11), clog = _tree(*steps, np.zeros(shape + block.shape[-1:]))
        t00, t01, t10, t11 = total
        total = [
            c00 * t00 + c01 * t10,
            c00 * t01 + c01 * t11,
            c10 * t00 + c11 * t10,
            c10 * t01 + c11 * t11,
        ]
        mx = np.max(np.abs(np.stack(total)), axis=0)
        total = [m / mx for m in total]
        log_scale = log_scale + clog + np.log(mx)
    return np.stack(total, axis=-1).reshape(shape + (2, 2)), log_scale


def log_norm(matrix: np.ndarray, log_scale) -> np.ndarray:
    """log of the operator norm of matrix * exp(log_scale), closed form."""
    t = np.sum(np.abs(matrix) ** 2, axis=(-2, -1))
    det = matrix[..., 0, 0] * matrix[..., 1, 1] - matrix[..., 0, 1] * matrix[..., 1, 0]
    disc = np.sqrt(np.maximum(t * t - 4.0 * np.abs(det) ** 2, 0.0))
    return log_scale + 0.5 * np.log(0.5 * (t + disc))


def growth_rate(alphas, eta, chunk: int = 1 << 13) -> np.ndarray:
    """log ||A_{N-1} ... A_0|| / N by the product tree."""
    m, scale = product_tree(alphas, eta, chunk)
    return log_norm(m, scale) / np.shape(alphas)[-1]


def sequential_product(alphas, eta: float) -> np.ndarray:
    """Plain left-to-right product of the step matrices (short runs only)."""
    out = np.eye(2, dtype=np.complex128)
    s00, s01, s10, s11 = _steps(np.asarray(alphas, dtype=np.complex128), eta)
    for k in range(len(alphas)):
        out = np.array([[s00[k], s01[k]], [s10[k], s11[k]]]) @ out
    return out


def step_eigen_rate(a: complex, eta: float) -> float:
    """log of the largest eigenvalue modulus of one step matrix."""
    s00, s01, s10, s11 = _steps(np.array([a], dtype=np.complex128), eta)
    step = np.array([[s00[0], s01[0]], [s10[0], s11[0]]])
    return float(np.log(np.max(np.abs(np.linalg.eigvals(step)))))


def prufer_phase(alphas, etas) -> np.ndarray:
    """Phi(eta) = (b+1) eta + 2 theta_b(eta) for the window [0, b], b = len(alphas).

    theta_b sums the phase increments -arg(1 - a_n zeta_n) of the Pruefer
    recursion; |a_n| < 1 keeps each increment inside (-pi/2, pi/2), so
    Phi is continuous and strictly increasing in eta.
    """
    etas = np.asarray(etas, dtype=float)
    z = np.exp(1j * etas)
    zeta = z.copy()
    theta = np.zeros(etas.shape)
    for a in np.asarray(alphas, dtype=np.complex128).tolist():
        aa = a.real * a.real + a.imag * a.imag
        az = a * zeta
        w = 1.0 - az
        theta -= np.angle(w)
        zeta = z * zeta * (1.0 + aa - 2.0 * az.real) / (w * w)
        zeta /= np.abs(zeta)
    return (len(alphas) + 1) * etas + 2.0 * theta


def eigen_count(alphas, gamma: complex, lo, hi) -> np.ndarray:
    """Eigenvalues of the window [0, b] with right value gamma whose angle
    lies in (lo, hi], by the level count of Phi + arg(gamma)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    phase = prufer_phase(alphas, np.stack([lo, hi])) + np.angle(gamma)
    k = np.floor(phase / TWO_PI)
    return (k[1] - k[0]).astype(int)


def cmv_window(alphas, gamma: complex) -> np.ndarray:
    """Dense C = L M on the sites 0..b with alpha_b replaced by gamma.

    Theta_j = [[conj(a_j), rho_j], [rho_j, -a_j]] sits on rows and columns
    (j, j+1); L holds the even j, M the odd j and a 1 at (0, 0). A
    unimodular gamma has rho_b = 0, so its block reduces to conj(gamma)
    at (b, b) and the window decouples from the rest of the half line.
    """
    a = list(np.asarray(alphas, dtype=np.complex128)) + [complex(gamma)]
    m = len(a)
    L = np.zeros((m, m), dtype=np.complex128)
    M = np.zeros((m, m), dtype=np.complex128)
    M[0, 0] = 1.0
    for j, aj in enumerate(a):
        F = L if j % 2 == 0 else M
        F[j, j] = np.conj(aj)
        if j + 1 < m:
            r = math.sqrt(1.0 - abs(aj) ** 2)
            F[j, j + 1] = F[j + 1, j] = r
            F[j + 1, j + 1] = -aj
    return L @ M


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(Binomial(n, p) <= k), summed in log space."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k >= n else 0.0
    i = np.arange(k + 1)
    logs = (
        np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in i])
        + i * math.log(p)
        + (n - i) * math.log1p(-p)
    )
    top = logs.max()
    return float(min(1.0, math.exp(top) * np.sum(np.exp(logs - top))))
