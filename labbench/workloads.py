"""The benchmark's workloads: the program calls of one round, and the checks
of their outputs against the numpy reference and the method's properties.

A round is a fixed list of `szegolab` command lines, all with `--jobs 1`.
The amount of work does not depend on the seed; the seed sets the program's
`--seed` and the spectral angles drawn for the run. Every check is one
operation; a program call that must exit 0 is one more.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

LDT_LAM = 0.3
LDT_NS = (50, 100, 200, 400)
BIRKHOFF_T = 0.08
LDT_SAMPLES = {"birkhoff": 2000, "lyapunov": 1000, "prufer": 500}

LONG_N = 100_000
LONG_CELLS = (("alpha0", 0.1), ("alpha1", 0.2))
LONG_REF_STARTS = 16

LOC_LAM = 0.5
LOC_N = 800
LOC_LYAP_N = 40_000
LOC_DELTA = 0.3  # the program's default guard around {0, pi}
# The program takes L at each window eigenvalue over lyap_N steps from the
# window's own base point. There the first LOC_N steps nearly cancel: the
# eigenvector grows, then decays, so a product of norm ~1 is assembled from
# factors of norm up to e^{LOC_N L / 2}, and rounding leaves it with an
# error up to e^{LOC_N L} times epsilon. Every route to log ||M|| loses up
# to LOC_N L (plus a few units for the angles between directions); with
# lyap-N 4e4 the program's two routes and this reference were seen to
# differ by up to 7 in log ||M||. Rows away from that cancellation agree
# to about 1e-15.
L_SLACK_LOG = 20.0
GREEN_N = 10_000
GREEN_COLUMNS = 12

ANGLE_RANGE = (0.6, 2.4)


@dataclass(frozen=True)
class Call:
    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Op:
    call: str
    label: str
    ok: bool
    detail: str = ""


def program_seed(seed: int) -> int:
    return seed % (1 << 32)


def drawn_angles(seed: int, k: int) -> list[float]:
    """k spectral angles in ANGLE_RANGE, drawn from the benchmark seed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([program_seed(seed), 7])))
    return [float(v) for v in rng.uniform(*ANGLE_RANGE, size=k)]


def _common(seed: int) -> tuple[str, ...]:
    return ("--jobs", "1", "--seed", str(program_seed(seed)))


def _table(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# ldt-sweep


def ldt_calls(seed: int) -> list[Call]:
    grid = ("--lambda", str(LDT_LAM), "--N-grid", ",".join(map(str, LDT_NS)))
    calls = []
    for family, samples in LDT_SAMPLES.items():
        extra = ("--threshold", str(BIRKHOFF_T)) if family == "birkhoff" else ()
        argv = ("ldt", "--family", family, "--samples", str(samples), *grid, *extra)
        calls.append(Call(family, argv + _common(seed)))
    return calls


def _ldt_row_ok(row: dict, samples: int, threshold: float) -> tuple[bool, str]:
    count, n = int(row["count"]), int(row["samples"])
    frac, up = float(row["fraction"]), float(row["upper95"])
    p = count / samples
    ok = (
        n == samples
        and float(row["lambda"]) == LDT_LAM
        and _close(float(row["threshold"]), threshold)
        and _close(frac, p, 1e-15)
        and _close(float(row["stderr"]), math.sqrt(p * (1.0 - p) / n), 1e-12)
        and frac <= up <= 1.0
    )
    if ok and count < n:
        # one-sided Clopper-Pearson: P(Bin(n, upper95) <= count) = 5 %
        tail = ref.binom_cdf(count, n, up)
        ok = abs(tail - 0.05) <= 1e-6
    return ok, f"count {count}/{n}, fraction {frac}, upper95 {up}"


def _falls(counts: list[int]) -> tuple[bool, str]:
    """Counts fall along N: no step rises beyond 4 binomial sigma, and the
    last sits below the first by more than 4 sigma."""
    steps_ok = all(b <= a + 4.0 * math.sqrt(a + b + 1.0) for a, b in zip(counts, counts[1:]))
    first, last = counts[0], counts[-1]
    return steps_ok and last < first - 4.0 * math.sqrt(first + last + 1.0), f"counts {counts}"


def ldt_check(seed: int, outputs: dict[str, str]) -> list[Op]:
    ops = []
    c0 = ref.mean_square(ref.PRESETS["alpha0"])
    for family, samples in LDT_SAMPLES.items():
        rows = _table(outputs[family])
        threshold = BIRKHOFF_T if family == "birkhoff" else LDT_LAM**3
        names = ("birkhoff",) if family == "birkhoff" else ("lyapunov",)
        if family == "prufer":
            names = ("fsq", "mixed", "corr", "zeta2")
        expected_rows = [(name, N) for N in LDT_NS for name in names]
        got_rows = [(r["family"], int(r["N"])) for r in rows]
        if got_rows != expected_rows:
            ops.append(Op(family, "row layout", False, f"rows {got_rows}"))
            continue
        for r in rows:
            ok, detail = _ldt_row_ok(r, samples, threshold)
            if ok and family == "birkhoff":
                # P(|orbit mean| > t) ~ exp(-N t^2 / c0) for a complex
                # Gaussian of variance c0 / N; 5 sigma plus 3 % model slack.
                p = math.exp(-int(r["N"]) * BIRKHOFF_T**2 / c0)
                mean = samples * p
                tol = 5.0 * math.sqrt(samples * p * (1.0 - p)) + 0.03 * mean
                ok = abs(int(r["count"]) - mean) <= tol
                detail += f", expected {mean:.1f} +- {tol:.1f}"
            ops.append(Op(family, f"{r['family']} N={r['N']}", ok, detail))
        for name in names:
            ok, detail = _falls([int(r["count"]) for r in rows if r["family"] == name])
            ops.append(Op(family, f"{name} falls along N", ok, detail))
    return ops


# ---------------------------------------------------------------------------
# lyapunov-long


def long_calls(seed: int) -> list[Call]:
    (eta,) = drawn_angles(seed, 1)
    return [
        Call(
            preset,
            ("lyapunov", "--preset", preset, "--lambda-grid", str(lam), "--eta", repr(eta),
             "--N", str(LONG_N)) + _common(seed),
        )
        for preset, lam in LONG_CELLS
    ]


def long_check(seed: int, outputs: dict[str, str]) -> list[Op]:
    (eta,) = drawn_angles(seed, 1)
    # Independent orbits for the reference growth rate, shared by both
    # presets; their spread gives the statistical error.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([program_seed(seed), 11])))
    x0, y0 = rng.uniform(0.0, ref.TWO_PI, size=(2, LONG_REF_STARTS))
    xs, ys = ref.cat_orbit(x0, y0, LONG_N)
    ops = []
    for preset, lam in LONG_CELLS:
        rows = _table(outputs[preset])
        if len(rows) != 1:
            ops.append(Op(preset, "one cell", False, f"{len(rows)} rows"))
            continue
        (r,) = rows
        L_N, cross = float(r["L_N"]), float(r["cross_delta"])
        law = 0.5 * lam * lam * float(ref.spectral_function(preset, eta))
        echo = (
            float(r["lambda"]) == lam
            and int(r["N"]) == LONG_N
            and abs(float(r["eta"]) - eta) <= 1e-15
            and _close(float(r["prediction"]), law, 1e-9)
        )
        ops.append(Op(preset, "cell echoes its inputs", echo, f"prediction {r['prediction']} vs {law}"))
        ops.append(
            Op(preset, "small coupling law", abs(L_N - law) <= 10.0 * lam**3,
               f"|{L_N} - {law}| <= {10.0 * lam**3}")
        )
        ops.append(Op(preset, "routes agree", cross <= 1e-12, f"cross_delta {cross}"))
        rates = ref.growth_rate(lam * ref.sample_values(ref.PRESETS[preset], xs, ys), eta)
        sd = float(np.std(rates, ddof=1))
        # L_N averages 8 starts of its own; 20/N covers the norm route's
        # O(1/N) boundary term.
        tol = 6.0 * sd * math.sqrt(1.0 / LONG_REF_STARTS + 1.0 / 8.0) + 20.0 / LONG_N
        mean = float(np.mean(rates))
        ops.append(
            Op(preset, "reference growth rate", abs(L_N - mean) <= tol,
               f"|{L_N} - {mean:.6g}| <= {tol:.3g}")
        )
    return ops


# ---------------------------------------------------------------------------
# localize-window


def loc_calls(seed: int) -> list[Call]:
    (eta,) = drawn_angles(seed, 1)
    return [
        Call(
            "localize",
            ("localize", "--lambda", str(LOC_LAM), "--N", str(LOC_N),
             "--lyap-N", str(LOC_LYAP_N)) + _common(seed),
        ),
        Call(
            "green",
            ("green", "--lambda", str(LOC_LAM), "--eta", repr(eta), "--N", str(GREEN_N),
             "--columns", str(GREEN_COLUMNS)) + _common(seed),
        ),
    ]


def _window() -> list[tuple[float, float]]:
    # alpha0 has J = 1/2 above the default level cut c = 0.05 everywhere,
    # so the window is the whole guarded circle.
    d = LOC_DELTA
    return [(d, math.pi - d), (math.pi + d, ref.TWO_PI - d)]


def _reference_rates(alphas: np.ndarray, etas: np.ndarray, group: int = 64) -> np.ndarray:
    return np.concatenate(
        [ref.growth_rate(alphas, etas[i : i + group], chunk=4096) for i in range(0, len(etas), group)]
        or [np.empty(0)]
    )


def loc_check(seed: int, outputs: dict[str, str]) -> list[Op]:
    ops = []
    # the program's localization cell 0 draws its base point from
    # SeedSequence(seed, spawn_key=(0, 0)); green draws from SeedSequence(seed)
    x0, y0 = ref.program_base_point(program_seed(seed), (0, 0))
    xs, ys = ref.cat_orbit(x0, y0, LOC_LYAP_N)
    alphas = LOC_LAM * ref.sample_values(ref.PRESETS["alpha0"], xs[0], ys[0])
    rows = _table(outputs["localize"])
    etas = np.array([float(r["eta"]) for r in rows])
    L_ref = _reference_rates(alphas, etas)
    eps = 1e-8
    hits = ref.eigen_count(alphas[:LOC_N], 1.0, etas - eps, etas + eps)
    win = _window()
    for r, eta, L, hit in zip(rows, etas, L_ref, hits):
        rate, L_prog = float(r["decay_rate"]), float(r["L"])
        ok = (
            hit >= 1
            and any(lo <= eta <= hi for lo, hi in win)
            and float(r["lambda"]) == LOC_LAM
            and int(r["N"]) == LOC_N
            and abs(L_prog - L) <= (LOC_N * L + L_SLACK_LOG) / LOC_LYAP_N
            and _close(float(r["ratio"]), rate / L_prog, 1e-12)
        )
        ops.append(Op("localize", f"eta={eta:.6f}", ok, f"eigenvalues near eta {hit}, L {L_prog} vs {L}"))
    in_window = int(sum(ref.eigen_count(alphas[:LOC_N], 1.0, lo, hi) for lo, hi in win))
    ops.append(
        Op("localize", "rows cover the window eigenvalues", len(rows) == in_window,
           f"{len(rows)} rows, {in_window} eigenvalues in the window")
    )
    good = sum(1 for r in rows if float(r["r2"]) >= 0.8 and float(r["decay_rate"]) > 0.0)
    ops.append(
        Op("localize", "good fits", bool(rows) and good >= 0.9 * len(rows), f"{good}/{len(rows)}")
    )
    ratio = float(np.median([float(r["decay_rate"]) for r in rows] / L_ref)) if rows else math.nan
    ops.append(Op("localize", "median decay/Lyapunov ratio", 0.5 <= ratio <= 2.0, f"{ratio:.3f}"))

    (eta_g,) = drawn_angles(seed, 1)
    gx, gy = ref.program_base_point(program_seed(seed))
    gxs, gys = ref.cat_orbit(gx, gy, LOC_LYAP_N)
    L_g = float(ref.growth_rate(LOC_LAM * ref.sample_values(ref.PRESETS["alpha0"], gxs, gys), eta_g)[0])
    grows = _table(outputs["green"])
    fit = _green_fit(grows)
    ops.append(Op("green", "slope within [L/2, 2L]", L_g / 2 <= fit <= 2 * L_g, f"slope {fit:.5f}, L {L_g:.5f}"))
    cols = len({int(r["n2"]) for r in grows})
    ops.append(Op("green", "every requested column", cols == GREEN_COLUMNS, f"{cols}/{GREEN_COLUMNS}"))
    lo, hi = (GREEN_N + 1) // 8, 7 * (GREEN_N + 1) // 8
    inside = all(lo <= int(r["n1"]) <= hi and math.isfinite(float(r["log_abs_G"])) for r in grows)
    ops.append(Op("green", "entries finite and interior", inside and len(grows) > 0, f"{len(grows)} entries"))
    return ops


def _green_fit(rows: list[dict]) -> float:
    """Least-squares decay rate of log|G| against |n1 - n2|."""
    if len(rows) < 2:
        return math.nan
    d = np.array([abs(int(r["n1"]) - int(r["n2"])) for r in rows], dtype=float)
    v = np.array([float(r["log_abs_G"]) for r in rows])
    slope = np.polyfit(d, v, 1)[0]
    return float(-slope)


@dataclass(frozen=True)
class Workload:
    calls: Callable[[int], list[Call]]
    check: Callable[[int, dict[str, str]], list[Op]]


WORKLOADS = {
    "ldt-sweep": Workload(ldt_calls, ldt_check),
    "lyapunov-long": Workload(long_calls, long_check),
    "localize-window": Workload(loc_calls, loc_check),
}
