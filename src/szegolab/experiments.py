"""Desk-scale experiment drivers.

Four measurements over the quasi-random coefficient model: the small
coupling scaling law for the Lyapunov exponent, large-deviation decay
of Monte Carlo deviation fractions, the same per term of the phase
expansion, and eigenfunction localization on finite windows. Every
driver is deterministic for a fixed plan: per-sample randomness is
derived from (master seed, cell index, chunk index), so worker count
never changes the output.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from .cmv_operator import build, eigenpairs
from .prufer import circle_variables, default_decorrelation_time, expansion_diagnostics
from .sampling import (
    TrigPolynomial,
    autocorrelation_exact,
    evaluate_many,
    preset,
    spectral_function,
    spectral_window,
)
from .szego_cocycle import (
    SpectralPoint,
    lyapunov_norm,
    lyapunov_poly,
    lyapunov_poly_many,
    lyapunov_poly_rows,
)
from .torus_dynamics import CAT_MAP, TWO_PI, ToralAutomorphism, TorusPoint, orbit_arrays
from .verblunsky import VerblunskyConfig

MC_CHUNK = 512
# orbit points (samples x N) handled together inside a chunk: each array of
# a pass then takes 512 KiB, and N <= 512 still gives the engine a batch of
# at least 64 samples
MC_PASS_POINTS = 1 << 15
CONFIDENCE = 0.95


@dataclass(frozen=True)
class ExperimentPlan:
    """Grids and bookkeeping shared by the experiment drivers.

    base_points is the number of independent orbit starts averaged
    inside each Lyapunov cell; eta_guard is the minimum distance every
    eta in the grid must keep from the degenerate angles {0, pi}.
    """

    lams: tuple[float, ...]
    etas: tuple[float, ...]
    Ns: tuple[int, ...]
    samples: int = 10_000
    seed: int = 0
    autom: ToralAutomorphism = CAT_MAP
    alpha: TrigPolynomial = field(default_factory=lambda: preset("alpha0"))
    base_points: int = 8
    eta_guard: float = 0.05

    def __post_init__(self):
        if not self.lams or not self.etas or not self.Ns:
            raise ValueError("lambda, eta and N grids must be nonempty")
        sup = self.alpha.sup_bound
        for lam in self.lams:
            if not (lam > 0.0 and math.isfinite(lam)):
                raise ValueError(f"lambda = {lam} must be positive and finite")
            if lam * sup >= 1.0 and sup > 0.0:
                raise ValueError(f"lambda = {lam} puts coefficients outside the disk")
        for eta in self.etas:
            d = min(abs(eta % (2 * math.pi)), abs(eta % (2 * math.pi) - math.pi),
                    abs(eta % (2 * math.pi) - 2 * math.pi))
            if d < self.eta_guard:
                raise ValueError(f"eta = {eta} within {self.eta_guard} of a degenerate angle")
        for N in self.Ns:
            if N < 2:
                raise ValueError("N grid entries must be at least 2")
        if self.samples < 1 or self.base_points < 1:
            raise ValueError("sample counts must be positive")

    def rng(self, cell: int, stream: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(cell, stream))
        return np.random.Generator(np.random.PCG64(ss))

    def config(self, lam: float, cell: int, stream: int) -> VerblunskyConfig:
        base = TorusPoint.random(self.rng(cell, stream))
        return VerblunskyConfig(lam=lam, base=base, autom=self.autom, alpha=self.alpha)


@dataclass(frozen=True)
class FitResult:
    """Ordinary least squares line fit with coefficient standard errors."""

    slope: float
    intercept: float
    r2: float
    slope_stderr: float
    intercept_stderr: float

    def as_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            "slope_stderr": self.slope_stderr,
            "intercept_stderr": self.intercept_stderr,
        }


def linear_fit(x, y) -> FitResult:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two points to fit a line")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("fit inputs must be finite")
    A = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot > 0.0:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    else:
        r2 = 1.0 if ss_res <= 1e-12 else 0.0
    n = x.size
    if n > 2:
        s2 = ss_res / (n - 2)
        cov = s2 * np.linalg.inv(A.T @ A)
        se_slope, se_icpt = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])
    else:
        se_slope = se_icpt = math.inf
    if not math.isfinite(coef[0]):
        raise ValueError("fit produced a non-finite slope")
    return FitResult(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        r2=r2,
        slope_stderr=se_slope,
        intercept_stderr=se_icpt,
    )


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        parts = []
        for v in row:
            if isinstance(v, float):
                parts.append(repr(float(v)))
            else:
                parts.append(str(v))
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def _pool_map(fn, args_list, jobs: int):
    if jobs <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, args_list))


# ---------------------------------------------------------------------------
# Lyapunov scaling


@dataclass(frozen=True)
class LyapunovCell:
    lam: float
    eta: float
    N: int
    L_N: float
    prediction: float
    residual: float
    cross_delta: float


@dataclass(frozen=True)
class LyapunovScalingResult:
    rows: tuple[LyapunovCell, ...]
    residual_fit: FitResult | None

    CSV_HEADER = "lambda,eta,N,L_N,prediction,residual,cross_delta"

    def csv(self) -> str:
        return _csv(
            self.CSV_HEADER,
            [
                (r.lam, r.eta, r.N, r.L_N, r.prediction, r.residual, r.cross_delta)
                for r in self.rows
            ],
        )

    def summary(self) -> dict:
        return {
            "rows": len(self.rows),
            "residual_fit": self.residual_fit.as_dict() if self.residual_fit else None,
        }


def _lyapunov_cell(args) -> LyapunovCell:
    plan, cell_index, lam, eta, N = args
    s = SpectralPoint(eta=eta, branch=1)
    values = []
    cross = 0.0
    for r in range(plan.base_points):
        cfg = plan.config(lam, cell_index, r)
        # The raw growth rate log r_N / N carries a mean-zero lag-coupled
        # fluctuation of size lambda/sqrt(N) that would bury the cubic
        # remainder at this orbit budget. The measured lag-T term of the
        # phase expansion is that fluctuation, so subtracting it leaves
        # an estimator with the same limit and quadratic-order noise.
        diag = expansion_diagnostics(cfg, s, N)
        values.append(diag.lhs - diag.I4)
        if r == 0:
            cross = abs(lyapunov_poly(cfg, s, N) - lyapunov_norm(cfg, s, N))
    L_N = float(np.mean(values))
    prediction = 0.5 * lam * lam * float(spectral_function(plan.alpha, plan.autom, eta))
    return LyapunovCell(
        lam=lam,
        eta=eta,
        N=N,
        L_N=L_N,
        prediction=prediction,
        residual=abs(L_N - prediction),
        cross_delta=cross,
    )


def lyapunov_scaling(plan: ExperimentPlan, jobs: int = 1) -> LyapunovScalingResult:
    """Finite-N Lyapunov exponents against the small coupling prediction.

    Each (lambda, eta, N) cell averages the fluctuation-corrected
    growth estimate (raw Prufer growth rate minus its measured lag-T
    term) over base_points independent orbit starts and compares with
    lambda^2 J(eta) / 2. cross_delta records the disagreement between
    the two uncorrected growth-rate routes at the first base point. The residual
    fit regresses log median residual on log lambda; its slope measures
    the order of the remainder and needs at least two distinct lambdas.
    """
    cells = []
    idx = 0
    for lam in plan.lams:
        for eta in plan.etas:
            for N in plan.Ns:
                cells.append((plan, idx, lam, eta, N))
                idx += 1
    rows = tuple(_pool_map(_lyapunov_cell, cells, jobs))
    fit = None
    if len(set(plan.lams)) >= 2:
        med = {}
        for r in rows:
            med.setdefault(r.lam, []).append(r.residual)
        lams = sorted(med)
        logs = [math.log(max(float(np.median(med[l])), 5e-324)) for l in lams]
        fit = linear_fit([math.log(l) for l in lams], logs)
    return LyapunovScalingResult(rows=rows, residual_fit=fit)


# ---------------------------------------------------------------------------
# large deviation drivers


@dataclass(frozen=True)
class DeviationRow:
    family: str
    lam: float
    N: int
    count: int
    samples: int
    threshold: float
    q95: float

    @property
    def fraction(self) -> float:
        return self.count / self.samples

    @property
    def stderr(self) -> float:
        p = self.fraction
        return math.sqrt(p * (1.0 - p) / self.samples)

    @property
    def upper95(self) -> float:
        """One-sided Clopper-Pearson upper confidence bound."""
        if self.count == self.samples:
            return 1.0
        return float(
            scipy.special.betaincinv(self.count + 1, self.samples - self.count, CONFIDENCE)
        )


@dataclass(frozen=True)
class DeviationResult:
    family: str
    rows: tuple[DeviationRow, ...]
    fit: FitResult | None
    per_family: tuple[tuple[str, FitResult | None], ...] = ()

    CSV_HEADER = "family,lambda,N,count,samples,fraction,stderr,upper95,q95,threshold"

    def csv(self) -> str:
        return _csv(
            self.CSV_HEADER,
            [
                (
                    r.family,
                    r.lam,
                    r.N,
                    r.count,
                    r.samples,
                    r.fraction,
                    r.stderr,
                    r.upper95,
                    r.q95,
                    r.threshold,
                )
                for r in self.rows
            ],
        )

    def summary(self) -> dict:
        out = {
            "family": self.family,
            "rows": len(self.rows),
            "fit": self.fit.as_dict() if self.fit else None,
        }
        if self.per_family:
            out["per_family"] = {
                name: fit.as_dict() if fit else None for name, fit in self.per_family
            }
        return out


def _fit_positive_cells(rows: list[DeviationRow]) -> FitResult | None:
    pts = [(r.N, r.fraction) for r in rows if r.count > 0]
    if len(pts) < 2:
        return None
    return linear_fit([p[0] for p in pts], [math.log(p[1]) for p in pts])


PRUFER_FAMILIES = ("fsq", "mixed", "corr", "zeta2")


def _birkhoff_stats(plan, lam, N, F):
    # builtin abs, not np.abs: the vectorized complex modulus can differ in
    # the last bit, and the table stays bit for bit what it was
    return {"birkhoff": np.array([abs(m) for m in np.mean(F, axis=1).tolist()])}


def _lyapunov_stats(plan, lam, N, F):
    eta = plan.etas[0]
    pred = 0.5 * lam * lam * float(spectral_function(plan.alpha, plan.autom, eta))
    L = lyapunov_poly_rows(lam * F, SpectralPoint(eta=eta, branch=1))
    return {"lyapunov": np.abs(L - pred)}


def _prufer_lag(plan: ExperimentPlan, lam: float) -> int:
    probe = VerblunskyConfig(
        lam=lam, base=TorusPoint.from_radians(0.5, 0.5), autom=plan.autom, alpha=plan.alpha
    )
    return default_decorrelation_time(probe)


def _prufer_stats(plan, lam, N, F):
    z = SpectralPoint(eta=plan.etas[0], branch=1).z
    T = _prufer_lag(plan, lam)
    corr_limit = sum(
        (z**sh * autocorrelation_exact(plan.alpha, plan.autom, sh)).real
        for sh in range(1, T + 1)
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


# family -> statistics of a (samples, N) array of orbit samples, by name
# in row order
_STATISTICS = {
    "birkhoff": _birkhoff_stats,
    "lyapunov": _lyapunov_stats,
    "prufer": _prufer_stats,
}


def _deviation_chunk(args) -> dict[str, list[float]]:
    """One deterministic chunk of Monte Carlo samples for one cell.

    Draws the chunk's base points, builds the unscaled orbit samples F
    one orbit at a time, and hands them to the family's statistics in
    passes of at most MC_PASS_POINTS orbit points. Returns every
    statistic's raw values.
    """
    plan, family, cell_index, chunk_index, lam, N = args
    lo = chunk_index * MC_CHUNK
    hi = min(lo + MC_CHUNK, plan.samples)
    bases = plan.rng(cell_index, chunk_index).uniform(0.0, TWO_PI, size=(hi - lo, 2))
    out: dict[str, list[float]] = {}
    width = max(1, MC_PASS_POINTS // N)
    for start in range(0, hi - lo, width):
        pass_bases = bases[start : start + width].tolist()
        orbits = np.array([orbit_arrays(plan.autom, TorusPoint(x, y), N) for x, y in pass_bases])
        F = evaluate_many(plan.alpha, orbits[:, 0], orbits[:, 1])
        for name, values in _STATISTICS[family](plan, lam, N, F).items():
            out.setdefault(name, []).extend(values.tolist())
    return out


def _deviation_rows(plan: ExperimentPlan, family: str, threshold_fn, jobs: int):
    """Rows of every (lambda, N) cell and statistic of the family.

    Chunks run through the pool in a layout fixed by the plan, and are
    merged in that order, so the rows never depend on jobs.
    """
    n_chunks = (plan.samples + MC_CHUNK - 1) // MC_CHUNK
    cells = [(lam, N, float(threshold_fn(lam))) for lam in plan.lams for N in plan.Ns]
    work = [
        (plan, family, ci, c, lam, N)
        for ci, (lam, N, _) in enumerate(cells)
        for c in range(n_chunks)
    ]
    results = _pool_map(_deviation_chunk, work, jobs)
    rows = []
    for ci, (lam, N, thr) in enumerate(cells):
        chunks = results[ci * n_chunks : (ci + 1) * n_chunks]
        for name in chunks[0]:
            stats = np.array([v for chunk in chunks for v in chunk[name]])
            rows.append(
                DeviationRow(
                    family=name,
                    lam=lam,
                    N=N,
                    count=int(np.count_nonzero(stats > thr)),
                    samples=plan.samples,
                    threshold=thr,
                    q95=float(np.quantile(stats, CONFIDENCE)),
                )
            )
    return rows


def ldt_deviation(
    plan: ExperimentPlan,
    family: str = "birkhoff",
    threshold_fn=None,
    jobs: int = 1,
) -> DeviationResult:
    """Monte Carlo deviation fractions along the N grid.

    family selects the measured statistic: "birkhoff" is the modulus of
    the plain orbit average of the sampling function (threshold default
    0.2, coupling-independent); "lyapunov" is the distance of the
    finite-N growth rate from the small coupling prediction (threshold
    default lambda^3). threshold_fn maps lambda to the event threshold.
    Zero-count cells stay in the table; their upper95 column carries
    the one-sided binomial bound, and the exponential fit uses only the
    strictly positive cells.
    """
    if family not in ("birkhoff", "lyapunov"):
        raise ValueError("family must be 'birkhoff' or 'lyapunov'")
    if threshold_fn is None:
        threshold_fn = (lambda lam: 0.2) if family == "birkhoff" else (lambda lam: lam**3)
    rows = _deviation_rows(plan, family, threshold_fn, jobs)
    return DeviationResult(family=family, rows=tuple(rows), fit=_fit_positive_cells(rows))


def prufer_term_ldt(
    plan: ExperimentPlan,
    threshold_fn=None,
    jobs: int = 1,
) -> DeviationResult:
    """Deviation fractions for the four phase-expansion term families.

    Families: "fsq" is the orbit average of |F|^2 against its exact
    mean; "mixed" the lagged phase-weighted average Re(z^T zeta_{n-T}
    F_n); "corr" the short-lag correlation sum against its exact limit;
    "zeta2" the squared-phase average Re(zeta_n^2 F_n^2) / 2. All four
    share the threshold threshold_fn(lambda), default lambda^3. Every N
    must exceed the lag T of the expansion, or the lagged terms have no
    samples.
    """
    if threshold_fn is None:
        threshold_fn = lambda lam: lam**3
    for lam in plan.lams:
        T = _prufer_lag(plan, lam)
        if min(plan.Ns) <= T:
            raise ValueError(f"N = {min(plan.Ns)} must exceed the lag T = {T} at lambda = {lam}")
    rows = _deviation_rows(plan, "prufer", threshold_fn, jobs)
    per_family = tuple(
        (f, _fit_positive_cells([r for r in rows if r.family == f]))
        for f in PRUFER_FAMILIES
    )
    return DeviationResult(
        family="prufer", rows=tuple(rows), fit=None, per_family=per_family
    )


# ---------------------------------------------------------------------------
# localization


@dataclass(frozen=True)
class LocalizationRow:
    lam: float
    N: int
    eta: float
    decay_rate: float
    r2: float
    localization_length: float
    lyapunov: float
    ratio: float


@dataclass(frozen=True)
class LocalizationResult:
    """Matched rows plus what the run dropped or flagged.

    fits_skipped counts in-window eigenvectors whose decay fit failed (no
    row); eigen_over_tol counts in-window eigenpairs over their residual
    tolerance (kept, with a row when the fit succeeds); worst_eigen_residual
    is the largest residual among in-window pairs.
    """

    rows: tuple[LocalizationRow, ...]
    window: tuple[tuple[float, float], ...]
    fits_skipped: int = 0
    eigen_over_tol: int = 0
    worst_eigen_residual: float = 0.0

    CSV_HEADER = "lambda,N,eta,decay_rate,r2,localization_length,L,ratio"

    @property
    def empty(self) -> bool:
        return not self.rows

    def median_ratio(self) -> float:
        if not self.rows:
            return math.nan
        return float(np.median([r.ratio for r in self.rows]))

    def csv(self) -> str:
        return _csv(
            self.CSV_HEADER,
            [
                (
                    r.lam,
                    r.N,
                    r.eta,
                    r.decay_rate,
                    r.r2,
                    r.localization_length,
                    r.lyapunov,
                    r.ratio,
                )
                for r in self.rows
            ],
        )

    def summary(self) -> dict:
        return {
            "rows": len(self.rows),
            "median_ratio": self.median_ratio(),
            "window": [list(w) for w in self.window],
            "fits_skipped": self.fits_skipped,
            "eigen_over_tol": self.eigen_over_tol,
            "worst_eigen_residual": self.worst_eigen_residual,
        }


BOUNDARY_SKIP = 5


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


def localization(
    plan: ExperimentPlan,
    delta: float = 0.3,
    c: float = 0.05,
    gamma: complex = 1.0,
    window: tuple[tuple[float, float], ...] | None = None,
    lyap_N: int = 200_000,
) -> LocalizationResult:
    """Eigenfunction decay rates inside a spectral window.

    For each (lambda, N) cell: build the window operator on [0, N] with
    right boundary value gamma (the a = 0 edge needs no left value),
    keep eigenpairs whose angle lies in the window (computed from the
    spectral function level set unless an explicit window is given),
    fit each eigenvector's exponential profile, and compare the decay
    rate with the growth rate at the matching angle. No in-window
    eigenvalues yields an empty result, not an error. In-window pairs over
    the eigen-residual tolerance are fitted like the rest and counted;
    failed fits are skipped and counted.
    """
    if window is None:
        win = tuple(spectral_window(plan.alpha, plan.autom, delta, c))
    else:
        win = tuple((float(lo), float(hi)) for lo, hi in window)
    rows: list[LocalizationRow] = []
    if not win:
        return LocalizationResult(rows=(), window=win)
    skipped = over_tol = 0
    worst = 0.0
    cell = 0
    for lam in plan.lams:
        for N in plan.Ns:
            pred = 0.5 * lam * lam * max(
                float(spectral_function(plan.alpha, plan.autom, 0.5 * (lo + hi)))
                for lo, hi in win
            )
            if 0.0 < pred * N < 20.0:
                raise ValueError(
                    f"N = {N} gives only {pred * N:.1f} predicted e-foldings, need 20"
                )
            cfg = plan.config(lam, cell, 0)
            op = build(cfg, 0, N, None, gamma)
            dec = eigenpairs(op)
            fitted = []
            for j in range(dec.count):
                eta_j = float(dec.etas[j])
                if not any(lo <= eta_j <= hi for lo, hi in win):
                    continue
                over_tol += int(not dec.ok[j])
                worst = max(worst, float(dec.residuals[j]))
                try:
                    fitted.append((eta_j, eigenvector_decay_fit(dec.vectors[:, j])))
                except ValueError:
                    skipped += 1
            points = [SpectralPoint(eta=eta_j, branch=1) for eta_j, _ in fitted]
            lyaps = lyapunov_poly_many(cfg, points, lyap_N).tolist()
            for (eta_j, fit), L in zip(fitted, lyaps):
                rate = fit.slope
                rows.append(
                    LocalizationRow(
                        lam=lam,
                        N=N,
                        eta=eta_j,
                        decay_rate=rate,
                        r2=fit.r2,
                        localization_length=1.0 / rate if rate > 0 else math.inf,
                        lyapunov=L,
                        ratio=rate / L if L != 0 else math.nan,
                    )
                )
            cell += 1
    return LocalizationResult(
        rows=tuple(rows),
        window=win,
        fits_skipped=skipped,
        eigen_over_tol=over_tol,
        worst_eigen_residual=worst,
    )


def summary_json(result) -> str:
    """JSON summary for any result object exposing summary()."""
    return json.dumps(result.summary(), indent=2, sort_keys=True) + "\n"
