"""Desk-scale experiment drivers.

Four measurements over the quasi-random coefficient model: the small
coupling scaling law for the Lyapunov exponent, large-deviation decay
of Monte Carlo deviation fractions, the same per term of the phase
expansion, and eigenfunction localization on finite windows. Every
driver is deterministic for a fixed plan: per-sample randomness is
derived from (master seed, cell index, chunk index), so worker count
never changes the output. The Monte Carlo drivers stream along time: the
orbits of a Lyapunov cell's base points, or of an LDT chunk's samples
(up to MC_CHUNK of them), step side by side as the rows of one sample
stream, and each statistic is folded slice by slice into running per-row
sums, so memory does not grow with N.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .cmv_operator import DENSE_CAP, build, eigenpair_blocks
from .prufer import _LagSums, default_decorrelation_time, expansion_diagnostics
from .sampling import (
    CorrelationSpectrum,
    TrigPolynomial,
    preset,
    spectral_function,
    spectral_window,
)
from .szego_cocycle import SpectralPoint, _growth, _poly_run, lyapunov_poly_many
from .torus_dynamics import CAT_MAP, TWO_PI, ToralAutomorphism, TorusPoint
from .verblunsky import SLICE_POINTS, VerblunskyConfig, sample_slices

MC_CHUNK = 512
CONFIDENCE = 0.95
GOOD_R2 = 0.8
# minimum distance every eta of a plan keeps from the degenerate angles {0, pi}
ETA_GUARD = 0.05


@dataclass(frozen=True)
class ExperimentPlan:
    """Grids and bookkeeping shared by the experiment drivers.

    base_points is the number of independent orbit starts averaged
    inside each Lyapunov cell.
    """

    lams: tuple[float, ...]
    etas: tuple[float, ...]
    Ns: tuple[int, ...]
    samples: int = 10_000
    seed: int = 0
    autom: ToralAutomorphism = CAT_MAP
    alpha: TrigPolynomial = field(default_factory=lambda: preset("alpha0"))
    base_points: int = 8

    def __post_init__(self):
        if not self.lams or not self.etas or not self.Ns:
            raise ValueError("lambda, eta and N grids must be nonempty")
        # SpectralPoint reduces eta mod 2 pi, so etas a turn apart repeat
        angles = [float(eta) % TWO_PI for eta in self.etas]
        for name, grid, keys in (
            ("lambda", self.lams, self.lams), ("eta", self.etas, angles), ("N", self.Ns, self.Ns)
        ):
            if len(set(keys)) < len(grid):
                raise ValueError(f"the {name} grid repeats an entry: {list(grid)}")
        sup = self.alpha.sup_bound
        for lam in self.lams:
            if not (lam > 0.0 and math.isfinite(lam)):
                raise ValueError(f"lambda = {lam} must be positive and finite")
            if lam * sup >= 1.0 and sup > 0.0:
                raise ValueError(f"lambda = {lam} puts coefficients outside the disk")
        for eta, angle in zip(self.etas, angles):
            if min(angle, abs(angle - math.pi), TWO_PI - angle) < ETA_GUARD:
                raise ValueError(f"eta = {eta} within {ETA_GUARD} of a degenerate angle")
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


# rows per text block of a CSV table
CSV_BLOCK = 4096


def _csv_blocks(header: str, rows):
    """A CSV table as text blocks: the header line, then the rows of any
    row iterator, CSV_BLOCK of them per block, floats by repr and
    everything else by str."""
    yield header + "\n"
    rows = iter(rows)
    while True:
        lines = []
        for row in itertools.islice(rows, CSV_BLOCK):
            parts = []
            for v in row:
                if isinstance(v, float):
                    parts.append(repr(float(v)))
                else:
                    parts.append(str(v))
            lines.append(",".join(parts))
        if not lines:
            return
        yield "\n".join(lines) + "\n"


def _prediction(plan: ExperimentPlan, lam: float, eta: float) -> float:
    """The small coupling law lambda^2 J(eta) / 2 for the Lyapunov exponent."""
    return 0.5 * lam * lam * float(spectral_function(plan.alpha, plan.autom, eta))


def _pool_map(fn, args_list, jobs: int):
    if jobs <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, args_list))


def _check_lags(plan: ExperimentPlan, lag) -> None:
    """Every N of the plan must exceed the lag T = lag(lambda, autom) of
    every lambda, checked before any cell runs."""
    for lam in plan.lams:
        T = lag(lam, plan.autom)
        if min(plan.Ns) <= T:
            raise ValueError(f"N = {min(plan.Ns)} must exceed the lag T = {T} at lambda = {lam}")


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
        return "".join(_csv_blocks(self.CSV_HEADER, map(dataclasses.astuple, self.rows)))

    def summary(self) -> dict:
        return {
            "rows": len(self.rows),
            "residual_fit": self.residual_fit.as_dict() if self.residual_fit else None,
        }


def _lyapunov_cell(args) -> LyapunovCell:
    plan, cell_index, lam, eta, N = args
    s = SpectralPoint(eta=eta)
    cfgs = [plan.config(lam, cell_index, r) for r in range(plan.base_points)]
    diag = expansion_diagnostics(cfgs, s, N)
    # The raw growth rate log r_N / N carries a mean-zero lag-coupled
    # fluctuation of size lambda/sqrt(N) that would bury the cubic
    # remainder at this orbit budget. The measured lag-T term of the
    # phase expansion is that fluctuation, so subtracting it leaves
    # an estimator with the same limit and quadratic-order noise.
    L_N = float(np.mean(diag.lhs - diag.I4))
    prediction = _prediction(plan, lam, eta)
    return LyapunovCell(
        lam=lam,
        eta=eta,
        N=N,
        L_N=L_N,
        prediction=prediction,
        residual=abs(L_N - prediction),
        cross_delta=float(np.max(np.abs(diag.lhs - diag.lhs_poly))),
    )


def lyapunov_scaling(plan: ExperimentPlan, jobs: int = 1) -> LyapunovScalingResult:
    """Finite-N Lyapunov exponents against the small coupling prediction.

    Each (lambda, eta, N) cell averages the fluctuation-corrected
    growth estimate (raw Prufer growth rate minus its measured lag-T
    term) over base_points independent orbit starts and compares with
    lambda^2 J(eta) / 2. cross_delta is the largest disagreement, over
    the base points, between two formulas for the uncorrected growth
    rate on the same orbit pass: the Prufer sum of log(H_n) / 2 over N
    and the polynomial route's log |phi_N| / N. The residual fit regresses
    log median residual on log lambda; its slope measures the order of the
    remainder and needs at least two distinct lambdas. Every N must exceed
    the expansion's lag T.
    """
    _check_lags(plan, default_decorrelation_time)
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
        import scipy.special

        return float(
            scipy.special.betaincinv(self.count + 1, self.samples - self.count, CONFIDENCE)
        )


@dataclass(frozen=True)
class DeviationResult:
    """One row per (lambda, N) cell and statistic, and per statistic, in
    row order, a (name, fit) pair: the exponential fit over its positive
    cells, None with fewer than two."""

    family: str
    rows: tuple[DeviationRow, ...]
    fits: tuple[tuple[str, FitResult | None], ...]

    CSV_HEADER = "family,lambda,N,count,samples,fraction,stderr,upper95,q95,threshold"

    def table(self) -> list[tuple]:
        """The rows' values in CSV_HEADER order."""
        return [
            (r.family, r.lam, r.N, r.count, r.samples, r.fraction, r.stderr,
             r.upper95, r.q95, r.threshold)
            for r in self.rows
        ]

    def csv(self) -> str:
        return "".join(_csv_blocks(self.CSV_HEADER, self.table()))

    def summary(self) -> dict:
        return {
            "family": self.family,
            "rows": len(self.rows),
            "fits": {name: fit.as_dict() if fit else None for name, fit in self.fits},
        }


def _fit_positive_cells(rows: list[DeviationRow]) -> FitResult | None:
    pts = [(r.N, r.fraction) for r in rows if r.count > 0]
    if len(pts) < 2:
        return None
    return linear_fit([p[0] for p in pts], [math.log(p[1]) for p in pts])


def _birkhoff_stats(plan, lam, N, rows, slices):
    total = sum(F.sum(axis=1) for F in slices)
    return {"birkhoff": np.abs(total / N)}


def _lyapunov_stats(plan, lam, N, rows, slices):
    eta = plan.etas[0]
    pred = _prediction(plan, lam, eta)
    # each slice scaled in place, so no second array per slice
    alphas = (np.multiply(F, lam, out=F) for F in slices)
    top, _, log_r = _poly_run(alphas, SpectralPoint(eta=eta).z, rows)
    return {"lyapunov": np.abs(_growth(top, log_r, N) - pred)}


def _prufer_stats(plan, lam, N, rows, slices):
    z = SpectralPoint(eta=plan.etas[0]).z
    T = default_decorrelation_time(lam, plan.autom)
    spec = CorrelationSpectrum.build(plan.alpha, plan.autom)
    # the exact autocorrelations at lags 1 .. cutoff; past the cutoff every
    # one is exactly 0, so a lag T over the cutoff adds nothing
    exact = spec.correlations[spec.cutoff + 1 :].tolist()
    corr_limit = sum((z**sh * c).real for sh, c in enumerate(exact[:T], start=1))
    acc = _LagSums(rows, lam, z, T)
    # the first T samples, for the shifted products that end before step T
    first = np.empty((rows, 0), dtype=np.complex128)
    for F in slices:
        if first.shape[1] < T:
            first = np.concatenate([first, F[:, : T - first.shape[1]]], axis=1)
        acc.add(F)
    abs_sq, re_zF_sq, re_lag = acc.sums
    corr = 0.0
    for sh in range(1, T + 1):
        # the shifted products over the steps sh .. N - 1: those before step
        # T from the first samples, the rest from the stream's lag sums
        early = (z**sh * (np.conj(first[:, : T - sh]) * first[:, sh:])).real
        corr += (early.sum(axis=1) + acc.shifted[sh - 1]) / (N - sh)
    return {
        "fsq": np.abs(abs_sq / N - plan.alpha.mean_square()),
        "mixed": np.abs(re_lag / (N - T)),
        "corr": np.abs(corr - corr_limit),
        "zeta2": 0.5 * np.abs(re_zF_sq / N),
    }


class Family(NamedTuple):
    """One LDT deviation family: its statistics and how they are run."""

    # (plan, lambda, N, rows, slices) -> each statistic's values by name,
    # in row order, folded from one stream of (rows, <= width) slices of
    # the unscaled orbit samples F, the first N of every row
    statistics: Callable
    # lambda -> default event threshold
    threshold: Callable[[float], float]
    # whether the statistics read the plan's (single) eta
    reads_angle: bool
    # (lambda, automorphism) -> steps the statistics look back; every N
    # must exceed it
    lag: Callable[[float, ToralAutomorphism], int]


FAMILIES: dict[str, Family] = {
    "birkhoff": Family(_birkhoff_stats, lambda lam: 0.2, False, lambda lam, autom: 0),
    "lyapunov": Family(_lyapunov_stats, lambda lam: lam**3, True, lambda lam, autom: 0),
    "prufer": Family(_prufer_stats, lambda lam: lam**3, True, default_decorrelation_time),
}


def _deviation_chunk(args) -> dict[str, np.ndarray]:
    """One deterministic chunk of Monte Carlo samples for one cell.

    Draws the chunk's base points and reads one sample_slices stream of
    all of them: every orbit steps side by side, SLICE_POINTS // rows
    steps per slice, and the family folds slice after slice into running
    per-row state, so memory does not grow with N. Returns every
    statistic's values, one per sample.
    """
    plan, family, cell_index, chunk_index, lam, N = args
    lo = chunk_index * MC_CHUNK
    rows = min(MC_CHUNK, plan.samples - lo)
    bases = plan.rng(cell_index, chunk_index).uniform(0.0, TWO_PI, size=(rows, 2))
    slices = sample_slices(plan.autom, plan.alpha, bases, N, max(1, SLICE_POINTS // rows))
    return FAMILIES[family].statistics(plan, lam, N, rows, slices)


def _deviation_rows(plan: ExperimentPlan, family: str, threshold: float | None, jobs: int):
    """Rows of every (lambda, N) cell and statistic of the family, each cell
    against the constant threshold, or the family's default at its lambda
    when that is None. A cell threshold that is not positive and finite
    raises ValueError before any chunk runs.

    Chunks run through the pool in a layout fixed by the plan, and are
    merged in that order, so the rows never depend on jobs.
    """
    n_chunks = (plan.samples + MC_CHUNK - 1) // MC_CHUNK
    default = FAMILIES[family].threshold
    cells = [
        (lam, N, float(default(lam) if threshold is None else threshold))
        for lam in plan.lams
        for N in plan.Ns
    ]
    for lam, _, thr in cells:
        if not (thr > 0.0 and math.isfinite(thr)):
            raise ValueError(
                f"the {family} threshold at lambda = {lam} is {thr}; it must be positive and finite"
            )
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
            stats = np.concatenate([chunk[name] for chunk in chunks])
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
    threshold: float | None = None,
    jobs: int = 1,
) -> DeviationResult:
    """Monte Carlo deviation fractions along the N grid.

    family, a key of FAMILIES, selects the measured statistics:
    - "birkhoff": the modulus of the plain orbit average of the sampling
      function (threshold default 0.2, coupling-independent);
    - "lyapunov": the distance of the finite-N growth rate from the small
      coupling prediction (threshold default lambda^3);
    - "prufer": the terms of the phase expansion, all with threshold
      default lambda^3. "fsq" is the orbit average of |F|^2 against its
      exact mean; "mixed" the lagged phase-weighted average Re(z^T
      zeta_{n-T} F_n); "corr" the short-lag correlation sum against its
      exact limit; "zeta2" the squared-phase average Re(zeta_n^2 F_n^2) / 2.
      Every N must exceed the lag T of the expansion, or the lagged terms
      have no samples.
    Families that read an angle run at one eta. threshold, when given, is
    the event threshold of every cell and statistic, in place of the
    family's lambda-dependent default. Zero-count cells stay in the table;
    their upper95 column carries the one-sided binomial bound, and each
    statistic's exponential fit uses only its strictly positive cells.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {', '.join(FAMILIES)}, got {family!r}")
    fam = FAMILIES[family]
    if fam.reads_angle and len(plan.etas) > 1:
        raise ValueError(f"the {family} family runs at one eta, got {len(plan.etas)}")
    _check_lags(plan, fam.lag)
    rows = _deviation_rows(plan, family, threshold, jobs)
    fits = tuple(
        (name, _fit_positive_cells([r for r in rows if r.family == name]))
        for name in dict.fromkeys(r.family for r in rows)
    )
    return DeviationResult(family=family, rows=tuple(rows), fits=fits)


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
    is the largest residual among in-window pairs; eigen_repaired counts
    the pairs that eigenpair_blocks rotated by Rayleigh-Ritz, summed over
    the blocks of every window.
    The summary's good_fits counts rows with r2 >= GOOD_R2 and a positive
    decay rate.
    """

    rows: tuple[LocalizationRow, ...]
    window: tuple[tuple[float, float], ...]
    fits_skipped: int = 0
    eigen_over_tol: int = 0
    worst_eigen_residual: float = 0.0
    eigen_repaired: int = 0

    CSV_HEADER = "lambda,N,eta,decay_rate,r2,localization_length,L,ratio"

    @property
    def empty(self) -> bool:
        return not self.rows

    def median_ratio(self) -> float:
        if not self.rows:
            return math.nan
        return float(np.median([r.ratio for r in self.rows]))

    def csv(self) -> str:
        return "".join(_csv_blocks(self.CSV_HEADER, map(dataclasses.astuple, self.rows)))

    def summary(self) -> dict:
        return {
            "rows": len(self.rows),
            "median_ratio": self.median_ratio(),
            "good_fits": sum(r.r2 >= GOOD_R2 and r.decay_rate > 0.0 for r in self.rows),
            "window": [list(w) for w in self.window],
            "fits_skipped": self.fits_skipped,
            "eigen_over_tol": self.eigen_over_tol,
            "worst_eigen_residual": self.worst_eigen_residual,
            "eigen_repaired": self.eigen_repaired,
        }


BOUNDARY_SKIP = 5


def _decay_fits(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponential decay fits of a block of profiles, from each peak outward.

    Column by column: the least-squares line log|v(n)| = intercept -
    rate |n - peak| over both sides pooled, skipping BOUNDARY_SKIP sites
    at each end and any exact zeros; one closed form over the whole
    block. Returns the rates (positive = decay), the r2 values, and ok,
    which is False for a column with fewer than 3 nonzero sites or a
    non-finite fit. A column's results do not depend on the other
    columns of its block.
    """
    if vectors.shape[1] == 1:
        # numpy sums a lone column's products pairwise, where a block's
        # are summed row by row; taken twice, the column gets the bits it
        # has in any block
        return tuple(a[:1] for a in _decay_fits(vectors[:, [0, 0]]))
    mag = np.abs(vectors)
    m = mag.shape[0]
    inner = mag[BOUNDARY_SKIP : m - BOUNDARY_SKIP]
    keep = inner > 0.0
    count = keep.sum(axis=0)
    sites = np.arange(BOUNDARY_SKIP, m - BOUNDARY_SKIP)[:, None]
    x = -np.abs(sites - np.argmax(mag, axis=0)).astype(float)
    # columns without enough sites divide by zero; ok flags them, so
    # their NaNs are counted, not warned about
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(np.where(keep, inner, 1.0))
        dx = np.where(keep, x - (x * keep).sum(axis=0) / count, 0.0)
        dy = np.where(keep, y - (y * keep).sum(axis=0) / count, 0.0)
        rate = (dx * dy).sum(axis=0) / (dx * dx).sum(axis=0)
        ss_res = ((dy - rate * dx) ** 2).sum(axis=0)
        ss_tot = (dy * dy).sum(axis=0)
        r2 = np.where(
            ss_tot > 0.0,
            np.clip(1.0 - ss_res / ss_tot, 0.0, 1.0),
            np.where(ss_res <= 1e-12, 1.0, 0.0),
        )
    ok = (count >= 3) & np.isfinite(rate) & np.isfinite(r2)
    return rate, r2, ok


def localization(
    plan: ExperimentPlan,
    delta: float = 0.3,
    c: float = 0.05,
    gamma: complex = 1.0,
    lyap_N: int = 200_000,
) -> LocalizationResult:
    """Eigenfunction decay rates inside a spectral window.

    For each (lambda, N) cell: build the window operator on [0, N] with
    right boundary value gamma (the a = 0 edge needs no left value) and
    stream its eigenpairs (eigenpair_blocks), in blocks of whole
    clusters of H-eigenvalues (one gap rule decides them, so no
    Rayleigh-Ritz repair reaches across a block). Of each block, keep the
    pairs whose angle lies in the spectral window (where the spectral
    function exceeds c, at least delta away from 0 and pi), fit their
    eigenvectors' exponential profiles in one batch, and drop the
    vectors, so a window costs O(EIGEN_BLOCK m) memory, not O(m^2). The
    fitted rows are put in angle order and compared with the growth rate
    at the matching angle. No in-window eigenvalues yields an empty
    result, not an error. In-window pairs over the eigen-residual
    tolerance are fitted like the rest and counted; failed fits are
    skipped and counted. An N whose window exceeds DENSE_CAP sites raises
    ValueError before any window is built: the fit spans the whole
    window, and past the cap it reads the vectors' noise floor, 1e-26 to
    1e-30 below their peak, rather than their decay.
    """
    win = tuple(spectral_window(plan.alpha, plan.autom, delta, c))
    rows: list[LocalizationRow] = []
    if not win:
        return LocalizationResult(rows=(), window=win)
    # the window on [0, N] has N + 1 sites; refuse before building any
    sites = max(plan.Ns) + 1
    if sites > DENSE_CAP:
        raise ValueError(f"localization capped at {DENSE_CAP} sites, window has {sites}")
    skipped = over_tol = repaired = 0
    worst = 0.0
    cell = 0
    for lam in plan.lams:
        for N in plan.Ns:
            pred = max(_prediction(plan, lam, 0.5 * (lo + hi)) for lo, hi in win)
            if 0.0 < pred * N < 20.0:
                raise ValueError(
                    f"N = {N} gives only {pred * N:.1f} predicted e-foldings, need 20"
                )
            cfg = plan.config(lam, cell, 0)
            op = build(cfg, 0, N, None, gamma)
            fits = []
            for blk in eigenpair_blocks(op):
                repaired += blk.repaired
                inside = np.zeros(blk.count, dtype=bool)
                for lo, hi in win:
                    inside |= (blk.etas >= lo) & (blk.etas <= hi)
                inside = np.flatnonzero(inside)
                over_tol += int(np.count_nonzero(~blk.ok[inside]))
                worst = max(worst, float(blk.residuals[inside].max(initial=0.0)))
                rates, r2s, ok = _decay_fits(blk.vectors[:, inside])
                skipped += int(np.count_nonzero(~ok))
                fits.append((blk.etas[inside[ok]], rates[ok], r2s[ok]))
            etas, rates, r2s = (np.concatenate(f) for f in zip(*fits))
            order = np.argsort(etas, kind="stable")
            etas, rates, r2s = etas[order].tolist(), rates[order].tolist(), r2s[order].tolist()
            points = [SpectralPoint(eta=eta_j) for eta_j in etas]
            lyaps = lyapunov_poly_many(cfg, points, lyap_N).tolist()
            for eta_j, rate, r2, L in zip(etas, rates, r2s, lyaps):
                rows.append(
                    LocalizationRow(
                        lam=lam,
                        N=N,
                        eta=eta_j,
                        decay_rate=rate,
                        r2=r2,
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
        eigen_repaired=repaired,
    )
