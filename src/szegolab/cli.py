"""Command-line front end: config parsing, experiment dispatch, emission.

Subcommands wrap the experiment drivers and print plot-ready tables.
All angles are radians and all logarithms natural. CSV output uses ','
separators, '.' decimals, LF line endings, UTF-8. A config file can
hold any long option as flat key=value lines (or one JSON object);
command line values win over file values, file values over defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .cmv_operator import ConstructionError, build, eigenpairs
from .experiments import (
    ExperimentPlan,
    _csv,
    ldt_deviation,
    localization,
    lyapunov_scaling,
    prufer_term_ldt,
)
from .greens import (
    GreenFitError,
    GreenQuery,
    ResolventBlowupError,
    decay_profile,
    green_direct,
    green_modulus_formula,
    reconstruction_residual,
)
from .prufer import zeta_trace
from .sampling import (
    PRESETS,
    CorrelationSpectrum,
    TrigPolynomial,
    preset,
    spectral_function,
)
from .szego_cocycle import SpectralPoint, polynomials, transfer_identity_residual
from .torus_dynamics import CAT_MAP, TWO_PI, ToralAutomorphism, TorusPoint, validate
from .verblunsky import VerblunskyConfig

EMPTY_WINDOW_MARKER = "no eigenvalues in I0"

SELFTEST_TOLS = {
    "transfer": 1e-8,
    "prufer": 1e-8,
    "unitarity": 1e-12,
    "green": 1e-6,
    "reality": 1e-10,
    "presets": 1e-12,
    "reconstruction": 1e-8,
}


class ConfigError(Exception):
    """Invalid flag, config file entry or flag combination."""


# ---------------------------------------------------------------------------
# value coercion (shared between flags and config file entries)


def _float_of(key: str, value) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key}: value must be finite, got {value!r}")
    return x


def _co_float(key: str, value) -> float:
    return _float_of(key, value)


def _co_pos_float(key: str, value) -> float:
    x = _float_of(key, value)
    if x <= 0.0:
        raise ConfigError(f"{key}: value must be positive, got {x}")
    return x


def _int_of(key: str, value) -> int:
    x = _float_of(key, value)
    if x != int(x):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return int(x)


def _co_pos_int(key: str, value) -> int:
    i = _int_of(key, value)
    if i < 1:
        raise ConfigError(f"{key}: value must be at least 1, got {i}")
    return i


def _co_nonneg_int(key: str, value) -> int:
    i = _int_of(key, value)
    if i < 0:
        raise ConfigError(f"{key}: value must be nonnegative, got {i}")
    return i


def _co_count(key: str, value) -> int:
    i = _int_of(key, value)
    if i < 2:
        raise ConfigError(f"{key}: length must be at least 2, got {i}")
    return i


def _split_list(key: str, value) -> list:
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [p for p in str(value).split(",") if p.strip()]
    if not items:
        raise ConfigError(f"{key}: empty list")
    return items


def _co_float_list(key: str, value) -> tuple[float, ...]:
    return tuple(_float_of(key, p) for p in _split_list(key, value))


def _co_pos_float_list(key: str, value) -> tuple[float, ...]:
    return tuple(_co_pos_float(key, p) for p in _split_list(key, value))


def _co_count_list(key: str, value) -> tuple[int, ...]:
    return tuple(_co_count(key, p) for p in _split_list(key, value))


def _co_matrix(key: str, value) -> ToralAutomorphism:
    if isinstance(value, (list, tuple)):
        entries = value
    else:
        entries = [p.strip() for p in str(value).replace(";", ",").split(",")]
    try:
        return validate(np.asarray(entries, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _co_alpha(key: str, value) -> TrigPolynomial:
    coeffs: dict[tuple[int, int], complex] = {}
    for term in str(value).split(";"):
        term = term.strip()
        if not term:
            continue
        head, sep, tail = term.partition(":")
        parts = head.split(",")
        if not sep or len(parts) != 2:
            raise ConfigError(
                f"{key}: expected k1,k2:coeff terms separated by ';', got {term!r}"
            )
        try:
            k = (int(parts[0]), int(parts[1]))
            c = complex(tail.strip())
        except ValueError:
            raise ConfigError(f"{key}: malformed term {term!r}") from None
        coeffs[k] = coeffs.get(k, 0.0) + c
    try:
        return TrigPolynomial.from_coeffs(coeffs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _co_preset(key: str, value) -> str:
    name = str(value)
    if name not in PRESETS:
        raise ConfigError(f"{key}: unknown preset {name!r}; choices: {sorted(PRESETS)}")
    return name


def _co_complex(key: str, value) -> complex:
    try:
        return complex(str(value).replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{key}: expected a complex number, got {value!r}") from None


def _co_fmt(key: str, value) -> str:
    v = str(value)
    if v not in ("csv", "json"):
        raise ConfigError(f"{key}: expected csv or json, got {value!r}")
    return v


def _co_family(key: str, value) -> str:
    v = str(value)
    if v not in ("birkhoff", "lyapunov", "prufer"):
        raise ConfigError(
            f"{key}: expected birkhoff, lyapunov or prufer, got {value!r}"
        )
    return v


def _co_str(key: str, value) -> str:
    return str(value)


def _co_tol(value) -> dict[str, float]:
    """Tolerance overrides from a dict, a list of name=value strings, or
    one ';'-separated string."""
    if value is None:
        return {}
    if isinstance(value, dict):
        pairs = list(value.items())
    else:
        items = value if isinstance(value, (list, tuple)) else str(value).split(";")
        pairs = []
        for item in items:
            name, sep, val = str(item).partition("=")
            if not sep:
                raise ConfigError(f"tol: expected NAME=VALUE, got {item!r}")
            pairs.append((name.strip(), val.strip()))
    out = {}
    for name, val in pairs:
        if name not in SELFTEST_TOLS:
            raise ConfigError(
                f"tol: unknown tolerance {name!r}; choices: {sorted(SELFTEST_TOLS)}"
            )
        out[name] = _co_pos_float(f"tol {name}", val)
    return out


_COERCERS = {
    "A": _co_matrix,
    "preset": _co_preset,
    "alpha": _co_alpha,
    "lam": _co_pos_float,
    "lam_grid": _co_pos_float_list,
    "eta": _co_float,
    "eta_grid": _co_float_list,
    "N": _co_count,
    "N_grid": _co_count_list,
    "samples": _co_pos_int,
    "seed": _co_nonneg_int,
    "jobs": _co_pos_int,
    "out": _co_str,
    "fmt": _co_fmt,
    "family": _co_family,
    "threshold": _co_pos_float,
    "delta": _co_pos_float,
    "c": _co_pos_float,
    "gamma": _co_complex,
    "lyap_N": _co_pos_int,
    "columns": _co_pos_int,
    "points": _co_pos_int,
}

_ALIASES = {"lambda": "lam", "lambda_grid": "lam_grid", "format": "fmt"}

_KNOWN_KEYS = set(_COERCERS) | {"tol"}

# Pairs where at most one member may be given; a command line member
# silently displaces the other member coming from the config file.
_EXCLUSIVE = (
    ("lam", "lam_grid"),
    ("eta", "eta_grid"),
    ("N", "N_grid"),
    ("preset", "alpha"),
)

_FLAG_NAME = {
    "lam": "--lambda",
    "lam_grid": "--lambda-grid",
    "eta": "--eta",
    "eta_grid": "--eta-grid",
    "N": "--N",
    "N_grid": "--N-grid",
    "preset": "--preset",
    "alpha": "--alpha",
}

_DEFAULTS = {
    "A": CAT_MAP,
    "preset": "alpha0",
    "alpha": None,
    "lam": None,
    "lam_grid": None,
    "eta": None,
    "eta_grid": None,
    "N": None,
    "N_grid": None,
    "samples": 10_000,
    "seed": None,
    "jobs": None,
    "out": None,
    "fmt": "csv",
    "family": "birkhoff",
    "threshold": None,
    "delta": 0.3,
    "c": 0.05,
    "gamma": 1.0 + 0.0j,
    "lyap_N": 200_000,
    "columns": 12,
    "points": 256,
}


# ---------------------------------------------------------------------------
# config file loading


def _canon_key(key: str) -> str:
    k = key.strip().replace("-", "_")
    return _ALIASES.get(k, k)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from None
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: JSON config must be a single object")
        out = {}
        for key, value in data.items():
            ck = _canon_key(key)
            if ck not in _KNOWN_KEYS:
                raise ConfigError(f"{path}: unknown key {key!r}")
            out[ck] = value
        return out
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#") or s.startswith(";"):
            continue
        key, sep, value = s.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {s!r}")
        ck = _canon_key(key)
        if ck not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown key {key.strip()!r}")
        if ck in out:
            raise ConfigError(f"{path}:{ln}: duplicate key {key.strip()!r}")
        out[ck] = value.strip()
    return out


# ---------------------------------------------------------------------------
# argument parsing


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: grids, model, output and knobs."""

    command: str
    autom: ToralAutomorphism
    alpha: TrigPolynomial
    lams: tuple[float, ...]
    etas: tuple[float, ...] | None
    Ns: tuple[int, ...]
    samples: int
    seed: int
    jobs: int
    out: str | None
    fmt: str
    tol: dict
    family: str
    threshold: float | None
    delta: float
    c: float
    gamma: complex
    lyap_N: int
    columns: int
    points: int


_EPILOG = """\
All angles are in radians and all logarithms natural (base e).

Config file (--config): flat key=value lines, '#' comments, keys named
like the long flags (lambda_grid = 0.05,0.1); a single JSON object is
accepted as an alternative. Precedence: flags > file > defaults.
Unknown keys are rejected.

SZEGO_LAB_SEED is used when --seed is absent from flags and file.

Selftest tolerance names for --tol: transfer, prufer, unitarity,
green, reality, presets, reconstruction.
"""


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS
    )
    g = common.add_argument_group("options")
    g.add_argument("--config", metavar="FILE", help="key=value or JSON config file")
    g.add_argument(
        "--A",
        metavar="a,b,c,d",
        help="automorphism entries, row major, det 1, |trace| > 2 (default 2,1,1,1)",
    )
    g.add_argument(
        "--preset",
        metavar="NAME",
        help="sampling function preset, alpha0 or alpha1 (default alpha0)",
    )
    g.add_argument(
        "--alpha",
        metavar="SPEC",
        help="custom sampling function, ';'-separated k1,k2:coeff terms",
    )
    g.add_argument("--lambda", dest="lam", metavar="X", help="coupling (default 0.1)")
    g.add_argument(
        "--lambda-grid", dest="lam_grid", metavar="X,..", help="coupling grid"
    )
    g.add_argument(
        "--eta", metavar="X", help="spectral angle in radians (default pi/2)"
    )
    g.add_argument("--eta-grid", dest="eta_grid", metavar="X,..", help="angle grid")
    g.add_argument("--N", metavar="K", help="orbit/window length (default 1000)")
    g.add_argument("--N-grid", dest="N_grid", metavar="K,..", help="length grid")
    g.add_argument(
        "--samples", metavar="M", help="Monte Carlo samples per cell (default 10000)"
    )
    g.add_argument(
        "--seed", metavar="S", help="master seed (default: SZEGO_LAB_SEED, then 0)"
    )
    g.add_argument(
        "--jobs", metavar="J", help="worker processes (default: all available cores)"
    )
    g.add_argument("--out", metavar="FILE", help="write output to FILE, not stdout")
    g.add_argument(
        "--format",
        dest="fmt",
        choices=("csv", "json"),
        help="output format (default csv)",
    )
    g.add_argument(
        "--tol",
        action="append",
        metavar="NAME=V",
        help="selftest tolerance override, repeatable",
    )
    g.add_argument(
        "--family",
        choices=("birkhoff", "lyapunov", "prufer"),
        help="ldt statistic family (default birkhoff)",
    )
    g.add_argument(
        "--threshold",
        metavar="T",
        help="ldt constant threshold override (default: 0.2 birkhoff, lambda^3 else)",
    )
    g.add_argument(
        "--delta", metavar="D", help="localize: guard around {0, pi} (default 0.3)"
    )
    g.add_argument(
        "--c", metavar="C", help="localize: spectral level cut (default 0.05)"
    )
    g.add_argument(
        "--gamma",
        metavar="G",
        help="right boundary value, unimodular, e.g. 1 or 0.6+0.8j (default 1)",
    )
    g.add_argument(
        "--lyap-N",
        dest="lyap_N",
        metavar="K",
        help="localize: reference growth-rate orbit length (default 200000)",
    )
    g.add_argument(
        "--columns", metavar="K", help="green: resolvent columns sampled (default 12)"
    )
    g.add_argument(
        "--points", metavar="K", help="jspec: default angle grid size (default 256)"
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="szegolab",
        parents=[common],
        description=__doc__.splitlines()[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, text in (
        ("lyapunov", "finite-N growth rates against the small coupling law"),
        ("jspec", "spectral function table over the angle grid"),
        ("ldt", "Monte Carlo deviation fractions along the N grid"),
        ("green", "resolvent decay profile on one window"),
        ("localize", "eigenfunction decay rates inside a spectral window"),
        ("selftest", "fast invariant battery, exit 1 on numerical failure"),
    ):
        sub.add_parser(
            name,
            parents=[common],
            help=text,
            description=text,
            epilog=_EPILOG,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            argument_default=argparse.SUPPRESS,
        )
    return parser


def parse(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    cli = {k: v for k, v in vars(args).items() if k != "command"}
    path = cli.pop("config", None)
    file_vals = _load_config_file(path) if path is not None else {}

    tol = {**_co_tol(file_vals.pop("tol", None)), **_co_tol(cli.pop("tol", None))}

    for a, b in _EXCLUSIVE:
        if a in cli:
            file_vals.pop(b, None)
        if b in cli:
            file_vals.pop(a, None)
    given = set(file_vals) | set(cli)
    for a, b in _EXCLUSIVE:
        if a in given and b in given:
            raise ConfigError(f"give only one of {_FLAG_NAME[a]} and {_FLAG_NAME[b]}")

    vals = dict(_DEFAULTS)
    for source in (file_vals, cli):
        for key, value in source.items():
            vals[key] = _COERCERS[key](key, value)

    if "seed" not in given:
        env = os.environ.get("SZEGO_LAB_SEED")
        vals["seed"] = _co_nonneg_int("SZEGO_LAB_SEED", env) if env else 0

    alpha = vals["alpha"] if vals["alpha"] is not None else preset(vals["preset"])
    lams = vals["lam_grid"] or ((vals["lam"],) if vals["lam"] is not None else (0.1,))
    etas = vals["eta_grid"] or ((vals["eta"],) if vals["eta"] is not None else None)
    Ns = vals["N_grid"] or ((vals["N"],) if vals["N"] is not None else (1000,))

    return RunConfig(
        command=args.command,
        autom=vals["A"],
        alpha=alpha,
        lams=lams,
        etas=etas,
        Ns=Ns,
        samples=vals["samples"],
        seed=vals["seed"],
        jobs=vals["jobs"] if vals["jobs"] is not None else _default_jobs(),
        out=vals["out"],
        fmt=vals["fmt"],
        tol=tol,
        family=vals["family"],
        threshold=vals["threshold"],
        delta=vals["delta"],
        c=vals["c"],
        gamma=vals["gamma"],
        lyap_N=vals["lyap_N"],
        columns=vals["columns"],
        points=vals["points"],
    )


def _default_jobs() -> int:
    counter = getattr(os, "process_cpu_count", None) or os.cpu_count
    return max(1, counter() or 1)


# ---------------------------------------------------------------------------
# dispatch


def _emit(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _plan(run: RunConfig) -> ExperimentPlan:
    try:
        return ExperimentPlan(
            lams=run.lams,
            etas=run.etas if run.etas is not None else (0.5 * math.pi,),
            Ns=run.Ns,
            samples=run.samples,
            seed=run.seed,
            autom=run.autom,
            alpha=run.alpha,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_lyapunov(run: RunConfig) -> int:
    result = lyapunov_scaling(_plan(run), jobs=run.jobs)
    if run.fmt == "csv":
        text = result.csv()
    else:
        text = _json_text(
            {
                "command": "lyapunov",
                "rows": [dataclasses.asdict(r) for r in result.rows],
                "summary": result.summary(),
            }
        )
    _emit(run.out, text)
    return 0


def _cmd_jspec(run: RunConfig) -> int:
    if run.etas is not None:
        etas = [float(e) for e in run.etas]
    else:
        etas = [TWO_PI * k / run.points for k in range(run.points)]
    spec = CorrelationSpectrum.build(run.alpha, run.autom)
    rows = [
        (eta, float(spectral_function(run.alpha, run.autom, eta, spectrum=spec)))
        for eta in etas
    ]
    if run.fmt == "csv":
        text = _csv("eta,J", rows)
    else:
        text = _json_text(
            {
                "command": "jspec",
                "rows": [{"eta": eta, "J": val} for eta, val in rows],
            }
        )
    _emit(run.out, text)
    return 0


def _cmd_ldt(run: RunConfig) -> int:
    plan = _plan(run)
    thr = None if run.threshold is None else (lambda lam: run.threshold)
    if run.family == "prufer":
        result = prufer_term_ldt(plan, threshold_fn=thr, jobs=run.jobs)
    else:
        result = ldt_deviation(plan, family=run.family, threshold_fn=thr, jobs=run.jobs)
    if run.fmt == "csv":
        text = result.csv()
    else:
        text = _json_text(
            {
                "command": "ldt",
                "rows": [
                    {
                        "family": r.family,
                        "lambda": r.lam,
                        "N": r.N,
                        "count": r.count,
                        "samples": r.samples,
                        "fraction": r.fraction,
                        "stderr": r.stderr,
                        "upper95": r.upper95,
                        "q95": r.q95,
                        "threshold": r.threshold,
                    }
                    for r in result.rows
                ],
                "summary": result.summary(),
            }
        )
    _emit(run.out, text)
    return 0


def _cmd_green(run: RunConfig) -> int:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(run.seed)))
    cfg = VerblunskyConfig(
        lam=run.lams[0],
        base=TorusPoint.random(rng),
        autom=run.autom,
        alpha=run.alpha,
    )
    eta = run.etas[0] if run.etas is not None else 0.5 * math.pi
    profile = decay_profile(
        cfg, SpectralPoint(eta=eta), run.Ns[0], None, run.gamma, columns=run.columns
    )
    if run.fmt == "csv":
        text = profile.csv()
    else:
        text = _json_text(
            {
                "command": "green",
                "slope": profile.slope,
                "intercept": profile.intercept,
                "r2": profile.r2,
                "rows": [
                    {"n1": n1, "n2": n2, "log_abs_G": lg}
                    for n1, n2, lg in profile.rows
                ],
            }
        )
    _emit(run.out, text)
    return 0


def _cmd_localize(run: RunConfig) -> int:
    plan = _plan(run)
    result = localization(
        plan, delta=run.delta, c=run.c, gamma=run.gamma, lyap_N=run.lyap_N
    )
    if run.fmt == "csv":
        text = result.csv()
        if result.empty:
            text += EMPTY_WINDOW_MARKER + "\n"
    else:
        payload = {
            "command": "localize",
            "rows": [dataclasses.asdict(r) for r in result.rows],
            "summary": result.summary(),
        }
        if result.empty:
            payload["marker"] = EMPTY_WINDOW_MARKER
        text = _json_text(payload)
    _emit(run.out, text)
    return 0


# ---------------------------------------------------------------------------
# selftest battery


def _random_case(rng, run: RunConfig) -> tuple[VerblunskyConfig, SpectralPoint]:
    hi = 0.9 / max(run.alpha.sup_bound, 1e-6)
    lam = float(rng.uniform(0.1 * hi, hi))
    cfg = VerblunskyConfig(
        lam=lam, base=TorusPoint.random(rng), autom=run.autom, alpha=run.alpha
    )
    s = SpectralPoint(eta=float(rng.uniform(0.2, TWO_PI - 0.2)))
    return cfg, s


def _unimodular(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, TWO_PI)))


def _check_transfer(rng, run: RunConfig) -> float:
    worst = 0.0
    for _ in range(8):
        cfg, s = _random_case(rng, run)
        for N in (1, 10, 100):
            worst = max(worst, transfer_identity_residual(cfg, s, N))
    return worst


def _check_prufer(rng, run: RunConfig) -> float:
    worst = 0.0
    for _ in range(5):
        cfg, s = _random_case(rng, run)
        _, log_r = zeta_trace(cfg, s, 2000)
        quad = polynomials(cfg, s, 2000)
        worst = max(worst, abs(math.exp(log_r - quad.log_abs_phi()) - 1.0))
    return worst


def _check_unitarity(rng, run: RunConfig) -> float:
    worst = 0.0
    for k in range(8):
        cfg, _ = _random_case(rng, run)
        a = 0 if k % 2 == 0 else int(rng.integers(1, 20))
        b = a + int(rng.integers(10, 120))
        beta = None if a == 0 else _unimodular(rng)
        op = build(cfg, a, b, beta, _unimodular(rng))
        worst = max(worst, op.unitarity_defect())
    return worst


def _check_green(rng, run: RunConfig) -> float:
    worst = 0.0
    hits = 0
    for _ in range(12):
        cfg, s = _random_case(rng, run)
        b = int(rng.integers(12, 60))
        n1, n2 = (int(n) for n in rng.integers(0, b + 1, size=2))
        q = GreenQuery(
            cfg=cfg, a=0, b=b, beta=None, gamma=_unimodular(rng), z=s.z, n1=n1, n2=n2
        )
        try:
            direct = abs(green_direct(q))
        except ResolventBlowupError:
            continue
        formula = green_modulus_formula(q)
        worst = max(worst, abs(formula - direct) / max(direct, 1e-300))
        hits += 1
    return worst if hits >= 6 else math.inf


def _check_reality(rng, run: RunConfig) -> float:
    worst = 0.0
    polys = [run.alpha, preset("alpha0"), preset("alpha1")]
    for alpha in polys:
        spec = CorrelationSpectrum.build(alpha, run.autom)
        lags = np.arange(-spec.cutoff, spec.cutoff + 1)
        for eta in np.linspace(0.0, TWO_PI, 64, endpoint=False):
            total = complex(np.sum(np.exp(1j * lags * eta) * spec.correlations))
            worst = max(worst, abs(total.imag))
    return worst


def _check_presets(rng, run: RunConfig) -> float:
    a0, a1 = preset("alpha0"), preset("alpha1")
    s0 = CorrelationSpectrum.build(a0, run.autom)
    s1 = CorrelationSpectrum.build(a1, run.autom)
    worst = 0.0
    for eta in np.linspace(0.0, TWO_PI, 64, endpoint=False):
        j0 = spectral_function(a0, run.autom, eta, spectrum=s0)
        j1 = spectral_function(a1, run.autom, eta, spectrum=s1)
        worst = max(worst, abs(j0 - 0.5), abs(j1 - math.cos(0.5 * eta) ** 2))
    return worst


def _check_reconstruction(rng, run: RunConfig) -> float:
    cfg, _ = _random_case(rng, run)
    op = build(cfg, 0, 80, None, 1.0)
    dec = eigenpairs(op)
    worst = 0.0
    hits = 0
    for j in range(min(3, dec.count)):
        xi = dec.vectors[:, j]
        try:
            resid = reconstruction_residual(
                cfg, complex(dec.eigenvalues[j]), 20, 60, 1.0, 1.0, xi
            )
        except ResolventBlowupError:
            continue
        worst = max(worst, resid)
        hits += 1
    return worst if hits else math.inf


_SELFTEST_CHECKS = (
    ("transfer", _check_transfer),
    ("prufer", _check_prufer),
    ("unitarity", _check_unitarity),
    ("green", _check_green),
    ("reality", _check_reality),
    ("presets", _check_presets),
    ("reconstruction", _check_reconstruction),
)


def _cmd_selftest(run: RunConfig) -> int:
    rng = np.random.default_rng(run.seed)
    lines = []
    failures = 0
    for name, fn in _SELFTEST_CHECKS:
        tol = run.tol.get(name, SELFTEST_TOLS[name])
        value = fn(rng, run)
        ok = value <= tol
        if not ok:
            failures += 1
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name:<15} {value:.3e} <= {tol:.1e}")
    passed = len(_SELFTEST_CHECKS) - failures
    lines.append(
        f"selftest: {'PASS' if failures == 0 else 'FAIL'}"
        f" ({passed}/{len(_SELFTEST_CHECKS)} checks)"
    )
    _emit(run.out, "\n".join(lines) + "\n")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "lyapunov": _cmd_lyapunov,
    "jspec": _cmd_jspec,
    "ldt": _cmd_ldt,
    "green": _cmd_green,
    "localize": _cmd_localize,
    "selftest": _cmd_selftest,
}


def dispatch(run: RunConfig) -> int:
    return _COMMANDS[run.command](run)


def main(argv=None) -> int:
    try:
        run = parse(sys.argv[1:] if argv is None else argv)
        return dispatch(run)
    except (ConfigError, ConstructionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GreenFitError, ResolventBlowupError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (head, less) closed the stream; not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
