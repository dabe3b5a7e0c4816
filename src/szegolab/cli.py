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
import textwrap
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cmv_operator import ConstructionError, build, eigenpairs
from .experiments import (
    FAMILIES,
    ExperimentPlan,
    _csv,
    ldt_deviation,
    localization,
    lyapunov_scaling,
)
from .greens import (
    GreenFitError,
    ResolventBlowupError,
    decay_profile,
    green_direct,
    green_modulus_formula,
    reconstruction_residual,
)
from .prufer import expansion_diagnostics
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

class ConfigError(Exception):
    """Invalid flag, config file entry or flag combination."""


# ---------------------------------------------------------------------------
# value coercion (shared between flags and config file entries)


def _co_float(key: str, value) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key}: value must be finite, got {value!r}")
    return x


def _co_pos_float(key: str, value) -> float:
    x = _co_float(key, value)
    if x <= 0.0:
        raise ConfigError(f"{key}: value must be positive, got {x}")
    return x


def _co_int_from(lowest: int):
    """Coercer to integers of at least lowest."""

    def coerce(key: str, value) -> int:
        x = _co_float(key, value)
        if x != int(x):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        if x < lowest:
            raise ConfigError(f"{key}: value must be at least {lowest}, got {int(x)}")
        return int(x)

    return coerce


def _co_list_of(item):
    """Coercer to a nonempty tuple of items, from a list or 'a,b,..'."""

    def coerce(key: str, value) -> tuple:
        if isinstance(value, (list, tuple)):
            parts = list(value)
        else:
            parts = [p for p in str(value).split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{key}: empty list")
        return tuple(item(key, p) for p in parts)

    return coerce


def _co_choice(*names: str):
    """Coercer to one of the given names."""

    def coerce(key: str, value) -> str:
        if str(value) not in names:
            raise ConfigError(f"{key}: expected one of {', '.join(names)}, got {value!r}")
        return str(value)

    return coerce


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


def _co_complex(key: str, value) -> complex:
    try:
        return complex(str(value).replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{key}: expected a complex number, got {value!r}") from None


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
    names = [name for name, _, _ in _SELFTEST_CHECKS]
    out = {}
    for name, val in pairs:
        if name not in names:
            raise ConfigError(f"tol: unknown tolerance {name!r}; choices: {sorted(names)}")
        out[name] = _co_pos_float(f"tol {name}", val)
    return out


# ---------------------------------------------------------------------------
# the options


_SUBCOMMANDS = (
    ("lyapunov", "finite-N growth rates against the small coupling law"),
    ("jspec", "spectral function table over the angle grid"),
    ("ldt", "Monte Carlo deviation fractions along the N grid"),
    ("green", "resolvent decay profile on one window"),
    ("localize", "eigenfunction decay rates inside a spectral window"),
    ("selftest", "fast invariant battery, exit 1 on numerical failure"),
)


class _Option(NamedTuple):
    flag: str
    key: str
    coerce: Callable
    default: object
    metavar: str
    help: str
    # the subcommands that read the option; the others refuse it
    commands: tuple[str, ...] = tuple(name for name, _ in _SUBCOMMANDS)


_LAM_N = ("lyapunov", "ldt", "green", "localize")
_ANGLE = ("lyapunov", "jspec", "ldt", "green")

# Every option but --config and --tol, in --help order. A config file
# names an option by its key or by its flag without the leading dashes,
# '-' and '_' alike.
_OPTIONS = tuple(
    _Option(*row)
    for row in (
        ("--A", "A", _co_matrix, CAT_MAP, "a,b,c,d",
         "automorphism entries, row major, det 1, |trace| > 2 (default 2,1,1,1)"),
        ("--preset", "preset", _co_choice(*PRESETS), "alpha0", "NAME",
         "sampling function preset, alpha0 or alpha1 (default alpha0)"),
        ("--alpha", "alpha", _co_alpha, None, "SPEC",
         "custom sampling function, ';'-separated k1,k2:coeff terms"),
        ("--lambda", "lam", _co_pos_float, None, "X", "coupling (default 0.1)", _LAM_N),
        ("--lambda-grid", "lam_grid", _co_list_of(_co_pos_float), None, "X,..",
         "coupling grid", _LAM_N),
        ("--eta", "eta", _co_float, None, "X",
         "spectral angle in radians (default pi/2)", _ANGLE),
        ("--eta-grid", "eta_grid", _co_list_of(_co_float), None, "X,..", "angle grid", _ANGLE),
        ("--N", "N", _co_int_from(2), None, "K", "orbit/window length (default 1000)", _LAM_N),
        ("--N-grid", "N_grid", _co_list_of(_co_int_from(2)), None, "K,..",
         "length grid", _LAM_N),
        ("--samples", "samples", _co_int_from(1), 10_000, "M",
         "Monte Carlo samples per cell (default 10000)", ("ldt",)),
        ("--seed", "seed", _co_int_from(0), None, "S",
         "master seed (default: SZEGO_LAB_SEED, then 0)"),
        ("--jobs", "jobs", _co_int_from(1), None, "J",
         "worker processes (default: all available cores)"),
        ("--out", "out", _co_str, None, "FILE", "write output to FILE, not stdout"),
        ("--format", "fmt", _co_choice("csv", "json"), "csv", "{csv,json}",
         "output format (default csv)"),
        ("--family", "family", _co_choice(*FAMILIES), "birkhoff",
         "{" + ",".join(FAMILIES) + "}", "ldt statistic family (default birkhoff)", ("ldt",)),
        ("--threshold", "threshold", _co_pos_float, None, "T",
         "ldt constant threshold override (default: the family's own, from "
         "experiments.FAMILIES)", ("ldt",)),
        ("--delta", "delta", _co_pos_float, 0.3, "D",
         "localize: guard around {0, pi} (default 0.3)", ("localize",)),
        ("--c", "c", _co_pos_float, 0.05, "C",
         "localize: spectral level cut (default 0.05)", ("localize",)),
        ("--gamma", "gamma", _co_complex, 1.0 + 0.0j, "G",
         "right boundary value, unimodular, e.g. 1 or 0.6+0.8j (default 1)",
         ("green", "localize")),
        ("--lyap-N", "lyap_N", _co_int_from(1), 200_000, "K",
         "localize: reference growth-rate orbit length (default 200000)", ("localize",)),
        ("--columns", "columns", _co_int_from(1), 12, "K",
         "green: resolvent columns sampled (default 12)", ("green",)),
        ("--points", "points", _co_int_from(1), 256, "K",
         "jspec: default angle grid size (default 256)", ("jspec",)),
    )
)

_BY_KEY = {o.key: o for o in _OPTIONS}
_FILE_KEYS = {"tol": "tol"} | {
    name: o.key for o in _OPTIONS for name in (o.key, o.flag[2:].replace("-", "_"))
}

# Pairs where at most one member may be given; a command line member
# silently displaces the other member coming from the config file.
_EXCLUSIVE = (
    ("lam", "lam_grid"),
    ("eta", "eta_grid"),
    ("N", "N_grid"),
    ("preset", "alpha"),
)


# ---------------------------------------------------------------------------
# config file loading


def _file_key(where: str, key: str) -> str:
    ck = _FILE_KEYS.get(key.strip().replace("-", "_"))
    if ck is None:
        raise ConfigError(f"{where}: unknown key {key.strip()!r}")
    return ck


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
        return {_file_key(path, key): value for key, value in data.items()}
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#") or s.startswith(";"):
            continue
        key, sep, value = s.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {s!r}")
        ck = _file_key(f"{path}:{ln}", key)
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

"""


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS
    )
    g = common.add_argument_group("options")
    g.add_argument("--config", metavar="FILE", help="key=value or JSON config file")
    for o in _OPTIONS:
        g.add_argument(o.flag, dest=o.key, metavar=o.metavar, help=o.help)
    g.add_argument(
        "--tol",
        action="append",
        metavar="NAME=V",
        help="selftest tolerance override, repeatable",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    names = ", ".join(name for name, _, _ in _SELFTEST_CHECKS)
    epilog = _EPILOG + textwrap.fill(f"Selftest tolerance names for --tol: {names}.", 72) + "\n"
    parser = argparse.ArgumentParser(
        prog="szegolab",
        parents=[common],
        description=__doc__.splitlines()[0],
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, text in _SUBCOMMANDS:
        sub.add_parser(
            name,
            parents=[common],
            help=text,
            description=text,
            epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            argument_default=argparse.SUPPRESS,
        )
    return parser


# RunConfig fields that take an option's value as it is
_PLAIN_FIELDS = (
    "samples", "seed", "out", "fmt", "family", "threshold", "delta", "c", "gamma",
    "lyap_N", "columns", "points",
)


def parse(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    cli = {k: v for k, v in vars(args).items() if k != "command"}
    path = cli.pop("config", None)
    file_vals = _load_config_file(path) if path is not None else {}

    if args.command != "selftest" and ("tol" in cli or "tol" in file_vals):
        raise ConfigError(f"{args.command} reads no --tol")
    tol = {**_co_tol(file_vals.pop("tol", None)), **_co_tol(cli.pop("tol", None))}

    for a, b in _EXCLUSIVE:
        if a in cli:
            file_vals.pop(b, None)
        if b in cli:
            file_vals.pop(a, None)
    given = set(file_vals) | set(cli)
    for a, b in _EXCLUSIVE:
        if a in given and b in given:
            raise ConfigError(f"give only one of {_BY_KEY[a].flag} and {_BY_KEY[b].flag}")

    vals = {o.key: o.default for o in _OPTIONS}
    for source, origin in ((file_vals, f" (from {path})"), (cli, "")):
        for key, value in source.items():
            o = _BY_KEY[key]
            if args.command not in o.commands:
                raise ConfigError(f"{args.command} reads no {o.flag}{origin}")
            vals[key] = o.coerce(o.flag, value)

    if "seed" not in given:
        env = os.environ.get("SZEGO_LAB_SEED")
        vals["seed"] = _BY_KEY["seed"].coerce("SZEGO_LAB_SEED", env) if env else 0

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
        jobs=vals["jobs"] if vals["jobs"] is not None else _default_jobs(),
        tol=tol,
        **{name: vals[name] for name in _PLAIN_FIELDS},
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


def _finite_or_null(value):
    """value with every non-finite float in it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _json_text(payload: dict) -> str:
    """Strict JSON: NaN and infinities are written as null."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    return text + "\n"


def _emit_table(run: RunConfig, csv_text, payload) -> int:
    """Emit csv_text() or, under --format json, the JSON of payload()
    tagged with the command; only the chosen one is built."""
    if run.fmt == "csv":
        text = csv_text()
    else:
        text = _json_text({"command": run.command, **payload()})
    _emit(run.out, text)
    return 0


def _plan(run: RunConfig) -> ExperimentPlan:
    return ExperimentPlan(
        lams=run.lams,
        etas=run.etas if run.etas is not None else (0.5 * math.pi,),
        Ns=run.Ns,
        samples=run.samples,
        seed=run.seed,
        autom=run.autom,
        alpha=run.alpha,
    )


def _cmd_lyapunov(run: RunConfig) -> int:
    result = lyapunov_scaling(_plan(run), jobs=run.jobs)
    return _emit_table(
        run,
        result.csv,
        lambda: {
            "rows": [dataclasses.asdict(r) for r in result.rows],
            "summary": result.summary(),
        },
    )


def _cmd_jspec(run: RunConfig) -> int:
    if run.etas is not None:
        etas = [float(e) for e in run.etas]
    else:
        etas = [TWO_PI * k / run.points for k in range(run.points)]
    rows = list(zip(etas, spectral_function(run.alpha, run.autom, np.array(etas)).tolist()))
    return _emit_table(
        run,
        lambda: _csv("eta,J", rows),
        lambda: {"rows": [{"eta": eta, "J": val} for eta, val in rows]},
    )


def _cmd_ldt(run: RunConfig) -> int:
    if not FAMILIES[run.family].reads_angle and run.etas is not None:
        raise ConfigError(f"ldt --family {run.family} reads no angle: drop --eta/--eta-grid")
    plan = _plan(run)
    result = ldt_deviation(plan, family=run.family, threshold=run.threshold, jobs=run.jobs)
    names = result.CSV_HEADER.split(",")
    return _emit_table(
        run,
        result.csv,
        lambda: {
            "rows": [dict(zip(names, values)) for values in result.table()],
            "summary": result.summary(),
        },
    )


def _cmd_green(run: RunConfig) -> int:
    for flag, grid in (("--lambda", run.lams), ("--eta", run.etas or ()), ("--N", run.Ns)):
        if len(grid) > 1:
            raise ConfigError(f"green runs one window: give one {flag}, not {len(grid)}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(run.seed)))
    cfg = VerblunskyConfig(
        lam=run.lams[0],
        base=TorusPoint.random(rng),
        autom=run.autom,
        alpha=run.alpha,
    )
    eta = run.etas[0] if run.etas is not None else 0.5 * math.pi
    op = build(cfg, 0, run.Ns[0], None, run.gamma)
    profile = decay_profile(op, SpectralPoint(eta=eta).z, columns=run.columns)
    return _emit_table(
        run,
        profile.csv,
        lambda: {
            "slope": profile.slope,
            "intercept": profile.intercept,
            "r2": profile.r2,
            "columns_skipped": profile.columns_skipped,
            "rows": [
                {"n1": n1, "n2": n2, "log_abs_G": lg} for n1, n2, lg in profile.rows
            ],
        },
    )


def _cmd_localize(run: RunConfig) -> int:
    plan = _plan(run)
    result = localization(
        plan, delta=run.delta, c=run.c, gamma=run.gamma, lyap_N=run.lyap_N
    )
    marker = {"marker": EMPTY_WINDOW_MARKER} if result.empty else {}
    return _emit_table(
        run,
        lambda: result.csv() + "".join(v + "\n" for v in marker.values()),
        lambda: {
            "rows": [dataclasses.asdict(r) for r in result.rows],
            "summary": result.summary(),
            **marker,
        },
    )


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
        log_r = 2000 * expansion_diagnostics([cfg], s, 2000).lhs[0]
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
        op = build(cfg, 0, b, None, _unimodular(rng))
        try:
            direct = abs(green_direct(op, s.z, n1, n2))
        except ResolventBlowupError:
            continue
        formula = green_modulus_formula(op, s.z, n1, n2)
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
        j0, j1 = s0.value(eta), s1.value(eta)
        worst = max(worst, abs(j0 - 0.5), abs(j1 - math.cos(0.5 * eta) ** 2))
    return worst


def _check_reconstruction(rng, run: RunConfig) -> float:
    cfg, _ = _random_case(rng, run)
    dec = eigenpairs(build(cfg, 0, 80, None, 1.0))
    window = build(cfg, 20, 60, 1.0, 1.0)
    worst = 0.0
    hits = 0
    for j in range(min(3, dec.count)):
        xi = dec.vectors[:, j]
        try:
            resid = reconstruction_residual(window, complex(dec.eigenvalues[j]), xi)
        except ResolventBlowupError:
            continue
        worst = max(worst, resid)
        hits += 1
    return worst if hits else math.inf


# name, check (rng, run) -> worst value, default tolerance
_SELFTEST_CHECKS = (
    ("transfer", _check_transfer, 1e-8),
    ("prufer", _check_prufer, 1e-8),
    ("unitarity", _check_unitarity, 1e-12),
    ("green", _check_green, 1e-6),
    ("reality", _check_reality, 1e-10),
    ("presets", _check_presets, 1e-12),
    ("reconstruction", _check_reconstruction, 1e-8),
)


def _cmd_selftest(run: RunConfig) -> int:
    rng = np.random.default_rng(run.seed)
    checks = []
    for name, fn, default in _SELFTEST_CHECKS:
        tol = run.tol.get(name, default)
        value = float(fn(rng, run))
        checks.append({"name": name, "value": value, "tol": tol, "ok": value <= tol})
    passed = sum(c["ok"] for c in checks)
    total = len(checks)

    def text() -> str:
        lines = [
            f"{'ok  ' if c['ok'] else 'FAIL'} {c['name']:<15} {c['value']:.3e} <= {c['tol']:.1e}"
            for c in checks
        ]
        lines.append(f"selftest: {'PASS' if passed == total else 'FAIL'} ({passed}/{total} checks)")
        return "\n".join(lines) + "\n"

    _emit_table(run, text, lambda: {"checks": checks, "passed": passed, "total": total})
    return 0 if passed == total else 1


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
