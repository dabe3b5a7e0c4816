"""Command-line front end: parsing, config files, dispatch, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import szegolab
from szegolab import cli, experiments
from szegolab.cli import EMPTY_WINDOW_MARKER, main, parse
from szegolab.experiments import FAMILIES, ExperimentPlan, lyapunov_scaling


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# the checked-in studies: subcommand and the settings each file pins
STUDIES = {
    "lyapunov_scaling": ("lyapunov", dict(
        lams=(0.05, 0.1, 0.2), etas=(0.5 * math.pi,), Ns=(1_000_000,), seed=0)),
    "ldt_sweep": ("ldt", dict(
        lams=(0.3,), etas=None, Ns=(50, 100, 200, 400), seed=0, samples=10_000,
        family="birkhoff")),
    "green_profile": ("green", dict(
        lams=(0.5,), etas=(1.5708,), Ns=(300,), seed=2, columns=12)),
    "localization": ("localize", dict(
        lams=(0.5,), etas=None, Ns=(400,), seed=3, lyap_N=200_000)),
}


# the selftest checks, in run order
SELFTEST_NAMES = ("transfer", "prufer", "unitarity", "green", "reality", "presets", "reconstruction")


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("SZEGO_LAB_SEED", raising=False)


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic_fields():
    run = parse(["--lambda", "0.1", "--eta", "1.5708", "--N", "1000000", "lyapunov"])
    assert run.command == "lyapunov"
    assert run.lams == (0.1,)
    assert run.etas == (1.5708,)
    assert run.Ns == (1_000_000,)
    assert run.samples == 10_000
    assert run.seed == 0
    assert run.fmt == "csv"
    assert run.jobs >= 1
    assert run.gamma == 1.0 + 0.0j


def test_flags_accepted_after_subcommand():
    before = parse(["--lambda", "0.2", "--seed", "7", "lyapunov"])
    after = parse(["lyapunov", "--lambda", "0.2", "--seed", "7"])
    assert before == after


def test_parse_defaults_without_flags():
    run = parse(["jspec"])
    assert run.lams == (0.1,)
    assert run.etas is None
    assert run.Ns == (1000,)
    assert run.points == 256
    assert run.family == "birkhoff"
    assert run.threshold is None


def test_grid_flags_parse_as_tuples():
    run = parse(["ldt", "--lambda-grid", "0.05,0.1", "--N-grid", "50,100,200"])
    assert run.lams == (0.05, 0.1)
    assert run.Ns == (50, 100, 200)


def test_parabolic_matrix_rejected(capsys):
    # trace 2 is not hyperbolic, so validation must turn it away
    assert main(["lyapunov", "--A", "1,1,0,1", "--N", "50"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["--lambda", "0.1"])
    assert exc.value.code == 2


def test_exclusive_pair_rejected(capsys):
    code = main(["lyapunov", "--lambda", "0.1", "--lambda-grid", "0.05,0.1"])
    assert code == 2
    assert "only one of" in capsys.readouterr().err


def test_bad_tol_rejected(capsys):
    assert main(["selftest", "--tol", "bogus"]) == 2
    assert "NAME=VALUE" in capsys.readouterr().err

    assert main(["selftest", "--tol", "nonsense=1e-8"]) == 2
    err = capsys.readouterr().err
    assert "unknown tolerance" in err
    assert all(repr(name) in err for name in SELFTEST_NAMES)


def test_nonpositive_lambda_rejected(capsys):
    assert main(["lyapunov", "--lambda", "-0.1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, code, message", [
    (["jspec", "--A", "inf,1,1,1"], 2, "non-integer entry"),
    (["jspec", "--A", "nan,1,1,1"], 2, "non-integer entry"),
    # the lag T takes -log(lambda), finite down to subnormal couplings,
    # so the run goes through
    (["lyapunov", "--lambda", "1e-320"], 0, ""),
    # there T = 766 exceeds the frequency-power cap of 200, but every lag
    # past the correlation cutoff adds exactly 0, so this run goes through
    # too; the default threshold lambda^3 underflows to 0.0, so it is given
    (["ldt", "--family", "prufer", "--lambda", "1e-320", "--samples", "64",
      "--threshold", "1e-3"], 0, ""),
    (["ldt", "--family", "prufer", "--lambda", "1e-320", "--eta", "1.1",
      "--N-grid", "800,900", "--samples", "3"], 2, "threshold at lambda = 1e-320 is 0.0"),
    (["green", "--gamma", "nan"], 2, "unimodular"),
    # a window long enough for localize's e-folding check, so build runs
    (["localize", "--gamma", "nan", "--lambda", "0.5", "--N", "400"], 2, "unimodular"),
], ids=["jspec-A-inf", "jspec-A-nan", "lyapunov-subnormal", "ldt-prufer-subnormal",
        "ldt-prufer-threshold-underflow", "green-gamma-nan", "localize-gamma-nan"])
def test_non_finite_and_subnormal_edges_exit_cleanly(capsys, argv, code, message):
    # an uncaught exception (OverflowError, a NaN reaching scipy) fails here
    assert main(argv) == code
    err = capsys.readouterr().err
    assert ("error:" in err) == (code == 2)
    assert message in err


def test_integer_options_stay_exact_past_two_to_the_53():
    assert parse(["lyapunov", "--seed", "9007199254740993"]).seed == 9007199254740993
    # the float forms still parse
    assert parse(["lyapunov", "--N", "1e6"]).Ns == (1_000_000,)


def test_help_lists_every_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ldt", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = re.findall(r"^  (--[\w-]+)", out, re.MULTILINE)
    expected = ["--config", *(o.flag for o in cli._OPTIONS), "--tol"]
    assert sorted(listed) == sorted(expected)
    assert len(listed) == 24
    tol_names = out.split("Selftest tolerance names for --tol:")[1]
    assert re.findall(r"\w+", tol_names) == list(SELFTEST_NAMES)


def test_family_choices_are_the_family_table():
    option = cli._BY_KEY["family"]
    assert option.metavar.strip("{}").split(",") == list(FAMILIES)
    assert [option.coerce("family", name) for name in FAMILIES] == list(FAMILIES)
    with pytest.raises(cli.ConfigError):
        option.coerce("family", "fsq")


@pytest.mark.parametrize("key,value", [("format", "xml"), ("family", "foo")])
def test_bad_choice_rejected_from_flag_and_file(tmp_path, capsys, key, value):
    assert main(["ldt", f"--{key}", value]) == 2
    assert "error:" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    assert main(["ldt", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files


def test_flat_and_json_config_agree(tmp_path):
    flat = tmp_path / "run.cfg"
    flat.write_text(
        "# comment line\n"
        "lambda-grid = 0.05,0.1\n"
        "eta = 1.0\n"
        "N = 400\n"
        "seed = 9\n"
        "format = json\n",
        encoding="utf-8",
    )
    blob = tmp_path / "run.json"
    blob.write_text(
        json.dumps(
            {"lambda_grid": [0.05, 0.1], "eta": 1.0, "N": 400, "seed": 9,
             "format": "json"}
        ),
        encoding="utf-8",
    )
    run_flat = parse(["lyapunov", "--config", str(flat)])
    run_json = parse(["lyapunov", "--config", str(blob)])
    assert run_flat == run_json
    assert run_flat.lams == (0.05, 0.1)
    assert run_flat.seed == 9
    assert run_flat.fmt == "json"


def test_every_study_config_is_checked():
    assert sorted(p.stem for p in CONFIGS.glob("*.cfg")) == sorted(STUDIES)


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_config_pins_its_settings(name):
    command, want = STUDIES[name]
    run = parse([command, "--config", str(CONFIGS / f"{name}.cfg")])
    assert run.command == command
    assert {field: getattr(run, field) for field in want} == want


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wavelength = 0.1\n", encoding="utf-8")
    assert main(["lyapunov", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_duplicate_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "dup.cfg"
    bad.write_text("eta = 1.0\neta = 2.0\n", encoding="utf-8")
    assert main(["jspec", "--config", str(bad)]) == 2
    assert "duplicate key" in capsys.readouterr().err


def test_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.3\nseed = 5\n", encoding="utf-8")
    run = parse(["lyapunov", "--config", str(cfg), "--lambda", "0.1"])
    assert run.lams == (0.1,)
    assert run.seed == 5


def test_flag_displaces_exclusive_partner_from_file(tmp_path):
    # a command line --lambda silently overrides a file lambda-grid
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda-grid = 0.05,0.1,0.2\n", encoding="utf-8")
    run = parse(["lyapunov", "--config", str(cfg), "--lambda", "0.4"])
    assert run.lams == (0.4,)


def test_exclusive_pair_within_file_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.1\nlambda-grid = 0.05,0.1\n", encoding="utf-8")
    assert main(["lyapunov", "--config", str(cfg)]) == 2
    assert "only one of" in capsys.readouterr().err


def test_seed_env_fallback(monkeypatch, tmp_path):
    monkeypatch.setenv("SZEGO_LAB_SEED", "11")
    assert parse(["lyapunov"]).seed == 11
    # explicit flag wins over the environment
    assert parse(["lyapunov", "--seed", "4"]).seed == 4
    # a file value also wins over the environment
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 6\n", encoding="utf-8")
    assert parse(["lyapunov", "--config", str(cfg)]).seed == 6


def test_bad_seed_env_rejected(monkeypatch, capsys):
    monkeypatch.setenv("SZEGO_LAB_SEED", "many")
    assert main(["jspec", "--eta", "1.0"]) == 2
    assert "SZEGO_LAB_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dispatch


@pytest.mark.parametrize("angle", [["--eta", "1.0"], ["--eta-grid", "1,2"]])
def test_jspec_points_with_an_angle_rejected(capsys, angle):
    # --points sizes the default grid, which a given angle replaces
    assert main(["jspec", *angle, "--points", "5"]) == 2
    assert "only one of --points and" in capsys.readouterr().err


def test_jspec_matches_closed_form(capsys):
    assert main(["jspec", "--preset", "alpha1", "--eta-grid", "0.5,1.3,2.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "eta,J"
    assert len(lines) == 4
    for line in lines[1:]:
        eta_s, j_s = line.split(",")
        eta, j = float(eta_s), float(j_s)
        assert j == pytest.approx(math.cos(0.5 * eta) ** 2, rel=1e-12)


def test_jspec_json_grid_size(capsys):
    assert main(["jspec", "--points", "16", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "jspec"
    assert len(payload["rows"]) == 16
    etas = [row["eta"] for row in payload["rows"]]
    assert etas[1] == pytest.approx(2.0 * math.pi / 16)
    for row in payload["rows"]:
        assert row["J"] == pytest.approx(0.5, rel=1e-12)


def test_localize_reports_empty_window(capsys):
    # alpha0 has a flat spectral function at one half, so a cut at 0.99
    # leaves nothing
    code = main(["localize", "--lambda", "0.5", "--N", "400", "--c", "0.99"])
    assert code == 0
    out = capsys.readouterr().out
    assert EMPTY_WINDOW_MARKER in out


def test_localize_empty_window_json_marker(capsys):
    code = main(
        ["localize", "--lambda", "0.5", "--N", "400", "--c", "0.99",
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["marker"] == EMPTY_WINDOW_MARKER
    assert payload["rows"] == []


def test_localize_over_the_cap_refuses_before_building(capsys):
    # the window would take about 220 B per site; the typed error must come
    # first, not after the window is built
    tracemalloc.start()
    try:
        code = main(["localize", "--N", "200000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "capped" in capsys.readouterr().err
    assert peak < 1 << 20


def test_lyapunov_refuses_a_short_N_before_any_cell(capsys, monkeypatch):
    # N = 2 is below the lag T = 3 at lambda = 0.1; the 3e5-step cell that
    # comes first in the grid must not run
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the lag check")

    monkeypatch.setattr(experiments, "expansion_diagnostics", no_cell)
    assert main(["lyapunov", "--N-grid", "300000,2", "--jobs", "1"]) == 2
    assert "N = 2 must exceed the lag T = 3 at lambda = 0.1" in capsys.readouterr().err


def test_green_csv_smoke(capsys):
    code = main(
        ["green", "--lambda", "0.5", "--eta", "1.5708", "--N", "120",
         "--seed", "2", "--columns", "6"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n1,n2,log_abs_G"
    assert len(lines) > 10
    n1, n2, lg = lines[1].split(",")
    assert int(n1) >= 0 and int(n2) >= 0
    assert math.isfinite(float(lg))


def test_green_csv_goes_out_in_blocks_with_the_same_bytes(tmp_path, capsys, monkeypatch):
    # stdout and --out carry the same bytes, those of the one-string table
    # (ints by str, floats by repr), over several text blocks
    profiles = []
    real = cli.decay_profile

    def kept(*args, **kwargs):
        profiles.append(real(*args, **kwargs))
        return profiles[-1]

    monkeypatch.setattr(cli, "decay_profile", kept)
    argv = ["green", "--lambda", "0.5", "--eta", "1.2", "--N", "1000", "--seed", "4"]
    assert main(argv) == 0
    streamed = capsys.readouterr().out
    path = tmp_path / "green.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes().decode("utf-8") == streamed
    profile = profiles[0]
    blocks = list(profile.csv_blocks())
    assert len(blocks) == 1 + math.ceil(len(profile.rows) / experiments.CSV_BLOCK) > 3
    assert "".join(blocks) == streamed
    assert streamed == "n1,n2,log_abs_G\n" + "".join(
        f"{n1},{n2},{lg!r}\n" for n1, n2, lg in profile.rows
    )


def test_green_memory_at_ten_thousand_sites(tmp_path):
    # 12 columns of a 10001-site window read 23.9 MiB traced while the
    # entries were tuples and the CSV one string
    main(["green", "--N", "300", "--out", str(tmp_path / "warm.csv")])
    argv = ["green", "--lambda", "0.5", "--eta", "1.2", "--N", "10000", "--columns", "12"]
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path / "green.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 0.5 * 23.9 * 2**20


def test_green_refuses_grids(capsys):
    # green runs one window; a second grid value would be dropped
    argv = ["green", "--lambda-grid", "0.3,0.5", "--eta-grid", "1.0,2.0",
            "--N-grid", "120,200"]
    assert main(argv) == 2
    assert "one window" in capsys.readouterr().err


def test_ldt_angle_family_refuses_eta_grid(capsys):
    argv = ["ldt", "--family", "lyapunov", "--eta-grid", "1.0,2.0", "--N", "50",
            "--samples", "8"]
    assert main(argv) == 2
    assert "one eta" in capsys.readouterr().err


@pytest.mark.parametrize("angle", [["--eta", "1.0"], ["--eta-grid", "1.0,2.0"]])
def test_ldt_birkhoff_refuses_an_angle(capsys, angle):
    # the orbit average reads no angle, so a given one would be ignored
    argv = ["ldt", "--family", "birkhoff", *angle, "--N", "50", "--samples", "8"]
    assert main(argv) == 2
    assert "reads no angle" in capsys.readouterr().err


# options each subcommand never reads: refused as a flag and as a file key,
# where they would otherwise be dropped without a word
UNREAD = [
    ("localize", "--eta", "3.0"),
    ("localize", "--samples", "5"),
    ("lyapunov", "--samples", "5"),
    ("lyapunov", "--gamma", "1"),
    ("jspec", "--N", "5"),
    ("jspec", "--lambda", "0.2"),
    ("green", "--family", "prufer"),
    ("ldt", "--columns", "4"),
    ("selftest", "--eta-grid", "1.0,2.0"),
    ("lyapunov", "--tol", "unitarity=1e-8"),
]


@pytest.mark.parametrize("command,flag,value", UNREAD)
def test_subcommand_refuses_unread_option(tmp_path, capsys, command, flag, value):
    assert main([command, flag, value]) == 2
    assert f"{command} reads no {flag}" in capsys.readouterr().err
    cfg = tmp_path / "unread.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n", encoding="utf-8")
    with pytest.raises(cli.ConfigError, match="reads no"):
        parse([command, "--config", str(cfg)])


@pytest.mark.parametrize("command", [name for name, _ in cli._SUBCOMMANDS])
def test_every_subcommand_takes_the_shared_options(command):
    shared = ["--seed", "3", "--jobs", "1", "--out", "x.csv", "--format", "json",
              "--A", "2,1,1,1"]
    assert parse([command, *shared, "--preset", "alpha1"]).seed == 3
    assert parse([command, *shared, "--alpha", "1,0:0.5"]).jobs == 1


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


# every subcommand with JSON output, at sizes that give a non-finite
# figure where one can arise: two-point fits have infinite standard
# errors, and an empty window has no median ratio
JSON_RUNS = {
    "lyapunov": ["--lambda-grid", "0.1,0.2", "--N", "2000"],
    "jspec": ["--points", "8"],
    "ldt": ["--lambda", "0.3", "--N-grid", "50,100", "--samples", "200",
            "--threshold", "0.01"],
    "green": ["--lambda", "0.5", "--eta", "1.3", "--N", "120", "--seed", "2"],
    "localize": ["--lambda", "0.5", "--N", "400", "--c", "0.99"],
    "selftest": ["--seed", "0"],
}


@pytest.mark.parametrize("command", sorted(JSON_RUNS))
def test_json_output_is_strict(capsys, command):
    argv = [command, *JSON_RUNS[command], "--format", "json", "--jobs", "1"]
    assert main(argv) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["command"] == command
    if command == "lyapunov":
        assert payload["summary"]["residual_fit"]["slope_stderr"] is None
    if command == "ldt":
        assert payload["summary"]["fits"]["birkhoff"]["intercept_stderr"] is None
    if command == "localize":
        assert payload["summary"]["median_ratio"] is None
    if command == "selftest":
        assert payload["passed"] == payload["total"] == len(payload["checks"]) == 7
        assert all(set(c) == {"name", "value", "tol", "ok"} and c["ok"] for c in payload["checks"])


def test_json_text_writes_non_finite_as_null():
    text = cli._json_text({"a": math.nan, "b": [math.inf, 1.5], "c": (-math.inf,)})
    assert _strict_json(text) == {"a": None, "b": [None, 1.5], "c": [None]}


def test_green_json_counts_skipped_columns(capsys, monkeypatch):
    from szegolab import greens

    solver = greens._column_solver
    first = 121 // 8  # the first sampled column of the 121-site window

    def blow_up_first(op, z):
        column = solver(op, z)

        def solve(col):
            if col == first:
                raise greens.ResolventBlowupError("forced", 0.0)
            return column(col)

        return solve

    args = ["green", "--lambda", "0.5", "--eta", "1.5708", "--N", "120",
            "--seed", "2", "--columns", "6", "--format", "json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns_skipped"] == 0
    monkeypatch.setattr(greens, "_column_solver", blow_up_first)
    assert main(args) == 0
    skipped = json.loads(capsys.readouterr().out)
    assert skipped["columns_skipped"] == 1
    assert skipped["rows"] == [r for r in payload["rows"] if r["n2"] != first]


def _probe(code: str) -> str:
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(szegolab.__file__))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_import_loads_no_scipy_and_no_pool():
    probe = (
        "import sys, szegolab.cli, szegolab._kernels; szegolab._kernels.warmup(); "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
    )
    assert _probe(probe).strip() == "[]"


# small runs of each subcommand, and the scipy modules each may load
IMPORT_BUDGET = {
    "lyapunov": (["--lambda", "0.1", "--N", "2000"], set()),
    "jspec": (["--points", "8"], set()),
    "ldt": (["--lambda", "0.3", "--N", "50", "--samples", "100"], {"scipy.special"}),
    "localize": (["--lambda", "0.5", "--N", "400", "--lyap-N", "2000"], {"scipy.linalg"}),
    "green": (["--lambda", "0.5", "--eta", "1.3", "--N", "120", "--seed", "2"], {"scipy.linalg"}),
    "selftest": (["--seed", "0"], {"scipy.linalg"}),
}


@pytest.mark.parametrize("command", sorted(IMPORT_BUDGET))
def test_subcommand_loads_only_its_scipy_modules(command):
    args, budget = IMPORT_BUDGET[command]
    argv = [command, *args, "--jobs", "1", "--out", os.devnull]
    probe = (
        "import json, sys; from szegolab.cli import main; "
        f"code = main({argv!r}); "
        "print(json.dumps([code, sorted(m for m in ('scipy.linalg', 'scipy.special', "
        "'concurrent.futures.process') if m in sys.modules)]))"
    )
    assert json.loads(_probe(probe)) == [0, sorted(budget)]


@pytest.mark.parametrize("command, args", [
    ("lyapunov", ["--lambda-grid", "0.1,0.2", "--N", "2000", "--seed", "4"]),
    ("jspec", ["--points", "8"]),
])
def test_runs_without_scipy(capsys, command, args):
    argv = [command, *args, "--jobs", "1"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    probe = (
        "import sys; sys.modules['scipy'] = None; from szegolab.cli import main; "
        f"sys.exit(main({argv!r}))"
    )
    assert _probe(probe) == want


def test_selftest_passes(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "selftest: PASS (7/7 checks)" in out


def test_selftest_fails_under_impossible_tolerance(capsys):
    code = main(["selftest", "--seed", "0", "--tol", "unitarity=1e-20"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL unitarity" in out
    assert "selftest: FAIL (6/7 checks)" in out
    argv = ["selftest", "--seed", "0", "--tol", "unitarity=1e-20", "--format", "json"]
    assert main(argv) == 1
    payload = _strict_json(capsys.readouterr().out)
    assert (payload["passed"], payload["total"]) == (6, 7)
    assert [c["name"] for c in payload["checks"] if not c["ok"]] == ["unitarity"]


def test_ldt_output_independent_of_jobs(tmp_path):
    base = [
        "ldt", "--family", "birkhoff", "--lambda", "0.1",
        "--N-grid", "50,100", "--samples", "1100", "--seed", "5",
    ]
    one = tmp_path / "one.csv"
    three = tmp_path / "three.csv"
    assert main([*base, "--jobs", "1", "--out", str(one)]) == 0
    assert main([*base, "--jobs", "3", "--out", str(three)]) == 0
    assert one.read_bytes() == three.read_bytes()
    header = one.read_text(encoding="utf-8").splitlines()[0]
    assert header == "family,lambda,N,count,samples,fraction,stderr,upper95,q95,threshold"


def test_lyapunov_json_matches_library_run(capsys):
    code = main(
        ["lyapunov", "--lambda", "0.2", "--eta", "1.0", "--N", "400",
         "--format", "json", "--jobs", "1"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "lyapunov"

    plan = ExperimentPlan(lams=(0.2,), etas=(1.0,), Ns=(400,), seed=0)
    result = lyapunov_scaling(plan, jobs=1)
    assert len(payload["rows"]) == len(result.rows) == 1
    got, want = payload["rows"][0], result.rows[0]
    assert got["lam"] == want.lam
    assert got["N"] == want.N
    assert got["L_N"] == pytest.approx(want.L_N, rel=1e-12, abs=0.0)
    assert got["prediction"] == pytest.approx(want.prediction, rel=1e-12)
    assert payload["summary"]["residual_fit"] is None


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["jspec", "--preset", "alpha1", "--eta-grid", "0.25,0.75"]
    assert main(argv) == 0
    streamed = capsys.readouterr().out
    path = tmp_path / "table.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == streamed


def test_custom_alpha_spec(capsys):
    # a pure cosine in the first coordinate, weight 0.5 on each of +-e1
    spec = "1,0:0.25;-1,0:0.25"
    assert main(["jspec", "--alpha", spec, "--eta-grid", "1.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    j = float(lines[1].split(",")[1])
    assert j >= 0.0


def test_malformed_alpha_spec_rejected(capsys):
    assert main(["jspec", "--alpha", "1,0=0.25"]) == 2
    capsys.readouterr()
