"""Benchmark entry point.

    python3 labbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and uses the package in src/.
Set-up is timed in PROBES fresh interpreters plus the worker's own; the
worker then repeats the workload's round of program calls for S seconds.
The outputs of the first round are checked against the numpy reference
(workloads.py); later rounds must reproduce them byte for byte. With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of the traced rounds. The line before it
is a record with the environment fingerprint and the raw samples.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 2
PROBE_TIMEOUT_S = 30
# a run must end within 180 s; the checks after the worker take up to ~10 s
DEADLINE_S = 160

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Op  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: every call runs with --jobs 1 on a small machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SZEGO_LAB_SEED", None)
    return env


def worker(args: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} ran past {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def cpu_count() -> int:
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        return counter() or 0
    return len(os.sched_getaffinity(0))


def count_ops(rounds: list[dict], ops: list[Op]) -> tuple[int, int, list[str]]:
    """Every round attempts each call once and every check once; a check
    fails in a round whose output of its call differs from round 0's."""
    first = {c["name"]: c["sha"] for c in rounds[0]["calls"]}
    attempted = failed = 0
    notes: list[str] = []
    for k, rnd in enumerate(rounds):
        sha = {c["name"]: c["sha"] for c in rnd["calls"]}
        for c in rnd["calls"]:
            attempted += 1
            if c["rc"] != 0:
                failed += 1
                notes.append(f"round {k}: {c['name']} exited {c['rc']}")
        for op in ops:
            attempted += 1
            if not op.ok:
                failed += 1
                if k == 0:
                    notes.append(f"{op.call}: {op.label}: {op.detail}")
            elif sha.get(op.call) != first.get(op.call):
                failed += 1
                notes.append(f"round {k}: {op.call} output differs from round 0")
    return attempted, failed, notes


def check(workload: str, seed: int, outdir: Path, rounds: list[dict]) -> list[Op]:
    wl = WORKLOADS[workload]
    outputs = {}
    for c in rounds[0]["calls"]:
        path = outdir / f"r0-{c['name']}.csv"
        if c["rc"] == 0 and path.is_file():
            outputs[c["name"]] = path.read_text(encoding="utf-8")
    try:
        return wl.check(seed, outputs)
    except (KeyError, ValueError, IndexError) as exc:
        return [Op("all", "outputs readable", False, f"{type(exc).__name__}: {exc}")]


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(setups, rounds, result) -> dict:
    walls = [r["wall"] for r in rounds if not r["traced"]]
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "wall_s": {"value": median(walls), "unit": "s"},
        "peak_rss_mib": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
    }


def unit_of(name: str) -> str:
    if "ns_per_" in name:
        return "ns"
    if name.endswith("_s"):
        return "s"
    for key, unit in (("bytes", "B"), ("flops", "flop"), ("ratio", "ratio")):
        if key in name:
            return unit
    return "count"


def per_layer(rounds, result) -> dict:
    layers = result["layers"]
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    # round 0 pays the process's first-call costs; compare warm rounds when there are some
    warm = untraced[1:] or untraced
    values = {k: median([m[k] for m in layers]) for k in layers[0]}
    values["trace.overhead_s"] = median([r["wall"] for r in traced]) - median(
        [r["wall"] for r in warm]
    )
    values["process.cpu_s"] = median([r["cpu"] for r in untraced])
    values["env.ref_s"] = median([r["ref_s"] for r in rounds])
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def layer_table(metrics: dict, wall: float) -> str:
    lines = [f"{'metric':<34}{'value':>16}  unit"]
    for name, m in metrics.items():
        share = ""
        if name.endswith("self_s") and wall > 0:
            share = f"   {100.0 * m['value'] / wall:5.1f}% of traced wall"
        lines.append(f"{name:<34}{m['value']:>16.6g}  {m['unit']}{share}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "szegolab" / "__init__.py").is_file():
        print(f"error: no szegolab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile first, so no set-up probe pays for compilation
    compileall.compile_dir(str(ROOT / "src" / "szegolab"), quiet=1)

    started = time.time()
    t0 = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    outdir = OUT / tag
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [worker(["probe"], PROBE_TIMEOUT_S)["setup_s"] for _ in range(PROBES)]
        result = worker(
            ["run", args.workload, str(args.seed), repr(args.seconds), args.trace, str(outdir)],
            max(1.0, DEADLINE_S - (time.monotonic() - t0)),
        )
        setups.append(result["setup_s"])
        rounds = result["rounds"]
        ops = check(args.workload, args.seed, outdir, rounds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    attempted, failed, notes = count_ops(rounds, ops)

    if args.trace == "1":
        metrics = per_layer(rounds, result)
        traced_wall = median([r["wall"] for r in rounds if r["traced"]])
        print(layer_table(metrics, traced_wall))
    else:
        metrics = end_to_end(setups, rounds, result)
    for note in notes[:20]:
        print(f"FAILED {note}")
    fp = dict(result["fingerprint"])
    fp.update(git=git_sha(), python=sys.version.split()[0], process_cpu_count=cpu_count())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "started": started,
        "fingerprint": fp,
        "setup_samples": setups,
        "round_walls": [r["wall"] for r in rounds],
        "round_traced": [r["traced"] for r in rounds],
        "round_cpu": [r["cpu"] for r in rounds],
        "env_ref_s": [r["ref_s"] for r in rounds],
        "call_seconds": [{c["name"]: c["seconds"] for c in r["calls"]} for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
