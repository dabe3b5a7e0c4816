"""Steadiness of the benchmark: several sets of runs per workload.

    python3 labbench/steady.py [--sets 2] [--runs 10] [--seconds S]
                               [--workloads a,b] [--seed0 1000]

Each set runs every workload --runs times in a row, each run with its own
seed (seed0, seed0 + 1, ...), through run.py with --trace 0. For each
workload and set it prints every end-to-end metric's median and quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and env.ref_s,
the timed reference computation that touches no szegolab code; between
sets it prints the drift of each median. Spreads and drifts are compared
with the bounds in BENCHMARK.json. The summary is also written to
labbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    record = json.loads(lines[-2].removeprefix("record "))
    result = json.loads(lines[-1])
    record["result"] = result
    return record


def stats(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def summarize(records: list[dict]) -> dict:
    metrics = records[0]["result"]["metrics"]
    out = {name: stats([r["result"]["metrics"][name]["value"] for r in records]) for name in metrics}
    out["env.ref_s"] = stats([statistics.median(r["env_ref_s"]) for r in records])
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    out["failed_share"] = failed / attempted
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed0", type=int, default=1000)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",")

    summary: dict = {"seconds": seconds, "sets": []}
    for s in range(args.sets):
        per_workload = {}
        for w in names:
            records = []
            for r in range(args.runs):
                seed = args.seed0 + s * args.runs + r
                records.append(one_run(w, seed, seconds))
                m = records[-1]["result"]["metrics"]
                print(f"set {s} {w} seed {seed}: "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in m.items()), flush=True)
            per_workload[w] = {"summary": summarize(records), "records": records}
        summary["sets"].append(per_workload)

    ok = True
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name in [*bounds, "env.ref_s"]:
            for s, sets in enumerate(summary["sets"]):
                st = sets[w]["summary"][name]
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s" and st["spread"] > bound:
                    flag, ok = "  SPREAD", False
                print(f"  {name:<14}{s:>4}{st['median']:>12.5g}{st['q1']:>12.5g}{st['q3']:>12.5g}"
                      f"{st['spread']:>9.3f}{bound if bound is not None else '':>8}{flag}")
            meds = [sets[w]["summary"][name]["median"] for sets in summary["sets"]]
            drift = meds[-1] / meds[0] - 1.0
            flag = ""
            if name in bounds and drift > bounds[name]:
                flag, ok = "  DRIFT", False
            print(f"  {name:<14} drift of the last set's median against the first: {drift:+.3f}{flag}")
        shares = [sets[w]["summary"]["failed_share"] for sets in summary["sets"]]
        print(f"  failed share per set: {shares}")
        if len(set(shares)) > 1:
            ok = False
    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; summary in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
