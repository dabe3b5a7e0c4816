"""One fresh interpreter of the benchmark: times set-up, then rounds.

    python3 labbench/worker.py probe
    python3 labbench/worker.py run WORKLOAD SEED SECONDS TRACE OUTDIR

`probe` imports szegolab.cli, runs the kernel warm-up and prints the time
it took. `run` does the same, then repeats the workload's round of program
calls while another round still fits in SECONDS. With TRACE 1 every second round runs
under the layer tracer. The last stdout line is a JSON summary; the
round-0 outputs stay in OUTDIR for the checks, which run elsewhere so
that their memory does not count against the program's.
"""

import hashlib
import importlib
import importlib.util
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

cli = None


def setup() -> float:
    """Import szegolab.cli and run the kernel warm-up; return the seconds
    taken. Runs before anything else imports numpy, so the time includes
    the program's whole import chain."""
    global cli
    t0 = time.perf_counter()
    cli = importlib.import_module("szegolab.cli")
    importlib.import_module("szegolab._kernels").warmup()
    return time.perf_counter() - t0


def env_ref() -> float:
    """A fixed computation that touches no szegolab code, timed: a
    pure-Python loop and numpy passes over a 256 KiB array, small enough
    to leave the peak resident memory to the program."""
    import numpy as np

    t = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += (i * 0.5) % 7.0
    a = np.linspace(0.0, 1.0, 1 << 15)
    for _ in range(640):
        a = np.sqrt(a * a + 0.25) - 0.25
    if not math.isfinite(acc + float(a[-1])):
        raise RuntimeError("reference computation produced a non-finite value")
    return time.perf_counter() - t


def run_round(calls, outdir: Path, tag: str) -> dict:
    """One round: every call timed on its own; outputs read after the clock stops."""
    wall = 0.0
    cpu0 = time.process_time()
    results = []
    for call in calls:
        path = outdir / f"{tag}-{call.name}.csv"
        t = time.perf_counter()
        rc = cli.main([*call.argv, "--out", str(path)])
        dt = time.perf_counter() - t
        wall += dt
        results.append({"name": call.name, "rc": rc, "seconds": dt, "path": str(path)})
    cpu = time.process_time() - cpu0
    for r in results:
        p = Path(r.pop("path"))
        r["sha"] = hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
    return {"wall": wall, "cpu": cpu, "calls": results}


def blas_name() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def fingerprint() -> dict:
    import numpy as np
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "numba": importlib.util.find_spec("numba") is not None,
        "szegolab": str(Path(cli.__file__).resolve().parent),
    }


def run(setup_s: float, workload: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    import tracer
    import workloads

    calls = workloads.WORKLOADS[workload].calls(seed)
    rounds = []
    layers = []
    first_trace = None
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        ref_s = env_ref()
        rec = None
        if traced:
            rec = tracer.Recorder()
            rec.install()
        try:
            rnd = run_round(calls, outdir, "r0" if k == 0 else "cur")
        finally:
            if rec is not None:
                rec.uninstall()
        rnd.update(ref_s=ref_s, traced=traced)
        if rec is not None:
            layers.append(tracer.layer_metrics(rec, rnd["wall"]))
            first_trace = first_trace or rec
        rounds.append(rnd)
        k += 1
        # whole rounds only, ending within the measuring time
        spent = time.perf_counter() - start
        if spent + spent / k > seconds and (not trace or k >= 2):
            break
    if first_trace is not None:
        first_trace.write(outdir.parent / f"{outdir.name}-spans.jsonl")
    return {
        "setup_s": setup_s,
        "rounds": rounds,
        "layers": layers,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "fingerprint": fingerprint(),
    }


def main(argv) -> int:
    if argv[:1] == ["probe"]:
        print(json.dumps({"setup_s": setup()}))
        return 0
    if argv[:1] == ["run"] and len(argv) == 6:
        _, workload, seed, seconds, trace, outdir = argv
        setup_s = setup()
        result = run(setup_s, workload, int(seed), float(seconds), trace == "1", Path(outdir))
        print(json.dumps(result))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
