"""Layer spans for a traced run, recorded from outside the package.

install() replaces every public function and public method of the
szegolab modules with a timing wrapper, in every module that binds the
same object by name. That covers the _kernels functions where
szego_cocycle, prufer and torus_dynamics import them, and the calls
between modules generally. Each call becomes one span (layer, name,
start, end, parent); a generator function yields one span per resumption.
Spans stay in memory; the caller writes them out when the run ends.
Hooks at a few boundaries turn arguments and results into work counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = (
    "torus_dynamics",
    "sampling",
    "verblunsky",
    "_kernels",
    "szego_cocycle",
    "prufer",
    "cmv_operator",
    "greens",
    "experiments",
    "cli",
)

# Complex Schur form with vectors (Golub & Van Loan, "Matrix
# Computations", QR algorithm count): about 25 m^3 operations.
SCHUR_FLOPS_PER_CUBE = 25


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class Recorder:
    """Spans and counters of one traced stretch of work."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, name, t0, t1, parent]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.orbit_max: dict[tuple, int] = {}
        self.roots = 0
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, layer, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        if parent < 0:
            self.roots += 1
        self.spans.append([layer, name, time.perf_counter_ns(), 0, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get((layer, name))
        rec = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if hook is not None:
                    hook(rec, args, kwargs, None)
                inner = fn(*args, **kwargs)
                while True:
                    idx = rec._open(layer, name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        rec._close(idx)
                        return
                    except BaseException:
                        rec._close(idx)
                        raise
                    rec._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap the package's public functions and methods in place."""
        mods = {m: importlib.import_module(f"szegolab.{m}") for m in LAYERS}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(layer, name, obj)
                    for other in mods.values():
                        if vars(other).get(name) is obj:
                            self._patched.append((other, name, obj))
                            setattr(other, name, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_methods(layer, obj)

    def _install_methods(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(attr, property) and attr.fget is not None:
                new = property(self._wrap(layer, label, attr.fget))
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap(layer, label, attr.__func__))
            elif isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(layer, label, attr.__func__))
            elif inspect.isfunction(attr):
                new = self._wrap(layer, label, attr)
            else:
                continue
            self._patched.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- summaries -------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict, dict, float]:
        """Per layer: self seconds, outermost inclusive seconds, span count;
        plus the summed duration of root spans."""
        child = [0] * len(self.spans)
        for layer, name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns = {layer: 0 for layer in LAYERS}
        incl_ns = {layer: 0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        root_ns = 0
        for i, (layer, name, t0, t1, parent) in enumerate(self.spans):
            self_ns[layer] += t1 - t0 - child[i]
            calls[layer] += 1
            if parent < 0:
                root_ns += t1 - t0
            if parent < 0 or self.spans[parent][0] != layer:
                incl_ns[layer] += t1 - t0
        to_s = lambda d: {k: v * 1e-9 for k, v in d.items()}
        return to_s(self_ns), to_s(incl_ns), calls, root_ns * 1e-9

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for layer, name, t0, t1, parent in self.spans:
                fh.write(json.dumps([layer, name, t0, t1, parent]) + "\n")


# ---------------------------------------------------------------------------
# counting hooks: (recorder, args, kwargs, result)


def _orbit_request(rec, args, kwargs, result):
    A, p, n = _arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "p"), _arg(args, kwargs, 2, "n")
    # orbits are told apart per program call (root span): separate calls
    # that draw the same base point are not waste inside the program
    key = (rec.roots, A.entries, p.x, p.y)
    rec.orbit_max[key] = max(rec.orbit_max.get(key, 0), int(n))


def _kernel_steps(key, i, name):
    def hook(rec, args, kwargs, result):
        rec.add(key, len(_arg(args, kwargs, i, name)))

    return hook


def _evaluate_many(rec, args, kwargs, result):
    rec.add("sampling.evals", result.size)


def _coefficients(i, name):
    def hook(rec, args, kwargs, result):
        rec.add("verblunsky.coefficients", int(_arg(args, kwargs, i, name)))

    return hook


def _point_steps(rec, args, kwargs, result):
    rec.add("szego_cocycle.point_steps", int(_arg(args, kwargs, 2, "N")))


def _point_steps_many(rec, args, kwargs, result):
    points = _arg(args, kwargs, 1, "points")
    rec.add("szego_cocycle.point_steps", int(_arg(args, kwargs, 2, "N")) * len(points))


def _zeta_trace(rec, args, kwargs, result):
    rec.add("prufer.steps", int(_arg(args, kwargs, 2, "N")))
    rec.add("prufer.bytes_materialized", result[0].nbytes)


def _prufer_run(rec, args, kwargs, result):
    rec.add("prufer.steps", int(_arg(args, kwargs, 2, "N")))
    rec.add(
        "prufer.bytes_materialized",
        result.steps.nbytes + result.log_r.nbytes + result.theta.nbytes + result.zeta.nbytes,
    )


def _expansion(rec, args, kwargs, result):
    # F, zetas * F and the back-shifted zeta^2, 16 bytes per entry; the
    # circle variables themselves are counted by zeta_trace.
    N, T = result.N, result.T
    rec.add("prufer.bytes_materialized", 16 * (2 * N + (N - T)))


def _build(rec, args, kwargs, result):
    rec.add("cmv_operator.sites", result.m)


def _eigenpairs(rec, args, kwargs, result):
    m = len(result.eigenvalues)
    rec.add("cmv_operator.eigen_flops", SCHUR_FLOPS_PER_CUBE * m**3)


def _decay_profile(rec, args, kwargs, result):
    rec.add("greens.columns_requested", int(_arg(args, kwargs, 5, "columns", 12)))
    rec.add("greens.columns_returned", len({n2 for _, n2, _ in result.rows}))


def _cells(plan):
    return len(plan.lams) * len(plan.Ns)


def _ldt(rec, args, kwargs, result):
    plan = _arg(args, kwargs, 0, "plan")
    rec.add("experiments.cells", _cells(plan))
    rec.add("experiments.samples", _cells(plan) * plan.samples)


def _lyapunov_scaling(rec, args, kwargs, result):
    plan = _arg(args, kwargs, 0, "plan")
    rec.add("experiments.cells", len(result.rows))
    rec.add("experiments.samples", len(result.rows) * plan.base_points)


def _localization(rec, args, kwargs, result):
    plan = _arg(args, kwargs, 0, "plan")
    rec.add("experiments.cells", _cells(plan))
    rec.add("experiments.samples", len(result.rows))


HOOKS = {
    ("torus_dynamics", "orbit_arrays"): _orbit_request,
    ("torus_dynamics", "orbit_blocks"): _orbit_request,
    ("_kernels", "orbit_block"): _kernel_steps("kernels.orbit_steps", 6, "out_x"),
    ("_kernels", "transfer_block"): _kernel_steps("kernels.transfer_steps", 0, "alphas"),
    ("_kernels", "quad_block"): _kernel_steps("kernels.quad_steps", 0, "alphas"),
    ("_kernels", "prufer_block"): _kernel_steps("kernels.prufer_steps", 0, "alphas"),
    ("sampling", "evaluate_many"): _evaluate_many,
    ("sampling", "evaluate"): lambda rec, a, k, r: rec.add("sampling.evals", 1),
    ("verblunsky", "sequence"): _coefficients(1, "N"),
    ("verblunsky", "iter_blocks"): _coefficients(1, "N"),
    ("verblunsky", "sampled_values_blocks"): _coefficients(1, "N"),
    ("verblunsky", "coefficient"): lambda rec, a, k, r: rec.add("verblunsky.coefficients", 1),
    ("szego_cocycle", "transfer"): _point_steps,
    ("szego_cocycle", "polynomials"): _point_steps,
    ("szego_cocycle", "lyapunov_poly_many"): _point_steps_many,
    ("prufer", "zeta_trace"): _zeta_trace,
    ("prufer", "run"): _prufer_run,
    ("prufer", "step"): lambda rec, a, k, r: rec.add("prufer.steps", 1),
    ("prufer", "expansion_diagnostics"): _expansion,
    ("cmv_operator", "build"): _build,
    ("cmv_operator", "eigenpairs"): _eigenpairs,
    ("greens", "decay_profile"): _decay_profile,
    ("experiments", "ldt_deviation"): _ldt,
    ("experiments", "prufer_term_ldt"): _ldt,
    ("experiments", "lyapunov_scaling"): _lyapunov_scaling,
    ("experiments", "localization"): _localization,
}


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced round (wall_s: its traced wall time)."""
    self_s, incl_s, calls, root_s = rec.layer_times()
    c = rec.counts
    get = lambda k: float(c.get(k, 0))
    points = get("kernels.orbit_steps")
    distinct = float(sum(rec.orbit_max.values()))
    kernel_steps = points + sum(
        get(k) for k in ("kernels.transfer_steps", "kernels.quad_steps", "kernels.prufer_steps")
    )
    point_steps = get("szego_cocycle.point_steps")
    per = lambda t, n: 1e9 * t / n if n else 0.0
    span_s = lambda name: 1e-9 * sum(
        s[3] - s[2] for s in rec.spans if s[0] == "cmv_operator" and s[1] == name
    )
    return {
        "torus_dynamics.points": points,
        "torus_dynamics.self_s": self_s["torus_dynamics"],
        "torus_dynamics.ns_per_point": per(incl_s["torus_dynamics"], points),
        "sampling.evals": get("sampling.evals"),
        "sampling.self_s": self_s["sampling"],
        "verblunsky.coefficients": get("verblunsky.coefficients"),
        "verblunsky.regen_ratio": get("sampling.evals") / distinct if distinct else 0.0,
        "verblunsky.self_s": self_s["verblunsky"],
        "kernels.calls": float(calls["_kernels"]),
        "kernels.orbit_steps": points,
        "kernels.transfer_steps": get("kernels.transfer_steps"),
        "kernels.quad_steps": get("kernels.quad_steps"),
        "kernels.prufer_steps": get("kernels.prufer_steps"),
        "kernels.self_s": self_s["_kernels"],
        "kernels.ns_per_step": per(self_s["_kernels"], kernel_steps),
        "szego_cocycle.point_steps": point_steps,
        "szego_cocycle.self_s": self_s["szego_cocycle"],
        "szego_cocycle.ns_per_point_step": per(incl_s["szego_cocycle"], point_steps),
        "prufer.steps": get("prufer.steps"),
        "prufer.bytes_materialized": get("prufer.bytes_materialized"),
        "prufer.self_s": self_s["prufer"],
        "cmv_operator.sites": get("cmv_operator.sites"),
        "cmv_operator.self_s": self_s["cmv_operator"],
        "cmv_operator.build_s": span_s("build"),
        "cmv_operator.eigen_s": span_s("eigenpairs"),
        "cmv_operator.eigen_flops": get("cmv_operator.eigen_flops"),
        "greens.columns_requested": get("greens.columns_requested"),
        "greens.columns_returned": get("greens.columns_returned"),
        "greens.self_s": self_s["greens"],
        "experiments.samples": get("experiments.samples"),
        "experiments.cells": get("experiments.cells"),
        "experiments.self_s": self_s["experiments"],
        "cli.self_s": self_s["cli"],
        "trace.spans": float(len(rec.spans)),
        "trace.unattributed_s": wall_s - root_s,
    }
