"""The package's public surface is read by the package itself.

Walks the syntax trees of src/szegolab/*.py and fails when a public
function, class, method or property is referenced nowhere in the package
outside its own definition. A module-level name counts as referenced by a
load of it in its own module or in a module that imports it by name; a
method or property by an attribute access of that name anywhere. The
match is by name, so two methods of one name share their references.
Names kept on purpose, the oracles of the tests and what the benchmark
calls, are listed in KEPT with the reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "szegolab"

# public names nothing in the package calls, each with why it stays
KEPT = {
    "step": "prufer: per-step Prufer recursion, oracle of the batched engine",
    "init": "prufer: start state of the per-step oracle",
    "step_matrix": "szego_cocycle: one cocycle step, oracle of transfer",
    "lyapunov_norm": "szego_cocycle: product-norm growth rate, oracle of the polynomial route",
    "recover": "ScaledProduct: unscaled product, oracle of the scaled one",
    "log_abs_det": "ScaledProduct: determinant-one check of the products",
    "same_turns": "TorusPoint: exact comparison of periodic orbit points",
    "dense": "FiniteCMV: dense window, oracle of the banded routines",
    "restricted_char_poly": "cmv_operator: raw determinants behind the Green formula",
    "eigenvalues_by_scan": "cmv_operator: determinant-scan oracle of eigenpairs",
    "autocorrelation_birkhoff": "sampling: Monte Carlo oracle of the exact correlations",
    "warmup": "_kernels: called by the benchmark worker before timing",
}


def _trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _definitions(trees):
    """(module, name, node, is_method) for every public definition."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield module, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield module, item.name, item, True


def _unreferenced():
    trees = _trees()
    # per module: name -> ids of its loads; over all modules: attribute
    # name -> ids of its accesses; (module, name) -> (importer, local name)
    loads = {module: {} for module in trees}
    attributes = {}
    imported = {}
    for module, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loads[module].setdefault(n.id, []).append(id(n))
            elif isinstance(n, ast.Attribute):
                attributes.setdefault(n.attr, []).append(id(n))
            elif isinstance(n, ast.ImportFrom) and n.level == 1 and n.module:
                for alias in n.names:
                    key = (n.module, alias.name)
                    imported.setdefault(key, []).append((module, alias.asname or alias.name))
    found = set()
    for module, name, node, is_method in _definitions(trees):
        if is_method:
            uses = attributes.get(name, [])
        else:
            where = [(module, name), *imported.get((module, name), [])]
            uses = [i for other, local in where for i in loads[other].get(local, [])]
        own = {id(n) for n in ast.walk(node)}
        if all(i in own for i in uses):
            found.add(name)
    return found


def test_every_public_name_is_read_or_kept():
    unread = _unreferenced() - set(KEPT)
    assert not unread, f"public names nothing in src/ reads: {sorted(unread)}"


def test_kept_names_are_still_unread():
    # a kept name that gained a caller no longer needs its entry
    stale = set(KEPT) - _unreferenced()
    assert not stale, f"KEPT entries now read in src/: {sorted(stale)}"
