"""The package's public surface is read by the package itself.

Walks the syntax trees of src/szegolab/*.py and fails when a public
function, class, method or property is referenced nowhere in the package
outside its own definition. A module-level name counts as referenced by a
load of it in its own module or in a module that imports it by name; a
method or property by an attribute access of that name anywhere. The
match is by name, so two methods of one name share their references.
Names kept on purpose are listed in KEPT with the reason. The references
the tests compare against live in tests/oracles.py instead; every public
name there must be imported by a test, and nothing in src/ imports from
tests.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "szegolab"

# public names nothing in the package calls, each with why it stays
KEPT = {
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



def _import_roots(tree):
    """Top-level names of the modules a syntax tree imports."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            yield from (alias.name.split(".")[0] for alias in n.names)
        elif isinstance(n, ast.ImportFrom) and n.level == 0 and n.module:
            yield n.module.split(".")[0]


def test_oracles_are_imported_by_tests_and_not_by_src():
    oracles = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    public = {
        n.name
        for n in oracles.body
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
    }
    imported = {
        alias.name
        for path in TESTS.glob("test_*.py")
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(n, ast.ImportFrom) and n.module == "oracles"
        for alias in n.names
    }
    assert not public - imported, f"oracles no test imports: {sorted(public - imported)}"
    # the test modules import each other by bare name, so any of them counts
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    leaks = sorted(m for m, tree in _trees().items() if test_modules & set(_import_roots(tree)))
    assert not leaks, f"src/ modules importing from tests: {leaks}"
