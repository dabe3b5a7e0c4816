"""The package's public surface is read by the package itself.

Walks the syntax trees of src/szegolab/*.py and fails when a public
function, class, method, property or dataclass field is referenced
nowhere in the package outside its own definition. A module-level name
counts as referenced by a load of it in its own module or in a module that
imports it by name; a method, property or field by an attribute access of
that name anywhere. A dataclass's fields also count as read when astuple
or asdict is applied over an attribute whose annotation names the class
(rows: tuple[Row, ...] serialized row by row). The match is by name, so
two methods or fields of one name share their references.
Names kept on purpose are listed in KEPT with the reason. The references
the tests compare against live in tests/oracles.py instead; every public
name there must be imported by a test, and nothing in src/ imports from
tests.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "szegolab"
# the dataclasses functions that read every field of an instance
SERIALIZERS = {"astuple", "asdict"}

# public names nothing in the package calls, each with why it stays
KEPT = {
    "warmup": "_kernels: called by the benchmark worker before timing",
    "TrigPolynomial.grad_bound": "sampling: the map's Lipschitz bound, pinned by test_sampling",
    "ToralAutomorphism.rho_minus": "torus_dynamics: the contracting eigenvalue, pinned with "
    "v_minus by test_torus_dynamics",
    **{
        f"ExpansionDiagnostics.{field}": "prufer: criterion 09 and test_prufer read the terms"
        for field in ("I1", "I2", "I3", "I5", "I6", "residual_123", "residual_456")
    },
}


def _trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _is_dataclass(node):
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(ast.unparse(d).rsplit(".", 1)[-1] == "dataclass" for d in decorators)


def _fields(node):
    """The public field definitions of a dataclass node."""
    if not _is_dataclass(node):
        return
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if not item.target.id.startswith("_"):
                yield item


def _definitions(trees):
    """(module, name, node, kind) for every public definition; kind is
    "name", "method" or "field", and a field's name is Class.field."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield module, node.name, node, "name"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield module, item.name, item, "method"
                for item in _fields(node):
                    yield module, f"{node.name}.{item.target.id}", item, "field"


def _serialized(trees):
    """Names of the classes whose fields astuple or asdict read: every
    class named in the annotation of a dataclass field whose attribute is
    accessed inside a call that applies astuple or asdict."""
    over = set()
    for tree in trees.values():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            inner = list(ast.walk(call))
            if any(
                (isinstance(n, ast.Attribute) and n.attr in SERIALIZERS)
                or (isinstance(n, ast.Name) and n.id in SERIALIZERS)
                for n in inner
            ):
                over |= {n.attr for n in inner if isinstance(n, ast.Attribute)}
    classes = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in _fields(node):
                    if item.target.id in over:
                        classes |= {n.id for n in ast.walk(item.annotation) if isinstance(n, ast.Name)}
    return classes


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
    serialized = _serialized(trees)
    found = set()
    for module, name, node, kind in _definitions(trees):
        if kind == "field":
            owner, field = name.split(".")
            if owner in serialized:
                continue
            uses = attributes.get(field, [])
        elif kind == "method":
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


# names that only their owners may reference: the orbit step stays behind
# torus_dynamics.orbit_slices, and the orbit walk and the evaluation of
# samples behind verblunsky.sample_slices, so there is one orbit stream;
# a window's coefficients are read by cmv_operator.build alone, and the
# routes that take the window read them from it
BOUNDARIES = {
    "orbit_block": {"_kernels", "torus_dynamics"},
    "orbit_slices": {"torus_dynamics", "verblunsky"},
    "evaluate_many": {"sampling", "verblunsky"},
    "sequence": {"verblunsky", "cmv_operator"},
}


def test_stream_internals_stay_behind_their_modules():
    trees = _trees()
    for name, allowed in BOUNDARIES.items():
        users = {
            module
            for module, tree in trees.items()
            for n in ast.walk(tree)
            if (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)
            or (isinstance(n, ast.alias) and n.name == name)
            or (isinstance(n, ast.FunctionDef) and n.name == name)
        }
        outside = sorted(users - allowed)
        assert not outside, f"{name} referenced outside {sorted(allowed)}: {outside}"


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
