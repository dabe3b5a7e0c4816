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
Names kept on purpose are listed in KEPT with the reason.

Every setting has a caller too: each defaulted parameter of a public
function or method, and each defaulted field of a public dataclass, must
be passed by some call in the package, by keyword, by position or through
**. Calls are matched by the name they call, as above. Settings kept on
purpose are listed in KEPT_SETTINGS with the reason.

The references the tests compare against live in tests/oracles.py
instead; every public name there must be imported by a test, and nothing
in src/ imports from tests.
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


# defaulted settings nothing in the package passes, each with why it stays
KEPT_SETTINGS = {
    "main.argv": "cli: the console script calls main() with nothing; the tests and the "
    "benchmark pass the command line",
    "ExperimentPlan.base_points": "experiments: the benchmark's tracer reads plan.base_points, "
    "and the test at N = 10^6 that checks a cell's memory stays flat in N runs two rows, "
    "not the default eight",
}


def _parameters(item, method):
    """(name, positional index or None) of each defaulted parameter of a
    function node; a method's self or cls takes no index."""
    args = item.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if method and not any(ast.unparse(d) == "staticmethod" for d in item.decorator_list):
        positional = positional[1:]
    for name in positional[len(positional) - len(args.defaults) :]:
        yield name, positional.index(name)
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def _settings(trees):
    """(key, called name, positional index or None, owner node) for every
    defaulted setting: function.param, Class.method.param or Class.field.
    A field is set by a call of its class, a parameter by a call of its
    function or method."""
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                for name, index in _parameters(node, method=False):
                    yield f"{node.name}.{name}", node.name, index, node
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    for name, index in _parameters(item, method=True):
                        yield f"{node.name}.{item.name}.{name}", item.name, index, item
            if _is_dataclass(node):
                fields = [
                    item for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
                for index, item in enumerate(fields):
                    if item.value is not None and not item.target.id.startswith("_"):
                        yield f"{node.name}.{item.target.id}", node.name, index, node


def _passes(call, setting, index):
    """Whether a call can set the parameter or field named setting, found
    at the given positional index."""
    if any(k.arg is None or k.arg == setting for k in call.keywords):
        return True
    if index is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == index:
            return True
    return False


def _uncalled_settings():
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                func = n.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(n)
    found = set()
    for key, called, index, owner in _settings(trees):
        own = {id(n) for n in ast.walk(owner)}
        setting = key.rsplit(".", 1)[-1]
        if not any(
            id(call) not in own and _passes(call, setting, index)
            for call in calls.get(called, [])
        ):
            found.add(key)
    return found


def test_every_setting_has_a_caller():
    uncalled = _uncalled_settings() - set(KEPT_SETTINGS)
    assert not uncalled, f"defaulted settings nothing in src/ passes: {sorted(uncalled)}"


def test_kept_settings_are_still_uncalled():
    # a kept setting that gained a caller, or is gone, no longer needs its entry
    stale = set(KEPT_SETTINGS) - _uncalled_settings()
    assert not stale, f"KEPT_SETTINGS entries now passed in src/ or gone: {sorted(stale)}"


# names that only their owners may reference: the orbit step stays behind
# torus_dynamics.orbit_slices, and the orbit walk and the evaluation of
# samples behind verblunsky.sample_slices, so there is one orbit stream;
# a window's coefficients are read by cmv_operator.build alone, and the
# routes that take the window read them from it; the band layout and the
# banded LU that every solve shares stay in cmv_operator, and no other
# banded solver comes back; the eigen stream has one cluster rule, and the
# nearest-neighbour grouping it replaced does not come back
BOUNDARIES = {
    "orbit_block": {"_kernels", "torus_dynamics"},
    "orbit_slices": {"torus_dynamics", "verblunsky"},
    "evaluate_many": {"sampling", "verblunsky"},
    "sequence": {"verblunsky", "cmv_operator"},
    "zgbtrf": {"cmv_operator"},
    "zgbtrs": {"cmv_operator"},
    "N_BANDS_UP": {"cmv_operator"},
    "N_BANDS_LOW": {"cmv_operator"},
    "solve_banded": set(),
    "eigenpairs": set(),
    "_cluster_runs": set(),
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
