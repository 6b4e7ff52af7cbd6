"""Source hygiene of the package, checked with the standard-library ``ast``.

Also checks that every function ``perfbench/tracer.py`` wraps still exists,
and that no expression node class defines ``__init__`` or ``__eq__``.

Five kinds of dead code fail here: a ``from``-import that its module never
reads; a private module-level name that no module of ``src/morin`` reads;
a defaulted parameter of a ``src/morin`` function that no call in
``src/morin``, ``tests/`` or ``perfbench/`` sets; a defaulted field of a
``src/morin`` dataclass that no call of its class and no ``replace(...)``
there sets; and a field of a ``src/morin`` dataclass that no attribute
read in ``src/morin`` or ``perfbench/`` names (a field only tests read is
an output nobody uses).
``from __future__ import annotations`` is exempt. Calls and reads are
matched by name, so a name shared with another function or attribute
hides dead code rather than inventing it.

An ``import scipy...`` or ``from scipy...`` anywhere in ``src/morin``
fails too, except inside ``linalg.gelsy_solve``, whose LAPACK driver
numpy lacks: every command runs in a fresh process, scipy's package
import alone takes a fresh process a quarter of a second and more, and a
module-level import would pay it at ``import morin.cli`` on every command.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "morin"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _parsed(root: Path, *trees) -> list:
    paths = [path for tree in trees for path in sorted((root / tree).rglob("*.py"))]
    return [ast.parse(path.read_text()) for path in paths]


# the trees whose attribute reads count as use of a dataclass field
PROGRAM_TREES = ("src/morin", "perfbench")
PROGRAM = _parsed(ROOT, *PROGRAM_TREES)
# every tree whose calls count as use of a parameter
USERS = PROGRAM + _parsed(ROOT, "tests")


def _loaded(tree) -> set:
    """Identifiers a module reads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _referenced(tree) -> set:
    """Identifiers a module reads, as names, attributes or imports."""
    out = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unused_from_imports(tree) -> list:
    loaded = _loaded(tree)
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if (alias.asname or alias.name) not in loaded
    ]


# the one function that may import scipy: LAPACK's gelsy has no numpy entry
SCIPY_IMPORTERS = {("linalg.py", "gelsy_solve")}


def scipy_imports(tree) -> list:
    """``(function, line)`` of every import of scipy, ``function`` being the
    name of the innermost function around it, or None outside any."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""] if not child.level else []
            else:
                inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(child, child.name if inner else owner)
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                out.append((owner, child.lineno))

    visit(tree, None)
    return out


def stray_scipy_imports(trees: dict) -> list:
    """``module:function:line`` of every scipy import that no entry of
    ``SCIPY_IMPORTERS`` allows."""
    return [
        f"{module}:{owner}:{line}"
        for module, tree in sorted(trees.items())
        for owner, line in scipy_imports(tree)
        if (module, owner) not in SCIPY_IMPORTERS
    ]


def _module_names(tree) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def unreferenced_private_names(trees: dict) -> list:
    referenced = set().union(*(_referenced(tree) for tree in trees.values()))
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _module_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]


def _calls(trees) -> dict:
    """Calls by the name of their callee: a bare name, or the attribute a
    dotted callee ends with."""
    out: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def _sets(call, index, name) -> bool:
    """Whether ``call`` sets the parameter ``name``: by keyword, by
    ``*args`` or ``**kwargs``, or by a positional argument at ``index``
    (None for a keyword-only parameter)."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def unset_parameters(trees: dict, users) -> list:
    calls = _calls(users)
    out = []
    for module, tree in trees.items():
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            # a call on an instance passes ``self`` implicitly
            shift = 1 if id(fn) in methods else 0
            first = len(positional) - len(args.defaults)
            defaulted = [(i - shift, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            out += [
                f"{module}:{fn.name}({name})"
                for index, name in defaulted
                if not any(_sets(call, index, name) for call in calls.get(fn.name, []))
            ]
    return out


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", None) == "dataclass"


def _init_fields(cls) -> list:
    """The ``__init__`` fields of a dataclass body in order, as (name,
    defaulted) pairs; a ``field(init=False)`` is not one."""
    out = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and any(
            kw.arg == "init" and getattr(kw.value, "value", True) is False
            for kw in value.keywords
        ):
            continue
        out.append((stmt.target.id, value is not None))
    return out


def _passed_on(users) -> dict:
    """Keyword names that reach a call through the ``**`` parameter of the
    function the call is in, by the id of the call: the keywords of every
    call of that function."""
    calls = _calls(users)
    out = {}
    for tree in users:
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.args.kwarg is None:
                continue
            names = {kw.arg for call in calls.get(fn.name, []) for kw in call.keywords}
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and any(
                    kw.arg is None and getattr(kw.value, "id", None) == fn.args.kwarg.arg
                    for kw in call.keywords
                ):
                    out[id(call)] = names
    return out


def unset_fields(trees: dict, users) -> list:
    """Defaulted dataclass fields that no call of their class and no
    ``replace(...)`` sets. A keyword sets its field, and so does a
    positional argument of a class call. A ``**`` argument that passes on
    the ``**`` parameter of the function it is in sets what the calls of
    that function pass; any other ``*`` or ``**`` argument sets every field
    in a class call and none in a ``replace``, which takes any dataclass,
    so one ``replace(x, **updates)`` does not hide every field."""
    calls = _calls(users)
    passed = _passed_on(users)
    out = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))):
                continue
            fields = _init_fields(cls)
            own = calls.get(cls.name, [])
            named = set()
            for call in own + calls.get("replace", []):
                named.update(kw.arg for kw in call.keywords)
                named.update(passed.get(id(call), ()))
            for call in own:
                opaque = any(isinstance(a, ast.Starred) for a in call.args) or (
                    id(call) not in passed and any(kw.arg is None for kw in call.keywords)
                )
                named.update(name for name, _ in fields[: None if opaque else len(call.args)])
            out += [
                f"{module}:{cls.name}.{name}"
                for name, defaulted in fields
                if defaulted and name not in named
            ]
    return out


def unread_fields(trees: dict, users) -> list:
    read = {
        node.attr
        for tree in users
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}:{cls.name}.{stmt.target.id}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    ]


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_unused_from_imports(module):
    assert unused_from_imports(TREES[module]) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_level_scipy_import(module):
    assert [line for owner, line in scipy_imports(TREES[module]) if owner is None] == []


def test_only_the_gelsy_solve_imports_scipy():
    assert stray_scipy_imports(TREES) == []
    assert [owner for owner, _ in scipy_imports(TREES["linalg.py"])] == ["gelsy_solve"]


def test_no_unreferenced_private_names():
    assert unreferenced_private_names(TREES) == []


def test_every_defaulted_parameter_is_set_somewhere():
    assert unset_parameters(TREES, USERS) == []


def test_every_defaulted_dataclass_field_is_set_somewhere():
    assert unset_fields(TREES, USERS) == []


def test_every_dataclass_field_is_read_somewhere():
    assert unread_fields(TREES, PROGRAM) == []


def expr_node_methods(tree) -> list:
    """``__init__`` and ``__eq__`` methods of ``Expr`` and the classes
    deriving from it. Nodes are interned, so an ``__init__`` would run
    again on every table hit and wipe the node's caches, and an ``__eq__``
    would bring back a tree walk where identity is equality."""
    nodes = {"Expr"}
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if cls.name in nodes or any(getattr(b, "id", None) in nodes for b in cls.bases):
            nodes.add(cls.name)
            out += [
                f"{cls.name}.{fn.name}"
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "__eq__")
            ]
    return out


def test_expr_nodes_define_no_init_or_eq():
    assert expr_node_methods(TREES["expr.py"]) == []
    forged = ast.parse(
        "class Expr:\n    def __eq__(self, other): return True\n"
        "class Var(Expr):\n    def __init__(self, i): pass\n"
        "class System:\n    def __init__(self): pass\n"
    )
    assert expr_node_methods(forged) == ["Expr.__eq__", "Var.__init__"]


def test_tracer_targets_exist():
    # loaded by path, with perfbench kept off sys.path; a renamed target
    # would otherwise fail only a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module, attr in tracer.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
    for module in tracer.MODULES:
        importlib.import_module(module)


def test_checks_catch_dead_code(tmp_path):
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from typing import Mapping, Sequence\n"
        "from functools import cmp_to_key\n"
        "def _cmp(a, b): return 0\n"
        "_cmp_key = cmp_to_key(_cmp)\n"
        "def f(m: Mapping): return m\n"
    )
    assert unused_from_imports(tree) == ["Sequence"]
    assert unreferenced_private_names({"m.py": tree}) == ["m.py:_cmp_key"]
    imports = ast.parse(
        "import numpy as np\n"
        "import scipy.linalg\n"
        "try:\n    from scipy.spatial import cKDTree\nexcept ImportError:\n    pass\n"
        "from .scipy_free import x\n"
        "class Solver:\n    import scipy as sp\n"
        "def lazy():\n    from scipy import ndimage\n    import scipy.optimize\n"
    )
    assert scipy_imports(imports) == [
        (None, 2), (None, 4), (None, 9), ("lazy", 11), ("lazy", 12)
    ]
    # a lazy import in a function of the solver is caught, and the gelsy
    # solve is allowed in linalg only
    scratch = ast.parse(
        "def _label_clusters(mask):\n    from scipy import ndimage\n"
        "def gelsy_solve(a, b):\n    import scipy.linalg\n"
    )
    assert stray_scipy_imports({"solver.py": scratch}) == [
        "solver.py:_label_clusters:2", "solver.py:gelsy_solve:4"
    ]
    assert stray_scipy_imports({"linalg.py": scratch}) == ["linalg.py:_label_clusters:2"]
    src = ast.parse(
        "from dataclasses import dataclass\n"
        "def solve(system, grid=12, *, steps=40, seeds=None): return grid\n"
        "class Chart:\n"
        "    def margin(self, points, cap=3): return cap\n"
        "@dataclass\n"
        "class Result:\n"
        "    points: list\n"
        "    margins: dict\n"
    )
    use = ast.parse(
        "r = Result(solve(eqs, 8), {})\n"
        "solve(eqs, steps=9)\n"
        "solve(*args)\n"
        "chart.margin(r.points)\n"
    )
    assert unset_parameters({"m.py": src}, [src, use]) == ["m.py:margin(cap)"]
    use = ast.parse("solve(eqs, 8, steps=9, seeds=s)\nchart.margin(p, 4)\nr.points\n")
    assert unset_parameters({"m.py": src}, [src, use]) == []
    assert unread_fields({"m.py": src}, [src, use]) == ["m.py:Result.margins"]
    # a field that only a test reads is an output nobody uses
    for rel, text in [
        ("src/morin/m.py", ast.unparse(src)),
        ("perfbench/run.py", "r.points\n"),
        ("tests/test_m.py", "assert r.margins == {}\n"),
    ]:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    program = _parsed(tmp_path, *PROGRAM_TREES)
    assert unread_fields({"m.py": src}, program) == ["m.py:Result.margins"]
    assert unread_fields({"m.py": src}, program + _parsed(tmp_path, "tests")) == []


def test_field_check_catches_unset_defaults():
    src = ast.parse(
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Options:\n"
        "    grid: int\n"
        "    steps: int = 40\n"
        "    seeds: list = field(default_factory=list)\n"
        "    cache: dict = field(default_factory=dict, init=False)\n"
        "    tol: float = 1e-9\n"
    )
    # positional arguments count in field order, past the init=False field
    use = ast.parse("o = Options(8, 9)\n")
    assert unset_fields({"m.py": src}, [src, use]) == ["m.py:Options.seeds", "m.py:Options.tol"]
    use = ast.parse("o = Options(8, 9)\nreplace(o, seeds=[1])\nOptions(grid=3, tol=0.1)\n")
    assert unset_fields({"m.py": src}, [src, use]) == []
    assert unset_fields({"m.py": src}, [ast.parse("Options(**fields)\n")]) == []
    # replace takes any dataclass: a ``**`` argument there names no field,
    # unless it passes on a function's own ``**`` parameter
    use = ast.parse(
        "def step(o, **changes): return replace(o, **changes)\n"
        "step(Options(8, 9), seeds=[1])\n"
        "replace(o, **updates)\n"
    )
    assert unset_fields({"m.py": src}, [src, use]) == ["m.py:Options.tol"]
    use = ast.parse("def make(**given): return Options(8, **given)\nmake(tol=0.1)\n")
    assert unset_fields({"m.py": src}, [src, use]) == ["m.py:Options.steps", "m.py:Options.seeds"]
