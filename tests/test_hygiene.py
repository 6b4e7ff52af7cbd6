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
fails too: every command runs in a fresh process, and scipy's package
import alone takes a fresh process a quarter of a second and more. The
one scipy code the package runs, the LAPACK extension behind
``linalg.gelsy_solve``, is loaded by file, with no import statement.
Threads are imported in two places only: ``threading`` by ``expr``, for
the plan cache's lock, and ``concurrent.futures`` inside
``solver.grid_oracle``, which runs the scan levels on a pool.

Every line of a compiled evaluation plan of ``expr`` must match a fixed
grammar of slot names, generated global names and operators, so that no
scene text, numeric literal included, reaches the generated source.
"""

import ast
import importlib
import importlib.util
import re
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


def imports_of(tree, package: str) -> list:
    """``(function, line)`` of every import of ``package`` or of a module
    in it, ``function`` being the name of the innermost function around
    it, or None outside any."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                module = child.module or ""
                names = [] if child.level else [module] + [f"{module}.{a.name}" for a in child.names]
            else:
                inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(child, child.name if inner else owner)
                continue
            if any(name == package or name.startswith(package + ".") for name in names):
                out.append((owner, child.lineno))

    visit(tree, None)
    return out


# Where each package may be imported, as (module, function) pairs, the
# function None for the module level. Every command runs in a fresh
# process, so an import is start-up paid on every run: scipy is imported
# nowhere, and the oracle's thread pool only when a scan runs. The plan
# cache's lock is the one thread primitive outside the pool.
IMPORT_PLACES = {
    "scipy": set(),
    "threading": {("expr.py", None)},
    "concurrent.futures": {("solver.py", "grid_oracle")},
}


def stray_imports(trees: dict) -> list:
    """``(package, module, function, line)`` of every import that
    ``IMPORT_PLACES`` does not allow."""
    return [
        (package, module, owner, line)
        for package, places in IMPORT_PLACES.items()
        for module, tree in trees.items()
        for owner, line in imports_of(tree, package)
        if (module, owner) not in places
    ]


# The lines a compiled evaluation plan may hold: the header, one statement
# per step (a column read, a bound constant, an infix or negation of slots,
# a bound function of a slot or of a slot and a bound exponent), the drops,
# the output array and its rows, and the return.
PLAN_LINE = re.compile(
    r"def plan\(c, z\):"
    r"|    s\d+ = (?:c\[\d+\]|k\d+|-s\d+|s\d+ [-+*/] s\d+|f\d+\(s\d+(?:, k\d+)?\))"
    r"|    del s\d+(?:, s\d+)*"
    r"|    o = e\(z\)"
    r"|    o\[\d+\] = s\d+"
    r"|    return o"
)


def stray_plan_lines(source: str) -> list:
    """The lines of a generated plan that ``PLAN_LINE`` does not match."""
    return [line for line in source.splitlines() if not PLAN_LINE.fullmatch(line)]


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
    assert [line for owner, line in imports_of(TREES[module], "scipy") if owner is None] == []


def test_only_the_gelsy_solve_imports_scipy():
    # no module imports scipy: gelsy_solve loads scipy's LAPACK extension
    # by file, and nothing else of scipy runs
    assert {module: imports_of(tree, "scipy") for module, tree in TREES.items()} == {
        module: [] for module in TREES
    }


def test_threads_are_imported_only_where_they_run():
    assert stray_imports(TREES) == []
    # and each place allowed still imports its package
    for package in ("threading", "concurrent.futures"):
        found = {(m, owner) for m, tree in TREES.items() for owner, _ in imports_of(tree, package)}
        assert found == IMPORT_PLACES[package]


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


def _scene_plan_sources() -> list:
    """The generated source of every cached plan, after the equations and
    covector fields of every shipped scene, with their partials, are
    evaluated."""
    import numpy as np

    from morin import expr
    from morin.model import load_scene

    for path in sorted((ROOT / "scenes").glob("*.scene")):
        scene = load_scene(path)
        exprs = [*scene.constraints, *(e for row in scene.omega for e in row)]
        system = expr.System(exprs, scene.ambient_dim)
        system.jacobian(np.zeros(scene.ambient_dim))
        expr.eval_block([expr.simplify(e) for e in exprs], np.zeros((2, scene.ambient_dim)))
    return [expr._emit(expr._build_plan(key))[0] for key in expr._plans]


def test_generated_plans_hold_only_the_plan_grammar():
    sources = _scene_plan_sources()
    assert sources and all(stray_plan_lines(source) == [] for source in sources)


def test_plan_grammar_catches_a_numeric_literal():
    from morin import expr

    cube = expr.parse("x1^3 - 2.5 * x2", ("x1", "x2"))
    source = expr._emit(expr._build_plan((cube,)))[0]
    assert stray_plan_lines(source) == []
    # a constant, then an exponent, written into the source as a literal
    bound_lines = re.findall(r"^    s\d+ = .*k\d+.*$", source, re.M)
    assert len(bound_lines) == 2
    for bound in bound_lines:
        mutant = re.sub(r"k\d+", "2.5", bound)
        assert stray_plan_lines(source.replace(bound, mutant)) == [mutant]


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
    assert imports_of(imports, "scipy") == [
        (None, 2), (None, 4), (None, 9), ("lazy", 11), ("lazy", 12)
    ]
    # a pool imported at start-up, or by another function, and a thread
    # primitive outside expr
    pools = {
        "solver.py": ast.parse(
            "import concurrent.futures\n"
            "def grid_oracle():\n    from concurrent.futures import wait\n"
            "def trace():\n    from concurrent import futures\n    import threading\n"
        ),
        "expr.py": ast.parse("import threading\nfrom threading import Lock\n"),
    }
    assert stray_imports(pools) == [
        ("threading", "solver.py", "trace", 6),
        ("concurrent.futures", "solver.py", None, 1),
        ("concurrent.futures", "solver.py", "trace", 5),
    ]
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
