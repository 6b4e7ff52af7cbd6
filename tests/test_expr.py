"""Tests for the symbolic expression kernel."""

import gc
import hashlib
import json
import math
import operator
import random
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import morin.expr as expr_module
from morin.expr import (
    NODE_CAP,
    Binary,
    Const,
    ExpressionTooLarge,
    ParseError,
    Pow,
    System,
    Unary,
    Var,
    const,
    differentiate,
    eval_block,
    format_expr,
    parse,
    simplify,
    symbolic_determinant,
    var,
)

NAMES = ("x1", "x2", "x3")

TORUS = "(sqrt(x2^2 + x3^2) - 2)^2 + (x1 + x2)^2 - 1"

CORPUS = [
    "x1^2 - x1*x2 + x3^2",
    TORUS,
    "sin(x1)*cos(x2) + exp(x3/4)",
    "log(4 + x1^2) / (2 + cos(x2))",
    "x1*x2*x3 - (x1 + 2*x2 - 3*x3)^3 / 50",
    "sqrt(1 + x1^2 + x2^2)",
    "2*x1 + 3*x1 - 5*x2 + x2/2",
    "(x1 + x2)*(x1 - x2) + x3/(1 + x2^2)",
]

RNG = np.random.default_rng(20240817)
PTS = RNG.uniform(-2.5, 2.5, size=(40, 3))


# -- parsing ----------------------------------------------------------------


def test_parse_structure_and_precedence():
    e = parse("x1 + 2*x2^3", NAMES)
    want = Binary("add", Var(0), Binary("mul", Const(2), Pow(Var(1), 3)))
    assert e == want


def test_parse_left_associativity():
    assert parse("x1 - x2 - x3", NAMES) == Binary(
        "sub", Binary("sub", Var(0), Var(1)), Var(2)
    )


def test_parse_function_call():
    e = parse("sqrt(x1 + 1)", NAMES)
    assert isinstance(e, Unary) and e.op == "sqrt"


def test_minus_binds_to_base_before_exponent():
    # "-2^2" is (-2)^2 in this grammar, not -(2^2).
    assert eval_block([parse("-2^2", ())], [])[0, 0] == 4.0


def test_decimal_literals_are_exact():
    assert parse("0.1", ()).value == Fraction(1, 10)
    assert parse("1.5", ()).value == Fraction(3, 2)


def test_fraction_literal_folds_to_exact_rational():
    s = simplify(parse("3/2", ()))
    assert isinstance(s, Const) and s.value == Fraction(3, 2)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("x1 + ", NAMES)
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse("x1 + zebra", NAMES)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse("x1 ^ x2", NAMES)
    with pytest.raises(ParseError):
        parse("x1 ^ -2", NAMES)
    with pytest.raises(ParseError):
        parse("sqrt 4", NAMES)
    with pytest.raises(ParseError):
        parse("x1 x2", NAMES)
    with pytest.raises(ParseError):
        parse("x1 + @", NAMES)
    with pytest.raises(ParseError):
        parse("2.", NAMES)


def test_variable_names_validated():
    with pytest.raises(ValueError):
        parse("x1", ("x1", "x1"))
    with pytest.raises(ValueError):
        parse("sqrt", ("sqrt",))


# -- evaluation -------------------------------------------------------------


def test_evaluate_known_values():
    f = parse(TORUS, NAMES)
    assert eval_block([f], [1.0, 2.0, 0.0])[0, 0] == pytest.approx(8.0, abs=1e-14)
    # (3, -3, 0) lies on the surface.
    assert eval_block([f], [3.0, -3.0, 0.0])[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_eval_block_matches_pointwise_evaluate():
    exprs = [parse(t, NAMES) for t in CORPUS[:4]]
    block = eval_block(exprs, PTS)
    assert block.shape == (4, len(PTS))
    for i, e in enumerate(exprs):
        for j in (0, 7, 23):
            assert block[i, j] == pytest.approx(eval_block([e], PTS[j])[0, 0], rel=1e-14)


def test_eval_block_rejects_short_points():
    with pytest.raises(ValueError):
        eval_block([parse("x3", NAMES)], np.zeros((4, 2)))


def test_non_strict_evaluation_is_quiet():
    v = eval_block([parse("sqrt(0 - 1)", ())], [])[0, 0]
    assert np.isnan(v)
    v = eval_block([parse("1/(x1 - x1)", NAMES)], [1.0, 0.0, 0.0])[0, 0]
    assert not np.isfinite(v)


# -- simplification ---------------------------------------------------------


def canon(text):
    return simplify(parse(text, NAMES))


@pytest.mark.parametrize(
    "a,b",
    [
        ("x1 + x1", "2*x1"),
        ("x1*x1", "x1^2"),
        ("(x1^2)^3", "x1^6"),
        ("2*x1 + 3*x1", "5*x1"),
        ("x1*x2 - x2*x1", "0"),
        ("(x1 + x2) - (x2 + x1)", "0"),
        ("x1/x1", "1"),
        ("2*3", "6"),
        ("sqrt(4)", "2"),
        ("sqrt(9/4)", "3/2"),
        ("log(1)", "0"),
        ("cos(0)", "1"),
        ("x1*0", "0"),
        ("x1 - x1", "0"),
        ("2*x1 + 3*x1 - 5*x1", "0"),
        ("x1^0", "1"),
        ("(0 - x1)^2", "x1^2"),
        ("x1/2", "1/2 * x1"),
    ],
)
def test_simplify_identities(a, b):
    assert canon(a) == canon(b)


def test_division_by_literal_zero_never_folds():
    s = canon("x1/0")
    assert isinstance(s, Binary) and s.op == "div"
    assert np.isposinf(eval_block([s], [1.0, 0.0, 0.0])[0, 0])


def test_simplify_value_preservation_on_corpus():
    for text in CORPUS:
        e = parse(text, NAMES)
        s = simplify(e)
        ve = eval_block([e], PTS)[0]
        vs = eval_block([s], PTS)[0]
        mask = np.isfinite(ve) & np.isfinite(vs)
        assert mask.sum() >= 30
        scale = np.maximum(1.0, np.maximum(np.abs(ve[mask]), np.abs(vs[mask])))
        assert np.all(np.abs(ve[mask] - vs[mask]) <= 1e-12 * scale)


def test_simplify_corpus_fixed_points_and_size():
    for text in CORPUS:
        e = parse(text, NAMES)
        s = simplify(e)
        assert s.node_count <= e.node_count
        again = simplify(parse(format_expr(s), NAMES))
        assert again == s


# A small recursive strategy over the three scene variables.
_leaf = st.one_of(
    st.integers(-9, 9).map(const),
    st.integers(0, 2).map(var),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), children, children).map(
            lambda t: Binary(t[0], t[1], t[2])
        ),
        children.map(lambda a: Unary("neg", a)),
        st.tuples(children, st.integers(0, 4)).map(lambda t: Pow(t[0], t[1])),
        st.tuples(st.sampled_from(["sqrt", "sin", "cos", "exp", "log"]), children).map(
            lambda t: Unary(t[0], t[1])
        ),
    )


_random_exprs = st.recursive(_leaf, _extend, max_leaves=25)


@given(_random_exprs)
@settings(max_examples=120, deadline=None)
def test_simplify_never_grows(e):
    assert simplify(e).node_count <= e.node_count


_ZERO_BY_ZERO = Binary("div", const(0), const(0))


@given(_random_exprs)
@example(Unary("neg", Pow(Unary("neg", Pow(var(0), 2)), 2)))
@example(Binary("sub", const(-1), var(0)))
@example(Binary("mul", const(-1), Binary("sub", const(1), var(0))))
@example(Unary("neg", Binary("div", Binary("div", const(1), const(2)), const(0))))
@example(Binary("div", const(4), _ZERO_BY_ZERO))
@example(Unary("neg", Binary("add", _ZERO_BY_ZERO, _ZERO_BY_ZERO)))
@example(Binary("mul", var(0), Unary("neg", Binary("div", const(1), const(2)))))
@example(Binary("div", var(0), Unary("neg", Binary("div", const(1), const(2)))))
@example(Binary("mul", Unary("neg", Binary("div", const(1), const(3))), var(1)))
@settings(max_examples=120, deadline=None)
def test_simplify_idempotent_through_reparse(e):
    s = simplify(e)
    again = simplify(parse(format_expr(s), NAMES))
    assert again == s


@given(_random_exprs)
@settings(max_examples=120, deadline=None)
def test_simplify_preserves_values(e):
    s = simplify(e)
    ve = eval_block([e], PTS[:12])[0]
    vs = eval_block([s], PTS[:12])[0]
    mask = np.isfinite(ve) & np.isfinite(vs)
    # Loose absolute floor: random trees can cancel catastrophically.
    scale = np.maximum(1.0, np.maximum(np.abs(ve[mask]), np.abs(vs[mask])))
    assert np.all(np.abs(ve[mask] - vs[mask]) <= 1e-12 * scale + 1e-9)


def test_power_of_negated_power_folds():
    assert format_expr(canon("(-(x2^2))^2")) == "x2^4"
    assert format_expr(canon("(-(x2^2))^3")) == "-(x2^6)"


def test_minus_before_a_number_is_a_negative_literal():
    assert parse("-3", ()) == Const(-3)
    assert parse("x1 * -3", NAMES) == Binary("mul", Var(0), Const(-3))
    assert parse("-x1", NAMES) == Unary("neg", Var(0))


def test_negated_sum_factor_is_a_sum():
    assert format_expr(canon("-1 * (1 - x1)")) == "x1 - 1"
    assert format_expr(canon("(x1 - x2) / -1")) == "x2 - x1"


def test_terms_dividing_by_literal_zero_never_cancel():
    assert np.isnan(eval_block([canon("0/0 - 0/0")], [0.0, 0.0, 0.0])[0, 0])
    assert format_expr(canon("2 * (x1 / 0)")) == "2 * x1 / 0"


_REFERENCE_OPS = {
    "neg": operator.neg,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}


def reference_eval(exprs, pts):
    """Node-by-node evaluation with no plan, in the same arithmetic."""
    memo = {}

    def value(n):
        if id(n) not in memo:
            if isinstance(n, Const):
                try:
                    v = np.float64(n.value)
                except OverflowError:
                    v = np.float64(math.inf if n.value > 0 else -math.inf)
            elif isinstance(n, Var):
                v = pts[:, n.index]
            elif isinstance(n, Pow):
                v = value(n.base) ** n.exponent
            elif isinstance(n, Unary):
                v = _REFERENCE_OPS[n.op](value(n.child))
            else:
                v = _REFERENCE_OPS[n.op](value(n.left), value(n.right))
            memo[id(n)] = v
        return memo[id(n)]

    out = np.empty((len(exprs), len(pts)))
    with np.errstate(all="ignore"):
        for i, e in enumerate(exprs):
            out[i, :] = value(e)
    return out


def reference_replay(plan, columns, shape):
    """The step-by-step interpreter of an evaluation plan that compiled
    plans replaced: run the steps of ``expr._build_plan`` in order, variable
    k reading ``columns[k]``, every value broadcast to ``shape``."""
    steps, outputs = plan
    vals = []
    with np.errstate(all="ignore"):
        for kind, op, a, b, free in steps:
            if kind == expr_module._BINARY:
                v = _REFERENCE_OPS[op](vals[a], vals[b])
            elif kind == expr_module._UNARY:
                v = _REFERENCE_OPS[op](vals[a])
            elif kind == expr_module._POW:
                v = vals[a] ** b
            elif kind == expr_module._VAR:
                v = columns[a]
            else:
                v = op
            for i in free:
                vals[i] = None
            vals.append(v)
        out = np.empty((len(outputs), *shape))
        for row, (i, free) in enumerate(outputs):
            out[row] = vals[i]
            for j in free:
                vals[j] = None
    return out


def assert_same_values(got, want):
    """Bitwise equal where ``want`` is finite, -0.0 told from 0.0; equal up
    to a nan's sign elsewhere, which numpy's vector and scalar paths can
    choose differently."""
    finite = np.isfinite(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite].tobytes() == want[finite].tobytes()
    assert np.array_equal(got, want, equal_nan=True)


# Trees for the kernel test: every power from 0 to 7, so each exponent
# rule of the compiled plans is taken, and constants with 0, so division
# by zero, and sqrt and log of negative values, come up.
_kernel_exprs = st.recursive(
    _leaf,
    lambda children: st.one_of(
        _extend(children),
        st.tuples(children, st.integers(0, 7)).map(lambda t: Pow(t[0], t[1])),
    ),
    max_leaves=25,
)
_coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0))


@given(
    st.lists(_kernel_exprs, min_size=1, max_size=4),
    st.lists(st.tuples(_coordinates, _coordinates, _coordinates), min_size=1, max_size=5),
)
# a power of a constant subtree is a numpy scalar's ``**`` in the walk
@example([Unary("neg", Pow(Unary("exp", const(-1)), 3))], [(0.0, 0.0, 0.0)])
@settings(max_examples=150, deadline=None)
def test_compiled_plans_match_the_step_interpreter(exprs, points):
    pts = np.array(points)
    plan = expr_module._build_plan(tuple(exprs))
    # one point at a time on uniform draws too: a numpy scalar's own ``**``
    # differs from the array path on a few percent of such values, and
    # the drawn coordinates are often ones whose powers are exact
    for block in (*pts[:, None], *PTS[:16, None], pts[0], pts, PTS):
        rows = np.atleast_2d(block)
        got = eval_block(exprs, block)
        assert_same_values(got, reference_replay(plan, rows.T, (len(rows),)))
        assert_same_values(got, reference_eval(exprs, rows))
    # a lattice on the points' coordinates, each axis sorted apart
    axes = [np.unique(pts[:, k]) for k in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    columns = [axis.reshape((-1,) + (1,) * (2 - k)) for k, axis in enumerate(axes)]
    shape = tuple(len(axis) for axis in axes)
    got = expr_module.eval_lattice(exprs, axes)
    assert_same_values(got, reference_replay(plan, columns, shape))
    assert_same_values(got.reshape(len(exprs), -1), reference_eval(exprs, grid))


@given(_random_exprs, _random_exprs)
@settings(max_examples=120, deadline=None)
def test_eval_block_is_bit_identical_to_reference(a, b):
    exprs = [a, b, simplify(a), a]
    want = reference_eval(exprs, PTS[:12])
    for _ in range(2):  # the second call replays the cached plan
        assert np.array_equal(eval_block(exprs, PTS[:12]), want, equal_nan=True)


def test_eval_block_on_structural_copy():
    # a second parse of the corpus is not a copy: interning returns the
    # same objects, so its plans hit by identity
    exprs = [parse(t, NAMES) for t in CORPUS]
    copies = [parse(t, NAMES) for t in CORPUS]
    assert all(c is e for c, e in zip(copies, exprs))
    first = eval_block(exprs, PTS)
    assert np.array_equal(eval_block(copies, PTS), first, equal_nan=True)
    assert np.array_equal(eval_block(exprs, PTS), first, equal_nan=True)
    assert np.array_equal(eval_block(copies[::-1], PTS), first[::-1], equal_nan=True)


def test_eval_block_errors_survive_caching():
    bad = [parse("x1 + x3", NAMES), parse("log(x1 - x1)", NAMES)]
    for exprs in (bad, [parse("x1 + x3", NAMES), parse("log(x1 - x1)", NAMES)]):
        with pytest.raises(ValueError, match="variable index 2 but points have dimension 2"):
            eval_block(exprs, np.zeros((3, 2)))
        # the cached plan survives the error and evaluates quietly
        assert np.isneginf(eval_block(exprs, np.zeros((3, 3)))[1]).all()


def test_eval_block_plan_cache_is_bounded():
    cap = expr_module._PLAN_CACHE_SIZE
    x = parse("x1", NAMES)
    lists = [[Binary("add", x, const(k))] for k in range(cap + 20)]
    for exprs in lists:
        eval_block(exprs, PTS[:2])
    plans = expr_module._plans
    assert len(plans) == cap
    assert tuple(lists[19]) not in plans
    # least recently used goes first: touching the oldest plan keeps it
    eval_block(lists[20], PTS[:2])
    eval_block([Binary("add", x, const(-1))], PTS[:2])
    assert len(plans) == cap
    assert tuple(lists[20]) in plans and tuple(lists[21]) not in plans


def test_threads_evaluating_distinct_plans_share_the_plan_cache(monkeypatch):
    # four threads, more than the cores, with two plans each in a cache of
    # two, so the threads evict each other's plans all the time; each
    # lookup sleeps after it finds a plan, which hands the interpreter to
    # another thread between finding the plan and reordering the cache,
    # and a short switch interval interleaves them further
    class PausingCache(OrderedDict):
        def get(self, key, default=None):
            found = super().get(key, default)
            time.sleep(1e-4)
            return found

    monkeypatch.setattr(expr_module, "_PLAN_CACHE_SIZE", 2)
    monkeypatch.setattr(expr_module, "_plans", PausingCache())
    x, y = parse("x1", NAMES), parse("x2", NAMES)
    lists = [[Binary("add", x, const(k)), Binary("mul", y, const(k + 1))] for k in range(8)]
    want = [eval_block(exprs, PTS) for exprs in lists]
    got: dict = {t: [] for t in range(4)}
    errors: list = []
    start = threading.Barrier(4)

    def evaluate(t):
        try:
            start.wait(timeout=60)
            for i in range(100):
                k = 2 * t + i // 4 % 2
                got[t].append((k, eval_block(lists[k], PTS)))
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=evaluate, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [len(got[t]) for t in range(4)] == [100] * 4
    for k, values in [pair for t in range(4) for pair in got[t]]:
        assert values.tobytes() == want[k].tobytes()


def test_equality_compares_operations_below_the_root(monkeypatch):
    # Forge hash collisions: the plan cache must still tell the operations
    # apart, and it does, because equality is identity. The cache is the
    # test's own: a key stored under a forged hash breaks any later walk
    # of the cache that holds it.
    monkeypatch.setattr(expr_module, "_plans", OrderedDict())
    x = var(0)
    pairs = [
        (Binary("add", Unary("sin", x), const(1)), Binary("add", Unary("cos", x), const(1))),
        (Binary("mul", x, x), Binary("add", x, x)),
    ]
    for a, b in pairs:
        kept = b._hash
        b._hash = a._hash
        try:
            assert a is not b and a != b and b != a
            pts = PTS[:5, :1]
            got = [eval_block([e], pts)[0] for e in (a, b)]
            assert np.array_equal(got[0], reference_eval([a], pts)[0])
            assert np.array_equal(got[1], reference_eval([b], pts)[0])
        finally:
            b._hash = kept  # b is interned: later builds of it get this node
    assert Binary("add", Unary("sin", x), const(1)) is parse("sin(x1) + 1", NAMES)


def test_plan_shares_structurally_equal_subtrees():
    e = parse("sin(x1 + x2) * sin(x1 + x2)", NAMES)
    assert e.left is e.right
    steps, _ = expr_module._build_plan((e,))
    assert len(steps) == 5  # x2, x1, x1 + x2, sin, product
    f = parse("cos(x1 + x2) - sin(x1 + x2)", NAMES)
    steps, outputs = expr_module._build_plan((e, f, f))
    assert len(steps) == 7  # and cos, difference
    assert outputs[1][0] == outputs[2][0]
    assert np.array_equal(eval_block([e, f, f], PTS), reference_eval([e, f, f], PTS))


@given(_random_exprs, _random_exprs)
@settings(max_examples=120, deadline=None)
def test_shared_steps_are_bit_identical_to_reference(a, b):
    exprs = [a, a, Binary("sub", b, a), Binary("mul", a, a), b]
    want = reference_eval(exprs, PTS[:12])
    assert np.array_equal(eval_block(exprs, PTS[:12]), want, equal_nan=True)


def test_format_round_trip_values():
    for text in CORPUS:
        e = parse(text, NAMES)
        back = parse(format_expr(e), NAMES)
        ve = eval_block([e], PTS)[0]
        vb = eval_block([back], PTS)[0]
        mask = np.isfinite(ve)
        assert np.allclose(ve[mask], vb[mask], rtol=1e-14, atol=0)


# -- node budget ------------------------------------------------------------


def test_node_cap_is_enforced():
    e = parse("x1 + x2", NAMES)
    with pytest.raises(ExpressionTooLarge):
        for _ in range(40):
            e = Binary("add", e, e)
    assert e.node_count <= NODE_CAP


def test_constructor_validation():
    with pytest.raises(ValueError):
        Var(-1)
    with pytest.raises(ValueError):
        Pow(Var(0), -1)
    with pytest.raises(ValueError):
        Unary("tan", Var(0))
    with pytest.raises(ValueError):
        Binary("mod", Var(0), Var(1))
    with pytest.raises(ValueError):
        Const(float("inf"))


# -- differentiation --------------------------------------------------------


def test_derivative_golden_value():
    # d/dx3 of the torus function at (0, 0, 3): radius 3, so the value is
    # 2*(3-2)*(3/3) = 2 exactly.
    f = parse(TORUS, NAMES)
    d3 = differentiate(f, 2)
    assert eval_block([d3], [0.0, 0.0, 3.0])[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_derivative_is_cached():
    f = parse(CORPUS[0], NAMES)
    assert differentiate(f, 1) is differentiate(f, 1)


def _central_difference(e, p, i, h=1e-6):
    hi, lo = p.copy(), p.copy()
    hi[i] += h
    lo[i] -= h
    return (eval_block([e], hi)[0, 0] - eval_block([e], lo)[0, 0]) / (2 * h)


def test_derivatives_match_finite_differences():
    for text in CORPUS:
        e = parse(text, NAMES)
        for i in range(3):
            d = differentiate(e, i)
            for p in PTS[:10]:
                exact = eval_block([d], p)[0, 0]
                approx = _central_difference(e, p, i)
                if not (np.isfinite(exact) and np.isfinite(approx)):
                    continue
                assert abs(exact - approx) <= 1e-5 * max(1.0, abs(exact))


def test_derivative_of_constant_in_variable():
    e = parse("x1^2 + 4", NAMES)
    assert differentiate(e, 2) == Const(0)
    assert differentiate(parse("x1^0", NAMES), 0) == Const(0)


# -- systems ----------------------------------------------------------------

_SYSTEM_PTS = np.vstack(
    [PTS[:6], [[0.0, 0.0, 0.0], [math.nan, 1.0, -1.0], [math.inf, -math.inf, 2.0]]]
)


def per_entry_system(eqs, dim, pts):
    """Values (P, m) and Jacobian (P, m, dim), one ``eval_block`` call per
    entry."""
    values = np.empty((len(pts), len(eqs)))
    jacobian = np.empty((len(pts), len(eqs), dim))
    for i, e in enumerate(eqs):
        values[:, i] = eval_block([e], pts)[0]
        for s in range(dim):
            jacobian[:, i, s] = eval_block([differentiate(e, s)], pts)[0]
    return values, jacobian


@given(st.lists(_random_exprs, max_size=3), st.sampled_from([3, 4]))
@example([], 3)
@example([Unary("neg", Pow(var(0), 0))], 3)
@example([Pow(Unary("cos", var(0)), 2)], 3)
@settings(max_examples=120, deadline=None)
def test_system_is_bitwise_the_per_entry_reference(eqs, dim):
    # a fourth column feeds a variable no equation uses: its partials are 0
    pts = np.hstack([_SYSTEM_PTS, np.full((len(_SYSTEM_PTS), dim - 3), 0.5)])
    want_values, want_jacobian = per_entry_system(eqs, dim, pts)
    system = System(eqs, dim)
    got = system.values(pts)
    assert "_partials" not in vars(system)  # values alone never differentiate
    assert got.shape == (len(pts), len(eqs))
    assert got.tobytes() == want_values.tobytes()
    got = system.jacobian(pts)
    assert got.shape == (len(pts), len(eqs), dim)
    assert got.tobytes() == want_jacobian.tobytes()
    # one point as a 1-D array is a batch of one; the reference takes the
    # batch too, since a nan's sign bit can depend on the batch length
    for p in (0, 7, 8):
        want_values, want_jacobian = per_entry_system(eqs, dim, pts[p : p + 1])
        assert system.values(pts[p]).tobytes() == want_values.tobytes()
        assert system.jacobian(pts[p]).tobytes() == want_jacobian.tobytes()


# -- symbolic determinants --------------------------------------------------


def test_determinant_constant_matrix():
    m = [[const(1), const(2)], [const(3), const(4)]]
    assert symbolic_determinant(m) == Const(-2)


def test_determinant_empty_and_invalid():
    assert symbolic_determinant([]) == Const(1)
    with pytest.raises(ValueError):
        symbolic_determinant([[const(1), const(2)]])


def test_determinant_golden_gradient_matrix():
    # Rows: gradient of f, gradient of df/dx1, and the first basis vector,
    # for f = x1^2 - x1*x2 + x3^2. Expansion gives exactly 2*x3.
    f = parse("x1^2 - x1*x2 + x3^2", NAMES)
    grad = [differentiate(f, i) for i in range(3)]
    fx1 = grad[0]
    hess_row = [differentiate(fx1, i) for i in range(3)]
    basis = [const(1), const(0), const(0)]
    det = symbolic_determinant([grad, hess_row, basis])
    assert det == canon("2*x3")


def test_determinant_matches_numpy_on_random_integer_matrices():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.integers(-6, 7, size=(4, 4))
        m = [[const(int(v)) for v in row] for row in a]
        d = symbolic_determinant(m)
        assert isinstance(d, Const)
        assert float(d.value) == pytest.approx(np.linalg.det(a), abs=1e-9)


def test_determinant_matches_numpy_on_symbolic_matrix():
    entries = [
        ["x1", "x2", "1"],
        ["x2^2", "x3", "x1"],
        ["2", "x1 + x2", "x3^2"],
    ]
    m = [[parse(t, NAMES) for t in row] for row in entries]
    d = symbolic_determinant(m)
    for p in PTS[:8]:
        num = np.array([[eval_block([e], p)[0, 0] for e in row] for row in m])
        assert eval_block([d], p)[0, 0] == pytest.approx(np.linalg.det(num), rel=1e-10, abs=1e-10)


# -- hashing ----------------------------------------------------------------


def _canonical_hash_via_subprocess():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from morin.expr import parse, simplify\n"
        "e = simplify(parse('x1^2 - x1*x2 + sqrt(x3^2 + 4)', ('x1','x2','x3')))\n"
        "print(hash(e))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_structural_hash_is_process_independent():
    # String hashing is salted per interpreter; expression hashes must not be.
    assert _canonical_hash_via_subprocess() == _canonical_hash_via_subprocess()


def test_structural_equality_and_hash_agree():
    a = parse(TORUS, NAMES)
    b = parse(TORUS, NAMES)
    assert a is b and hash(a) == hash(b)
    assert a is not parse("x1", NAMES)


# -- interning --------------------------------------------------------------


def test_building_twice_returns_the_same_node():
    x, y = var(0), var(1)
    assert var(0) is x and const(Fraction(6, 4)) is const(1.5)
    assert Binary("add", x, y) is Binary("add", x, y)
    assert Binary("add", x, y) is not Binary("add", y, x)
    assert Pow(x, 2) is Pow(var(0), 2) and Unary("sin", x) is Unary("sin", x)
    assert all(parse(t, NAMES) is parse(t, NAMES) for t in CORPUS)


def test_building_again_keeps_the_caches():
    e = parse("x1*x2 + x1*x2 - sin(x3)^2", NAMES)
    s, d = simplify(e), differentiate(e, 2)
    again = parse("x1*x2 + x1*x2 - sin(x3)^2", NAMES)
    assert again is e
    assert again._simplified is s and again._deriv[2] is d


def test_node_cap_overflow_leaves_no_table_entry():
    e = parse("x1 + x2", NAMES)
    while 2 * e.node_count + 1 <= NODE_CAP:
        e = Binary("add", e, e)
    # a simplified node refers to itself, so only a collection frees it;
    # one that runs between the two counts must find nothing left to free
    gc.collect()
    size = len(expr_module._TABLE)
    with pytest.raises(ExpressionTooLarge):
        Binary("mul", e, e)
    assert len(expr_module._TABLE) == size
    assert (expr_module._BINARY_CODE["mul"], id(e), id(e)) not in expr_module._TABLE


def test_table_shrinks_back_when_an_expression_is_dropped():
    # variables no other test uses, so every node above them is new and
    # nothing older holds one through its caches
    gc.collect()
    size = len(expr_module._TABLE)
    e = Var(40)
    for k in range(1, 400):
        e = Binary("add", e, Unary("sin", Binary("mul", Var(40 + k % 3), const(k))))
    simplify(differentiate(e, 41))
    assert len(expr_module._TABLE) > size + 2000
    del e
    gc.collect()
    assert len(expr_module._TABLE) == size


_FNS = ("sqrt", "sin", "cos", "exp", "log")


def _seeded_expr(rng):
    """A random tree in the shape of ``_random_exprs`` that reuses earlier
    subtrees as children now and then."""
    built = []

    def grow(budget):
        if built and rng.random() < 0.2:
            return rng.choice(built)
        if budget <= 1 or rng.random() < 0.25:
            e = const(rng.randint(-9, 9)) if rng.random() < 0.5 else var(rng.randint(0, 2))
        else:
            kind = rng.randrange(4)
            if kind == 0:
                k = rng.randint(1, budget - 1)
                op = rng.choice(["add", "sub", "mul", "div"])
                e = Binary(op, grow(k), grow(budget - k))
            elif kind == 1:
                e = Unary("neg", grow(budget - 1))
            elif kind == 2:
                e = Pow(grow(budget - 1), rng.randint(0, 4))
            else:
                e = Unary(rng.choice(_FNS), grow(budget - 1))
        built.append(e)
        return e

    return grow(rng.randint(1, 25))


def _source(e) -> str:
    """Python source that builds ``e`` with the node constructors."""
    if isinstance(e, Const):
        return f"Const(Fraction({e.value.numerator}, {e.value.denominator}))"
    if isinstance(e, Var):
        return f"Var({e.index})"
    if isinstance(e, Pow):
        return f"Pow({_source(e.base)}, {e.exponent})"
    if isinstance(e, Unary):
        return f"Unary({e.op!r}, {_source(e.child)})"
    return f"Binary({e.op!r}, {_source(e.left)}, {_source(e.right)})"


# sha256 of the trees below. Every equation morin solves is simplified and
# differentiated, so a kernel change that moves this digest changes the
# trees those equations are evaluated from.
_CANONICAL_DIGEST = "20020cae7abf6ce02eb84e9ec8b19da19b6cf2fa91d7a44863ddecb1514b8225"


def test_canonical_forms_are_pinned():
    # Each tree's simplification, then each partial derivative and its
    # simplification: a rewrite of the kernel must build the same trees.
    rng = random.Random(20261019)
    lines = []
    for _ in range(2000):
        e = _seeded_expr(rng)
        lines.append(_source(simplify(e)))
        for v in range(3):
            d = differentiate(e, v)
            lines += [_source(d), _source(simplify(d))]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _CANONICAL_DIGEST


# Simplifies each expression read from stdin with every node of the ones
# before it freed, so no cache of an earlier expression is left to hit.
_ALONE = """
import gc, json, sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
import morin.expr as m
from morin.expr import Binary, Const, Pow, Unary, Var, format_expr, simplify
gc.collect()
size = len(m._TABLE)
out = []
for src in json.load(sys.stdin):
    out.append(format_expr(simplify(eval(src))))
    gc.collect()
    assert len(m._TABLE) == size
print(json.dumps(out))
"""


def test_simplify_does_not_depend_on_history():
    # Interned nodes carry their simplification across scenes and commands;
    # the canonical form must be the one a fresh interpreter gives.
    rng = random.Random(20261018)
    exprs = [_seeded_expr(rng) for _ in range(240)]
    src = Path(__file__).resolve().parents[1] / "src"
    alone = subprocess.run(
        [sys.executable, "-c", _ALONE, str(src)],
        input=json.dumps([_source(e) for e in exprs]),
        capture_output=True,
        text=True,
        check=True,
    )
    want = json.loads(alone.stdout)
    got = []
    for e in exprs:
        # warm up: random subexpressions of e, then unrelated expressions
        parts = expr_module._postorder([e])
        for n in rng.sample(parts, min(len(parts), 4)):
            simplify(n)
        for _ in range(2):
            simplify(_seeded_expr(rng))
        got.append(format_expr(simplify(e)))
    assert got == want
