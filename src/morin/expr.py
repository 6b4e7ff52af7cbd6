"""Symbolic expressions over a fixed slate of variables.

Small exact-arithmetic expression kernel used by the rest of the package:
rational constants, the four arithmetic operations, nonnegative integer
powers, and a handful of analytic functions (sqrt, sin, cos, exp, log).
It provides parsing, structural simplification, differentiation, batched
numeric evaluation over numpy point arrays, equation systems with their
Jacobians (``System``), and determinants of symbolic matrices.

Expression trees are immutable. Four properties are load-bearing for the
callers and are covered by the test suite:

* nodes are interned: building a structure that is alive returns the
  existing node, with its simplification and derivative caches, so equal
  trees are one object and ``==`` is identity;
* ``simplify`` is idempotent, never increases the node count, and preserves
  values (up to roundoff) wherever the expression is defined;
* structural hashing uses integer tuples only, so hashes and all derived
  orderings are identical across processes;
* every constructor enforces a global node budget (``NODE_CAP``) so runaway
  symbolic growth raises :class:`ExpressionTooLarge` instead of hanging.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Iterable, Sequence

import numpy as np

NODE_CAP = 200_000

_FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")

# Stable small integer per node kind; feeds hashes and canonical ordering.
_UNARY_CODE = {"neg": 2, "sqrt": 3, "sin": 4, "cos": 5, "exp": 6, "log": 7}
_BINARY_CODE = {"add": 8, "sub": 9, "mul": 10, "div": 11}


class ExpressionTooLarge(Exception):
    """Raised when an expression would exceed ``NODE_CAP`` nodes."""


class ParseError(ValueError):
    """Syntax error with a character offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at offset {position}: {message}")
        self.position = position


class Expr:
    """Base class for expression nodes. Instances are immutable and
    interned: the constructors of the subclasses return the live node of
    an equal structure when there is one, so ``==`` is identity."""

    __slots__ = ("node_count", "_hash", "_ordkey", "_simplified", "_deriv", "__weakref__")

    op = None  # the operation of a Unary or Binary node, whose slot shadows this

    def _kids(self) -> tuple:
        return ()

    def _scalar(self):
        return 0

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.node_count <= 60:
            return f"Expr<{format_expr(self)}>"
        return f"Expr<{self.node_count} nodes>"


# The interning table: (kind code, scalar payload, child ids) -> node. A
# node holds its children, so the ids in a live key cannot be reused; an
# entry goes when its node is freed. The constructors are ``__new__``
# alone: an ``__init__`` would run again on every hit and wipe the caches.
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _new_node(cls, key: tuple, count: int, hash_: int, *fields) -> Expr:
    """A new node of ``cls`` entered in the table under ``key``, whose kind
    code is also the node's sort key; ``fields`` fill the slots of ``cls``
    in order."""
    if count > NODE_CAP:
        raise ExpressionTooLarge(f"expression would have {count} nodes (budget {NODE_CAP})")
    node = object.__new__(cls)
    node.node_count, node._hash, node._ordkey = count, hash_, key[0]
    node._simplified = node._deriv = None
    for name, value in zip(cls.__slots__, fields):
        setattr(node, name, value)
    _TABLE[key] = node
    return node


class Const(Expr):
    """Exact rational constant.

    Accepts int, Fraction, or float; floats are converted exactly, so the
    tree never holds inexact values and formatting stays deterministic.
    """

    __slots__ = ("value",)

    def __new__(cls, value):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("constant must be finite")
        v = value if isinstance(value, Fraction) else Fraction(value)
        key = (99, v.numerator, v.denominator)  # constants sort last among siblings
        return _TABLE.get(key) or _new_node(cls, key, 1, hash((0, v.numerator, v.denominator)), v)

    def _scalar(self):
        return (self.value.numerator, self.value.denominator)


class Var(Expr):
    """Variable identified by its column index into a point array."""

    __slots__ = ("index",)

    def __new__(cls, index: int):
        if not isinstance(index, int) or index < 0:
            raise ValueError("variable index must be a nonnegative integer")
        key = (1, index)
        return _TABLE.get(key) or _new_node(cls, key, 1, hash(key), index)

    def _scalar(self):
        return self.index


class Unary(Expr):
    """Negation or one of the supported functions applied to a child."""

    __slots__ = ("op", "child")

    def __new__(cls, op: str, child: Expr):
        code = _UNARY_CODE.get(op)
        if code is None:
            raise ValueError(f"unknown unary operation {op!r}")
        key = (code, id(child))
        return _TABLE.get(key) or _new_node(
            cls, key, 1 + child.node_count, hash((code, child._hash)), op, child
        )

    def _kids(self):
        return (self.child,)

    def _scalar(self):
        return self._ordkey


class Binary(Expr):
    """One of ``add``, ``sub``, ``mul``, ``div`` on two children."""

    __slots__ = ("op", "left", "right")

    def __new__(cls, op: str, left: Expr, right: Expr):
        code = _BINARY_CODE.get(op)
        if code is None:
            raise ValueError(f"unknown binary operation {op!r}")
        key = (code, id(left), id(right))
        count = 1 + left.node_count + right.node_count
        return _TABLE.get(key) or _new_node(
            cls, key, count, hash((code, left._hash, right._hash)), op, left, right
        )

    def _kids(self):
        return (self.left, self.right)

    def _scalar(self):
        return self._ordkey


class Pow(Expr):
    """Integer power with a nonnegative exponent stored outside the tree."""

    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        key = (12, exponent, id(base))
        return _TABLE.get(key) or _new_node(
            cls, key, 1 + base.node_count, hash((12, exponent, base._hash)), base, exponent
        )

    def _kids(self):
        return (self.base,)

    def _scalar(self):
        return self.exponent


_ZERO = Const(0)
_ONE = Const(1)


# ---------------------------------------------------------------------------
# Construction helpers. These fold only trivial identities (0, 1, constant
# arithmetic), which keeps differentiation output compact without doing the
# work of full simplification.

def const(value) -> Const:
    return Const(value)


def var(index: int) -> Var:
    return Var(index)


def _is_const(e: Expr, value=None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Binary("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    if a is b:
        return _ZERO
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Binary("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Binary("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1):
        return a
    if _is_const(b, 0):
        return Binary("div", a, b)  # division by a zero constant never folds
    if _is_const(a, 0):
        return _ZERO
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value / b.value)
    return Binary("div", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.child
    return Unary("neg", a)


def power(base: Expr, exponent: int) -> Expr:
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** exponent)
    return Pow(base, exponent)


def fn(name: str, child: Expr) -> Expr:
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    return Unary(name, child)


# ---------------------------------------------------------------------------
# Canonical ordering. Total order on trees: kind code, then scalar payload,
# then children left to right. Uses only integers and Fractions, so the
# order is identical in every process.

def _cmp(a: Expr, b: Expr) -> int:
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x._ordkey != y._ordkey:
            return -1 if x._ordkey < y._ordkey else 1
        sx, sy = x._scalar(), y._scalar()
        if sx != sy:
            return -1 if sx < sy else 1
        stack.extend(reversed(list(zip(x._kids(), y._kids()))))
    return 0


# ---------------------------------------------------------------------------
# Parsing.
#
#   expr   := term (("+" | "-") term)*
#   term   := factor (("*" | "/") factor)*
#   factor := base ("^" unsigned-integer)?
#   base   := number | identifier | function "(" expr ")" | "(" expr ")"
#           | "-" base
#
# Note the last production: a leading minus binds to the base, so "-x^2"
# parses as (-x)^2. A minus directly before a number gives a negative
# constant, not a negation node. Numbers are otherwise unsigned decimals;
# "p/q" comes out of the grammar as a division and folds to an exact
# rational in simplify().

def _tokenize(text: str) -> list:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ParseError("expected digits after decimal point", j)
                while j < n and text[j].isdigit():
                    j += 1
            toks.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


def parse(text: str, var_names: Sequence[str] = ()) -> Expr:
    """Parse ``text`` into an expression tree.

    Parameters
    ----------
    text : str
        Source in the grammar above.
    var_names : sequence of str
        Allowed identifiers; identifier k maps to variable index k.
        Function names are reserved and cannot be used as variables.

    Raises
    ------
    ParseError
        On any syntax error or unknown identifier, with ``position`` set
        to the character offset.
    """
    index_of = {}
    for k, name in enumerate(var_names):
        if name in _FUNCTIONS:
            raise ValueError(f"variable name {name!r} shadows a function")
        if name in index_of:
            raise ValueError(f"duplicate variable name {name!r}")
        index_of[name] = k

    toks = _tokenize(text)
    cur = [0]

    def peek():
        return toks[cur[0]]

    def advance():
        t = toks[cur[0]]
        cur[0] += 1
        return t

    def p_expr():
        node = p_term()
        while peek()[0] in ("+", "-"):
            op = advance()[0]
            node = Binary("add" if op == "+" else "sub", node, p_term())
        return node

    def p_term():
        node = p_factor()
        while peek()[0] in ("*", "/"):
            op = advance()[0]
            node = Binary("mul" if op == "*" else "div", node, p_factor())
        return node

    def p_factor():
        node = p_base()
        if peek()[0] == "^":
            advance()
            kind, text_, pos = peek()
            if kind != "num" or not text_.isdigit():
                raise ParseError("exponent must be an unsigned integer", pos)
            advance()
            node = Pow(node, int(text_))
        return node

    def p_base():
        kind, text_, pos = peek()
        if kind == "num":
            advance()
            return Const(Fraction(text_))
        if kind == "name":
            advance()
            if text_ in _FUNCTIONS:
                if peek()[0] != "(":
                    raise ParseError(
                        f"function {text_!r} requires a parenthesized argument",
                        peek()[2],
                    )
                advance()
                inner = p_expr()
                if peek()[0] != ")":
                    raise ParseError("expected ')'", peek()[2])
                advance()
                return Unary(text_, inner)
            if text_ in index_of:
                return Var(index_of[text_])
            raise ParseError(f"unknown identifier {text_!r}", pos)
        if kind == "(":
            advance()
            inner = p_expr()
            if peek()[0] != ")":
                raise ParseError("expected ')'", peek()[2])
            advance()
            return inner
        if kind == "-":
            advance()
            if peek()[0] == "num":
                # a negative literal, so formatted constants reparse as one node
                return Const(-Fraction(advance()[1]))
            return Unary("neg", p_base())
        raise ParseError("expected a number, identifier, or '('", pos)

    node = p_expr()
    if peek()[0] != "end":
        raise ParseError("unexpected trailing input", peek()[2])
    return node


# ---------------------------------------------------------------------------
# Tree walks.

def _postorder(roots: Sequence[Expr], skip=None) -> list:
    """Every node below ``roots`` once, children before parents. A node for
    which ``skip`` holds is left out, with whatever only it reaches."""
    order = []
    seen = set()
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            order.append(n)
            continue
        if id(n) in seen or (skip is not None and skip(n)):
            continue
        seen.add(id(n))
        stack.append((n, True))
        for k in n._kids():
            stack.append((k, False))
    return order


# ---------------------------------------------------------------------------
# Formatting. Output reparses to an expression with identical values whose
# simplification equals that of the original (exact structural round-trips
# are impossible because the grammar has no fractional literals).

def _prec(n: Expr) -> int:
    if isinstance(n, Const):
        if n.value.denominator != 1:
            return 2
        return 3 if n.value < 0 else 5
    if isinstance(n, Var):
        return 5
    if isinstance(n, Pow):
        return 4
    if isinstance(n, Unary):
        return 3 if n.op == "neg" else 5
    return 1 if n.op in ("add", "sub") else 2


def format_expr(e: Expr, var_names: Sequence[str] | None = None) -> str:
    """Render ``e`` as parseable text with minimal parentheses."""

    def name_of(i: int) -> str:
        if var_names is not None and i < len(var_names):
            return var_names[i]
        return f"x{i + 1}"

    def wrap(child: Expr, min_prec: int) -> str:
        s = strs[id(child)]
        return s if _prec(child) >= min_prec else f"({s})"

    def factor(child: Expr, min_prec: int) -> str:
        # A negative fraction in a product prints as a negated group:
        # "(-1/2)" would reparse as a division that joins the product chain
        # as two more factors, "-(1/2)" as one factor, as the constant is,
        # so simplification keeps or drops the chain alike on both.
        if isinstance(child, Const) and child.value < 0 and child.value.denominator != 1:
            v = -child.value
            return f"-({v.numerator}/{v.denominator})"
        return wrap(child, min_prec)

    strs: dict = {}
    for n in _postorder([e]):
        if isinstance(n, Const):
            v = n.value
            s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        elif isinstance(n, Var):
            s = name_of(n.index)
        elif isinstance(n, Pow):
            base = strs[id(n.base)]
            if _prec(n.base) not in (3, 5):
                base = f"({base})"
            s = f"{base}^{n.exponent}"
        elif isinstance(n, Unary):
            if n.op == "neg":
                # A power child must be parenthesized: "-u^2" would reparse
                # as (-u)^2 because the minus binds to the base.
                if isinstance(n.child, Pow):
                    s = f"-({strs[id(n.child)]})"
                else:
                    s = "-" + wrap(n.child, 3)
            else:
                s = f"{n.op}({strs[id(n.child)]})"
        else:
            sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[n.op]
            lmin = 1 if n.op in ("add", "sub") else 2
            rmin = lmin + 1
            if lmin == 2:
                s = f"{factor(n.left, lmin)} {sym} {factor(n.right, rmin)}"
            else:
                s = f"{wrap(n.left, lmin)} {sym} {wrap(n.right, rmin)}"
        strs[id(n)] = s
    return strs[id(e)]


# ---------------------------------------------------------------------------
# Simplification.
#
# Strategy: canonicalize maximal sum chains (add/sub/neg) by collecting
# structurally equal terms with exact rational coefficients, and maximal
# product chains (mul/div) by merging factor powers and folding constants.
# Products of sums are never expanded, so the result cannot blow up; if a
# canonical rebuild would exceed the size of the original chain with
# simplified leaves, the original shape is kept instead.

class _OpaqueDiv(Exception):
    """Internal: a division by a literal zero was met during factoring."""


_CHAIN = {"add": "sum", "sub": "sum", "neg": "sum", "mul": "prod", "div": "prod"}


def _chain_kind(n: Expr) -> str | None:
    """``"sum"`` for add, sub and neg, ``"prod"`` for mul and div, else None."""
    return _CHAIN.get(n.op)


def _leaves(root: Expr, memo: dict, kind: str) -> tuple:
    """Flatten the ``kind`` chain at ``root`` to (sign, leaf) pairs and count
    its operations. The sign is -1 on a subtracted, negated or dividing
    leaf; a node in ``memo`` other than ``root`` is a leaf."""
    out = []
    ops = 0
    stack = [(root, 1)]
    while stack:
        n, s = stack.pop()
        if _chain_kind(n) != kind or (n is not root and id(n) in memo):
            out.append((s, n))
            continue
        ops += 1
        if n.op == "neg":
            stack.append((n.child, -s))
        else:
            stack.append((n.right, -s if n.op in ("sub", "div") else s))
            stack.append((n.left, s))
    return out, ops


_BASE_KEY = cmp_to_key(lambda p, q: _cmp(p[0], q[0]))


def _split(nets: dict) -> tuple:
    """The (base, exponent) pairs of the positive and of the negative net
    exponents in ``nets``, each sorted canonically."""
    num = tuple(sorted(((b, e) for b, e in nets.items() if e > 0), key=_BASE_KEY))
    den = tuple(sorted(((b, -e) for b, e in nets.items() if e < 0), key=_BASE_KEY))
    return num, den


def _peel(t: Expr) -> tuple:
    """Factor a canonical non-sum term into (coeff, numerator, denominator).

    The factor lists are tuples of (base, exponent) sorted canonically.
    Raises _OpaqueDiv when the term divides by a literal zero.
    """
    coeff = Fraction(1)
    nets: dict = {}
    stack = [(t, 1)]
    while stack:
        n, d = stack.pop()
        if isinstance(n, Binary) and n.op == "mul":
            stack.append((n.right, d))
            stack.append((n.left, d))
        elif isinstance(n, Binary) and n.op == "div":
            if _is_const(n.right, 0):
                raise _OpaqueDiv
            stack.append((n.right, -d))
            stack.append((n.left, d))
        elif isinstance(n, Unary) and n.op == "neg":
            coeff = -coeff
            stack.append((n.child, d))
        elif isinstance(n, Const):
            if n.value == 0:
                if d < 0:
                    raise _OpaqueDiv
                return Fraction(0), (), ()
            coeff = coeff * n.value if d > 0 else coeff / n.value
        elif isinstance(n, Pow):
            nets[n.base] = nets.get(n.base, 0) + d * n.exponent
        else:
            nets[n] = nets.get(n, 0) + d
    return (coeff, *_split(nets))


def _balanced(op: str, items: list) -> Expr:
    """Combine items pairwise into a balanced tree to keep the depth low."""
    while len(items) > 1:
        paired = [
            Binary(op, items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)
        ]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def _rebuild_term(cabs: Fraction, num: tuple, den: tuple) -> Expr:
    nf = [b if e == 1 else Pow(b, e) for b, e in num]
    df = [b if e == 1 else Pow(b, e) for b, e in den]
    if nf:
        top = _balanced("mul", nf)
        if cabs != 1:
            top = Binary("mul", Const(cabs), top)
    else:
        top = Const(cabs)
    if df:
        return Binary("div", top, _balanced("mul", df))
    return top


def _rebuild_chain(root: Expr, memo: dict, kind: str) -> Expr:
    """Reproduce the ``kind`` chain at ``root`` with simplified leaves
    substituted."""
    done: dict = {}

    def leaf(n: Expr) -> bool:
        return _chain_kind(n) != kind or (n is not root and id(n) in memo)

    for n in _postorder([root], leaf):
        ks = [done[id(k)] if id(k) in done else memo[id(k)] for k in n._kids()]
        done[id(n)] = Binary(n.op, *ks) if isinstance(n, Binary) else Unary("neg", ks[0])
    return done[id(root)]


def _build_sum(leaves: list, memo: dict) -> Expr:
    acc: dict = {}
    parts: dict = {}
    for sign, leaf in leaves:
        for s2, t in _leaves(memo[id(leaf)], {}, "sum")[0]:
            if _is_const(t, 0):
                continue
            try:
                c, num, den = _peel(t)
                key = (num, den)
            except _OpaqueDiv:
                # a term dividing by a literal zero merges with no other
                # term: nan - nan is not 0
                c, num, den = Fraction(1), ((t, 1),), ()
                key = len(parts)
            c *= sign * s2
            if c == 0:
                continue
            acc[key] = acc.get(key, Fraction(0)) + c
            parts[key] = (num, den)
    entries = [(c, *parts[k]) for k, c in acc.items() if c != 0]
    if not entries:
        return _ZERO
    built = [(c > 0, _rebuild_term(abs(c), num, den)) for c, num, den in entries]
    built.sort(key=cmp_to_key(lambda p, q: _cmp(p[1], q[1])))
    pos = [e for positive, e in built if positive]
    negs = [e for positive, e in built if not positive]
    if pos and negs:
        return Binary("sub", _balanced("add", pos), _balanced("add", negs))
    if pos:
        return _balanced("add", pos)
    if len(negs) == 1 and isinstance(negs[0], Const):
        return Const(-negs[0].value)
    return Unary("neg", _balanced("add", negs))


def _build_prod(leaves: list, memo: dict):
    """The canonical product of ``leaves``, or None when a leaf divides by
    an expression that simplifies to zero."""
    coeff = Fraction(1)
    nets: dict = {}
    zeros = 0  # divisions by a literal zero, kept as a final "/ 0" each
    for d, leaf in leaves:
        canon = memo[id(leaf)]
        while isinstance(canon, Binary) and canon.op == "div" and _is_const(canon.right, 0):
            # a leaf that is itself "X / 0" joins the chain as X and a zero
            if d > 0:
                zeros += 1
            else:
                coeff = Fraction(0)
            canon = canon.left
        if d < 0 and _is_const(canon, 0):
            zeros += 1
            continue
        try:
            c, num, den = _peel(canon)
        except _OpaqueDiv:
            c, num, den = Fraction(1), ((canon, 1),), ()
        if d < 0 and c == 0:
            return None
        coeff = coeff * c if d > 0 else coeff / c
        for b, e in num:
            nets[b] = nets.get(b, 0) + d * e
        for b, e in den:
            nets[b] = nets.get(b, 0) - d * e
    if coeff == 0 and not zeros:
        return _ZERO
    core = _rebuild_term(abs(coeff), *_split(nets)) if coeff else _ZERO
    if coeff < 0:
        if isinstance(core, Const):
            res = Const(coeff)
        elif _chain_kind(core) == "sum":
            # a negated sum is canonical only as the sum of negated terms
            res = simplify(Unary("neg", core))
        else:
            res = Unary("neg", core)
    else:
        res = core
    for _ in range(zeros):
        res = Binary("div", res, _ZERO)
    return res


def _build_pow(node: Pow, memo: dict) -> Expr:
    base = memo[id(node.base)]
    e = node.exponent
    if e == 0:
        return _ONE
    if isinstance(base, Const):
        return Const(base.value ** e)
    if e == 1:
        return base
    negate = False
    if isinstance(base, Unary) and base.op == "neg":
        base, negate = base.child, e % 2 == 1
    if isinstance(base, Pow):
        base, e = base.base, base.exponent * e
    res = Pow(base, e)
    return Unary("neg", res) if negate else res


def _build_fn(node: Unary, memo: dict) -> Expr:
    child = memo[id(node.child)]
    if isinstance(child, Const):
        v = child.value
        if node.op == "sqrt" and v >= 0:
            rn, rd = math.isqrt(v.numerator), math.isqrt(v.denominator)
            if rn * rn == v.numerator and rd * rd == v.denominator:
                return Const(Fraction(rn, rd))
        elif node.op == "sin" and v == 0:
            return _ZERO
        elif node.op == "cos" and v == 0:
            return _ONE
        elif node.op == "exp" and v == 0:
            return _ONE
        elif node.op == "log" and v == 1:
            return _ZERO
    return Unary(node.op, child)


def simplify(e: Expr) -> Expr:
    """Return the canonical form of ``e``.

    The result is a fixed point of ``simplify``, has at most as many nodes
    as ``e``, and evaluates to the same values wherever ``e`` is defined.
    """
    if e._simplified is not None:
        return e._simplified
    memo: dict = {}
    stack: list = [("visit", e, None)]
    while stack:
        tag, node, payload = stack.pop()
        if tag == "visit":
            if id(node) in memo:
                continue
            if node._simplified is not None:
                memo[id(node)] = node._simplified
                continue
            kind = _chain_kind(node)
            if kind is not None:
                leaves, ops = _leaves(node, memo, kind)
                pending = {id(n): n for _, n in leaves if id(n) not in memo}
                stack.append((kind, node, (leaves, ops)))
                for n in pending.values():
                    stack.append(("visit", n, None))
            elif isinstance(node, (Const, Var)):
                memo[id(node)] = node
            elif isinstance(node, Pow):
                stack.append(("pow", node, None))
                stack.append(("visit", node.base, None))
            else:
                stack.append(("fn", node, None))
                stack.append(("visit", node.child, None))
            continue
        if tag == "pow":
            res = _build_pow(node, memo)
        elif tag == "fn":
            res = _build_fn(node, memo)
        else:
            leaves, ops = payload
            res = (_build_sum if tag == "sum" else _build_prod)(leaves, memo)
            # keep the chain's shape when the canonical form is larger
            naive = ops + sum(memo[id(leaf)].node_count for _, leaf in leaves)
            if res is None or res.node_count > naive:
                res = _rebuild_chain(node, memo, tag)
        memo[id(node)] = res
        node._simplified = res
        res._simplified = res
    return memo[id(e)]


# ---------------------------------------------------------------------------
# Differentiation. Derivatives are cached per (node, variable); repeated
# Jacobian construction over the same system reuses subtrees, which also
# makes batched evaluation deduplicate the shared work.

def differentiate(e: Expr, var_index: int) -> Expr:
    """Partial derivative of ``e`` with respect to variable ``var_index``.

    The result is built with the light folding of the construction helpers;
    callers that need a canonical form should ``simplify`` it.
    """

    def cached(n: Expr) -> bool:
        return n._deriv is not None and var_index in n._deriv

    if not cached(e):
        for n in _postorder([e], cached):
            d = _diff_node(n, var_index)
            if n._deriv is None:
                n._deriv = {}
            n._deriv[var_index] = d
    return e._deriv[var_index]


def _diff_node(n: Expr, v: int) -> Expr:
    if isinstance(n, Const):
        return _ZERO
    if isinstance(n, Var):
        return _ONE if n.index == v else _ZERO
    if isinstance(n, Pow):
        if n.exponent == 0:  # parse keeps "x^0"; power() cannot take -1
            return _ZERO
        db = n.base._deriv[v]
        return mul(mul(Const(n.exponent), power(n.base, n.exponent - 1)), db)
    if isinstance(n, Unary):
        dc = n.child._deriv[v]
        if n.op == "neg":
            return neg(dc)
        if n.op == "sqrt":
            return div(dc, mul(Const(2), n))
        if n.op == "sin":
            return mul(Unary("cos", n.child), dc)
        if n.op == "cos":
            return neg(mul(Unary("sin", n.child), dc))
        if n.op == "exp":
            return mul(n, dc)
        return div(dc, n.child)  # log
    dl, dr = n.left._deriv[v], n.right._deriv[v]
    if n.op == "add":
        return add(dl, dr)
    if n.op == "sub":
        return sub(dl, dr)
    if n.op == "mul":
        return add(mul(dl, n.right), mul(n.left, dr))
    num = sub(mul(dl, n.right), mul(n.left, dr))
    return div(num, power(n.right, 2))


# ---------------------------------------------------------------------------
# Evaluation.

# Evaluation plans: each expression list is walked once into a flat step
# list. A step is (kind, op, a, b, free): ``op`` is the node's operation
# name, or a constant's value; ``a`` and ``b`` are argument slots, except
# that a variable's column is ``a`` and a power's exponent is ``b``. Each
# node gets one step, and interning makes equal subtrees one node, so a
# repeated subexpression is computed once. The value of step i lands in
# slot i, and ``free`` lists the slots whose last use is that step. The
# plan's outputs pair each root's slot with the slots freed after it is
# copied out.
#
# A cached plan is compiled into one straight-line function
# ``plan(c, z)``: slot i is the local ``s<i>``, variable k reads ``c[k]``,
# the outputs are copied into ``o``, a fresh float array of shape ``z``
# taken after the last step, and a ``del`` follows each step for the slots
# it frees, so a lattice holds no more arrays at once than the step list
# needs. ``+ - * /`` and negation are written as operators; the ufuncs,
# ``np.power``, ``np.empty`` and every constant are bound by generated
# names in the function's globals, so no scene text reaches the source.
# A square is ``x * x``, the bits of numpy's ``x ** 2`` fast path; any
# other power is ``np.power(x, float64(b))``, the bits of ``x ** b`` on
# arrays (a numpy scalar's own ``**`` differs in the last bit on a few
# percent of values). A power of a subtree that reads no variable is
# always a numpy scalar, on any points, and is ``pow(x, b)``, the
# scalar's own bits that a node-by-node walk gives it. Every operation is
# deterministic and quietly gives nan or inf outside its domain, so the
# values are the bits a node-by-node walk gives, on arrays and equally on
# numpy scalars, which one point evaluates on. Plans are keyed by the
# expression tuple, which matches by identity (equal trees are one
# object), and evicted least recently used first. The cache is the one
# mutable state evaluation touches, and ``_plans_lock`` guards it, so
# threads may evaluate at once (the oracle's scan levels do); building a
# plan reads the trees only.
_PLAN_CACHE_SIZE = 512

_CONST, _VAR, _POW, _UNARY, _BINARY = range(5)

_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}

_UFUNCS = {"sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}

_plans: OrderedDict = OrderedDict()
_plans_lock = threading.Lock()


def _const_value(c: Const) -> np.float64:
    try:
        return np.float64(c.value)
    except OverflowError:
        return np.float64(math.inf if c.value > 0 else -math.inf)


def _build_plan(exprs: tuple) -> tuple:
    slot_of: dict = {}
    steps: list = []
    uses: list = []  # the argument slots of each step
    for n in _postorder(exprs):
        if isinstance(n, Const):
            step, used = (_CONST, _const_value(n), 0, 0), ()
        elif isinstance(n, Var):
            step, used = (_VAR, None, n.index, 0), ()
        elif isinstance(n, Pow):
            a = slot_of[id(n.base)]
            step, used = (_POW, None, a, n.exponent), (a,)
        elif isinstance(n, Unary):
            a = slot_of[id(n.child)]
            step, used = (_UNARY, n.op, a, 0), (a,)
        else:
            a, b = slot_of[id(n.left)], slot_of[id(n.right)]
            step, used = (_BINARY, n.op, a, b), (a, b)
        slot_of[id(n)] = len(steps)
        steps.append(step)
        uses.append(used)

    out_slots = [slot_of[id(r)] for r in exprs]
    refs = [0] * len(steps)
    for i in [k for used in uses for k in used] + out_slots:
        refs[i] += 1

    def release(used) -> tuple:
        freed = []
        for i in used:
            refs[i] -= 1
            if refs[i] == 0:
                freed.append(i)
        return tuple(freed)

    plan = tuple((*step, release(used)) for step, used in zip(steps, uses))
    outputs = tuple((i, release((i,))) for i in out_slots)
    return plan, outputs


def _emit(plan: tuple) -> tuple:
    """The source of ``plan`` as the function ``plan(c, z)``, and the
    globals it reads."""
    steps, outputs = plan
    names: dict = {"e": np.empty}
    lines = ["def plan(c, z):"]
    scalar: set = set()  # the slots that read no variable: numpy scalars

    def drop(free) -> None:
        if free:
            lines.append("    del " + ", ".join(f"s{j}" for j in free))

    for i, (kind, op, a, b, free) in enumerate(steps):
        args = (a, b) if kind == _BINARY else (a,)
        if kind == _CONST or (kind != _VAR and scalar.issuperset(args)):
            scalar.add(i)
        if kind == _CONST:
            names[f"k{i}"] = op
            value = f"k{i}"
        elif kind == _VAR:
            value = f"c[{a}]"
        elif kind == _POW and a in scalar:
            names[f"f{i}"], names[f"k{i}"] = pow, b
            value = f"f{i}(s{a}, k{i})"
        elif kind == _POW and b == 2:
            value = f"s{a} * s{a}"
        elif kind == _POW:
            names[f"f{i}"], names[f"k{i}"] = np.power, np.float64(b)
            value = f"f{i}(s{a}, k{i})"
        elif kind == _UNARY and op == "neg":
            value = f"-s{a}"
        elif kind == _UNARY:
            names[f"f{i}"] = _UFUNCS[op]
            value = f"f{i}(s{a})"
        else:
            value = f"s{a} {_INFIX[op]} s{b}"
        lines.append(f"    s{i} = {value}")
        drop(free)
    lines.append("    o = e(z)")
    for row, (i, free) in enumerate(outputs):
        lines.append(f"    o[{row}] = s{i}")
        drop(free)
    lines.append("    return o")
    return "\n".join(lines), names


def _compile(plan: tuple) -> tuple:
    """``(function, width)``: ``plan`` compiled by :func:`_emit`, and one
    more than the highest variable column it reads."""
    source, names = _emit(plan)
    exec(compile(source, "<evaluation plan>", "exec"), names)
    width = max((a + 1 for kind, _, a, _, _ in plan[0] if kind == _VAR), default=0)
    return names["plan"], width


def _plan(exprs: tuple) -> tuple:
    """The cached compiled plan of the expression tuple ``exprs``."""
    with _plans_lock:
        plan = _plans.get(exprs)
        if plan is None:
            plan = _plans[exprs] = _compile(_build_plan(exprs))
            if len(_plans) > _PLAN_CACHE_SIZE:
                _plans.popitem(last=False)
        else:
            _plans.move_to_end(exprs)
        return plan


def _run(exprs: Sequence[Expr], columns, shape: tuple) -> np.ndarray:
    """Evaluate ``exprs`` with variable k reading ``columns[k]``; every
    value broadcasts to ``shape``, and the result has shape
    ``(len(exprs), *shape)``."""
    key = tuple(exprs)
    fn, width = _plan(key)
    if width > len(columns):
        raise ValueError(
            f"expression uses variable index {width - 1} but points "
            f"have dimension {len(columns)}"
        )
    with np.errstate(all="ignore"):
        return fn(columns, (len(key), *shape))


def eval_block(exprs: Sequence[Expr], points) -> np.ndarray:
    """Evaluate several expressions over a batch of points.

    Division by zero, sqrt of a negative value and log of a nonpositive
    value give nan or inf quietly; callers test the values for finiteness.

    Parameters
    ----------
    exprs : sequence of Expr
    points : array-like, shape (P, D) or (D,)
        Rows are points; column k feeds variable index k.

    Returns
    -------
    ndarray, shape (len(exprs), P)
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    # one point evaluates on numpy scalars: their arithmetic has the bits of
    # one-element arrays at a fraction of the cost of a ufunc call
    columns = list(pts[0]) if len(pts) == 1 else pts.T
    return _run(exprs, columns, (len(pts),))


def eval_lattice(exprs: Sequence[Expr], axes) -> np.ndarray:
    """Evaluate several expressions on the lattice spanned by ``axes``.

    Variable k reads ``axes[k]``, shaped to broadcast along lattice axis
    k, so a subexpression in fewer variables is computed on fewer points.
    Every operation is elementwise, so each value has the bits
    ``eval_block`` gives at the same lattice point, and the plans are
    shared with ``eval_block``.

    Returns
    -------
    ndarray, shape (len(exprs), len(axes[0]), ..., len(axes[-1]))
    """
    dim = len(axes)
    columns = [
        np.asarray(a, dtype=float).reshape((-1,) + (1,) * (dim - 1 - k))
        for k, a in enumerate(axes)
    ]
    return _run(exprs, columns, tuple(len(c) for c in columns))


class System:
    """Equations in ``dim`` variables, evaluated with their Jacobian.

    ``values(P)`` has shape (P, m) and ``jacobian(P)`` shape (P, m, dim);
    both take one point as a 1-D array too. The partial derivatives are
    built on the first ``jacobian`` call, equation-major, and reused.
    """

    def __init__(self, equations: Iterable[Expr], dim: int):
        self.equations = tuple(equations)
        self.dim = dim

    @cached_property
    def _partials(self) -> tuple:
        return tuple(differentiate(e, s) for e in self.equations for s in range(self.dim))

    def values(self, points) -> np.ndarray:
        return eval_block(self.equations, points).T

    def jacobian(self, points) -> np.ndarray:
        vals = eval_block(self._partials, points)
        return vals.T.reshape(vals.shape[1], len(self.equations), self.dim)


# ---------------------------------------------------------------------------
# Symbolic determinants.

def symbolic_determinant(matrix: Sequence[Sequence[Expr]]) -> Expr:
    """Determinant of a square matrix of expressions, fully simplified.

    Uses minor expansion along columns with memoization on row subsets,
    simplifying at every level so that exact cancellations happen inside
    the expansion rather than in one giant final pass. The empty matrix
    has determinant one. Sizes above 12 are rejected; expansion cost is
    exponential and callers never need more.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    if n == 0:
        return _ONE
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n > 12:
        raise ValueError("determinant expansion is limited to 12x12")
    rows = [[simplify(e) for e in r] for r in rows]
    memo: dict = {}

    def minor(avail: tuple) -> Expr:
        col = n - len(avail)
        if len(avail) == 1:
            return rows[avail[0]][col]
        res = memo.get(avail)
        if res is not None:
            return res
        acc = _ZERO
        for i, r in enumerate(avail):
            entry = rows[r][col]
            if _is_const(entry, 0):
                continue
            term = mul(entry, minor(avail[:i] + avail[i + 1 :]))
            acc = add(acc, term) if i % 2 == 0 else sub(acc, term)
        res = simplify(acc)
        memo[avail] = res
        return res

    return minor(tuple(range(n)))
