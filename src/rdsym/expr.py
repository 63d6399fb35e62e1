"""Immutable symbolic expression trees.

Small scalar language over real-valued functions of named variables:
parsing, exact differentiation, capture-free substitution, a confluent
rule-table simplifier and numeric evaluation (one batched evaluator and its
one-point forms).  Semantic equality is numeric (`num_equal`), not
canonical-form based.

Grammar (EBNF)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := atom ("^" factor)?
    atom   := number | ident | ident "(" expr ("," expr)* ")"
            | "(" expr ")" | "-" atom

Reserved function names: exp ln sqrt abs sign sin cos tan sinh cosh tanh
erf whitM sn cn dn ds sd.  Any other identifier is a free variable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from . import special
from .sampling import halton_scaled


class ExprError(Exception):
    """Base class for expression-layer errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left the function's real domain (log of nonpositive,
    pole of ds/sd, noninteger power of a negative base, ...)."""


class DiffError(ExprError):
    """Differentiation through abs/sign without a declared sign constraint,
    or through an unsupported slot (e.g. the modulus of sn)."""


# function name -> arity
FUNCTIONS = {
    "exp": 1, "ln": 1, "sqrt": 1, "abs": 1, "sign": 1,
    "sin": 1, "cos": 1, "tan": 1,
    "sinh": 1, "cosh": 1, "tanh": 1,
    "erf": 1,
    "whitM": 3,
    "sn": 2, "cn": 2, "dn": 2, "ds": 2, "sd": 2,
}

@dataclass(frozen=True, slots=True)
class Expr:
    """One node of an immutable expression tree.

    kind is one of: "const", "var", "param", "neg", the binary kinds
    "add" "sub" "mul" "div" "pow", "call" (name holds the function), or
    "interp" (an internal quintic Hermite table used by numeric-inverse
    fallbacks; not part of the grammar and not printable).

    Equality is structural.  The hash is computed once, when the node is
    built, from its fields; the children's hashes are already stored, so
    building a node costs O(arity) and hashing it O(1).
    """

    kind: str
    value: float | None = None
    name: str | None = None
    args: tuple["Expr", ...] = ()
    data: tuple | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash((self.kind, self.value, self.name, self.args, self.data)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Expr:
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (self.kind, self.value, self.name, self.args, self.data) == (
            other.kind, other.value, other.name, other.args, other.data)

    def __reduce__(self):
        # rebuild through the constructor: a string's hash differs between
        # interpreters, so a stored _hash must not travel with the node
        return (Expr, (self.kind, self.value, self.name, self.args, self.data))

    # -- builder sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __pow__(self, other):
        return pow_(self, _lift(other))

    def __rpow__(self, other):
        return pow_(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_str(self)

    def __repr__(self):
        try:
            return f"Expr({to_str(self)!r})"
        except ExprError:   # an interp table has no grammar form
            return "Expr(<tabulated>)"


def _lift(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return const(float(x))
    raise TypeError(f"cannot use {type(x).__name__} in an expression")


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


def var(name: str) -> Expr:
    return Expr("var", name=name)


def param(name: str) -> Expr:
    return Expr("param", name=name)


def add(a: Expr, b: Expr) -> Expr:
    return Expr("add", args=(_lift(a), _lift(b)))


def sub(a: Expr, b: Expr) -> Expr:
    return Expr("sub", args=(_lift(a), _lift(b)))


def mul(a: Expr, b: Expr) -> Expr:
    return Expr("mul", args=(_lift(a), _lift(b)))


def div(a: Expr, b: Expr) -> Expr:
    return Expr("div", args=(_lift(a), _lift(b)))


def pow_(a: Expr, b: Expr) -> Expr:
    return Expr("pow", args=(_lift(a), _lift(b)))


def neg(a: Expr) -> Expr:
    a = _lift(a)
    if a.kind == "const":
        return const(-a.value)
    return Expr("neg", args=(a,))


def func(name: str, *args) -> Expr:
    if name not in FUNCTIONS:
        raise ExprError(f"unknown function {name!r}")
    if len(args) != FUNCTIONS[name]:
        raise ExprError(f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}")
    return Expr("call", name=name, args=tuple(_lift(a) for a in args))


def exp(a) -> Expr:
    return func("exp", a)


def ln(a) -> Expr:
    return func("ln", a)


def sqrt(a) -> Expr:
    return func("sqrt", a)


ZERO = const(0.0)
ONE = const(1.0)


def free_variables(e: Expr) -> frozenset[str]:
    """Names of all var/param leaves."""
    out: set[str] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if n.kind in ("var", "param"):
            out.add(n.name)
        stack.extend(n.args)
    return frozenset(out)


def contains_var(e: Expr, name: str) -> bool:
    return name in free_variables(e)


# -- parsing ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str):
    pos = 0
    toks = []
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == pos:
            # skip pure whitespace tail
            if src[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {src[pos:].lstrip()[0]!r}", pos)
        if m.lastgroup == "num":
            toks.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            toks.append(("ident", m.group("ident"), m.start("ident")))
        else:
            toks.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    toks.append(("end", "", len(src)))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, text, pos = self.take()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                right = self.term()
                left = add(left, right) if text == "+" else sub(left, right)
            else:
                return left

    def term(self) -> Expr:
        left = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                right = self.factor()
                left = mul(left, right) if text == "*" else div(left, right)
            else:
                return left

    def factor(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            return pow_(base, self.factor())  # right-associative
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.take()
        if kind == "num":
            return const(float(text))
        if kind == "ident":
            k2, t2, _ = self.peek()
            if k2 == "op" and t2 == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.take()
                args = [self.expr()]
                while True:
                    k3, t3, p3 = self.peek()
                    if k3 == "op" and t3 == ",":
                        self.take()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != FUNCTIONS[text]:
                    raise ParseError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}", pos
                    )
                return Expr("call", name=text, args=tuple(args))
            return var(text)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "op" and text == "-":
            return neg(self.atom())
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def parse(src: str) -> Expr:
    """Parse a grammar string into an expression tree."""
    return _Parser(src).parse()


# -- printing --------------------------------------------------------------

# precedence levels used by the printer; mirrors the grammar
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if e.kind in ("add", "sub"):
        return _PREC_ADD
    if e.kind in ("mul", "div"):
        return _PREC_MUL
    if e.kind == "neg" or (e.kind == "const" and e.value < 0):
        return _PREC_NEG
    if e.kind == "pow":
        return _PREC_POW
    return _PREC_ATOM


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_str(e: Expr) -> str:
    """Render as a grammar string; parse(to_str(e)) is structurally e."""

    def go(n: Expr, need: int) -> str:
        s = _render(n)
        return f"({s})" if _prec(n) < need else s

    def _render(n: Expr) -> str:
        if n.kind == "const":
            return _fmt_number(n.value)
        if n.kind in ("var", "param"):
            return n.name
        if n.kind == "neg":
            return "-" + go(n.args[0], _PREC_ATOM)
        if n.kind == "add":
            return f"{go(n.args[0], _PREC_ADD)} + {go(n.args[1], _PREC_MUL)}"
        if n.kind == "sub":
            return f"{go(n.args[0], _PREC_ADD)} - {go(n.args[1], _PREC_MUL)}"
        if n.kind == "mul":
            return f"{go(n.args[0], _PREC_MUL)}*{go(n.args[1], _PREC_NEG)}"
        if n.kind == "div":
            return f"{go(n.args[0], _PREC_MUL)}/{go(n.args[1], _PREC_NEG)}"
        if n.kind == "pow":
            return f"{go(n.args[0], _PREC_NEG)}^{go(n.args[1], _PREC_NEG)}"
        if n.kind == "call":
            return n.name + "(" + ", ".join(go(a, _PREC_ADD) for a in n.args) + ")"
        raise ExprError(f"node kind {n.kind!r} has no grammar form")

    return _render(e)


# -- assumptions -----------------------------------------------------------

@dataclass(frozen=True)
class Assumption:
    """A declared local sign: expr > 0 (positive=True) or expr < 0."""

    expr: Expr
    positive: bool


def assume(spec: str | Assumption) -> Assumption:
    """Build an assumption from "e>0" / "e<0" notation."""
    if isinstance(spec, Assumption):
        return spec
    if ">" in spec:
        lhs, rhs = spec.split(">")
        positive = True
    elif "<" in spec:
        lhs, rhs = spec.split("<")
        positive = False
    else:
        raise ExprError(f"assumption {spec!r} must look like 'expr>0' or 'expr<0'")
    if rhs.strip() != "0":
        raise ExprError(f"assumption {spec!r} must compare against 0")
    return Assumption(parse(lhs), positive)


def _normalize_assumptions(assumptions: Iterable) -> dict[Expr, int]:
    table: dict[Expr, int] = {}
    for a in assumptions or ():
        a = assume(a)
        table[a.expr] = 1 if a.positive else -1
    return table


def _assumed_sign(e: Expr, table: dict[Expr, int]) -> int | None:
    if e in table:
        return table[e]
    # even powers and abs are positive wherever nonzero
    if e.kind == "call" and e.name == "abs":
        return 1
    if e.kind == "pow" and e.args[1].kind == "const":
        p = e.args[1].value
        if p == int(p) and int(p) % 2 == 0:
            return 1
    if e.kind == "const":
        return 1 if e.value > 0 else (-1 if e.value < 0 else None)
    return None


# -- differentiation -------------------------------------------------------

_SQRT_PI = math.sqrt(math.pi)


def diff(e: Expr, name: str, assumptions: Iterable = ()) -> Expr:
    """Exact symbolic derivative of e with respect to the variable `name`.

    Differentiation through abs/sign requires a declared sign constraint in
    `assumptions`; sn/cn/dn/ds/sd and whitM only support differentation in
    the argument slot (modulus and indices must be free of `name`).
    """
    table = _normalize_assumptions(assumptions)
    return simplify(_diff(e, name, table), assumptions)


def _diff(e: Expr, x: str, asm: dict[Expr, int]) -> Expr:
    k = e.kind
    if k in ("const", "param"):
        return ZERO
    if k == "var":
        return ONE if e.name == x else ZERO
    if x not in free_variables(e):
        return ZERO
    if k == "neg":
        return neg(_diff(e.args[0], x, asm))
    if k == "add":
        return add(_diff(e.args[0], x, asm), _diff(e.args[1], x, asm))
    if k == "sub":
        return sub(_diff(e.args[0], x, asm), _diff(e.args[1], x, asm))
    if k == "mul":
        a, b = e.args
        return add(mul(_diff(a, x, asm), b), mul(a, _diff(b, x, asm)))
    if k == "div":
        a, b = e.args
        return div(sub(mul(_diff(a, x, asm), b), mul(a, _diff(b, x, asm))), pow_(b, const(2)))
    if k == "pow":
        u, v = e.args
        du = _diff(u, x, asm)
        dv = _diff(v, x, asm)
        if v.kind == "const":
            return mul(mul(v, pow_(u, const(v.value - 1.0))), du)
        if dv == ZERO:
            return mul(mul(v, pow_(u, sub(v, ONE))), du)
        if du == ZERO:
            return mul(mul(e, ln(u)), dv)
        return mul(e, add(mul(dv, ln(u)), mul(v, div(du, u))))
    if k == "interp":
        inner = e.args[0]
        bumped = Expr("interp", args=e.args, data=(e.data[0], e.data[1], e.data[2] + 1))
        return mul(bumped, _diff(inner, x, asm))
    if k == "call":
        return _diff_call(e, x, asm)
    raise DiffError(f"cannot differentiate node kind {k!r}")


def _diff_call(e: Expr, x: str, asm: dict[Expr, int]) -> Expr:
    name = e.name
    u = e.args[0]
    du = _diff(u, x, asm)
    if name == "exp":
        return mul(e, du)
    if name == "ln":
        return div(du, u)
    if name == "sqrt":
        return div(du, mul(const(2), e))
    if name == "abs":
        s = _assumed_sign(u, asm)
        if s is None:
            raise DiffError(f"d|{to_str(u)}|/d{x} needs a declared sign for {to_str(u)}")
        return mul(const(s), du)
    if name == "sign":
        s = _assumed_sign(u, asm)
        if s is None:
            raise DiffError(f"d sign({to_str(u)})/d{x} needs a declared sign for {to_str(u)}")
        return ZERO
    if name == "sin":
        return mul(func("cos", u), du)
    if name == "cos":
        return neg(mul(func("sin", u), du))
    if name == "tan":
        return mul(add(ONE, pow_(func("tan", u), const(2))), du)
    if name == "sinh":
        return mul(func("cosh", u), du)
    if name == "cosh":
        return mul(func("sinh", u), du)
    if name == "tanh":
        return mul(sub(ONE, pow_(func("tanh", u), const(2))), du)
    if name == "erf":
        return mul(mul(const(2.0 / _SQRT_PI), exp(neg(pow_(u, const(2))))), du)
    if name == "whitM":
        kap, mu_, z = e.args
        if contains_var(kap, x) or contains_var(mu_, x):
            raise DiffError("whitM is differentiable only in its argument slot")
        dz = _diff(z, x, asm)
        # contiguous relation: M'_{k,u}(z) = (-1/2 + (u+1/2)/z) M_{k,u}(z)
        #   + ((u-k+1/2)/(1+2u)) z^{-1/2} M_{k-1/2,u+1/2}(z)
        lead = mul(add(const(-0.5), div(add(mu_, const(0.5)), z)), e)
        coeff = div(add(sub(mu_, kap), const(0.5)), add(ONE, mul(const(2), mu_)))
        shifted = func("whitM", sub(kap, const(0.5)), add(mu_, const(0.5)), z)
        tail = mul(coeff, div(shifted, sqrt(z)))
        return mul(add(lead, tail), dz)
    if name in ("sn", "cn", "dn", "ds", "sd"):
        z, kmod = e.args
        if contains_var(kmod, x):
            raise DiffError(f"{name} is differentiable only in its argument slot")
        dz = _diff(z, x, asm)
        snn = func("sn", z, kmod)
        cnn = func("cn", z, kmod)
        dnn = func("dn", z, kmod)
        if name == "sn":
            return mul(mul(cnn, dnn), dz)
        if name == "cn":
            return neg(mul(mul(snn, dnn), dz))
        if name == "dn":
            return neg(mul(mul(pow_(kmod, const(2)), mul(snn, cnn)), dz))
        if name == "ds":
            return neg(mul(div(cnn, pow_(snn, const(2))), dz))
        return mul(div(cnn, pow_(dnn, const(2))), dz)  # sd
    raise DiffError(f"no derivative rule for {name}")


# -- substitution ----------------------------------------------------------

def substitute(e: Expr, target, replacement: Expr | None = None) -> Expr:
    """Capture-free simultaneous substitution.

    Either substitute(e, "x", expr) or substitute(e, {"x": ex, "y": ey}).
    The language has no binders, so plain simultaneous replacement is
    capture-free.
    """
    if replacement is not None:
        mapping = {target: _lift(replacement)}
    else:
        mapping = {k: _lift(v) for k, v in target.items()}

    def go(n: Expr) -> Expr:
        if n.kind in ("var", "param"):
            return mapping.get(n.name, n)
        if not n.args:
            return n
        new_args = tuple(go(a) for a in n.args)
        if new_args == n.args:
            return n
        return Expr(n.kind, value=n.value, name=n.name, args=new_args, data=n.data)

    return go(e)


# -- simplification --------------------------------------------------------

def _is_const(e: Expr, v: float | None = None) -> bool:
    return e.kind == "const" and (v is None or e.value == v)


def _int_const(e: Expr) -> int | None:
    if e.kind == "const" and e.value == int(e.value):
        return int(e.value)
    return None


def _fold(e: Expr) -> Expr:
    """A node whose arguments are all constants, as the constant it
    evaluates to; unchanged where it has no value."""
    if all(a.kind == "const" for a in e.args):
        try:
            return const(evaluate(e, {}))
        except ExprError:
            return e
    return e


def _simplify_node(e: Expr, asm: dict[Expr, int]) -> Expr:
    """One local rewriting step; children already simplified."""
    k = e.kind
    if k in ("const", "var", "param", "interp"):
        return e
    if k == "neg":
        (a,) = e.args
        if a.kind == "const":
            return const(-a.value)
        if a.kind == "neg":
            return a.args[0]
        return e
    if k == "add":
        a, b = e.args
        if a.kind == "const" and b.kind == "const":
            return const(a.value + b.value)
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
        # sin^2 + cos^2 -> 1 (either order)
        for u, v in ((a, b), (b, a)):
            if (
                u.kind == "pow" and v.kind == "pow"
                and _is_const(u.args[1], 2.0) and _is_const(v.args[1], 2.0)
                and u.args[0].kind == "call" and v.args[0].kind == "call"
                and u.args[0].name == "sin" and v.args[0].name == "cos"
                and u.args[0].args == v.args[0].args
            ):
                return ONE
        if b.kind == "neg":
            return _simplify_node(sub(a, b.args[0]), asm)
        if b.kind == "mul" and b.args[0].kind == "const" and b.args[0].value < 0:
            return _simplify_node(
                sub(a, mul(const(-b.args[0].value), b.args[1])), asm)
        return e
    if k == "sub":
        a, b = e.args
        if a.kind == "const" and b.kind == "const":
            return const(a.value - b.value)
        if _is_const(b, 0.0):
            return a
        if _is_const(a, 0.0):
            return _simplify_node(neg(b), asm)
        if a == b:
            return ZERO
        # cosh^2 - sinh^2 -> 1
        if (
            a.kind == "pow" and b.kind == "pow"
            and _is_const(a.args[1], 2.0) and _is_const(b.args[1], 2.0)
            and a.args[0].kind == "call" and b.args[0].kind == "call"
            and a.args[0].name == "cosh" and b.args[0].name == "sinh"
            and a.args[0].args == b.args[0].args
        ):
            return ONE
        if b.kind == "neg":
            return _simplify_node(add(a, b.args[0]), asm)
        if b.kind == "mul" and b.args[0].kind == "const" and b.args[0].value < 0:
            return _simplify_node(
                add(a, mul(const(-b.args[0].value), b.args[1])), asm)
        return e
    if k == "mul":
        a, b = e.args
        if a.kind == "const" and b.kind == "const":
            return const(a.value * b.value)
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return ZERO
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
        if _is_const(a, -1.0):
            return _simplify_node(neg(b), asm)
        if _is_const(b, -1.0):
            return _simplify_node(neg(a), asm)
        # collect constants: c1*(c2*u) -> (c1 c2)*u
        if a.kind == "const" and b.kind == "mul" and b.args[0].kind == "const":
            return mul(const(a.value * b.args[0].value), b.args[1])
        if b.kind == "const":
            return _simplify_node(mul(b, a), asm)
        # exponent merging on a shared base
        ba, pa = (a.args[0], a.args[1]) if a.kind == "pow" else (a, ONE)
        bb, pb = (b.args[0], b.args[1]) if b.kind == "pow" else (b, ONE)
        if ba == bb and pa.kind == "const" and pb.kind == "const":
            return _simplify_node(pow_(ba, const(pa.value + pb.value)), asm)
        if a.kind == "call" and b.kind == "call" and a.name == b.name == "exp":
            return exp(_simplify_node(add(a.args[0], b.args[0]), asm))
        return e
    if k == "div":
        a, b = e.args
        if _is_const(b, 1.0):
            return a
        if a.kind == "const" and b.kind == "const" and b.value != 0.0:
            return const(a.value / b.value)
        if _is_const(a, 0.0):
            return ZERO
        if a == b:
            return ONE
        if a.kind == "neg" and a.args[0] == b:
            return const(-1.0)
        if b.kind == "neg" and b.args[0] == a:
            return const(-1.0)
        ba, pa = (a.args[0], a.args[1]) if a.kind == "pow" else (a, ONE)
        bb, pb = (b.args[0], b.args[1]) if b.kind == "pow" else (b, ONE)
        if ba == bb and pa.kind == "const" and pb.kind == "const":
            return _simplify_node(pow_(ba, const(pa.value - pb.value)), asm)
        if a.kind == "call" and b.kind == "call" and a.name == b.name == "exp":
            return exp(_simplify_node(sub(a.args[0], b.args[0]), asm))
        if b.kind == "call" and b.name == "exp":
            return _simplify_node(mul(a, exp(_simplify_node(neg(b.args[0]), asm))), asm)
        if b.kind == "pow" and b.args[1].kind == "const" and a.kind == "const":
            return _simplify_node(
                mul(a, pow_(b.args[0], const(-b.args[1].value))), asm)
        return e
    if k == "pow":
        a, b = e.args
        if _is_const(b, 1.0):
            return a
        if _is_const(b, 0.0):
            return ONE
        if _is_const(a, 1.0):
            return ONE
        if a.kind == "const" and b.kind == "const":
            return _fold(e)
        # (u^c)^n -> u^(c n) for integer n
        if a.kind == "pow" and a.args[1].kind == "const" and _int_const(b) is not None:
            return pow_(a.args[0], const(a.args[1].value * b.value))
        return e
    if k == "call":
        u = e.args[0]
        if e.name == "exp" and u.kind == "call" and u.name == "ln":
            return u.args[0]
        if e.name == "ln" and u.kind == "call" and u.name == "exp":
            return u.args[0]
        if e.name == "sqrt" and u.kind == "pow" and _is_const(u.args[1], 2.0):
            inner = u.args[0]
            s = _assumed_sign(inner, asm)
            if s == 1:
                return inner
            if s == -1:
                return _simplify_node(neg(inner), asm)
            return func("abs", inner)
        if e.name == "sqrt" and u.kind == "call" and u.name == "exp":
            return exp(_simplify_node(div(u.args[0], const(2)), asm))
        if e.name == "sqrt" and u.kind == "mul" and u.args[0].kind == "const" \
                and u.args[0].value > 0.0:
            return _simplify_node(
                mul(const(math.sqrt(u.args[0].value)), func("sqrt", u.args[1])), asm)
        if e.name == "abs":
            s = _assumed_sign(u, asm)
            if s == 1:
                return u
            if s == -1:
                return _simplify_node(neg(u), asm)
            if u.kind == "call" and u.name == "abs":
                return u
        if e.name == "sign":
            s = _assumed_sign(u, asm)
            if s is not None:
                return const(float(s))
        return _fold(e)
    return e


def _flatten_terms(e: Expr, sign: float, out: list) -> None:
    if e.kind == "add":
        _flatten_terms(e.args[0], sign, out)
        _flatten_terms(e.args[1], sign, out)
    elif e.kind == "sub":
        _flatten_terms(e.args[0], sign, out)
        _flatten_terms(e.args[1], -sign, out)
    elif e.kind == "neg":
        _flatten_terms(e.args[0], -sign, out)
    else:
        out.append((sign, e))


def _coeff_core(e: Expr) -> tuple[float, Expr | None]:
    """Split a multiplicative term into (constant coefficient, core);
    core None means the term is a pure constant."""
    if e.kind == "const":
        return e.value, None
    if e.kind == "neg":
        c, core = _coeff_core(e.args[0])
        return -c, core
    if e.kind == "mul":
        c1, a = _coeff_core(e.args[0])
        c2, b = _coeff_core(e.args[1])
        c = c1 * c2
        if a is None and b is None:
            return c, None
        if a is None:
            return c, b
        if b is None:
            return c, a
        if a is e.args[0] and b is e.args[1]:
            return c, e
        return c, mul(a, b)
    if e.kind == "div":
        c1, a = _coeff_core(e.args[0])
        if a is e.args[0]:
            return c1, e
        return c1, div(a if a is not None else ONE, e.args[1])
    return 1.0, e


def _collect_terms(e: Expr) -> Expr:
    """Cancel structurally equal additive terms with opposite signs and
    merge their constant multiples (light like-term collection)."""
    raw: list = []
    _flatten_terms(e, 1.0, raw)
    if len(raw) < 2:
        return e
    constant = 0.0
    order: list[Expr] = []
    coeffs: dict[Expr, float] = {}
    for sign, term in raw:
        c0, core = _coeff_core(term)
        c = sign * c0
        if core is None:
            constant += c
            continue
        if core not in coeffs:
            coeffs[core] = 0.0
            order.append(core)
        coeffs[core] += c
    result: Expr | None = None
    for core in order:
        c = coeffs[core]
        if c == 0.0:
            continue
        piece = core if c == 1.0 else mul(const(abs(c)), core)
        if c > 0.0:
            result = piece if result is None else add(result, piece)
        else:
            result = (neg(piece) if c != -1.0 else neg(core)) if result is None \
                else sub(result, piece if c != -1.0 else core)
    if constant != 0.0 or result is None:
        cpart = const(constant)
        result = cpart if result is None else (
            add(result, cpart) if constant > 0 else sub(result, const(-constant)))
    return result


# Bound on the entries of the walk memo of `simplify`; the memo is cleared
# when it is full.  Each entry holds a key node and its walked result, both
# mostly shared with live trees, so the bound caps the memo at a few MB.
SIMPLIFY_MEMO_SIZE = 4000

# (frozenset of the assumption table's items, node) -> walked node
_SIMPLIFY_MEMO: dict[tuple[frozenset, Expr], Expr] = {}


def simplify(e: Expr, assumptions: Iterable = ()) -> Expr:
    """Apply the rule table bottom-up to a fixpoint.  Numerically
    equivalent to the input on the input's domain; idempotent."""
    asm = _normalize_assumptions(assumptions)
    asm_key = frozenset(asm.items())
    memo = _SIMPLIFY_MEMO

    def walk(n: Expr) -> Expr:
        key = (asm_key, n)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if n.args:
            new_args = tuple(walk(a) for a in n.args)
            if new_args != n.args:
                n = Expr(n.kind, value=n.value, name=n.name, args=new_args, data=n.data)
        n = _simplify_node(n, asm)
        if n.kind in ("add", "sub"):
            collected = _collect_terms(n)
            if collected != n:
                n = walk(collected)
        if len(memo) >= SIMPLIFY_MEMO_SIZE:
            memo.clear()
        memo[key] = n
        return n

    prev = e
    for _ in range(20):
        cur = walk(prev)
        if cur == prev:
            return cur
        prev = cur
    return prev


# -- evaluation ------------------------------------------------------------
#
# One evaluator: `evaluate_points` computes whole trees over all points of
# a check in one numpy pass; `evaluate` and `compile_expr` are its one-point
# forms.  A point is outside the domain when a node divides by zero, a
# power has no real value or overflows, a call (ln and sqrt out of range, a
# kernel's domain error, pole or missing convergence, a tabulated function
# queried outside its knots) gives a non-finite value, or the final value
# is not finite.  Other intermediate values may be infinite.

def evaluate(e: Expr, point: Mapping[str, float]) -> float:
    """Evaluate at a point binding every free variable; IEEE-double result.

    A one-point call of `evaluate_points`: raises EvalDomainError outside
    the function's real domain and ExprError on a missing binding.
    """
    names = tuple(point)
    (value,), ok = evaluate_points([e], names, [tuple(float(point[nm]) for nm in names)])
    if not ok[0]:
        raise EvalDomainError(f"{dict(point)} is outside the expression's domain")
    return float(value[0])


def compile_expr(e: Expr, names: tuple[str, ...]) -> Callable[..., float]:
    """e as a callable f(values_tuple) -> float, a one-point `evaluate`
    per call.  A check over a known point set makes one batch call of
    `evaluate_points` instead."""
    return lambda point: evaluate(e, dict(zip(names, point)))


_ELLIPTIC = ("sn", "cn", "dn", "ds", "sd")

_ARRAY_1 = {
    "exp": np.exp, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh, "abs": np.abs,
    "ln": np.log, "sqrt": np.sqrt,   # NaN or -inf outside the domain
}


class _Batch:
    """One numpy pass over a fixed point set.  Every distinct node is
    computed once, whichever tree it occurs in; `bad` collects the points
    at which any node left the domain."""

    def __init__(self, names: tuple[str, ...], points):
        pts = _point_array(points, len(names))
        self.columns = {nm: np.ascontiguousarray(pts[:, i]) for i, nm in enumerate(names)}
        self.n = len(pts)
        self.memo: dict[Expr, np.ndarray] = {}
        self.triples: dict[tuple[Expr, Expr], tuple] = {}
        self.bad = np.zeros(self.n, dtype=bool)

    def values(self, exprs: list[Expr]) -> tuple[np.ndarray, np.ndarray]:
        """(values[k, n], ok[n]) of the expressions; ok covers every
        expression this batch has evaluated so far."""
        values = np.empty((len(exprs), self.n))
        with np.errstate(all="ignore"):
            for i, e in enumerate(exprs):
                values[i] = self.value(e)
            return values, ~self.bad & np.isfinite(values).all(axis=0)

    def value(self, e: Expr) -> np.ndarray:
        v = self.memo.get(e)
        if v is None:
            v = self.memo[e] = self._node(e)
        return v

    def _finite(self, r: np.ndarray) -> np.ndarray:
        self.bad |= ~np.isfinite(r)
        return r

    def _node(self, e: Expr) -> np.ndarray:
        k = e.kind
        if k == "const":
            return np.full(self.n, e.value)
        if k in ("var", "param"):
            col = self.columns.get(e.name)
            if col is None:
                raise ExprError(f"no binding for variable {e.name!r}")
            return col
        if k == "call":
            return self._finite(self._call(e))
        if k == "interp":
            xs, coeffs, order = e.data
            try:
                r = special.hermite_eval(xs, coeffs, self.value(e.args[0]), order)
            except special.SpecialFunctionError:   # a derivative order the table lacks
                r = np.full(self.n, np.nan)
            return self._finite(r)
        a = self.value(e.args[0])
        if k == "neg":
            return -a
        if k == "pow":
            b = e.args[1]
            return self._pow(a, b.value if b.kind == "const" else self.value(b))
        b = self.value(e.args[1])
        if k == "add":
            return a + b
        if k == "sub":
            return a - b
        if k == "mul":
            return a * b
        if k == "div":
            self.bad |= b == 0.0
            return a / b
        raise ExprError(f"cannot evaluate node kind {k!r}")

    def _pow(self, a: np.ndarray, b) -> np.ndarray:
        """a^b elementwise; b is an array or a constant exponent.  A
        negative base takes an exponent within 1e-9 of an integer as that
        integer; 0 to a nonpositive power has no value."""
        pos = a > 0.0
        r = np.power(a, b)
        if not pos.all():
            zero = a == 0.0
            other = ~(pos | zero)           # negative or NaN base
            n = np.round(b)
            signed = np.where(np.fmod(n, 2.0) != 0.0, -1.0, 1.0) * np.power(-a, n)
            r = np.where(zero, 0.0, np.where(other, signed, r))
            self.bad |= (zero & ~np.greater(b, 0.0)) | (other & ~(np.abs(b - n) < 1e-9))
        return self._finite(r)

    def _call(self, e: Expr) -> np.ndarray:
        name = e.name
        if name in _ELLIPTIC:
            key = (e.args[0], e.args[1])
            triple = self.triples.get(key)
            if triple is None:
                triple = self.triples[key] = special.jacobi(
                    self.value(e.args[0]), self.value(e.args[1]))
            sn, cn, dn = triple
            if name == "ds":
                return special.ds_of(sn, dn)
            if name == "sd":
                return special.sd_of(sn, dn)
            return triple[_ELLIPTIC.index(name)]
        args = [self.value(a) for a in e.args]
        if name == "erf":
            return special.erf(args[0])
        if name == "whitM":
            return special.whittaker_m(*args)
        if name == "sign":
            return (args[0] > 0.0) - (args[0] < 0.0).astype(float)
        return _ARRAY_1[name](args[0])


def _point_array(points, width: int) -> np.ndarray:
    """Points as an (n, width) array: an array, any iterable of tuples,
    or for width 1 an iterable of numbers."""
    if not isinstance(points, np.ndarray):
        points = list(points)
    pts = np.asarray(points, dtype=float)
    return pts if pts.ndim == 2 else pts.reshape(len(pts), width)


def evaluate_points(exprs: list[Expr], names: tuple[str, ...],
                    points) -> tuple[np.ndarray, np.ndarray]:
    """Values of k expressions at n points in one numpy pass.

    `points` is an (n, d) array or n tuples of d coordinates (for one
    name, n numbers).  Returns (values[k, n], ok[n]): ok is False at a
    point where any of the expressions leaves its domain (the rule above),
    and the values there are meaningless.  Each distinct
    node is computed once per call, across all k trees, and each (z, k)
    pair of the Jacobi functions costs one kernel call.
    """
    return _Batch(names, points).values(exprs)


# -- sampled residuals -----------------------------------------------------

# share of sample points a check may skip (domain errors, pole guards)
# before it raises instead of deciding on what is left
MAX_SKIP_FRACTION = 0.2


@dataclass(frozen=True)
class SampledResidual:
    """Outcome of `sample_residual`: the worst relative and absolute
    residual over the evaluated points, where the worst relative one sits,
    how many points were attempted and evaluated, and why the others were
    skipped (a domain error, or a guard below its minimum)."""

    max_rel: float
    max_abs: float
    worst_point: tuple[float, ...] | None
    attempted: int
    valid: int
    domain_skips: int
    guard_skips: int


def sample_residual(terms: list[Expr], names: tuple[str, ...], points,
                    guards: list[Expr] = (), guard_min: float = 0.0,
                    ) -> SampledResidual:
    """Evaluate the additive terms of a residual at each point.

    The residual at a point is the compensated sum (math.fsum) of the term
    values; its relative size divides by max(1, max |term|), so a genuine
    zero passes even when single terms are large.  A point is skipped when
    a guard is below guard_min (a guard skip), or else when a term or a
    guard leaves its domain (a domain skip); guards and terms are evaluated
    in one batch.  Raises
    EvalDomainError when no point is evaluated or more than
    MAX_SKIP_FRACTION of them are skipped.
    """
    pts = _point_array(points, len(names))
    batch = _Batch(names, pts)
    gvals, guards_ok = batch.values(list(guards))
    vals, ok = batch.values(terms)
    # a guard below its minimum skips the point whatever the terms do there
    guarded = guards_ok & (gvals < guard_min).any(axis=0)
    use = np.flatnonzero(ok & guards_ok & ~guarded)
    attempted, valid = len(pts), len(use)
    skipped = attempted - valid
    if valid == 0 or skipped > MAX_SKIP_FRACTION * attempted:
        raise EvalDomainError(
            f"{skipped}/{attempted} sample points skipped; a check needs an evaluated "
            f"point and may skip at most {MAX_SKIP_FRACTION:.0%}")
    block = vals[:, use]
    res = np.abs([math.fsum(col) for col in block.T.tolist()])
    rel = res / np.maximum(1.0, np.abs(block).max(axis=0))
    j = int(np.argmax(rel))
    worst = float(rel[j])
    worst_pt = tuple(pts[use[j]].tolist()) if worst > 0.0 else None
    return SampledResidual(worst, float(res.max()), worst_pt, attempted, valid,
                           skipped - int(guarded.sum()), int(guarded.sum()))


# -- numeric equality ------------------------------------------------------

def max_deviation(
    a: Expr,
    b: Expr,
    box: Mapping[str, tuple[float, float]],
    n: int = 64,
) -> float:
    """Largest hybrid relative deviation |a-b| / max(1,|a|,|b|) over n
    quasi-random points of the interval box (see `sample_residual` for
    skipped points)."""
    names = tuple(sorted(set(free_variables(a)) | set(free_variables(b))))
    for nm in names:
        if nm not in box:
            raise ExprError(f"num_equal box is missing an interval for {nm!r}")
    points = halton_scaled([box[nm] for nm in names], n)
    return sample_residual([a, neg(b)], names, points).max_rel


def num_equal(
    a: Expr,
    b: Expr,
    box: Mapping[str, tuple[float, float]],
    n: int = 64,
    tol: float = 1e-9,
) -> bool:
    """Semantic equality workhorse: max relative deviation over n
    quasi-random points of the box is at most tol."""
    return max_deviation(_lift(a), _lift(b), box, n) <= tol
