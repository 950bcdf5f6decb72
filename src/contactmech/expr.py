"""Expression language for system definitions.

Grammar (everything else is a positioned syntax error)::

    expression := term (("+" | "-") term)*
    term       := unary (("*" | "/") unary)*
    unary      := "-" unary | power
    power      := atom ("^" unary)?          # right-associative, binds
    atom       := NUMBER                     # tighter than unary minus
                | IDENT
                | FUNC "(" expression ")"
                | "(" expression ")"

``FUNC`` is one of ``sin cos exp log sqrt``.  Identifiers match
``[a-zA-Z][a-zA-Z0-9]*``; numbers are decimal with an optional fraction and
exponent.  There is no implicit multiplication.

The conventional chart variable names are ``q1..qn`` (positions),
``qd1..qdn`` (velocities), ``p1..pn`` (momenta) and ``z``.  Anything else
appearing free in an expression must be bound as a named parameter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ad import Jet2, JetBlock, _kept, _rows

__all__ = [
    "ParseError",
    "Node",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "parse",
    "to_source",
    "free_variables",
    "derivative",
    "ScalarField",
    "position_names",
    "velocity_names",
    "momentum_names",
    "lagrangian_chart",
    "hamiltonian_chart",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class ParseError(ValueError):
    """Syntax error with the byte offset and the tokens that were expected."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


# integral exponents up to this size are taken by repeated multiplication
# (exact for negative bases); larger ones go through exp(e*log(a)), which
# needs a positive base
MAX_INT_POWER = 1024


# -- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Node:
    span: tuple[int, int] = field(compare=False, repr=False)


@dataclass(frozen=True)
class Num(Node):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Node):
    name: str = ""


@dataclass(frozen=True)
class Unary(Node):
    op: str = "neg"
    operand: Node = None


@dataclass(frozen=True)
class Binary(Node):
    op: str = "add"
    left: Node = None
    right: Node = None


@dataclass(frozen=True)
class Call(Node):
    func: str = ""
    arg: Node = None


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[a-zA-Z][a-zA-Z0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            # only whitespace or an unknown character remains
            rest = source[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            bad = pos + (len(rest) - len(stripped))
            raise ParseError(f"unexpected character {source[bad]!r}", bad)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    @property
    def current(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, text, offset = self.current
        what = "end of input" if kind == "end" else repr(text)
        raise ParseError(f"unexpected {what}", offset, expected)

    def expect_op(self, op: str):
        kind, text, offset = self.current
        if kind == "op" and text == op:
            return self.advance()
        self.fail((f"'{op}'",))

    def parse(self) -> Node:
        node = self.expression()
        if self.current[0] != "end":
            self.fail(("operator", "end of input"))
        return node

    def expression(self) -> Node:
        node = self.term()
        while self.current[0] == "op" and self.current[1] in "+-":
            op = "add" if self.advance()[1] == "+" else "sub"
            right = self.term()
            node = Binary((node.span[0], right.span[1]), op, node, right)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.current[0] == "op" and self.current[1] in "*/":
            op = "mul" if self.advance()[1] == "*" else "div"
            right = self.unary()
            node = Binary((node.span[0], right.span[1]), op, node, right)
        return node

    def unary(self) -> Node:
        kind, text, offset = self.current
        if kind == "op" and text == "-":
            self.advance()
            operand = self.unary()
            return Unary((offset, operand.span[1]), "neg", operand)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.current[0] == "op" and self.current[1] == "^":
            self.advance()
            exponent = self.unary()
            return Binary((base.span[0], exponent.span[1]), "pow", base, exponent)
        return base

    def atom(self) -> Node:
        kind, text, offset = self.current
        if kind == "num":
            self.advance()
            return Num((offset, offset + len(text)), float(text))
        if kind == "ident":
            self.advance()
            if self.current[0] == "op" and self.current[1] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {text!r}", offset, tuple(FUNCTIONS)
                    )
                self.advance()
                arg = self.expression()
                _, _, close = self.expect_op(")")
                return Call((offset, close + 1), text, arg)
            return Var((offset, offset + len(text)), text)
        if kind == "op" and text == "(":
            self.advance()
            node = self.expression()
            self.expect_op(")")
            return node
        self.fail(("number", "identifier", "'('", "'-'"))


def parse(source: str) -> Node:
    """Parse ``source`` into an expression tree, or raise :class:`ParseError`."""
    return _Parser(source).parse()


# -- printing and analysis ---------------------------------------------------

_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def _print(node: Node) -> tuple[str, int]:
    if isinstance(node, Num):
        v = node.value
        text = str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
        return text, 5
    if isinstance(node, Var):
        return node.name, 5
    if isinstance(node, Call):
        return f"{node.func}({_print(node.arg)[0]})", 5
    if isinstance(node, Unary):
        text, prec = _print(node.operand)
        if prec < _PRECEDENCE["neg"]:
            text = f"({text})"
        return f"-{text}", _PRECEDENCE["neg"]
    assert isinstance(node, Binary)
    prec = _PRECEDENCE[node.op]
    lt, lp = _print(node.left)
    rt, rp = _print(node.right)
    if node.op == "pow":
        # right-associative; the base must bind at least as tightly as ^
        if lp <= prec:
            lt = f"({lt})"
        if rp < _PRECEDENCE["neg"]:
            rt = f"({rt})"
        return f"{lt}^{rt}", prec
    symbol = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[node.op]
    if lp < prec:
        lt = f"({lt})"
    # left-associative operators: a right child of equal precedence needs
    # parens to keep the tree shape (a + (b - c) is not (a + b) - c)
    if rp <= prec:
        rt = f"({rt})"
    return f"{lt}{symbol}{rt}", prec


def to_source(node: Node) -> str:
    """Render a tree back to source; reparsing yields a structurally equal tree."""
    return _print(node)[0]


def free_variables(node: Node) -> set[str]:
    """The set of variable names appearing in the tree."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, (Num,)):
        return set()
    if isinstance(node, Unary):
        return free_variables(node.operand)
    if isinstance(node, Call):
        return free_variables(node.arg)
    return free_variables(node.left) | free_variables(node.right)


def _bind(node: Node, known: dict) -> Node:
    """``node`` with each variable named in ``known`` replaced by its number."""
    if isinstance(node, Var):
        return Num(node.span, known[node.name]) if node.name in known else node
    if isinstance(node, Num):
        return node
    if isinstance(node, Unary):
        return Unary(node.span, node.op, _bind(node.operand, known))
    if isinstance(node, Call):
        return Call(node.span, node.func, _bind(node.arg, known))
    return Binary(node.span, node.op, _bind(node.left, known), _bind(node.right, known))


# -- symbolic derivative -----------------------------------------------------


def derivative(node: Node, name: str) -> Node:
    """The tree of d(node)/d(name) for a chart variable ``name``, on a tree
    whose parameters are numbers already (a field's bound tree).  Subtrees free
    of ``name`` are left out, and an exponent of numbers alone takes the jet's
    own rule: nothing for e = 0, da for e = 1 and e * a^(e-1) * da otherwise
    (one that raises, raises here), with a^(e-1) written a^e / a for
    e = -``MAX_INT_POWER``.  Compiled as a :class:`ScalarField`, its jets are
    derivatives of ``node`` one order up.
    """
    return _derivative(node, name) or Num(node.span, 0.0)


def _times(a, d):  # None is a zero; a factor d = 1 drops, and compiling folds a factor -1
    return None if a is None or d is None else a if d == Num(d.span, 1.0) else Binary(a.span, "mul", a, d)


def _plus(a, b):
    return a if b is None else b if a is None else Binary(a.span, "add", a, b)


def _derivative(node: Node, name: str):
    """d(node)/d(name) as a tree, or None where it is zero."""
    span, minus = node.span, Num(node.span, -1.0)
    if isinstance(node, (Num, Var)):
        return Num(span, 1.0) if node == Var(span, name) else None
    if isinstance(node, Unary):
        return _times(minus, _derivative(node.operand, name))
    if isinstance(node, Call):
        a = node.arg
        outer = {"sin": Call(span, "cos", a), "cos": Unary(span, "neg", Call(span, "sin", a)), "exp": node,
                 "log": Binary(span, "div", Num(span, 1.0), a), "sqrt": Binary(span, "div", Num(span, 0.5), node)}
        return _times(outer[node.func], _derivative(a, name))
    a, b = node.left, node.right
    da, db = _derivative(a, name), _derivative(b, name)
    if node.op in ("add", "sub"):
        return _plus(da, db if node.op == "add" else _times(minus, db))
    if node.op == "mul":
        return _plus(_times(a, db), _times(b, da))
    if node.op == "div":  # (da - (a/b) db) / b, defined wherever a/b is
        top = _plus(da, _times(minus, _times(node, db)))
        return None if top is None else Binary(span, "div", top, b)
    # a^b: b a^(b-1) da + a^b log(a) db
    e = b.value if isinstance(b, Num) else None if free_variables(b) else ScalarField(b, ()).value_at(())
    if e in (0.0, 1.0):
        power = da if e == 1.0 else None
    else:
        exponent, lowered = (b, Binary(span, "sub", b, Num(span, 1.0))) if e is None else (
            Num(span, e), Num(span, e - 1.0))
        power = Binary(span, "pow", a, lowered)
        if e == -MAX_INT_POWER:  # e - 1 leaves the integral powers; a^e / a keeps a^e's domain
            power = Binary(span, "div", Binary(span, "pow", a, exponent), a)
        power = _times(Binary(span, "mul", exponent, power), da)
    return _plus(power, _times(node, _times(Call(span, "log", a), db)))


# -- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """An evaluatable real function of a named-variable chart.

    ``chart`` lists the active variables in order; every other free variable
    of the expression must appear in ``parameters``, whose values are taken as
    floats when the field is built (a value that is no number raises there).
    ``_tree`` is the tree with each parameter replaced by its number: the tree
    that every evaluation traces and that lifts and derivatives build on.
    """

    ast: Node
    chart: tuple[str, ...]
    parameters: dict = field(default_factory=dict)
    source: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "chart", tuple(self.chart))
        names = free_variables(self.ast)
        unbound = names - set(self.chart) - set(self.parameters)
        if unbound:
            raise ValueError(
                f"unbound identifiers {sorted(unbound)}; chart is {list(self.chart)}"
            )
        shadowed = set(self.chart) & set(self.parameters)
        if shadowed:
            raise ValueError(f"parameters {sorted(shadowed)} shadow chart variables")
        known = {name: float(v) for name, v in self.parameters.items()}
        object.__setattr__(self, "_tree", _bind(self.ast, known) if known else self.ast)

    @classmethod
    def from_source(cls, source: str, chart, parameters=None) -> "ScalarField":
        return cls(parse(source), tuple(chart), dict(parameters or {}), source)

    def describe(self) -> str:
        return self.source if self.source is not None else to_source(self.ast)

    def _check_point(self, point):
        if len(point) != len(self.chart):
            raise ValueError(
                f"point has {len(point)} coordinates, chart has {len(self.chart)}"
            )

    # the per-point and block functions of the one trace of each order of the
    # bound tree (shared by fields of equal bound trees, see _tape), fetched on
    # first use of either and kept in the instance dict, outside the dataclass
    # fields, so == and repr never see them; _tape needs this module's node classes

    @cached_property
    def _value_code(self):
        from . import _tape

        return _tape.compile_value(self._tree, self.chart)

    @cached_property
    def _jet_code(self):
        from . import _tape

        return _tape.compile_jet(self._tree, self.chart)

    def jet_at(self, point) -> Jet2:
        """Value, gradient and Hessian with respect to the chart variables."""
        self._check_point(point)
        x = np.asarray(point, dtype=float)
        if x.ndim != 1 or x.shape[0] == 0:
            raise ValueError("a jet needs a nonempty 1-d point")
        return self._jet_code[0](x.tolist())

    def value_at(self, point) -> float:
        self._check_point(point)
        return self._value_code[0](np.asarray(point, dtype=float).tolist())

    def value_and_gradient_at(self, point):
        jet = self.jet_at(point)
        return jet.value, jet.gradient

    # -- blocks of points: one call for the rows of an (N, m) array ----------
    # Row k is jet_at / value_at at point k, bit for bit; the first failing
    # row's error is raised with its index as ``row`` (see ad._rows).

    def _block(self, points) -> np.ndarray:
        block = np.asarray(points, dtype=float)
        if block.ndim != 2 or block.shape[1] != len(self.chart):
            raise ValueError(
                f"a block of points has shape (count, {len(self.chart)}), got {block.shape}"
            )
        return block

    def jets_at(self, points) -> JetBlock:
        """Values (N,), gradients (N, m) and Hessians (N, m, m) at the rows of ``points``.

        The three arrays are read-only.  The field keeps the jets of its last
        block of at most ``BLOCK_ROWS`` rows and returns that same JetBlock
        when asked for an equal block again (see ``ad._kept``).
        """
        block = self._block(points)
        count, m = block.shape
        if m == 0:
            raise ValueError("a jet needs a nonempty 1-d point")

        def formula():
            if count == 0:
                return JetBlock(np.empty(0), np.empty((0, m)), np.empty((0, m, m)))
            return _rows(self._jet_code[1], block, row=self._jet_row)

        return _kept(self, "_jets_memo", block, formula)

    def _jet_row(self, U: np.ndarray) -> JetBlock:
        jet = self.jet_at(U[0])
        return JetBlock(np.array([jet.value]), jet.gradient[None], jet.hessian[None])

    def values_at(self, points) -> np.ndarray:
        """The values (N,) at the rows of ``points``."""
        block = self._block(points)
        if block.shape[0] == 0:
            return np.empty(0)
        return _rows(self._value_code[1], block, row=lambda U: np.array([self.value_at(U[0])], dtype=float))

    def value_and_gradient_block(self, points):
        jets = self.jets_at(points)
        return jets.value, jets.gradient


# -- chart naming conventions ------------------------------------------------


def position_names(n: int) -> tuple[str, ...]:
    return tuple(f"q{i}" for i in range(1, n + 1))


def velocity_names(n: int) -> tuple[str, ...]:
    return tuple(f"qd{i}" for i in range(1, n + 1))


def momentum_names(n: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(1, n + 1))


def lagrangian_chart(n: int) -> tuple[str, ...]:
    """(q1..qn, qd1..qdn, z)"""
    return position_names(n) + velocity_names(n) + ("z",)


def hamiltonian_chart(n: int) -> tuple[str, ...]:
    """(q1..qn, p1..pn, z)"""
    return position_names(n) + momentum_names(n) + ("z",)
