"""Compile fields' expression trees once into straight-line Python.

:func:`_emit` is the one step from a trace to code.  It traces a tuple of
trees in order with one :class:`_JetTracer` and one table of right-hand
sides; an assembler writes the entries of the result through a
:class:`FieldWriter` for each tree, and the lines they need are one text,
compiled once.  There is one arithmetic, forward-mode rules to second order,
and a text has the order of the entries it writes (:func:`compile_jet`):

- order 0, the value of each tree, whose rules trace the value entry alone,
  with no derivative factor: it has the bits of the jet's value wherever both
  are defined and every exponent is constant (see :class:`_JetTracer`);
- order 1, the value and gradient of each tree: the trace of order 2 without
  the lines that only a Hessian entry reads, so each entry has the jet's bits;
- order 2, the value, the structural zero and the traced gradient and
  upper-Hessian entries of one tree;

and a system's vector field is what its assembler writes from the jet of its
one tree, and ``symmetry``'s check kernel what its assembler writes from the
jets of a tuple of trees, one read for its value alone traced at order 0
(:func:`compile_field`).  So the k components of a vector field are one text of order 0 and
one of order 1, and a lift's values and Jacobian are one compiled call.  The
text runs in two namespaces: over the floats of a point (a list) it gives the
tuple of entries, over an (N, m) block of points an (N, k) array, which
:func:`compile_jet` unpacks into values and Jacobians, or into a
:class:`~contactmech.ad.Jet2` and a :class:`~contactmech.ad.JetBlock`.
The tests check the point form against ``tests/dense_ad.py``, which applies
the same rules to dense arrays one operation at a time.

The text writes every guard, branch test and run-time power through helpers
(``_any``, ``_all``, ``_uniform``, ``_integral``, ``_nonzero``, ``_abs``,
``_fmax``, ``_int_power_chain``, ``_pow``).  ``_RUNTIME`` gives them their
one-point meaning (``bool``, ``abs``, ``max``, ``float.is_integer``,
square-and-multiply, ...), and the point form raises exactly where
evaluating the tree operation by operation would, with the same exception
types.  An integral power is IEEE products, never libm's ``pow``, which only
a power of known numbers that raises while compiling (``_pow``) or a
regularity threshold calls.  ``_BLOCK_RUNTIME`` gives the helpers their
meaning over columns, and row k of the block form is, bit for bit, the point
form at point k: numpy does the correctly rounded arithmetic and ``sqrt``
over whole columns, and ``exp``, ``log``, ``sin`` and ``cos`` run entry by
entry with the rows' own functions.  Where some row
would raise, the block raises (:class:`BlockFallback` for a guard or a
branch that the rows do not all take); ``contactmech.ad._rows`` then
evaluates it row by row, so its errors are the rows' errors too.

A system's vector field also runs in a fixed-step RK4 or Euler loop
(:func:`_stepper`), once per stage, with ``_RUNTIME``, so the integration
runs in one function on locals.

Tracing runs the operations over *symbolic* scalars: a Python float when the
number is known at compile time (the tree's numbers, its parameters' among
them, and every subtree built from them alone), otherwise the name of a
local of the generated function.  Known numbers are computed while
compiling; an operation on them that raises is written into the code
instead, so it raises at run time in its place.  A symbolic jet keeps its
gradient and the upper triangle of its Hessian as sparse maps.  A missing
entry is a structural zero, so a term that depends on 2 of 13 variables
costs only that 2x2 block.  A known non-finite factor turns structural
zeros into NaN, as dense arithmetic would; a value that only becomes
infinite at run time leaves them zero, where the dense algebra would
compute 0*inf = NaN.  Identical right-hand sides are computed once.

No text of the expression reaches the generated source.  Chart variables
become ``x0, x1, ...``; every number is bound by name (``k0, k1, ...``) in
the function's namespace; the other names are the locals ``t0, t1, ...``,
the math functions, the helpers above and the ``_fail_*`` helpers that raise
:class:`~contactmech.ad.DomainError`.  A stepper adds the state ``y0, y1,
...`` and the stage derivatives ``d1_0, ...`` as locals; every stage reads
its input ``x0, x1, ...``, the first a copy of the state, so an entry that
names an input never sees the state it updates.  It copies every bound name
into a local once per call.

A tree reaches here free of parameters: a :class:`~contactmech.expr.ScalarField`
replaces each by its number once, when it is built.  Each trace, of order 0,
1 or 2 or of an assembler's field, runs once per process for its kind,
trees and chart (:func:`_trace`, the package's one bounded cache), and its
text is compiled where it is emitted, a stepper's once per method; so fields
and systems of equal trees share its functions, and each keeps its own
results.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from itertools import repeat

import numpy as np

from .ad import DomainError, Jet2, JetBlock, _rows
from .expr import MAX_INT_POWER, Binary, Call, Num, Unary, Var

__all__ = ["BlockFallback", "FieldWriter", "compile_jet", "compile_field"]

def _fail_div(_value):
    raise DomainError("division by zero")


def _fail_log(value):
    raise DomainError(f"log requires a positive argument, got {value}")


def _fail_sqrt(value):
    raise DomainError(f"sqrt requires a nonnegative argument, got {value}")


def _fail_jet_sqrt(value):
    raise DomainError(
        f"sqrt of a jet requires a positive argument (derivative undefined at 0), got {value}"
    )


def _fail_angle(value):
    raise DomainError(f"sin and cos require a finite argument, got {value}")


def _fail_root(value):
    raise DomainError(f"power with non-integer exponent requires a positive base, got {value}")


def _fail_base(value):
    raise DomainError(f"power with non-constant exponent requires a positive base, got {value}")


def _repeated_product(x, k: int):
    # square-and-multiply in floats: overflows to inf instead of raising
    # (never in place: x may be a column of a block)
    result = 1.0
    while k:
        if k & 1:
            result = result * x
        k >>= 1
        if k:
            x = x * x
    return result


def _power_chain(base, k: int, order: int):
    """base**k, with its first and second derivatives at order 2 (k other than 0 and 1 there)."""
    if k < 0:
        r = 1.0 / base
        value = _repeated_product(r, -k)
        return value if not order else (value, k * value * r, k * (k - 1) * value * r * r)
    value = _repeated_product(base, k)
    if not order:
        return value
    return value, k * _repeated_product(base, k - 1), k * (k - 1) * _repeated_product(base, k - 2)


def _int_power_chain(base: float, exponent: float, order: int = 2):
    k = int(exponent)
    if k < 0 and base == 0.0:
        _fail_div(base)
    return _power_chain(base, k, order)


# -- the runtimes: float and column meanings of the generated code's helpers -------


class BlockFallback(ArithmeticError):
    """A block of points needs evaluating row by row (see the module docstring)."""


def _fallback(*_args):
    raise BlockFallback


def _uniform(mask) -> bool:
    """The branch every row takes; rows that disagree fall back."""
    mask = np.asarray(mask)
    if mask.all():
        return True
    if not mask.any():
        return False
    raise BlockFallback


def _integral(a):
    """Rowwise ``float.is_integer``."""
    return np.isfinite(a) & (np.floor(a) == a)


def _nonzero(*entries):
    """Rowwise truth of ``a or b or ...`` over floats."""
    mask = False
    for entry in entries:
        mask = mask | (entry != 0.0)
    return mask


def _block_int_power_chain(base, exponent, order: int = 2):
    """``_int_power_chain`` for an exponent that every row shares; rows that differ fall back."""
    flat = np.ravel(exponent)
    k = int(flat[0])
    if np.any(flat != flat[0]) or (k < 0 and np.any(base == 0.0)):
        raise BlockFallback
    return _power_chain(base, k, order)


# (test at compile time, test in generated code) for each failure helper
_GUARDS = {
    _fail_div: (lambda a: a == 0.0, "_any({0} == k0)"),
    _fail_log: (lambda a: a <= 0.0, "_any({0} <= k0)"),
    _fail_sqrt: (lambda a: not a >= 0.0, "not _all({0} >= k0)"),
    _fail_jet_sqrt: (lambda a: a <= 0.0, "_any({0} <= k0)"),
    _fail_angle: (math.isinf, "_any(isinf({0}))"),
    _fail_root: (lambda a: a <= 0.0, "_any({0} <= k0)"),
    _fail_base: (lambda a: a <= 0.0, "_any({0} <= k0)"),
}

# the generated tests of branches, each the argument of ``_uniform``
_CONDITIONS = {
    "small_integral": "_integral({0}) & (_abs({0}) <= {1})",
    "equal": "{0} == {1}",
}

_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}

# the helpers of the generated code over floats, at one point ...
_RUNTIME = {
    **_MATH,
    **{fail.__name__: fail for fail in _GUARDS},
    "isinf": math.isinf,
    "_int_power_chain": _int_power_chain,
    "_any": bool,
    "_all": bool,
    "_abs": abs,
    "_fmax": max,
    "_uniform": bool,
    "_integral": float.is_integer,
    "_nonzero": lambda *entries: any(entries),
    "_pow": operator.pow,
}


def _entrywise(fn):
    """``fn`` of Python numbers over the entries of columns (and over numbers), as the rows apply it."""

    def apply(*args):
        args = [a.tolist() if isinstance(a, (np.ndarray, np.generic)) else a for a in args]
        columns = [a for a in args if type(a) is list]
        if not columns:
            return fn(*args)
        return np.fromiter(map(fn, *(a if type(a) is list else repeat(a) for a in args)), float, len(columns[0]))

    return apply


_pow = _entrywise(operator.pow)
# ... and over columns, one entry per point
_BLOCK_RUNTIME = {
    **{name: np.sqrt if name == "sqrt" else _entrywise(fn) for name, fn in _MATH.items()},
    "_pow": _pow,
    **{fail.__name__: _fallback for fail in _GUARDS},
    "isinf": np.isinf,
    "_int_power_chain": _block_int_power_chain,
    "_any": np.any,
    "_all": np.all,
    "_abs": np.abs,
    "_fmax": np.fmax,
    "_uniform": _uniform,
    "_integral": _integral,
    "_nonzero": _nonzero,
}


def _known(s) -> bool:
    return type(s) is not str


def _is(s, number: float) -> bool:
    return type(s) is float and s == number


def _nonfinite(s) -> bool:
    return type(s) is float and not math.isfinite(s)


def _zero(s, sign: float) -> bool:
    """Whether s is the known zero of the sign of ``sign``."""
    return _is(s, 0.0) and math.copysign(1.0, s) == sign


def _stored(s) -> bool:
    """Whether a jet keeps entry s: not a structural zero (None or +0.0); a known -0.0 keeps its sign."""
    return s is not None and not _zero(s, 1.0)


class _Unreachable(Exception):
    """The code traced so far raises on every run; nothing after it executes."""


class _Jet:
    """A symbolic jet: value, gradient {i: s} and upper Hessian {(i, j): s}."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g: dict, h: dict):
        self.v = v
        self.g = {k: s for k, s in g.items() if _stored(s)}
        self.h = {k: s for k, s in h.items() if _stored(s)}

    def has_nonfinite(self) -> bool:
        return any(map(_nonfinite, (*self.g.values(), *self.h.values())))


class _Tracer:
    """Float arithmetic over symbolic scalars, written out as Python lines.

    The lines run over floats or over columns of points, by the runtime they
    are executed with (see the module docstring).  Its rules for the tree are
    those of known numbers, computed while compiling, and of a value at order 0.
    """

    def __init__(self, chart):
        self.inputs = {name: f"x{i}" for i, name in enumerate(chart)}
        self.namespace = {"__builtins__": {}}
        self.block_forms: dict = {}  # the block forms of names bound by a FieldWriter
        self.lines: list[str] = []
        self.indent = "    "
        self.bound: dict = {}
        self.cse: dict = {}
        self.count = 0
        self.ref(0.0)  # k0: the zero every guard compares against

    # -- code -------------------------------------------------------------

    def ref(self, s) -> str:
        """The source name of a symbolic scalar; known numbers are bound, never printed."""
        if type(s) is str:
            return s
        key = s.hex() if type(s) is float else ("int", s)
        name = self.bound.get(key)
        if name is None:
            name = self.bound[key] = f"k{len(self.bound)}"
            self.namespace[name] = s
        return name

    def fresh(self) -> str:
        self.count += 1
        return f"t{self.count - 1}"

    def line(self, template: str, *args) -> None:
        self.lines.append(self.indent + template.format(*map(self.ref, args)))

    def emit(self, template: str, *args, commutative=False) -> str:
        refs = [self.ref(a) for a in args]
        if commutative:
            refs.sort()
        rhs = template.format(*refs)
        name = self.cse.get(rhs)
        if name is None:
            name = self.cse[rhs] = self.fresh()
            self.lines.append(f"{self.indent}{name} = {rhs}")
        return name

    def op(self, fn, template: str, *args, commutative=False):
        """fn(*args), computed now when every argument is known."""
        if all(map(_known, args)):
            try:
                return fn(*args)
            except (ArithmeticError, ValueError):
                # raise it at run time, where evaluating the tree would
                self.emit(template, *args)
                raise _Unreachable from None
        return self.emit(template, *args, commutative=commutative)

    def guard(self, fail, a) -> None:
        """Call ``fail(a)`` (which raises) where its domain test holds."""
        test, condition = _GUARDS[fail]
        if _known(a):
            if test(a):
                self.line(f"{fail.__name__}({{0}})", a)
                raise _Unreachable
            return
        text = f"if {condition}: {fail.__name__}({{0}})".format(a)
        if text not in self.cse:
            self.cse[text] = None
            self.lines.append(self.indent + text)

    def condition(self, kind: str, *args) -> str:
        """The run-time test of a branch: one of ``_CONDITIONS``, or ``nonzero``."""
        refs = [self.ref(a) for a in args]
        test = f"_nonzero({', '.join(refs)})" if kind == "nonzero" else _CONDITIONS[kind].format(*refs)
        return f"_uniform({test})"

    def branch(self, condition: str, then, orelse) -> _Jet:
        """Trace both alternatives, each a jet, and pick one at run time by ``condition``."""
        outer_lines, outer_cse = self.lines, self.cse
        self.indent += "    "
        blocks, results = [], []
        for build in (then, orelse):
            self.lines, self.cse = [], dict(outer_cse)
            try:
                jet = build()
                results.append({"v": jet.v, **{("g", i): s for i, s in jet.g.items()},
                                **{("h", *k): s for k, s in jet.h.items()}})
            except _Unreachable:
                results.append(None)
            blocks.append(self.lines)
        self.lines, self.cse = outer_lines, outer_cse
        live = [r for r in results if r is not None]
        merged = {key: self.fresh() for key in dict.fromkeys(k for r in live for k in r)}
        for keyword, block, result in zip((f"if {condition}:", "else:"), blocks, results):
            self.lines.append(self.indent[:-4] + keyword)
            self.lines.extend(block)
            for key, name in merged.items() if result is not None else ():
                self.line(f"{name} = {{0}}", result.get(key, 0.0))
        self.indent = self.indent[:-4]
        if not live:
            raise _Unreachable
        g = {key[1]: name for key, name in merged.items() if key[0] == "g"}
        h = {key[1:]: name for key, name in merged.items() if key[0] == "h"}
        return _Jet(merged["v"], g, h)

    # -- float arithmetic ---------------------------------------------------
    # a fold keeps the bits of IEEE arithmetic: x + (-0.0) is x for every x,
    # but x + 0.0 is +0.0 at x = -0.0

    def add(self, a, b):
        if _zero(b, -1.0):
            return a
        if _zero(a, -1.0):
            return b
        return self.op(operator.add, "{} + {}", a, b, commutative=True)

    def sub(self, a, b):
        if _zero(b, 1.0):
            return a
        if _zero(a, -1.0):
            return self.neg(b)
        return self.op(operator.sub, "{} - {}", a, b)

    def mul(self, a, b):
        if _is(a, 1.0):
            return b
        if _is(b, 1.0):
            return a
        if _is(a, -1.0):
            return self.neg(b)
        if _is(b, -1.0):
            return self.neg(a)
        return self.op(operator.mul, "{} * {}", a, b, commutative=True)

    def neg(self, a):
        return self.op(operator.neg, "-{}", a)

    def div(self, a, b):
        """a / b with b already guarded against zero."""
        if _is(b, 1.0):
            return a
        return self.op(operator.truediv, "{} / {}", a, b)

    def call(self, name: str, a):
        return self.op(_MATH[name], f"{name}({{}})", a)

    # -- the tree, under float rules -------------------------------------------

    def trace(self, node):
        kind = node.__class__
        if kind is Num:
            return float(node.value)
        if kind is Var:
            return self.variables[node.name]
        if kind is Binary:
            a = self.trace(node.left)
            return self.binary(node.op, a, self.trace(node.right))
        if kind is Unary:
            return self.unary(node.op, self.trace(node.operand))
        return self.unary(node.func, self.trace(node.arg))

    def unary(self, op: str, a):
        if op == "neg":
            return self.neg(a)
        if op == "log":
            self.guard(_fail_log, a)
        elif op == "sqrt":
            self.guard(_fail_sqrt, a)
        elif op == "sin" or op == "cos":
            self.guard(_fail_angle, a)
        return self.call(op, a)

    def binary(self, op: str, a, b):
        """``a op b`` of known numbers."""
        if op == "add":
            return self.add(a, b)
        if op == "sub":
            return self.sub(a, b)
        if op == "mul":
            return self.mul(a, b)
        if op == "div":
            self.guard(_fail_div, b)
            return self.div(a, b)
        # an integral exponent by ``**`` with an int; any other needs a positive base
        if b.is_integer():
            if b < 0:
                self.guard(_fail_div, a)
            return self.op(operator.pow, "_pow({}, {})", a, int(b))
        self.guard(_fail_root, a)
        return self.op(operator.pow, "_pow({}, {})", a, b)


class _JetTracer(_Tracer):
    """Forward-mode rules over sparse symbolic jets, at order 2 or 0.

    At order 2, for c = f(a): g_c = f'(a) g_a and H_c = f'(a) H_a + f''(a)
    g_a g_a^T; the binary rules are the product and quotient rules to second
    order.  Each entry is combined in the order that ``tests/dense_ad.py``
    combines its dense arrays.  Sparse entries use ``None`` for a structural
    zero.  A text of order 1 is this trace too, with no Hessian entry
    written, so ``_live`` drops the lines that only a Hessian entry reads.

    At order 0 the chart variables carry no derivative entries, so each rule
    traces the value entry alone, with no derivative factor.  A unary function
    takes the float rule (``sqrt`` needs a nonnegative argument only), and every
    exponent is constant, on any base, an integral one taken by
    square-and-multiply at any size.
    """

    def __init__(self, chart, order: int = 2):
        super().__init__(chart)
        self.order = order
        m = len(self.inputs)
        self.all_g = range(m)
        self.all_h = [(i, j) for i in range(m) for j in range(i, m)]
        self.variables = {name: _Jet(x, {i: 1.0} if order else {}, {})
                          for i, (name, x) in enumerate(self.inputs.items())}

    def values_of(self, tree):
        """The trace of ``tree`` at order 0, as its value text traces it, in this
        tracer's lines and table: its result has the value entry alone."""
        order, variables = self.order, self.variables
        self.order, self.variables = 0, {name: _Jet(x, {}, {}) for name, x in self.inputs.items()}
        try:
            return self.trace(tree)
        finally:
            self.order, self.variables = order, variables

    # -- sparse entry arithmetic --------------------------------------------

    def _times(self, a, b):
        if a is None or b is None:
            # a known non-finite factor times a structural zero is NaN
            return math.nan if _nonfinite(a) or _nonfinite(b) else None
        return self.mul(a, b)

    def _plus(self, a, b):
        if a is None:
            return b
        return a if b is None else self.add(a, b)

    def _minus(self, a, b):
        if b is None:
            return a
        return self.neg(b) if a is None else self.sub(a, b)

    def _make(self, v, jets, factors, grad, hess, outer=()) -> _Jet:
        """The jet with entries grad(i) and hess(i, j) wherever they can be nonzero.

        ``factors`` are the scalars the op multiplies whole arrays by and
        ``outer`` the gradient pairs whose outer products enter the Hessian.
        """
        if not self.order:
            return _Jet(v, {}, {})
        if any(map(_nonfinite, factors)) or any(j.has_nonfinite() for j in jets):
            g_keys, h_keys = self.all_g, self.all_h
        else:
            g_keys = sorted({i for j in jets for i in j.g})
            pairs = {(min(i, k), max(i, k)) for ga, gb in outer for i in ga for k in gb}
            h_keys = sorted(pairs.union(*(j.h for j in jets)))
        return _Jet(v, {i: grad(i) for i in g_keys}, {k: hess(*k) for k in h_keys})

    def _scaled(self, a: _Jet, c, v) -> _Jet:
        """Value v with every entry of a times c (a jet times a number)."""
        return self._make(v, (a,), (c,), lambda i: self._times(c, a.g.get(i)),
                          lambda i, j: self._times(c, a.h.get((i, j))))

    def _chain(self, a: _Jet, value, d1, d2) -> _Jet:
        """f(a) from f, f' and f'' at a's value."""

        def hess(i, j):
            return self._plus(self._times(d1, a.h.get((i, j))),
                              self._times(d2, self._times(a.g.get(i), a.g.get(j))))

        return self._make(value, (a,), (d1, d2), lambda i: self._times(d1, a.g.get(i)), hess,
                          outer=((a.g, a.g),))

    # -- the tree, under jet rules where a jet is involved ----------------------

    def unary(self, op: str, a):
        if not isinstance(a, _Jet):
            return super().unary(op, a)
        v = a.v
        if not self.order:
            return _Jet(super().unary(op, v), {}, {})
        if op == "neg":
            return _Jet(self.neg(v), {i: self.neg(s) for i, s in a.g.items()},
                        {k: self.neg(s) for k, s in a.h.items()})
        if op == "sin" or op == "cos":
            self.guard(_fail_angle, v)
            s, c = self.call("sin", v), self.call("cos", v)
            if op == "sin":
                return self._chain(a, s, c, self.neg(s))
            return self._chain(a, c, self.neg(s), self.neg(c))
        if op == "exp":
            e = self.call("exp", v)
            return self._chain(a, e, e, e)
        if op == "log":
            self.guard(_fail_log, v)
            return self._log(a)
        self.guard(_fail_jet_sqrt, v)
        r = self.call("sqrt", v)
        d1 = self.div(0.5, r)
        return self._chain(a, r, d1, self.div(self.mul(-0.5, d1), v))

    def _log(self, a: _Jet) -> _Jet:
        """log(a), whose caller has guarded a's value already."""
        if not self.order:
            return _Jet(self.call("log", a.v), {}, {})
        inv = self.div(1.0, a.v)
        return self._chain(a, self.call("log", a.v), inv, self.mul(self.neg(inv), inv))

    def binary(self, op: str, a, b):
        if not isinstance(a, _Jet) and not isinstance(b, _Jet):
            return super().binary(op, a, b)
        if op == "add":
            return self._add(a, b)
        if op == "sub":
            return self._sub(a, b)
        if op == "mul":
            return self._mul(a, b)
        if op == "div":
            return self._div(a, b)
        return self._power(a, b)

    def _add(self, a, b) -> _Jet:
        if not isinstance(a, _Jet):
            return _Jet(self.add(a, b.v), b.g, b.h)
        if not isinstance(b, _Jet):
            return _Jet(self.add(a.v, b), a.g, a.h)
        return self._make(self.add(a.v, b.v), (a, b), (),
                          lambda i: self._plus(a.g.get(i), b.g.get(i)),
                          lambda i, j: self._plus(a.h.get((i, j)), b.h.get((i, j))))

    def _sub(self, a, b) -> _Jet:
        if not isinstance(a, _Jet):
            return _Jet(self.sub(a, b.v), {i: self.neg(s) for i, s in b.g.items()},
                        {k: self.neg(s) for k, s in b.h.items()})
        if not isinstance(b, _Jet):
            return _Jet(self.sub(a.v, b), a.g, a.h)
        return self._make(self.sub(a.v, b.v), (a, b), (),
                          lambda i: self._minus(a.g.get(i), b.g.get(i)),
                          lambda i, j: self._minus(a.h.get((i, j)), b.h.get((i, j))))

    def _mul(self, a, b) -> _Jet:
        if not isinstance(a, _Jet):
            return self._scaled(b, a, self.mul(a, b.v))
        if not isinstance(b, _Jet):
            return self._scaled(a, b, self.mul(a.v, b))
        av, bv = a.v, b.v

        def grad(i):
            return self._plus(self._times(av, b.g.get(i)), self._times(bv, a.g.get(i)))

        def hess(i, j):
            h = self._plus(self._times(av, b.h.get((i, j))), self._times(bv, a.h.get((i, j))))
            h = self._plus(h, self._times(a.g.get(i), b.g.get(j)))
            return self._plus(h, self._times(a.g.get(j), b.g.get(i)))

        return self._make(self.mul(av, bv), (a, b), (av, bv), grad, hess, outer=((a.g, b.g),))

    def _square(self, a: _Jet) -> _Jet:
        if not self.order:
            return _Jet(self.mul(a.v, a.v), {}, {})
        twice = self.mul(2.0, a.v)

        def hess(i, j):
            inner = self._plus(self._times(a.v, a.h.get((i, j))), self._times(a.g.get(i), a.g.get(j)))
            return self._times(2.0, inner)

        return self._make(self.mul(a.v, a.v), (a,), (twice, a.v),
                          lambda i: self._times(twice, a.g.get(i)), hess, outer=((a.g, a.g),))

    def _reciprocal(self, a: _Jet) -> _Jet:
        self.guard(_fail_div, a.v)
        inv = self.div(1.0, a.v)
        if not self.order:
            return _Jet(inv, {}, {})
        inv2 = self.mul(inv, inv)
        minus_inv2 = self.neg(inv2)
        curvature = self.mul(self.mul(2.0, inv2), inv)

        def hess(i, j):
            return self._plus(self._times(minus_inv2, a.h.get((i, j))),
                              self._times(curvature, self._times(a.g.get(i), a.g.get(j))))

        return self._make(inv, (a,), (minus_inv2, curvature),
                          lambda i: self._times(minus_inv2, a.g.get(i)), hess, outer=((a.g, a.g),))

    def _div(self, a, b) -> _Jet:
        if not isinstance(b, _Jet):
            self.guard(_fail_div, b)
            inv = self.div(1.0, b)
            return self._scaled(a, inv, self.mul(a.v, inv))
        if not isinstance(a, _Jet):
            rec = self._reciprocal(b)
            return self._scaled(rec, a, self.mul(a, rec.v))
        self.guard(_fail_div, b.v)
        inv = self.div(1.0, b.v)
        quot = self.mul(a.v, inv)
        if not self.order:
            return _Jet(quot, {}, {})
        inv_sq = self.mul(inv, inv)
        curvature = self.mul(self.mul(self.mul(2.0, quot), inv), inv)

        def grad(i):
            return self._times(self._minus(a.g.get(i), self._times(quot, b.g.get(i))), inv)

        def hess(i, j):
            h = self._times(self._minus(a.h.get((i, j)), self._times(quot, b.h.get((i, j)))), inv)
            cross = self._plus(self._times(a.g.get(i), b.g.get(j)), self._times(a.g.get(j), b.g.get(i)))
            h = self._minus(h, self._times(cross, inv_sq))
            return self._plus(h, self._times(curvature, self._times(b.g.get(i), b.g.get(j))))

        return self._make(quot, (a, b), (quot, inv, inv_sq, curvature), grad, hess,
                          outer=((a.g, b.g), (b.g, b.g)))

    # -- powers -----------------------------------------------------------------

    def _power(self, a, b) -> _Jet:
        if not isinstance(a, _Jet):
            if not self.order:  # an exponent without derivative entries is constant, on a number too
                return self._constant_exponent(_Jet(a, {}, {}), b.v)
            # number ** jet = exp(log(number) * jet)
            self.guard(_fail_base, a)
            log_a = self.op(math.log, "log({})", a)
            return self.unary("exp", self._scaled(b, log_a, self.mul(log_a, b.v)))
        if not isinstance(b, _Jet):
            return self._constant_exponent(a, b)
        # a jet exponent counts as constant when its derivatives all vanish
        # (a known entry vanishes only as -0.0: +0.0 is never stored)
        entries = [s for s in (*b.g.values(), *b.h.values()) if not _is(s, 0.0)]
        if any(map(_known, entries)):
            return self._variable_power(a, b)
        if entries:
            return self.branch(self.condition("nonzero", *entries), lambda: self._variable_power(a, b),
                               lambda: self._constant_exponent(a, b.v))
        return self._constant_exponent(a, b.v)

    def _variable_power(self, a: _Jet, b: _Jet) -> _Jet:
        self.guard(_fail_base, a.v)  # which is log's guard too
        return self.unary("exp", self._mul(b, self._log(a)))

    def _constant_exponent(self, a: _Jet, e) -> _Jet:
        if _known(e):
            if e.is_integer() and abs(e) <= MAX_INT_POWER:
                return self._int_power(a, int(e))
            if self.order or not e.is_integer():
                return self._real_power_jet(a, e)
            return self._runtime_int_power(a, e)  # beyond MAX_INT_POWER, at order 0
        limit = float(MAX_INT_POWER if self.order else math.inf)
        return self.branch(self.condition("small_integral", e, limit),
                           lambda: self._runtime_int_power(a, e),
                           lambda: self._real_power_jet(a, e))

    def _real_power_jet(self, a: _Jet, e) -> _Jet:
        self.guard(_fail_root, a.v)  # which is log's guard too
        log_a = self._log(a)
        return self.unary("exp", self._scaled(log_a, e, self.mul(log_a.v, e)))

    def _int_power(self, a: _Jet, k: int) -> _Jet:
        # repeated squaring: exact for negative bases, unlike exp(k*log(a))
        if k == 0:
            return _Jet(1.0, {}, {})
        if k < 0:
            return self._int_power(self._reciprocal(a), -k)
        result = None
        base = a
        while True:
            if k & 1:
                result = base if result is None else self._mul(result, base)
            k >>= 1
            if k == 0:
                return result
            base = self._square(base)

    def _runtime_int_power(self, a: _Jet, e) -> _Jet:
        if not self.order:  # any k, 0 and 1 among them, by square-and-multiply
            return _Jet(self.emit("_int_power_chain({}, {}, 0)", a.v, e), {}, {})
        # at order 2, a**0 and a**1 are exact: a constant 1 and a itself
        def chained():
            names = [self.fresh() for _ in range(3)]
            self.line(f"{', '.join(names)} = _int_power_chain({{0}}, {{1}})", a.v, e)
            return self._chain(a, *names)

        return self.branch(self.condition("equal", e, 0.0), lambda: _Jet(1.0, {}, {}),
                           lambda: self.branch(self.condition("equal", e, 1.0), lambda: a, chained))


# -- one text per tuple of trees: values, values and gradients, a jet or a vector field


class FieldWriter:
    """The traced jet of a field (or its value), for the code that assembles entries from it.

    Entries are source names: a local, an input ``x{i}`` or a bound number
    (``k0`` is the structural zero).  Lines written here run after the
    trace, so the tree's guards raise first.
    """

    def __init__(self, tracer: _JetTracer, jet: _Jet):
        self._tracer = tracer
        self._jet = jet

    def value(self) -> str:
        return self._tracer.ref(self._jet.v)

    def gradient(self, i: int) -> str:
        return self._tracer.ref(self._jet.g.get(i, 0.0))

    def _hessian(self, i: int, j: int):
        return self._jet.h.get((min(i, j), max(i, j)), 0.0)

    def hessian(self, i: int, j: int) -> str:
        return self._tracer.ref(self._hessian(i, j))

    def known_hessian(self, i: int, j: int):
        """The Hessian entry's number when it is fixed at compile time (0.0 when
        structurally zero), else None."""
        entry = self._hessian(i, j)
        return None if type(entry) is str else entry

    def coordinate(self, i: int) -> str:
        return f"x{i}"

    def number(self, value: float) -> str:
        return self._tracer.ref(float(value))

    def bind(self, name: str, obj, block) -> str:
        """Make ``obj`` callable from the code as ``name``, and ``block`` over a block's columns."""
        self._tracer.namespace[name] = obj
        self._tracer.block_forms[name] = block
        return name

    @staticmethod
    def pack(items) -> str:
        """The source of a tuple of the given sources."""
        return f"({', '.join(items)},)"

    def names(self, count: int) -> list:
        """``count`` new local names."""
        return [self._tracer.fresh() for _ in range(count)]

    def let(self, expression: str) -> str:
        """A local holding ``expression``, from the trace's table of right-hand
        sides: an expression written before, here or by the trace, reuses its local."""
        return self._tracer.emit("{}", expression)

    def line(self, statement: str) -> None:
        self._tracer.lines.append(f"    {statement}")


# a line that cannot raise: t = a op b with op one of + - *, or t = -a
_PURE = re.compile(r" +(t\d+) = (?:-?[tkx]\d+|[tkx]\d+ [-+*] [tkx]\d+)")
_LOCAL = re.compile(r"\bt\d+\b")


def _live(lines: list, results) -> list:
    """The lines that the results need, in order.

    Only a pure line (see ``_PURE``) whose local nothing later reads is
    dropped, inside the arms of a branch too, where an arm left empty is
    ``pass``.  Every other statement is kept: a guard, a call that may raise,
    a branch's test.
    """
    return _pruned(lines, "    ", set(_LOCAL.findall(" ".join(results))))


def _pruned(lines: list, indent: str, live: set) -> list:
    """The lines at ``indent`` (and the arms within them) that need keeping when
    ``live`` holds the locals read after them; adds the locals they read to ``live``."""
    statements = []  # a line, or a branch: its test, an arm, else and the other arm
    for line in lines:
        if line.startswith(indent + " ") or line == indent + "else:":
            statements[-1].append(line)
        else:
            statements.append([line])
    kept = []
    for statement in reversed(statements):
        head = statement[0]
        if len(statement) > 1:
            split, after = statement.index(indent + "else:"), set(live)
            arms = []
            for arm in (statement[1:split], statement[split + 1 :]):
                read = set(after)
                arms.append(_pruned(arm, indent + "    ", read) or [f"{indent}    pass"])
                live |= read
            statement = [head, *arms[0], indent + "else:", *arms[1]]
        else:
            pure = _PURE.fullmatch(head)
            if pure is not None and pure.group(1) not in live:
                continue
        live.update(_LOCAL.findall(head))
        kept.append(statement)
    return [line for statement in reversed(kept) for line in statement]


def _emit(tracer, trees, assemble, values=()):
    """``(point, block, entries)``: the text of the entries that
    ``assemble(*writers)`` writes from the traced trees, one
    :class:`FieldWriter` a tree, returning their source names (``entries``,
    None when every run raises).  The trees are traced in order by the one
    tracer, so they share its table of right-hand sides, and a guard of a
    later tree runs after every guard of an earlier one; the trees at the
    indices ``values`` are traced at order 0, for their value alone.  Only the
    lines the entries need are kept (see :func:`_live`), and the text is compiled once,
    for both forms.  ``point(x)`` is the tuple of entries at the floats x of a
    point, and ``block(U)`` the (N, k) array of entries at the rows of an (N,
    m) array, taken as floats (the transpose of a C-ordered (k, N) one), row
    k being ``point`` at point k, bit for bit."""
    try:
        results = [tracer.values_of(tree) if i in values else tracer.trace(tree) for i, tree in enumerate(trees)]
    except _Unreachable:
        entries = None
    else:
        entries = assemble(*(FieldWriter(tracer, r if isinstance(r, _Jet) else _Jet(r, {}, {})) for r in results))
    tracer.lines = _live(tracer.lines, entries or ())
    unpack = [f"    {', '.join(tracer.inputs.values())}, = x"] if tracer.inputs else []
    body = "" if entries is None else f"return {FieldWriter.pack(entries)}"
    source = "\n".join(["def f(x):", *unpack, *tracer.lines, f"    {body}", ""])
    code = compile(source, "<contactmech compiled field>", "exec")
    namespaces = [{**tracer.namespace, **_RUNTIME}, {**tracer.namespace, **_BLOCK_RUNTIME, **tracer.block_forms}]
    for namespace in namespaces:
        exec(code, namespace)
    point, columns = (namespace["f"] for namespace in namespaces)

    def block(U):
        values = columns(np.ascontiguousarray(U.T, dtype=float))
        out = np.empty((len(values), U.shape[0]))
        for row, entry in zip(out, values):
            row[:] = entry  # a column, or a bound number
        return out.T

    return point, block, entries


def compile_jet(trees, chart, order: int = 2, texts=None):
    """The per-point and block functions of the tuple ``trees`` on the chart at ``order``:

    - 0: ``(f(x) -> tuple of k values, f(X) -> (N, k) values)``;
    - 1: ``(f(x) -> (values (k,), Jacobian (k, m)), f(X) -> (values (N, k),
      Jacobians (N, k, m)))``, the value and gradient of each tree;
    - 2: ``(f(x) -> Jet2, f(X) -> JetBlock)``, value, gradient and Hessian of
      the one tree of ``trees``.

    Row k of a block function is the per-point function at row k of X, bit for
    bit, wherever the block does not raise.  Every order traces by the same
    rules, so an entry has the same bits at each order that computes it.
    ``texts`` is the repr of each tree, when the caller has it already."""
    trees = tuple(trees)
    return _trace(order, trees, tuple(chart), tuple(map(repr, trees)) if texts is None else tuple(texts))


def compile_field(trees, chart, assemble, *args, texts=None, values=()):
    """``(block, stepper)`` of the vector field that ``assemble(*args, *writers)``
    writes once from the jets of the tuple ``trees``, one writer a tree, those
    at the indices ``values`` traced for their value alone (see :func:`_emit`).
    ``block(U)`` runs it over the columns of an (N, m) array through
    :func:`contactmech.ad._rows`, with the float form on the row's floats as its
    rows, so row k is the field at point k, bit for bit, errors included.
    ``stepper(method)`` is its loop (:func:`_stepper`), compiled on first use.
    ``assemble``, ``values`` and the hashable ``args`` name the field, so systems
    of equal trees share one trace.  ``texts`` is the repr of each tree, when
    the caller has it already."""
    trees = tuple(trees)
    texts = tuple(map(repr, trees)) if texts is None else tuple(texts)
    return _trace((assemble, tuple(values), *args), trees, tuple(chart), texts)


@functools.lru_cache(maxsize=256)
def _trace(kind, trees, chart, _texts):
    """The compiled functions of ``kind``, the order 0, 1 or 2 of a jet or a
    vector field's ``(assemble, values, *args)``, of a tuple of trees free of
    parameters on ``chart``, traced once per process for the last 256 keys.
    ``_texts``, the repr of each tree, is in the key because it tells -0.0 from
    0.0, which Num nodes compare equal."""
    if type(kind) is int:
        return _jet(trees, chart, kind)
    assemble, values, *args = kind
    return _field(trees, chart, functools.partial(assemble, *args), values)


def _jet(trees, chart, order):
    tracer = _JetTracer(chart, 2 if order else 0)  # an order-1 text is the order-2 trace
    k, m = len(trees), len(tracer.inputs)
    if not order:
        point, block, _ = _emit(tracer, trees, lambda *outs: [out.value() for out in outs])
        return point, lambda X: block(X) if len(X) else np.empty((0, k))
    # where each Jacobian and Hessian entry sits among the entries (the k values, 0,
    # each tree's traced gradient entries, then at order 2 the one tree's traced
    # upper-Hessian entries); a structural zero reads the 0
    j_index, h_index = np.full((k, m), k, dtype=np.intp), np.full((m, m), k, dtype=np.intp)

    def assemble(*outs):
        entries = [*(out.value() for out in outs), outs[0].number(0.0)]
        for row, out in enumerate(outs):
            keys = sorted(out._jet.g)
            j_index[row, keys] = range(len(entries), len(entries) + len(keys))
            entries += map(out.gradient, keys)
        if order == 2:
            (out,) = outs
            for i, j in sorted(out._jet.h):
                h_index[i, j] = h_index[j, i] = len(entries)
                entries.append(out.hessian(i, j))
        return entries

    point, block, entries = _emit(tracer, trees, assemble)
    size = len(entries or ())
    # a block's values are copied, so a kept result does not keep all of flat
    if order == 1:
        def value_and_jacobian(x):
            flat = np.fromiter(point(x), float, size)
            return flat[:k], flat.take(j_index)

        def values_and_jacobians(X):
            if not len(X):
                return np.empty((0, k)), np.empty((0, k, m))
            flat = block(X)
            return flat[:, :k].copy(), flat[:, j_index]

        return value_and_jacobian, values_and_jacobians

    def jet(x):
        flat = np.fromiter(point(x), float, size)
        return Jet2(flat[0], flat.take(j_index[0]), flat.take(h_index))

    def jets(X):
        flat = block(X)
        return JetBlock(flat[:, 0].copy(), flat[:, j_index[0]], flat[:, h_index])

    return jet, jets


def _field(trees, chart, assemble, values=()):
    tracer = _JetTracer(chart)
    point, block, entries = _emit(tracer, trees, assemble, values)
    rows = functools.partial(_rows, block, row=lambda U: np.array([point(U[0].astype(float).tolist())]))
    # the stepper keeps what its text needs, not the tracer and its tables
    return rows, functools.cache(functools.partial(_stepper, list(tracer.inputs.values()), tracer.lines,
                                                   tracer.namespace, entries))


# the stages after the first: the factor of the previous stage's derivative in
# the next stage's input
_STAGES = {"rk4": ("half", "half", "h"), "euler": ()}


def _stepper(x: list, lines: list, names: dict, entries, method: str):
    """``run(u, steps, states, h) -> (k, stop)``: ``steps`` fixed steps of size h
    from the state u, by ``"rk4"`` or ``"euler"``, of the field whose traced
    ``lines`` compute ``entries`` from the inputs ``x`` and the bound ``names``,
    each new state written to row k + 1 of ``states``, a C-contiguous float
    array.  Stages and updates are the sums of the array form, in its order:
    ``y + half * d`` at a stage, ``y + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)``
    for RK4 and ``y + h * d`` for Euler.  ``k`` is the number of steps taken
    and ``stop`` is None, or what ended step k + 1: the ArithmeticError a stage
    raised, or the new state as a tuple when not all of it is finite."""
    m = len(x)
    y = [f"y{i}" for i in range(m)]
    # every stage reads its input x, the first x = y: an entry may name an x,
    # so the update, which writes y, reads the state it replaces
    loop = [f"    {a} = {b}" for a, b in zip(x, y)] + lines
    if entries is not None:
        derivatives = []  # the locals of each earlier stage's derivative
        for number, factor in enumerate(_STAGES[method], start=1):
            d = [f"d{number}_{i}" for i in range(m)]
            loop += [f"    {a} = {b}" for a, b in zip(d, entries)]
            loop += [f"    {a} = {b} + {factor} * {c}" for a, b, c in zip(x, y, d)]
            loop += lines
            derivatives.append(d)
        if method == "rk4":
            loop += [f"    {a} = {a} + sixth * ({d1} + 2.0 * {d2} + 2.0 * {d3} + {d4})"
                     for a, d1, d2, d3, d4 in zip(y, *derivatives, entries)]
        else:
            loop += [f"    {a} = {a} + h * {d}" for a, d in zip(y, entries)]
        loop += [f"    if not ({' and '.join(f'isfinite({a})' for a in y)}):",
                 f"        return k, ({', '.join(y)},)",
                 f"    j = (k + 1) * {m}",
                 *(f"    out[j + {i}] = {a}" for i, a in enumerate(y))]
    namespace = {**_RUNTIME, **names, "range": range, "memoryview": memoryview, "isfinite": math.isfinite,
                 "ArithmeticError": ArithmeticError}
    bound = [name for name in namespace if name != "__builtins__"]
    namespace["_bound"] = tuple(namespace[name] for name in bound)
    source = "\n".join([
        "def run(u, steps, states, h):",
        f"    {', '.join(bound)}, = _bound",  # every name the loop reads is a local
        f"    {', '.join(y)}, = u",
        "    half, sixth = 0.5 * h, h / 6.0",
        "    out = memoryview(states).cast('B').cast('d')",
        "    try:",
        "        for k in range(steps):",
        *("        " + line for line in loop),
        "    except ArithmeticError as exc:",
        "        return k, exc",
        "    return steps, None",
        "",
    ])
    exec(compile(source, "<contactmech compiled stepper>", "exec"), namespace)
    return namespace.pop("run")
