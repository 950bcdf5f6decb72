"""Dense second-order forward-mode jet algebra: the oracle for compiled jets.

The package evaluates every field through the straight-line code that
``contactmech._tape`` emits over sparse jet entries.  This module applies the
same rules to dense gradients and Hessians, one operation at a time, and the
tests check the compiled jets against it entry by entry.  Its jets are
:class:`contactmech.ad.Jet2` containers with arithmetic operators added; the
active-variable count is small (at most 2n+1 for the charts used here).
"""

from __future__ import annotations

import math

import numpy as np

from contactmech import ad
from contactmech.ad import DomainError

# Seeding reuses one identity matrix and one zero Hessian per dimension.
# Jets never mutate their arrays, so sharing is safe.
_SEED_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _seed_arrays(m: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        return _SEED_CACHE[m]
    except KeyError:
        pair = (np.eye(m), np.zeros((m, m)))
        _SEED_CACHE[m] = pair
        return pair


class Jet2(ad.Jet2):
    """A :class:`contactmech.ad.Jet2` that propagates through arithmetic.

    Treat instances as immutable: operations return fresh jets and may share
    arrays with their operands.
    """

    __slots__ = ()

    # -- arithmetic (operands may be plain numbers) --

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)

    def __neg__(self):
        return Jet2(-self.value, -self.gradient, -self.hessian)


def seed_variables(values) -> list[Jet2]:
    """Seed one active variable per entry of ``values``.

    The k-th jet has gradient equal to the k-th unit vector and a zero
    Hessian.  All jets produced by one call share the active-variable count.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.shape[0] == 0:
        raise ValueError("seed_variables requires a nonempty 1-d vector of values")
    m = vals.shape[0]
    eye, zeros = _seed_arrays(m)
    return [Jet2(vals[k], eye[k], zeros) for k in range(m)]


def constant(value: float, dim: int) -> Jet2:
    """A jet with zero derivatives (a parameter or literal)."""
    if dim <= 0:
        raise ValueError("constant requires a positive active-variable count")
    eye, zeros = _seed_arrays(dim)
    return Jet2(value, np.zeros(dim), zeros)


def _check_dims(a: Jet2, b: Jet2) -> None:
    if a.gradient.shape != b.gradient.shape:
        raise ValueError(
            f"jet dimension mismatch: {a.gradient.shape[0]} vs {b.gradient.shape[0]}"
        )


def add(a, b):
    if isinstance(a, Jet2):
        if isinstance(b, Jet2):
            _check_dims(a, b)
            return Jet2(a.value + b.value, a.gradient + b.gradient, a.hessian + b.hessian)
        return Jet2(a.value + b, a.gradient, a.hessian)
    return Jet2(a + b.value, b.gradient, b.hessian)


def sub(a, b):
    if isinstance(a, Jet2):
        if isinstance(b, Jet2):
            _check_dims(a, b)
            return Jet2(a.value - b.value, a.gradient - b.gradient, a.hessian - b.hessian)
        return Jet2(a.value - b, a.gradient, a.hessian)
    return Jet2(a - b.value, -b.gradient, -b.hessian)


def mul(a, b):
    if isinstance(a, Jet2):
        if isinstance(b, Jet2):
            _check_dims(a, b)
            g = a.value * b.gradient + b.value * a.gradient
            h = a.value * b.hessian + b.value * a.hessian
            og = np.outer(a.gradient, b.gradient)
            h = h + og
            h += og.T
            return Jet2(a.value * b.value, g, h)
        return Jet2(a.value * b, b * a.gradient, b * a.hessian)
    return Jet2(a * b.value, a * b.gradient, a * b.hessian)


def _square(a: Jet2) -> Jet2:
    og = np.outer(a.gradient, a.gradient)
    return Jet2(a.value * a.value, (2.0 * a.value) * a.gradient, 2.0 * (a.value * a.hessian + og))


def _reciprocal(a: Jet2) -> Jet2:
    if a.value == 0.0:
        raise DomainError("division by zero")
    inv = 1.0 / a.value
    inv2 = inv * inv
    g = -inv2 * a.gradient
    h = -inv2 * a.hessian + (2.0 * inv2 * inv) * np.outer(a.gradient, a.gradient)
    return Jet2(inv, g, h)


def div(a, b):
    if not isinstance(b, Jet2):
        if b == 0.0:
            raise DomainError("division by zero")
        return mul(a, 1.0 / b)
    if not isinstance(a, Jet2):
        return mul(a, _reciprocal(b))
    _check_dims(a, b)
    if b.value == 0.0:
        raise DomainError("division by zero")
    inv = 1.0 / b.value
    quot = a.value * inv
    g = (a.gradient - quot * b.gradient) * inv
    cross = np.outer(a.gradient, b.gradient)
    h = (a.hessian - quot * b.hessian) * inv
    h -= (cross + cross.T) * (inv * inv)
    h += (2.0 * quot * inv * inv) * np.outer(b.gradient, b.gradient)
    return Jet2(quot, g, h)


def _int_power(a: Jet2, k: int) -> Jet2:
    # Repeated multiplication: exact for negative bases, unlike exp(k*log a).
    if k == 0:
        return constant(1.0, a.dim)
    if k < 0:
        return _int_power(_reciprocal(a), -k)
    result = None
    base = a
    while True:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k == 0:
            return result
        base = _square(base)


def power(a, b):
    if not isinstance(a, Jet2):
        # number ** jet
        if a <= 0.0:
            raise DomainError(f"power with non-constant exponent requires a positive base, got {a}")
        return exp(mul(math.log(a), b))
    if isinstance(b, Jet2):
        if np.any(b.gradient) or np.any(b.hessian):
            _check_dims(a, b)
            if a.value <= 0.0:
                raise DomainError(
                    f"power with non-constant exponent requires a positive base, got {a.value}"
                )
            return exp(mul(b, log(a)))
        b = b.value
    e = float(b)
    # repeated multiplication is exact for negative bases; huge exponents
    # fall through to the exp/log route instead of a long multiply chain
    if e.is_integer() and abs(e) <= 1024:
        return _int_power(a, int(e))
    if a.value <= 0.0:
        raise DomainError(f"power with non-integer exponent requires a positive base, got {a.value}")
    return exp(e * log(a))


def _chain(a: Jet2, value: float, d1: float, d2: float) -> Jet2:
    """Propagate f(a) given f, f' and f'' at a.value."""
    g = d1 * a.gradient
    h = d1 * a.hessian + d2 * np.outer(a.gradient, a.gradient)
    return Jet2(value, g, h)


def neg(a: Jet2) -> Jet2:
    return -a


def _finite_angle(x: float) -> float:
    # math.sin and math.cos raise ValueError at +-inf; NaN passes through
    if math.isinf(x):
        raise DomainError(f"sin and cos require a finite argument, got {x}")
    return x


def sin(a):
    if not isinstance(a, Jet2):
        return math.sin(_finite_angle(a))
    x = _finite_angle(a.value)
    s, c = math.sin(x), math.cos(x)
    return _chain(a, s, c, -s)


def cos(a):
    if not isinstance(a, Jet2):
        return math.cos(_finite_angle(a))
    x = _finite_angle(a.value)
    s, c = math.sin(x), math.cos(x)
    return _chain(a, c, -s, -c)


def exp(a):
    if not isinstance(a, Jet2):
        return math.exp(a)
    e = math.exp(a.value)
    return _chain(a, e, e, e)


def log(a):
    if not isinstance(a, Jet2):
        if a <= 0.0:
            raise DomainError(f"log requires a positive argument, got {a}")
        return math.log(a)
    if a.value <= 0.0:
        raise DomainError(f"log requires a positive argument, got {a.value}")
    inv = 1.0 / a.value
    return _chain(a, math.log(a.value), inv, -inv * inv)


def sqrt(a):
    if not isinstance(a, Jet2):
        if a < 0.0:
            raise DomainError(f"sqrt requires a nonnegative argument, got {a}")
        return math.sqrt(a)
    if a.value <= 0.0:
        raise DomainError(
            f"sqrt of a jet requires a positive argument (derivative undefined at 0), got {a.value}"
        )
    r = math.sqrt(a.value)
    d1 = 0.5 / r
    return _chain(a, r, d1, -0.5 * d1 / a.value)


_BINARY = {"add": add, "sub": sub, "mul": mul, "div": div, "pow": power}
_UNARY = {"neg": neg, "sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt}


def jet2_binary(op: str, a: Jet2, b: Jet2) -> Jet2:
    """Apply a named binary operation to two jets."""
    try:
        fn = _BINARY[op]
    except KeyError:
        raise ValueError(f"unknown binary operation {op!r}") from None
    return fn(a, b)


def jet2_unary(op: str, a: Jet2) -> Jet2:
    """Apply a named unary operation to a jet."""
    try:
        fn = _UNARY[op]
    except KeyError:
        raise ValueError(f"unknown unary operation {op!r}") from None
    return fn(a)
