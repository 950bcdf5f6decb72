"""The compiled evaluator of ScalarField against the Jet2 algebra.

The oracles below evaluate a tree node by node: the value oracle under float
rules, the jet oracle with the operations of :mod:`contactmech.ad` wherever a
jet is involved and float rules for parameter-only subtrees.  The compiled
functions must agree with them entry by entry and raise the same exception
types at the same points.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contactmech import ad
from contactmech.ad import DomainError
from contactmech.expr import Binary, Call, Num, ScalarField, Unary, Var, parse

CHART = ("x", "y", "z")
PARAMS = ("a", "b")

# -- oracles ----------------------------------------------------------------------


def _float_sqrt(a):
    if a >= 0.0:
        return math.sqrt(a)
    raise DomainError(f"sqrt requires a nonnegative argument, got {a}")


def _float_div(a, b):
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _float_pow(a, b):
    if float(b).is_integer():
        if a == 0.0 and b < 0:
            raise DomainError("division by zero")
        return a ** int(b)
    if a <= 0.0:
        raise DomainError("power with non-integer exponent requires a positive base")
    return a**b


FLOAT_UNARY = {"neg": lambda a: -a, "sin": ad.sin, "cos": ad.cos, "exp": math.exp,
               "log": ad.log, "sqrt": _float_sqrt}
FLOAT_BINARY = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b,
                "div": _float_div, "pow": _float_pow}
JET_UNARY = {"neg": ad.neg, "sin": ad.sin, "cos": ad.cos, "exp": ad.exp, "log": ad.log, "sqrt": ad.sqrt}
JET_BINARY = {"add": ad.add, "sub": ad.sub, "mul": ad.mul, "div": ad.div, "pow": ad.power}


def _oracle(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Binary):
        a, b = _oracle(node.left, env), _oracle(node.right, env)
        table = FLOAT_BINARY if type(a) is float and type(b) is float else JET_BINARY
        return table[node.op](a, b)
    op, arg = (node.op, node.operand) if isinstance(node, Unary) else (node.func, node.arg)
    a = _oracle(arg, env)
    return (FLOAT_UNARY if type(a) is float else JET_UNARY)[op](a)


def oracle_value(field, point):
    env = {name: float(v) for name, v in field.parameters.items()}
    env.update(zip(field.chart, map(float, point)))
    return _oracle(field.ast, env)


def oracle_jet(field, point):
    env = {name: float(v) for name, v in field.parameters.items()}
    env.update(zip(field.chart, ad.seed_variables(point)))
    result = _oracle(field.ast, env)
    return ad.constant(result, len(point)) if type(result) is float else result


def _outcome(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return fn(*args), None
        except Exception as exc:  # the type is what gets compared
            return None, type(exc)


def _assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    finite = np.isfinite(want)
    # structural zeros are skipped, so 0*inf in a dense oracle entry may be 0 here
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * np.maximum(1.0, np.abs(want[finite])))


def assert_matches_oracle(field, point):
    value, value_err = _outcome(field.value_at, point)
    want, want_err = _outcome(oracle_value, field, point)
    assert value_err is want_err
    if want_err is None:
        assert type(value) is float
        assert value == want or (math.isnan(value) and math.isnan(want))

    jet, jet_err = _outcome(field.jet_at, point)
    want, want_err = _outcome(oracle_jet, field, point)
    assert jet_err is want_err
    if want_err is None:
        assert jet.value == want.value or (math.isnan(jet.value) and math.isnan(want.value))
        _assert_close(jet.gradient, want.gradient)
        _assert_close(jet.hessian, want.hessian)
        assert np.array_equal(jet.hessian, jet.hessian.T, equal_nan=True)


# -- random trees ------------------------------------------------------------------

SPAN = (0, 0)
_numbers = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1.5, 0.25, 7.0])
_leaves = st.one_of(
    _numbers.map(lambda v: Num(SPAN, v)),
    st.sampled_from(CHART + PARAMS).map(lambda name: Var(SPAN, name)),
)
# integer, non-integer, beyond the 1024 multiply limit, negative
_exponents = st.sampled_from([2.0, 3.0, 4.0, -1.0, -2.0, 0.0, 0.5, 1.5, -0.5, 1025.0, -1030.0, 2000.5])
_infinities = st.sampled_from([math.inf, -math.inf])


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(["neg", "sin", "cos", "exp", "log", "sqrt"]), children).map(
            lambda t: Unary(SPAN, "neg", t[1]) if t[0] == "neg" else Call(SPAN, t[0], t[1])
        ),
        st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), children, children).map(
            lambda t: Binary(SPAN, t[0], t[1], t[2])
        ),
        # a constant exponent of each kind
        st.tuples(children, _exponents).map(lambda t: Binary(SPAN, "pow", t[0], Num(SPAN, t[1]))),
        # sin and cos of an argument that is +-inf, or NaN where the subtree is 0
        st.tuples(st.sampled_from(["sin", "cos"]), _infinities, children).map(
            lambda t: Call(SPAN, t[0], Binary(SPAN, "mul", Num(SPAN, t[1]), t[2]))
        ),
    )


trees = st.recursive(_leaves, _extend, max_leaves=12)
coordinates = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees, point=st.tuples(coordinates, coordinates, coordinates),
       params=st.tuples(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1.0, -1.0, 2.0])))
def test_compiled_matches_oracle_on_random_trees(tree, point, params):
    field = ScalarField(tree, CHART, dict(zip(PARAMS, params)))
    assert_matches_oracle(field, list(point))


@pytest.mark.parametrize(
    "source",
    [
        "x^y",  # variable exponent
        "(x^2 + 1)^(y^2*z)",
        "x^(y - y)",  # exponent whose derivatives vanish
        "x^(y^4)",  # ... only at y = 0
        "2^x + x^2.5 + x^-3 + x^1025 + x^0",
        "a^x * b^y",
        "sqrt(x^2 + y^2) * log(1 + z^2) / (1 + exp(-x))",
    ],
)
def test_compiled_matches_oracle_on_powers(source):
    field = ScalarField.from_source(source, CHART, {"a": 2.0, "b": 0.5})
    for point in ([0.7, 0.0, 1.3], [1.2, -0.4, 0.3], [-0.8, 0.9, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, -1.5]):
        assert_matches_oracle(field, point)


# -- the value/jet domain split ------------------------------------------------------


def test_sqrt_at_zero_has_a_value_but_no_jet():
    field = ScalarField.from_source("sqrt(x)", ("x",))
    assert field.value_at([0.0]) == 0.0
    with pytest.raises(DomainError):
        field.jet_at([0.0])


def test_zero_to_negative_power_is_a_domain_error():
    field = ScalarField.from_source("x^-1", ("x",))
    with pytest.raises(DomainError):
        field.value_at([0.0])
    with pytest.raises(DomainError):
        field.jet_at([0.0])
    constant = ScalarField.from_source("0^-1 + x", ("x",))
    with pytest.raises(DomainError):
        constant.value_at([1.0])
    with pytest.raises(DomainError):
        constant.jet_at([1.0])


@pytest.mark.parametrize("func", ["sin", "cos"])
def test_sin_and_cos_of_infinity_are_domain_errors(func):
    field = ScalarField.from_source(f"{func}(big*big*x)", ("x",), {"big": 1e200})
    for point in ([0.5], [-0.5]):
        with pytest.raises(DomainError):
            field.value_at(point)
        with pytest.raises(DomainError):
            field.jet_at(point)
    assert math.isnan(field.value_at([0.0]))  # inf*0 is NaN, and NaN passes through
    constant = ScalarField.from_source(f"{func}(big*big) + x", ("x",), {"big": 1e200})
    with pytest.raises(DomainError):
        constant.value_at([1.0])
    with pytest.raises(DomainError):
        constant.jet_at([1.0])


def test_errors_keep_evaluation_order():
    # the left operand overflows before the constant right operand fails
    field = ScalarField.from_source("exp(x) * log(0 - 1)", ("x",))
    with pytest.raises(OverflowError):
        field.value_at([1000.0])
    with pytest.raises(DomainError):
        field.value_at([1.0])
    with pytest.raises(OverflowError):
        field.jet_at([1000.0])


# -- no user text reaches the generated source -------------------------------------


def _renamed(node, old, new):
    """The tree with every variable ``old`` renamed (trees may hold names the parser rejects)."""
    if isinstance(node, Var):
        return Var(node.span, new) if node.name == old else node
    if isinstance(node, Num):
        return node
    if isinstance(node, Unary):
        return Unary(node.span, node.op, _renamed(node.operand, old, new))
    if isinstance(node, Call):
        return Call(node.span, node.func, _renamed(node.arg, old, new))
    return Binary(node.span, node.op, _renamed(node.left, old, new), _renamed(node.right, old, new))


@pytest.mark.parametrize("name", ["def", "x0", "t0", "k0", "exp", "DomainError", "__import__", "f"])
def test_parameter_names_are_never_source(name):
    tree = _renamed(parse("p*x^2 + exp(p*y) - 1/(p + z^2)"), "p", name)
    field = ScalarField(tree, CHART, {name: 0.7})
    for point in ([0.3, -0.2, 0.5], [1.0, 0.0, -1.0]):
        assert_matches_oracle(field, point)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e200])
def test_non_finite_parameters_evaluate_as_the_oracle(value):
    field = ScalarField.from_source("a*x + y^2 - a*a*z + sqrt(1 + x^2)/a", CHART, {"a": value})
    point = [0.3, -0.2, 0.5]
    with np.errstate(all="ignore"):
        jet, want = field.jet_at(point), oracle_jet(field, point)
    np.testing.assert_array_equal(jet.gradient, want.gradient)
    np.testing.assert_array_equal(jet.hessian, want.hessian)
    assert_matches_oracle(field, point)


def test_overflowing_constant_fold_is_nan_not_an_error():
    source = "0.5*qd1^2 + big*big*q1^2 - big*big*q1^2 - gamma*z"
    field = ScalarField.from_source(source, ("q1", "qd1", "z"), {"big": 1e200, "gamma": 0.1})
    point = [0.4, 0.3, 0.1]
    assert math.isnan(field.value_at(point))
    jet = field.jet_at(point)
    assert math.isnan(jet.value) and np.isnan(jet.hessian).all()
    assert_matches_oracle(field, point)


def test_compiled_code_is_cached_outside_the_fields():
    field = ScalarField.from_source("k*x^2", ("x",), {"k": 2.0})
    twin = ScalarField(parse("k*x^2"), ("x",), {"k": 2.0}, "k*x^2")
    before = repr(field)
    field.jet_at([1.0])
    field.value_at([1.0])
    assert field == twin and repr(field) == before
    code = field._jet_code
    field.jet_at([2.0])
    assert field._jet_code is code
