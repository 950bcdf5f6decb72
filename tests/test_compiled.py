"""The compiled evaluator of ScalarField against the dense jet algebra.

The oracles below evaluate a tree node by node: the value oracle under float
rules, the jet oracle with the operations of :mod:`dense_ad` wherever a
jet is involved and float rules for parameter-only subtrees.  The compiled
functions must agree with them entry by entry and raise the same exception
types at the same points.
"""

import inspect
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contactmech import _tape
from contactmech.ad import DomainError
from contactmech.expr import Binary, Call, Num, ScalarField, Unary, Var, lagrangian_chart, parse
from contactmech.lagrangian import LagrangianSystem

import dense_ad as ad
from helpers import exact_bits

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
        # an exponent integral where z = 0 only: the run-time integral power there
        "x^(2 + z^3)",
        "x^(z^3 - 1)",  # ... negative, so 0 at the origin divides by zero
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


def test_each_field_is_compiled_once_per_order(monkeypatch):
    # the per-point and block functions of an order are one compile of one trace
    sources = []

    def spy(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(_tape, "compile", spy, raising=False)
    _tape._code.cache_clear()  # an earlier test may have compiled these texts
    field = ScalarField.from_source("sqrt(x)*y^z + log(x)", CHART)
    block = np.array([[0.5, 2.0, 3.0], [1.5, 2.0, 3.0]])
    for _ in range(2):  # the value's block form first, the jet's point form first
        field.values_at(block), field.value_at(block[0]), field.jet_at(block[0]), field.jets_at(block)
    assert len(sources) == 2 and "_pow(" in sources[0]


def _emitted(wrapper, name):
    """The compiled function that ``wrapper`` calls by ``name``."""
    return inspect.getclosurevars(wrapper).nonlocals[name]


def _field_codes(field):
    """The code objects of the texts emitted for a field's value and jet, point and block
    (their wrappers share one code object across all fields)."""
    (value, values), (jet, jets) = field._value_code, field._jet_code
    return [_emitted(value, "point").__code__, _emitted(_emitted(values, "block"), "columns").__code__,
            _emitted(jet, "point").__code__, _emitted(_emitted(jets, "block"), "columns").__code__]


def _field_answers(field, block):
    jets = field.jets_at(block)
    jet = field.jet_at(block[0])
    return [np.array(field.value_at(block[0])), field.values_at(block), jet.gradient, jet.hessian,
            jets.value, jets.gradient, jets.hessian]


def test_equal_texts_share_one_code_object():
    # numbers are bound by name, so other parameter values trace to the same text:
    # one code object, and each field's own answers, those of its own compile
    source, values = "a*x^2 + exp(b*y) - z/a + sqrt(x)*b", ({"a": 0.7, "b": 1.3}, {"a": -1.7, "b": 0.3})
    block = np.array([[0.3, -0.2, 0.5], [1.0, 0.0, -1.0], [2.5, 0.4, 0.0]])
    fields = [ScalarField.from_source(source, CHART, params) for params in values]
    answers = [_field_answers(field, block) for field in fields]
    codes = [_field_codes(field) for field in fields]
    assert all(map(operator.is_, *codes))
    assert answers[0][0].tobytes() != answers[1][0].tobytes()
    _tape._code.cache_clear()
    _tape._trace.cache_clear()
    for params, field_codes, got in zip(values, codes, answers):
        own = ScalarField.from_source(source, CHART, params)
        wants = _field_answers(own, block)
        assert not any(map(operator.is_, field_codes, _field_codes(own)))
        for part, want in zip(got, wants, strict=True):
            assert part.tobytes() == want.tobytes()


def _system_codes(system):
    """The code objects of a system's emitted field, point and block, and its RK4 loop."""
    block, _ = system._field_code
    return [_emitted(block.keywords["row"], "point").__code__,
            _emitted(block.args[0], "columns").__code__, system.stepper("rk4").__code__]


def _system_answers(system, U):
    states = np.zeros((41, U.shape[1]))
    states[0] = U[0]
    assert system.stepper("rk4")(U[0], 40, states, 0.05) == (40, None)
    return [system.dynamics(U[0]), system.dynamics_block(U), states]


def test_equal_systems_share_one_code_object():
    source = "0.5*m*qd1^2 + 0.5*(1 + c*q1^2)*qd2^2 - 0.5*k*q1^2 - gamma*z*qd1"
    values = ({"m": 1.3, "c": 0.2, "k": 2.2, "gamma": 0.15}, {"m": 0.9, "c": -0.3, "k": 0.7, "gamma": 0.4})
    U = np.random.default_rng(3).uniform(-0.5, 0.5, size=(6, 5))
    systems = [LagrangianSystem(2, ScalarField.from_source(source, lagrangian_chart(2), p)) for p in values]
    answers = [_system_answers(system, U) for system in systems]
    codes = [_system_codes(system) for system in systems]
    assert all(map(operator.is_, *codes))
    assert answers[0][0].tobytes() != answers[1][0].tobytes()
    _tape._code.cache_clear()
    _tape._trace.cache_clear()
    for params, system_codes, got in zip(values, codes, answers):
        own = LagrangianSystem(2, ScalarField.from_source(source, lagrangian_chart(2), params))
        wants = _system_answers(own, U)
        assert not any(map(operator.is_, system_codes, _system_codes(own)))
        for part, want in zip(got, wants, strict=True):
            assert part.tobytes() == want.tobytes()


def test_the_code_cache_is_bounded():
    _tape._code.cache_clear()
    size = _tape._code.cache_info().maxsize
    for k in range(size + 10):
        _tape._code(f"def f(x):\n    return x + {k}\n", "<contactmech compiled field>")
    info = _tape._code.cache_info()
    assert info.misses == size + 10 and info.currsize == info.maxsize == size


def test_the_trace_cache_is_bounded():
    # values, jets and vector fields share one cache of traces, which keeps the last keys
    _tape._trace.cache_clear()
    size = _tape._trace.cache_info().maxsize
    for k in range(size + 10):
        _tape.compile_value(Num(SPAN, float(k)), ())
    info = _tape._trace.cache_info()
    assert info.misses == size + 10 and info.currsize == info.maxsize == size


@pytest.mark.parametrize("value, error", [("abc", ValueError), (None, TypeError), ([1], TypeError)])
def test_a_parameter_that_is_no_number_fails_when_the_field_is_built(value, error):
    # whether or not the tree names it: every parameter is bound when the field is built
    for source in ("a*x", "x"):
        with pytest.raises(error):
            ScalarField.from_source(source, CHART, {"a": value})


def test_value_and_gradient_at_is_the_jet():
    field = ScalarField.from_source("sin(x)*y + x^3/z", CHART)
    point = [0.3, -1.2, 2.5]
    value, gradient = field.value_and_gradient_at(point)
    jet = field.jet_at(point)
    assert value == jet.value and gradient.tobytes() == jet.gradient.tobytes()


# -- blocks of points --------------------------------------------------------------


def _outcome_with_message(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # type and message are what get compared
        return None, (type(exc), str(exc))


def _assert_same_entries(got, want):
    """Equal entry for entry, NaN where NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


def _first_row_error(fn, block):
    """The rows' results, or the error of the first row that raises."""
    rows = []
    for point in block:
        row, error = _outcome_with_message(fn, point)
        if error is not None:
            return None, error
        rows.append(row)
    return rows, None


def assert_block_matches_rows(field, block):
    """The block's values, jets and error are exactly those of its rows."""
    jets, error = _outcome_with_message(field.jets_at, block)
    rows, want_error = _first_row_error(field.jet_at, block)
    assert error == want_error
    if want_error is None:
        _assert_same_entries(jets.value, [jet.value for jet in rows])
        _assert_same_entries(jets.gradient, np.reshape([jet.gradient for jet in rows], jets.gradient.shape))
        _assert_same_entries(jets.hessian, np.reshape([jet.hessian for jet in rows], jets.hessian.shape))

    values, error = _outcome_with_message(field.values_at, block)
    rows, want_error = _first_row_error(field.value_at, block)
    assert error == want_error
    if want_error is None:
        _assert_same_entries(values, rows)


_special = st.sampled_from([math.inf, -math.inf, math.nan, 1e200])
block_params = st.tuples(st.one_of(st.floats(-2.0, 2.0), _special),
                         st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0]), _special))
blocks = st.lists(st.tuples(coordinates, coordinates, coordinates), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees, block=blocks, params=block_params)
def test_blocks_match_the_rows_on_random_trees(tree, block, params):
    field = ScalarField(tree, CHART, dict(zip(PARAMS, params)))
    assert_block_matches_rows(field, np.array(block, dtype=float))




# -- parameters bound into the tree ------------------------------------------------


def _numbered(node, parameters):
    """The tree with each parameter written as a number node."""
    if isinstance(node, Var):
        return Num(node.span, parameters[node.name]) if node.name in parameters else node
    if isinstance(node, Num):
        return node
    if isinstance(node, Unary):
        return Unary(node.span, node.op, _numbered(node.operand, parameters))
    if isinstance(node, Call):
        return Call(node.span, node.func, _numbered(node.arg, parameters))
    return Binary(node.span, node.op, _numbered(node.left, parameters), _numbered(node.right, parameters))


def _answer(fn, *args):
    """The arrays of what fn returns (a number, an array or jets), or its error and failing row."""
    result, error = _outcome_with_row(fn, *args)
    if error is not None:
        return None, error
    jets = hasattr(result, "hessian")
    return [np.asarray(x, dtype=float) for x in ((result.value, result.gradient, result.hessian) if jets else (result,))], None


def _evaluations(tree, parameters, block):
    """What new objects of the tree give on the block: a field's values and jets at
    each row and over the block, and L = 0.5*qd1^2 + tree and H = 0.5*p1^2 + tree
    with their dynamics and 20 RK4 steps from the first row."""
    from contactmech.contact_core import HamiltonianSystem
    from contactmech.expr import hamiltonian_chart

    field = ScalarField(tree, CHART, parameters)
    out = [_answer(fn, block) for fn in (field.values_at, field.jets_at)]
    out += [_answer(fn, row) for row in block for fn in (field.value_at, field.jet_at)]
    for system in (LagrangianSystem(1, ScalarField(_mechanics_tree(tree, "qd1"), lagrangian_chart(1), parameters)),
                   HamiltonianSystem(1, ScalarField(_mechanics_tree(tree, "p1"), hamiltonian_chart(1), parameters))):
        out.append(_answer(system.dynamics_block, block))
        states = np.zeros((21, 3))
        states[0] = block[0]
        k, stop = system.stepper("rk4")(block[0].tolist(), 20, states, 0.05)
        error = (type(stop), str(stop)) if isinstance(stop, ArithmeticError) else None
        out.append(([np.array(float(k)), np.array(stop if error is None else (), dtype=float), states], error))
    return out


_bound_values = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees, block=blocks, params=st.tuples(_bound_values, _bound_values))
def test_bound_parameters_give_the_bits_of_number_nodes(tree, block, params):
    # a field binds its parameters into its tree once: each answer, error and failing
    # row, and every RK4 state, is that of the tree with number nodes in their place,
    # each traced on its own; the two bound trees are equal and share one trace
    parameters, block = dict(zip(PARAMS, params)), np.array(block, dtype=float)
    numbered = _numbered(tree, parameters)
    _tape._trace.cache_clear()
    want = _evaluations(numbered, {}, block)
    _tape._trace.cache_clear()
    got = _evaluations(tree, parameters, block)
    for (parts, error), (want_parts, want_error) in zip(got, want, strict=True):
        assert error == want_error
        assert error is not None or all(map(exact_bits, parts, want_parts))
    _tape._trace.cache_clear()
    field, twin = ScalarField(tree, CHART, parameters), ScalarField(numbered, CHART)
    assert field._jet_code is twin._jet_code and field._value_code is twin._value_code
    assert _tape._trace.cache_info().currsize == 2


def test_signed_zero_parameters_do_not_share_a_trace():
    # -0.0 == 0.0, so the tree's repr, which tells them apart, keys the trace too
    fields = [ScalarField.from_source("a*x", ("x",), {"a": zero}) for zero in (-0.0, 0.0)]
    assert fields[0]._value_code is not fields[1]._value_code
    assert fields[0]._jet_code is not fields[1]._jet_code
    for field, sign in zip(fields, (-1.0, 1.0)):
        for value in (field.value_at([2.0]), field.values_at(np.array([[2.0]]))[0], field.jet_at([2.0]).value,
                      field.jets_at(np.array([[2.0]])).value[0]):
            assert value == 0.0 and math.copysign(1.0, value) == sign


def _outcome_with_row(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # type, message and failing row are what get compared
        return None, (type(exc), str(exc), getattr(exc, "row", None))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees, a=blocks, b=blocks, params=block_params)
def test_jets_memo_matches_a_fresh_field(tree, a, b, params):
    # blocks A, A, B, A on one field: each answer, error and failing row is a fresh
    # field's, and the jets of the kept block come back while its bytes are asked for
    parameters = dict(zip(PARAMS, params))
    field = ScalarField(tree, CHART, parameters)
    kept = None
    for block in map(np.array, (a, a, b, a)):
        jets, error = _outcome_with_row(field.jets_at, block)
        want, want_error = _outcome_with_row(ScalarField(tree, CHART, parameters).jets_at, block)
        assert error == want_error
        if want_error is None:
            for part, want_part in zip(jets, want):
                _assert_same_entries(part, want_part)
            hit = kept is not None and kept[0] == block.tobytes()
            assert hit == (kept is not None and jets is kept[1])
            kept = (block.tobytes(), jets)


def _kept_quantities(tree, component, parameters):
    """The quantities kept next to a block of jets, of one new system L = 0.5*qd1^2 + tree
    and one new field Y whose component is ``component`` over (q1, z): Y^V(L) - Z, and
    last the complete lift of Y, whose block is assembled anew from its components'
    kept jets at each call."""
    from contactmech.lagrangian import LagrangianSystem
    from contactmech.lifts import CompleteLiftField, VectorFieldQR, VerticalMomentumQuantity

    system = LagrangianSystem(1, ScalarField(_mechanics_tree(tree, "qd1"), ("q1", "qd1", "z"), parameters))
    tree = _renamed(_renamed(component, "x", "q1"), "y", "z")
    Y = VectorFieldQR(1, (ScalarField(tree, ("q1", "z"), parameters),), ScalarField(parse("2*z"), ("z",)))
    return [system.reeb_block, system.dynamics_block, system.hamiltonian_value_and_gradient_block,
            system.reeb_rate_block, VerticalMomentumQuantity(system, Y).value_and_gradient_block,
            CompleteLiftField(Y).value_and_jacobian_block]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees, component=trees, a=blocks, b=blocks, params=block_params)
def test_kept_results_match_fresh_objects(tree, component, a, b, params):
    # blocks A, A, B, A on one system and one lift: each result, error and failing
    # row is that of new objects, and a block asked for again at once is a hit, each
    # part the kept one (but the complete lift's, which are new stacks)
    parameters = dict(zip(PARAMS, params))
    kept, previous = _kept_quantities(tree, component, parameters), None
    for block in map(np.array, (a, a, b, a)):
        outcomes = [_outcome_with_row(quantity, block) for quantity in kept]
        fresh = [_outcome_with_row(quantity, block) for quantity in _kept_quantities(tree, component, parameters)]
        parts = [tuple(x) if isinstance(x, tuple) else (x,) for x, _ in outcomes]
        for (got, error), (want, want_error) in zip(outcomes, fresh):
            assert error == want_error
            if want_error is None:
                for part, want_part in zip(*((x if isinstance(x, tuple) else (x,)) for x in (got, want))):
                    assert exact_bits(part, want_part)
        if previous is not None and previous[0] == block.tobytes():
            for got, before in zip(parts[:-1], previous[1][:-1]):
                assert all(x is y for x, y in zip(got, before, strict=True))
        previous = (block.tobytes(), parts)


def _integer_quantities(tree, parameters):
    """A new field of the tree, and new systems L = 0.5*qd1^2 + tree and H = 0.5*p1^2 + tree
    with their dynamics and the dissipation residuals of their own fields."""
    from contactmech.contact_core import HamiltonianSystem, dissipation_residual
    from contactmech.expr import hamiltonian_chart

    field = ScalarField(tree, CHART, parameters)
    L = LagrangianSystem(1, ScalarField(_mechanics_tree(tree, "qd1"), lagrangian_chart(1), parameters))
    H = HamiltonianSystem(1, ScalarField(_mechanics_tree(tree, "p1"), hamiltonian_chart(1), parameters))
    return [field.jets_at, field.values_at, L.dynamics_block, H.dynamics_block,
            lambda U: np.float64(dissipation_residual(L, L.field, U)),
            lambda U: np.float64(dissipation_residual(H, H.field, U))]


integers = st.one_of(st.integers(-3, 3), st.sampled_from([2**31, -(2**31), 2**40, -(2**40), 2**62]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees, block=st.lists(st.tuples(integers, integers, integers), min_size=1, max_size=5),
       params=block_params)
def test_integer_blocks_give_the_float_bits(tree, block, params):
    # an int64 block is taken as the equal float block: each answer, error and failing
    # row is the float block's on new objects, and so is the float block asked for next
    parameters = dict(zip(PARAMS, params))
    ints = np.array(block, dtype=np.int64)
    floats = ints.astype(float)
    quantities = _integer_quantities(tree, parameters)
    for asked in (ints, floats):
        outcomes = [_outcome_with_row(quantity, asked) for quantity in quantities]
        fresh = [_outcome_with_row(quantity, floats) for quantity in _integer_quantities(tree, parameters)]
        for (got, error), (want, want_error) in zip(outcomes, fresh, strict=True):
            assert error == want_error
            if want_error is None:
                for part, want_part in zip(*((x if isinstance(x, tuple) else (x,)) for x in (got, want))):
                    assert exact_bits(part, want_part)


def test_a_one_row_integer_block_runs_the_field_on_floats():
    # a one-row block goes straight to the emitted field's float form, whose run-time
    # test of an integral exponent takes floats only: the row is cast, not passed as ints
    from contactmech.contact_core import HamiltonianSystem
    from contactmech.expr import hamiltonian_chart

    L = LagrangianSystem(1, ScalarField.from_source("0.5*qd1^2 + (q1^2)^(q1^3)", lagrangian_chart(1)))
    H = HamiltonianSystem(1, ScalarField.from_source("0.5*p1^2 + (q1^2)^(q1^3)", hamiltonian_chart(1)))
    ints = np.array([[0, 0, 0]])
    assert exact_bits(L.dynamics_block(ints), np.array([[0.0, 0.0, 1.0]]))
    for got in (H.dynamics_block(ints), H.vector_field.value_block(ints)):
        assert exact_bits(got, np.array([[0.0, -0.0, -1.0]]))
        assert exact_bits(got, H.vector_field.value_block(ints.astype(float)))


@pytest.mark.parametrize(
    "source, block",
    [
        ("x^y", [[2.0, 2.0, 0.0], [2.0, 3.0, 0.0]]),  # integral exponents that differ per row
        ("x^y", [[2.0, 2.0, 0.0], [2.0, 2.5, 0.0]]),  # integral in one row only
        ("x^(y - y)", [[0.5, 1.0, 0.0], [-0.5, 2.0, 0.0]]),
        ("sqrt(x)", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),  # a value but no jet in row 2
        ("log(x) + 1/y", [[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0]]),  # row 1 fails first
        ("exp(x) * log(0 - 1)", [[1.0, 0.0, 0.0], [1000.0, 0.0, 0.0]]),
        ("exp(x)", [[1.0, 0.0, 0.0], [1000.0, 0.0, 0.0]]),  # an overflow in row 2
        ("big*big*x + y", [[0.5, 1.0, 0.0], [0.0, 1.0, 0.0]]),  # inf, and inf*0 = NaN
        ("2 + a", [[0.5, 1.0, 0.0], [0.0, 1.0, 0.0]]),
        ("exp(x) * y", [[1.0, 1.0, 0.0], [-800.0, 1.0, 0.0]]),  # underflow to 0 in row 2
        ("x*y*y", [[1e-160, 1e-80, 0.0], [1.0, 1.0, 0.0]]),  # a subnormal value in row 1
        # log magnifies a last-bit difference of exp(x*log(0.5)) about 1e6-fold
        ("(0.5^x)^log(x)", [[1e-6, 0.0, 0.0]]),
        # exponents integral at run time where z = 0: one shared k, then k != 0 rows only
        ("x^(2 + z^3)", [[0.7, 0.0, 0.0], [-0.8, 0.9, 0.0], [0.0, 0.0, 0.0]]),
        ("x^(2 + z^3)", [[0.7, 0.0, 1.3], [1.2, -0.4, 0.3]]),
        ("x^(2 + z^3)", [[0.7, 0.0, 0.0], [0.7, 0.0, 1.3]]),  # both kinds of row: row by row
        ("x^(z^3 - 1)", [[0.5, 0.0, 0.0], [-0.8, 0.9, 0.0]]),
        ("x^(z^3 - 1)", [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]),  # division by zero in row 2
    ],
)
def test_blocks_match_the_rows(source, block):
    field = ScalarField.from_source(source, CHART, {"a": 0.5, "big": 1e200})
    assert_block_matches_rows(field, np.array(block))


@pytest.mark.parametrize("source, block", [
    ("exp(x) * y", [[1.0, 1.0, 0.0], [-800.0, 1.0, 0.0]]),
    ("x*y*y", [[1e-160, 1e-80, 0.0], [1.0, 1.0, 0.0]]),
])
def test_underflow_keeps_the_block(source, block, monkeypatch):
    # underflow is not an error of float arithmetic, so no row is evaluated alone
    field = ScalarField.from_source(source, CHART)

    def row(self, point):
        raise AssertionError("the block fell back to rows")

    monkeypatch.setattr(ScalarField, "jet_at", row)
    monkeypatch.setattr(ScalarField, "value_at", row)
    field.jets_at(np.array(block))
    field.values_at(np.array(block))


def test_run_time_integral_exponent_over_a_block(monkeypatch):
    field = ScalarField.from_source("x^(z^3 - 1)", CHART)
    block = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for evaluate in (field.jets_at, field.values_at):
        with pytest.raises(DomainError, match="division by zero") as failure:
            evaluate(block)
        assert failure.value.row == 2

    rows = []
    jet_at = ScalarField.jet_at

    def spy(self, point):
        rows.append(list(point))
        return jet_at(self, point)

    monkeypatch.setattr(ScalarField, "jet_at", spy)
    field = ScalarField.from_source("x^(2 + z^3)", CHART)
    field.jets_at(np.array([[0.7, 0.0, 0.0], [-0.8, 0.9, 0.0]]))
    assert rows == []  # one integral exponent for every row keeps the block
    field.jets_at(np.array([[0.7, 0.0, 0.0], [0.7, 0.0, 1.3]]))
    assert rows == [[0.7, 0.0, 0.0], [0.7, 0.0, 1.3]]


def test_block_code_raises_no_power_itself():
    # every power of the one text is _pow: over a block, the rows' float power entry by entry
    tree = parse("x^2 + x^y + x^1.5 + exp(x)")
    value = _tape._Tracer(CHART)
    for tracer in (value, _tape._JetTracer(CHART)):
        tracer.trace(tree)
        assert "**" not in "\n".join(tracer.lines)
    assert "_pow(" in "\n".join(value.lines)


def _emitted_texts(build):
    """The texts of values, jets and vector fields that ``build()`` emits."""
    texts, code = [], _tape._code
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_tape, "_code", lambda source, name: texts.append(source) or code(source, name))
        build()
    return texts


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees, params=block_params)
def test_emitted_texts_read_every_pure_local(tree, params):
    # every text is pruned alike: a line that cannot raise stays only if a later line reads its local
    from contactmech.contact_core import _assemble_darboux

    parameters = dict(zip(PARAMS, params))
    system = LagrangianSystem(1, ScalarField(_mechanics_tree(tree, "qd1"), lagrangian_chart(1), parameters))
    bound = ScalarField(tree, CHART, parameters)._tree
    _tape._trace.cache_clear()  # an earlier example may have traced these trees
    texts = _emitted_texts(lambda: (
        _tape.compile_value(bound, CHART), _tape.compile_jet(bound, CHART),
        _tape.compile_field(bound, CHART, _assemble_darboux, 1), system._field_code))
    assert len(texts) == 4
    for text in texts:
        lines = text.splitlines()
        for k, line in enumerate(lines):
            pure = _tape._PURE.fullmatch(line)
            if pure is not None:
                assert re.search(rf"\b{pure.group(1)}\b", "\n".join(lines[k + 1 :])), (line, text)


def test_block_shape_is_checked():
    field = ScalarField.from_source("x*y", CHART)
    with pytest.raises(ValueError):
        field.jets_at(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        field.values_at(np.zeros(3))
    for source in ("x*y", "x^y", "log(0 - 1)"):
        field = ScalarField.from_source(source, CHART)
        jets = field.jets_at(np.zeros((0, 3)))
        assert jets.value.shape == (0,) and jets.gradient.shape == (0, 3) and jets.hessian.shape == (0, 3, 3)
        assert field.values_at(np.zeros((0, 3))).shape == (0,)


# -- every check on random systems: a finite residual or an explicit failure ----------


def _mechanics_tree(tree, fiber: str):
    """A random tree over (q1, fiber, z), plus 0.5*fiber^2 so the system is often regular."""
    tree = _renamed(_renamed(tree, "x", "q1"), "y", fiber)
    kinetic = parse(f"0.5*{fiber}^2")
    return Binary(SPAN, "add", kinetic, tree)


def _results(check):
    """(residual, passed) pairs of one check result."""
    from contactmech.symmetry import SymmetryReport

    if isinstance(check, float):
        return [(check, None)]
    if isinstance(check, SymmetryReport):
        return [(check.residuals[c], check.passes[c]) for c in check.residuals]
    if hasattr(check, "hypothesis_residuals"):
        return [(r, ok) for r, ok in zip(check.hypothesis_residuals, check.hypothesis_ok)] + [
            (r, check.passed) for r in check.dissipation_residuals
        ]
    if hasattr(check, "reeb_residuals"):
        return [(r, check.passed) for r in (*check.reeb_residuals, *check.eta_preservation_residuals)]
    if hasattr(check, "is_conformal"):
        return [(check.residual, check.is_conformal)]
    return [(check.residual, check.passed)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees, params=block_params, side=st.sampled_from(["lagrangian", "hamiltonian"]),
       seed=st.integers(0, 2**16))
def test_checks_never_pass_a_non_finite_residual(tree, params, side, seed):
    from types import SimpleNamespace

    from contactmech.cli import _structure_checks
    from contactmech.contact_core import (
        HamiltonianSystem, HamiltonianVectorField, check_cartan_symmetry,
        check_conformal_contactomorphism, check_dynamical_symmetry, dissipation_residual,
    )
    from contactmech.expr import hamiltonian_chart, lagrangian_chart
    from contactmech.fields import AmbientVectorField
    from contactmech.lagrangian import LagrangianSystem
    from contactmech.lifts import CompleteLiftField, VectorFieldQ, VectorFieldQR
    from contactmech.momentum import GeneratorFamily, momentum_dissipation_check, reeb_annihilation_check
    from contactmech.symmetry import SymmetryCandidate, classify

    points = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(4, 3))
    parameters = dict(zip(PARAMS, params))
    zero = ScalarField.from_source("0", ("q1", "p1", "z") if side == "hamiltonian" else lagrangian_chart(1))
    if side == "lagrangian":
        field = ScalarField(_mechanics_tree(tree, "qd1"), lagrangian_chart(1), parameters)
        system = LagrangianSystem(1, field)
        translation = VectorFieldQ.from_expressions(1, ["1"])
        checks = [
            lambda: classify(system, SymmetryCandidate("t", "on_Q", translation), points),
            lambda: classify(system, SymmetryCandidate("s", "on_QxR", VectorFieldQR.from_expressions(1, ["q1"], "2*z")),
                             points),
            lambda: momentum_dissipation_check(GeneratorFamily("t", "lagrangian", (translation,)), system, points),
            lambda: reeb_annihilation_check(GeneratorFamily("t", "lagrangian", (translation,)), system, points),
            lambda: check_dynamical_symmetry(system, CompleteLiftField(translation), points),
        ]
    else:
        field = ScalarField(_mechanics_tree(tree, "p1"), hamiltonian_chart(1), parameters)
        system = HamiltonianSystem(1, field)
        shift = AmbientVectorField.from_sources(["1", "0", "0"], system.chart)
        flow = HamiltonianVectorField(field)
        checks = [
            lambda: check_conformal_contactomorphism(flow, points),
            lambda: check_cartan_symmetry(system, flow, zero, zero, points),
            lambda: check_dynamical_symmetry(system, shift, points),
            lambda: momentum_dissipation_check(GeneratorFamily("t", "hamiltonian", (shift,)), system, points),
            lambda: reeb_annihilation_check(GeneratorFamily("t", "hamiltonian", (shift,)), system, points),
        ]
    checks.append(lambda: dissipation_residual(system, field, points))
    scenario = SimpleNamespace(system=system, kind=side)
    checks.append(lambda: _structure_checks(scenario, points, 1.0))
    for check in checks:
        try:
            result = check()
        except (ArithmeticError, np.linalg.LinAlgError):
            continue  # an explicit failure: the run exits 2 with the message
        pairs = ([(e["residual"], e["pass"]) for e in result] if isinstance(result, list)
                 else _results(result))
        for residual, passed in pairs:
            if residual is not None and not math.isfinite(residual):
                assert not passed
