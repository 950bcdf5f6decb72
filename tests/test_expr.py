"""Parser, printer and evaluation tests for the expression language."""

import numpy as np
import pytest

from contactmech import ad
from contactmech.ad import DomainError
from contactmech.expr import (
    Binary,
    Call,
    Num,
    ParseError,
    ScalarField,
    Unary,
    Var,
    free_variables,
    parse,
    to_source,
)


def value_of(source, **params):
    return ScalarField.from_source(source, ("x",), params).value_at([0.0])


class TestParsing:
    def test_lagrangian_root_is_subtraction(self):
        tree = parse("0.5*qd1^2 - 0.5*k*q1^2 - gamma*z")
        assert isinstance(tree, Binary) and tree.op == "sub"

    def test_power_right_associative(self):
        assert value_of("2^3^2") == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert value_of("-2^2") == -4.0
        assert value_of("(-2)^2") == 4.0

    def test_signed_exponent(self):
        assert value_of("2^-2") == 0.25

    def test_unary_in_products(self):
        assert value_of("2*-3") == -6.0

    def test_number_formats(self):
        assert value_of("1e-3") == 1e-3
        assert value_of("2.5E+1") == 25.0
        assert value_of("0.5") == 0.5

    def test_function_calls(self):
        assert value_of("exp(0) + cos(0)") == 2.0

    @pytest.mark.parametrize(
        "source, offset",
        [
            ("sin(", 4),
            (")", 0),
            ("1 +", 3),
            ("2q1", 1),
            ("(1+2", 4),
            ("tan(1)", 0),
            ("1..2", 1),
            ("a $ b", 2),
        ],
    )
    def test_error_offsets(self, source, offset):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.offset == offset

    def test_error_carries_expected_tokens(self):
        with pytest.raises(ParseError) as err:
            parse("1 + * 2")
        assert err.value.expected  # nonempty set of suggestions

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2 q1")


class TestFreeVariables:
    def test_mixed(self):
        assert free_variables(parse("q1+gamma*z")) == {"q1", "gamma", "z"}

    def test_literal(self):
        assert free_variables(parse("3.5")) == set()

    def test_call_argument(self):
        assert free_variables(parse("sin(q2)*qd2")) == {"q2", "qd2"}


def _random_tree(rng, depth):
    names = ["q1", "qd1", "z", "gamma"]
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if rng.random() < 0.5:
            return Num((0, 0), float(f"{rng.uniform(0, 10):.4g}"))
        return Var((0, 0), names[int(rng.integers(0, len(names)))])
    if roll < 0.35:
        return Unary((0, 0), "neg", _random_tree(rng, depth - 1))
    if roll < 0.45:
        func = ["sin", "cos", "exp", "log", "sqrt"][int(rng.integers(0, 5))]
        return Call((0, 0), func, _random_tree(rng, depth - 1))
    op = ["add", "sub", "mul", "div", "pow"][int(rng.integers(0, 5))]
    return Binary((0, 0), op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_parse_print_parse_fixpoint():
    rng = np.random.default_rng(123)
    for _ in range(200):
        tree = _random_tree(rng, depth=4)
        printed = to_source(tree)
        assert parse(printed) == tree, printed


class TestEvaluation:
    def test_bilinear_field(self):
        field = ScalarField.from_source("q1*qd1", ("q1", "qd1", "z"))
        jet = field.jet_at([2.0, 3.0, 0.0])
        assert jet.value == 6.0
        np.testing.assert_array_equal(jet.gradient, [3.0, 2.0, 0.0])

    def test_damped_oscillator_jet(self):
        field = ScalarField.from_source("0.5*qd1^2 - 0.5*q1^2 - 0.1*z", ("q1", "qd1", "z"))
        jet = field.jet_at([1.0, 2.0, 0.0])
        assert jet.value == pytest.approx(1.5)
        np.testing.assert_allclose(jet.gradient, [-1.0, 2.0, -0.1], atol=1e-15)
        np.testing.assert_allclose(jet.hessian, np.diag([-1.0, 1.0, 0.0]), atol=1e-15)

    def test_exp_of_z(self):
        field = ScalarField.from_source("exp(z)", ("q1", "qd1", "z"))
        jet = field.jet_at([0.0, 0.0, 0.0])
        assert jet.value == 1.0
        np.testing.assert_array_equal(jet.gradient, [0.0, 0.0, 1.0])

    def test_literal_jet_has_no_derivatives(self):
        field = ScalarField.from_source("3.25", ("x", "y"))
        jet = field.jet_at([1.0, 2.0])
        assert jet.value == 3.25
        assert not jet.gradient.any() and not jet.hessian.any()

    def test_parameters_are_constants(self):
        field = ScalarField.from_source("k*x", ("x",), {"k": 4.0})
        jet = field.jet_at([2.0])
        assert jet.value == 8.0
        np.testing.assert_array_equal(jet.gradient, [4.0])

    def test_unbound_identifier_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unbound"):
            ScalarField.from_source("k*x", ("x",))

    def test_parameter_shadowing_chart_rejected(self):
        with pytest.raises(ValueError, match="shadow"):
            ScalarField.from_source("x", ("x",), {"x": 1.0})

    def test_wrong_point_length(self):
        field = ScalarField.from_source("x", ("x", "y"))
        with pytest.raises(ValueError, match="coordinates"):
            field.value_at([1.0])

    def test_domain_error_propagates(self):
        field = ScalarField.from_source("log(x)", ("x",))
        with pytest.raises(DomainError):
            field.jet_at([-1.0])
        with pytest.raises(DomainError):
            field.value_at([-1.0])

    def test_block_fallback_names_the_failing_row(self):
        field = ScalarField.from_source("log(x)", ("x",))
        block = np.array([[2.0], [-1.0], [3.0]])
        for evaluate in (field.jets_at, field.values_at):
            with pytest.raises(DomainError, match=r"^log requires a positive argument, got -1\.0$") as caught:
                evaluate(block)
            assert caught.value.row == 1

    def test_long_blocks_are_chunked_and_match_their_rows(self):
        # y is integral in the first 1,200 rows only, so the value of x^y
        # takes both sides of its branch in the second chunk, which the value
        # path then computes row by row
        field = ScalarField.from_source("x^y", ("x", "y"))
        seen = []
        for order in ("value", "jet"):
            point, code = field._compiled(order)
            object.__setattr__(field, f"_{order}_code", (point, lambda X, code=code: seen.append(len(X)) or code(X)))
        rng = np.random.default_rng(0)
        block = np.column_stack([rng.uniform(0.5, 2.0, 2500), rng.uniform(-3.0, 3.0, 2500)])
        block[:1200, 1] = np.round(block[:1200, 1])
        values = field.values_at(block)
        jets = field.jets_at(block)
        chunks = [ad.BLOCK_ROWS, ad.BLOCK_ROWS, 2500 - 2 * ad.BLOCK_ROWS]
        assert seen == chunks + chunks
        assert np.array_equal(values, [field.value_at(u) for u in block])
        rows = [field.jet_at(u) for u in block]
        assert np.array_equal(jets.value, [jet.value for jet in rows])
        assert np.array_equal(jets.gradient, [jet.gradient for jet in rows])
        assert np.array_equal(jets.hessian, [jet.hessian for jet in rows])

    def test_value_path_matches_jet_path(self):
        rng = np.random.default_rng(5)
        field = ScalarField.from_source(
            "sin(x)*exp(0.3*y) + x^3/(1.5 + y^2) - sqrt(x^2 + 1)", ("x", "y")
        )
        for _ in range(50):
            point = rng.uniform(-2, 2, size=2)
            assert field.value_at(point) == pytest.approx(field.jet_at(point).value, abs=1e-14)

    def test_describe_round_trips(self):
        src = "0.5*qd1^2 - gamma*z"
        field = ScalarField.from_source(src, ("q1", "qd1", "z"), {"gamma": 0.2})
        assert field.describe() == src
