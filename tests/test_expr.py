"""Parser, printer and evaluation tests for the expression language."""

import numpy as np
import pytest

from contactmech import _tape, ad, lifts
from contactmech.ad import DomainError
from contactmech.contact_core import HamiltonianSystem
from contactmech.expr import (
    MAX_INT_POWER,
    Binary,
    Call,
    Node,
    Num,
    ParseError,
    ScalarField,
    Unary,
    Var,
    derivative,
    free_variables,
    hamiltonian_chart,
    lagrangian_chart,
    parse,
    to_source,
)
from contactmech.lagrangian import EnergyQuantity, LagrangianSystem, RegularityError, TQRPoint, reeb_at
from contactmech.lifts import CompleteLiftField, VectorFieldQ, VerticalLiftField, VerticalMomentumQuantity


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


def test_a_numeric_exponent_is_read_from_its_node(monkeypatch):
    # differentiating compiles nothing to read back an exponent that is a number node,
    # and the derivative is still the tree's gradient (the jet's rules, one order up)
    calls = []
    emit = _tape._emit
    monkeypatch.setattr(_tape, "_emit", lambda *args: calls.append(args) or emit(*args))
    span = (0, 0)
    x, y = Var(span, "x"), Var(span, "y")
    tree = Binary(span, "add", parse("x^2*y^3 + (x*y)^0.5 + (1 + x/100)^1025 + x^0 + y^1"),
                  Binary(span, "mul", Binary(span, "pow", y, Num(span, -1.5)),
                         Binary(span, "pow", x, Num(span, -float(MAX_INT_POWER)))))
    derivatives = [derivative(tree, name) for name in ("x", "y")]
    assert calls == []
    point, field = [0.9, 1.3], ScalarField(tree, ("x", "y"))
    for k, d in enumerate(derivatives):
        assert ScalarField(d, ("x", "y")).value_at(point) == pytest.approx(field.jet_at(point).gradient[k], rel=1e-13)


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
        for name in ("_jet0_code", "_jet_code"):  # the value's code, then the jet's
            point, code = getattr(field, name)
            object.__setattr__(field, name, (point, lambda X, code=code: seen.append(len(X)) or code(X)))
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
            assert field.value_at(point) == field.jet_at(point).value

    def test_describe_round_trips(self):
        src = "0.5*qd1^2 - gamma*z"
        field = ScalarField.from_source(src, ("q1", "qd1", "z"), {"gamma": 0.2})
        assert field.describe() == src


def _counting_block_code(field, name="_jet_code") -> list:
    """Replace the field's block code of ``name`` (its jets' by default) by a spy;
    returns the rows of each run."""
    point, code = getattr(field, name)
    runs = []
    object.__setattr__(field, name, (point, lambda X: runs.append(len(X)) or code(X)))
    return runs


def _same_bits(got, want):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestJetsMemo:
    """A field keeps the jets of its last block of at most BLOCK_ROWS rows, keyed on its bytes."""

    CHART = ("x", "y")

    def field(self, source="sin(x)*y^2 + exp(x*y)"):
        return ScalarField.from_source(source, self.CHART)

    def block(self, rows=3):
        return np.linspace(-1.0, 1.0, 2 * rows).reshape(rows, 2)

    def test_a_hit_is_the_miss_before_it(self):
        field, block = self.field(), self.block()
        runs = _counting_block_code(field)
        first = field.jets_at(block)
        assert field.jets_at(block.copy()) is first
        assert field.jets_at(list(map(list, block))) is first
        assert runs == [3]
        assert _same_bits(first, self.field().jets_at(block))

    @pytest.mark.parametrize("source, block", [
        ("sin(x)*y^2", [[0.5, 1.0], [1.5, 2.0]]),
        ("x^y", [[2.0, 2.0], [2.0, 2.5]]),  # rows on both sides of a branch: computed row by row
        ("x*y", np.zeros((0, 2))),
    ])
    def test_the_arrays_are_read_only(self, source, block):
        for part in self.field(source).jets_at(block):
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 1.0

    @pytest.mark.parametrize("old, new", [
        (0x0000000000000000, 0x8000000000000000),  # 0.0 and -0.0
        (0x7FF8000000000000, 0x7FF8000000000001),  # two NaN payloads
    ], ids=["signed-zero", "nan-payload"])
    def test_a_block_that_differs_in_one_bit_misses(self, old, new):
        field, block = self.field("x*y + x^2"), self.block()
        block.view(np.uint64)[1, 0] = old
        runs = _counting_block_code(field)
        first = field.jets_at(block)
        changed = block.copy()
        changed.view(np.uint64)[1, 0] = new
        second = field.jets_at(changed)
        assert runs == [3, 3] and second is not first
        assert field.jets_at(changed) is second

    def test_a_block_with_one_more_row_misses(self):
        field, block = self.field(), self.block()
        runs = _counting_block_code(field)
        first = field.jets_at(block)
        longer = np.vstack([block, block[-1:]])
        assert field.jets_at(longer) is not first
        assert runs == [3, 4]

    def test_a_raising_block_keeps_nothing(self):
        field = self.field("log(x) + y")
        good, bad = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0, 2.0], [-1.0, 4.0]])
        first = field.jets_at(good)
        for _ in range(2):  # raised again: nothing was kept for it
            with pytest.raises(DomainError) as caught:
                field.jets_at(bad)
            assert caught.value.row == 1
        assert field.jets_at(good) is first

    def test_a_block_beyond_block_rows_is_not_kept(self):
        # evaluated in full at each call: its first BLOCK_ROWS rows by the block
        # code, its last row (a one-row block) by the point code of jet_at
        field, small = self.field(), self.block()
        first = field.jets_at(small)
        runs = _counting_block_code(field)
        point, code = field._jet_code
        points = []
        object.__setattr__(field, "_jet_code", (lambda x: points.append(x) or point(x), code))
        big = np.zeros((ad.BLOCK_ROWS + 1, 2))
        one, two = field.jets_at(big), field.jets_at(big)
        assert two is not one and _same_bits(one, two)
        assert runs == [ad.BLOCK_ROWS, ad.BLOCK_ROWS] and len(points) == 2
        assert field.jets_at(small) is first
        edge = big[: ad.BLOCK_ROWS]
        assert field.jets_at(edge) is field.jets_at(edge)


class TestKeptResults:
    """A system or a lift keeps what it derives from its last block, keyed on that block."""

    SOURCE = "0.5*(1 + q1^2)*qd1^2 + 0.5*qd2^2 + 0.3*q1*qd2 - 0.5*(q1^2 + q2^2) - 0.1*z*qd1"

    def system(self, source=SOURCE):
        return LagrangianSystem(2, ScalarField.from_source(source, lagrangian_chart(2)))

    def block(self, rows=4):
        return np.linspace(-1.0, 1.0, 5 * rows).reshape(rows, 5)

    def quantities(self, system):
        Y = VectorFieldQ.from_expressions(2, ["-q2", "q1*q2"])
        hamiltonian = HamiltonianSystem(2, ScalarField.from_source("0.5*(p1^2 + p2^2) + q1*q2*p1 + 0.1*z",
                                                                    hamiltonian_chart(2)))
        return {
            "reeb": system.reeb_block,
            "dynamics": system.dynamics_block,
            "energy": system.hamiltonian_value_and_gradient_block,
            "reeb_rate": system.reeb_rate_block,
            "hamiltonian_dynamics": hamiltonian.dynamics_block,
            "vertical_momentum": VerticalMomentumQuantity(system, Y).value_and_gradient_block,
        }

    @staticmethod
    def parts(result):
        return result if isinstance(result, tuple) else (result,)

    @classmethod
    def same(cls, got, kept) -> bool:
        """The kept result again: the same object, part by part (Y^V(L) - Z hands
        out its field's kept value and gradient as a new pair)."""
        return all(a is b for a, b in zip(cls.parts(got), cls.parts(kept), strict=True))

    @pytest.mark.parametrize("name", ["reeb", "dynamics", "energy", "reeb_rate",
                                      "hamiltonian_dynamics", "vertical_momentum"])
    def test_a_hit_is_the_miss_and_read_only(self, name):
        block = self.block()
        quantity = self.quantities(self.system())[name]
        first = quantity(block)
        assert self.same(quantity(block.copy()), first)
        want = self.quantities(self.system())[name](block)
        assert _same_bits(self.parts(first), self.parts(want))
        for part in self.parts(first):
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 1.0

    @pytest.mark.parametrize("name", ["reeb", "dynamics", "energy", "reeb_rate", "hamiltonian_dynamics"])
    def test_a_block_one_bit_apart_misses(self, name):
        block = self.block()
        block[1, 2] = 0.0
        quantity = self.quantities(self.system())[name]
        first = quantity(block)
        changed = block.copy()
        changed[1, 2] = -0.0
        second = quantity(changed)
        assert second is not first and quantity(changed) is second

    def test_a_block_beyond_block_rows_is_not_kept(self):
        system = self.system()
        runs = _counting_block_code(system.field)
        big = np.zeros((ad.BLOCK_ROWS + 1, 5))
        one, two = system.reeb_block(big), system.reeb_block(big)
        assert two is not one and one.tobytes() == two.tobytes()
        assert runs == [ad.BLOCK_ROWS, ad.BLOCK_ROWS]  # L's jets once a call, not kept

    def test_a_raising_block_keeps_nothing(self):
        # W = 1 + qd1 is degenerate where qd1 = -1: L's jets are kept, the solves raise
        system = self.system("0.5*qd1^2 + qd1^3/6 + 0.5*qd2^2 - 0.5*q1^2 - 0.1*z")
        good, bad = np.zeros((2, 5)), np.array([[0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0, 0.0]])
        reeb, dynamics = system.reeb_block(good), system.dynamics_block(good)
        entries = {name: entry for name, entry in vars(system).items() if name.endswith("_kept")}
        assert len(entries) == 2
        for _ in range(2):  # raised again: nothing was kept for it
            with pytest.raises(RegularityError):
                system.reeb_block(bad)
            with pytest.raises(RegularityError) as caught:
                system.dynamics_block(bad)
            assert caught.value.row == 1
        assert all(vars(system)[name] is entry for name, entry in entries.items())
        again = system.reeb_block(good), system.dynamics_block(good)  # L's jets of good are new
        assert _same_bits(again, (reeb, dynamics))

    @pytest.mark.parametrize("changed", [0, 1])
    def test_a_lift_hits_after_one_component_evaluated_another_block(self, changed):
        # each lift of Y is one text of all its components, run once per distinct block:
        # a new lift object of Y shares it and its kept values and Jacobian, which a
        # component's own jets of another block leave alone
        Y, block = VectorFieldQ.from_expressions(2, ["-q2", "q1*q2"]), self.block() + 0.25 * changed + 0.125
        complete, vertical = lifts._lifts(Y)
        runs = [_counting_block_code(lift, "_jet1_code") for lift in (complete, vertical)]
        first = CompleteLiftField(Y).value_and_jacobian_block(block)
        vertical_first = VerticalLiftField(Y).value_and_jacobian_block(block)
        Y.components[changed].jets_at(np.ones((1, 2)))  # that component keeps another block
        complete.components[changed].jets_at(np.ones((1, 5)))  # and so does the lift's own
        again = CompleteLiftField(Y).value_and_jacobian_block(block)
        assert again is first and lifts._lifts(Y) == (complete, vertical)
        assert CompleteLiftField(Y).value_block(block) is first[0]  # its values are the kept ones
        assert VerticalLiftField(Y).value_block(block) is vertical_first[0]
        assert runs == [[4], [4]]
        CompleteLiftField(Y).value_and_jacobian_block(block[:2])  # another block runs the text again
        assert runs == [[4, 2], [4]]
        want = [c.jets_at(block) for c in complete.components]
        assert _same_bits(first, (np.column_stack([j.value for j in want]), np.stack([j.gradient for j in want], 1)))

    @pytest.mark.parametrize("name", ["reeb", "dynamics", "energy", "reeb_rate",
                                      "hamiltonian_dynamics", "vertical_momentum"])
    def test_a_block_of_another_dtype_with_the_same_bytes_misses(self, name):
        integers = np.arange(-10, 10).reshape(4, 5)
        floats = integers.view(float)  # 0.0 and subnormals
        quantity = self.quantities(self.system())[name]
        first = quantity(floats)
        second = quantity(integers)
        assert not self.same(second, first) and self.same(quantity(integers), second)
        want = self.quantities(self.system())[name](integers.astype(float))
        assert _same_bits(self.parts(second), self.parts(want))

    @pytest.mark.parametrize("name", ["reeb", "dynamics", "energy", "reeb_rate",
                                      "hamiltonian_dynamics", "vertical_momentum"])
    def test_a_result_over_block_rows_is_read_only_and_not_kept(self, name):
        small, big = self.block(), np.linspace(-1.0, 1.0, 5 * (ad.BLOCK_ROWS + 1)).reshape(-1, 5)
        quantity = self.quantities(self.system())[name]
        kept = quantity(small)
        one, two = quantity(big), quantity(big)
        assert not self.same(two, one) and _same_bits(self.parts(one), self.parts(two))
        for part in self.parts(one):
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 1.0
        assert self.same(quantity(small), kept)  # the entry of the small block stays

    @pytest.mark.parametrize("rows", [2, ad.BLOCK_ROWS + 1])
    def test_dynamics_raises_the_domain_error_of_l_before_a_degenerate_w(self, rows):
        # W = 1 + qd1 is degenerate in row 0, and L's log leaves its domain in row 1
        system = self.system("0.5*qd1^2 + qd1^3/6 + 0.5*qd2^2 - 0.5*q1^2 + log(1 + q2) - 0.1*z")
        block = np.zeros((rows, 5))
        block[0, 2], block[1, 1] = -1.0, -2.0
        with pytest.raises(RegularityError):
            system.dynamics_block(block[:1])
        with pytest.raises(DomainError, match="log") as caught:
            system.dynamics_block(block)
        assert caught.value.row == 1

    def test_the_per_point_adapters_return_arrays_the_caller_owns(self):
        system, block = self.system(), self.block(1)
        u = block[0]
        energy, gradient = EnergyQuantity(system).value_and_gradient_at(u)
        reeb = reeb_at(system, TQRPoint.from_array(u))
        dynamics = system.dynamics(u)
        want = [part.copy() for part in (*system.hamiltonian_value_and_gradient_block(block),
                                           system.reeb_block(block), system.dynamics_block(block))]
        for array in (gradient, reeb.dq, reeb.dv, dynamics):
            array[...] = 7.0  # writable, and no kept result changes
        got = (*system.hamiltonian_value_and_gradient_block(block), system.reeb_block(block),
               system.dynamics_block(block))
        assert _same_bits(got, want) and energy == want[0][0]


def test_a_tree_is_hashed_once():
    # a node keeps its hash outside its fields: a second hash of a deep tree reaches no
    # child node (each child below is made unhashable after the first); == and hash keep
    # the dataclass's meaning, Num(0.0) == Num(-0.0) included
    tree = parse(" + ".join(f"x*{k}" for k in range(300)))
    first = hash(tree)
    assert first == hash(parse(" + ".join(f"x*{k}" for k in range(300)))) and tree == parse(to_source(tree))
    stack = [tree.left, tree.right]
    while stack:
        node = stack.pop()
        stack += [getattr(node, name) for name in node._compared if isinstance(getattr(node, name), Node)]
        node.__dict__.pop("_hash", None)
        object.__setattr__(node, "_compared", ("unhashable",))
        object.__setattr__(node, "unhashable", [])
    assert hash(tree) == first
    with pytest.raises(TypeError):
        hash(tree.right)
    span = (0, 0)
    assert Num(span, 0.0) == Num(span, -0.0) and hash(Num(span, 0.0)) == hash(Num(span, -0.0))
    assert hash(Binary(span, "add", Var(span, "x"), Num(span, 1.0))) == hash(("add", Var(span, "x"), Num(span, 1.0)))
