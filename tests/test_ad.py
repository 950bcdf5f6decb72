"""Tests for the dense jet algebra that the compiled jets are checked against."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_ad as ad
from dense_ad import DomainError, Jet2, constant, jet2_binary, jet2_unary, seed_variables
from helpers import fd_gradient, fd_hessian


def jets_at(*values):
    return seed_variables(list(values))


class TestSeeding:
    def test_single_variable(self):
        (j,) = seed_variables([3.0])
        assert j.value == 3.0
        assert np.array_equal(j.gradient, [1.0])
        assert np.array_equal(j.hessian, [[0.0]])

    def test_second_jet_is_second_unit_vector(self):
        _, j = seed_variables([1.0, 2.0])
        assert j.value == 2.0
        assert np.array_equal(j.gradient, [0.0, 1.0])
        assert not j.hessian.any()

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            seed_variables([])

    def test_constant_has_no_derivatives(self):
        c = constant(4.5, 3)
        assert c.value == 4.5
        assert not c.gradient.any() and not c.hessian.any()


class TestBinaryOps:
    def test_mul_bilinear(self):
        x, y = jets_at(1.0, 2.0)
        j = jet2_binary("mul", x, y)
        assert j.value == 2.0
        assert np.array_equal(j.gradient, [2.0, 1.0])
        assert np.array_equal(j.hessian, [[0.0, 1.0], [1.0, 0.0]])

    def test_square_curvature(self):
        (x,) = jets_at(3.0)
        j = jet2_binary("mul", x, x)
        assert j.value == 9.0
        assert np.array_equal(j.gradient, [6.0])
        assert np.array_equal(j.hessian, [[2.0]])

    def test_div_jet(self):
        # d(x/y) at (2,1): value 2, grad [1,-2], hess [[0,-1],[-1,4]]
        x, y = jets_at(2.0, 1.0)
        j = jet2_binary("div", x, y)
        assert j.value == 2.0
        np.testing.assert_allclose(j.gradient, [1.0, -2.0], atol=1e-15)
        np.testing.assert_allclose(j.hessian, [[0.0, -1.0], [-1.0, 4.0]], atol=1e-15)

    def test_div_by_zero(self):
        x, y = jets_at(2.0, 0.0)
        with pytest.raises(DomainError):
            jet2_binary("div", x, y)

    def test_dimension_mismatch(self):
        (x,) = jets_at(1.0)
        a, _ = jets_at(1.0, 2.0)
        with pytest.raises(ValueError):
            jet2_binary("add", x, a)

    def test_unknown_op(self):
        (x,) = jets_at(1.0)
        with pytest.raises(ValueError):
            jet2_binary("mod", x, x)

    def test_integer_power_of_negative_base(self):
        (x,) = jets_at(-2.0)
        j = x**3
        assert j.value == -8.0
        assert np.allclose(j.gradient, [12.0])
        assert np.allclose(j.hessian, [[-12.0]])

    def test_negative_integer_power(self):
        (x,) = jets_at(2.0)
        j = x**-2
        assert j.value == 0.25
        np.testing.assert_allclose(j.gradient, [-0.25])
        np.testing.assert_allclose(j.hessian, [[0.375]])

    def test_zero_power_is_one(self):
        (x,) = jets_at(-3.0)
        j = x**0
        assert j.value == 1.0 and not j.gradient.any()

    def test_fractional_power_needs_positive_base(self):
        (x,) = jets_at(-2.0)
        with pytest.raises(DomainError):
            x**0.5

    def test_huge_integer_exponent_routes_through_exp_log(self):
        (x,) = jets_at(1.0000000001)
        j = x ** 1e6  # must not build a million-step multiply chain
        assert j.value == pytest.approx(math.exp(1e6 * math.log(1.0000000001)), rel=1e-10)
        (neg,) = jets_at(-2.0)
        with pytest.raises(DomainError):
            neg ** 1e9

    def test_jet_exponent(self):
        x, y = jets_at(2.0, 3.0)
        j = jet2_binary("pow", x, y)
        assert j.value == pytest.approx(8.0, rel=1e-14)
        # d(x^y) = (y x^{y-1}, x^y log x)
        np.testing.assert_allclose(j.gradient, [12.0, 8.0 * math.log(2.0)], rtol=1e-13)


class TestUnaryOps:
    def test_exp_fixed_point(self):
        (x,) = jets_at(0.0)
        j = jet2_unary("exp", x)
        assert j.value == 1.0
        assert np.array_equal(j.gradient, [1.0])
        assert np.array_equal(j.hessian, [[1.0]])

    def test_sin_at_zero(self):
        (x,) = jets_at(0.0)
        j = jet2_unary("sin", x)
        assert j.value == 0.0
        assert np.array_equal(j.gradient, [1.0])
        assert np.array_equal(j.hessian, [[0.0]])

    def test_log_jet(self):
        (x,) = jets_at(2.0)
        j = jet2_unary("log", x)
        assert j.value == pytest.approx(math.log(2.0))
        np.testing.assert_allclose(j.gradient, [0.5])
        np.testing.assert_allclose(j.hessian, [[-0.25]])

    def test_log_domain(self):
        (x,) = jets_at(-1.0)
        with pytest.raises(DomainError):
            jet2_unary("log", x)

    def test_sqrt_domain(self):
        (x,) = jets_at(-1.0)
        with pytest.raises(DomainError):
            jet2_unary("sqrt", x)
        (zero,) = jets_at(0.0)
        with pytest.raises(DomainError):
            jet2_unary("sqrt", zero)

    def test_unknown_unary(self):
        (x,) = jets_at(1.0)
        with pytest.raises(ValueError):
            jet2_unary("tanh", x)


# domain-respecting value strategies for the primitive FD checks
_vals = st.floats(-2.0, 2.0)
_pos = st.floats(0.2, 2.0)
_nonzero = st.floats(0.2, 2.0) | st.floats(-2.0, -0.2)


@settings(max_examples=100, deadline=None)
@given(a=_vals, b=_vals)
def test_fd_agreement_mul(a, b):
    _check_binary_fd(ad.mul, a, b)


@settings(max_examples=100, deadline=None)
@given(a=_vals, b=_nonzero)
def test_fd_agreement_div(a, b):
    _check_binary_fd(ad.div, a, b)


@settings(max_examples=100, deadline=None)
@given(a=_vals)
def test_fd_agreement_sin_cos_exp(a):
    for op in (ad.sin, ad.cos, ad.exp):
        _check_unary_fd(op, a)


@settings(max_examples=100, deadline=None)
@given(a=_pos)
def test_fd_agreement_log_sqrt(a):
    for op in (ad.log, ad.sqrt):
        _check_unary_fd(op, a)


def _check_binary_fd(op, a, b):
    x, y = seed_variables([a, b])
    jet = op(x, y)

    def value(u):
        p, q = seed_variables(u)
        return op(p, q).value

    np.testing.assert_allclose(jet.gradient, fd_gradient(value, [a, b]), atol=1e-7)
    np.testing.assert_allclose(jet.hessian, fd_hessian(value, [a, b]), atol=1e-4)


def _check_unary_fd(op, a):
    (x,) = seed_variables([a])
    jet = op(x)

    def value(u):
        (p,) = seed_variables(u)
        return op(p).value

    np.testing.assert_allclose(jet.gradient, fd_gradient(value, [a]), atol=1e-7)
    np.testing.assert_allclose(jet.hessian, fd_hessian(value, [a]), atol=1e-4)


def _random_tree(rng, jets, depth):
    """A random domain-safe expression built directly from jet operations."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return constant(rng.uniform(-2, 2), jets[0].dim)
        return jets[int(rng.integers(0, len(jets)))]
    kind = rng.integers(0, 8)
    a = _random_tree(rng, jets, depth - 1)
    if kind == 0:
        return ad.add(a, _random_tree(rng, jets, depth - 1))
    if kind == 1:
        return ad.sub(a, _random_tree(rng, jets, depth - 1))
    if kind == 2:
        return ad.mul(a, _random_tree(rng, jets, depth - 1))
    if kind == 3:
        return ad.div(a, ad.add(ad.mul(a, a), 1.5))
    if kind == 4:
        return ad.sin(a)
    if kind == 5:
        return ad.cos(a)
    if kind == 6:
        return ad.log(ad.add(ad.mul(a, a), 1.2))
    return ad.sqrt(ad.add(ad.mul(a, a), 0.8))


def test_hessian_exactly_symmetric_on_random_trees():
    rng = np.random.default_rng(42)
    for _ in range(200):
        jets = seed_variables(rng.uniform(-2, 2, size=3))
        result = _random_tree(rng, jets, depth=6)
        if isinstance(result, Jet2):
            assert np.max(np.abs(result.hessian - result.hessian.T)) == 0.0


def test_composition_matches_chain_rule():
    rng = np.random.default_rng(7)
    unary = {
        "sin": (math.sin, math.cos, lambda v: -math.sin(v)),
        "cos": (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v)),
        "exp": (math.exp, math.exp, math.exp),
    }
    names = list(unary)
    for _ in range(100):
        jets = seed_variables(rng.uniform(-1.5, 1.5, size=2))
        inner = _random_tree(rng, jets, depth=3)
        if not isinstance(inner, Jet2):
            continue
        name = names[int(rng.integers(0, len(names)))]
        f, d1, d2 = unary[name]
        composed = jet2_unary(name, inner)
        v, g, h = inner.value, inner.gradient, inner.hessian
        expected_grad = d1(v) * g
        expected_hess = d1(v) * h + d2(v) * np.outer(g, g)
        assert abs(composed.value - f(v)) <= 1e-12
        np.testing.assert_allclose(composed.gradient, expected_grad, atol=1e-12)
        np.testing.assert_allclose(composed.hessian, expected_hess, atol=1e-12)


def test_operator_overloads_with_scalars():
    (x,) = seed_variables([2.0])
    j = 1.0 + 2.0 * x - x / 2.0 + (-x) + 3.0 / x
    assert j.value == pytest.approx(1.0 + 4.0 - 1.0 - 2.0 + 1.5)
    # d/dx: 2 - 0.5 - 1 - 3/x^2 = 0.5 - 0.75
    assert j.gradient[0] == pytest.approx(-0.25)
