"""Exact scalar tower: cyclotomic coordinates and parameter polynomials."""
import json
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from partial_hopf.exact_arith import (
    CycNumber, OrderMismatch, ParamPoly, _mul,
    cyc_invert, cyclotomic_polynomial, divisors, euler_phi, zeta_pow,
)
from partial_hopf import expr
from partial_hopf.algebras import group_algebra_cyclic
from partial_hopf.cli import main
from partial_hopf.expr import (
    MAX_EXPONENT, MAX_LITERAL_DIGITS, MAX_NESTING, ExprError, parse_poly,
    parse_scalar,
)
from partial_hopf.hopf_core import to_json_dict

from fraction_scalars import const, cyc, fraction, poly, rat

ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]


# -- cyclotomic polynomials -------------------------------------------------

def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@pytest.mark.parametrize("n", range(1, 25))
def test_cyclotomic_product_oracle(n):
    # independent oracle: the product of Phi_d over d | n must equal x^n - 1
    prod = [1]
    for d in divisors(n):
        prod = _int_poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (n - 1) + [1]
    assert prod == expected


@pytest.mark.parametrize("n,coeffs", [
    (1, (-1, 1)),
    (2, (1, 1)),
    (3, (1, 1, 1)),
    (4, (1, 0, 1)),
    (6, (1, -1, 1)),
    (8, (1, 0, 0, 0, 1)),
    (12, (1, 0, -1, 0, 1)),
])
def test_cyclotomic_known_values(n, coeffs):
    assert cyclotomic_polynomial(n) == coeffs


def test_cyclotomic_coefficients_are_ints():
    # a Fraction coefficient would compare equal to its int and pass the
    # value tests above
    for n in range(1, 201):
        assert all(type(c) is int for c in cyclotomic_polynomial(n)), n
    phi105 = cyclotomic_polynomial(105)
    assert [k for k, c in enumerate(phi105) if c not in (-1, 0, 1)] == [7, 41]
    assert phi105[7] == phi105[41] == -2


@pytest.mark.parametrize("n", ORDERS)
def test_degree_is_euler_phi(n):
    assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


# -- roots of unity ---------------------------------------------------------

def test_zeta4_squares_to_minus_one():
    z = zeta_pow(4, 1)
    assert z * z == -1


def test_zeta3_canonical_coords():
    # zeta_3^2 = -1 - zeta_3 after reduction mod 1 + x + x^2
    assert zeta_pow(3, 2).coords == (Fraction(-1), Fraction(-1))


@pytest.mark.parametrize("n", ORDERS + [15, 16, 60, 97, 105, 128])
def test_zeta_pow_is_x_to_the_k_mod_phi(n):
    # x^k reduced by long division by Phi_n, as ref_mul reduces; k >= n
    # covers the wrap of the exponent, and the prime orders the fold rows
    # with m >= n
    phi, cyc = euler_phi(n), cyclotomic_polynomial(n)
    for k in range(2 * n):
        rem = [0] * k + [1]
        for m in range(k, phi - 1, -1):
            c = rem[m]
            for i, f in enumerate(cyc):
                if c and f:
                    rem[m - phi + i] -= c * f
        assert zeta_pow(n, k).coords == tuple((rem + [0] * phi)[:phi]), k


@pytest.mark.parametrize("n", ORDERS)
def test_zeta_power_law(n):
    for a in range(n):
        for b in range(n):
            assert zeta_pow(n, a) * zeta_pow(n, b) == zeta_pow(n, a + b)


@pytest.mark.parametrize("n", ORDERS)
def test_zeta_has_exact_order(n):
    z = zeta_pow(n, 1)
    acc = CycNumber.one(n)
    for k in range(1, n):
        acc = acc * z
        assert acc != 1, "zeta_%d^%d must not be 1" % (n, k)
    assert acc * z == 1


@pytest.mark.parametrize("n", [n for n in ORDERS if n > 1])
def test_geometric_sum_vanishes(n):
    total = CycNumber.zero(n)
    for k in range(n):
        total = total + zeta_pow(n, k)
    assert total.is_zero()


def test_invert_one_plus_zeta3():
    # (1 + zeta)(-zeta) = -zeta - zeta^2 = 1 because 1 + zeta + zeta^2 = 0
    z = zeta_pow(3, 1)
    got = cyc_invert(1 + z)
    assert got == -z
    assert got * (1 + z) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12, 60, 1024])
def test_invert_roots_of_unity_and_their_multiples(n):
    # one nonzero coordinate c*zeta^k inverts to zeta^-k / c; a power zeta^k
    # with several coordinates in normal form takes the norm path
    for k in range(n):
        for c in (1, -1, Fraction(3, 2)):
            x = rat(n, c) * zeta_pow(n, k)
            inv = cyc_invert(x)
            assert inv == zeta_pow(n, -k) * rat(n, 1 / c)
            assert x * inv == 1


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        cyc_invert(CycNumber.zero(4))


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatch):
        zeta_pow(3, 1) + zeta_pow(4, 1)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
@pytest.mark.parametrize("orders", [(3, 4), (4, 3), (1, 2), (2, 1)])
def test_order_mismatch_raises_on_every_operation(op, orders):
    # equal phi on both sides, so only the order check can refuse the pair
    a, b = (zeta_pow(n, 1) for n in orders)
    with pytest.raises(OrderMismatch):
        op(a, b)


rationals = st.tuples(st.integers(-9, 9), st.integers(1, 7)).map(
    lambda t: Fraction(t[0], t[1]))


def cyc_numbers(order):
    return st.tuples(*[rationals] * euler_phi(order)).map(
        lambda t: cyc(order, t))


@st.composite
def order_and_three(draw):
    order = draw(st.sampled_from(ORDERS))
    xs = draw(st.tuples(cyc_numbers(order), cyc_numbers(order),
                        cyc_numbers(order)))
    return (order,) + xs


@settings(max_examples=60, deadline=None)
@given(order_and_three())
def test_field_axioms(data):
    _, a, b, c = data
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if not a.is_zero():
        assert a * cyc_invert(a) == 1


# -- differential check against Fraction coordinates --------------------------

def ref_mul(n, a, b):
    # schoolbook product of Fraction coordinates, then long division by Phi_n;
    # a zero factor is skipped, as it adds nothing
    phi, cyc = euler_phi(n), cyclotomic_polynomial(n)
    prod = [Fraction(0)] * (2 * phi - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                prod[i + j] += x * y
    for m in range(len(prod) - 1, phi - 1, -1):
        c = prod[m]
        for k, f in enumerate(cyc):
            if c and f:
                prod[m - phi + k] -= c * f
    return tuple(prod[:phi])


def ref_render(coords):
    parts = []
    for k, c in enumerate(coords):
        mono = "" if k == 0 else "z" if k == 1 else "z^%d" % k
        if c and k == 0:
            parts.append(str(c))
        elif c:
            parts.append(mono if c == 1 else "-" + mono if c == -1
                         else "%s*%s" % (c, mono))
    return " + ".join(parts).replace("+ -", "- ") or "0"


DIFF_ORDERS = list(range(1, 13)) + [15, 16, 60, 97, 128]


@st.composite
def order_and_two_coord_tuples(draw):
    order = draw(st.sampled_from(DIFF_ORDERS))
    coords = st.tuples(*[st.sampled_from([0, 0, 1, -1]) | rationals]
                       * euler_phi(order))
    return order, draw(coords), draw(coords)


def assert_normal_form(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1


@settings(max_examples=150, deadline=None)
@given(order_and_two_coord_tuples())
def test_integer_core_matches_fraction_reference(data):
    n, ca, cb = data
    a, b = cyc(n, ca), cyc(n, cb)
    assert a.coords == tuple(Fraction(c) for c in ca)
    assert (a + b).coords == tuple(x + y for x, y in zip(ca, cb))
    assert (a - b).coords == tuple(x - y for x, y in zip(ca, cb))
    assert (a * b).coords == ref_mul(n, ca, cb)
    assert a.render() == ref_render(a.coords)
    assert (a * b).render() == ref_render(ref_mul(n, ca, cb))
    for x in (a, a + b, a - b, a * b):
        assert_normal_form(x)
    if not a.is_zero():
        inv = cyc_invert(a)
        assert_normal_form(inv)
        one = (Fraction(1),) + (Fraction(0),) * (euler_phi(n) - 1)
        assert ref_mul(n, inv.coords, ca) == one


def shortcut_coord_tuples(order):
    """0, 1, -1, another rational, or a single term c*zeta^k: the factors
    that the product takes without a convolution."""
    phi = euler_phi(order)
    rational = (st.sampled_from([0, 1, -1]) | rationals).map(
        lambda c: (c,) + (0,) * (phi - 1))
    single = st.tuples(rationals, st.integers(0, phi - 1)).map(
        lambda t: tuple(t[0] if k == t[1] else 0 for k in range(phi)))
    return rational | single


@pytest.mark.parametrize("n", DIFF_ORDERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_shortcut_factors_match_fraction_reference(n, data):
    """A product with a rational or single-term factor, in either order,
    equals the reference product and is in normal form."""
    dense = st.tuples(*[st.sampled_from([0, 0, 1, -1]) | rationals]
                      * euler_phi(n))
    ca = data.draw(shortcut_coord_tuples(n))
    cb = data.draw(dense | shortcut_coord_tuples(n))
    a, b = cyc(n, ca), cyc(n, cb)
    for x, y, cx, cy in ((a, b, ca, cb), (b, a, cb, ca)):
        got = x * y
        assert got.coords == ref_mul(n, cx, cy)
        assert_normal_form(got)


PHI_ONE_VALUES = [0, 1, -1, 2, -7, Fraction(1, 2), Fraction(-3, 4),
                  Fraction(10 ** 20 + 1, 6), Fraction(-6, 10 ** 20 + 1)]


@pytest.mark.parametrize("order", [1, 2])
def test_phi_one_multiplication_matches_the_fraction_reference(order):
    """At phi = 1 a product is one integer product over the product of the
    denominators, reduced: it equals the Fraction product, in normal form,
    with fields identical to the reference value's, for 0, +-1 and
    values with denominators."""
    for x in PHI_ONE_VALUES:
        for y in PHI_ONE_VALUES:
            a, b = rat(order, x), rat(order, y)
            want = rat(order, Fraction(x) * Fraction(y))
            for got in (_mul(a, b), a * b, b * a):
                assert fraction(got) == Fraction(x) * Fraction(y)
                assert (got.order, got.num, got.den) == (
                    order, want.num, want.den)
                assert_normal_form(got)


def test_scalars_are_built_from_integers_only():
    # no constructor takes outside coordinates, and a rational is two ints
    with pytest.raises(TypeError):
        CycNumber(5, (1, 2, 3, 4))
    with pytest.raises(TypeError):
        ParamPoly(5, {})
    for p, q in ((Fraction(1, 2), 1), (1, Fraction(2)), (0.5, 1), (1, 2.0)):
        with pytest.raises(TypeError):
            CycNumber.from_rational(5, p, q)
        with pytest.raises(TypeError):
            ParamPoly.const(5, p / q)
    for q in (0, -2):
        with pytest.raises(ValueError):
            CycNumber.from_rational(5, 1, q)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 12, 60])
def test_from_rational_is_the_fraction_reference(order):
    # p/q built from two integers has the normal form of the value built
    # from the Fraction p/q as its constant coordinate
    zeros = (0,) * (euler_phi(order) - 1)
    for p in range(-6, 7):
        for q in range(1, 9):
            got = CycNumber.from_rational(order, p, q)
            want = cyc(order, (Fraction(p, q),) + zeros)
            assert (got.order, got.num, got.den) == (
                want.order, want.num, want.den)
            assert got.coords == want.coords
            assert got == rat(order, Fraction(p, q))
            assert_normal_form(got)


def test_high_power_of_zeta_needs_no_recursion():
    # powers are built iteratively; a recursive build overflows the stack
    z = zeta_pow(2000, 1999)
    assert z * zeta_pow(2000, 1) == 1
    assert zeta_pow(2000, -1) == z


def test_equal_values_have_identical_fields():
    z = zeta_pow(6, 1)
    half = CycNumber.from_rational(6, 1, 2)
    paths = [
        (1 + z) / 2,
        half + half * z,
        cyc(6, (Fraction(1, 2), Fraction(1, 2))),
        cyc(6, (Fraction(3, 6), Fraction(2, 4))),
        CycNumber.from_rational(6, 3, 6) * (1 + z),
        parse_scalar("(1+z)/2", 6),
        (z * z + 2 * z + 1) / (2 * (1 + z)),
        ((1 + z) * 3 / 6 * z) * zeta_pow(6, -1),
    ]
    for x in paths:
        assert (x.num, x.den) == ((1, 1), 2)
    zeros = [z - z, (z / 3) * 0, cyc(6, (Fraction(0, 5), 0)),
             CycNumber.from_rational(6, 0, 5),
             CycNumber.zero(6)]
    for x in zeros:
        assert (x.num, x.den) == ((0, 0), 1)


@settings(max_examples=60, deadline=None)
@given(order_and_three())
def test_division_round_trip_restores_fields(data):
    _, a, b, _ = data
    if not b.is_zero():
        back = (a * b) / b
        assert (back.num, back.den) == (a.num, a.den)


# -- equality and hashing agree ----------------------------------------------

@pytest.mark.parametrize("value", [3, -1, 0, Fraction(3, 4),
                                   Fraction(-5, 2)])
@pytest.mark.parametrize("order", [1, 4, 5])
def test_rational_values_hash_like_their_scalars(order, value):
    # an int is a scalar operand and equals its value; a Fraction is not
    c = rat(order, value)
    p = const(order, value)
    assert p == c and hash(p) == hash(c)
    assert len({p, c}) == 1
    if type(value) is int:
        assert c == value and p == value
        assert hash(c) == hash(value) == hash(p)
        assert len({p, c, value}) == 1
    else:
        assert c != value and p != value and value != c and value != p
        assert len({p, c, value}) == 2


scalar_pairs = st.sampled_from([1, 2, 3, 4, 6]).flatmap(
    lambda order: st.tuples(st.just(order), cyc_numbers(order),
                            cyc_numbers(order)))


@settings(max_examples=100, deadline=None)
@given(scalar_pairs, st.integers(-3, 3))
def test_equal_scalars_hash_equally(data, k):
    # every value equal to another hashes like it: a CycNumber, the constant
    # ParamPoly of it, the same value reached by arithmetic, and the int it
    # equals when it is one
    order, a, b = data
    for x in (a, b, rat(order, k)):
        same = [x, ParamPoly.const(order, x), (x + b) - b, (x * 3) / 3]
        if x.den == 1 and x.is_rational():
            same.append(x.num[0])
        for y in same:
            assert x == y and y == x and hash(x) == hash(y)
        assert len(set(same)) == 1


@pytest.mark.parametrize("other", [Fraction(1, 2), Fraction(3), 0.5, 2.0],
                         ids=["fraction", "integral_fraction", "float",
                              "integral_float"])
def test_fraction_and_float_are_not_scalar_operands(other):
    z = zeta_pow(4, 1)
    for x in (CycNumber.from_rational(4, 1, 2), CycNumber.from_rational(4, 3),
              z, ParamPoly.const(4, CycNumber.from_rational(4, 1, 2)),
              ParamPoly.var(4, "a")):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        assert x != other and other != x
        assert not x == other


def test_constant_poly_hashes_like_its_coefficient():
    z = zeta_pow(4, 1)
    p = ParamPoly.const(4, z)
    assert p == z and hash(p) == hash(z)
    assert len({p, z}) == 1
    assert hash(ParamPoly.zero(4)) == hash(0)


# -- parameter polynomials --------------------------------------------------

def test_binomial_expansion():
    a = ParamPoly.var(4, "a")
    assert (1 + a) ** 2 == 1 + 2 * a + a * a


def evaluate(p, assignment: dict) -> CycNumber:
    """Full evaluation of the ParamPoly ``p``; every parameter appearing must
    be assigned a CycNumber or a rational."""
    total = CycNumber.zero(p.order)
    for m, c in p.terms.items():
        acc = c
        for name, e in m:
            if name not in assignment:
                raise LookupError("no value for parameter %r" % name)
            v = assignment[name]
            if not isinstance(v, CycNumber):
                v = CycNumber.from_rational(p.order, v)
            acc = acc * v ** e
        total = total + acc
    return total


def test_eval_alpha_squared_at_zeta4():
    a = ParamPoly.var(4, "a")
    assert evaluate(a * a, {"a": zeta_pow(4, 1)}) == -1


def test_eval_missing_parameter():
    a = ParamPoly.var(4, "a")
    with pytest.raises(LookupError):
        evaluate(a, {})


def test_subs_partial():
    order = 3
    a, b = ParamPoly.var(order, "a"), ParamPoly.var(order, "b")
    p = a * a * b + 2 * a + 5
    assert p.subs("a", b) == b * b * b + 2 * b + 5
    assert p.subs("a", 0) == ParamPoly.const(order, 5)


def test_linear_split():
    a, b = ParamPoly.var(2, "a"), ParamPoly.var(2, "b")
    p = 3 * a * b + a - 7 * b + 2
    A, B = p.linear_split("a")
    assert A == 3 * b + 1
    assert B == -7 * b + 2
    with pytest.raises(ValueError):
        (a * a).linear_split("a")


def test_divide_by_var():
    a, b = ParamPoly.var(2, "a"), ParamPoly.var(2, "b")
    p = a * a * b + 4 * a
    assert p.divide_by_var("a") == a * b + 4
    with pytest.raises(ValueError):
        (a + b).divide_by_var("a")


def poly_strategy(order):
    mono = st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(1, 3)),
        max_size=2).map(lambda ps: tuple(sorted(dict(ps).items())))
    term = st.tuples(mono, cyc_numbers(order))
    # a lone term also reaches the monomial-times-monomial product
    terms = st.lists(term, max_size=4) | st.lists(term, min_size=1,
                                                  max_size=1)
    return terms.map(
        lambda ts: sum((poly(order, {m: c}) for m, c in ts),
                       ParamPoly.zero(order)))


@st.composite
def poly_pair_with_point(draw):
    order = draw(st.sampled_from([1, 3, 4, 6]))
    p = draw(poly_strategy(order))
    q = draw(poly_strategy(order))
    point = {name: draw(cyc_numbers(order)) for name in "abc"}
    return p, q, point


@settings(max_examples=50, deadline=None)
@given(poly_pair_with_point())
def test_eval_is_ring_homomorphism(data):
    p, q, point = data
    assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)


@settings(max_examples=50, deadline=None)
@given(poly_pair_with_point())
def test_render_parse_round_trip(data):
    p, _, _ = data
    assert parse_poly(p.render(), p.order) == p


# -- expression parser ------------------------------------------------------

def test_parse_scalar_examples():
    assert parse_scalar("(1+z)/2", 2) == CycNumber.from_rational(2, 0)
    # over order 2, z = zeta_2 = -1, so (1+z)/2 = 0
    assert parse_scalar("(1+z)/2", 4) == (1 + zeta_pow(4, 1)) / 2
    assert parse_scalar("z^-1", 4) == zeta_pow(4, -1)
    assert fraction(parse_scalar("3/4", 1)) == Fraction(3, 4)
    # whitespace before, between and after the tokens is skipped
    assert parse_scalar("1 ", 4) == 1
    assert parse_scalar("1 + z ", 4) == parse_scalar(" 1+z", 4) == (
        1 + zeta_pow(4, 1))


def test_parse_rejects_unknown_parameter():
    with pytest.raises(ExprError):
        parse_poly("a + b", 4, params={"a"})


def test_parse_rejects_junk():
    with pytest.raises(ExprError):
        parse_poly("1 + $", 4)
    with pytest.raises(ExprError):
        parse_poly("(1", 4)


@pytest.mark.parametrize("text,message", [
    ("1/0", "division by zero"),
    ("z/(1+z^2-z^2-1)", "division by zero"),
    ("z^x", "expected integer exponent, got 'x'"),
    ("z^", "expected integer exponent, got None"),
    ("1+", "unexpected end of expression"),
    ("2*(", "unexpected end of expression"),
    ("1+)", "unexpected token ')'"),
    ("*2", "unexpected token '*'"),
    ("1 2", "trailing tokens in '1 2'"),
    ("(1)z", "trailing tokens in '(1)z'"),
    ("1 $y", "bad character '$' in '1 $y'"),
    ("1 + z \t.", "bad character '.' in '1 + z \\t.'"),
])
def test_parse_scalar_refusals(text, message):
    with pytest.raises(ExprError) as exc:
        parse_scalar(text, 4)
    assert str(exc.value) == message


# -- bounds on the work of one expression -------------------------------------

@pytest.fixture
def powers(monkeypatch):
    """The exponents of every power computed while the test runs."""
    seen = []
    for cls in (ParamPoly, CycNumber):
        def counted(self, e, _pow=cls.__pow__):
            seen.append(e)
            return _pow(self, e)

        monkeypatch.setattr(cls, "__pow__", counted)
    return seen


@pytest.mark.parametrize("text,computed", [
    ("2^100000000", []), ("2^-100000000", []),
    ("z^%d" % (MAX_EXPONENT + 1), []),
    ("(2^4096)^16", [4096]), ("((2^4096)^4096)^4096", [4096]),
    ("(1/3^4096)^16", [4096]),
])
def test_oversized_powers_fail_before_computing(powers, text, computed):
    with pytest.raises(ExprError):
        parse_scalar(text, 4)
    assert powers == computed


def test_powers_at_the_limits_parse():
    assert parse_scalar("z^%d" % MAX_EXPONENT, 4) == 1
    assert parse_scalar("2^%d" % MAX_EXPONENT, 1) == 2 ** MAX_EXPONENT
    assert parse_scalar("2^-3", 1) == CycNumber.from_rational(1, 1, 8)


def test_power_bound_scales_with_the_order():
    # a root of unity does not grow, at any order
    for e in range(1024):
        assert parse_scalar("z^%d" % e, 1024) == zeta_pow(1024, e)
    # (1+z)^e has e-bit coefficients in each of phi(order) coordinates
    assert parse_scalar("(1+z)^4096", 12) == (1 + zeta_pow(12, 1)) ** 4096
    assert parse_scalar("(1+z)^127", 1024) == (1 + zeta_pow(1024, 1)) ** 127
    for text in ("(1+z)^128", "(1+z)^4096", "(2*z)^128"):
        with pytest.raises(ExprError, match="power too large"):
            parse_scalar(text, 1024)
    # a rational power fills one coordinate, whatever the order
    assert parse_scalar("2^4096", 1024) == 2 ** 4096


@pytest.fixture
def inversions(monkeypatch):
    """The divisors the expression parser inverts while the test runs."""
    seen = []

    def counted(c, _invert=cyc_invert):
        seen.append(c)
        return _invert(c)

    monkeypatch.setattr(expr, "cyc_invert", counted)
    return seen


def test_division_bound_is_the_power_bound(inversions):
    # 1/(1+z) is bounded as (1+z)^(phi-1): 65536 bits at order 512, the limit
    one_plus_z = 1 + zeta_pow(512, 1)
    for text in ("1/(1+z)", "(1+z)^-1"):
        assert parse_scalar(text, 512) == cyc_invert(one_plus_z)
    # and 262144 bits at order 1024, where (1+z)^128 is refused too
    for text in ("1/(1+z)", "(1+z)^-1", "z/(z+z^2)"):
        with pytest.raises(ExprError) as exc:
            parse_scalar(text, 1024)
        assert str(exc.value) == (
            "inverse too large: about 262144 bits, limit 65536")
    assert len(inversions) == 2
    # a single term inverts to a single term, at any order
    assert parse_scalar("1/3", 1024) == CycNumber.from_rational(1024, 1, 3)
    assert parse_scalar("z^-1", 1024) == zeta_pow(1024, -1)
    assert parse_scalar("(3*z)^-1", 1024) == zeta_pow(1024, -1) / 3
    assert parse_scalar("1/(900*z^511)", 1024) == zeta_pow(1024, -511) / 900
    for text in ("1/0", "0^-1", "z/(z-z)", "(z-z)^-3"):
        with pytest.raises(ExprError) as exc:
            parse_scalar(text, 1024)
        assert str(exc.value) == "division by zero"


@pytest.mark.parametrize("coeffs", [
    [2 if k % 2 == 0 else -1 for k in range(33)],
    random.Random(1).choices((-2, -1, 1, 2), k=33),
], ids=["alternating", "seeded"])
def test_import_refuses_a_large_division_at_once(tmp_path, capsys,
                                                 inversions, coeffs):
    """A unit (D)/(D), with D of degree 32 at order 1024: each division once
    ran for many seconds and then imported as valid."""
    D = cyc(1024, coeffs + [0] * (euler_phi(1024) - len(coeffs)))
    doc = to_json_dict(group_algebra_cyclic(1))
    doc["order"] = 1024
    doc["unit"] = ["(%s)/(%s)" % (D.render(), D.render())]
    path = tmp_path / "division.json"
    path.write_text(json.dumps(doc))
    code = main(["import", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, inversions) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "inverse too large: about 1308672 bits, limit 65536" in err


def test_literal_digits_are_bounded():
    assert parse_scalar("9" * MAX_LITERAL_DIGITS, 1) == int(
        "9" * MAX_LITERAL_DIGITS)
    with pytest.raises(ExprError, match="digits"):
        parse_scalar("9" * (MAX_LITERAL_DIGITS + 1), 1)
    with pytest.raises(ExprError, match="digits"):
        parse_scalar("2^" + "0" * (MAX_LITERAL_DIGITS + 1), 1)


def test_nesting_is_bounded_without_recursion_error():
    assert parse_scalar("(" * MAX_NESTING + "z" + ")" * MAX_NESTING, 3) == (
        zeta_pow(3, 1))
    for depth in (MAX_NESTING + 1, 100000):
        with pytest.raises(ExprError, match="nested"):
            parse_scalar("(" * depth + "1" + ")" * depth, 3)


def test_long_sign_chains_parse_iteratively():
    assert parse_scalar("-" * 100001 + "z", 3) == -zeta_pow(3, 1)
    assert parse_scalar("-" * 100000 + "2^3", 1) == 8
    assert parse_scalar("-2^2", 1) == -4


# -- refusals -----------------------------------------------------------------

@pytest.mark.parametrize("call,exc,message", [
    (lambda: cyclotomic_polynomial(0), ValueError,
     "order must be a positive integer"),
    (lambda: CycNumber.from_rational(3, 1, 0), ValueError,
     "denominator must be positive, got 0"),
    (lambda: CycNumber.from_rational(3, Fraction(1, 2)), TypeError,
     "a rational is two integers, got Fraction(1, 2) and 1"),
    (lambda: ParamPoly.var(3, "a", -1), ValueError,
     "parameter powers must be nonnegative"),
    (lambda: ParamPoly.var(3, "a").constant_value(), ValueError,
     "polynomial is not constant: a"),
    (lambda: ParamPoly.var(3, "a").subs("a", "b"), TypeError,
     "cannot substitute 'b'"),
], ids=["cyclotomic_polynomial", "from_rational", "from_fraction", "var",
        "constant_value", "subs"])
def test_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert info.value.args == (message,)
