"""q-combinatorics: Pascal recurrences, factorial quotients, named identities."""
from fractions import Fraction

import pytest

from partial_hopf import qcomb
from partial_hopf.exact_arith import (
    CycNumber, ParamPoly, cyc_invert, zeta_pow,
)
from partial_hopf.qcomb import (
    ArityMismatch, PreconditionViolated,
    check_identity, check_pascal, generic_q,
    q_binomial, q_factorial, q_label, q_number,
)

from fraction_scalars import fraction

GQ = generic_q()
ROOTS = [zeta_pow(n, 1) for n in range(2, 9)]
RATIONALS = [CycNumber.from_rational(1, p, q)
             for p, q in ((2, 1), (3, 1), (5, 7))]


def test_generic_q_is_a_polynomial_variable():
    assert isinstance(GQ, ParamPoly) and GQ.order == 1
    assert GQ.render() == "q"
    # only nonnegative powers of q occur, so the generic q has no inverse
    with pytest.raises(ValueError):
        GQ ** -1


def test_q_number_generic():
    assert q_number(0, GQ).is_zero()
    assert q_number(1, GQ) == 1
    assert q_number(3, GQ) == 1 + GQ + GQ ** 2


def test_q_factorial_generic():
    # (3)_q! = (1+q)(1+q+q^2)
    assert q_factorial(3, GQ) == 1 + 2 * GQ + 2 * GQ ** 2 + GQ ** 3
    assert q_factorial(0, GQ) == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_primitive_root_kills_q_number(n):
    z = zeta_pow(n, 1)
    assert q_number(n, z).is_zero()
    assert not q_factorial(n - 1, z).is_zero()


@pytest.mark.parametrize("n", range(2, 9))
def test_binomial_vanishes_at_own_order(n):
    # (n k) = 0 at a primitive n-th root for 0 < k < n; edges stay 1
    z = zeta_pow(n, 1)
    assert q_binomial(n, 0, z) == 1
    assert q_binomial(n, n, z) == 1
    for k in range(1, n):
        assert q_binomial(n, k, z).is_zero()


def test_binomial_out_of_range_is_zero():
    assert q_binomial(5, -1, GQ).is_zero()
    assert q_binomial(5, 6, GQ).is_zero()


def test_binomial_generic_value():
    # (4 2)_q = 1 + q + 2q^2 + q^3 + q^4
    assert q_binomial(4, 2, GQ) == (
        1 + GQ + 2 * GQ ** 2 + GQ ** 3 + GQ ** 4)


@pytest.mark.parametrize("m", range(0, 11))
def test_quotient_agreement_generic(m):
    # oracle: multiply through, (m l) (l)! (m-l)! == (m)! as polynomials
    for l in range(0, m + 1):
        lhs = q_binomial(m, l, GQ) * q_factorial(l, GQ) * q_factorial(m - l, GQ)
        assert lhs == q_factorial(m, GQ)


@pytest.mark.parametrize("q", ROOTS + RATIONALS)
def test_quotient_agreement_when_factorial_nonzero(q):
    # oracle: direct quotient in the field whenever (m)_q! is invertible
    for m in range(0, 9):
        if q_factorial(m, q).is_zero():
            continue
        for l in range(0, m + 1):
            quot = (q_factorial(m, q)
                    * cyc_invert(q_factorial(l, q))
                    * cyc_invert(q_factorial(m - l, q)))
            assert q_binomial(m, l, q) == quot


def test_symmetry():
    for q in [GQ, zeta_pow(5, 1)]:
        for m in range(0, 11):
            for l in range(-2, m + 3):
                assert q_binomial(m, l, q) == q_binomial(m, m - l, q)


@pytest.mark.parametrize("variant", ["a", "b"])
def test_pascal_base_case(variant):
    v = check_pascal(variant, 1, 0, GQ)
    assert v.ok


@pytest.mark.parametrize("variant", ["a", "b"])
@pytest.mark.parametrize("q", [GQ] + ROOTS)
def test_pascal_sweep(variant, q):
    for i in range(1, 11):
        for s in range(-2, 13):
            assert check_pascal(variant, i, s, q).ok, (variant, i, s)


def test_pascal_rejects_bad_variant():
    with pytest.raises(PreconditionViolated):
        check_pascal("c", 1, 0, GQ)


def test_alternating_vandermonde_hand_value():
    # i=1, t=1, k=0: (2 1) - q = 1 + q - q = 1 = (1 0)
    v = check_identity("alternating_vandermonde", (1, 1, 0), GQ)
    assert v.ok and v.rhs == "1"


def test_trinomial_revision_precondition():
    with pytest.raises(PreconditionViolated):
        check_identity("trinomial_revision", (2, 3, 1), GQ)


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        check_identity("binomial_inversion", (1, 2, 3, 4), GQ)


def test_unknown_identity():
    with pytest.raises(PreconditionViolated):
        check_identity("nonsense", (1, 2), GQ)


@pytest.mark.parametrize("q", [GQ, zeta_pow(3, 1), RATIONALS[2]])
def test_identity_small_sweeps(q):
    for i in range(0, 4):
        for t in range(0, 4):
            for k in range(0, 4):
                assert check_identity(
                    "alternating_vandermonde", (i, t, k), q).ok
    for j in range(0, 5):
        for i in range(0, j + 1):
            for l in range(0, i + 1):
                assert check_identity("trinomial_revision", (j, i, l), q).ok
    for i in range(0, 3):
        for j in range(0, 3):
            for t in range(0, 3):
                for s in range(0, 3):
                    assert check_identity(
                        "four_index_inversion", (i, j, t, s), q).ok
    for j in range(0, 4):
        for t in range(0, 4):
            for s in range(0, 4):
                assert check_identity("binomial_inversion", (j, t, s), q).ok


@pytest.mark.parametrize("poly_first", [True, False])
def test_equal_scalars_of_two_types_keep_their_tables(poly_first):
    """The constant ParamPoly 2 equals the CycNumber 2 and hashes like it,
    yet each q reads its own table: a value has the type of its q, and a
    constant polynomial is labelled by its value, in either order."""
    two_poly = ParamPoly.const(1, 2)
    two_cyc = CycNumber.from_rational(1, 2)
    assert two_poly == two_cyc and hash(two_poly) == hash(two_cyc)
    qs = [two_poly, two_cyc] if poly_first else [two_cyc, two_poly]
    qcomb._table.cache_clear()
    try:
        for q in qs:
            value = q_binomial(3, 1, q)
            assert type(value) is type(q) and value == 7
            assert type(q_factorial(3, q)) is type(q)
            assert q_label(q) == "q=2"
    finally:
        qcomb._table.cache_clear()
    assert q_label(GQ) == "generic"


def test_q_pow_concrete_negative():
    z = zeta_pow(6, 1)
    assert z ** -1 * z == 1
    two = CycNumber.from_rational(1, 2)
    assert fraction(two ** -2) == Fraction(1, 4)


@pytest.mark.parametrize("call,message", [
    (lambda: q_number(-1, GQ), "q-number of negative index -1"),
    (lambda: q_factorial(-2, GQ), "q-factorial of negative index -2"),
    (lambda: check_pascal("a", 0, 0, GQ), "Pascal check needs i >= 1"),
    (lambda: check_identity("binomial_inversion", (1, -1, 0), GQ),
     "indices must be nonnegative: (1, -1, 0)"),
], ids=["q_number", "q_factorial", "check_pascal", "check_identity"])
def test_refusals(call, message):
    with pytest.raises(PreconditionViolated) as info:
        call()
    assert type(info.value) is PreconditionViolated
    assert info.value.args == (message,)
