"""ParamPoly arithmetic against the implementation that rebuilt every result.

The ``old_*`` functions below copy the earlier ParamPoly arithmetic, which
built every result through the filtering constructor and multiplied by a
scalar as by a constant polynomial.  Seeded random polynomials, with
coefficients drawn so that sums and products often cancel, must give the
same term dicts with no zero coefficient, and leave their operands
untouched.
"""
import random
from fractions import Fraction

import pytest

from partial_hopf import exact_arith
from partial_hopf.exact_arith import (
    CycNumber, OrderMismatch, ParamPoly, _mono_mul, zeta_pow,
)


# -- the earlier implementation, on term dicts ------------------------------

def _filtered(terms):
    return {m: c for m, c in terms.items() if not c.is_zero()}


def _const(order, value):
    if not isinstance(value, CycNumber):
        value = CycNumber.from_rational(order, value)
    return _filtered({(): value})


def old_add(order, s, t):
    terms = dict(s)
    zero = CycNumber.zero(order)
    for m, c in t.items():
        terms[m] = terms.get(m, zero) + c
    return _filtered(terms)


def old_neg(order, s):
    return _filtered({m: -c for m, c in s.items()})


def old_sub(order, s, t):
    return old_add(order, s, old_neg(order, t))


def old_mul(order, s, t):
    out = {}
    zero = CycNumber.zero(order)
    for m1, c1 in s.items():
        for m2, c2 in t.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, zero) + c1 * c2
    return _filtered(out)


def old_pow(order, s, e):
    result = _const(order, 1)
    base = s
    while e:
        if e & 1:
            result = old_mul(order, result, base)
        base = old_mul(order, base, base)
        e >>= 1
    return result


def old_subs(order, s, name, repl):
    out = {}
    for m, c in s.items():
        e = 0
        rest = []
        for n2, k in m:
            if n2 == name:
                e = k
            else:
                rest.append((n2, k))
        term = _filtered({tuple(rest): c})
        if e:
            term = old_mul(order, term, old_pow(order, repl, e))
        out = old_add(order, out, term)
    return out


# -- random operands --------------------------------------------------------

MONOS = ((), (("a", 1),), (("b", 1),), (("a", 1), ("b", 1)), (("a", 2),),
         (("a", 1), ("c", 2)))


def _scalar(rng, order):
    r = rng.choice((1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)))
    return CycNumber.from_rational(order, r) * zeta_pow(
        order, rng.randrange(order))


def _poly(rng, order, like=None):
    """A random polynomial; given ``like``, one that shares some terms with
    it negated, so that sums and differences cancel."""
    terms = {}
    for m in rng.sample(MONOS, rng.randrange(len(MONOS) + 1)):
        terms[m] = _scalar(rng, order)
    if like is not None:
        for m, c in like.terms.items():
            if rng.random() < 0.5:
                terms[m] = -c if rng.random() < 0.5 else c
    return ParamPoly(order, terms)


def _scalars(rng, order):
    yield CycNumber.zero(order)
    yield _scalar(rng, order)
    yield 0
    yield rng.choice((1, -1, 3))
    yield Fraction(-2, 3)
    yield ParamPoly.zero(order)
    yield ParamPoly.const(order, _scalar(rng, order))


def _check(got, want, order):
    assert isinstance(got, ParamPoly) and got.order == order
    assert all(not c.is_zero() for c in got.terms.values())
    assert got.terms == want


def _as_terms(order, x):
    if isinstance(x, ParamPoly):
        return x.terms
    return _const(order, x)


@pytest.mark.parametrize("seed", range(24))
def test_results_match_the_rebuilding_implementation(seed):
    rng = random.Random(seed)
    order = rng.choice((1, 2, 3, 4, 6))
    for _ in range(10):
        p = _poly(rng, order)
        q = _poly(rng, order, like=p)
        before = (dict(p.terms), dict(q.terms))
        _check(p + q, old_add(order, p.terms, q.terms), order)
        _check(p - q, old_sub(order, p.terms, q.terms), order)
        _check(p - p, {}, order)
        _check(-p, old_neg(order, p.terms), order)
        _check(p * q, old_mul(order, p.terms, q.terms), order)
        _check(q * p, old_mul(order, q.terms, p.terms), order)
        for k in _scalars(rng, order):
            kt = _as_terms(order, k)
            _check(p * k, old_mul(order, p.terms, kt), order)
            _check(k * p, old_mul(order, kt, p.terms), order)
            _check(p + k, old_add(order, p.terms, kt), order)
            _check(p - k, old_sub(order, p.terms, kt), order)
        for e in range(5):
            _check(p ** e, old_pow(order, p.terms, e), order)
        for name in "abd":
            for repl in (q, _poly(rng, order, like=q), 0,
                         _scalar(rng, order)):
                want = old_subs(order, p.terms, name, _as_terms(order, repl))
                _check(p.subs(name, repl), want, order)
        assert (dict(p.terms), dict(q.terms)) == before


@pytest.mark.parametrize("other", [CycNumber.one(4), zeta_pow(4, 1),
                                   CycNumber.zero(4), ParamPoly.one(4)])
def test_scalar_path_keeps_order_mismatch(other):
    p = ParamPoly.var(3, "a") + 1
    with pytest.raises(OrderMismatch):
        p * other
    with pytest.raises(OrderMismatch):
        other * p
    with pytest.raises(OrderMismatch):
        p + other


# -- powers make no product by one and no square past the top bit -----------

def _counted_products(monkeypatch):
    calls = [0]
    mul = exact_arith._mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(exact_arith, "_mul", counted)
    return calls


@pytest.mark.parametrize("e", range(0, 13))
def test_power_products(monkeypatch, e):
    """x ** e costs (bit length - 1) squarings and (set bits - 1) products."""
    want = max(e.bit_length() - 1, 0) + max(bin(e).count("1") - 1, 0)
    z = zeta_pow(5, 1) + 2
    calls = _counted_products(monkeypatch)
    got = z ** e
    assert calls[0] == want
    monkeypatch.undo()
    slow = CycNumber.one(5)
    for _ in range(e):
        slow = slow * z
    assert got == slow
    a = ParamPoly.var(5, "a") * z
    calls = _counted_products(monkeypatch)
    assert (a ** e).terms == {(("a", e),) if e else (): slow}
    assert calls[0] == want
