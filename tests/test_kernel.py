"""The sparse kernel of ``hopf_core`` against the loops it replaced.

Before the kernel, the structure-constant loop was written out in several
modules.  Those copies are kept below, as they were, as references: every
kernel operation must give the same result as each copy it replaced and
make the same scalar products, operand order included (a CycNumber times a
ParamPoly first tries ``CycNumber.__mul__``, so the order shows in the
counts).  Two exceptions make no more products than the loops they
replaced, and sometimes fewer: ``_pair`` skips a zero value or
coefficient, and the convolution of H* is ``vec_mul`` over the dual's
table, which shares one product of two values among a row's terms.
The tables are random and sparse, with CycNumber and ParamPoly
coefficients and rows whose terms cancel.
"""
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from partial_hopf import exact_arith
from partial_hopf.duality import taft_to_dual, verify_hopf_morphism
from partial_hopf.exact_arith import CycNumber, ParamPoly, euler_phi
from partial_hopf.families import (
    nichols_parametric_coaction, taft_coaction_families,
    taft_parametric_coaction, verify_partial_coaction,
)
from partial_hopf.hopf_core import (
    HopfData, _pair, dense, dual_hopf, sparse, tensor_map, vec_map, vec_mul,
)

from fraction_scalars import cyc


# -- the replaced copies ------------------------------------------------------

def ref_sparse(row):                                  # duality._sparse
    return {j: c for j, c in enumerate(row) if not c.is_zero()}


def ref_vec_mul(mult, v1, v2):                        # algebras._vec_mul
    out = {}
    for i, c1 in v1.items():
        for j, c2 in v2.items():
            row = mult.get((i, j))
            if not row:
                continue
            c12 = c1 * c2
            for k, c in row:
                prev = out.get(k)
                val = c12 * c if prev is None else prev + c12 * c
                out[k] = val
    return {k: v for k, v in out.items() if not v.is_zero()}


def ref_vec_product(mult, u, v):
    # classify._vec_product and duality._vec_mul_dict
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            row = mult.get((i, j))
            if not row:
                continue
            ab = a * b
            for k, c in row:
                s = out.get(k)
                s = ab * c if s is None else s + ab * c
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
    return out


def ref_multiply(mult, dim, zero, a, b):              # hopf_core.multiply
    out = [zero] * dim
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b):
            if cb.is_zero():
                continue
            row = mult.get((i, j))
            if not row:
                continue
            prod = ca * cb
            for k, c in row:
                out[k] = out[k] + prod * c
    return tuple(out)


def ref_apply(rows, dim, zero, values):   # antipode_apply, HopfMorphism.apply*
    out = [zero] * dim
    for i, c in enumerate(values):
        if c.is_zero():
            continue
        for j, m in rows[i]:
            out[j] = out[j] + c * m
    return tuple(out)


def ref_comultiply(comult, zero, a):                  # hopf_core.comultiply
    out = {}
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for (j, k), c in comult[i]:
            key = (j, k)
            out[key] = out.get(key, zero) + ca * c
    return out


def ref_morphism_comult(imgs, zero, row):   # verify_hopf_morphism, Delta side
    lhs = {}
    for (a, b), c in row:
        for p, u in imgs[a].items():
            cu = c * u
            for qq, v in imgs[b].items():
                key = (p, qq)
                s = lhs.get(key, zero) + cu * v
                if s.is_zero():
                    lhs.pop(key, None)
                else:
                    lhs[key] = s
    return lhs


def ref_convolution(comult, zero, f, g):              # hopf_core.convolution
    out = []
    for row in comult:
        acc = zero
        for (j, k), c in row:
            fj = f[j]
            if fj.is_zero():
                continue
            gk = g[k]
            if gk.is_zero():
                continue
            acc = acc + (fj * gk) * c
        out.append(acc)
    return tuple(out)


def ref_convolve(comult, zero, u, v):                 # duality._convolve
    out = []
    for row in comult:
        acc = zero
        for (a, b), c in row:
            ua, vb = u[a], v[b]
            if not (ua.is_zero() or vb.is_zero()):
                acc = acc + c * ua * vb
        out.append(acc)
    return tuple(out)


def ref_linear_form(values, zero, terms):
    # families.action_consequence_checks' on_product, the counit sums
    acc = zero
    for i, c in terms:
        acc = acc + values[i] * c
    return acc


# -- scalar products, counted as the benchmark's tracer counts them ----------

@contextmanager
def products():
    """Count calls of CycNumber/ParamPoly __mul__ and __rmul__."""
    n = [0]
    saved = {}
    for cls in (CycNumber, ParamPoly):
        for name in ("__mul__", "__rmul__"):
            fn = saved[cls, name] = cls.__dict__[name]

            def counted(self, other, _fn=fn):
                n[0] += 1
                return _fn(self, other)

            setattr(cls, name, counted)
    try:
        yield n
    finally:
        for (cls, name), fn in saved.items():
            setattr(cls, name, fn)


def same_work(kernel, reference):
    """(kernel result, reference result), checking equal product counts."""
    with products() as n:
        got = kernel()
    with products() as m:
        want = reference()
    assert n[0] == m[0]
    return got, want


# -- random sparse tables -----------------------------------------------------

ORDERS = (1, 2, 3, 4, 5, 8)


def _cyc(rng, order):
    """A nonzero CycNumber with small coordinates."""
    while True:
        coords = [Fraction(rng.choice((0, 0, 1, -1, 2, -3)),
                           rng.choice((1, 1, 2, 3)))
                  for _ in range(euler_phi(order))]
        if any(coords):
            return cyc(order, coords)


def _scalar(rng, order, poly):
    c = _cyc(rng, order)
    if not poly:
        return c
    p = ParamPoly.var(order, rng.choice("ab")) * c
    if rng.random() < 0.4:
        p = p + ParamPoly.const(order, _cyc(rng, order))
    return p


def _terms(rng, order, targets):
    """A structure row over ``targets``; some terms come in cancelling
    pairs, so a product through it can vanish."""
    row = []
    for _ in range(rng.randint(1, 3)):
        t, c = rng.choice(targets), _cyc(rng, order)
        row.append((t, c))
        if rng.random() < 0.3:
            row.append((t, -c))
    return row


def _mult(rng, order, dim):
    keys = [(i, j) for i in range(dim) for j in range(dim)]
    return {key: tuple(_terms(rng, order, range(dim)))
            for key in rng.sample(keys, rng.randint(1, len(keys)))}


def _comult(rng, order, dim):
    pairs = [(j, k) for j in range(dim) for k in range(dim)]
    return tuple(tuple(_terms(rng, order, pairs))
                 if rng.random() < 0.85 else () for _ in range(dim))


def _rows(rng, order, dim):
    return tuple(tuple(_terms(rng, order, range(dim)))
                 if rng.random() < 0.85 else () for _ in range(dim))


def _dense(rng, order, dim, poly):
    zero = ParamPoly.zero(order) if poly else CycNumber.zero(order)
    return tuple(_scalar(rng, order, poly) if rng.random() < 0.6 else zero
                 for _ in range(dim))


def _case(seed, order, poly):
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    zero = ParamPoly.zero(order) if poly else CycNumber.zero(order)
    return rng, dim, zero


CASES = dict(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from(ORDERS),
             poly=st.booleans())


@settings(max_examples=150, deadline=None)
@given(**CASES)
def test_sparse_and_dense(seed, order, poly):
    rng, dim, zero = _case(seed, order, poly)
    values = _dense(rng, order, dim, poly)
    assert sparse(values) == ref_sparse(values)
    assert dense(sparse(values), dim, zero) == values


@settings(max_examples=150, deadline=None)
@given(**CASES)
def test_vec_mul(seed, order, poly):
    rng, dim, zero = _case(seed, order, poly)
    mult = _mult(rng, order, dim)
    a, b = _dense(rng, order, dim, poly), _dense(rng, order, dim, poly)
    u, v = sparse(a), sparse(b)
    for ref in (ref_vec_mul, ref_vec_product):
        got, want = same_work(lambda: vec_mul(mult, u, v),
                              lambda: ref(mult, u, v))
        assert got == want
        assert all(got.values())
    got, want = same_work(lambda: vec_mul(mult, u, v),
                          lambda: ref_multiply(mult, dim, zero, a, b))
    assert dense(got, dim, zero) == want


@settings(max_examples=150, deadline=None)
@given(**CASES)
def test_vec_map(seed, order, poly):
    rng, dim, zero = _case(seed, order, poly)
    rows = _rows(rng, order, dim)
    values = _dense(rng, order, dim, poly)
    got, want = same_work(lambda: vec_map(rows, enumerate(values)),
                          lambda: ref_apply(rows, dim, zero, values))
    assert dense(got, dim, zero) == want
    assert all(got.values())
    assert vec_map(rows, sparse(values).items()) == got


@settings(max_examples=150, deadline=None)
@given(**CASES)
def test_tensor_map(seed, order, poly):
    rng, dim, zero = _case(seed, order, poly)
    # the rows of a morphism: its images, one term per target index
    imgs = [sparse(_dense(rng, order, dim, False)) for _ in range(dim)]
    rows = tuple(tuple(img.items()) for img in imgs)
    row = _comult(rng, order, dim)[0]
    if poly:
        row = tuple((jk, _scalar(rng, order, True)) for jk, _ in row)
    got, want = same_work(lambda: tensor_map(rows, row),
                          lambda: ref_morphism_comult(imgs, zero, row))
    assert got == want
    assert all(got.values())


@settings(max_examples=150, deadline=None)
@given(**CASES)
def test_vec_map_comultiplies(seed, order, poly):
    """Delta is vec_map over the comult rows, whose keys are basis pairs."""
    rng, dim, zero = _case(seed, order, poly)
    comult = _comult(rng, order, dim)
    values = _dense(rng, order, dim, poly)
    got, want = same_work(lambda: vec_map(comult, enumerate(values)),
                          lambda: ref_comultiply(comult, zero, values))
    assert got == {k: v for k, v in want.items() if v}
    assert all(got.values())


@settings(max_examples=150, deadline=None)
@given(**CASES)
def test_convolve(seed, order, poly):
    """The product of H* is vec_mul over dual_hopf's transposed table: the
    convolution of the references, with no more products (a table row
    with several terms shares one product of the two values)."""
    rng, dim, zero = _case(seed, order, poly)
    comult = _comult(rng, order, dim)
    H = HopfData("random", dim, order, tuple("e%d" % i for i in range(dim)),
                 mult={}, unit=(), comult=comult,
                 counit=(CycNumber.zero(order),) * dim, antipode=((),) * dim)
    mult = dual_hopf(H).mult
    f, g = _dense(rng, order, dim, poly), _dense(rng, order, dim, poly)
    with products() as n:
        got = vec_mul(mult, sparse(f), sparse(g))
    with products() as m:
        want = ref_convolution(comult, zero, f, g)
    assert n[0] <= m[0]
    assert dense(got, dim, zero) == want
    assert all(got.values())
    if not poly:
        assert dense(got, dim, zero) == ref_convolve(comult, zero, f, g)


@settings(max_examples=150, deadline=None)
@given(**CASES)
def test_pair(seed, order, poly):
    """_pair skips a zero value or coefficient: it makes the products of
    the sum over the other terms, never more than the sum it replaced."""
    rng, dim, zero = _case(seed, order, poly)
    values = _dense(rng, order, dim, poly)
    terms = _terms(rng, order, range(dim))
    if rng.random() < 0.3:
        terms.append((rng.randrange(dim), CycNumber.zero(order)))
    got, want = same_work(
        lambda: _pair(values, terms, zero),
        lambda: ref_linear_form(values, zero, [(i, c) for i, c in terms
                                               if values[i] and c]))
    assert got == want
    with products() as n:
        _pair(values, terms, zero)
    with products() as m:
        assert ref_linear_form(values, zero, terms) == got
    assert n[0] <= m[0]


# -- products made by the verifiers that now run on the kernel ---------------

def test_verifier_products_are_unchanged(monkeypatch):
    """exact_arith._mul calls, as counted before the kernel replaced the
    loops in verify_hopf_morphism and in the coaction verifiers, except
    that the counit check of the morphism no longer multiplies by the
    counit's zero values (3,368 products where it made 3,428), and that
    the coaction verifier runs the action verifier's rows on H* (863
    products where its tensor products made 1,432, and one call per law
    2 * 880).  A polynomial scaled by the constant 1 is returned as it is,
    with no scalar product per coefficient, so the coaction families now
    make 668 of those 863."""
    phi = taft_to_dual(4)
    fams = taft_coaction_families(4)
    n = [0]
    mul = exact_arith._mul

    def counted(a, b):
        n[0] += 1
        return mul(a, b)

    monkeypatch.setattr(exact_arith, "_mul", counted)
    assert verify_hopf_morphism(phi).ok
    assert n[0] == 3368
    n[0] = 0
    for fam in fams:
        assert all(r.ok for r in verify_partial_coaction(fam.algebra,
                                                         fam.values))
    assert n[0] == 668


@pytest.mark.parametrize("build,products", [
    pytest.param(taft_parametric_coaction, 652,
                 id="taft_parametric_coaction"),
    pytest.param(nichols_parametric_coaction, 139,
                 id="nichols_parametric_coaction")])
def test_coaction_verifier_builds_shared_sides_once(monkeypatch, build,
                                                   products):
    """eps(z), z^2 - z and the table Delta(z) of lam(f) = f(z) on products
    of H* are built once for (C) and (D).  Per basis index h, the row
    y -> z_h z_y is shared by both laws, and each law adds, per term of the
    coproduct of e_h* in H* whose row in that table is not empty, that row
    scaled: one product per entry, with no z (x) 1, z (x) z or tensor
    product.  The tensor products made 1,378 products on taft(4) and 306
    on nichols(4), and one call per law 1,682 and 390.  A row scaled by
    the constant 1 is returned as it is, with no scalar product per
    coefficient: 652 products where that made 822 on taft(4), and 139
    where it made 197 on nichols(4)."""
    fam = build(4)
    n = [0]
    mul = exact_arith._mul

    def counted(a, b):
        n[0] += 1
        return mul(a, b)

    monkeypatch.setattr(exact_arith, "_mul", counted)
    assert all(r.ok for r in verify_partial_coaction(fam.algebra,
                                                     fam.values))
    assert n[0] == products
