"""The Hopf-axiom validators against a per-tuple reference, under faults.

``reference_validate_bialgebra`` is the earlier validator that built and
subtracted two coefficient dicts for every basis triple (associativity) and
every basis pair (Delta-multiplicativity).  The validator in ``hopf_core``
walks only the nonzero structure constants, regroups the products of the
Delta-multiplicativity sweep and takes only the generators of a generation
certificate as the first index of associativity and the multiplicativity
axioms; it must give the same report, check count and failure strings
included.  Its scalar products and the certificates are pinned.

The golden files were captured from the per-tuple implementation.
"""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from partial_hopf import exact_arith
from partial_hopf.algebras import (
    dual_group_algebra_cyclic, group_algebra_cyclic, nichols, taft,
)
from partial_hopf.duality import taft_dual
from partial_hopf.exact_arith import CycNumber, ParamPoly, euler_phi, zeta_pow
from partial_hopf.hopf_core import (
    HopfData, Report, _generators, validate_all, validate_bialgebra,
    validate_metadata, vec_mul,
)

from fraction_scalars import cyc, rat

GOLDEN = Path(__file__).parent / "golden"


# -- the per-tuple reference ------------------------------------------------

def _ref_add(acc, key, c):
    prev = acc.get(key)
    acc[key] = c if prev is None else prev + c


def _ref_iszero(d):
    return all(v.is_zero() for v in d.values())


def _ref_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        prev = out.get(k)
        out[k] = -v if prev is None else prev - v
    return out


def _ref_str(d, H, pair=False):
    parts = []
    for k in sorted(d):
        v = d[k]
        if v.is_zero():
            continue
        if pair:
            lbl = "%s(x)%s" % (H.basis[k[0]], H.basis[k[1]])
        elif isinstance(k, tuple):
            lbl = "(x)".join(H.basis[i] for i in k)
        else:
            lbl = H.basis[k]
        parts.append("(%s)*%s" % (v.render(), lbl))
    return " + ".join(parts) if parts else "0"


def reference_validate_bialgebra(H: HopfData) -> Report:
    """Every bialgebra axiom, one basis tuple at a time."""
    rep = Report("bialgebra(%s)" % H.name)
    dim, mult = H.dim, H.mult
    zero = H.zero_scalar()
    one = H.one_scalar()

    unit = dict(H.unit)
    for i in range(dim):
        for flip in (False, True):
            acc: dict = {}
            for a, ua in unit.items():
                row = mult.get((a, i) if not flip else (i, a))
                if row:
                    for k, c in row:
                        _ref_add(acc, k, ua * c)
            _ref_add(acc, i, -one)
            rep.count()
            if not _ref_iszero(acc):
                rep.fail("unit_law", (("1*e" if not flip else "e*1"), i),
                         _ref_str(acc, H), "0")

    for i in range(dim):
        for j in range(dim):
            row_ij = mult.get((i, j), ())
            for k in range(dim):
                left: dict = {}
                for m, c in row_ij:
                    row2 = mult.get((m, k))
                    if row2:
                        for t, c2 in row2:
                            _ref_add(left, t, c * c2)
                right: dict = {}
                for m, c in mult.get((j, k), ()):
                    row2 = mult.get((i, m))
                    if row2:
                        for t, c2 in row2:
                            _ref_add(right, t, c * c2)
                rep.count()
                diff = _ref_sub(left, right)
                if not _ref_iszero(diff):
                    rep.fail("associativity", (i, j, k),
                             _ref_str(left, H), _ref_str(right, H))

    for i in range(dim):
        lacc: dict = {}
        racc: dict = {}
        for (j, k), c in H.comult[i]:
            ej = H.counit[j]
            if ej:
                _ref_add(lacc, k, c * ej)
            ek = H.counit[k]
            if ek:
                _ref_add(racc, j, c * ek)
        _ref_add(lacc, i, -one)
        _ref_add(racc, i, -one)
        rep.count(2)
        if not _ref_iszero(lacc):
            rep.fail("counit_left", (i,), _ref_str(lacc, H), "0")
        if not _ref_iszero(racc):
            rep.fail("counit_right", (i,), _ref_str(racc, H), "0")

    for i in range(dim):
        left: dict = {}
        right: dict = {}
        for (j, k), c in H.comult[i]:
            for (a, b), c2 in H.comult[j]:
                _ref_add(left, (a, b, k), c * c2)
            for (a, b), c2 in H.comult[k]:
                _ref_add(right, (j, a, b), c * c2)
        rep.count()
        diff = _ref_sub(left, right)
        if not _ref_iszero(diff):
            rep.fail("coassociativity", (i,),
                     _ref_str(left, H), _ref_str(right, H))

    for i in range(dim):
        ci = H.comult[i]
        for j in range(dim):
            lhs: dict = {}
            for k, c in mult.get((i, j), ()):
                for (a, b), c2 in H.comult[k]:
                    _ref_add(lhs, (a, b), c * c2)
            rhs: dict = {}
            for (a1, b1), c1 in ci:
                for (a2, b2), c2 in H.comult[j]:
                    ra = mult.get((a1, a2))
                    if not ra:
                        continue
                    rb = mult.get((b1, b2))
                    if not rb:
                        continue
                    c12 = c1 * c2
                    for a, ca in ra:
                        for b, cb in rb:
                            _ref_add(rhs, (a, b), c12 * (ca * cb))
            rep.count()
            diff = _ref_sub(lhs, rhs)
            if not _ref_iszero(diff):
                rep.fail("comult_multiplicative", (i, j),
                         _ref_str(lhs, H, pair=True),
                         _ref_str(rhs, H, pair=True))

    for i in range(dim):
        for j in range(dim):
            acc = zero
            for k, c in mult.get((i, j), ()):
                ek = H.counit[k]
                if ek:
                    acc = acc + c * ek
            rep.count()
            if acc != H.counit[i] * H.counit[j]:
                rep.fail("counit_multiplicative", (i, j), acc.render(),
                         (H.counit[i] * H.counit[j]).render())
    d1: dict = {}
    for i, ui in H.unit:
        for (j, k), c in H.comult[i]:
            _ref_add(d1, (j, k), ui * c)
    for i, ui in H.unit:
        for j, uj in H.unit:
            _ref_add(d1, (i, j), -(ui * uj))
    rep.count()
    if not _ref_iszero(d1):
        rep.fail("comult_of_unit", (), _ref_str(d1, H, pair=True), "0")
    eps1 = zero
    for i, ui in H.unit:
        eps1 = eps1 + ui * H.counit[i]
    rep.count()
    if eps1 != one:
        rep.fail("counit_of_unit", (), eps1.render(), "1")
    return rep


def _outcome(rep: Report):
    return rep.checks_run, [str(f) for f in rep.failures]


# -- faults -----------------------------------------------------------------

def perturbations(H: HopfData):
    """Every single-coefficient fault of H as (label, perturbed copy): each
    nonzero mult, comult and antipode coefficient doubled, and each counit
    value plus one."""
    for key in sorted(H.mult):
        row = H.mult[key]
        for t, (k, c) in enumerate(row):
            if c:
                mult = dict(H.mult)
                mult[key] = row[:t] + ((k, c + c),) + row[t + 1:]
                yield ("mult%s[%d]" % (key, t),
                       H._replace(mult=mult))
    for i, row in enumerate(H.comult):
        for t, (jk, c) in enumerate(row):
            if c:
                comult = list(H.comult)
                comult[i] = row[:t] + ((jk, c + c),) + row[t + 1:]
                yield ("comult[%d][%d]" % (i, t),
                       H._replace(comult=tuple(comult)))
    for i, row in enumerate(H.antipode):
        for t, (j, c) in enumerate(row):
            if c:
                antipode = list(H.antipode)
                antipode[i] = row[:t] + ((j, c + c),) + row[t + 1:]
                yield ("antipode[%d][%d]" % (i, t),
                       H._replace(antipode=tuple(antipode)))
    for i in range(H.dim):
        counit = list(H.counit)
        counit[i] = counit[i] + 1
        yield ("counit[%d]" % i,
               H._replace(counit=tuple(counit)))


# -- isomorphic copies with non-unit denominators ---------------------------

def rescaled(H: HopfData, seed: int) -> HopfData:
    """H in the basis f_p = r_i e_i, p = perm[i], for a seeded permutation
    and seeded rationals r_i = a/b (|a|, b <= 7; r_i = 1 for the group-likes
    and the group-like indices of the skew-primitives, which must keep
    coefficient 1).  Its structure constants have denominators up to 245
    (taft 3), so the validators' regrouped products meet non-unit
    denominators."""
    rng = random.Random(seed)
    dim = H.dim
    perm = list(range(dim))
    rng.shuffle(perm)
    fixed = set(H.grouplikes)
    for _x, g, h in H.skew_primitives:
        fixed.update((g, h))
    nonzero = [v for v in range(-7, 8) if v]
    r = [Fraction(1) if i in fixed
         else Fraction(rng.choice(nonzero), rng.randint(1, 7))
         for i in range(dim)]

    def scale(f):
        return rat(H.order, f)

    mult = {(perm[i], perm[j]):
            tuple((perm[k], c * scale(r[i] * r[j] / r[k])) for k, c in row)
            for (i, j), row in H.mult.items()}
    comult = [()] * dim
    antipode = [()] * dim
    basis = [None] * dim
    counit = [None] * dim
    degrees = [None] * dim
    for i in range(dim):
        comult[perm[i]] = tuple(
            ((perm[j], perm[k]), c * scale(r[i] / (r[j] * r[k])))
            for (j, k), c in H.comult[i])
        antipode[perm[i]] = tuple((perm[j], c * scale(r[i] / r[j]))
                                  for j, c in H.antipode[i])
        basis[perm[i]] = H.basis[i]
        counit[perm[i]] = H.counit[i] * scale(r[i])
        degrees[perm[i]] = H.degree(i)
    assert not H.grouplike_vectors
    return HopfData(
        name="rescaled " + H.name, dim=dim, order=H.order, basis=tuple(basis),
        mult=mult, unit=tuple((perm[i], c * scale(1 / r[i]))
                              for i, c in H.unit),
        comult=tuple(comult), counit=tuple(counit), antipode=tuple(antipode),
        grouplikes=tuple(perm[g] for g in H.grouplikes),
        skew_primitives=tuple((perm[x], perm[g], perm[h])
                              for x, g, h in H.skew_primitives),
        basis_degrees=tuple(degrees))


def rescaled_taft(n):
    return rescaled(taft(n), n)


def rescaled_nichols(n):
    return rescaled(nichols(n), n)


@pytest.mark.parametrize("build", [rescaled_taft, rescaled_nichols])
def test_rescaled_copies_are_hopf_algebras_with_fractions(build):
    H = build(3)
    assert validate_all(H).ok
    dens = {c.den for row in H.mult.values() for _k, c in row}
    dens |= {c.den for row in H.comult for _jk, c in row}
    assert len(dens) > 2


FAULT_BASES = {"taft3": (taft, 3), "nichols3": (nichols, 3)}
# the same faults on the rescaled copies: products with non-unit denominators
RESCALED_FAULT_BASES = {"taft3_rescaled": (rescaled_taft, 3),
                        "nichols3_rescaled": (rescaled_nichols, 3)}


def _faults(name):
    build, n = {**FAULT_BASES, **RESCALED_FAULT_BASES}[name]
    return list(perturbations(build(n)))


def test_fault_suite_size_and_reach():
    faults = {name: _faults(name) for name in FAULT_BASES}
    assert sum(len(f) for f in faults.values()) == 160
    for name, cases in faults.items():
        build, n = FAULT_BASES[name]
        last = build(n).dim - 1
        # faults on the last first index catch an off-by-one in the slicing
        assert any(label.startswith("mult(%d," % last) for label, _ in cases)
        assert "comult[%d][0]" % last in dict(cases)


@pytest.mark.parametrize("name", sorted(FAULT_BASES)
                         + sorted(RESCALED_FAULT_BASES))
def test_every_single_coefficient_fault_is_rejected(name):
    for label, H in _faults(name):
        rep = validate_all(H)
        assert not rep.ok, "%s: %s accepted" % (name, label)
        assert _outcome(validate_bialgebra(H)) == _outcome(
            reference_validate_bialgebra(H)), label


GOLDEN_FAULTS = (
    ("taft3", "mult(0, 0)[0]"), ("taft3", "mult(3, 1)[0]"),
    ("taft3", "mult(8, 6)[0]"), ("taft3", "comult[1][1]"),
    ("taft3", "comult[8][2]"), ("taft3", "antipode[1][0]"),
    ("taft3", "counit[3]"),
    ("nichols3", "mult(1, 2)[0]"), ("nichols3", "mult(7, 1)[0]"),
    ("nichols3", "comult[2][1]"), ("nichols3", "comult[7][3]"),
    ("nichols3", "antipode[6][0]"), ("nichols3", "counit[0]"),
)


def _golden_fault_reports() -> dict:
    out = {}
    for name, label in GOLDEN_FAULTS:
        rep = validate_all(dict(_faults(name))[label])
        out["%s %s" % (name, label)] = {
            "checks": rep.checks_run,
            "failures": [str(f) for f in rep.failures]}
    return out


def test_fault_reports_match_golden():
    want = json.loads((GOLDEN / "validate_failures.json").read_text())
    assert _golden_fault_reports() == want


# -- random sparse tables ---------------------------------------------------

def _scalar(rng, order):
    roll = rng.random()
    if roll < 0.1:
        return CycNumber.zero(order)
    if roll < 0.55:
        return rat(order, rng.choice((1, -1, 2, -3, Fraction(1, 2))))
    if roll < 0.8:
        return zeta_pow(order, rng.randrange(order)) * rng.choice((1, -1))
    return cyc(order, [rng.randint(-2, 2) for _ in range(euler_phi(order))])


def _terms(rng, order, key):
    """One to three terms, sometimes followed by the term that cancels it."""
    out = []
    for _ in range(rng.randint(1, 3)):
        k, c = key(), _scalar(rng, order)
        out.append((k, c))
        if rng.random() < 0.3:
            out.append((k, -c))
    return out


def random_table(seed: int) -> HopfData:
    """A sparse structure-constant table that is (almost surely) not a Hopf
    algebra: dim <= 6, order in {1, 2, 3, 4}."""
    rng = random.Random(seed)
    dim, order = rng.randint(1, 6), rng.choice((1, 2, 3, 4))
    density = rng.choice((0.15, 0.4, 0.8))

    def idx():
        return rng.randrange(dim)

    def pair():
        return idx(), idx()

    mult = {(i, j): tuple(_terms(rng, order, idx))
            for i in range(dim) for j in range(dim)
            if rng.random() < density}
    comult = tuple(tuple(_terms(rng, order, pair))
                   if rng.random() < density else () for _ in range(dim))
    unit = tuple((i, _scalar(rng, order)) for i in range(dim)
                 if rng.random() < 0.4)
    counit = tuple(_scalar(rng, order) for _ in range(dim))
    antipode = tuple(tuple(_terms(rng, order, idx)) for _ in range(dim))
    return HopfData(name="random%d" % seed, dim=dim, order=order,
                    basis=tuple("b%d" % i for i in range(dim)), mult=mult,
                    unit=unit, comult=comult, counit=counit,
                    antipode=antipode)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_sparse_validator_matches_reference_on_random_tables(seed):
    H = random_table(seed)
    assert _outcome(validate_bialgebra(H)) == _outcome(
        reference_validate_bialgebra(H))


@pytest.mark.parametrize("build,n", [(taft, 2), (taft, 4), (nichols, 2),
                                     (nichols, 4), (rescaled_taft, 3),
                                     (rescaled_nichols, 3)])
def test_sparse_validator_matches_reference_on_builtins(build, n):
    H = build(n)
    assert _outcome(validate_bialgebra(H)) == _outcome(
        reference_validate_bialgebra(H))


# -- work sentinels ---------------------------------------------------------

CHECKS_RUN = {
    ("taft", 2): 132, ("taft", 3): 965, ("taft", 4): 4734,
    ("taft", 5): 17067, ("taft", 6): 49520,
    ("nichols", 2): 131, ("nichols", 3): 704, ("nichols", 4): 4729,
    ("nichols", 5): 35050, ("nichols", 6): 270795,
}
BUILDERS = {"taft": taft, "nichols": nichols}


@pytest.mark.parametrize("family,n", sorted(CHECKS_RUN))
def test_checks_run_counts_every_basis_tuple(family, n):
    H = BUILDERS[family](n)
    rep = validate_all(H)
    assert rep.ok
    assert rep.checks_run == CHECKS_RUN[(family, n)]


# Associativity and the two multiplicativity axioms run only with the
# certificate's generators as first index (g, x for taft; g, x1..x_{n-1}
# for nichols), so validate_all makes the products of the checks with no
# first index (unit and counit laws, coassociativity, Delta(1), eps(1)),
# one slice per generator, and those of the antipode and metadata checks.
# In the slice of e_i, associativity makes one product per side for each
# (j, k) with e_i e_j e_k != 0 (one-term rows), and eps-multiplicativity
# one per term of e_i e_j with a nonzero counit plus dim for
# eps(e_i) eps(e_j).  taft 4: 227 + (476 for g + 416 for x) + 176 = 1,295,
# where g takes 2 * 160 = 320 (all 160 nonzero e_j e_k) for associativity,
# 136 for Delta and 4 + 16 for eps.  taft 8: 2,179 + (5,608 + 5,168)
# + 1,216; nichols 5: 1,155 + (1,200 + 4 * 836) + 680; nichols 6: 4,355
# + (3,532 + 5 * 2,428) + 2,008.
SCALAR_PRODUCTS = {("nichols", 5): 6379, ("nichols", 6): 22035,
                   ("taft", 4): 1295, ("taft", 8): 14171}


@pytest.mark.parametrize("family,n", sorted(SCALAR_PRODUCTS))
def test_validation_makes_the_same_scalar_products(monkeypatch, family, n):
    H = BUILDERS[family](n)
    calls = [0]
    mul = exact_arith._mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(exact_arith, "_mul", counted)
    assert validate_all(H).ok
    assert calls[0] == SCALAR_PRODUCTS[(family, n)]


# -- the generation certificate ---------------------------------------------

def rebased_products(H: HopfData) -> HopfData:
    """H with only its product table moved to the basis f_0 = e_0,
    f_i = e_i + e_(i+1) for 0 < i < dim - 1, f_(dim-1) = e_(dim-1): an
    algebra with the same unit whose products have several terms, so a
    vector is often reached only after another term of its row is."""
    dim = H.dim
    one = H.one_scalar()
    inner = range(1, dim - 1)
    f = [{i: one, i + 1: one} if i in inner else {i: one} for i in range(dim)]
    # e_i = f_i - e_(i+1) inside, e_i = f_i at both ends
    e = [None] * dim
    for i in reversed(range(dim)):
        e[i] = {i: one}
        if i in inner:
            for k, c in e[i + 1].items():
                e[i][k] = -c
    mult = {}
    for a in range(dim):
        for b in range(dim):
            acc: dict = {}
            for k, c in vec_mul(H.mult, f[a], f[b]).items():
                for t, d in e[k].items():
                    acc[t] = acc.get(t, 0) + c * d
            row = tuple(sorted((t, c) for t, c in acc.items() if c))
            if row:
                mult[(a, b)] = row
    return H._replace(name="rebased " + H.name, mult=mult)


def rebased_taft(n):
    return rebased_products(taft(n))


def rebased_nichols(n):
    return rebased_products(nichols(n))


CERTIFIED = (
    [(taft, n, 2) for n in range(2, 9)]
    + [(nichols, n, n) for n in range(2, 7)]
    + [(group_algebra_cyclic, m, 1) for m in (2, 3, 7, 12)]
    # a multi-term unit: every basis vector is a generator
    + [(dual_group_algebra_cyclic, m, m) for m in (2, 3, 7, 12)]
    + [(rescaled_taft, n, 2) for n in (2, 3, 5)]
    + [(rescaled_nichols, n, n) for n in (2, 3, 5)]
    # multi-term products: the degree order no longer matches the table
    + [(rebased_taft, 2, 3), (rebased_taft, 3, 2), (rebased_taft, 4, 3),
       (rebased_nichols, 2, 3), (rebased_nichols, 3, 4),
       (rebased_nichols, 4, 7)]
)


def _span_closure_dim(H: HopfData, vectors) -> int:
    """dim of the smallest subspace that holds ``vectors`` and is closed
    under left products by them, by exact row reduction: for vectors that
    hold the unit, the subalgebra they generate."""
    rows: dict = {}  # pivot -> row with keys >= pivot, pivot coefficient 1

    def reduce(v):
        for p in sorted(rows):
            c = v.get(p)
            if c:
                for k, a in rows[p].items():
                    v[k] = v.get(k, 0) - c * a
                v = {k: a for k, a in v.items() if a}
        return v

    todo = [dict(v) for v in vectors]
    while todo:
        v = reduce(todo.pop())
        if not v:
            continue
        p = min(v)
        rows[p] = {k: a / v[p] for k, a in v.items()}
        todo.extend(vec_mul(H.mult, g, v) for g in vectors)
    return len(rows)


@pytest.mark.parametrize("build,n,count", CERTIFIED)
def test_generators_generate_the_algebra(build, n, count):
    H = build(n)
    gens = _generators(H)
    assert len(gens) == count
    assert len(set(gens)) == count
    one = H.one_scalar()
    vectors = [dict(H.unit)] + [{g: one} for g in gens]
    assert _span_closure_dim(H, vectors) == H.dim


@pytest.mark.parametrize("build", [rescaled_taft, rescaled_nichols])
def test_rescaled_copies_keep_the_generator_count(build):
    base = {rescaled_taft: taft, rescaled_nichols: nichols}[build]
    for n in range(2, 6):
        assert len(_generators(build(n))) == len(_generators(base(n)))


# -- declared group-like vectors --------------------------------------------

def _with_characters(H, vectors):
    return H._replace(grouplike_vectors=tuple(
        tuple(vec) for vec in vectors))


def test_faulted_character_fails_with_sorted_labels():
    D = taft_dual(3)
    trivial = list(D.grouplike_vectors[0])  # 1* + g* + g^2*
    trivial[D.label_index("g*")] = CycNumber.zero(3)
    rep = validate_metadata(_with_characters(D, [trivial]))
    assert rep.checks_run == 2
    assert [str(f) for f in rep.failures] == [
        "grouplike_vector_comult at ('1', '0', '0', '0', '0', '0', '1', "
        "'0', '0'): (1)*1*(x)1* + (1)*1*(x)g^2* + (1)*g*(x)g* "
        "+ (1)*g*(x)g^2* + (1)*g^2*(x)1* + (1)*g^2*(x)g* "
        "!= (1)*1*(x)1* + (1)*1*(x)g^2* + (1)*g^2*(x)1* + (1)*g^2*(x)g^2*"]


def test_scaled_character_fails_both_checks():
    D = taft_dual(3)
    doubled = [c * 2 for c in D.grouplike_vectors[1]]
    rep = validate_metadata(_with_characters(D, [doubled]))
    assert rep.checks_run == 2
    assert [f.check for f in rep.failures] == [
        "grouplike_vector_comult", "grouplike_vector_counit"]
    assert str(rep.failures[1]) == "grouplike_vector_counit at (): 2 != 1"


@pytest.mark.parametrize("build,n", [(taft_dual, 3),
                                     (dual_group_algebra_cyclic, 6)])
def test_metadata_checks_characters_without_polynomials(monkeypatch, build,
                                                       n):
    H = build(n)
    calls = [0]
    mul = ParamPoly.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(ParamPoly, "__mul__", counted)
    monkeypatch.setattr(ParamPoly, "__rmul__", counted)
    rep = validate_metadata(H)
    assert rep.ok and rep.checks_run == 2 * len(H.grouplike_vectors) + (
        2 * len(H.grouplikes) + len(H.skew_primitives))
    assert calls[0] == 0
