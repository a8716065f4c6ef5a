"""Self-duality isomorphisms and action/coaction transport."""
import json
from pathlib import Path

import pytest

from partial_hopf.exact_arith import CycNumber, divisors
from partial_hopf.algebras import group_algebra_cyclic, nichols, taft
from partial_hopf.hopf_core import Report, dense, sparse, validate_all
from partial_hopf.families import (
    nichols_counit_action, nichols_global_coaction, nichols_parametric_action,
    nichols_parametric_coaction, taft_parametric_action,
    taft_parametric_coaction, taft_subgroup_action, taft_subgroup_coaction,
    verify_partial_coaction,
)
from partial_hopf import duality, exact_arith
from partial_hopf.duality import (
    HopfMorphism, check_character_sum, compose, is_identity, nichols_dual,
    nichols_from_dual, nichols_to_dual, taft_dual, taft_from_dual,
    taft_to_dual, transport, verify_hopf_morphism, verify_inverse_pair,
)
from partial_hopf.exact_arith import Rational, cyc_invert, zeta_pow
from partial_hopf.qcomb import q_factorial

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("n", range(2, 6))
def test_taft_dual_validates(n):
    assert validate_all(taft_dual(n)).ok


@pytest.mark.parametrize("n", range(2, 5))
def test_nichols_dual_validates(n):
    assert validate_all(nichols_dual(n)).ok


@pytest.mark.parametrize("n", range(2, 6))
def test_taft_iso_is_hopf_morphism(n):
    assert verify_hopf_morphism(taft_to_dual(n)).ok
    assert verify_hopf_morphism(taft_from_dual(n)).ok


def taft_from_dual_closed_form(n, i, j):
    """(g^i x^j)* |-> (1/n) ((j)!_q)^(-1) q^(ij + j(j-1)/2)
    sum_k q^(k(i+j)) g^k x^j, as the row of taft_from_dual(n)."""
    c = (CycNumber.from_rational(n, Rational(1, n))
         * cyc_invert(q_factorial(j, zeta_pow(n, 1)))
         * zeta_pow(n, i * j + j * (j - 1) // 2))
    return tuple((k * n + j, c * zeta_pow(n, k * (i + j))) for k in range(n))


@pytest.mark.parametrize("n", range(2, 6))
def test_taft_iso_round_trip(n):
    psi, phi = taft_to_dual(n), taft_from_dual(n)
    assert is_identity(compose(phi, psi))
    assert is_identity(compose(psi, phi))
    if n <= 3:
        for i, j in [(0, 0), (1, 0), (0, 1), (1, 1), (n - 1, n - 1)]:
            assert phi.rows[i * n + j] == taft_from_dual_closed_form(n, i, j)


@pytest.mark.parametrize("n", range(2, 5))
def test_nichols_iso(n):
    psi = nichols_to_dual(n)
    assert verify_hopf_morphism(psi).ok
    assert is_identity(compose(nichols_from_dual(n), psi))


def image(phi, i):
    """phi(e_i) as dense target coordinates."""
    return dense(dict(phi.rows[i]), phi.target.dim,
                 CycNumber.zero(phi.target.order))


def conjugate(c):
    """The complex conjugate of c, summed power by power: zeta^i -> zeta^-i."""
    n = c.order
    return sum((x * zeta_pow(n, -i) for i, x in enumerate(c.num) if x),
               CycNumber.zero(n)) * Rational(1, c.den)


@pytest.mark.parametrize("build,n", [(taft_to_dual, n) for n in range(2, 9)]
                         + [(nichols_to_dual, n) for n in range(2, 7)])
def test_to_dual_rows_are_orthogonal(build, n):
    """M conj(M)^T is diagonal with a nonzero diagonal, where M[i][k] are
    the rows of the to-dual map: the premise of the inverse rule."""
    phi = build(n)
    rows = [dict(row) for row in phi.rows]
    zero = CycNumber.zero(phi.target.order)
    for i, a in enumerate(rows):
        conj = {k: conjugate(c) for k, c in a.items()}
        for l, b in enumerate(rows):
            gram = sum((b[k] * c for k, c in conj.items() if k in b), zero)
            assert bool(gram) == (i == l), (i, l)


def test_inverse_rule_refuses_rows_that_are_not_orthogonal():
    """With one coefficient of taft_to_dual(3) doubled, row x is no longer
    orthogonal to row gx; the rule's map fails the round trips, so the
    pair is swept, not derived."""
    phi = taft_to_dual(3)
    rows = list(phi.rows)
    (k, c), *rest = rows[1]
    rows[1] = ((k, c + c), *rest)
    bad = HopfMorphism(phi.source, phi.target, tuple(rows))
    pair = verify_inverse_pair(bad, duality._inverse(bad))
    assert not pair.round_trip
    assert not pair.derived


def test_taft2_iso_values():
    # psi(g) = 1* - g*, psi(x) = x* - (gx)*, psi(gx) = -x* - (gx)*
    psi = taft_to_dual(2)
    one, zero = CycNumber.one(2), CycNumber.zero(2)
    assert image(psi, 2) == (one, zero, -one, zero)
    assert image(psi, 1) == (zero, one, zero, -one)
    assert image(psi, 3) == (zero, -one, zero, -one)
    assert psi.rows[2] == ((0, one), (2, -one))


def test_morphism_negative_control():
    psi = taft_to_dual(3)
    rows = list(psi.rows)
    rows[1] = rows[2]  # send x and g to the same place: not multiplicative
    bad = HopfMorphism(psi.source, psi.target, tuple(rows))
    assert not verify_hopf_morphism(bad).ok


@pytest.mark.parametrize("n", range(2, 6))
def test_transport_parametric_action_is_parametric_coaction(n):
    got = transport(taft_parametric_action(n), taft_from_dual(n))
    want = taft_parametric_coaction(n)
    assert got.values == want.values
    assert got.params == want.params


@pytest.mark.parametrize("n", range(2, 6))
def test_transport_subgroups_swap_index(n):
    for k in divisors(n):
        got = transport(taft_subgroup_action(n, k), taft_from_dual(n))
        want = taft_subgroup_coaction(n, n // k)
        assert got.values == want.values


@pytest.mark.parametrize("n", range(2, 5))
def test_transport_nichols(n):
    got = transport(nichols_parametric_action(n), nichols_from_dual(n))
    assert got.values == nichols_parametric_coaction(n).values
    got = transport(nichols_counit_action(n), nichols_from_dual(n))
    assert got.values == nichols_global_coaction(n).values


@pytest.mark.parametrize("build,n", [(taft_to_dual, 3), (taft_from_dual, 2),
                                     (nichols_to_dual, 2),
                                     (nichols_from_dual, 3)])
def test_transport_refuses_a_map_onto_another_algebra(build, n):
    """transport takes the map H* -> H onto the family's algebra H; the
    map H -> H* or a map for another algebra is a ValueError."""
    with pytest.raises(ValueError, match="needs a map onto taft\\(3\\)"):
        transport(taft_parametric_action(3), build(n))


@pytest.mark.parametrize("n", range(2, 6))
def test_transported_elements_verify_as_coactions(n):
    fam = transport(taft_parametric_action(n), taft_from_dual(n))
    assert all(r.ok for r in verify_partial_coaction(fam.algebra,
                                                     fam.values))


def test_character_sums():
    for n in range(1, 13):
        for k in divisors(n):
            v = check_character_sum(n, k, n // k)
            assert v.ok, str(v)
    with pytest.raises(ValueError):
        check_character_sum(6, 4, 2)


def test_character_sum_sides_read_as_g_vectors(monkeypatch):
    v = check_character_sum(2, 2, 1)
    assert (v.lhs, v.rhs) == ("(1/2)*g^0 + (1/2)*g^1",) * 2
    assert check_character_sum(6, 2, 3).rhs == "(1/2)*g^0 + (1/2)*g^3"
    # a wrong power of zeta: the failing verdict renders each side itself
    monkeypatch.setattr(duality, "zeta_pow",
                        lambda n, k: CycNumber.zero(n) if k else
                        CycNumber.one(n))
    v = check_character_sum(2, 1, 2)
    assert not v.ok
    assert (v.lhs, v.rhs) == ("(1)*g^0 + (1/2)*g^1", "(1)*g^0")


def test_taft2_and_nichols2_isos_agree():
    # same algebra up to relabeling, so the two closed forms must agree
    # through the relabeling permutation 1,x,g,gx -> 1,g,x1,gx1
    perm = {0: 0, 1: 2, 2: 1, 3: 3}
    t, m = taft_to_dual(2), nichols_to_dual(2)
    for i in range(4):
        for j in range(4):
            assert image(t, i)[j] == image(m, perm[i])[perm[j]]


def test_apply_requires_source_element():
    psi = taft_to_dual(2)
    zero = CycNumber.zero(2)
    with pytest.raises(ValueError, match="9 coordinates"):
        psi.apply((CycNumber.one(2),) + (zero,) * 8, zero)


def test_morphisms_that_do_not_compose_are_refused():
    phi = taft_to_dual(2)                       # taft(2) -> taft(2)^*
    with pytest.raises(ValueError, match="morphisms do not compose"):
        compose(phi, phi)


def test_a_map_between_dimensions_is_neither_identity_nor_invertible():
    H, T = taft(2), group_algebra_cyclic(2)
    one = CycNumber.one(2)
    # g^i x^j -> g^i when j = 0, else 0
    phi = HopfMorphism(H, T, (((0, one),), (), ((1, one),), ()))
    assert not is_identity(phi)


# -- reports of faulted morphisms -------------------------------------------

def reference_verify_hopf_morphism(phi):
    """The morphism check computed loop by loop, as before it ran on the
    sparse kernel, with the dict-repr failure texts it had then."""
    S, T = phi.source, phi.target
    rep = Report("morphism(%s->%s)" % (S.name, T.name))
    imgs = [dict(row) for row in phi.rows]
    zero = CycNumber.zero(T.order)

    def add(acc, key, c):
        s = acc.get(key, zero) + c
        if s.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = s

    unit_img = {}
    for i, c in S.unit:
        for j, m in imgs[i].items():
            unit_img[j] = unit_img.get(j, zero) + c * m
    want = {i: c for i, c in T.unit}
    rep.count()
    if {k: v for k, v in unit_img.items() if not v.is_zero()} != want:
        rep.fail("unit", (), str(unit_img), str(want))
    for i in range(S.dim):
        acc = zero
        for j, m in imgs[i].items():
            acc = acc + m * T.counit[j]
        rep.count()
        if acc != S.counit[i]:
            rep.fail("counit", (S.basis[i],), str(acc), str(S.counit[i]))
    for i in range(S.dim):
        for j in range(S.dim):
            lhs, rhs = {}, {}
            for k, c in S.mult.get((i, j), ()):
                for t, m in imgs[k].items():
                    add(lhs, t, c * m)
            for a, x in imgs[i].items():
                for b, y in imgs[j].items():
                    for k, c in T.mult.get((a, b), ()):
                        add(rhs, k, x * y * c)
            rep.count()
            if lhs != rhs:
                rep.fail("multiplicative", (S.basis[i], S.basis[j]),
                         str(lhs), str(rhs))
    for i in range(S.dim):
        lhs, rhs = {}, {}
        for (a, b), c in S.comult[i]:
            for p, u in imgs[a].items():
                for q, v in imgs[b].items():
                    add(lhs, (p, q), c * u * v)
        for j, m in imgs[i].items():
            for (p, q), c in T.comult[j]:
                add(rhs, (p, q), m * c)
        rep.count()
        if lhs != rhs:
            rep.fail("comultiplicative", (S.basis[i],), str(lhs), str(rhs))
    return rep


def image_faults(phi):
    """Every single-coefficient fault of phi's dense images: a nonzero
    coefficient doubled, a zero one plus 1."""
    for i in range(phi.source.dim):
        img = image(phi, i)
        for j, c in enumerate(img):
            bad = img[:j] + (c + c if c else c + 1,) + img[j + 1:]
            rows = (phi.rows[:i] + (tuple(sorted(sparse(bad).items())),)
                    + phi.rows[i + 1:])
            yield "%d,%d" % (i, j), HopfMorphism(phi.source, phi.target,
                                                 rows)


@pytest.mark.parametrize("build,n", [(taft_from_dual, 3), (nichols_to_dual, 3)])
def test_faulted_morphism_reports_keep_their_checks(build, n):
    """Every fault is caught, and the report names the same checks at the
    same places, in the same order, as before."""
    for label, phi in image_faults(build(n)):
        rep = verify_hopf_morphism(phi)
        ref = reference_verify_hopf_morphism(phi)
        assert not rep.ok, label
        assert rep.checks_run == ref.checks_run
        assert ([(f.check, f.where) for f in rep.failures]
                == [(f.check, f.where) for f in ref.failures]), label
        for f in rep.failures:
            assert "CycNumber" not in f.lhs + f.rhs, label


GOLDEN_MORPHISM_FAULTS = (("taft", "0,0"), ("taft", "1,1"),
                          ("nichols", "3,2"))


def _golden_morphism_reports() -> dict:
    builds = {"taft": taft_from_dual(3), "nichols": nichols_to_dual(3)}
    out = {}
    for name, label in GOLDEN_MORPHISM_FAULTS:
        rep = verify_hopf_morphism(dict(image_faults(builds[name]))[label])
        out["%s %s" % (name, label)] = {
            "checks": rep.checks_run,
            "failures": [str(f) for f in rep.failures]}
    return out


def test_faulted_morphism_reports_match_golden():
    """Failures name target basis labels and rendered scalars, sorted, with
    no zero terms."""
    want = json.loads((GOLDEN / "morphism_failures.json").read_text())
    assert _golden_morphism_reports() == want


# -- the inverse pair: psi's verdict derived from phi's ---------------------

PAIRS = {"taft": (taft_to_dual, taft_from_dual),
         "nichols": (nichols_to_dual, nichols_from_dual)}


def _verdict(rep):
    return rep.ok, [str(f) for f in rep.failures]


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("faulted", ["phi", "psi"])
def test_inverse_pair_sweeps_psi_when_the_derivation_fails(name, faulted):
    """With a faulted phi or a faulted psi the derivation does not apply,
    and psi's report is the full sweep's: same verdict, same failures."""
    to, back = PAIRS[name]
    phi, psi = to(3), back(3)
    for label, bad in image_faults(phi if faulted == "phi" else psi):
        pair = (verify_inverse_pair(bad, psi) if faulted == "phi"
                else verify_inverse_pair(phi, bad))
        want = verify_hopf_morphism(psi if faulted == "phi" else bad)
        assert not pair.derived and not pair.round_trip, label
        assert _verdict(pair.psi) == _verdict(want), label
        assert pair.psi.checks_run == want.checks_run, label
        if faulted == "phi":
            assert not pair.phi.ok, label


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_inverse_pair_derives_psi_with_one_sweep(monkeypatch, name, n):
    """An unfaulted pair makes one verify_hopf_morphism call, for phi;
    psi's report is derived, and it is what its own sweep reports."""
    calls = []
    sweep = duality.verify_hopf_morphism
    monkeypatch.setattr(duality, "verify_hopf_morphism",
                        lambda phi: calls.append(phi) or sweep(phi))
    to, back = PAIRS[name]
    pair = verify_inverse_pair(to(n), back(n))
    assert calls == [to(n)]
    assert pair.derived and pair.round_trip and pair.phi.ok
    assert pair.psi.checks_run == 0
    assert _verdict(pair.psi) == _verdict(sweep(back(n))) == (True, [])


# exact_arith._mul calls of the from-dual map at n = 5, with its cache
# cleared and the to-dual map it inverts already built.  taft: 5 products
# per row for the squared norm D_i and 5 for the scaled conjugates,
# 25 * 10 = 250, and cyc_invert(D_i) makes 3 for each of the 15 rows with
# j >= 2, where D_i = 5 |(j)!_q|^2 is irrational: 295.  nichols: 32 rows of
# 2 entries, 2 + 2 products each, and D_i = 2 inverts with none: 128.
@pytest.mark.parametrize("name,want", [("taft", 295), ("nichols", 128)])
def test_from_dual_scalar_products(monkeypatch, name, want):
    to, back = PAIRS[name]
    to(5)
    back.cache_clear()
    calls = [0]
    mul = exact_arith._mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(exact_arith, "_mul", counted)
    back(5)
    assert calls[0] == want
