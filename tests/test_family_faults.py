"""Fault injection for the partial (co)action verifiers.

Every built-in family on small orders is perturbed one coordinate at a
time: a nonzero coordinate is doubled, a zero one becomes 1.  A verifier
that cannot fail proves nothing, so each perturbed family must fail the
plain or the symmetric check, unless the perturbation lands on another
valid family member.  Those few are pinned by name, together with the
member they equal.

The coaction verifier runs the action verifier's rows on H*; its reports
are checked against the tensor-product construction of (C) and (D) that
it replaced, and against the action verifier on ``dual_hopf(H)``.
"""
import random

import pytest

from partial_hopf.algebras import (
    dual_group_algebra_cyclic, group_algebra_cyclic, nichols, nichols_dual,
    taft, taft_dual,
)
from partial_hopf.exact_arith import CycNumber, ParamPoly, zeta_pow
from partial_hopf.families import (
    dual_group_action_families, group_action_families,
    group_subgroup_action, instance_residual, nichols_action_families,
    nichols_coaction_families, taft_action_families, taft_coaction_families,
    verify_partial_action, verify_partial_coaction,
)
from partial_hopf.hopf_core import (
    Report, _cdict_add, _compare, _pair, dual_hopf, sparse, vec_map, vec_mul,
)

from product_refs import ref_tensor_mul

ACTIONS = [(taft_action_families, n) for n in (2, 3, 4)]
ACTIONS += [(nichols_action_families, n) for n in (2, 3)]
ACTIONS += [(listing, n) for listing in (group_action_families,
                                         dual_group_action_families)
            for n in (1, 4, 6)]
COACTIONS = [(taft_coaction_families, n) for n in (2, 3, 4)]
COACTIONS += [(nichols_coaction_families, n) for n in (2, 3)]


def _perturbed(coords, i):
    c = coords[i]
    new = c + c if c else c + 1
    return coords[:i] + (new,) + coords[i + 1:]


def _faults(kind):
    """(label, algebra, perturbed coordinates) for every single-coordinate
    fault of every family of ``kind``."""
    out = []
    for listing, n in ACTIONS if kind == "action" else COACTIONS:
        for fam in listing(n):
            H = fam.algebra
            for i in range(H.dim):
                label = "%s %s %s[%d]" % (kind, H.name, fam.name, i)
                out.append((label, H, _perturbed(fam.values, i)))
    return out


def _doubled(coords, order, param):
    p = ParamPoly.var(order, param)
    return tuple(c.subs(param, p + p) for c in coords)


def _coaction_member(listing, n, param):
    """The parametric coaction family of ``listing(n)`` at param -> 2 param."""
    fam = listing(n)[-1]
    assert fam.name == "parametric"
    return _doubled(fam.values, fam.algebra.order, param)


# perturbations that give another member of a classified family
VALID = {
    "action kC_4 subgroup<g^4>[2]": lambda: group_subgroup_action(
        4, 2).values,
    "action kC_6 subgroup<g^6>[3]": lambda: group_subgroup_action(
        6, 3).values,
    "coaction taft(2) parametric[3]": lambda: _coaction_member(
        taft_coaction_families, 2, "a"),
    "coaction nichols(2) parametric[3]": lambda: _coaction_member(
        nichols_coaction_families, 2, "a1"),
    "coaction nichols(3) parametric[3]": lambda: _coaction_member(
        nichols_coaction_families, 3, "a1"),
    "coaction nichols(3) parametric[5]": lambda: _coaction_member(
        nichols_coaction_families, 3, "a2"),
}


def test_fault_suite_size():
    assert len(_faults("action")) == 172
    assert len(_faults("coaction")) == 98


@pytest.mark.parametrize("kind", ["action", "coaction"])
def test_every_coordinate_fault_is_caught(kind):
    verify = verify_partial_action if kind == "action" \
        else verify_partial_coaction
    accepted = []
    for label, H, coords in _faults(kind):
        if all(r.ok for r in verify(H, coords)):
            accepted.append(label)
            assert label in VALID, "%s accepted" % label
            assert coords == VALID[label](), label
    assert sorted(accepted) == sorted(k for k in VALID
                                      if k.startswith(kind + " "))


def symmetric_residual(H, values, h, y):
    """One (h, y) instance of (B), from its formula:
    lam(h) lam(y) - sum c lam(h_1 y) lam(h_2)."""
    zero = ParamPoly.zero(H.order)
    rhs = zero
    for (a, b), c in H.comult[h]:
        on = zero
        for k, d in H.mult.get((a, y), ()):
            on = on + values[k] * d
        rhs = rhs + on * values[b] * c
    return values[h] * values[y] - rhs


def reference_verify_partial_action(H, values):
    """The action verifier as it ran before it built lam on products once:
    one residual per ordered basis pair and report, the (A) residual from
    ``instance_residual`` and the (B) residual from its formula."""
    unit = ParamPoly.zero(H.order)
    for i, c in H.unit:
        unit = unit + values[i] * c
    zero = ParamPoly.zero(H.order)
    reps = []
    for which, residual in (("partial_action", instance_residual),
                            ("symmetric_action", symmetric_residual)):
        rep = Report("%s(%s)" % (which, H.name))
        rep.expect("unital", ("1",), unit, ParamPoly.one(H.order))
        for h in range(H.dim):
            for y in range(H.dim):
                rep.expect(which, (H.basis[h], H.basis[y]),
                           residual(H, values, h, y), zero)
        reps.append(rep)
    return reps


def _failures(rep):
    return [(f.check, f.where, f.lhs, f.rhs) for f in rep.failures]


@pytest.mark.parametrize("symmetric", [False, True])
def test_action_verifier_matches_per_pair_reference(symmetric):
    """On every action fault, the verifier's plain report (or, with
    ``symmetric``, its symmetric report) is what the per-pair residual loop
    reports: the same subject and check count and the same failures, in the
    same order, with the same rendered sides."""
    failing = 0
    for label, H, coords in _faults("action"):
        rep = verify_partial_action(H, coords)[symmetric]
        ref = reference_verify_partial_action(H, coords)[symmetric]
        assert rep.subject == ref.subject, label
        assert rep.checks_run == ref.checks_run, label
        assert _failures(rep) == _failures(ref), label
        failing += not ref.ok
    assert failing == 170   # all 172 but the two VALID members


# -- the coaction verifier against its tensor-product construction -----------

def reference_verify_partial_coaction(H, values):
    """The coaction verifier as it ran before it shared the action
    verifier's rows: Delta(z), z (x) 1 and z (x) z built on the sparse
    kernel, and the residual of (C) or (D) from one tensor product each."""
    eps = _pair(values, enumerate(H.counit), ParamPoly.zero(H.order))
    u = sparse(values)
    dz = vec_map(H.comult, u.items())
    z1 = {(i, j): a * b for i, a in u.items() for j, b in H.unit}
    zz = {(i, j): a * b for i, a in u.items() for j, b in u.items()}
    idem = vec_mul(H.mult, u, u)
    for i, a in u.items():
        _cdict_add(idem, i, -a)
    reps = []
    for which, s, t in (("partial_coaction", z1, dz),
                        ("symmetric_coaction", dz, z1)):
        rep = Report("%s(%s)" % (which, H.name))
        rep.expect("counit_normalization", ("eps(z)",), eps,
                   ParamPoly.one(H.order))
        diff = dict(zz)
        for key, c in ref_tensor_mul(H.mult, s, t).items():
            _cdict_add(diff, key, -c)
        _compare(rep, which, ("z",), diff, {}, H)
        _compare(rep, "idempotent", ("z^2 - z",), idem, {}, H)
        reps.append(rep)
    return reps


def _random_coords(rng, H):
    """dim coordinates, about half of them zero, the others a rational, a
    power of zeta or a parameter times one."""
    zero = ParamPoly.zero(H.order)
    out = []
    for _ in range(H.dim):
        pick = rng.randrange(6)
        if pick < 3:
            out.append(zero)
        elif pick == 3:
            out.append(ParamPoly.const(H.order, CycNumber.from_rational(
                H.order, rng.randint(-3, 3), rng.randint(1, 3))))
        elif pick == 4:
            out.append(ParamPoly.const(
                H.order, zeta_pow(H.order, rng.randrange(H.order))))
        else:
            out.append(ParamPoly.var(H.order, "a")
                       * zeta_pow(H.order, rng.randrange(H.order)))
    return tuple(out)


def _coaction_cases():
    """(label, algebra, z): every coaction family of taft 2-5 and nichols
    2-4 and, on three duals whose unit has several terms, the action
    families of the algebra they dualize (each a coaction of the dual);
    each family as built and with every one-coordinate fault, and three
    random z per algebra."""
    groups = [(taft(n), taft_coaction_families(n)) for n in (2, 3, 4, 5)]
    groups += [(nichols(n), nichols_coaction_families(n)) for n in (2, 3, 4)]
    groups += [(taft_dual(3), taft_action_families(3)),
               (nichols_dual(3), nichols_action_families(3)),
               (dual_group_algebra_cyclic(6), group_action_families(6))]
    rng = random.Random(27)
    out = []
    for H, fams in groups:
        for fam in fams:
            out.append(("%s %s" % (H.name, fam.name), H, fam.values))
            for i in range(H.dim):
                out.append(("%s %s[%d]" % (H.name, fam.name, i), H,
                            _perturbed(fam.values, i)))
        for k in range(3):
            out.append(("%s random %d" % (H.name, k), H,
                        _random_coords(rng, H)))
    return out


def test_coaction_cases_cover_units_with_several_terms():
    cases = _coaction_cases()
    assert len(cases) == 291
    assert {H.name for _, H, _ in cases if len(H.unit) > 1} == {
        "taft(3)^*", "nichols(3)^*", "kC_6^*"}


def test_coaction_verifier_matches_tensor_reference():
    """On every case, both reports equal the tensor-product reference's:
    subject, check count and failures, rendered sides included.  The
    families as built pass, and most faults and random z fail."""
    failing = 0
    for label, H, z in _coaction_cases():
        got = verify_partial_coaction(H, z)
        want = reference_verify_partial_coaction(H, z)
        for rep, ref in zip(got, want):
            assert rep.subject == ref.subject, label
            assert rep.checks_run == ref.checks_run == 3, label
            assert _failures(rep) == _failures(ref), label
        failing += not all(r.ok for r in want)
    assert failing == 260   # all but the 23 families and 8 members


def test_coaction_laws_are_action_laws_of_the_dual():
    """z satisfies (C) exactly when lam(f) = f(z) satisfies (A) on H*, and
    (D) exactly when it satisfies (B), with eps(z) = 1 as the unit law."""
    for label, H, z in _coaction_cases():
        coaction = verify_partial_coaction(H, z)
        action = verify_partial_action(dual_hopf(H), z)
        assert [r.ok for r in coaction] == [r.ok for r in action], label
