"""End-to-end acceptance gate: eight exact-math criteria, timed.

Every assertion is an exact polynomial statement; elapsed times are
printed for information only and never asserted on.
"""
import time

from partial_hopf.algebras import (
    dual_group_algebra_cyclic, group_algebra_cyclic, nichols, taft,
)
from partial_hopf.classify import classify_base_field_actions, family_count
from partial_hopf.cli import run_identity_sweep
from partial_hopf.duality import (
    compose, is_identity, nichols_from_dual, nichols_to_dual, taft_from_dual,
    taft_to_dual, transport, verify_hopf_morphism,
)
from partial_hopf.exact_arith import ParamPoly, divisors
from partial_hopf.families import (
    action_consequence_checks, convolution_idempotent,
    dual_group_action_families, group_action_families,
    nichols_action_families, nichols_coaction_families,
    nichols_counit_action, nichols_global_coaction,
    nichols_parametric_action, nichols_parametric_coaction,
    special_value_checks, taft_action_families, taft_coaction_families,
    taft_parametric_action, taft_parametric_coaction, taft_subgroup_action,
    taft_subgroup_coaction, verify_partial_action, verify_partial_coaction,
)
from partial_hopf.hopf_core import validate_all
from partial_hopf.reference_tables import reference_checks


def _report(num, label, t0):
    print("criterion %d (%s): pass (%.2fs)" % (num, label, time.time() - t0))


def _all_action_families():
    fams = []
    for n in range(2, 7):
        fams.extend(taft_action_families(n))
    for n in range(2, 6):
        fams.extend(nichols_action_families(n))
    for n in range(1, 13):
        fams.extend(group_action_families(n))
        fams.extend(dual_group_action_families(n))
    return fams


def test_criterion_1_hopf_axioms():
    t0 = time.time()
    instances = ([taft(n) for n in range(2, 9)]
                 + [nichols(n) for n in range(2, 7)]
                 + [group_algebra_cyclic(n) for n in range(1, 13)]
                 + [dual_group_algebra_cyclic(n) for n in range(1, 13)])
    for H in instances:
        rep = validate_all(H)
        assert rep.ok, rep.summary()
    _report(1, "Hopf axioms, %d algebras" % len(instances), t0)


def test_criterion_2_action_families_verify_in_parameters():
    t0 = time.time()
    count = 0
    for n in range(2, 7):
        for fam in taft_action_families(n):
            rep = verify_partial_action(fam.algebra, fam.values)
            srep = verify_partial_action(fam.algebra, fam.values,
                                         symmetric=True)
            assert rep.ok, rep.summary()
            assert srep.ok, srep.summary()
            count += 1
    for n in range(2, 6):
        for fam in nichols_action_families(n):
            rep = verify_partial_action(fam.algebra, fam.values)
            srep = verify_partial_action(fam.algebra, fam.values,
                                         symmetric=True)
            assert rep.ok, rep.summary()
            assert srep.ok, srep.summary()
            count += 1
    _report(2, "partial actions, %d families" % count, t0)


def test_criterion_3_coaction_families_verify_in_parameters():
    t0 = time.time()
    count = 0
    for n in range(2, 7):
        for fam in taft_coaction_families(n):
            rep = verify_partial_coaction(fam.algebra, fam.values)
            srep = verify_partial_coaction(fam.algebra, fam.values,
                                           symmetric=True)
            assert rep.ok, rep.summary()
            assert srep.ok, srep.summary()
            count += 1
    for n in range(2, 6):
        for fam in nichols_coaction_families(n):
            rep = verify_partial_coaction(fam.algebra, fam.values)
            srep = verify_partial_coaction(fam.algebra, fam.values,
                                           symmetric=True)
            assert rep.ok, rep.summary()
            assert srep.ok, srep.summary()
            count += 1
    _report(3, "partial coactions, %d families" % count, t0)


def test_criterion_4_self_duality_and_transport():
    t0 = time.time()
    suites = 0
    for n in range(2, 7):
        iso, inv = taft_to_dual(n), taft_from_dual(n)
        assert verify_hopf_morphism(iso).ok
        assert verify_hopf_morphism(inv).ok
        assert is_identity(compose(inv, iso))
        assert is_identity(compose(iso, inv))
        for k in divisors(n):
            if k < n:
                z = transport(taft_subgroup_action(n, k), inv)
                want = taft_subgroup_coaction(n, n // k)
                assert z.values == want.values
        z = transport(taft_parametric_action(n), inv)
        assert z.values == taft_parametric_coaction(n).values
        suites += 1
    for n in range(2, 6):
        iso, inv = nichols_to_dual(n), nichols_from_dual(n)
        assert verify_hopf_morphism(iso).ok
        assert verify_hopf_morphism(inv).ok
        assert is_identity(compose(inv, iso))
        assert is_identity(compose(iso, inv))
        z = transport(nichols_counit_action(n), inv)
        assert z.values == nichols_global_coaction(n).values
        z = transport(nichols_parametric_action(n), inv)
        want = nichols_parametric_coaction(n)
        assert z.values == want.values
        suites += 1
    _report(4, "self-duality, %d isomorphism suites" % suites, t0)


def _canon(params, coords, order):
    for pos, old in enumerate(params, start=1):
        coords = tuple(c.subs(old, ParamPoly.var(order, "t%d" % pos))
                       for c in coords)
    return tuple(c.render() for c in coords)


def _families_match(result, constructors):
    got = {_canon(s.params, s.values, s.algebra.order)
           for s in result.families}
    want = {_canon(f.params, f.values, f.algebra.order)
            for f in constructors}
    return got == want


def test_criterion_5_classification_is_exhaustive_and_exact():
    t0 = time.time()
    for n in range(2, 9):
        res = classify_base_field_actions(taft(n))
        assert res.count() == family_count(n)
        assert _families_match(res, taft_action_families(n))
    for n in range(2, 6):
        res = classify_base_field_actions(nichols(n))
        assert res.count() == 2
        assert max(len(s.params) for s in res.families) == n - 1
        assert _families_match(res, nichols_action_families(n))
    _report(5, "classification taft 2-8 and nichols 2-5", t0)


def test_criterion_6_reference_tables_diff_empty():
    t0 = time.time()
    checks = reference_checks()
    assert len(checks) == 12
    for name, diffs in checks:
        assert diffs == [], (name, diffs)
    _report(6, "reference tables, %d diffs empty" % len(checks), t0)


def test_criterion_7_identity_sweeps():
    t0 = time.time()
    counts, failures = run_identity_sweep(6, 8)
    assert failures == []
    totals = {name: total for name, (total, bad) in counts.items()}
    assert totals == {
        "pascal_a": 1650, "pascal_b": 1650,
        "alternating_vandermonde": 3773, "trinomial_revision": 1815,
        "four_index_inversion": 14256, "binomial_inversion": 2376,
        "character_sum": 35,
    }
    assert all(bad == 0 for _, bad in counts.values())
    _report(7, "identity sweeps, %d instances" % sum(totals.values()), t0)


def test_criterion_8_cross_check_properties():
    t0 = time.time()
    for n in range(2, 9):
        rep = special_value_checks(n)
        assert rep.ok, rep.summary()
    fams = _all_action_families()
    for fam in fams:
        rep = action_consequence_checks(fam)
        assert rep.ok, rep.summary()
        assert convolution_idempotent(fam), fam.name
    _report(8, "cross-checks on %d families" % len(fams), t0)
