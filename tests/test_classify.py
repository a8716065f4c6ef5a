"""Constraint-propagation classifier: counts, exact family match, audits."""
import dataclasses

import pytest

from partial_hopf.exact_arith import CycNumber, ParamPoly, divisors
from partial_hopf.algebras import (
    dual_group_algebra_cyclic, group_algebra_cyclic, nichols, taft,
)
from partial_hopf.hopf_core import HopfData, dual_hopf, validate_all
from partial_hopf import classify
from partial_hopf.classify import (
    BranchLimitExceeded, ClassificationError, NonCyclicGrouplikes,
    SolverUnsupported, classify_base_field_actions, family_count,
)
from partial_hopf.families import (
    Family, dual_group_action_families, group_action_families,
    nichols_action_families, taft_action_families, verify_partial_action,
)


def canon(params, coords, order):
    for pos, old in enumerate(params, start=1):
        coords = tuple(c.subs(old, ParamPoly.var(order, "t%d" % pos))
                       for c in coords)
    return tuple(c.render() for c in coords)


def families_match(result, constructors):
    got = {canon(s.params, s.values, s.algebra.order)
           for s in result.families}
    want = {canon(f.params, f.values, f.algebra.order)
            for f in constructors}
    return got == want


def test_family_count_is_divisor_count():
    assert [family_count(n) for n in (1, 2, 3, 4, 6, 12)] == [1, 2, 2, 3, 4, 6]


@pytest.mark.parametrize("n", range(2, 7))
def test_taft_classification(n):
    res = classify_base_field_actions(taft(n))
    assert res.count() == family_count(n)
    assert families_match(res, taft_action_families(n))


@pytest.mark.parametrize("n", range(2, 5))
def test_nichols_classification(n):
    res = classify_base_field_actions(nichols(n))
    assert res.count() == 2
    assert max(len(s.params) for s in res.families) == n - 1
    assert families_match(res, nichols_action_families(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_group_algebra_classification(n):
    res = classify_base_field_actions(group_algebra_cyclic(n))
    assert res.count() == family_count(n)
    assert families_match(res, group_action_families(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_dual_group_algebra_classification(n):
    res = classify_base_field_actions(dual_group_algebra_cyclic(n))
    assert res.count() == family_count(n)
    assert families_match(res, dual_group_action_families(n))


def _trivial_grouplikes(H):
    """H with only 1 declared group-like: the support branch is the single
    branch lam(1) = 1, so the solver runs without prebranching."""
    return dataclasses.replace(H, grouplikes=(0,))


def test_split_rule_without_prebranching():
    # with group-like branching disabled the solver must fall back to the
    # factor split u(u - 1) and still find both families
    res = classify_base_field_actions(
        _trivial_grouplikes(group_algebra_cyclic(2)))
    assert res.count() == 2
    assert res.branches_explored >= 3
    assert families_match(res, group_action_families(2))


def test_contradiction_rule_ends_a_branch(monkeypatch):
    """On kC_5 with only 1 declared group-like the solver splits on its own;
    one of its 5 branches reaches a nonzero constant residual, and the
    contradiction rule drops it."""
    outcomes = []
    propagate = classify._propagate

    def recorded(H, st):
        out = propagate(H, st)
        outcomes.append(out)
        return out

    monkeypatch.setattr(classify, "_propagate", recorded)
    res = classify_base_field_actions(
        _trivial_grouplikes(group_algebra_cyclic(5)))
    assert res.count() == 2
    assert res.branches_explored == len(outcomes) == 5
    assert families_match(res, group_action_families(5))
    assert [out for out in outcomes if out[0] == "contradiction"] == [
        ("contradiction", "instance (g^2, g^2) = 1")]


def test_both_sides_of_a_split_reaching_one_family_count_once(monkeypatch):
    """A first split on a fresh unknown w sends both sides to the one
    family of k (w = 0 on the vanishing side, the cofactor w = 0 on the
    other); the second arrival is dropped as a duplicate."""
    propagate = classify._propagate
    calls = []

    def split_first(H, st):
        calls.append(st)
        if len(calls) == 1:
            return ("split", "w", ParamPoly.var(H.order, "w"))
        return propagate(H, st)

    monkeypatch.setattr(classify, "_propagate", split_first)
    res = classify_base_field_actions(group_algebra_cyclic(1))
    assert res.count() == 1
    assert res.branches_explored == len(calls) == 3
    assert families_match(res, group_action_families(1))


def test_solutions_are_reverified():
    res = classify_base_field_actions(taft(4))
    for s in res.families:
        assert all(r.ok for r in verify_partial_action(s.algebra, s.values))


def test_traces_record_derivation():
    res = classify_base_field_actions(taft(3))
    parametric = next(s for s in res.families if s.params)
    text = "\n".join(parametric.trace)
    assert "normalization" in text
    assert "support" in text
    assert "instance" in text
    assert "free parameter" in text


@pytest.mark.parametrize("H,hand_built", [
    (taft(3), taft_action_families(3)),
    (nichols(2), nichols_action_families(2)),
    (dual_group_algebra_cyclic(4), dual_group_action_families(4)),
])
def test_classified_and_hand_built_families_share_one_record(H, hand_built):
    """The classifier returns the same Family record as the constructors;
    only its derivation trace is filled in."""
    res = classify_base_field_actions(H)
    assert [type(f) for f in res.families] == [Family] * res.count()
    assert [f.name for f in res.families] == [
        "family%d" % i for i in range(1, res.count() + 1)]
    assert all(f.trace for f in res.families)
    assert all(f.trace == () for f in hand_built)


def test_branch_limit(monkeypatch):
    monkeypatch.setattr(classify, "BRANCH_LIMIT", 2)
    with pytest.raises(BranchLimitExceeded):
        classify_base_field_actions(
            _trivial_grouplikes(group_algebra_cyclic(6)))


def test_stuck_solver_reports_pending_instances(monkeypatch):
    """With no split rule the solver stops with the instances still open;
    it reports them and raises SolverUnsupported instead of guessing."""
    monkeypatch.setattr(classify, "_find_split", lambda poly: None)
    H = _trivial_grouplikes(group_algebra_cyclic(5))
    with pytest.raises(SolverUnsupported) as exc:
        classify_base_field_actions(H)
    pending = "; ".join("(%s, %s)" % (H.basis[h], H.basis[y])
                        for h in range(1, 5) for y in range(5))
    assert str(exc.value) == (
        "solver stuck on kC_5 (support=<gen^1>): " + pending)


def _double_unit_value(fam):
    """``fam`` with its coordinate 0, lam(1), doubled."""
    v = fam.values
    return dataclasses.replace(fam, values=(v[0] + v[0],) + v[1:])


def test_invalid_solution_is_refused(monkeypatch):
    """The final re-verification is the solver's soundness guard: a
    solution with lam(1) doubled fails it, and classify names the
    algebra and the failing report."""
    promote = classify._promote
    monkeypatch.setattr(classify, "_promote",
                        lambda H, st: _double_unit_value(promote(H, st)))
    with pytest.raises(ClassificationError) as exc:
        classify_base_field_actions(taft(3))
    assert not isinstance(exc.value, SolverUnsupported)
    assert str(exc.value).startswith(
        "solver emitted an invalid family on taft(3): "
        "partial_action(taft(3)): FAILED")
    assert "\n  unital at ('1',): 2 != 1" in str(exc.value)


def test_unclosed_grouplike_metadata_rejected():
    H = taft(3)
    bad = dataclasses.replace(H, grouplikes=(0, 3))  # {1, g} without g^2
    with pytest.raises(ClassificationError) as exc:
        classify_base_field_actions(bad)
    assert not isinstance(exc.value, SolverUnsupported)


@pytest.mark.parametrize("H", [taft(3), group_algebra_cyclic(4)],
                         ids=lambda H: H.name)
@pytest.mark.parametrize("twice", ["unit", "last"])
def test_duplicated_grouplike_declaration_is_unsupported(H, twice):
    """Each product is looked up as one index, so a group-like declared
    twice is never reached by both: G(H) reads as not cyclic."""
    g = H.grouplikes
    g = (0,) + g if twice == "unit" else g + g[-1:]
    with pytest.raises(NonCyclicGrouplikes, match="not cyclic"):
        classify_base_field_actions(dataclasses.replace(H, grouplikes=g))


def test_unit_missing_from_the_grouplikes_is_a_failure():
    """kC_3 declaring only g: the unit 1 is a group-like of H but not among
    the declared ones, so the branching cannot start from it."""
    bad = dataclasses.replace(group_algebra_cyclic(3), grouplikes=(1,))
    with pytest.raises(ClassificationError,
                       match="unit is not among the group-likes") as exc:
        classify_base_field_actions(bad)
    assert not isinstance(exc.value, SolverUnsupported)


def test_constant_derived_constraint_is_a_contradiction():
    """A derived constraint that reduces to a nonzero constant ends the
    branch before any instance is evaluated."""
    H = group_algebra_cyclic(2)
    values = [ParamPoly.var(H.order, "u%d" % i) for i in range(H.dim)]
    st = classify._State(values, [(0, 0)], [ParamPoly.one(H.order)])
    assert classify._propagate(H, st) == ("contradiction",
                                          "derived constraint 1")


def test_split_needs_a_variable_common_to_every_monomial():
    u0, u1 = (ParamPoly.var(1, name) for name in ("u0", "u1"))
    one = ParamPoly.one(1)
    assert classify._find_split(u0 * u1 + one) is None
    assert classify._find_split(u0 * u1 + u1) == ("u1", u0 + one)


def test_undeclared_grouplikes_are_unsupported():
    """A dual with no declared characters is a limit of the solver (exit
    3), not a failed check."""
    with pytest.raises(SolverUnsupported,
                       match=r"no declared group-likes on taft\(2\)\^\*"):
        classify_base_field_actions(dual_hopf(taft(2)))


def test_grouplike_table_that_is_not_z_mod_m_is_a_failure():
    """kC_3 with g g = 1: the table is closed and g^2 reaches every
    element, but it is not Z/3, so a check fails (not a solver limit)."""
    H = group_algebra_cyclic(3)
    mult = dict(H.mult)
    mult[(1, 1)] = ((0, CycNumber.one(H.order)),)
    with pytest.raises(ClassificationError, match="do not multiply as Z/3") \
            as exc:
        classify_base_field_actions(dataclasses.replace(H, mult=mult))
    assert not isinstance(exc.value, SolverUnsupported)


@pytest.mark.parametrize("build,n,families", [
    (group_algebra_cyclic, 17, group_action_families),
    (group_algebra_cyclic, 24, group_action_families),
    (group_algebra_cyclic, 32, group_action_families),
    (group_algebra_cyclic, 48, group_action_families),
    (dual_group_algebra_cyclic, 17, dual_group_action_families),
], ids=["group17", "group24", "group32", "group48", "dualgroup17"])
def test_large_cyclic_groups_are_classified(build, n, families):
    """No cap on |G|: the branch list comes from the divisors of m."""
    res = classify_base_field_actions(build(n))
    assert res.count() == family_count(n)
    assert families_match(res, families(n))


def test_solver_limits_are_unsupported_not_failures(monkeypatch):
    assert issubclass(BranchLimitExceeded, SolverUnsupported)
    assert issubclass(NonCyclicGrouplikes, SolverUnsupported)
    assert issubclass(SolverUnsupported, ClassificationError)
    monkeypatch.setattr(classify, "BRANCH_LIMIT", 5)
    with pytest.raises(SolverUnsupported, match="more than 5 branches"):
        classify_base_field_actions(group_algebra_cyclic(12))


def test_stuck_solver_is_unsupported(monkeypatch):
    monkeypatch.setattr(classify, "_propagate",
                        lambda H, st: ("stuck", ["u1*u2 - u3"]))
    with pytest.raises(SolverUnsupported, match="solver stuck"):
        classify_base_field_actions(taft(2))


def _klein_group_algebra():
    order = 1
    one = CycNumber.one(order)
    dim = 4
    mult = {(i, j): ((i ^ j, one),) for i in range(dim) for j in range(dim)}
    return HopfData(
        name="kKlein", dim=dim, order=order,
        basis=("1", "a", "b", "ab"),
        mult=mult, unit=((0, one),),
        comult=tuple((((i, i), one),) for i in range(dim)),
        counit=(one,) * dim,
        antipode=tuple(((i, one),) for i in range(dim)),
        grouplikes=(0, 1, 2, 3), grouplike_vectors=(),
        skew_primitives=(), basis_degrees=())


def test_noncyclic_grouplikes_rejected():
    H = _klein_group_algebra()
    assert validate_all(H).ok
    with pytest.raises(NonCyclicGrouplikes):
        classify_base_field_actions(H)


def test_parametric_family_parameter_sits_on_lowest_degree_entry():
    from partial_hopf.exact_arith import zeta_pow
    res = classify_base_field_actions(taft(5))
    parametric = next(s for s in res.families if s.params)
    # lam(x) is exactly the parameter, and lam(g^(n-1)x) = -q lam(x)
    H, lam = parametric.algebra, parametric.values
    assert lam[H.label_index("x")].render() == "t1"
    want = ParamPoly.var(5, "t1") * (-zeta_pow(5, 1))
    assert lam[H.label_index("g^4x")] == want
