"""Partial action/coaction families: verification, hand values, negatives."""
import pytest

from partial_hopf import exact_arith
from partial_hopf.classify import classify_base_field_actions
from partial_hopf.exact_arith import ParamPoly, Rational
from partial_hopf.expr import parse_poly
from partial_hopf.algebras import (
    dual_group_algebra_cyclic, group_algebra_cyclic, nichols, taft,
)
from partial_hopf.families import (
    Family, NotADivisor, action_consequence_checks, convolution_idempotent,
    dual_group_action_families, dual_group_subgroup_action,
    group_action_families, group_subgroup_action, instance_residual,
    nichols_action_families, nichols_coaction_families,
    nichols_counit_action, nichols_parametric_action,
    nichols_parametric_coaction,
    special_value_checks, taft_action_families, taft_coaction_families,
    taft_parametric_action, taft_parametric_coaction, taft_subgroup_action,
    taft_subgroup_coaction, verify_partial_action, verify_partial_coaction,
)


@pytest.mark.parametrize("n", range(2, 6))
def test_taft_action_families_verify(n):
    fams = taft_action_families(n)
    assert len(fams) == len([k for k in range(1, n + 1) if n % k == 0])
    for fam in fams:
        assert all(r.ok for r in verify_partial_action(fam.algebra,
                                                       fam.values))


@pytest.mark.parametrize("n", range(2, 6))
def test_taft_coaction_families_verify(n):
    for fam in taft_coaction_families(n):
        assert all(r.ok for r in verify_partial_coaction(fam.algebra,
                                                         fam.values))


@pytest.mark.parametrize("n", range(2, 5))
def test_nichols_families_verify(n):
    for fam in nichols_action_families(n):
        assert all(r.ok for r in verify_partial_action(fam.algebra,
                                                       fam.values))
    for fam in nichols_coaction_families(n):
        assert all(r.ok for r in verify_partial_coaction(fam.algebra,
                                                         fam.values))


@pytest.mark.parametrize("n", range(1, 9))
def test_group_families_verify(n):
    for fam in group_action_families(n) + dual_group_action_families(n):
        assert all(r.ok for r in verify_partial_action(fam.algebra,
                                                       fam.values))
        assert convolution_idempotent(fam)


def test_family_values_smallest_case():
    fam = taft_parametric_action(2)
    H, f = fam.algebra, fam.values
    a = ParamPoly.var(2, "a")
    assert f[H.label_index("1")] == ParamPoly.one(2)
    assert f[H.label_index("g")].is_zero()
    assert f[H.label_index("x")] == a
    assert f[H.label_index("gx")] == a


def test_coaction_values_smallest_case():
    fam = taft_parametric_coaction(2)
    z = fam.values
    half = ParamPoly.const(2, Rational(1, 2))
    a = ParamPoly.var(2, "a")
    assert z[0] == half
    assert z[2] == half          # g is index 2 when n = 2
    assert z[1].is_zero()        # no x term
    assert z[3] == -a            # gx coefficient


def test_taft3_coaction_values():
    # nonzero x-part coefficients: (q-1)a/3 on gx, (q^2-1)a/3 on g^2x,
    # -q a^2 on gx^2 (times 1/3)
    fam = taft_parametric_coaction(3)
    z = fam.values
    third = Rational(1, 3)

    def expect(expr):
        return parse_poly(expr, 3, root_symbol="q") * third

    idx = lambda i, j: i * 3 + j
    assert z[idx(0, 1)].is_zero()
    assert z[idx(1, 1)] == expect("(q - 1)*a")
    assert z[idx(2, 1)] == expect("(q^2 - 1)*a")
    assert z[idx(1, 2)] == expect("-3*q*a^2")
    assert z[idx(0, 2)].is_zero()
    assert z[idx(2, 2)].is_zero()


def test_parametric_action_at_zero_is_trivial_subgroup_indicator():
    for n in (2, 3, 4, 6):
        fam = taft_parametric_action(n)
        at0 = tuple(c.subs(fam.params[0], 0) for c in fam.values)
        assert at0 == taft_subgroup_action(n, n).values


def test_parametric_coaction_at_zero_is_group_average():
    for n in (2, 3, 4):
        fam = taft_parametric_coaction(n)
        z0 = tuple(c.subs(fam.params[0], 0) for c in fam.values)
        assert z0 == taft_subgroup_coaction(n, 1).values


def test_action_restricts_to_group_algebra_family():
    # group-like values of every taft subgroup action match the kC_n family
    n = 6
    for k in (1, 2, 3, 6):
        f = taft_subgroup_action(n, k).values
        g = group_subgroup_action(n, k).values
        for i in range(n):
            assert f[i * n] == g[i]


def test_negative_control_not_closed_support():
    H = taft(4)
    coords = [ParamPoly.zero(4)] * H.dim
    coords[0] = ParamPoly.one(4)
    coords[4] = ParamPoly.one(4)        # lam(g) = 1 but lam(g^2) = 0
    rep, srep = verify_partial_action(H, tuple(coords))
    assert not rep.ok and not srep.ok
    assert any(f.where == ("g", "g") for f in rep.failures)


def test_negative_control_grouplike_element_is_not_coaction():
    H = taft(3)
    coords = [ParamPoly.zero(3)] * H.dim
    coords[H.label_index("g")] = ParamPoly.one(3)
    rep, srep = verify_partial_coaction(H, tuple(coords))
    assert not rep.ok and not srep.ok


def test_negative_control_stray_primitive_term():
    # adding an x term to the smallest parametric coaction must fail
    # (a sign flip would stay inside the family: a is free)
    H = taft(2)
    fam = taft_parametric_coaction(2)
    coords = list(fam.values)
    coords[1] = ParamPoly.one(2)
    rep, srep = verify_partial_coaction(H, tuple(coords))
    assert not rep.ok and not srep.ok


def test_instance_residual_zero_for_counit():
    H = nichols(3)
    eps = nichols_counit_action(3).values
    for h in range(H.dim):
        for y in range(H.dim):
            assert instance_residual(H, eps, h, y).is_zero()


@pytest.mark.parametrize("n", range(2, 9))
def test_special_values(n):
    rep = special_value_checks(n)
    assert rep.ok, rep.summary()


def test_consequence_checks_all_families():
    for n in (2, 3, 4, 5):
        for fam in taft_action_families(n):
            assert action_consequence_checks(fam).ok
    for n in (2, 3, 4):
        for fam in nichols_action_families(n):
            assert action_consequence_checks(fam).ok


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_consequence_checks_cover_grouplike_vectors(n):
    """(kC_n)^* declares its group-likes as character vectors only.  The
    subgroup family of g^d has lam(chi) = 1 exactly for the d characters
    trivial on that subgroup, and consequence (i) runs for each of them."""
    H = dual_group_algebra_cyclic(n)
    assert not H.grouplikes
    for d, fam in zip([d for d in range(1, n + 1) if n % d == 0],
                      dual_group_action_families(n)):
        rep = action_consequence_checks(fam)
        assert rep.ok, rep.summary()
        assert rep.checks_run == d * H.dim


def test_consequence_checks_refuse_a_functional_on_grouplike_vectors():
    """On (kC_2)^* the functional (2, 1) has lam(chi_1) = 2 - 1 = 1 for the
    character chi_1 = 1* - g*, but lam(chi_1 g*) = -1 != lam(g*)."""
    H = dual_group_algebra_cyclic(2)
    fam = Family("(2, 1)", H, (),
                 (ParamPoly.const(2, 2), ParamPoly.const(2, 1)))
    rep = action_consequence_checks(fam)
    assert rep.checks_run == 2
    assert [(f.check, f.where[1], f.lhs, f.rhs) for f in rep.failures] == [
        ("translation_invariance", "g*", "-1", "1")]


def test_convolution_idempotence_parametric():
    for n in (2, 3, 4, 5):
        assert convolution_idempotent(taft_parametric_action(n))
    for n in (2, 3, 4):
        assert convolution_idempotent(nichols_parametric_action(n))


def test_not_a_divisor():
    with pytest.raises(NotADivisor):
        taft_subgroup_action(6, 4)
    with pytest.raises(NotADivisor):
        taft_subgroup_coaction(4, 3)
    with pytest.raises(NotADivisor):
        dual_group_subgroup_action(6, 5)


def test_nichols_family_values():
    fam = nichols_parametric_action(4)
    H, f = fam.algebra, fam.values
    assert fam.params == ("a1", "a2", "a3")
    for i in range(1, 4):
        p = ParamPoly.var(2, "a%d" % i)
        assert f[1 << i] == p
        assert f[(1 << i) | 1] == p
    assert f[H.label_index("g")].is_zero()
    assert f[H.label_index("x1x2")].is_zero()

    z = nichols_parametric_coaction(4).values
    half = ParamPoly.const(2, Rational(1, 2))
    assert z[0] == half and z[1] == half
    for i in range(1, 4):
        assert z[(1 << i) | 1] == -ParamPoly.var(2, "a%d" % i)
        assert z[1 << i].is_zero()


def test_dual_group_value_is_inverse_subgroup_size():
    n = 12
    for d in (1, 2, 3, 4, 6, 12):
        f = dual_group_subgroup_action(n, d).values
        size = n // d
        for i in range(n):
            want = ParamPoly.const(n, Rational(1, size)) if i % d == 0 \
                else ParamPoly.zero(n)
            assert f[i] == want


def _group_average(H, indices, denom):
    coords = [ParamPoly.zero(H.order)] * H.dim
    for i in indices:
        coords[i] = ParamPoly.const(H.order, Rational(1, denom))
    return tuple(coords)


def test_subgroup_average_is_group_algebra_coaction():
    H = group_algebra_cyclic(6)
    z = _group_average(H, (0, 2, 4), 3)  # (1 + g^2 + g^4)/3
    assert all(r.ok for r in verify_partial_coaction(H, z))


def test_non_subgroup_average_is_not_a_coaction():
    H = group_algebra_cyclic(6)
    z = _group_average(H, (0, 1), 2)  # support {1, g} is not closed
    assert not any(r.ok for r in verify_partial_coaction(H, z))


def test_wrongly_scaled_average_fails_counit_normalization():
    H = group_algebra_cyclic(6)
    z = _group_average(H, (0, 2, 4), 2)
    for rep in verify_partial_coaction(H, z):
        assert any(f.check == "counit_normalization" for f in rep.failures)


# -- the work of the action verifier ------------------------------------------

def _counted(monkeypatch):
    """Counters of exact_arith._mul and of ParamPoly products."""
    calls = {"cyc": 0, "poly": 0}
    mul, poly_mul = exact_arith._mul, ParamPoly.__mul__

    def cyc_counted(a, b):
        calls["cyc"] += 1
        return mul(a, b)

    def poly_counted(self, other):
        calls["poly"] += 1
        return poly_mul(self, other)

    monkeypatch.setattr(exact_arith, "_mul", cyc_counted)
    monkeypatch.setattr(ParamPoly, "__mul__", poly_counted)
    monkeypatch.setattr(ParamPoly, "__rmul__", poly_counted)
    return calls


@pytest.mark.parametrize("build,n,cyc,poly,checks", [
    (taft_parametric_action, 8, 10885, 10885, 8194),
    (nichols_parametric_action, 5, 550, 550, 2050)])
def test_action_verifier_makes_the_same_products(monkeypatch, build, n, cyc,
                                                 poly, checks):
    """Scalar and polynomial products and checks of one verifier call on a
    built family: the row-at-a-time sweep makes the products of the
    per-pair sweep, one check per ordered basis pair and law plus the two
    unit checks."""
    fam = build(n)
    calls = _counted(monkeypatch)
    reps = verify_partial_action(fam.algebra, fam.values)
    assert all(r.ok for r in reps)
    assert (calls["cyc"], calls["poly"]) == (cyc, poly)
    assert sum(r.checks_run for r in reps) == checks


def test_classifier_makes_the_same_products(monkeypatch):
    H = taft(7)
    calls = _counted(monkeypatch)
    assert classify_base_field_actions(H).count() == 2
    assert (calls["cyc"], calls["poly"]) == (14723, 14546)
