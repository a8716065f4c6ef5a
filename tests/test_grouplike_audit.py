"""The group-like check of the classifier against the audit it replaced.

Before it branches on the support of lam on G(H), the classifier needs
lam(v_a) lam(v_b) = lam(v_a) lam(v_ab) for every solution and all
group-likes v_a, v_b.  ``reference_audit`` proves this the long way: it
sums v_a[i] v_b[j] instance_residual(i, j) as polynomials in fresh
unknowns and compares the sum with lam(v_a) lam(v_b) - lam(v_a) lam(v_ab),
for all m^2 pairs.  The classifier runs ``validate_grouplikes`` instead:
m checks Delta(v) = v (x) v on the kernel, which imply every pair (the
module docstring of ``classify`` has the derivation).  The tests below
check that both pass on the built-ins, that the classifier refuses every
single-coefficient fault that the reference refuses, and that the check
makes no residual and no polynomial product.

``closed_supports`` is the support audit as it was written before: it
enumerates all 2^m subsets of G(H) and keeps those that contain 1 and are
closed under product.  The classifier derives the same list from the Z/m
check and the divisors of m; the tests below compare the two.
"""
import dataclasses

import pytest

from partial_hopf import classify, exact_arith, families
from partial_hopf.algebras import (
    dual_group_algebra_cyclic, group_algebra_cyclic, nichols, taft,
)
from partial_hopf.classify import (
    ClassificationError, _analyze_grouplikes, _uname,
    classify_base_field_actions,
)
from partial_hopf.exact_arith import ParamPoly, divisors
from partial_hopf.families import instance_residual
from partial_hopf.hopf_core import validate_grouplikes


def reference_audit(H, gs):
    """The polynomial audit: m^2 |supp|^2 instance residuals."""
    U = [ParamPoly.var(H.order, _uname(i)) for i in range(H.dim)]
    forms = []
    for v in gs.vectors:
        f = ParamPoly.zero(H.order)
        for i, c in v.items():
            f = f + U[i] * c
        forms.append(f)
    m = len(gs.vectors)
    for a in range(m):
        for b in range(m):
            combo = ParamPoly.zero(H.order)
            for i, ca in gs.vectors[a].items():
                for j, cb in gs.vectors[b].items():
                    combo = combo + instance_residual(H, U, i, j) * (ca * cb)
            want = forms[a] * forms[b] - forms[a] * forms[gs.table[a][b]]
            if combo != want:
                raise ClassificationError(
                    "reference audit failed at (%d, %d)" % (a, b))


ALGEBRAS = ([("taft", n) for n in range(2, 6)]
            + [("nichols", n) for n in range(2, 5)]
            + [("group", n) for n in range(1, 13)]
            + [("dualgroup", n) for n in range(1, 13)])
BUILD = {"taft": taft, "nichols": nichols, "group": group_algebra_cyclic,
         "dualgroup": dual_group_algebra_cyclic}


@pytest.mark.parametrize("name,n", ALGEBRAS)
def test_kernel_form_is_the_residual_combination(name, n):
    """On every built-in up to order 12, the kernel check Delta(v) = v (x) v
    and the residual combination it implies both hold."""
    H = BUILD[name](n)
    gs = _analyze_grouplikes(H)
    rep = validate_grouplikes(H)
    assert rep.ok and rep.checks_run == 2 * len(gs.vectors)
    reference_audit(H, gs)


def closed_supports(H, gs):
    """Bitmasks of the subsets of G(H) that contain 1 and are closed under
    the product table, by enumerating all 2^m subsets."""
    m = len(gs.vectors)
    ident = gs.vectors.index({i: c for i, c in H.unit})
    closed = []
    for mask in range(1 << m):
        if not (mask >> ident) & 1:
            continue
        members = [a for a in range(m) if (mask >> a) & 1]
        if all((mask >> gs.table[a][b]) & 1 for a in members for b in members):
            closed.append(mask)
    return closed


def _subgroup_masks(gs):
    return sorted(mask for _, mask in gs.subgroups)


@pytest.mark.parametrize("name,n", ALGEBRAS)
def test_subgroups_are_the_closed_supports(name, n):
    H = BUILD[name](n)
    gs = _analyze_grouplikes(H)
    assert [d for d, _ in gs.subgroups] == divisors(len(gs.vectors))
    assert _subgroup_masks(gs) == closed_supports(H, gs)


# -- faulted structure constants ---------------------------------------------

def _bump(row, t, at):
    """``row`` with the scalar at position ``at`` of its term ``t`` plus 1:
    1 becomes 2, -1 drops out of the sum."""
    term = list(row[t])
    term[at] = term[at] + 1
    return row[:t] + (tuple(term),) + row[t + 1:]


def _faults(H):
    for i, row in enumerate(H.comult):
        for t in range(len(row)):
            comult = H.comult[:i] + (_bump(row, t, 1),) + H.comult[i + 1:]
            yield "comult[%d][%d]" % (i, t), dataclasses.replace(
                H, comult=comult)
    for key in sorted(H.mult):
        row = H.mult[key]
        for t in range(len(row)):
            mult = dict(H.mult)
            mult[key] = _bump(row, t, 1)
            yield "mult[%s][%d]" % (key, t), dataclasses.replace(H, mult=mult)


# faults per algebra: (faults, faults whose group-likes still form a group,
# faults the group-like check refuses)
FAULTS = {
    ("dualgroup", 4): (20, 16, 16),
    ("dualgroup", 6): (42, 36, 36),
    ("taft", 3): (72, 63, 3),
    ("nichols", 2): (18, 14, 2),
}


@pytest.mark.parametrize("name,n", sorted(FAULTS))
def test_audit_fails_exactly_where_the_reference_fails(name, n):
    """Wherever the reference audit fails, the classifier refuses the table
    at a group-like comultiplication check.  The check is sufficient, not
    equivalent, so this is one way only; on these faults its refusals
    number the reference's, so they are the same faults."""
    H = BUILD[name](n)
    tried = audited = refused = 0
    for where, bad in _faults(H):
        tried += 1
        try:
            gs = _analyze_grouplikes(bad)
        except ClassificationError:
            continue
        audited += 1
        assert _subgroup_masks(gs) == closed_supports(bad, gs), where
        refused += not validate_grouplikes(bad).ok
        try:
            reference_audit(bad, gs)
        except ClassificationError:
            with pytest.raises(ClassificationError,
                               match="^grouplike(_vector)?_comult failed"):
                classify_base_field_actions(bad)
    assert (tried, audited, refused) == FAULTS[(name, n)]


# -- work sentinels -----------------------------------------------------------

def _count_calls(monkeypatch):
    calls = {"residual": 0, "poly_mul": 0}

    def residual(*args, **kwargs):
        calls["residual"] += 1
        return instance_residual(*args, **kwargs)

    mul = ParamPoly.__mul__

    def poly_mul(self, other):
        calls["poly_mul"] += 1
        return mul(self, other)

    for module in (classify, families):
        monkeypatch.setattr(module, "instance_residual", residual)
    monkeypatch.setattr(ParamPoly, "__mul__", poly_mul)
    monkeypatch.setattr(ParamPoly, "__rmul__", poly_mul)
    return calls


@pytest.mark.parametrize("name,n", [("dualgroup", 7), ("taft", 4),
                                    ("nichols", 3), ("group", 6)])
def test_audit_uses_no_residual_and_no_polynomial(monkeypatch, name, n):
    H = BUILD[name](n)
    calls = _count_calls(monkeypatch)
    assert validate_grouplikes(H).ok
    assert calls == {"residual": 0, "poly_mul": 0}


def test_classify_dualgroup_7_residual_count(monkeypatch):
    """Counted as the benchmark's tracer counts them: the solver's share
    only.  The polynomial audit made 7^4 = 2,401 more, and the final
    re-verification of the families, which built lam on products once per
    residual, another 196."""
    H = dual_group_algebra_cyclic(7)
    calls = _count_calls(monkeypatch)
    assert classify_base_field_actions(H).count() == 2
    assert calls["residual"] == 98


@pytest.mark.parametrize("symmetric", [False, True])
def test_taft_7_action_verification_products(monkeypatch, symmetric):
    """verify_partial_action checks (A) and (B) in one sweep: it builds lam
    on products and each lam(h) lam(y) once, and scales c lam(h_1) and
    c lam(h_2) once per h.  The families of taft(7) cost 6,456 polynomial
    products, their construction included, where one call per law made
    8,320 and the per-pair residual loop 7,310 for (A) alone.  Each case
    also asserts one of the two reports: the plain one, or the symmetric
    one."""
    calls = _count_calls(monkeypatch)
    for fam in families.taft_action_families(7):
        reps = families.verify_partial_action(fam.algebra, fam.values)
        assert reps[symmetric].subject.startswith(
            "symmetric_action(" if symmetric else "partial_action(")
        assert all(r.ok for r in reps)
    assert calls == {"residual": 0, "poly_mul": 6456}


def test_classify_dualgroup_24_grouplike_check_products(monkeypatch):
    """The group-like check of classify makes 2m scalar products per
    entry of each of the m = 24 characters, for Delta(u) and u (x) u, and
    eps(u) one more at the one entry where the counit is nonzero:
    24 * (1,152 + 1) = 27,672 products.  The m^4 audit it replaced made
    678,528."""
    calls = [0]
    counting = [False]
    mul = exact_arith._mul

    def counted(a, b):
        calls[0] += counting[0]
        return mul(a, b)

    def check(H):
        counting[0] = True
        try:
            return validate_grouplikes(H)
        finally:
            counting[0] = False

    monkeypatch.setattr(exact_arith, "_mul", counted)
    monkeypatch.setattr(classify, "validate_grouplikes", check)
    res = classify_base_field_actions(dual_group_algebra_cyclic(24))
    assert res.count() == len(divisors(24)) == 8
    assert calls[0] == 27672
