"""The group-like audit of the classifier on kernel quadratic forms.

``reference_audit`` is the audit as it was written before: it sums
v_a[i] v_b[j] instance_residual(i, j) as polynomials in fresh unknowns and
compares the sum with lam(v_a) lam(v_b) - lam(v_a) lam(v_ab).  The audit of
``classify`` compares two quadratic forms built on the kernel instead.  The
tests below check the identity between the two, coefficient by coefficient,
and that both audits fail on exactly the same faulted tables at the same
pair (a, b).

``closed_supports`` is the support audit as it was written before: it
enumerates all 2^m subsets of G(H) and keeps those that contain 1 and are
closed under product.  The classifier derives the same list from the Z/m
check and the divisors of m; the tests below compare the two.
"""
import dataclasses

import pytest

from partial_hopf import classify, families
from partial_hopf.algebras import (
    dual_group_algebra_cyclic, group_algebra_cyclic, nichols, taft,
)
from partial_hopf.classify import (
    ClassificationError, _analyze_grouplikes, _check_grouplike_consequences,
    _coproduct_form, _uname, classify_base_field_actions,
)
from partial_hopf.exact_arith import ParamPoly, divisors
from partial_hopf.families import instance_residual
from partial_hopf.hopf_core import vec_comult


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
                    "group-like consequence audit failed at (%d, %d)" % (a, b))


def _as_poly(H, form):
    """The quadratic form {(i, k): c} as a ParamPoly in the u_i."""
    out = ParamPoly.zero(H.order)
    for (i, k), c in form.items():
        out = out + ParamPoly.var(H.order, _uname(i)) * ParamPoly.var(
            H.order, _uname(k)) * c
    return out


def _linear(H, U, v):
    out = ParamPoly.zero(H.order)
    for i, c in v.items():
        out = out + U[i] * c
    return out


ALGEBRAS = ([("taft", n) for n in range(2, 6)]
            + [("nichols", n) for n in range(2, 5)]
            + [("group", n) for n in range(1, 13)]
            + [("dualgroup", n) for n in range(1, 13)])
BUILD = {"taft": taft, "nichols": nichols, "group": group_algebra_cyclic,
         "dualgroup": dual_group_algebra_cyclic}


@pytest.mark.parametrize("name,n", ALGEBRAS)
def test_kernel_form_is_the_residual_combination(name, n):
    """lam(v_a) lam(v_b) minus the coproduct form equals
    sum v_a[i] v_b[j] instance_residual(i, j) for every pair (a, b)."""
    H = BUILD[name](n)
    gs = _analyze_grouplikes(H)
    U = [ParamPoly.var(H.order, _uname(i)) for i in range(H.dim)]
    residual = {}
    m = len(gs.vectors)
    rows = [{} for _ in range(m)]
    for a, va in enumerate(gs.vectors):
        delta = vec_comult(H.comult, va.items())
        for b, vb in enumerate(gs.vectors):
            combo = ParamPoly.zero(H.order)
            for i, ca in va.items():
                for j, cb in vb.items():
                    r = residual.get((i, j))
                    if r is None:
                        r = residual[(i, j)] = instance_residual(H, U, i, j)
                    combo = combo + r * (ca * cb)
            form = _coproduct_form(H, delta, vb, rows[b])
            assert all(i <= k for i, k in form) and all(form.values())
            got = _linear(H, U, va) * _linear(H, U, vb) - _as_poly(H, form)
            assert got == combo, (name, n, a, b)


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
            comult = H.comult[:i] + (_bump(row, t, 0),) + H.comult[i + 1:]
            yield "comult[%d][%d]" % (i, t), dataclasses.replace(
                H, comult=comult)
    for key in sorted(H.mult):
        row = H.mult[key]
        for t in range(len(row)):
            mult = dict(H.mult)
            mult[key] = _bump(row, t, 1)
            yield "mult[%s][%d]" % (key, t), dataclasses.replace(H, mult=mult)


def _outcome(audit, H, gs):
    try:
        audit(H, gs)
    except ClassificationError as exc:
        return str(exc)
    return "pass"


# faults per algebra: (faults, faults whose group-likes still form a group,
# faults the audit refuses)
FAULTS = {
    ("dualgroup", 4): (20, 16, 16),
    ("dualgroup", 6): (42, 36, 36),
    ("taft", 3): (72, 63, 3),
    ("nichols", 2): (18, 14, 2),
}


@pytest.mark.parametrize("name,n", sorted(FAULTS))
def test_audit_fails_exactly_where_the_reference_fails(name, n):
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
        got = _outcome(_check_grouplike_consequences, bad, gs)
        assert got == _outcome(reference_audit, bad, gs), where
        refused += got != "pass"
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
    gs = _analyze_grouplikes(H)
    calls = _count_calls(monkeypatch)
    _check_grouplike_consequences(H, gs)
    assert calls == {"residual": 0, "poly_mul": 0}


def test_classify_dualgroup_7_residual_count(monkeypatch):
    """Counted as the benchmark's tracer counts them, the solver and the
    re-verification of the families: 7^4 = 2,401 fewer than with the
    polynomial audit."""
    H = dual_group_algebra_cyclic(7)
    calls = _count_calls(monkeypatch)
    assert classify_base_field_actions(H).count() == 2
    assert calls["residual"] == 294
