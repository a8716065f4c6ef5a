"""Independent witnesses for the action families, used by the tests only.

``special_value_checks`` compares the parametric action on taft(n) with
closed-form special values; ``action_consequence_checks`` and
``convolution_idempotent`` check consequences of (A) that every partial
action obeys, on families that ``verify_partial_action`` verifies in full.
No command runs them, so they live here rather than in the package.
"""
from partial_hopf.exact_arith import ParamPoly, zeta_pow
from partial_hopf.families import Family, _on_products, taft_parametric_action
from partial_hopf.hopf_core import (
    Report, _cdict_str, _pair, dual_hopf, sparse, vec_mul,
)
from partial_hopf.qcomb import q_number


def special_value_checks(n: int) -> Report:
    """Closed-form values of the parametric action on taft(n), checked
    symbolically: power row, antidiagonal, last group row, top x-degree."""
    rep = Report("special_values(taft(%d))" % n)
    fam = taft_parametric_action(n)
    f = fam.values
    q = zeta_pow(n, 1)
    a = ParamPoly.var(n, fam.params[0])

    for j in range(n):
        rep.expect("power_row", ("x^%d" % j,), f[j], a ** j)

    for i in range(1, n):
        c = q ** (i * (i + 1) // 2)
        rep.expect("antidiagonal", (i,), f[((n - i) % n) * n + i],
                   a ** i * (-c if i % 2 else c))

    for j in range(n):
        rep.expect("last_group_row", (j,), f[(n - 1) * n + j],
                   a ** j * (-(q * q_number(j, q))))

    for i in range(n):
        rep.expect("top_x_degree", (i,), f[i * n + (n - 1)],
                   a ** (n - 1))
    return rep


def action_consequence_checks(fam: Family) -> Report:
    """Structural consequences every partial action obeys, checked on a
    family's exact values:

      (i)   lam(v) = 1 for a declared group-like v, a basis index or a
            group-like vector, forces lam(v u) = lam(u) for all u;
      (ii)  a (g,h)-skew-primitive x with lam(g) = lam(h) has lam(x) = 0;
      (iii) lam(x) = 0 and lam(h) = 1 force lam(x u) = 0 for all u.

    A basis group-like is named by its label, a vector by its terms.
    """
    H, f = fam.algebra, fam.values
    rep = Report("consequences(%s/%s)" % (H.name, fam.name))
    one = ParamPoly.one(H.order)
    zero = ParamPoly.zero(H.order)
    on = _on_products(H, f)
    declared = [(H.basis[g], {g: H.one_scalar()}) for g in H.grouplikes]
    declared += [(_cdict_str(v, H), v)
                 for v in map(sparse, H.grouplike_vectors)]
    for label, v in declared:
        if _pair(f, v.items(), zero) != one:
            continue
        for u in range(H.dim):
            # col[i] = lam(e_i e_u)
            col = [row.get(u, zero) for row in on]
            rep.expect("translation_invariance", (label, H.basis[u]),
                       _pair(col, v.items(), zero), f[u])
    for (x, g, h) in H.skew_primitives:
        if f[g] == f[h]:
            rep.expect("skew_vanishing", (H.basis[x],), f[x], zero)
        if f[x].is_zero() and f[h] == one:
            for u in range(H.dim):
                rep.expect("skew_annihilation", (H.basis[x], H.basis[u]),
                           on[x].get(u, zero), zero)
    return rep


def convolution_idempotent(fam: Family) -> bool:
    """lam * lam = lam in the convolution algebra, exactly in parameters."""
    u = sparse(fam.values)
    return vec_mul(dual_hopf(fam.algebra).mult, u, u) == u
