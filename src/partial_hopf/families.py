"""Partial actions and coactions on the base field, and their verifiers.

A partial action of H on its base field is a functional lam with
lam(1) = 1 satisfying, for all h, y in H,

    (A)   lam(h) lam(y)  =  sum  lam(h_1) lam(h_2 y)          ["left"]
    (B)   lam(h) lam(y)  =  sum  lam(h_1 y) lam(h_2)          ["symmetric"]

(B) together with (A) makes the action symmetric.  A partial coaction is an
element z with eps(z) = 1 and

    (C)   z (x) z  =  (z (x) 1) Delta(z)
    (D)   z (x) z  =  Delta(z) (z (x) 1)                      ["symmetric"]

All verifiers sweep every ordered basis pair (resp. the full tensor
identity) and compare exact polynomials in any free parameters, so a pass
is a proof for all parameter values, not a sampled check.  The coaction
sides are built on the sparse kernel of hopf_core, and every check is
reported through ``Report.expect`` or ``_compare``, except the rows of the
action verifier below.

Each verifier checks a law and its symmetric form in one sweep and returns
both reports, (plain, symmetric).  The action verifier builds lam(1) and
the table of lam on products ``on[b][y] = lam(e_b e_y)`` (its nonzero
entries only) once, then checks each h as one row over y.  The left row
y -> lam(h) lam(y) is built over the support of lam and shared by (A) and
(B).  Per term c h_1 (x) h_2 of Delta(h), the (A) row adds the row on[h_2]
scaled by c lam(h_1), and the (B) row adds on[h_1] scaled by c lam(h_2).
Both sides are sparse dicts keyed by y, so a row costs one product per
entry it adds, and a row that holds is one dict equality once the
cancelled entries are dropped; it counts as dim checks.  A row that
differs is swept in index order and reports each y whose residual
lam(h) lam(y) - rhs is nonzero, as a per-pair check against 0 would.
The coaction verifier builds eps(z), Delta(z), z (x) 1,
z (x) z and z^2 - z once; only the two tensor products differ.  The
classifier keeps ``instance_residual``, which evaluates one (h, y) instance
of (A) on its own, since its unknowns change between evaluations.

lam and z are each given by their dim coordinates in the basis of H, and a
``Family`` is that coordinate tuple with a name and its parameters; the
verifiers take the tuple itself.  The constructors below build every
family of such actions and coactions on the built-in algebras; the
classification solver re-derives the actions independently (see classify
module) and returns the same records, its derivation in ``trace``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exact_arith import (
    CycNumber, ParamPoly, Rational, cyc_invert, divisors, zeta_pow,
)
from .hopf_core import (
    HopfData, Report, _cdict_add, _cdict_str, _compare, _pair, dual_hopf,
    sparse, tensor_mul, vec_map, vec_mul,
)
from .algebras import (
    dual_group_algebra_cyclic, group_algebra_cyclic, nichols, taft,
)
from .qcomb import q_binomial, q_factorial


class NotADivisor(ValueError):
    """Subgroup parameter must divide the group order."""


def _require_divisor(n: int, k: int):
    if k < 1 or n % k != 0:
        raise NotADivisor("%d does not divide %d" % (k, n))


# ---------------------------------------------------------------------------
# residual sweeps
# ---------------------------------------------------------------------------

def instance_residual(H: HopfData, lam, h: int, y: int) -> ParamPoly:
    """The defect of one (h, y) instance of (A).

    ``lam`` is any object indexable by basis index returning ParamPoly.
    Zero residual means the instance holds identically.
    """
    zero = ParamPoly.zero(H.order)
    lh = lam[h]
    ly = lam[y]
    lhs = zero if (lh.is_zero() or ly.is_zero()) else lh * ly
    rhs = zero
    for (a, b), c in H.comult[h]:
        outer = lam[a]
        if outer.is_zero():
            continue
        inner = _pair(lam, H.mult.get((b, y), ()), zero)
        if inner.is_zero():
            continue
        rhs = rhs + (outer * inner) * c
    return lhs - rhs


def _require_dim(H: HopfData, values):
    if len(values) != H.dim:
        raise ValueError("%d coordinates for %s of dimension %d"
                         % (len(values), H.name, H.dim))


def _on_products(H: HopfData, values) -> list:
    """The table of lam on products: on[b][y] = lam(e_b e_y), its nonzero
    entries only."""
    zero = ParamPoly.zero(H.order)
    on = [{} for _ in range(H.dim)]
    for (b, y), row in H.mult.items():
        acc = _pair(values, row, zero)
        if acc:
            on[b][y] = acc
    return on


def verify_partial_action(H: HopfData, values) -> tuple:
    """Exact verification of (A) and of (B) over every ordered basis pair;
    ``values`` are the dim coordinates lam(e_i).  Returns the two reports,
    (plain, symmetric)."""
    _require_dim(H, values)
    zero = ParamPoly.zero(H.order)
    unit = _pair(values, H.unit, zero)
    plain = Report("partial_action(%s)" % H.name)
    sym = Report("symmetric_action(%s)" % H.name)
    for rep in (plain, sym):
        rep.expect("unital", ("1",), unit, ParamPoly.one(H.order))
    on = _on_products(H, values)
    support = [(y, ly) for y, ly in enumerate(values) if ly]
    for h in range(H.dim):
        lh = values[h]
        lhs = {y: lh * ly for y, ly in support} if lh else {}
        # the rows y -> sum c lam(h_1) lam(h_2 y) of (A) and
        # y -> sum c lam(h_2) lam(h_1 y) of (B), over the terms
        # c h_1 (x) h_2 of Delta(h); zero lam(h_i) dropped
        left: dict = {}
        right: dict = {}
        for (a, b), c in H.comult[h]:
            if values[a]:
                s = values[a] * c
                for y, p in on[b].items():
                    _cdict_add(left, y, s * p)
            if values[b]:
                s = values[b] * c
                for y, p in on[a].items():
                    _cdict_add(right, y, s * p)
        for rep, which, rhs in ((plain, "partial_action", left),
                                (sym, "symmetric_action", right)):
            rep.count(H.dim)
            if lhs == {y: v for y, v in rhs.items() if v}:
                continue
            for y in range(H.dim):
                diff = lhs.get(y, zero) - rhs.get(y, zero)
                if diff:
                    rep.fail(which, (H.basis[h], H.basis[y]), diff.render(),
                             "0")
    return plain, sym


def verify_partial_coaction(H: HopfData, values) -> tuple:
    """Exact verification of (C) and of (D) for the element z with the dim
    coordinates ``values``; each report also checks z^2 = z, which the
    coaction law forces.  Both sides are built on the sparse kernel.
    Returns the two reports, (plain, symmetric)."""
    _require_dim(H, values)
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
        for key, c in tensor_mul(H.mult, s, t).items():
            _cdict_add(diff, key, -c)
        _compare(rep, which, ("z",), diff, {}, H)
        _compare(rep, "idempotent", ("z^2 - z",), idem, {}, H)
        reps.append(rep)
    return tuple(reps)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """A (possibly parametric) family of partial actions or coactions on the
    base field: ``values`` holds the dim coordinates, ParamPoly in
    ``params``, of the functional lam (an action) or of the element z (a
    coaction) in the basis of ``algebra``."""

    name: str
    algebra: HopfData
    params: tuple
    values: tuple
    trace: tuple = ()   # the classifier's derivation; empty when hand-built


def _on_basis(H: HopfData, name: str, indices, value) -> Family:
    """The parameter-free family with ``value`` at each basis index in
    ``indices`` and zero elsewhere."""
    coords = [ParamPoly.zero(H.order)] * H.dim
    for i in indices:
        coords[i] = value
    return Family(name, H, (), tuple(coords))


def taft_parametric_action(n: int) -> Family:
    """The one-parameter action family on taft(n).

    Nonzero values: lam(g^{n-i mod n} x^j) = q^(i(i+1)/2) (j i)_q (-1)^i a^j.
    """
    H = taft(n)
    q = zeta_pow(n, 1)
    coords = [ParamPoly.zero(n)] * H.dim
    for i in range(n):
        g_exp = (n - i) % n
        for j in range(n):
            c = q_binomial(j, i, q)
            if c.is_zero():
                continue
            c = c * q ** (i * (i + 1) // 2)
            if i % 2:
                c = -c
            coords[g_exp * n + j] = ParamPoly.var(n, "a", j) * c
    return Family("parametric", H, ("a",), tuple(coords))


def taft_subgroup_action(n: int, k: int) -> Family:
    """The indicator action of the subgroup generated by g^k (k | n):
    1 on that subgroup, 0 on all other basis elements."""
    _require_divisor(n, k)
    return _on_basis(taft(n), "counit" if k == 1 else "subgroup<g^%d>" % k,
                     range(0, n * n, k * n), ParamPoly.one(n))


def taft_parametric_coaction(n: int) -> Family:
    """The one-parameter coaction family on taft(n), from the closed-form
    double sum with inverse q-factorial coefficients."""
    H = taft(n)
    q = zeta_pow(n, 1)
    inv_n = CycNumber.from_rational(n, Rational(1) / n)
    coords = [ParamPoly.zero(n)] * H.dim
    for k in range(n):
        coords[k * n] = ParamPoly.const(n, inv_n)
    for k in range(n):
        for j in range(1, n):
            inner = CycNumber.zero(n)
            for i in range(j + 1):
                fact = q_factorial(j - i, q) * q_factorial(i, q)
                assert not fact.is_zero(), "q-factorials below order are units"
                term = (zeta_pow(n, i * (i + 1) // 2 - i * (j + k))
                        * cyc_invert(fact))
                inner = inner + (-term if i % 2 else term)
            c = inv_n * zeta_pow(n, j * (j - 1) // 2 + k * j) * inner
            if c.is_zero():
                continue
            coords[k * n + j] = ParamPoly.var(n, "a", j) * c
    return Family("parametric", H, ("a",), tuple(coords))


def taft_subgroup_coaction(n: int, k: int) -> Family:
    """z = (1/|N|) sum of the subgroup N generated by g^k (k | n)."""
    _require_divisor(n, k)
    return _on_basis(taft(n), "global" if k == n else "subgroup<g^%d>" % k,
                     range(0, n * n, k * n),
                     ParamPoly.const(n, Rational(k, n)))


def nichols_parametric_action(n: int) -> Family:
    """lam(1) = 1, lam(x_i) = lam(g x_i) = a_i, zero elsewhere."""
    H = nichols(n)
    coords = [ParamPoly.zero(H.order)] * H.dim
    coords[0] = ParamPoly.one(H.order)
    params = tuple("a%d" % i for i in range(1, n))
    for i in range(1, n):
        p = ParamPoly.var(H.order, "a%d" % i)
        coords[1 << i] = p
        coords[(1 << i) | 1] = p
    return Family("parametric", H, params, tuple(coords))


def nichols_counit_action(n: int) -> Family:
    """lam = eps: 1 on the group-likes 1 and g, zero elsewhere."""
    H = nichols(n)
    return _on_basis(H, "counit", (0, 1), ParamPoly.one(H.order))


def nichols_parametric_coaction(n: int) -> Family:
    """z = (1+g)/2 - sum a_i g x_i."""
    H = nichols(n)
    half = ParamPoly.const(H.order, Rational(1) / 2)
    coords = [ParamPoly.zero(H.order)] * H.dim
    coords[0] = half
    coords[1] = half
    params = tuple("a%d" % i for i in range(1, n))
    for i in range(1, n):
        coords[(1 << i) | 1] = -ParamPoly.var(H.order, "a%d" % i)
    return Family("parametric", H, params, tuple(coords))


def nichols_global_coaction(n: int) -> Family:
    """z = 1, the coaction that is already global."""
    H = nichols(n)
    return _on_basis(H, "global", (0,), ParamPoly.one(H.order))


def group_subgroup_action(n: int, d: int) -> Family:
    """On kC_n: the indicator of the subgroup generated by g^d (d | n)."""
    H = group_algebra_cyclic(n)
    _require_divisor(n, d)
    return _on_basis(H, "counit" if d == 1 else "subgroup<g^%d>" % d,
                     range(0, n, d), ParamPoly.one(H.order))


def dual_group_subgroup_action(n: int, d: int) -> Family:
    """On (kC_n)^*: value 1/|N| on dual-basis elements indexed by the
    subgroup N generated by g^d, zero elsewhere."""
    H = dual_group_algebra_cyclic(n)
    _require_divisor(n, d)
    return _on_basis(H, "uniform" if d == 1 else "subgroup<g^%d>*" % d,
                     range(0, n, d), ParamPoly.const(H.order, Rational(d, n)))


# canonical listings -------------------------------------------------------

def taft_action_families(n: int) -> list:
    """All classified action families on taft(n): the counit, one indicator
    per intermediate subgroup, and the one-parameter family (which contains
    the trivial-subgroup indicator at a = 0)."""
    out = [taft_subgroup_action(n, k) for k in divisors(n)[:-1]]
    out.append(taft_parametric_action(n))
    return out


def taft_coaction_families(n: int) -> list:
    """All classified coaction families on taft(n).  The parametric family
    contains the full-group average at a = 0, so the closed entries run over
    the proper subgroups (k > 1), including z = 1 at k = n."""
    out = [taft_subgroup_coaction(n, k) for k in divisors(n)[1:]]
    out.append(taft_parametric_coaction(n))
    return out


def nichols_action_families(n: int) -> list:
    return [nichols_counit_action(n), nichols_parametric_action(n)]


def nichols_coaction_families(n: int) -> list:
    return [nichols_global_coaction(n), nichols_parametric_coaction(n)]


def group_action_families(n: int) -> list:
    return [group_subgroup_action(n, d) for d in divisors(n)]


def dual_group_action_families(n: int) -> list:
    return [dual_group_subgroup_action(n, d) for d in divisors(n)]


# ---------------------------------------------------------------------------
# closed-form special values and structural consequences
# ---------------------------------------------------------------------------

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

    from .qcomb import q_number
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
