"""Partial actions and coactions on the base field, and their verifiers.

A partial action of H on its base field is a functional lam with
lam(1) = 1 satisfying, for all h, y in H,

    (A)   lam(h) lam(y)  =  sum  lam(h_1) lam(h_2 y)          ["left"]
    (B)   lam(h) lam(y)  =  sum  lam(h_1 y) lam(h_2)          ["symmetric"]

(B) together with (A) makes the action symmetric.  A partial coaction is an
element z with eps(z) = 1 and

    (C)   z (x) z  =  (z (x) 1) Delta(z)
    (D)   z (x) z  =  Delta(z) (z (x) 1)                      ["symmetric"]

Both verifiers sweep every ordered basis pair and compare exact
polynomials in any free parameters, so a pass is a proof for all parameter
values, not a sampled check.  They share one evaluation of the laws,
``_action_rows``, and each returns two reports, (plain, symmetric).

``_action_rows`` builds the table of lam on products ``on[b][y] =
lam(e_b e_y)`` (its nonzero entries only) once, then yields each h as one
row over y per side.  The row y -> lam(h) lam(y) is built over the support
of lam and shared by (A) and (B).  Per term c h_1 (x) h_2 of Delta(h), the
(A) row adds the row on[h_2] scaled by c lam(h_1), and the (B) row adds
on[h_1] scaled by c lam(h_2).  All are sparse dicts keyed by y, so a row
costs one product per entry it adds.  The action verifier checks lam(1) = 1
and then each row: one that holds is one dict equality once the cancelled
entries are dropped, and counts as dim checks; one that differs is swept in
index order and reports each y whose residual lam(h) lam(y) - rhs is
nonzero, as a per-pair check against 0 would.

The coaction verifier runs the same rows on H* = ``dual_hopf(H)`` for
lam(f) = f(z), whose values on the dual basis e^i are the coordinates z_i.
Then (C) is (A) on H* and (D) is (B), entry by entry:

    lam(e^h) lam(e^y)                 = z_h z_y,
    lam(e^b e^y)                      = Delta(z)_(b,y)    (m of H* is Delta^T),
    sum c lam(e^a) lam(e^b e^y)       = sum_(a,b) m_(a,b)^h z_a Delta(z)_(b,y)
                                      = ((z (x) 1) Delta(z))_(h,y),

where Delta(e^h) = sum m_(a,b)^h e^a (x) e^b (Delta of H* is m^T); the last
step is (z (x) 1) Delta(z) = sum z_a Delta(z)_(b,j) e_a e_b (x) 1 e_j with
1 e_j = e_j.  The same steps with e_j 1 = e_j turn the (B) row into the
(h, y) coefficient of Delta(z) (z (x) 1).  So the (h, y) entry of lhs - left
is the e_h (x) e_y coefficient of the residual of (C), and that of
lhs - right the one of (D).  The one precondition is the unit law of H,
1 y = y = y 1, which ``validate_all`` checks; the unit of H* is eps, so
lam(1) = 1 is eps(z) = 1.  The coaction verifier gathers each law's
entries into one residual dict and compares it with 0 as one check, next
to eps(z) = 1 and z^2 = z.  The classifier keeps ``instance_residual``,
which evaluates one (h, y) instance of (A) on its own, since its unknowns
change between evaluations.

lam and z are each given by their dim coordinates in the basis of H, and a
``Family`` is that coordinate tuple with a name and its parameters; the
verifiers take the tuple itself.  The constructors below build every
family of such actions and coactions on the built-in algebras; the
classification solver re-derives the actions independently (see classify
module) and returns the same records, its derivation in ``trace``.
"""
from __future__ import annotations

from collections import namedtuple

from .exact_arith import CycNumber, ParamPoly, divisors, zeta_pow
from .hopf_core import (
    HopfData, Report, _cdict_add, _compare, _pair, dual_hopf, sparse,
    vec_mul,
)
from .algebras import (
    dual_group_algebra_cyclic, group_algebra_cyclic, nichols, taft,
)


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


def _action_rows(H: HopfData, values):
    """Per basis index h, (h, lhs, left, right): the rows over y of
    lam(h) lam(y) and of the right sides of (A) and (B), for the functional
    with the dim coordinates ``values``.  Each is a sparse dict keyed by y;
    entries that cancel stay in left and right as zeros.  A term of Delta(h)
    whose row on[b] (or on[a]) is empty adds nothing and is not scaled."""
    on = _on_products(H, values)
    support = [(y, ly) for y, ly in enumerate(values) if ly]
    for h in range(H.dim):
        lh = values[h]
        lhs = {y: lh * ly for y, ly in support} if lh else {}
        left: dict = {}
        right: dict = {}
        for (a, b), c in H.comult[h]:
            if values[a] and on[b]:
                s = values[a] * c
                for y, p in on[b].items():
                    _cdict_add(left, y, s * p)
            if values[b] and on[a]:
                s = values[b] * c
                for y, p in on[a].items():
                    _cdict_add(right, y, s * p)
        yield h, lhs, left, right


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
    for h, lhs, left, right in _action_rows(H, values):
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
    coordinates ``values``, as (A) and (B) of lam(f) = f(z) on H*: the
    (h, y) entries of lhs - left and lhs - right of ``_action_rows`` on
    ``dual_hopf(H)`` are the e_h (x) e_y coefficients of the residuals of
    (C) and (D), given the unit law of H (see the module docstring).  Each
    residual is one check against 0; each report also checks eps(z) = 1
    and z^2 = z, which the coaction law forces.  Returns the two reports,
    (plain, symmetric)."""
    _require_dim(H, values)
    zero = ParamPoly.zero(H.order)
    eps = _pair(values, enumerate(H.counit), zero)
    u = sparse(values)
    idem = vec_mul(H.mult, u, u)
    for i, a in u.items():
        _cdict_add(idem, i, -a)
    residuals = ({}, {})
    for h, lhs, left, right in _action_rows(dual_hopf(H), values):
        for diff, rhs in zip(residuals, (left, right)):
            if lhs != rhs:
                for y in lhs.keys() | rhs.keys():
                    diff[h, y] = lhs.get(y, zero) - rhs.get(y, zero)
    reps = []
    for which, diff in zip(("partial_coaction", "symmetric_coaction"),
                           residuals):
        rep = Report("%s(%s)" % (which, H.name))
        rep.expect("counit_normalization", ("eps(z)",), eps,
                   ParamPoly.one(H.order))
        _compare(rep, which, ("z",), diff, {}, H)
        _compare(rep, "idempotent", ("z^2 - z",), idem, {}, H)
        reps.append(rep)
    return tuple(reps)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

class Family(namedtuple("Family", "name algebra params values trace",
                        defaults=((),))):
    """A (possibly parametric) family of partial actions or coactions on the
    base field: ``values`` holds the dim coordinates, ParamPoly in
    ``params``, of the functional lam (an action) or of the element z (a
    coaction) in the basis of ``algebra``; ``trace`` is the classifier's
    derivation, empty when hand-built."""

    __slots__ = ()


def _on_basis(H: HopfData, name: str, indices, value) -> Family:
    """The parameter-free family with ``value`` at each basis index in
    ``indices`` and zero elsewhere."""
    coords = [ParamPoly.zero(H.order)] * H.dim
    for i in indices:
        coords[i] = value
    return Family(name, H, (), tuple(coords))


def taft_parametric_action(n: int) -> Family:
    """The one-parameter action family on taft(n): lam(g^{n-i mod n} x^j)
    = (-1)^i q^(i(i+1)/2) (j i)_q a^j for i <= j, zero for i > j, where
    the q-binomial vanishes (below the order n it is a unit for i <= j)."""
    from .qcomb import q_binomial
    H = taft(n)
    q = zeta_pow(n, 1)
    coords = [ParamPoly.zero(n)] * H.dim
    for i in range(n):
        g_exp = (n - i) % n
        for j in range(i, n):
            c = q_binomial(j, i, q) * zeta_pow(n, i * (i + 1) // 2)
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
    """The one-parameter coaction family on taft(n): z(g^k) = 1/n, and
    z(g^k x^j) = (1/n) (q - 1)^j (k+j-1 j)_q a^j for 1 <= j < n and
    1 <= k <= n - j, zero elsewhere.  Gauss's q-binomial theorem turns the
    double sum (1/n) q^(j(j-1)/2 + kj) sum_(i<=j) (-1)^i q^(i(i+1)/2 -
    i(j+k)) / ((j-i)_q! (i)_q!) into (1/n) prod_(k<=m<k+j) (q^m - 1) /
    (j)_q!, whose factor q^0 - 1 (k = 0) or q^n - 1 (k > n - j) is zero."""
    from .qcomb import q_binomial
    H = taft(n)
    q = zeta_pow(n, 1)
    inv_n = CycNumber.from_rational(n, 1, n)
    coords = [ParamPoly.zero(n)] * H.dim
    for k in range(n):
        coords[k * n] = ParamPoly.const(n, inv_n)
    scale = inv_n
    for j in range(1, n):
        scale = scale * (q - 1)
        for k in range(1, n - j + 1):
            coords[k * n + j] = (ParamPoly.var(n, "a", j)
                                 * (scale * q_binomial(k + j - 1, j, q)))
    return Family("parametric", H, ("a",), tuple(coords))


def taft_subgroup_coaction(n: int, k: int) -> Family:
    """z = (1/|N|) sum of the subgroup N generated by g^k (k | n)."""
    _require_divisor(n, k)
    return _on_basis(taft(n), "global" if k == n else "subgroup<g^%d>" % k,
                     range(0, n * n, k * n),
                     ParamPoly.const(n, CycNumber.from_rational(n, k, n)))


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
    half = ParamPoly.const(H.order, CycNumber.from_rational(H.order, 1, 2))
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
                     range(0, n, d), ParamPoly.const(
                         H.order, CycNumber.from_rational(H.order, d, n)))


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
