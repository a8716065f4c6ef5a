"""Classification of base-field partial actions by constraint propagation.

The solver treats the value of the functional on every basis vector as an
unknown polynomial variable, imposes lam(1) = 1, and sweeps all instances
of the partial-action equation over ordered basis pairs.  Three reduction
rules drive it:

  (a) a constraint linear in some unknown with constant leading coefficient
      solves that unknown and substitutes it everywhere;
  (b) a constraint all of whose monomials share an unknown factors as
      u * D and splits the search into u = 0 versus D = 0;
  (c) a nonzero constant constraint kills the branch.

Satisfied instances are pruned permanently: substitution is a ring
homomorphism, so an identically zero residual stays zero under every later
step.  A branch with no pending constraints is a solution; surviving
unknowns are free parameters of the family.

Before the sweep, the solver branches on the support of the functional on
the group-like group G(H).  That step is justified by machine checks, not
by assumption.  For group-likes v_a, v_b with v_a v_b = v_ab, the
combination sum_ij v_a[i] v_b[j] R(i, j) of the instance residuals
R(i, j) = lam(e_i) lam(e_j) - sum c lam(e_p) lam(e_r e_j), over the terms
c e_p (x) e_r of Delta(e_i), is linear in both basis vectors, so it equals

    lam(v_a) lam(v_b) - sum d lam(e_p) lam(e_r v_b)

over the terms d e_p (x) e_r of Delta(v_a).  If Delta(v_a) = v_a (x) v_a,
bilinearity turns the sum into lam(v_a) lam(v_a v_b) = lam(v_a) lam(v_ab),
so every solution has lam(v_a) lam(v_b) = lam(v_a) lam(v_ab), and with
v_b = 1 and lam(1) = 1, lam(v_a) = lam(v_a)^2.  ``_analyze_grouplikes``
checks v_a v_b = v_ab on the kernel and ``validate_grouplikes`` checks
Delta(v) = v (x) v for each of the m group-likes, which covers all m^2
pairs.  Fields have no idempotents besides 0 and 1, so the support of a
solution is a subset of G(H) that contains 1 and is closed under product.
``_analyze_grouplikes`` checks that G(H) multiplies as Z/m; a closed
subset of Z/m that contains 0 is a subgroup, and the subgroups of Z/m are
the dZ/m for d | m, so one branch per divisor of m covers every support.

Every family the solver emits is re-verified with the same exact checkers
used for the hand-built families before it is returned.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .exact_arith import CycNumber, ParamPoly, cyc_invert, divisors
from .hopf_core import (
    HopfData, _pair, sparse, validate_grouplikes, vec_mul,
)
from .families import Family, instance_residual, verify_partial_action


class ClassificationError(RuntimeError):
    """The solver could not complete a sound, exhaustive classification."""


class SolverUnsupported(ClassificationError):
    """The input lies beyond what the solver implements; no mathematical
    check failed."""


class NonCyclicGrouplikes(SolverUnsupported):
    """Group-like branching implemented for cyclic G(H) only."""


class BranchLimitExceeded(SolverUnsupported):
    """Search exceeded the branch budget."""


# branches one classification may explore before it is SolverUnsupported
BRANCH_LIMIT = 64


def family_count(m: int) -> int:
    """Number of classified action families when G(H) is cyclic of order m:
    one per subgroup, i.e. one per divisor."""
    return len(divisors(m))


def _uname(i: int) -> str:
    return "u%d" % i


# ---------------------------------------------------------------------------
# group-like support branching
# ---------------------------------------------------------------------------

def _grouplike_vectors(H: HopfData) -> list:
    one = CycNumber.one(H.order)
    return ([{i: one} for i in H.grouplikes]
            + [sparse(vec) for vec in H.grouplike_vectors])


@dataclass(frozen=True)
class GrouplikeStructure:
    vectors: tuple      # sparse coordinate dicts, one per group element
    table: tuple        # table[a][b] = index of product
    subgroups: tuple    # (d, mask) per divisor d of |G|: bits of gen^k, d | k


def _analyze_grouplikes(H: HopfData) -> GrouplikeStructure:
    """Product table, cyclic structure and subgroups of G(H).

    The table is read off the kernel, each product found in a dict keyed
    by its sorted items (the first of equal declarations wins); a
    generator gen is an element whose powers reach all m elements.  The
    check that gen^0, ..., gen^(m-1) are distinct and
    table[gen^i][gen^j] == gen^((i + j) mod m) for all i, j proves that
    k -> gen^k is an isomorphism from Z/m onto the table.  The
    supports the solver branches over are the subsets S of G(H) that
    contain 1 and are closed under product, and two lemmas name them all:

      1. A closed subset S containing 0 of a finite group Z/m is a
         subgroup: s in S has finite order, so -s = (ord s - 1) s is in S.
      2. The subgroups of Z/m are exactly the dZ/m for d | m.

    So the closed supports are the sets {gen^k : d | k}, one per divisor
    d of m, and ``subgroups`` lists them as (d, bitmask) pairs."""
    G = _grouplike_vectors(H)
    m = len(G)
    if m == 0:
        raise SolverUnsupported("no declared group-likes on %s" % H.name)
    unit = {i: c for i, c in H.unit}
    ident = next((a for a, v in enumerate(G) if v == unit), None)
    if ident is None:
        raise ClassificationError("unit is not among the group-likes")

    index: dict = {}
    for k, v in enumerate(G):
        index.setdefault(tuple(sorted(v.items())), k)
    table = []
    for a in range(m):
        row = []
        for b in range(m):
            prod = vec_mul(H.mult, G[a], G[b])
            c = index.get(tuple(sorted(prod.items())))
            if c is None:
                raise ClassificationError(
                    "group-likes of %s are not closed under product" % H.name)
            row.append(c)
        table.append(tuple(row))
    table = tuple(table)

    gen = None
    for cand in range(m):
        cur, seen = ident, set()
        for _ in range(m):
            cur = table[cur][cand]
            seen.add(cur)
        if len(seen) == m:
            gen = cand
            break
    if gen is None:
        raise NonCyclicGrouplikes(
            "group-like group of %s is not cyclic" % H.name)

    power = [ident]
    for _ in range(m - 1):
        power.append(table[power[-1]][gen])
    if len(set(power)) < m or any(
            table[power[i]][power[j]] != power[(i + j) % m]
            for i in range(m) for j in range(m)):
        raise ClassificationError(
            "group-likes of %s do not multiply as Z/%d" % (H.name, m))
    subgroups = tuple((d, sum(1 << power[k] for k in range(0, m, d)))
                      for d in divisors(m))
    return GrouplikeStructure(tuple(G), table, subgroups)


# ---------------------------------------------------------------------------
# solver state
# ---------------------------------------------------------------------------

@dataclass
class _State:
    values: list                # ParamPoly per basis index
    pending: list               # (h, y) instances not yet known satisfied
    extra: list                 # additional polynomial constraints == 0
    trace: list = field(default_factory=list)
    label: str = ""


@dataclass(frozen=True)
class ClassifiedActions:
    algebra: HopfData
    families: tuple
    branches_explored: int

    def count(self) -> int:
        return len(self.families)


def _substitute(st: _State, name: str, value: ParamPoly, why: str):
    st.values = [v if v.is_zero() else v.subs(name, value) for v in st.values]
    st.extra = [c2 for c2 in (c.subs(name, value) for c in st.extra)
                if not c2.is_zero()]
    st.trace.append("%s := %s  [%s]" % (name, value.render("q"), why))


def _try_linear(st: _State, poly: ParamPoly, why: str) -> bool:
    for name in poly.vars_used():
        try:
            A, B = poly.linear_split(name)
        except ValueError:
            continue
        if not A.is_constant():
            continue
        val = B * (-cyc_invert(A.constant_value()))
        _substitute(st, name, val, why)
        return True
    return False


def _find_split(poly: ParamPoly):
    for name in poly.vars_used():
        try:
            return name, poly.divide_by_var(name)
        except ValueError:
            continue
    return None


def _propagate(H: HopfData, st: _State):
    """Run rules to a fixpoint.  Returns one of
    ("solved",), ("contradiction", where), ("split", var, cofactor),
    ("stuck", unsolved)."""
    while True:
        progressed = False

        # derived constraints: solve linear ones to exhaustion; _substitute
        # rewrites st.extra, so restart the scan after every success
        while True:
            st.extra = [c for c in st.extra if not c.is_zero()]
            bad = next((c for c in st.extra if c.is_constant()), None)
            if bad is not None:
                return ("contradiction",
                        "derived constraint %s" % bad.render("q"))
            for c in st.extra:
                if _try_linear(st, c, "derived constraint"):
                    progressed = True
                    break
            else:
                break

        still, residuals = [], []
        for (h, y) in st.pending:
            r = instance_residual(H, st.values, h, y)
            if r.is_zero():
                continue
            if r.is_constant():
                return ("contradiction",
                        "instance (%s, %s) = %s" % (H.basis[h], H.basis[y],
                                                    r.render("q")))
            if _try_linear(st, r, "instance (%s, %s)"
                           % (H.basis[h], H.basis[y])):
                progressed = True
            still.append((h, y))
            residuals.append(r)
        st.pending = still

        if progressed:
            continue
        if not st.pending and not st.extra:
            return ("solved",)
        # no substitution since the pass above, so its residuals are current
        for c in st.extra + residuals:
            hit = _find_split(c)
            if hit:
                return ("split", hit[0], hit[1])
        unsolved = [c.render("q") for c in st.extra]
        unsolved += ["(%s, %s)" % (H.basis[h], H.basis[y])
                     for h, y in st.pending]
        return ("stuck", unsolved)


def _promote(H: HopfData, st: _State) -> Family:
    """Surviving unknowns become free parameters t1, t2, ...; the family
    is named once the solutions are sorted.

    Canonical scaling: walking the basis in degree order, the first value
    that is a constant multiple of a lone unknown u_k defines a new
    parameter outright (the value becomes exactly t_j), which pins the
    normalization instead of leaving it to substitution order.  The walk
    reaches every surviving unknown: u_k is never substituted, so
    values[k] is still exactly u_k at index k unless an earlier index
    already replaced u_k by a parameter."""
    values = list(st.values)
    params = []
    for i in sorted(range(H.dim), key=lambda i: (H.degree(i), i)):
        v = values[i]
        if v.is_constant() or len(v.terms) != 1:
            continue
        (mono, c), = v.terms.items()
        old = mono[0][0]
        if len(mono) != 1 or mono[0][1] != 1 or not old.startswith("u"):
            continue
        new = "t%d" % (len(params) + 1)
        params.append(new)
        repl = ParamPoly.var(H.order, new) * cyc_invert(c)
        values = [w.subs(old, repl) for w in values]
        st.trace.append("free parameter %s scaled into %s = lam(%s)"
                        % (old, new, H.basis[i]))
    return Family("", H, tuple(params), tuple(values), tuple(st.trace))


def classify_base_field_actions(H: HopfData) -> ClassifiedActions:
    """Classify all partial actions of H on its base field.

    Exhaustive over the branch tree described in the module docstring;
    raises ClassificationError when soundness cannot be established, as
    SolverUnsupported when the cause is a limit of the solver rather than a
    failed check.
    """
    pairs = sorted(((h, y) for h in range(H.dim) for y in range(H.dim)),
                   key=lambda p: (H.degree(p[0]) + H.degree(p[1]), p))
    zero, one = ParamPoly.zero(H.order), ParamPoly.one(H.order)

    def fresh() -> _State:
        values = [ParamPoly.var(H.order, _uname(i)) for i in range(H.dim)]
        st = _State(values, list(pairs), [], [], "")
        st.extra.append(_pair(values, H.unit, zero) - one)
        st.trace.append("normalization lam(1) = 1")
        return st

    stack = []
    gs = _analyze_grouplikes(H)
    bad = validate_grouplikes(H).failures
    if bad:
        raise ClassificationError("%s failed at %s on %s"
                                  % (bad[0].check, bad[0].where, H.name))
    for d, mask in gs.subgroups:
        st = fresh()
        st.label = "support=<gen^%d>" % d
        st.trace.append("group-like support branch <gen^%d>" % d)
        for a, vec in enumerate(gs.vectors):
            form = _pair(st.values, vec.items(), zero)
            st.extra.append(form - one if (mask >> a) & 1 else form)
        stack.append(st)

    solutions: dict = {}  # rendered values -> family, in the order found
    explored = 0
    while stack:
        explored += 1
        if explored > BRANCH_LIMIT:
            raise BranchLimitExceeded("more than %d branches" % BRANCH_LIMIT)
        st = stack.pop()
        out = _propagate(H, st)
        if out[0] == "contradiction":
            continue
        if out[0] == "stuck":
            raise SolverUnsupported(
                "solver stuck on %s (%s): %s"
                % (H.name, st.label, "; ".join(out[1])))
        if out[0] == "split":
            _, var, cof = out
            zero_side = _State(list(st.values), list(st.pending),
                               list(st.extra), list(st.trace), st.label)
            _substitute(zero_side, var, zero, "split, vanishing side")
            other = _State(list(st.values), list(st.pending),
                           list(st.extra) + [cof], list(st.trace), st.label)
            other.trace.append("split, cofactor side: %s = 0" % cof.render("q"))
            stack.append(zero_side)
            stack.append(other)
            continue
        sol = _promote(H, st)
        solutions.setdefault(tuple(v.render() for v in sol.values), sol)

    for sol in solutions.values():
        rep, srep = verify_partial_action(H, sol.values)
        if not rep.merge(srep).ok:
            raise ClassificationError(
                "solver emitted an invalid family on %s: %s"
                % (H.name, rep.summary()))

    ranked = sorted(solutions.items(),
                    key=lambda ks: (len(ks[1].params), ks[0]))
    families = tuple(replace(s, name="family%d" % (i + 1))
                     for i, (_, s) in enumerate(ranked))
    return ClassifiedActions(H, families, explored)
