"""Finite-dimensional Hopf algebras presented by structure constants.

A HopfData instance is a plain immutable container: sparse multiplication
and comultiplication tensors, unit and counit, an antipode matrix, and
declared metadata (group-like basis indices, skew-primitive triples, and
group-like elements that are not basis vectors, stored as coordinate
rows).  Nothing is assumed about the data: validators check every axiom
exactly, coefficient by coefficient, and report each failing instance.

The sweeps that grow with dim^3 (associativity) and dim^2 (Delta and eps
are algebra maps) walk only the nonzero structure constants, through
indexes built once per call, and compare both sides for one first index
at a time.  The first indices are only the generators of a generation
certificate computed from the product table under test: from a unit that
is one basis vector, every basis vector that is the only new term of a
product of vectors already reached is reached, and the lowest unreached
vector by (degree, index) becomes a generator whenever nothing new is; a
unit with several terms makes every index a generator.  The axioms close
under products (see ``validate_bialgebra``), so the tuples past the
generators hold once the generators' do.  ``checks`` counts basis tuples
covered, not products made: a passing report counts every tuple, checked
or covered, as one check.  A report with any failure is replaced by that
of the full sweep over every first index, so failures are reported per
tuple in sorted order, as if every tuple had been checked, and never
depend on the certificate.  In the Delta sweep a product row scaled by
its coproduct coefficient is built once and shared by every coproduct
term it meets, so with one-term rows a pair of terms costs two scalar
products, not three.  The JSON importer bounds dim, order and coefficient
expressions before any sweep runs, refuses a non-integer or a non-array
where it expects one, and parses each distinct coefficient string once.

Those sweeps, the unit and counit laws, coassociativity and
``validate_antipode`` loop over the structure rows; the products that
build whole vectors, in this module and in the others, run on one small
sparse kernel over {index: scalar} dicts (no builder makes one: the
built-in algebras are stated in closed form).  An element of H (x) H is such a
dict keyed by basis pairs, with no class of its own, and every linear form
on a vector given by its terms (lam(1), eps(z), lam(e_b e_y), the counit
sums) is one ``_pair``.  Every check in
the package is reported one of two ways: a scalar by ``Report.expect``, a
pair of coefficient dicts by ``_compare`` (a side that must vanish is
``{}``).

An element of H and a functional on H are both plain tuples of ``dim``
coordinates in the declared basis (ParamPoly for the families, so that free
parameters flow through the same arithmetic as concrete values); ``sparse``
turns such a tuple into a kernel vector and ``dense`` turns one back.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .exact_arith import CycNumber


class HopfData(namedtuple("HopfData", (
        "name", "dim", "order", "basis", "mult", "unit", "comult", "counit",
        "antipode", "grouplikes", "grouplike_vectors", "skew_primitives",
        "basis_degrees"), defaults=((), (), (), ()))):
    """Structure constants of one finite-dimensional Hopf algebra.

    mult[(i, j)]   -> tuple of (k, c):       e_i e_j = sum c . e_k
    comult[i]      -> tuple of ((j, k), c):  Delta(e_i) = sum c . e_j (x) e_k
    unit           -> tuple of (i, c):       1 = sum c . e_i
    counit[i]      -> CycNumber              eps(e_i)
    antipode[i]    -> tuple of (j, c):       S(e_i) = sum c . e_j
    grouplikes     -> basis indices that are group-like
    grouplike_vectors -> declared group-like elements that are not basis
                      vectors, as dense coordinate tuples
    skew_primitives -> (x, g, h) with Delta(e_x) = e_x (x) e_g + e_h (x) e_x
    basis_degrees  -> optional ordering hint (0 for group part); empty means
                      all zero
    Every structure row is (key, c) pairs, so Delta is ``vec_map`` over
    comult, and m, Delta and S each transpose by one ``_transpose``.
    The record is read-only and equal only to itself: the builders are
    cached and share their algebras, which key other caches by identity.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    # identity, not tuple equality: no copy and no plain tuple of the same
    # fields equals an algebra
    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def zero_scalar(self) -> CycNumber:
        return CycNumber.zero(self.order)

    def one_scalar(self) -> CycNumber:
        return CycNumber.one(self.order)

    def degree(self, i: int) -> int:
        return self.basis_degrees[i] if self.basis_degrees else 0

    def label_index(self, label: str) -> int:
        try:
            return self.basis.index(label)
        except ValueError:
            raise KeyError("no basis element %r in %s" % (label, self.name))

    def __repr__(self):
        return "<HopfData %s dim=%d order=%d>" % (self.name, self.dim, self.order)


# ---------------------------------------------------------------------------
# the sparse kernel
# ---------------------------------------------------------------------------
# A vector is a dict {index: scalar} and a tensor in H (x) H a dict
# {(i, j): scalar}, the scalars CycNumber or ParamPoly; results hold no zero
# entries.  vec_map (Delta too, over comult) and tensor_map read their
# argument once, as (key, scalar) pairs, so a dict's items(), a structure
# row or enumerate(coords) all serve; zero scalars among them are skipped.  The
# structure constant is always the right operand of a product, so a
# ParamPoly coordinate times a CycNumber constant is one ParamPoly product.

def sparse(values) -> dict:
    """Dense coordinates to a vector."""
    return {i: c for i, c in enumerate(values) if c}


def dense(u: dict, dim: int, zero) -> tuple:
    """A vector to ``dim`` dense coordinates, ``zero`` where it has none."""
    return tuple(u.get(i, zero) for i in range(dim))


def _pair(values, terms, zero):
    """The linear form with ``values`` on the basis at sum c e_i, over the
    (i, c) in ``terms``: sum values[i] c, ``zero`` when no term is nonzero.
    A zero value or coefficient costs no product, and the sum starts from
    its first product, so one term costs no addition."""
    out = None
    for i, c in terms:
        v = values[i]
        if v and c:
            out = v * c if out is None else out + v * c
    return zero if out is None else out


def vec_mul(mult: dict, u: dict, v: dict) -> dict:
    """The product u v through the table mult[(i, j)] = ((k, c), ...)."""
    out: dict = {}
    for i, a in u.items():
        for j, b in v.items():
            row = mult.get((i, j))
            if row:
                ab = a * b
                for k, c in row:
                    prev = out.get(k)
                    out[k] = ab * c if prev is None else prev + ab * c
    return {k: s for k, s in out.items() if s}


def vec_map(rows, terms) -> dict:
    """The image of sum a e_i, over the (i, a) in ``terms``, under the
    linear map e_i -> sum c e_j over the (j, c) in rows[i]."""
    out: dict = {}
    for i, a in terms:
        if a:
            for j, c in rows[i]:
                prev = out.get(j)
                out[j] = a * c if prev is None else prev + a * c
    return {j: s for j, s in out.items() if s}


def tensor_map(rows, terms) -> dict:
    """The image of sum c e_a (x) e_b, over the ((a, b), c) in ``terms``,
    under the map of ``vec_map`` applied to both tensor factors."""
    out: dict = {}
    for (a, b), c in terms:
        if c:
            for p, u in rows[a]:
                cu = c * u
                for q, v in rows[b]:
                    key = (p, q)
                    prev = out.get(key)
                    out[key] = cu * v if prev is None else prev + cu * v
    return {k: s for k, s in out.items() if s}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class CheckFailure(namedtuple("CheckFailure", "check where lhs rhs")):
    __slots__ = ()

    def __str__(self):
        return "%s at %s: %s != %s" % (self.check, self.where, self.lhs, self.rhs)


class Report:
    __slots__ = ("subject", "checks_run", "failures")

    def __init__(self, subject: str):
        self.subject = subject
        self.checks_run = 0
        self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, n: int = 1):
        self.checks_run += n

    def fail(self, check: str, where: tuple, lhs: str, rhs: str):
        self.failures.append(CheckFailure(check, where, lhs, rhs))

    def expect(self, check: str, where: tuple, got, want):
        """One check that the scalar ``got`` equals ``want``; a mismatch is
        reported with both sides rendered."""
        self.checks_run += 1
        if got != want:
            self.fail(check, where, got.render(), want.render())

    def merge(self, other: "Report") -> "Report":
        self.checks_run += other.checks_run
        self.failures.extend(other.failures)
        return self

    def summary(self) -> str:
        state = "ok" if self.ok else "FAILED"
        out = "%s: %s (%d checks)" % (self.subject, state, self.checks_run)
        for f in self.failures[:20]:
            out += "\n  " + str(f)
        if len(self.failures) > 20:
            out += "\n  ... %d more failures" % (len(self.failures) - 20)
        return out


def _cdict_add(acc: dict, key, c):
    prev = acc.get(key)
    acc[key] = c if prev is None else prev + c


def _cdict_str(d: dict, H: HopfData) -> str:
    parts = []
    for k in sorted(d):
        lbl = ("(x)".join(H.basis[i] for i in k) if isinstance(k, tuple)
               else H.basis[k])
        parts.append("(%s)*%s" % (d[k].render(), lbl))
    return " + ".join(parts) if parts else "0"


def _compare(rep: Report, check: str, where: tuple, left: dict, right: dict,
             H: HopfData, width: int = 0):
    """Compare two sides of an axiom given as coefficient dicts; a side
    that must vanish is compared with ``{}`` and renders as ``0``.

    The first ``width`` indices of every key name a basis tuple and the
    rest a basis element of the result, so one pair of dicts can hold a
    whole slice of checks: one per basis tuple, H.dim ** width in all, which
    the compare counts itself, pass or fail.  Each tuple whose sides differ
    is reported, in sorted order, as a failure at ``where`` + tuple.  With
    ``width`` 0 the dicts are one check, and their keys may also be plain
    basis indices (kernel vectors).  Equal dicts pass at once; otherwise
    zero entries are deleted from both before they are compared again.
    """
    rep.count(H.dim ** width)
    if left == right:
        return
    for d in (left, right):
        for key in [key for key, v in d.items() if not v]:
            del d[key]
    if left == right:
        return
    if not width:
        rep.fail(check, where, _cdict_str(left, H), _cdict_str(right, H))
        return
    lsplit: dict = {}
    rsplit: dict = {}
    for d, split in ((left, lsplit), (right, rsplit)):
        for key, v in d.items():
            split.setdefault(key[:width], {})[key[width:]] = v
    for tup in sorted(lsplit.keys() | rsplit.keys()):
        lhs, rhs = lsplit.get(tup, {}), rsplit.get(tup, {})
        if lhs != rhs:
            rep.fail(check, where + tup, _cdict_str(lhs, H),
                     _cdict_str(rhs, H))


def _generators(H: HopfData) -> list:
    """The generation certificate of H's product table: basis indices that,
    with the unit, generate H as an algebra.

    Only a unit that is a multiple of one basis vector e_u is used; any
    other unit gives every index.  From e_u, e_k is reached when a product
    of two reached basis vectors has e_k as its only unreached term, with a
    nonzero coefficient (duplicate terms of a row summed): then e_k is that
    product minus reached terms, over its coefficient.  When
    nothing new is reached, the unreached index with the lowest
    ``(H.degree(i), i)`` becomes the next generator.  The table is read as
    it is, faulted or not, and no scalar is multiplied.
    """
    dim = H.dim
    if len(H.unit) != 1:
        return list(range(dim))
    # support[(a, b)] = the k with a nonzero coefficient in e_a e_b;
    # containing[k] = the (a, b) whose support holds k
    support: dict = {}
    containing: list = [[] for _ in range(dim)]
    for key, row in H.mult.items():
        sums: dict = {}
        for k, c in row:
            _cdict_add(sums, k, c)
        support[key] = ks = [k for k, c in sums.items() if c]
        for k in ks:
            containing[k].append(key)
    reached = [False] * dim
    seen: list = []
    # unreached[(a, b)] = how many terms of e_a e_b are unreached, once a
    # and b are
    unreached: dict = {}
    gens: list = []
    queue = [H.unit[0][0]]
    while True:
        while queue:
            r = queue.pop()
            if reached[r]:
                continue
            reached[r] = True
            for key in containing[r]:
                left = unreached.get(key)
                if left is not None:
                    unreached[key] = left - 1
                    if left == 2:
                        queue.extend(k for k in support[key] if not reached[k])
            seen.append(r)
            for s in seen:
                for key in ((r, s), (s, r)):
                    if key in unreached or key not in support:
                        continue
                    lone = [k for k in support[key] if not reached[k]]
                    unreached[key] = len(lone)
                    if len(lone) == 1:
                        queue.append(lone[0])
        if len(seen) == dim:
            return gens
        gens.append(min((H.degree(i), i) for i in range(dim)
                        if not reached[i])[1])
        queue.append(gens[-1])


def validate_bialgebra(H: HopfData) -> Report:
    """Exact check of every bialgebra axiom on basis elements.

    Associativity, Delta-multiplicativity and eps-multiplicativity are
    checked only with the generators of ``_generators`` as first index; the
    basis tuples past them are covered by this lemma and still count as
    checks.  A = {a : (ab)c = a(bc) for all b, c} is a subspace; it
    contains 1 by the unit laws, and it is closed under products: for a, a'
    in A, ((aa')b)c = (a(a'b))c = a((a'b)c) = a(a'(bc)) = (aa')(bc).  The
    generators lie in A when associativity holds on generators x basis x
    basis, and every other reached e_k is a multiple of a product of two
    elements of A minus elements of A, so then A is all of H.  Once
    associativity holds, the same closure holds for
    {a : Delta(ab) = Delta(a) Delta(b) for all b}, which contains 1 given
    Delta(1) = 1 (x) 1, and for {a : eps(ab) = eps(a) eps(b) for all b},
    which contains 1 given eps(1) = 1; both unit facts are checked later in
    the same report.  So a passing report on the generators is the passing
    report of the full sweep.  A report with any failure, the unit laws
    included, is replaced by that of the full sweep over every first index,
    so failure lists and counts never depend on the certificate.
    """
    firsts = _generators(H)
    rep = _bialgebra_sweep(H, firsts)
    if rep.ok or len(firsts) == H.dim:
        return rep
    return _bialgebra_sweep(H, range(H.dim))


def _bialgebra_sweep(H: HopfData, firsts) -> Report:
    """Every bialgebra axiom, with associativity and the two
    multiplicativity axioms checked on the first indices ``firsts`` and the
    tuples of every other first index counted as covered.

    Associativity and Delta-multiplicativity are checked one first index i
    at a time: both sides for every (j, k), resp. every j, are built in one
    dict by walking only the nonzero products, and each tuple still counts
    as one check.

    The right side of Delta(e_i e_j) = Delta(e_i) Delta(e_j) sums
    c1 c2 (e_a1 e_a2) (x) (e_b1 e_b2) over the terms c1 e_a1 (x) e_b1 of
    Delta(e_i) and c2 e_a2 (x) e_b2 of Delta(e_j).  The row of e_a1 e_a2
    is scaled by c1 once per (term, a2), at the first term of a Delta(e_j)
    whose right factors have a nonzero product; each such term then costs
    one product c2 * cb per term of e_b1 e_b2 and one per output term.  No
    table outlives one i.
    """
    rep = Report("bialgebra(%s)" % H.name)
    dim, mult, comult = H.dim, H.mult, H.comult
    zero = H.zero_scalar()
    one = H.one_scalar()

    # by_left[a] = [(b, row of e_a e_b)] over the nonempty products;
    # containing[m] = [(j, k, c)] for every term c e_m of some e_j e_k;
    # by_first[a] = [(j, c, b)] for every term c e_a (x) e_b of Delta(e_j)
    by_left: list = [[] for _ in range(dim)]
    containing: list = [[] for _ in range(dim)]
    for (a, b), row in mult.items():
        if row:
            by_left[a].append((b, row))
        for m, c in row:
            containing[m].append((a, b, c))
    by_first: list = [[] for _ in range(dim)]
    for j, row in enumerate(comult):
        for (a, b), c in row:
            by_first[a].append((j, c, b))

    # unit laws
    unit = dict(H.unit)
    for i in range(dim):
        for flip in (False, True):
            acc: dict = {}
            for a, ua in unit.items():
                row = mult.get((a, i) if not flip else (i, a))
                if row:
                    for k, c in row:
                        _cdict_add(acc, (k,), ua * c)
            _cdict_add(acc, (i,), -one)
            _compare(rep, "unit_law", (("1*e" if not flip else "e*1"), i),
                     acc, {}, H)

    # the tuples whose first index is not in firsts, covered by the lemma
    covered = dim - len(firsts)

    # associativity: (e_i e_j) e_k against e_i (e_j e_k), keyed (j, k, t)
    rep.count(covered * dim * dim)
    for i in firsts:
        left: dict = {}
        for j, row_ij in by_left[i]:
            for m, c in row_ij:
                for k, row_mk in by_left[m]:
                    for t, c2 in row_mk:
                        key = (j, k, t)
                        prev = left.get(key)
                        left[key] = c * c2 if prev is None else prev + c * c2
        right: dict = {}
        for m, row_im in by_left[i]:
            for j, k, c in containing[m]:
                for t, c2 in row_im:
                    key = (j, k, t)
                    prev = right.get(key)
                    right[key] = c * c2 if prev is None else prev + c * c2
        _compare(rep, "associativity", (i,), left, right, H, 2)

    # counit laws: (eps (x) id) Delta = id = (id (x) eps) Delta
    for i in range(dim):
        lacc: dict = {}
        racc: dict = {}
        for (j, k), c in comult[i]:
            ej = H.counit[j]
            if ej:
                _cdict_add(lacc, (k,), c * ej)
            ek = H.counit[k]
            if ek:
                _cdict_add(racc, (j,), c * ek)
        _cdict_add(lacc, (i,), -one)
        _cdict_add(racc, (i,), -one)
        _compare(rep, "counit_left", (i,), lacc, {}, H)
        _compare(rep, "counit_right", (i,), racc, {}, H)

    # coassociativity on basis elements
    for i in range(dim):
        left = {}
        right = {}
        for (j, k), c in comult[i]:
            for (a, b), c2 in comult[j]:
                _cdict_add(left, (a, b, k), c * c2)
            for (a, b), c2 in comult[k]:
                _cdict_add(right, (j, a, b), c * c2)
        _compare(rep, "coassociativity", (i,), left, right, H)

    # Delta is an algebra map: Delta(e_i e_j) against Delta(e_i) Delta(e_j),
    # keyed (j, a, b)
    rep.count(covered * dim)
    for i in firsts:
        lhs: dict = {}
        for j, row_ij in by_left[i]:
            for k, c in row_ij:
                for (a, b), c2 in comult[k]:
                    key = (j, a, b)
                    prev = lhs.get(key)
                    lhs[key] = c * c2 if prev is None else prev + c * c2
        rhs: dict = {}
        for (a1, b1), c1 in comult[i]:
            for a2, ra in by_left[a1]:
                # the row of e_a1 e_a2 scaled by c1, built at the first hit
                ra1 = None
                for j, c2, b2 in by_first[a2]:
                    rb = mult.get((b1, b2))
                    if not rb:
                        continue
                    if ra1 is None:
                        ra1 = [(a, c1 * ca) for a, ca in ra]
                    for b, cb in rb:
                        s = c2 * cb
                        for a, c in ra1:
                            key = (j, a, b)
                            prev = rhs.get(key)
                            rhs[key] = c * s if prev is None else prev + c * s
        _compare(rep, "comult_multiplicative", (i,), lhs, rhs, H, 1)

    # eps is an algebra map; Delta(1) = 1 (x) 1; eps(1) = 1
    rep.count(covered * dim)
    for i in firsts:
        for j in range(dim):
            rep.expect("counit_multiplicative", (i, j),
                       _pair(H.counit, mult.get((i, j), ()), zero),
                       H.counit[i] * H.counit[j])
    d1 = vec_map(comult, H.unit)
    for i, ui in H.unit:
        for j, uj in H.unit:
            _cdict_add(d1, (i, j), -(ui * uj))
    _compare(rep, "comult_of_unit", (), d1, {}, H)
    rep.expect("counit_of_unit", (), _pair(H.counit, H.unit, zero), one)
    return rep


def validate_antipode(H: HopfData) -> Report:
    """m(S (x) id)Delta = unit . eps = m(id (x) S)Delta, on every basis element."""
    rep = Report("antipode(%s)" % H.name)
    mult = H.mult
    for i in range(H.dim):
        left: dict = {}
        right: dict = {}
        for (j, k), c in H.comult[i]:
            for m, cs in H.antipode[j]:
                row = mult.get((m, k))
                if row:
                    for t, c2 in row:
                        _cdict_add(left, (t,), c * cs * c2)
            for m, cs in H.antipode[k]:
                row = mult.get((j, m))
                if row:
                    for t, c2 in row:
                        _cdict_add(right, (t,), c * cs * c2)
        target: dict = {}
        ei = H.counit[i]
        for a, ua in H.unit:
            _cdict_add(target, (a,), ua * ei)
        _compare(rep, "antipode_left", (i,), left, target, H)
        _compare(rep, "antipode_right", (i,), right, target, H)
    return rep


def validate_grouplikes(H: HopfData) -> Report:
    """Every declared group-like g satisfies Delta(g) = g (x) g and
    eps(g) = 1: a basis index through its comultiplication row, a declared
    vector u on the kernel with constant scalars.  A failure lists both
    sides by basis labels, in sorted order."""
    rep = Report("metadata(%s)" % H.name)
    one = H.one_scalar()
    for b in H.grouplikes:
        row: dict = {}
        for jk, c in H.comult[b]:
            _cdict_add(row, jk, c)
        _cdict_add(row, (b, b), -one)
        _compare(rep, "grouplike_comult", (b,), row, {}, H)
        rep.expect("grouplike_counit", (b,), H.counit[b], one)
    for vec in H.grouplike_vectors:
        u = sparse(vec)
        _compare(rep, "grouplike_vector_comult",
                 tuple(c.render() for c in vec),
                 vec_map(H.comult, u.items()),
                 {(i, j): a * b for i, a in u.items() for j, b in u.items()},
                 H)
        rep.expect("grouplike_vector_counit", (),
                   _pair(H.counit, u.items(), H.zero_scalar()), one)
    return rep


def validate_metadata(H: HopfData) -> Report:
    """The declared metadata: the group-like checks of
    ``validate_grouplikes`` (two per group-like), then
    Delta(x) = x (x) g + h (x) x for each skew-primitive (x, g, h)."""
    rep = validate_grouplikes(H)
    one = H.one_scalar()
    for (x, g, h) in H.skew_primitives:
        row: dict = {}
        for jk, c in H.comult[x]:
            _cdict_add(row, jk, c)
        _cdict_add(row, (x, g), -one)
        _cdict_add(row, (h, x), -one)
        _compare(rep, "skew_primitive_comult", (x, g, h), row, {}, H)
    return rep


def validate_all(H: HopfData) -> Report:
    rep = validate_bialgebra(H)
    rep.merge(validate_antipode(H))
    rep.merge(validate_metadata(H))
    rep.subject = "hopf(%s)" % H.name
    return rep


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def _transpose(rows) -> dict:
    """The transpose of a map given by its (key, row) pairs, each row of
    (key2, c) pairs: {key2: ((key, c), ...)}, each row in the order of
    ``rows``."""
    out: dict = {}
    for key, row in rows:
        for key2, c in row:
            out.setdefault(key2, []).append((key, c))
    return {key2: tuple(v) for key2, v in out.items()}


@lru_cache(maxsize=None)
def dual_hopf(H: HopfData) -> HopfData:
    """The dual Hopf algebra on the dual basis, by transposing m, Delta, S.

    Built once per algebra: ``HopfData`` hashes by identity, so the cache
    key is H itself, and every caller shares the one read-only record.

    The product of functionals is the transpose of comult, so the dual's
    product table is the convolution product of H*; the coproduct is the
    transpose of mult, each row sorted by its (j, k) key; unit is the
    counit, counit is evaluation at 1.  Group-like metadata cannot be
    inferred in general, so none is declared; a caller that knows characters
    of H adds them by ``_replace``, sharing every table of this record.
    """
    dim = H.dim
    comult = _transpose(H.mult.items())
    antipode = _transpose(enumerate(H.antipode))
    return HopfData(
        name=H.name + "^*",
        dim=dim,
        order=H.order,
        basis=tuple(lbl + "*" for lbl in H.basis),
        mult=_transpose(enumerate(H.comult)),
        unit=tuple(sparse(H.counit).items()),
        comult=tuple(tuple(sorted(comult.get(i, ()), key=lambda t: t[0]))
                     for i in range(dim)),
        counit=dense(dict(H.unit), dim, H.zero_scalar()),
        antipode=tuple(antipode.get(i, ()) for i in range(dim)),
        basis_degrees=H.basis_degrees,
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

# Largest algebra, imported or built in: validation sweeps grow with dim^3,
# and every scalar carries phi(order) coordinates.  The largest built-in
# orders within the limits are taft 22, nichols 9 and cyclic group 512.
# Reports echo names and labels; the longest built-in is gx1x2x3x4x5x6x7x8.
MAX_DIM = 512
MAX_ORDER = 1024
MAX_LABEL = 64


class HopfFormatError(ValueError):
    """Structurally malformed algebra description."""


class HopfValidationError(ValueError):
    """Well-formed description that fails the Hopf axioms."""

    def __init__(self, report: Report):
        super().__init__(report.summary())
        self.report = report


def to_json_dict(H: HopfData) -> dict:
    """Serialize; coefficients become exact expressions in z = zeta_order."""
    mult_rows = []
    for (i, j) in sorted(H.mult):
        for k, c in H.mult[(i, j)]:
            if not c.is_zero():
                mult_rows.append([i, j, k, c.render()])
    comult_rows = []
    for i, row in enumerate(H.comult):
        for (j, k), c in row:
            if not c.is_zero():
                comult_rows.append([i, j, k, c.render()])
    zero = H.zero_scalar()
    out = {
        "dim": H.dim,
        "order": H.order,
        "basis": list(H.basis),
        "mult": mult_rows,
        "comult": comult_rows,
        "unit": [c.render() for c in dense(dict(H.unit), H.dim, zero)],
        "counit": [c.render() for c in H.counit],
        "antipode": [[c.render() for c in dense(dict(row), H.dim, zero)]
                     for row in H.antipode],
        "grouplikes": list(H.grouplikes),
        "skew_primitives": [list(t) for t in H.skew_primitives],
    }
    if H.grouplike_vectors:
        out["grouplike_vectors"] = [
            [c.render() for c in vec] for vec in H.grouplike_vectors]
    if H.basis_degrees:
        out["basis_degrees"] = list(H.basis_degrees)
    if H.name:
        out["name"] = H.name
    return out


def _json(v, kind: type, what: str):
    """A JSON document, field, row or entry of type ``kind`` (dict, int,
    list or str); any other JSON type is refused rather than converted: a
    float, bool or string is not an integer, a string or object is not read
    entry by entry as an array, and a number, null, array or object is not
    a string.  The refusal quotes the value through ``expr.quote``, which
    the importer has loaded already."""
    if type(v) is not kind:
        from .expr import quote
        noun = {dict: "an object", int: "an integer", list: "an array",
                str: "a string"}[kind]
        raise HopfFormatError("%s must be %s, not %s" % (what, noun, quote(v)))
    return v


def from_json_dict(data: dict) -> HopfData:
    """Parse and fully validate an algebra description.

    Raises HopfFormatError for structural problems, for a dim, order, name
    or basis label beyond MAX_DIM, MAX_ORDER or MAX_LABEL (characters), and
    for a coefficient the expression parser refuses (see the limits in
    ``expr``); HopfValidationError when the axioms fail on well-formed data.
    """
    # the only caller of the parser here, so no other command loads it
    from .expr import parse_scalar, quote

    try:
        data = _json(data, dict, "algebra description")
        dim = _json(data["dim"], int, "dim")
        order = _json(data["order"], int, "order")
        if dim > MAX_DIM or order > MAX_ORDER:
            raise HopfFormatError(
                "dim %s / order %s beyond the import limits %d / %d"
                % (quote(dim), quote(order), MAX_DIM, MAX_ORDER))

        def label(v, what):
            if len(_json(v, str, what)) > MAX_LABEL:
                raise HopfFormatError("%s longer than %d characters: %s"
                                      % (what, MAX_LABEL, quote(v)))
            return v

        basis = tuple(label(b, "basis label")
                      for b in _json(data["basis"], list, "basis"))
        if len(basis) != dim or dim < 1 or order < 1:
            raise HopfFormatError("basis length / dim / order inconsistent")
        if len(set(basis)) != dim:
            raise HopfFormatError("duplicate basis labels")

        # one parse per distinct coefficient string: a refused string
        # raises at its first occurrence
        parsed: dict = {}

        def scal(s):
            s = _json(s, str, "coefficient")
            c = parsed.get(s)
            if c is None:
                c = parsed[s] = parse_scalar(s, order)
            return c

        def index(v, what):
            i = _json(v, int, what + " index")
            if not 0 <= i < dim:
                raise HopfFormatError("%s index %s out of range"
                                      % (what, quote(i)))
            return i

        def rows(v, what):
            return (_json(r, list, what + " row")
                    for r in _json(v, list, what))

        mult: dict = {}
        for i, j, k, cs in rows(data["mult"], "mult"):
            key = (index(i, "mult"), index(j, "mult"))
            mult.setdefault(key, []).append((index(k, "mult"), scal(cs)))
        mult = {k: tuple(v) for k, v in mult.items()}

        comult_rows: list = [[] for _ in range(dim)]
        for i, j, k, cs in rows(data["comult"], "comult"):
            r, c = comult_rows[index(i, "comult")], scal(cs)
            r.append(((index(j, "comult"), index(k, "comult")), c))
        comult = tuple(tuple(r) for r in comult_rows)

        unit_dense = [scal(s) for s in _json(data["unit"], list, "unit")]
        counit = [scal(s) for s in _json(data["counit"], list, "counit")]
        if len(unit_dense) != dim or len(counit) != dim:
            raise HopfFormatError("unit/counit length mismatch")
        antipode_rows = []
        if len(_json(data["antipode"], list, "antipode")) != dim:
            raise HopfFormatError("antipode must be a dim x dim matrix")
        for arow in rows(data["antipode"], "antipode"):
            if len(arow) != dim:
                raise HopfFormatError("antipode must be a dim x dim matrix")
            antipode_rows.append(
                tuple(sparse([scal(s) for s in arow]).items()))

        grouplikes = tuple(index(i, "grouplike") for i in
                           _json(data["grouplikes"], list, "grouplikes"))
        skew = tuple(
            (index(x, "skew"), index(g, "skew"), index(h, "skew"))
            for (x, g, h) in rows(data["skew_primitives"], "skew_primitives"))
        gvecs = tuple(
            tuple(scal(s) for s in vec)
            for vec in rows(data.get("grouplike_vectors", []),
                            "grouplike_vectors"))
        for vec in gvecs:
            if len(vec) != dim:
                raise HopfFormatError("grouplike vector length mismatch")
        degrees = tuple(_json(d, int, "basis degree")
                        for d in _json(data.get("basis_degrees", []), list,
                                       "basis_degrees"))
        if degrees and len(degrees) != dim:
            raise HopfFormatError("basis_degrees length mismatch")
        name = label(data.get("name", "imported"), "name")
    except HopfFormatError:
        raise
    except Exception as exc:
        raise HopfFormatError("malformed algebra description: %s" % exc)

    H = HopfData(
        name=name, dim=dim, order=order, basis=basis, mult=mult,
        unit=tuple(sparse(unit_dense).items()),
        comult=comult, counit=tuple(counit), antipode=tuple(antipode_rows),
        grouplikes=grouplikes, grouplike_vectors=gvecs,
        skew_primitives=skew, basis_degrees=degrees)
    rep = validate_all(H)
    if not rep.ok:
        raise HopfValidationError(rep)
    return H
