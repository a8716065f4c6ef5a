"""Hopf algebra morphisms, self-duality isomorphisms, and transport.

A functional lam on H is literally an element of the dual Hopf algebra H*,
and the partial-action equations for lam on H are the partial-coaction
equations for that element of H*.  When H carries an isomorphism
phi: H* -> H, every partial action on the base field therefore transports
to a partial coaction phi(lam) on H itself.  This module builds those
isomorphisms for the Taft and Nichols families, verifies all morphism
axioms exactly, and performs the transport.  A morphism is stored in the
one form the sparse kernel of hopf_core consumes: its rows of nonzero image
coordinates.

The maps H -> H* are built in closed form, and one rule inverts both.  The
rows M[i] of each are orthogonal for the Hermitian form sum_k a_k conj(b_k),
so M^-1 = conj(M)^T D^-1, with D the diagonal of the squared row norms.
The rows of the Taft map fall into blocks by the power j of x, and block j
is C_j diag(q^(-ij)) (q^(-ik)) diag(q^(-jk)): a scaled character table of
the cyclic group of order n, whose rows are orthogonal.  The Nichols map
is block diagonal, one 2 x 2 block P of entries +-1 for each monomial in
the x_i and its product with g, and P P^T = 2I, so its inverse is half its
transpose.  ``verify_inverse_pair`` checks both round trips exactly, so a
map whose rows are not orthogonal gets a wrong inverse and is refused.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .exact_arith import (
    CycNumber, ParamPoly, Rational, _conjugate, _cyc, cyc_invert, zeta_pow,
)
from .hopf_core import (
    HopfData, Report, _compare, _pair, _transpose, dense, sparse, tensor_map,
    vec_map, vec_mul,
)
from .algebras import nichols, nichols_dual, taft, taft_dual
from .families import Family
from .qcomb import Verdict, q_factorial


@dataclass(frozen=True)
class HopfMorphism:
    """Linear map e_i -> sum c e_j over the (j, c) in rows[i]: the sorted
    nonzero coordinates of each source basis vector's image."""

    source: HopfData
    target: HopfData
    rows: tuple

    def apply(self, values, zero) -> tuple:
        """The image of the source coordinates ``values``, as target
        coordinates with ``zero`` where the image has none."""
        if len(values) != self.source.dim:
            raise ValueError("%d coordinates for a source of dimension %d"
                             % (len(values), self.source.dim))
        out = vec_map(self.rows, enumerate(values))
        return dense(out, self.target.dim, zero)


def compose(outer: HopfMorphism, inner: HopfMorphism) -> HopfMorphism:
    if inner.target is not outer.source:
        raise ValueError("morphisms do not compose")
    rows = tuple(tuple(sorted(vec_map(outer.rows, row).items()))
                 for row in inner.rows)
    return HopfMorphism(inner.source, outer.target, rows)


def is_identity(phi: HopfMorphism) -> bool:
    if phi.source.dim != phi.target.dim:
        return False
    one = CycNumber.one(phi.target.order)
    return all(row == ((i, one),) for i, row in enumerate(phi.rows))


def _inverse(phi: HopfMorphism) -> HopfMorphism:
    """phi^-1(e_k) = sum_i conj(M[i][k]) / D_i e_i, with M[i] the rows of
    phi and D_i = sum_k |M[i][k]|^2: the inverse of a map whose rows are
    orthogonal (see the module docstring)."""
    order = phi.target.order
    scaled = []
    for i, row in enumerate(phi.rows):
        conj = [(k, _cyc(order, _conjugate(order, c.num, order - 1).num,
                         c.den)) for k, c in row]
        inv = cyc_invert(sum((c * b for (_, c), (_, b) in zip(row, conj)),
                             CycNumber.zero(order)))
        scaled.append((i, [(k, b * inv) for k, b in conj]))
    cols = _transpose(scaled)
    return HopfMorphism(phi.target, phi.source,
                        tuple(cols.get(k, ()) for k in range(phi.target.dim)))


# ---------------------------------------------------------------------------
# morphism verification
# ---------------------------------------------------------------------------

def verify_hopf_morphism(phi: HopfMorphism) -> Report:
    """Checks unit, counit, multiplicativity over all basis pairs, and
    comultiplicativity on every basis vector, all in exact arithmetic: each
    side is computed with the sparse kernel and the two are compared."""
    S, T = phi.source, phi.target
    rep = Report("morphism(%s->%s)" % (S.name, T.name))
    rows = phi.rows
    vecs = [dict(row) for row in rows]

    _compare(rep, "unit", (), vec_map(rows, S.unit), dict(T.unit), T)

    zero = T.zero_scalar()
    for i in range(S.dim):
        rep.expect("counit", (S.basis[i],), _pair(T.counit, rows[i], zero),
                   S.counit[i])

    for i in range(S.dim):
        for j in range(S.dim):
            _compare(rep, "multiplicative", (S.basis[i], S.basis[j]),
                     vec_map(rows, S.mult.get((i, j), ())),
                     vec_mul(T.mult, vecs[i], vecs[j]), T)

    for i in range(S.dim):
        _compare(rep, "comultiplicative", (S.basis[i],),
                 tensor_map(rows, S.comult[i]), vec_map(T.comult, rows[i]), T)
    return rep


class PairReport(NamedTuple):
    """The verdicts on an inverse pair phi: S -> T, psi: T -> S.  When
    ``derived`` is true, psi's report was derived from phi's and the round
    trips, with no sweep of its own (see ``verify_inverse_pair``)."""

    phi: Report
    psi: Report
    round_trip: bool
    derived: bool


def verify_inverse_pair(phi: HopfMorphism, psi: HopfMorphism) -> PairReport:
    """Verify phi as a Hopf morphism, check both round trips psi phi = id_S
    and phi psi = id_T, and verify psi.

    When phi passes and both round trips hold, psi is a Hopf morphism too,
    so its report is derived, with no sweep.  Using only that phi is
    unital, counital, multiplicative and comultiplicative and that
    phi psi = id and psi phi = id (no associativity, so it holds for any
    table):

      psi(xy)      = psi phi(psi x . psi y)    = psi x . psi y
      psi(1)       = psi phi(1)                = 1
      eps psi      = eps phi psi               = eps
      Delta psi    = (psi (x) psi)(phi (x) phi) Delta psi
                   = (psi (x) psi) Delta phi psi
                   = (psi (x) psi) Delta

    Otherwise psi gets the full sweep of ``verify_hopf_morphism``, so its
    failures are the ones that sweep reports.
    """
    rep = verify_hopf_morphism(phi)
    round_trip = (is_identity(compose(psi, phi))
                  and is_identity(compose(phi, psi)))
    if rep.ok and round_trip:
        psi_rep = Report("morphism(%s->%s)" % (psi.source.name,
                                               psi.target.name))
        return PairReport(rep, psi_rep, True, True)
    return PairReport(rep, verify_hopf_morphism(psi), round_trip, False)


# ---------------------------------------------------------------------------
# closed-form self-duality isomorphisms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def taft_to_dual(n: int) -> HopfMorphism:
    """g^i x^j  |->  sum_k (j)!_q q^(-i(k+j) - jk - j(j-1)/2) (g^k x^j)*."""
    H, D = taft(n), taft_dual(n)
    q = zeta_pow(n, 1)
    rows = []
    for i in range(n):
        for j in range(n):
            fact = q_factorial(j, q)
            row = []
            for k in range(n):
                e = -i * (k + j) - j * k - j * (j - 1) // 2
                row.append((k * n + j, fact * zeta_pow(n, e)))
            rows.append(tuple(row))
    return HopfMorphism(H, D, tuple(rows))


@lru_cache(maxsize=None)
def taft_from_dual(n: int) -> HopfMorphism:
    """The inverse of ``taft_to_dual(n)``, in closed form

      (g^i x^j)* |-> (1/n) ((j)!_q)^(-1) q^(ij + j(j-1)/2)
                     sum_k q^(k(i+j)) g^k x^j."""
    return _inverse(taft_to_dual(n))


@lru_cache(maxsize=None)
def nichols_to_dual(n: int) -> HopfMorphism:
    """Extend g |-> 1* - g*, x_i |-> x_i* - (g x_i)* multiplicatively:
    each monomial maps to the product of its factors in the dual."""
    H, D = nichols(n), nichols_dual(n)
    one = CycNumber.one(2)
    g_img = {0: one, 1: -one}
    x_img = [{1 << i: one, (1 << i) | 1: -one} for i in range(1, n)]
    rows = []
    for m in range(H.dim):
        acc = sparse(H.counit)
        if m & 1:
            acc = vec_mul(D.mult, acc, g_img)
        for i in range(1, n):
            if m & (1 << i):
                acc = vec_mul(D.mult, acc, x_img[i - 1])
        rows.append(tuple(sorted(acc.items())))
    return HopfMorphism(H, D, tuple(rows))


@lru_cache(maxsize=None)
def nichols_from_dual(n: int) -> HopfMorphism:
    """The inverse of ``nichols_to_dual(n)``: half its transpose."""
    return _inverse(nichols_to_dual(n))


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def transport(fam: Family, phi: HopfMorphism) -> Family:
    """Partial action lam on H to the partial coaction phi(lam) on H,
    through an isomorphism phi: H* -> H."""
    H = fam.algebra
    if phi.target is not H:
        raise ValueError("transport needs a map onto %s, got one onto %s"
                         % (H.name, phi.target.name))
    z = phi.apply(fam.values, ParamPoly.zero(H.order))
    return Family(fam.name, H, fam.params, z)


def check_character_sum(n: int, k: int, l: int) -> Verdict:
    """(1/n) sum_t (sum_{i<l} q^(ikt)) g^t  =  (l/n) sum_{i<k} g^(il),
    the scalar identity behind subgroup transport (requires n = k l)."""
    if k * l != n:
        raise ValueError("need n = k*l, got %d != %d*%d" % (n, k, l))
    inv_n = CycNumber.from_rational(n, Rational(1) / n)
    lhs = []
    for t in range(n):
        acc = CycNumber.zero(n)
        for i in range(l):
            acc = acc + zeta_pow(n, i * k * t)
        lhs.append(inv_n * acc)
    lval = CycNumber.from_rational(n, Rational(l) / n)
    rhs = [lval if t % l == 0 else CycNumber.zero(n) for t in range(n)]
    ok = lhs == rhs
    text = _g_vector(lhs)
    return Verdict("character_sum", (n, k, l), "q=zeta_%d" % n, ok, text,
                   text if ok else _g_vector(rhs))


def _g_vector(coeffs) -> str:
    """sum_t coeffs[t] g^t as text, zero terms left out."""
    parts = ["(%s)*g^%d" % (c.render(), t)
             for t, c in enumerate(coeffs) if c]
    return " + ".join(parts) if parts else "0"
