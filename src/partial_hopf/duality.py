"""Hopf algebra morphisms, self-duality isomorphisms, and transport.

A functional lam on H is literally an element of the dual Hopf algebra H*,
and the partial-action equations for lam on H are the partial-coaction
equations for that element of H*.  When H carries an isomorphism
phi: H* -> H, every partial action on the base field therefore transports
to a partial coaction phi(lam) on H itself.  This module builds those
isomorphisms (and the maps H -> H* they invert) in closed form for the Taft
and Nichols families, verifies all morphism axioms exactly, and performs
the transport.  A morphism is stored in the one form the sparse kernel of
hopf_core consumes: its rows of nonzero image coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact_arith import CycNumber, ParamPoly, Rational, cyc_invert, zeta_pow
from .hopf_core import (
    HopfData, Report, _compare, convolve, dense, dual_hopf,
    sparse, tensor_map, vec_comult, vec_map, vec_mul,
)
from .algebras import nichols, taft
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


def invert_morphism(phi: HopfMorphism) -> HopfMorphism:
    """Exact Gaussian elimination; raises ValueError when not bijective."""
    n = phi.source.dim
    if phi.target.dim != n:
        raise ValueError("not a square map")
    order = phi.target.order
    zero, one = CycNumber.zero(order), CycNumber.one(order)
    # rows of the augmented system: images as a matrix M with M[i][j],
    # solving X M = I  (row-vector convention matches apply)
    m = [list(dense(dict(row), n, zero))
         + [one if k == i else zero for k in range(n)]
         for i, row in enumerate(phi.rows)]
    col = 0
    for row in range(n):
        piv = next((r for r in range(row, n) if not m[r][col].is_zero()), None)
        if piv is None:
            raise ValueError("morphism is not invertible")
        m[row], m[piv] = m[piv], m[row]
        inv = cyc_invert(m[row][col])
        m[row] = [v * inv for v in m[row]]
        for r in range(n):
            if r != row and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        col += 1
    # back out: solution rows give the inverse images in source coordinates
    inv_rows = [None] * n
    for r in range(n):
        j = next(c for c in range(n) if not m[r][c].is_zero())
        inv_rows[j] = tuple(sparse(m[r][n:]).items())
    return HopfMorphism(phi.target, phi.source, tuple(inv_rows))


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

    rep.count()
    _compare(rep, "unit", (), vec_map(rows, S.unit), dict(T.unit), T)

    for i in range(S.dim):
        acc = CycNumber.zero(T.order)
        for j, m in rows[i]:
            acc = acc + m * T.counit[j]
        rep.expect("counit", (S.basis[i],), acc, S.counit[i])

    for i in range(S.dim):
        for j in range(S.dim):
            rep.count()
            _compare(rep, "multiplicative", (S.basis[i], S.basis[j]),
                     vec_map(rows, S.mult.get((i, j), ())),
                     vec_mul(T.mult, vecs[i], vecs[j]), T)

    for i in range(S.dim):
        rep.count()
        _compare(rep, "comultiplicative", (S.basis[i],),
                 tensor_map(rows, (((a, b), c) for c, a, b in S.comult[i])),
                 vec_comult(T.comult, rows[i]), T)
    return rep


# ---------------------------------------------------------------------------
# dual algebras with their character metadata
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def taft_dual(n: int) -> HopfData:
    """Dual of taft(n); its group-likes are the n characters g -> q^k."""
    H = taft(n)
    chars = []
    for k in range(n):
        vec = [CycNumber.zero(n)] * H.dim
        for i in range(n):
            vec[i * n] = zeta_pow(n, i * k)
        chars.append(tuple(vec))
    return dual_hopf(H, grouplike_vectors=tuple(chars))


@lru_cache(maxsize=None)
def nichols_dual(n: int) -> HopfData:
    """Dual of nichols(n); the two characters send g to +1 or -1."""
    H = nichols(n)
    chars = []
    for sign in (1, -1):
        vec = [CycNumber.zero(2)] * H.dim
        vec[0] = CycNumber.one(2)
        vec[1] = CycNumber.from_rational(2, sign)
        chars.append(tuple(vec))
    return dual_hopf(H, grouplike_vectors=tuple(chars))


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
                row.append((k * n + j, fact * q ** e))
            rows.append(tuple(row))
    return HopfMorphism(H, D, tuple(rows))


@lru_cache(maxsize=None)
def taft_from_dual(n: int) -> HopfMorphism:
    """(g^i x^j)* |-> (1/n) ((j)!_q)^(-1) q^(ij + j(j-1)/2)
                      sum_k q^(k(i+j)) g^k x^j."""
    H, D = taft(n), taft_dual(n)
    q = zeta_pow(n, 1)
    inv_n = CycNumber.from_rational(n, Rational(1) / n)
    rows = []
    for i in range(n):
        for j in range(n):
            c = inv_n * cyc_invert(q_factorial(j, q)) \
                * q ** (i * j + j * (j - 1) // 2)
            rows.append(tuple((k * n + j, c * q ** (k * (i + j)))
                              for k in range(n)))
    return HopfMorphism(D, H, tuple(rows))


@lru_cache(maxsize=None)
def nichols_to_dual(n: int) -> HopfMorphism:
    """Extend g |-> 1* - g*, x_i |-> x_i* - (g x_i)* multiplicatively:
    each monomial maps to the convolution product of its factors."""
    H, D = nichols(n), nichols_dual(n)
    one = CycNumber.one(2)
    g_img = {0: one, 1: -one}
    x_img = [{1 << i: one, (1 << i) | 1: -one} for i in range(1, n)]
    rows = []
    for m in range(H.dim):
        acc = sparse(H.counit)
        if m & 1:
            acc = convolve(H.comult, acc, g_img)
        for i in range(1, n):
            if m & (1 << i):
                acc = convolve(H.comult, acc, x_img[i - 1])
        rows.append(tuple(sorted(acc.items())))
    return HopfMorphism(H, D, tuple(rows))


@lru_cache(maxsize=None)
def nichols_from_dual(n: int) -> HopfMorphism:
    return invert_morphism(nichols_to_dual(n))


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
    return Verdict("character_sum", (n, k, l), "q=zeta_%d" % n, ok,
                   " + ".join(str(c) for c in lhs),
                   " + ".join(str(c) for c in rhs))
