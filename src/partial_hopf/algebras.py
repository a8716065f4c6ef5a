"""Built-in Hopf algebras, constructed from closed-form structure constants.

  * taft(n): generated by a group-like g and a (1,g)-skew-primitive x with
    g^n = 1, x^n = 0, xg = q gx at the primitive root q = zeta_n; dim n^2.
  * nichols(n): group-like g with g^2 = 1 and skew-primitives x_1..x_{n-1}
    with x_i^2 = 0, x_i x_j = -x_j x_i, x_i g = -g x_i; dim 2^n.
  * group_algebra_cyclic(n): the cyclic group algebra kC_n.
  * dual_group_algebra_cyclic(n), taft_dual(n), nichols_dual(n): the duals
    of kC_n, taft(n) and nichols(n) on the dual basis, whose declared
    group-likes are the characters g^i -> zeta^{ik} of their group-likes.

Every structure map is stated in closed form; no builder makes a product.
The forms need no separate proof, because validation pins each one down:
the antipode is unique (the convolution inverse of id), so a table that
passes ``validate_antipode`` is the antipode, and an algebra map such as
Delta is fixed by its values on generators, which the declared group-likes
and skew-primitives check once Delta is checked to be multiplicative.
"""
from __future__ import annotations

from functools import lru_cache

from .exact_arith import CycNumber, zeta_pow
from .hopf_core import MAX_DIM, MAX_ORDER, HopfData, dual_hopf


class InvalidOrder(ValueError):
    """Algebra order outside the constructor's domain."""


def _check_size(name: str, dim: int, order: int):
    """Refuse, before anything is built, an algebra beyond the dim and order
    limits that the JSON importer applies."""
    if dim > MAX_DIM or order > MAX_ORDER:
        raise InvalidOrder("%s is beyond the limits dim <= %d, order <= %d"
                           % (name, MAX_DIM, MAX_ORDER))


@lru_cache(maxsize=None)
def taft(n: int) -> HopfData:
    """The n^2-dimensional algebra on basis g^i x^j at q = zeta_n."""
    if n < 2:
        raise InvalidOrder("taft order must be >= 2, got %d" % n)
    _check_size("taft(%d)" % n, n * n, n)
    # only a Taft algebra reads q-binomials, after its order is accepted
    from .qcomb import q_binomial
    q = zeta_pow(n, 1)
    one = CycNumber.one(n)
    dim = n * n

    def idx(i, j):
        return (i % n) * n + j

    def label(i, j):
        parts = []
        if i:
            parts.append("g" if i == 1 else "g^%d" % i)
        if j:
            parts.append("x" if j == 1 else "x^%d" % j)
        return "".join(parts) or "1"

    basis = tuple(label(i, j) for i in range(n) for j in range(n))

    mult: dict = {}
    for i1 in range(n):
        for j1 in range(n):
            for i2 in range(n):
                for j2 in range(n):
                    if j1 + j2 > n - 1:
                        continue
                    mult[(idx(i1, j1), idx(i2, j2))] = (
                        (idx(i1 + i2, j1 + j2), zeta_pow(n, j1 * i2)),)

    comult_rows = []
    for i in range(n):
        for j in range(n):
            row = tuple(
                ((idx(i + l, j - l), idx(i, l)), q_binomial(j, l, q))
                for l in range(j + 1))
            comult_rows.append(row)

    counit = tuple(
        one if j == 0 else CycNumber.zero(n)
        for i in range(n) for j in range(n))

    # S(g^i x^j) = S(x)^j S(g)^i = (-1)^j q^(-j(j-1)/2 - ij) g^(-i-j) x^j,
    # from S(g) = g^-1 and S(x) = -g^-1 x
    antipode_rows = []
    for i in range(n):
        for j in range(n):
            c = zeta_pow(n, -j * (j - 1) // 2 - i * j)
            antipode_rows.append(((idx(-i - j, j), -c if j % 2 else c),))

    return HopfData(
        name="taft(%d)" % n,
        dim=dim,
        order=n,
        basis=basis,
        mult=mult,
        unit=((0, one),),
        comult=tuple(comult_rows),
        counit=counit,
        antipode=tuple(antipode_rows),
        grouplikes=tuple(idx(i, 0) for i in range(n)),
        skew_primitives=tuple(
            (idx(i, 1), idx(i, 0), idx(i + 1, 0)) for i in range(n)),
        basis_degrees=tuple(j for i in range(n) for j in range(n)),
    )


@lru_cache(maxsize=None)
def nichols(n: int) -> HopfData:
    """The 2^n-dimensional algebra on g and anticommuting x_1..x_{n-1}.

    Basis indices are bitmasks: bit 0 is the g exponent, bit i the presence
    of x_i; products and Delta are normalized by counting transpositions.
    """
    if n < 2:
        raise InvalidOrder("nichols order must be >= 2, got %d" % n)
    # 2^n > MAX_DIM exactly when n reaches the bit length of MAX_DIM, so
    # the exponent is capped there rather than computing 2^n for a huge n
    _check_size("nichols(%d)" % n, 1 << min(n, MAX_DIM.bit_length()), 2)
    order = 2
    one = CycNumber.one(order)
    dim = 1 << n

    def xbits(m):
        return [i for i in range(1, n) if m >> i & 1]

    def label(m):
        parts = (["g"] if m & 1 else []) + ["x%d" % i for i in xbits(m)]
        return "".join(parts) or "1"

    basis = tuple(label(m) for m in range(dim))
    degree = tuple(len(xbits(m)) for m in range(dim))

    def signed(swaps):
        return -one if swaps % 2 else one

    def inversions(s, t):
        # the pairs of an x-bit a of s and an x-bit b of t with a > b
        return sum((s >> b + 1).bit_count() for b in xbits(t))

    mult: dict = {}
    for m1 in range(dim):
        for m2 in range(dim):
            if not m1 & m2 & ~1:
                # move g^(m2&1) left across the x's of m1, then merge x-blocks
                swaps = (m2 & 1) * degree[m1] + inversions(m1, m2)
                mult[(m1, m2)] = ((m1 ^ m2, signed(swaps)),)

    # Delta(g^e x_S) = sum over T in S of (-1)^N g^(e+|T|) x_(S\T) (x) g^e x_T,
    # the product of Delta(g) = g(x)g and the Delta(x_i) = x_i(x)1 + g(x)x_i:
    # the g of each g(x)x_i, i in T, moves left past the N x_j, j in S\T, j < i
    comult_rows = []
    for m in range(dim):
        e, xs, subsets = m & 1, m & ~1, [0]
        for i in xbits(m):
            subsets += [t | 1 << i for t in subsets]
        comult_rows.append(tuple(sorted(
            (((xs ^ t) | (e + degree[t]) % 2, e | t),
             signed(inversions(t, xs ^ t))) for t in subsets)))

    counit = tuple(one if m & ~1 == 0 else CycNumber.zero(order)
                   for m in range(dim))

    # S(g^e x_S) = S(x_S) S(g)^e = (-1)^(k(1+e)) g^(e+k) x_S, k = |S|, from
    # S(g) = g and S(x_i) = -g x_i
    antipode = tuple(((m ^ degree[m] % 2, signed(degree[m] * (1 + m % 2))),)
                     for m in range(dim))

    return HopfData(
        name="nichols(%d)" % n,
        dim=dim,
        order=order,
        basis=basis,
        mult=mult,
        unit=((0, one),),
        comult=tuple(comult_rows),
        counit=counit,
        antipode=antipode,
        grouplikes=(0, 1),
        skew_primitives=tuple((1 << i, 0, 1) for i in range(1, n)),
        basis_degrees=degree,
    )


@lru_cache(maxsize=None)
def group_algebra_cyclic(n: int) -> HopfData:
    """kC_n: every basis element g^i is group-like; S(g^i) = g^{-i}."""
    if n < 1:
        raise InvalidOrder("cyclic group order must be >= 1, got %d" % n)
    _check_size("kC_%d" % n, n, n)
    one = CycNumber.one(n)
    basis = tuple("1" if i == 0 else ("g" if i == 1 else "g^%d" % i)
                  for i in range(n))
    mult = {(i, j): (((i + j) % n, one),)
            for i in range(n) for j in range(n)}
    comult = tuple((((i, i), one),) for i in range(n))
    antipode = tuple(((-i % n, one),) for i in range(n))
    return HopfData(
        name="kC_%d" % n,
        dim=n,
        order=n,
        basis=basis,
        mult=mult,
        unit=((0, one),),
        comult=comult,
        counit=(one,) * n,
        antipode=antipode,
        grouplikes=tuple(range(n)),
        skew_primitives=(),
        basis_degrees=(0,) * n,
    )


def _character_dual(H: HopfData) -> HopfData:
    """The dual of H with its declared group-likes: the characters
    chi_k(g^i) = zeta_m^(ik), k < m = H.order, on the declared group-likes
    g^0 .. g^(m-1) of H, zero elsewhere, on the tables of ``dual_hopf(H)``."""
    m = H.order
    zero = CycNumber.zero(m)
    characters = []
    for k in range(m):
        vec = [zero] * H.dim
        for i, b in enumerate(H.grouplikes):
            vec[b] = zeta_pow(m, i * k)
        characters.append(tuple(vec))
    return dual_hopf(H)._replace(grouplike_vectors=tuple(characters))


@lru_cache(maxsize=None)
def taft_dual(n: int) -> HopfData:
    """Dual of taft(n); its group-likes are the n characters g -> q^k."""
    return _character_dual(taft(n))


@lru_cache(maxsize=None)
def nichols_dual(n: int) -> HopfData:
    """Dual of nichols(n); the two characters send g to +1 or -1."""
    return _character_dual(nichols(n))


@lru_cache(maxsize=None)
def dual_group_algebra_cyclic(n: int) -> HopfData:
    """(kC_n)^* on the dual basis; the declared group-likes are the
    characters g^i -> zeta_n^{ik}, one coordinate row per k."""
    return _character_dual(group_algebra_cyclic(n))
