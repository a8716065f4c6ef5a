"""Built-in Hopf algebras, constructed from closed-form structure constants.

  * taft(n): generated by a group-like g and a (1,g)-skew-primitive x with
    g^n = 1, x^n = 0, xg = q gx at the primitive root q = zeta_n; dim n^2.
  * nichols(n): group-like g with g^2 = 1 and skew-primitives x_1..x_{n-1}
    with x_i^2 = 0, x_i x_j = -x_j x_i, x_i g = -g x_i; dim 2^n.
  * group_algebra_cyclic(n): the cyclic group algebra kC_n.
  * dual_group_algebra_cyclic(n), taft_dual(n), nichols_dual(n): the duals
    of kC_n, taft(n) and nichols(n) on the dual basis, whose declared
    group-likes are the characters g^i -> zeta^{ik} of their group-likes.

Antipodes are extended anti-homomorphically from the generators by actual
structure-constant products, not transcribed, so validators exercise real
computations.
"""
from __future__ import annotations

from functools import lru_cache

from .exact_arith import CycNumber, zeta_pow
from .hopf_core import (
    MAX_DIM, MAX_ORDER, HopfData, dual_hopf, tensor_mul, vec_mul,
)
from .qcomb import q_binomial


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

    # S(g) = g^{n-1}, S(x) = -g^{n-1} x, extended anti-homomorphically:
    # S(g^i x^j) = S(x)^j S(g)^i, computed by real products
    sg = {idx(n - 1, 0): one}
    sx = {idx(n - 1, 1): -one}
    antipode_rows = []
    for i in range(n):
        for j in range(n):
            acc = {0: one}
            for _ in range(j):
                acc = vec_mul(mult, acc, sx)
            for _ in range(i):
                acc = vec_mul(mult, acc, sg)
            antipode_rows.append(tuple(sorted(acc.items())))

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
    of x_i; products are normalized by counting transpositions.
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

    mult: dict = {}
    for m1 in range(dim):
        s = xbits(m1)
        for m2 in range(dim):
            if (m1 & m2) & ~1:
                continue
            t = xbits(m2)
            # move g^(m2&1) left across the x's of m1, then merge x-blocks
            swaps = (m2 & 1) * len(s)
            swaps += sum(1 for a in s for b in t if a > b)
            coeff = one if swaps % 2 == 0 else -one
            mult[(m1, m2)] = ((m1 ^ m2, coeff),)

    # comultiplication, extended multiplicatively from
    # Delta(g) = g(x)g and Delta(x_i) = x_i(x)1 + g(x)x_i
    dg = {(1, 1): one}
    comult_rows = []
    for m in range(dim):
        acc = {(0, 0): one}
        if m & 1:
            acc = tensor_mul(mult, acc, dg)
        for i in xbits(m):
            dxi = {(1 << i, 0): one, (1, 1 << i): one}
            acc = tensor_mul(mult, acc, dxi)
        comult_rows.append(tuple(sorted(acc.items())))

    counit = tuple(one if m & ~1 == 0 else CycNumber.zero(order)
                   for m in range(dim))

    # S(g) = g, S(x_i) = -g x_i, anti-homomorphic extension reverses factors
    antipode_rows = []
    for m in range(dim):
        acc = {0: one}
        for i in reversed(xbits(m)):
            acc = vec_mul(mult, acc, {(1 << i) | 1: -one})
        if m & 1:
            acc = vec_mul(mult, acc, {1: one})
        antipode_rows.append(tuple(sorted(acc.items())))

    return HopfData(
        name="nichols(%d)" % n,
        dim=dim,
        order=order,
        basis=basis,
        mult=mult,
        unit=((0, one),),
        comult=tuple(comult_rows),
        counit=counit,
        antipode=tuple(antipode_rows),
        grouplikes=(0, 1),
        skew_primitives=tuple((1 << i, 0, 1) for i in range(1, n)),
        basis_degrees=tuple(len(xbits(m)) for m in range(dim)),
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
    g^0 .. g^(m-1) of H, each zero on every other basis vector."""
    m = H.order
    zero = CycNumber.zero(m)
    characters = []
    for k in range(m):
        vec = [zero] * H.dim
        for i, b in enumerate(H.grouplikes):
            vec[b] = zeta_pow(m, i * k)
        characters.append(tuple(vec))
    return dual_hopf(H, grouplike_vectors=tuple(characters))


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
