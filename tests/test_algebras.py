"""Built-in Hopf algebras: relations, comultiplication, metadata, and the
closed forms of Delta and S against the generator extensions they
replaced."""
import pytest

from partial_hopf.exact_arith import CycNumber, zeta_pow
from partial_hopf.algebras import (
    InvalidOrder, dual_group_algebra_cyclic, group_algebra_cyclic, nichols,
    nichols_dual, taft, taft_dual,
)
from partial_hopf.hopf_core import dual_hopf, validate_all, vec_map, vec_mul

from product_refs import extend, ref_tensor_mul


@pytest.mark.parametrize("n", range(2, 6))
def test_taft_validates(n):
    rep = validate_all(taft(n))
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("n", range(2, 5))
def test_nichols_validates(n):
    rep = validate_all(nichols(n))
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("n", range(1, 9))
def test_group_algebras_validate(n):
    assert validate_all(group_algebra_cyclic(n)).ok
    assert validate_all(dual_group_algebra_cyclic(n)).ok


def _g_power(i):
    return "1" if i == 0 else ("g" if i == 1 else "g^%d" % i)


@pytest.mark.parametrize("dual,base,n", (
    [(taft_dual, taft, n) for n in range(2, 7)]
    + [(nichols_dual, nichols, n) for n in range(2, 6)]
    + [(dual_group_algebra_cyclic, group_algebra_cyclic, n)
       for n in range(1, 9)]))
def test_dual_characters_in_k_order(dual, base, n):
    # validation passes for any order of the characters, so the rows are
    # pinned here: row k is chi_k(g^i) = zeta_m^(ik) on the label of g^i
    H, D = base(n), dual(n)
    m = H.order
    want = []
    for k in range(m):
        row = [CycNumber.zero(m)] * H.dim
        for i in range(m):
            row[H.label_index(_g_power(i))] = zeta_pow(m, i * k)
        want.append(tuple(row))
    assert D.grouplike_vectors == tuple(want)
    if base is nichols:
        sign = [CycNumber.from_rational(2, s) for s in (1, -1)]
        assert [row[1] for row in D.grouplike_vectors] == sign


@pytest.mark.parametrize("dual,base", [
    (taft_dual, taft), (nichols_dual, nichols),
    (dual_group_algebra_cyclic, group_algebra_cyclic)])
@pytest.mark.parametrize("n", [2, 3])
def test_a_character_dual_shares_the_one_transposition(dual, base, n):
    """Each algebra is transposed once: the dual with declared characters
    is ``dual_hopf(H)`` with its group-like vectors replaced, so both
    records hold the same tables."""
    D, bare = dual(n), dual_hopf(base(n))
    assert D.mult is bare.mult
    assert all(getattr(D, f) is getattr(bare, f)
               for f in ("comult", "antipode", "unit", "counit", "basis"))
    assert bare.grouplike_vectors == () and D.grouplike_vectors


def test_bad_orders():
    for bad in (taft, nichols):
        with pytest.raises(InvalidOrder):
            bad(1)
    with pytest.raises(InvalidOrder):
        group_algebra_cyclic(0)


def _basis_vector(H, label):
    return {H.label_index(label): CycNumber.one(H.order)}


def _scaled(u, c):
    return {i: a * c for i, a in u.items()}


@pytest.mark.parametrize("n", range(2, 6))
def test_taft_relations(n):
    H = taft(n)
    g = _basis_vector(H, "g")
    x = _basis_vector(H, "x")
    q = zeta_pow(n, 1)
    # g^n = 1
    acc = g
    for _ in range(n - 1):
        acc = vec_mul(H.mult, acc, g)
    assert acc == dict(H.unit)
    # x^n = 0
    acc = x
    for _ in range(n - 1):
        acc = vec_mul(H.mult, acc, x)
    assert acc == {}
    # x g = q g x
    assert vec_mul(H.mult, x, g) == _scaled(vec_mul(H.mult, g, x), q)


@pytest.mark.parametrize("n", range(2, 9))
def test_taft_comult_is_power_of_primitive_row(n):
    H = taft(n)
    one = CycNumber.one(n)
    dx = vec_map(H.comult, [(H.label_index("x"), one)])
    acc = vec_map(H.comult, H.unit)
    for j in range(n):
        assert vec_map(H.comult, [(j, one)]) == acc  # index (0, j) = j
        acc = ref_tensor_mul(H.mult, acc, dx)


def test_nichols_delta_of_x1x2():
    H = nichols(3)
    one = CycNumber.one(2)
    t = lambda a, b: (H.label_index(a), H.label_index(b))
    want = {t("x1x2", "1"): one, t("gx1", "x2"): -one, t("gx2", "x1"): one,
            t("1", "x1x2"): one}
    assert vec_map(H.comult, [(H.label_index("x1x2"), one)]) == want


@pytest.mark.parametrize("n", [3, 4])
def test_nichols_relations(n):
    H = nichols(n)
    minus = -CycNumber.one(2)
    g = _basis_vector(H, "g")
    xs = [_basis_vector(H, "x%d" % i) for i in range(1, n)]
    assert vec_mul(H.mult, g, g) == dict(H.unit)
    for i, xi in enumerate(xs):
        assert vec_mul(H.mult, xi, xi) == {}
        assert vec_mul(H.mult, xi, g) == _scaled(vec_mul(H.mult, g, xi),
                                                 minus)
        for xj in xs[i + 1:]:
            assert vec_mul(H.mult, xi, xj) == _scaled(
                vec_mul(H.mult, xj, xi), minus)


def test_taft2_equals_nichols2_up_to_relabeling():
    T, N = taft(2), nichols(2)
    perm = {0: 0, 1: 2, 2: 1, 3: 3}  # 1, x, g, gx -> 1, x1, g, gx1
    for (i, j), row in T.mult.items():
        got = N.mult.get((perm[i], perm[j]), ())
        want = tuple(sorted((perm[k], c) for k, c in row))
        assert tuple(sorted(got)) == want
    for i in range(4):
        want = sorted(((perm[j], perm[k]), c) for (j, k), c in T.comult[i])
        assert sorted(N.comult[perm[i]]) == want
        assert N.counit[perm[i]] == T.counit[i]
        want_s = sorted((perm[j], c) for j, c in T.antipode[i])
        assert sorted(N.antipode[perm[i]]) == want_s


def test_group_algebra_tables():
    n = 6
    H = group_algebra_cyclic(n)
    one = CycNumber.one(n)
    for i in range(n):
        for j in range(n):
            assert H.mult[(i, j)] == (((i + j) % n, one),)
        assert H.comult[i] == (((i, i), one),)
        assert H.antipode[i] == (((-i) % n, one),)
    assert H.grouplikes == tuple(range(n))


def test_dual_group_algebra_characters_recorded():
    n = 4
    D = dual_group_algebra_cyclic(n)
    assert len(D.grouplike_vectors) == n
    for k, vec in enumerate(D.grouplike_vectors):
        assert vec == tuple(zeta_pow(n, i * k) for i in range(n))


def test_taft_metadata():
    n = 5
    H = taft(n)
    assert H.grouplikes == tuple(i * n for i in range(n))
    assert (1, 0, n) in H.skew_primitives
    assert H.basis_degrees == tuple(j for i in range(n) for j in range(n))


def test_nichols_degrees_are_popcounts():
    H = nichols(4)
    assert H.basis_degrees == tuple(bin(m >> 1).count("1") for m in range(16))


# -- the closed forms against the products they replaced ----------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_taft_antipode_is_the_anti_homomorphic_extension(n):
    """S(g^i x^j) = S(x)^j S(g)^i, from S(g) = g^(n-1), S(x) = -g^(n-1) x."""
    H = taft(n)
    one = CycNumber.one(n)
    sg = {(n - 1) * n: one}
    sx = {(n - 1) * n + 1: -one}
    mul = lambda u, v: vec_mul(H.mult, u, v)
    for i in range(n):
        for j in range(n):
            assert H.antipode[i * n + j] == extend(
                mul, dict(H.unit), [sx] * j + [sg] * i), (i, j)


@pytest.mark.parametrize("n", range(2, 10))
def test_nichols_delta_and_antipode_are_the_generator_extensions(n):
    """Delta(g^e x_S) = Delta(g)^e Delta(x_s1) ... Delta(x_sk), from
    Delta(g) = g (x) g and Delta(x_i) = x_i (x) 1 + g (x) x_i, and
    S(g^e x_S) = S(x_sk) ... S(x_s1) S(g)^e, from S(g) = g and
    S(x_i) = -g x_i, with s1 < ... < sk the x-bits of the index."""
    H = nichols(n)
    one = CycNumber.one(2)
    tmul = lambda s, t: ref_tensor_mul(H.mult, s, t)
    mul = lambda u, v: vec_mul(H.mult, u, v)
    for m in range(H.dim):
        xs = [i for i in range(1, n) if m >> i & 1]
        deltas = [{(1 << i, 0): one, (1, 1 << i): one} for i in xs]
        assert H.comult[m] == extend(
            tmul, {(0, 0): one}, [{(1, 1): one}] * (m & 1) + deltas), m
        antipodes = [{(1 << i) | 1: -one} for i in reversed(xs)]
        assert H.antipode[m] == extend(
            mul, {0: one}, antipodes + [{1: one}] * (m & 1)), m
