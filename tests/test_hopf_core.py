"""Structure-constant engine: validators, duals, convolution, JSON."""
import random

import pytest

from partial_hopf import expr, hopf_core
from partial_hopf.exact_arith import CycNumber, OrderMismatch, ParamPoly
from partial_hopf.algebras import (
    dual_group_algebra_cyclic, group_algebra_cyclic, nichols, nichols_dual,
    taft, taft_dual,
)
from partial_hopf.duality import taft_to_dual
from partial_hopf.families import (
    taft_parametric_action, verify_partial_action, verify_partial_coaction,
)
from partial_hopf.hopf_core import (
    HopfFormatError, HopfValidationError, dual_hopf, from_json_dict,
    sparse, to_json_dict, validate_all, validate_antipode,
    validate_bialgebra, vec_map, vec_mul,
)

from product_refs import ref_tensor_mul


def test_an_algebra_is_equal_only_to_itself():
    """HopfData compares and hashes by identity, and is read-only: the
    builders are cached and share their algebras, and caches such as
    ``dual_hopf`` are keyed on them."""
    H = taft(2)
    twin = H._replace()
    assert tuple(twin) == tuple(H)
    assert H == H and twin != H and not twin == H and H != tuple(H)
    assert hash(H) == object.__hash__(H)
    assert len({H, twin, taft(2)}) == 2
    for field, value in (("dim", 3), ("grouplikes", ()), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(H, field, value)
    assert H.dim == 4 and H.grouplikes == (0, 2)


def test_the_dual_is_built_once_per_algebra():
    """``dual_hopf`` is cached on the algebra: the same H gives the same
    dual record, an equal copy of H its own, and verifying coactions on H
    builds no second dual."""
    H = taft(3)
    D = dual_hopf(H)
    assert dual_hopf(H) is D
    assert dual_hopf(H._replace()) is not D
    assert dual_hopf(D) is dual_hopf(D)
    built = dual_hopf.cache_info().misses
    z = (CycNumber.one(3),) + (CycNumber.zero(3),) * (H.dim - 1)
    for _ in range(2):
        assert all(r.ok for r in verify_partial_coaction(H, z))
    assert dual_hopf.cache_info().misses == built


def test_reports_never_share_a_failure_list():
    first, second = hopf_core.Report("first"), hopf_core.Report("second")
    first.fail("check", (), "1", "0")
    assert first.failures is not second.failures
    assert (first.ok, second.ok, second.failures) == (False, True, [])


@pytest.mark.parametrize("n", [1, 3, 4])
def test_compare_counts_dim_to_the_width(n):
    H = group_algebra_cyclic(n)
    for width, checks in ((0, 1), (1, n), (2, n * n)):
        rep = hopf_core.Report("compare")
        hopf_core._compare(rep, "empty", (), {}, {}, H, width)
        assert (rep.checks_run, rep.failures) == (checks, [])
    # a failing slice counts the same: one failure, n checks
    rep = hopf_core.Report("compare")
    hopf_core._compare(rep, "one", (), {(0, 0): H.one_scalar()}, {}, H, 1)
    assert (rep.checks_run, len(rep.failures)) == (n, 1)


def test_validate_all_taft4():
    rep = validate_all(taft(4))
    assert rep.ok, rep.summary()


def test_validate_all_dual_of_taft3():
    assert validate_all(dual_hopf(taft(3))).ok


def test_identity_antipode_rejected():
    H = taft(4)
    one = CycNumber.one(H.order)
    bad = H._replace(antipode=tuple(((i, one),) for i in range(H.dim)))
    rep = validate_antipode(bad)
    assert not rep.ok
    # the skew-primitive x (index 1) must be among the failures
    assert any(1 in f.where for f in rep.failures)


def test_broken_product_rejected():
    H = taft(3)
    mult = dict(H.mult)
    mult[(3, 3)] = ((0, CycNumber.one(3)),)  # g*g = 1 is false in taft(3)
    bad = H._replace(mult=mult)
    rep = validate_bialgebra(bad)
    assert not rep.ok


def test_broken_comult_fails_counit_law():
    H = taft(3)
    comult = list(H.comult)
    one = CycNumber.one(3)
    comult[1] = (((1, 0), one),)  # Delta(x) = x (x) 1 drops the g (x) x term
    bad = H._replace(comult=tuple(comult))
    rep = validate_bialgebra(bad)
    assert any(f.check == "counit_left" for f in rep.failures)


def _random_functional(H, seed):
    rng = random.Random(seed)
    return sparse([ParamPoly.const(H.order, rng.randint(-4, 4))
                   for _ in range(H.dim)])


def test_convolution_unit_and_associativity():
    H = taft(3)
    mult = dual_hopf(H).mult

    def conv(u, v):
        return vec_mul(mult, u, v)

    eps = sparse(H.counit)
    f = _random_functional(H, 1)
    g = _random_functional(H, 2)
    h = _random_functional(H, 3)
    assert conv(f, eps) == f
    assert conv(eps, f) == f
    assert conv(conv(f, g), h) == conv(f, conv(g, h))


def test_dual_group_algebra_is_pointwise():
    n = 6
    D = dual_group_algebra_cyclic(n)
    for i in range(n):
        for j in range(n):
            row = D.mult.get((i, j), ())
            if i == j:
                assert row == ((i, CycNumber.one(n)),)
            else:
                assert row == ()


def test_dual_comult_is_addition():
    n = 5
    D = dual_group_algebra_cyclic(n)
    for k in range(n):
        pairs = sorted(jk for jk, _ in D.comult[k])
        assert pairs == sorted((a, (k - a) % n) for a in range(n))


def _by_key(row):
    return tuple(sorted(row, key=lambda t: t[0]))


DOUBLE_DUAL_CASES = (
    [(taft, n) for n in range(2, 6)]
    + [(nichols, n) for n in range(2, 5)]
    + [(group_algebra_cyclic, n) for n in range(1, 7)]
    + [(dual_group_algebra_cyclic, n) for n in range(1, 7)]
    + [(taft_dual, n) for n in range(2, 5)]
    + [(nichols_dual, n) for n in range(2, 5)])


def test_double_dual_returns_original_constants():
    """H** has H's m, S, unit and counit row for row, and its Delta rows
    are H's sorted by their (j, k) key, as every Delta row of a dual is:
    taft lists the terms of a Delta row by l, which wraps past g^(n-1)."""
    for build, n in DOUBLE_DUAL_CASES:
        H = build(n)
        D = dual_hopf(H)
        DD = dual_hopf(D)
        assert DD.dim == H.dim
        assert DD.mult == H.mult, H.name
        assert DD.comult == tuple(_by_key(row) for row in H.comult), H.name
        assert DD.antipode == H.antipode, H.name
        assert DD.unit == H.unit, H.name
        assert DD.counit == H.counit, H.name
        for dual in (D, DD):
            assert all(row == _by_key(row) for row in dual.comult), H.name


def test_tensor_square_product():
    H = taft(2)
    one = CycNumber.one(2)
    g, x, gx = (H.label_index(b) for b in ("g", "x", "gx"))
    # (g (x) x)(x (x) g) = (g x) (x) (x g) = gx (x) (-gx) at q = -1
    assert (ref_tensor_mul(H.mult, {(g, x): one}, {(x, g): one})
            == {(gx, gx): -one})


def test_antipode_apply_matches_table():
    H = taft(3)
    one = CycNumber.one(3)
    x, g2 = H.label_index("x"), H.label_index("g^2")
    sx = vec_map(H.antipode, [(x, one)])
    assert sx == vec_mul(H.mult, {g2: -one}, {x: one})


def test_algebra_mismatch():
    """Coordinates of another algebra are refused: a wrong number of them
    is a ValueError, scalars of another order an OrderMismatch."""
    T2, T3 = taft(2), taft(3)
    coords = taft_parametric_action(2).values
    other_order = tuple(ParamPoly.one(3) for _ in range(T2.dim))
    for verify in (verify_partial_action, verify_partial_coaction):
        with pytest.raises(ValueError, match="4 coordinates"):
            verify(T3, coords)
        with pytest.raises(OrderMismatch):
            verify(T2, other_order)
    phi = taft_to_dual(3)
    with pytest.raises(ValueError, match="4 coordinates"):
        phi.apply(coords, ParamPoly.zero(3))
    with pytest.raises(OrderMismatch):
        phi.apply(tuple(ParamPoly.one(2) for _ in range(T3.dim)),
                  ParamPoly.zero(3))


def test_json_round_trip_exact():
    for H in (taft(3), nichols(3), dual_group_algebra_cyclic(5)):
        d = to_json_dict(H)
        H2 = from_json_dict(d)
        assert to_json_dict(H2) == d


@pytest.mark.parametrize("build,orders", [
    (taft, range(2, 7)), (nichols, range(2, 6)),
    (group_algebra_cyclic, range(1, 13)),
    (dual_group_algebra_cyclic, range(1, 13)),
])
def test_every_builtin_round_trips_within_the_import_limits(build, orders):
    for n in orders:
        d = to_json_dict(build(n))
        assert to_json_dict(from_json_dict(d)) == d


def test_import_parses_each_distinct_coefficient_once(monkeypatch):
    d = to_json_dict(nichols(4))
    strings = ([row[3] for row in d["mult"] + d["comult"]] + d["unit"]
               + d["counit"] + [s for row in d["antipode"] for s in row])
    parsed = []
    parse = expr.parse_scalar

    def counted(s, order):
        parsed.append(s)
        return parse(s, order)

    monkeypatch.setattr(expr, "parse_scalar", counted)
    assert to_json_dict(from_json_dict(d)) == d
    assert len(strings) > 10 * len(set(strings))
    assert sorted(parsed) == sorted(set(strings))


def test_json_missing_field():
    d = to_json_dict(taft(2))
    del d["counit"]
    with pytest.raises(HopfFormatError):
        from_json_dict(d)


@pytest.mark.parametrize("dim,order", [(513, 2), (2, 1025), (10 ** 9, 2)])
def test_json_size_limits_checked_first(dim, order):
    # nothing but dim and order is present: the limit must fire first
    with pytest.raises(HopfFormatError, match="import limits"):
        from_json_dict({"dim": dim, "order": order})


def test_json_bad_index():
    d = to_json_dict(taft(2))
    d["mult"][0] = [99, 0, 0, "1"]
    with pytest.raises(HopfFormatError):
        from_json_dict(d)


def test_json_invalid_structure_fails_validation():
    d = to_json_dict(taft(2))
    # retarget one product entry: breaks associativity/compatibility
    i, j, k, expr = d["mult"][-1]
    d["mult"][-1] = [i, j, (k + 1) % 4, expr]
    with pytest.raises(HopfValidationError) as exc:
        from_json_dict(d)
    assert not exc.value.report.ok


def test_label_index_refuses_an_unknown_label():
    with pytest.raises(KeyError) as info:
        taft(2).label_index("y")
    assert info.value.args == ("no basis element 'y' in taft(2)",)
