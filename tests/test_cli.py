"""Exit codes, output schemas and round trips of the command-line tool."""
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from partial_hopf import (
    classify, cli, duality, exact_arith, families, qcomb, reference_tables,
)
from partial_hopf.algebras import (
    InvalidOrder, dual_group_algebra_cyclic, group_algebra_cyclic, nichols,
    taft,
)
from partial_hopf.classify import (
    BranchLimitExceeded, ClassificationError, NonCyclicGrouplikes,
)
from partial_hopf.cli import identity_verdicts, main, run_identity_sweep
from partial_hopf.exact_arith import divisors
from partial_hopf.families import (
    taft_action_families, taft_coaction_families, verify_partial_action,
    verify_partial_coaction,
)
from partial_hopf.hopf_core import to_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_single_order(capsys):
    code, out, _ = run(capsys, "validate", "taft", "4")
    assert code == 0
    assert "ok" in out and "FAILED" not in out


def test_validate_sweep_respects_max(capsys):
    code, out, _ = run(capsys, "validate", "taft", "--max", "3",
                       "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["n"] for r in doc["results"]] == [2, 3]
    assert all(r["ok"] for r in doc["results"])


def test_validate_order_one_group_algebra(capsys):
    code, _, _ = run(capsys, "validate", "group", "1")
    assert code == 0


def test_actions_text_lists_families(capsys):
    code, out, _ = run(capsys, "actions", "taft", "2")
    assert code == 0
    assert "counit" in out and "parametric" in out
    assert "x: a" in out


def test_actions_json_schema(capsys):
    code, out, _ = run(capsys, "actions", "taft", "3", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "actions" and doc["ok"] is True
    fams = {r["family"]: r for r in doc["results"]}
    assert set(fams) == {"counit", "parametric"}
    assert fams["parametric"]["params"] == ["a"]
    assert fams["parametric"]["values"]["g^2x"] == "-q*a"
    assert all(r["verified"] for r in doc["results"])
    assert all(r["checks"] > 0 for r in doc["results"])


def test_actions_reference_tables_clean(capsys):
    code, out, _ = run(capsys, "actions", "taft", "4", "--paper-examples")
    assert code == 0
    assert out.count("match") >= 12 and "MISMATCH" not in out


def test_coactions_reference_tables_clean(capsys):
    code, out, _ = run(capsys, "coactions", "taft", "3", "--paper-examples",
                       "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reference_tables"]) == 12
    assert all(t["mismatches"] == [] for t in doc["reference_tables"])


def test_corrupted_reference_table_is_caught(monkeypatch, capsys):
    monkeypatch.setitem(reference_tables.TAFT_ACTIONS[2], "x", "a + 1")
    code, out, _ = run(capsys, "actions", "taft", "2", "--paper-examples")
    assert code == 1
    assert "MISMATCH" in out


def test_reference_table_with_unknown_label_is_caught(monkeypatch, capsys):
    monkeypatch.setitem(reference_tables.NICHOLS_COACTIONS[2], "bogus", "1")
    code, out, _ = run(capsys, "coactions", "nichols", "2",
                       "--paper-examples")
    assert code == 1
    assert "does not name a basis element" in out


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "taft", "2", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    r = doc["results"][0]
    assert r["branches"] == 2 and r["exhaustive"] is True
    assert [f["family"] for f in r["families"]] == ["family1", "family2"]
    assert sorted(tuple(f["params"]) for f in r["families"]) == [
        (), ("t1",)]
    assert any("normalization" in step
               for f in r["families"] for step in f["trace"])


def test_classify_group_sweep(capsys):
    code, out, _ = run(capsys, "classify", "group", "--max", "6",
                       "--output", "json")
    assert code == 0
    doc = json.loads(out)
    counts = {r["n"]: len(r["families"]) for r in doc["results"]}
    assert counts == {1: 1, 2: 2, 3: 2, 4: 3, 5: 2, 6: 4}


def test_classify_beyond_branch_limit_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(classify, "BRANCH_LIMIT", 5)
    code, out, err = run(capsys, "classify", "group", "12")
    assert code == 3 and out == ""
    assert "unsupported" in err and "Traceback" not in err
    code, out, _ = run(capsys, "classify", "group", "12", "--output", "json")
    assert code == 3
    assert json.loads(out) == {
        "command": "classify", "ok": False,
        "unsupported": "more than 5 branches"}


def test_classify_sweep_keeps_orders_done_before_the_cap(monkeypatch,
                                                         capsys):
    monkeypatch.setattr(classify, "BRANCH_LIMIT", 5)
    code, out, _ = run(capsys, "classify", "group", "--max", "12",
                       "--output", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["unsupported"] == "more than 5 branches"
    assert [r["n"] for r in doc["results"]] == list(range(1, 12))
    assert [len(r["families"]) for r in doc["results"]] == [
        len(divisors(n)) for n in range(1, 12)]
    code, out, err = run(capsys, "classify", "group", "--max", "12")
    assert code == 3
    assert out.startswith("group(1): 1 families") and "group(11):" in out
    assert "group(12)" not in out
    assert err.startswith("error: solver unsupported:")


def test_classify_group_17_is_supported(capsys):
    """|G| = 17 is past the old 16-element audit cap."""
    code, out, _ = run(capsys, "classify", "group", "17", "--output", "json")
    assert code == 0
    assert len(json.loads(out)["results"][0]["families"]) == 2
    code, out, _ = run(capsys, "classify", "group", "--max", "17",
                       "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["n"] for r in doc["results"]] == list(range(1, 18))
    assert [len(r["families"]) for r in doc["results"]] == [
        len(divisors(n)) for n in range(1, 18)]


def test_classify_stuck_solver_exits_3(monkeypatch, capsys):
    # kC_5 with only 1 declared group-like and no split rule: the solver
    # stops with every instance but those of h = 1 still open
    monkeypatch.setattr(classify, "_find_split", lambda poly: None)
    monkeypatch.setitem(cli._BUILDERS, "group",
                        lambda n: group_algebra_cyclic(n)._replace(
                            grouplikes=(0,)))
    code, out, err = run(capsys, "classify", "group", "5", "--output", "json")
    assert code == 3 and err == ""
    doc = json.loads(out)
    assert set(doc) == {"command", "ok", "unsupported"}
    assert doc["command"] == "classify" and doc["ok"] is False
    assert doc["unsupported"].startswith(
        "solver stuck on kC_5 (support=<gen^1>): (g, 1); (g, g);")


def _double_unit_value(fam):
    """``fam`` with its coordinate 0 (lam(1), or the 1-coordinate of z)
    doubled."""
    v = fam.values
    return fam._replace(values=(v[0] + v[0],) + v[1:])


def test_classify_invalid_solution_exits_1(monkeypatch, capsys):
    promote = classify._promote
    monkeypatch.setattr(classify, "_promote",
                        lambda H, st: _double_unit_value(promote(H, st)))
    code, out, err = run(capsys, "classify", "taft", "3")
    assert code == 1 and out == ""
    assert err.startswith(
        "error: solver emitted an invalid family on taft(3): "
        "partial_action(taft(3)): FAILED")


@pytest.mark.parametrize("kind,lists,listing,verify,checks", [
    ("action", cli._ACTION_LISTS, taft_action_families,
     verify_partial_action, 2 * (1 + 81)),
    ("coaction", cli._COACTION_LISTS, taft_coaction_families,
     verify_partial_coaction, 2 * 3),
])
def test_failing_family_exits_1(monkeypatch, capsys, kind, lists, listing,
                                verify, checks):
    """With the parametric family of taft(3) faulted in coordinate 0 as its
    only family, the sweep exits 1, counts the checks of both reports, and
    lists the plain report's failures before the symmetric report's."""
    fam = _double_unit_value(listing(3)[-1])
    monkeypatch.setattr(families, lists["taft"], lambda n: [fam])
    code, out, err = run(capsys, kind + "s", "taft", "3", "--output",
                         "json")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["ok"] is False
    (res,) = doc["results"]
    assert res["verified"] is False and res["checks"] == checks
    code, out, err = run(capsys, kind + "s", "taft", "3")
    assert code == 1 and err == ""
    plain, sym = verify(fam.algebra, fam.values)
    assert not plain.ok and not sym.ok
    want = ["    " + str(f) for f in plain.failures + sym.failures]
    lines = out.splitlines()
    start = lines.index("  parametric [params: a] FAILED") + 1
    assert lines[start:start + len(want)] == want


@pytest.mark.parametrize("exc,want", [
    (BranchLimitExceeded("more than 64 branches"), 3),
    (NonCyclicGrouplikes("group-like group is not cyclic"), 3),
    (ClassificationError("grouplike_comult failed at (1,) on taft(2)"), 1),
])
def test_classify_exit_code_separates_limits_from_failures(
        monkeypatch, capsys, exc, want):
    def raising(H):
        raise exc

    monkeypatch.setattr(classify, "classify_base_field_actions", raising)
    code, out, err = run(capsys, "classify", "taft", "2", "--output", "json")
    assert code == want
    if want == 3:
        assert json.loads(out)["unsupported"] == str(exc)
    else:
        assert out == "" and str(exc) in err


def test_duality_text(capsys):
    code, out, _ = run(capsys, "duality", "taft", "4")
    assert code == 0
    assert "round trip identity: ok" in out
    assert "MISMATCH" not in out and out.count("match") == 3


def test_duality_json(capsys):
    code, out, _ = run(capsys, "duality", "nichols", "3", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    checks = doc["results"][0]["checks"]
    assert all(c["ok"] for c in checks)
    kinds = [c["check"] for c in checks]
    assert "round trip identity" in kinds
    assert sum(k.startswith("transport") for k in kinds) == 2


def _pair_names(algebra, n):
    """The (action, coaction) names the self-duality pairs: the indicator
    of the subgroup of index k (generated by g^k) with the average over
    the subgroup of order k (generated by g^(n/k)), the counit with the
    global coaction, and the parametric families with each other."""
    if algebra == "nichols":
        return [("counit", "global"), ("parametric", "parametric")]
    names = [("counit", "global")]
    names += [("subgroup<g^%d>" % k, "subgroup<g^%d>" % (n // k))
              for k in divisors(n)[1:-1]]
    return names + [("parametric", "parametric")]


@pytest.mark.parametrize("algebra,orders", [
    ("taft", range(2, 13)), ("nichols", range(2, 10))])
def test_transport_pairs_follow_the_listings(algebra, orders):
    """Beyond the default sweeps: every pair the listing-order rule makes
    is one that transport along H* -> H carries over, value for value."""
    for n in orders:
        inv = getattr(duality, algebra + "_from_dual")(n)
        pairs = list(cli._transport_pairs(algebra, n))
        assert [(a.name, c.name) for a, c in pairs] == _pair_names(algebra, n)
        for act, coact in pairs:
            assert duality.transport(act, inv).values == coact.values, (
                n, act.name)


def test_handlers_resolve_layer_functions_when_they_run(monkeypatch,
                                                        capsys):
    """A handler reads each layer function off its module when it runs, so
    a counter bound onto the module after import sees every call, as the
    benchmark's tracer needs; a handler that captured a function at import
    would leave its counter at 0."""
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((qcomb, "check_pascal"), (qcomb, "check_identity"),
                         (duality, "check_character_sum"),
                         (families, "taft_action_families"),
                         (duality, "taft_from_dual")):
        count(module, name)
    counts, failures = run_identity_sweep(1, 2)
    assert failures == []
    assert calls["check_pascal"] + calls["check_identity"] + calls[
        "check_character_sum"] == sum(t for t, _ in counts.values())
    assert main(["duality", "taft", "2"]) == 0
    capsys.readouterr()
    assert calls["taft_action_families"] == calls["taft_from_dual"] == 1
    assert all(calls[name] for name in ("check_pascal", "check_identity",
                                        "check_character_sum"))


def test_identities_small_sweep(capsys):
    code, out, _ = run(capsys, "identities", "--max", "2", "--n", "3",
                       "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["failures"] == []
    suites = {r["suite"]: r for r in doc["results"]}
    assert set(suites) == {
        "pascal_a", "pascal_b", "alternating_vandermonde",
        "trinomial_revision", "four_index_inversion", "binomial_inversion",
        "character_sum"}
    assert all(r["failed"] == 0 for r in doc["results"])


def test_identity_sweep_default_size():
    assert sum(1 for _ in identity_verdicts(6, 8)) == 25555


def tally_every_item(max_index, root_cap):
    """The sweep's result by checking every q instance under every q spec,
    then every character sum."""
    counts, failures = {}, []
    verdicts = [check(*args, q) for q in cli._sweep_qs(root_cap)
                for check, args in cli._q_instances(max_index)]
    verdicts += [duality.check_character_sum(m, k, m // k)
                 for m in range(1, 2 * max_index + 1) for k in divisors(m)]
    for v in verdicts:
        total, bad = counts.get(v.name, (0, 0))
        counts[v.name] = (total + 1, bad + (not v.ok))
        if not v.ok:
            failures.append(str(v))
    return counts, failures


@contextlib.contextmanager
def _wrong_binomial(monkeypatch):
    """(3 choose 1) off by q in the q-Pascal recurrence: every q-identity
    that meets that binomial, in an instance or through a later row built
    from it, fails at the generic q and at most specializations.  The q
    tables are cleared around the block, so no wrong value outlives it."""
    right = qcomb._pascal_row

    def wrong(prev, powers):
        row = right(prev, powers)
        if len(row) == 4:
            row[1] = row[1] + powers[1]
        return row

    qcomb._table.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(qcomb, "_pascal_row", wrong)
            yield
    finally:
        qcomb._table.cache_clear()


@pytest.fixture
def wrong_binomial(monkeypatch):
    with _wrong_binomial(monkeypatch):
        yield


@pytest.mark.parametrize("max_index,root_cap", [(3, 3), (5, 6), (6, 8)])
def test_identity_sweep_equals_the_tally_of_every_item(max_index, root_cap):
    got = run_identity_sweep(max_index, root_cap)
    assert got == tally_every_item(max_index, root_cap)
    assert got[1] == []


@pytest.mark.parametrize("max_index,root_cap", [(3, 3), (5, 6)])
def test_identity_sweep_reports_every_failure_of_a_wrong_binomial(
        wrong_binomial, max_index, root_cap):
    counts, failures = run_identity_sweep(max_index, root_cap)
    assert (counts, failures) == tally_every_item(max_index, root_cap)
    # the wrong binomial shows at the generic q and at the roots of unity
    assert any("@ generic" in f for f in failures)
    assert any("@ q=zeta_%d" % root_cap in f for f in failures)
    assert any(bad for _, bad in counts.values())


def test_a_verdict_renders_its_rhs_only_when_the_sides_differ(
        wrong_binomial):
    verdicts = list(identity_verdicts(3, 3))
    failing = [v for v in verdicts if not v.ok]
    assert failing
    assert all(v.lhs != v.rhs for v in failing)
    assert all(v.lhs == v.rhs for v in verdicts if v.ok)


def test_no_wrong_value_outlives_a_wrong_binomial(monkeypatch):
    assert run_identity_sweep(3, 3)[1] == []
    with _wrong_binomial(monkeypatch):
        assert run_identity_sweep(3, 3)[1]
    assert run_identity_sweep(3, 3)[1] == []


def test_a_one_variable_product_that_drops_its_top_term_fails(monkeypatch):
    """Fault injection in the one-variable product: with its top-degree
    term dropped, the sweep reports failures at the generic q, which alone
    multiplies polynomials, and at no concrete q.  The q tables are
    cleared around the fault, so no wrong value outlives it."""
    right = exact_arith._one_var_mul
    dropped = [0]

    def wrong(order, name, a, b):
        terms = dict(right(order, name, a, b).terms)
        del terms[max(terms)]
        dropped[0] += 1
        return exact_arith._poly(order, terms)

    qcomb._table.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(exact_arith, "_one_var_mul", wrong)
            counts, failures = run_identity_sweep(3, 3)
    finally:
        qcomb._table.cache_clear()
    assert dropped[0] and failures
    assert all("@ generic" in f for f in failures)
    assert sum(bad for _, bad in counts.values()) == len(failures)
    assert run_identity_sweep(3, 3)[1] == []


def test_identity_sweep_work_counts(monkeypatch):
    """Scalar products of ``identities --n 6 --max 5`` from cold q tables.

    A term of a ``check_identity`` sum is skipped at its first zero
    binomial and each power of q is computed once per q, which took the
    counts from 104,521 ``_mul`` and 9,380 ``ParamPoly.__mul__`` calls to
    56,871 and 4,504.  Three changes took them to the numbers below:
    a product of two sides, or of a q-power and a side, with a zero factor
    is not made (7,817 ``_mul`` and 850 ``ParamPoly.__mul__`` calls); each
    power of q is the one before times q, one product, instead of a binary
    power, and the binomials fill whole rows (174 and 26); and the q-Pascal
    recurrence makes no product by a zero binomial (65 ``_mul``).  A
    character sum that vanishes is not scaled by 1/n (83 ``_mul``, the
    only products with a zero operand left in the sweep).  A product of
    two polynomials in q alone with integer coefficients, which is every
    product of two non-constant polynomials at the generic q, accumulates
    its coefficients as ints and makes no ``_mul`` (48,732 -> 34,396; the
    ``ParamPoly.__mul__`` calls are unchanged).  A term or side whose
    q-exponent is 0 takes no product by q^0 = 1 (34,396 -> 23,897 ``_mul``
    and 3,628 -> 2,694 ``ParamPoly.__mul__`` calls), and a polynomial
    scaled by the constant 1, such as (m 0) or (m m) at the generic q, is
    returned as it is, with no product per coefficient (23,897 -> 17,170
    ``_mul``).  Reading binomials from the table's rows, with the ranges
    as loop bounds, changes no count.  Each q instance is still checked
    once under each q spec, as the benchmark's traced count of checks
    assumes.
    """
    qcomb._table.cache_clear()
    calls = dict.fromkeys(("cyc_mul", "poly_mul", "check"), 0)

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(exact_arith, "_mul",
                        counted("cyc_mul", exact_arith._mul))
    poly_mul = counted("poly_mul", exact_arith.ParamPoly.__mul__)
    monkeypatch.setattr(exact_arith.ParamPoly, "__mul__", poly_mul)
    monkeypatch.setattr(exact_arith.ParamPoly, "__rmul__", poly_mul)
    for name in ("check_pascal", "check_identity"):
        monkeypatch.setattr(qcomb, name,
                            counted("check", getattr(qcomb, name)))
    counts, failures = run_identity_sweep(5, 6)
    assert failures == []
    assert calls == {"cyc_mul": 17170, "poly_mul": 2694, "check": 12042}
    assert sum(total for name, (total, _) in counts.items()
               if name != "character_sum") == 12042


def test_identity_sweep_builds_one_table_per_q_spec():
    """Every check at a q reads the one table of that q: a sweep from cold
    builds one table per q spec.  The sweep checks every instance at one q
    object before the next, and a check looks the table up only when its
    q is not the object of the last lookup, so q is hashed once per q spec
    where it was once per check (12,042 lookups)."""
    qcomb._table.cache_clear()
    run_identity_sweep(5, 6)
    info = qcomb._table.cache_info()
    assert info.misses == info.currsize == len(cli._sweep_qs(6)) == 9
    # one lookup per q spec
    assert info.hits + info.misses == 9


def test_clearing_the_tables_forgets_the_last_q():
    """``_table.cache_clear()`` also drops the last lookup, so the next
    call at the same q object builds a new table."""
    q = cli._sweep_qs(2)[1]
    qcomb._table.cache_clear()
    first = qcomb._table(q)
    assert qcomb._table(q) is first
    qcomb._table.cache_clear()
    assert qcomb._table(q) is not first
    assert qcomb._table.cache_info().misses == 1


def test_a_passing_sweep_renders_nothing(monkeypatch):
    """A verdict keeps its sides as values and renders them only when
    ``lhs``, ``rhs`` or ``str(v)`` is read, and the sweep reads ``str(v)``
    of a failure alone.  The label of a rational q is its rendered value,
    made once when its table is built, so the tables are built first."""
    qcomb._table.cache_clear()
    qs = cli._sweep_qs(6)
    rendered = [0]

    for cls in (exact_arith.CycNumber, exact_arith.ParamPoly):
        def counted(self, *args, _render=cls.render):
            rendered[0] += 1
            return _render(self, *args)
        monkeypatch.setattr(cls, "render", counted)
    # the labels q=2, q=3, q=5/7 and q=-1 (zeta_2)
    assert [qcomb.q_label(q) for q in qs][1:5] == [
        "q=2", "q=3", "q=5/7", "q=-1"]
    assert rendered[0] == 4
    rendered[0] = 0
    counts, failures = run_identity_sweep(5, 6)
    assert failures == [] and rendered[0] == 0


def test_a_failure_string_is_the_eager_rendering_of_its_sides(
        wrong_binomial):
    """Under a wrong binomial, each failure of the sweep reads as it did
    when a verdict rendered its sides as it was made: both sides rendered
    in full, and the left side twice for a pass."""
    failures = run_identity_sweep(5, 6)[1]
    verdicts = list(identity_verdicts(5, 6))
    eager = ["%s%s @ %s: %s  [%s == %s]" % (
        v.name, v.indices, v.q_desc, "ok" if v.ok else "FAIL",
        v.left.render(), (v.left if v.ok else v.right).render())
        for v in verdicts]
    assert [str(v) for v in verdicts] == eager
    assert failures == [e for v, e in zip(verdicts, eager) if not v.ok]
    assert failures


@pytest.mark.parametrize("binomial", ["right", "wrong"])
def test_a_q_spec_fails_only_where_the_generic_q_fails(request, binomial):
    """The homomorphism argument of the qcomb docstring: an instance that
    holds at the generic q holds under every q spec, with the right
    binomial and with a wrong one that is still a polynomial in q."""
    if binomial == "wrong":
        request.getfixturevalue("wrong_binomial")
    generic, *specs = cli._sweep_qs(6)
    failing_at_generic = 0
    for check, args in cli._q_instances(5):
        if check(*args, generic).ok:
            assert all(check(*args, q).ok for q in specs), args
        else:
            failing_at_generic += 1
    assert (failing_at_generic > 0) == (binomial == "wrong")


def test_export_round_trips_exactly(tmp_path, capsys):
    path = tmp_path / "t3.json"
    assert main(["export", "taft", "3", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text()) == to_json_dict(taft(3))
    code, out, _ = run(capsys, "import", str(path))
    assert code == 0 and "valid" in out


def test_export_stdout_import_stdin(monkeypatch, capsys):
    code, out, _ = run(capsys, "export", "nichols", "2")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "import", "-")
    assert code == 0


def test_import_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "import", "/no/such/file.json")
    assert code == 2 and "error" in err


def test_import_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "import", str(path))
    assert code == 2 and "invalid JSON" in err


@pytest.mark.parametrize("data,want", [
    (b"[" * 200000, "nests too deeply"),
    (b"\xff\xfe{}", "not UTF-8"),
    (b"[" + b"1" * (sys.get_int_max_str_digits() + 1) + b"]",
     "invalid JSON input"),
], ids=["deeply_nested", "not_utf8", "int_too_long"])
@pytest.mark.parametrize("source", ["path", "stdin"])
def test_import_refuses_unparsable_input(tmp_path, monkeypatch, capsys,
                                         data, want, source):
    """Input json cannot decode without a RecursionError, a
    UnicodeDecodeError or a ValueError (an integer beyond the string-digit
    limit) is a format error with one line, no traceback."""
    if source == "path":
        arg = str(tmp_path / "odd.json")
        Path(arg).write_bytes(data)
    else:
        arg = "-"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8"))
    code, out, err = run(capsys, "import", arg)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert want in err


def test_import_wrong_schema(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"dim": 2}))
    code, _, err = run(capsys, "import", str(path))
    assert code == 2


def test_import_invalid_structure(tmp_path, capsys):
    doc = to_json_dict(taft(2))
    rows = [row for row in doc["mult"] if not (row[0] == 2 and row[1] == 2)]
    rows.append([2, 2, 2, "1"])
    doc["mult"] = rows
    path = tmp_path / "notahopf.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "import", str(path))
    assert code == 1


def test_import_failure_report_is_truncated(tmp_path, capsys):
    """taft(4) with the identity as antipode fails 28 checks; the report
    lists the first 20 and counts the rest."""
    doc = to_json_dict(taft(4))
    dim = doc["dim"]
    doc["antipode"] = [["1" if i == j else "0" for j in range(dim)]
                       for i in range(dim)]
    path = tmp_path / "identity_antipode.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "import", str(path))
    assert code == 1
    assert err.count("\n  antipode_") == 20
    assert err.endswith("\n  ... 8 more failures\n")


@pytest.mark.parametrize("field,value", [
    ("counit", "2^100000000"),
    ("counit", "1" * 257),
    ("counit", "(" * 101 + "1" + ")" * 101),
    ("counit", "(2^4096)^16"),
    ("dim", 513),
    ("order", 1025),
])
def test_import_beyond_limits_is_format_error(tmp_path, capsys, field,
                                              value):
    doc = to_json_dict(taft(2))
    if field == "counit":
        doc["counit"][1] = value
    else:
        doc[field] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", str(path))
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err


def _drop_last(key):
    def edit(doc):
        doc[key] = doc[key][:-1]
    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _short_antipode_row(doc):
    doc["antipode"][1] = doc["antipode"][1][:-1]


@pytest.mark.parametrize("edit,message", [
    (_drop_last("basis"), "basis length / dim / order inconsistent"),
    (_set("order", 0), "basis length / dim / order inconsistent"),
    (_set("basis", ["1", "x", "g", "x"]), "duplicate basis labels"),
    (_drop_last("unit"), "unit/counit length mismatch"),
    (_drop_last("counit"), "unit/counit length mismatch"),
    (_drop_last("antipode"), "antipode must be a dim x dim matrix"),
    (_short_antipode_row, "antipode must be a dim x dim matrix"),
    (_set("grouplike_vectors", [["1", "0", "1"]]),
     "grouplike vector length mismatch"),
    (_set("basis_degrees", [0, 1, 0]), "basis_degrees length mismatch"),
    (_set("counit", ["1", "0", "1/0", "0"]), "division by zero"),
], ids=["basis_short", "order_zero", "duplicate_label", "unit_short",
        "counit_short", "antipode_rows", "antipode_row_short",
        "grouplike_vector_short", "degrees_short", "coefficient_refused"])
def test_import_refuses_inconsistent_shapes(tmp_path, capsys, edit, message):
    """Each shape check of the importer is a format error: exit 2, one line
    on stderr, nothing on stdout."""
    doc = to_json_dict(taft(2))
    edit(doc)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("key,value", [
    ("basis", "1g"),
    ("unit", "10"),
    ("counit", "11"),
    ("antipode", ["10", "01"]),
    ("grouplike_vectors", ["10"]),
    ("unit", {"1": 0, "0": 0}),
], ids=["basis_string", "unit_string", "counit_string",
        "antipode_row_strings", "grouplike_vector_string", "unit_object"])
def test_import_refuses_non_array_fields(tmp_path, capsys, key, value):
    """A string or object where the format has an array is a format error;
    it used to be read entry by entry (an object as its keys), and each of
    these documents of kC_2 imported as valid."""
    doc = to_json_dict(group_algebra_cyclic(2))
    doc[key] = value
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be an array" in err and "Traceback" not in err


@pytest.mark.parametrize("where,value,shown", [
    (("basis",), [None, {"a": 1}],
     "basis label must be a string, not None"),
    (("basis",), [1, "g"], "basis label must be a string, not 1"),
    (("name",), ["x"], "name must be a string, not ['x']"),
    (("name",), 7, "name must be a string, not 7"),
    (("name",), None, "name must be a string, not None"),
    (("unit", 0), 1, "coefficient must be a string, not 1"),
    (("counit", 1), True, "coefficient must be a string, not True"),
    (("mult", 0, 3), None, "coefficient must be a string, not None"),
    (("antipode", 0, 0), 0.5, "coefficient must be a string, not 0.5"),
], ids=["basis_null_object", "basis_number", "name_array", "name_number",
        "name_null", "unit_number", "counit_bool", "mult_null",
        "antipode_float"])
def test_import_refuses_non_string_labels_and_names(tmp_path, capsys,
                                                    where, value, shown):
    """A basis label, name or coefficient of another JSON type is a format
    error; it used to be converted with str(), so the label, name and unit
    documents of kC_2 imported as valid and the others were refused as an
    unknown parameter 'True' or 'None' or a bad character '.'."""
    doc = to_json_dict(group_algebra_cyclic(2))
    *keys, last = where
    target = doc
    for k in keys:
        target = target[k]
    target[last] = value
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", str(path))
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % shown


def _set_mult_index(doc, value):
    doc["mult"][0][0] = value  # the row [0, 0, 0, "1"]


def _set_dim(doc, value):
    doc["dim"] = value


def _set_order(doc, value):
    doc["order"] = value


def _set_grouplike(doc, value):
    doc["grouplikes"][1] = value


def _set_degree(doc, value):
    doc["basis_degrees"][1] = value


@pytest.mark.parametrize("edit,value", [
    (_set_mult_index, 0.7),
    (_set_mult_index, False),
    (_set_dim, 4.9),
    (_set_dim, "4"),
    (_set_order, True),
    (_set_order, 2.0),
    (_set_grouplike, "2"),
    (_set_degree, 1.5),
])
def test_import_refuses_non_integer_numbers(tmp_path, capsys, edit, value):
    """A float, bool or string where the format has an integer is a format
    error, not silently converted (0.7 used to read as index 0, 4.9 as
    dim 4)."""
    doc = to_json_dict(taft(2))
    edit(doc, value)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", str(path))
    assert code == 2 and out == ""
    assert "must be an integer" in err and "Traceback" not in err


def _set_counit(text):
    def edit(doc):
        doc["counit"][1] = text
    return edit


def _replace_document(value):
    def edit(doc):
        return value
    return edit


_LONG = "y" * 100000


@pytest.mark.parametrize("edit,named", [
    (_set("dim", "x" * 10 ** 6), "dim must be an integer, not 'xxx"),
    (_set("basis", "x" * 10 ** 6), "basis must be an array, not 'xxx"),
    (_set_counit("a" + _LONG), "unknown parameter 'ayyy"),
    (_set_counit("$" + _LONG), "bad character '$' in '$yyy"),
    (_set_counit("1 " + _LONG), "trailing tokens in '1 yyy"),
    (_set_counit("*" + _LONG), "unexpected token '*'"),
    (_set_counit("(1 " + _LONG), "expected ')', got 'yyy"),
    (_set_counit("1^" + _LONG), "expected integer exponent, got 'yyy"),
    (_replace_document([1, 2, 3]),
     "algebra description must be an object, not [1, 2, 3]"),
    (_replace_document("x" * 10 ** 5),
     "algebra description must be an object, not 'xxx"),
    (_set("name", "n" * 10 ** 6), "name longer than 64 characters: 'nnn"),
    (_set("basis", ["1", _LONG, "x", "gx"]),
     "basis label longer than 64 characters: 'yyy"),
], ids=["dim_string", "basis_string", "unknown_parameter", "bad_character",
        "trailing_tokens", "unexpected_token", "expected_paren",
        "expected_exponent", "top_level_array", "top_level_string",
        "long_name", "long_basis_label"])
def test_import_refusal_quotes_a_bounded_prefix(tmp_path, capsys, edit,
                                                named):
    """A refusal names the offending field and quotes at most about 60
    characters of its value: a megabyte value is not repeated on stderr."""
    doc = to_json_dict(taft(2))
    doc = edit(doc) or doc
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 300 and named in err


def test_costly_power_at_a_large_order_is_refused_at_once(tmp_path,
                                                         capsys):
    doc = to_json_dict(taft(2))
    doc["order"] = 1024
    doc["counit"][1] = "(1+z)^4096"
    path = tmp_path / "costly.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "import", str(path))
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert "power too large" in err and "Traceback" not in err


def test_unknown_algebra_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["actions", "heisenberg", "3"])
    assert exc.value.code == 2


def test_coactions_reject_group_algebras():
    with pytest.raises(SystemExit) as exc:
        main(["coactions", "group", "4"])
    assert exc.value.code == 2


def test_below_minimum_order_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "taft", "1")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [
    ("validate", "nichols", "10"),
    ("validate", "taft", "23"),
    ("classify", "group", "513"),
    ("export", "dualgroup", "513"),
    ("validate", "nichols", "10" * 20),
])
def test_order_beyond_limits_is_refused_at_once(capsys, argv):
    """A built-in algebra beyond the import limits (dim 512, order 1024) is
    refused before it is built."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert "beyond the limits" in err and "Traceback" not in err


def test_largest_nichols_order_builds():
    assert nichols(9).dim == 512


def test_max_below_minimum_is_usage_error(capsys):
    code, _, err = run(capsys, "actions", "nichols", "--max", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("validate", "taft", "3", "--max", "5"),
    ("actions", "taft", "3", "--max", "5"),
    ("coactions", "nichols", "3", "--max", "2"),
    ("classify", "group", "4", "--max", "1"),
    ("duality", "taft", "2", "--max", "2"),
])
def test_order_and_max_together_is_usage_error(capsys, argv):
    """An order n and --max name two different sweeps; neither is run."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: give an order n or --max, not both\n"


@pytest.mark.parametrize("argv", [
    ("validate", "group", "--max", "1" + "0" * 30),
    ("validate", "nichols", "--max", "30"),
    ("validate", "nichols", "--max", "10"),
    ("classify", "taft", "--max", "23"),
    ("actions", "dualgroup", "--max", "513"),
    ("duality", "nichols", "--max", "10"),
])
def test_max_beyond_largest_order_is_refused_before_any_work(capsys, argv):
    """A sweep whose --max the builder would refuse exits 2 before its first
    order is built: no OverflowError from range, no validated orders."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert "above the largest order" in err and "Traceback" not in err


@pytest.mark.parametrize("name,build,top", [
    ("taft", taft, 22), ("nichols", nichols, 9),
    ("group", group_algebra_cyclic, 512),
    ("dualgroup", dual_group_algebra_cyclic, 512),
])
def test_largest_order_is_the_builders_limit(name, build, top):
    assert cli._LARGEST_ORDER[name] == top
    with pytest.raises(InvalidOrder, match="beyond the limits"):
        build(top + 1)


# -- identity sweep options ---------------------------------------------------

@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    code, out, err = run(capsys, "identities", "--max", "1", "--n", "2",
                         "--jobs", jobs)
    assert code == 2 and out == "" and "--jobs" in err


@pytest.mark.parametrize("args,flag", [
    (["--n", "0"], "--n"), (["--n", "-3"], "--n"),
    (["--max", "-1"], "--max"), (["--max", "-7", "--n", "2"], "--max"),
    (["--max", "9"], "--max"), (["--n", "17", "--max", "0"], "--n"),
    (["--max", str(10 ** 9)], "--max"),
])
def test_identities_bounds_are_usage_errors(capsys, args, flag):
    code, out, err = run(capsys, "identities", *args, "--jobs", "1")
    assert code == 2 and out == ""
    assert flag in err and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_identities_smallest_bounds_run(capsys):
    code, out, _ = run(capsys, "identities", "--n", "1", "--max", "0",
                       "--jobs", "1", "--output", "json")
    doc = json.loads(out)
    assert code == 0 and doc["ok"]
    assert {r["suite"] for r in doc["results"]} >= {"pascal_a", "pascal_b"}


def test_non_integer_jobs_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--jobs", "many"])
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs", ["4", str(10 ** 6)])
def test_jobs_changes_no_output(capsys, jobs):
    argv = ["identities", "--n", "3", "--max", "2", "--output", "json"]
    code, out, _ = run(capsys, *argv, "--jobs", "1")
    assert code == 0
    assert run(capsys, *argv, "--jobs", jobs) == (0, out, "")


def fresh_python(code, *args, stdin=None):
    """Run ``code`` in a fresh interpreter with the package on its path,
    under ``-S``: no ``site`` hook (a ``.pth`` file) imports a module on
    the package's behalf."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args], input=stdin,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)


# Runs ``import partial_hopf.cli`` without arguments, else the subcommand
# as the console script does; its last stderr line is the exit code, the
# ``partial_hopf`` modules loaded besides ``cli``, and any multiprocessing,
# ``fractions``, ``decimal``, ``dataclasses``, ``inspect`` or ``typing``
# module loaded.
_FOOTPRINT_PROBE = """\
import json, runpy, sys
code = 0
if len(sys.argv) > 1:
    try:
        runpy.run_module("partial_hopf.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
else:
    import partial_hopf.cli
mods = [m.split(".")[1] for m in sys.modules if m.startswith("partial_hopf.")]
print(json.dumps([code, sorted(set(mods) - {"cli"}),
                  sorted(m for m in sys.modules if "multiprocessing" in m
                         or m in ("fractions", "decimal", "dataclasses",
                                  "inspect", "typing"))]),
      file=sys.stderr)
"""
START_UP_LAYERS = ["algebras", "exact_arith", "hopf_core"]


@pytest.mark.parametrize("argv,layers", [
    pytest.param((), [], id="import-cli"),
    pytest.param(("validate", "taft", "2"), ["qcomb"], id="validate"),
    pytest.param(("validate", "nichols", "2"), [], id="validate-nichols"),
    pytest.param(("export", "taft", "2"), ["qcomb"], id="export"),
    pytest.param(("import", "-"), ["expr"], id="import"),
    pytest.param(("actions", "taft", "2"), ["families", "qcomb"],
                 id="actions"),
    pytest.param(("actions", "taft", "2", "--paper-examples"),
                 ["expr", "families", "qcomb", "reference_tables"],
                 id="actions-paper-examples"),
    pytest.param(("coactions", "taft", "2"), ["families", "qcomb"],
                 id="coactions"),
    pytest.param(("coactions", "nichols", "2"), ["families"],
                 id="coactions-nichols"),
    pytest.param(("classify", "taft", "2"), ["classify", "families", "qcomb"],
                 id="classify"),
    pytest.param(("classify", "dualgroup", "2"), ["classify", "families"],
                 id="classify-dualgroup"),
    pytest.param(("duality", "taft", "2"),
                 ["duality", "families", "qcomb"], id="duality"),
    pytest.param(("duality", "nichols", "2"), ["duality", "families"],
                 id="duality-nichols"),
    pytest.param(("identities", "--n", "1", "--max", "1"),
                 ["duality", "qcomb"], id="identities"),
    pytest.param(("identities", "--n", "1", "--max", "0"), ["qcomb"],
                 id="identities-no-character-sums"),
])
def test_a_process_loads_only_its_layers(argv, layers):
    """A fresh process loads the start-up layers and its subcommand's own,
    no multiprocessing (the identity sweep runs in one process), no
    ``fractions`` or ``decimal`` (every scalar is built from integers), and
    no ``dataclasses``, ``inspect`` or ``typing`` (the records are
    namedtuples and ``__slots__`` classes).  Only ``import`` and
    ``--paper-examples`` parse expressions, so only they load ``expr``,
    and only a process that builds a Taft algebra or sweeps the
    identities reads q-binomials, so only it loads ``qcomb``.
    The empty argv is ``import partial_hopf.cli`` alone; ``import -`` reads
    taft(2) from stdin."""
    stdin = json.dumps(to_json_dict(taft(2)))
    probe = fresh_python(_FOOTPRINT_PROBE, *argv, stdin=stdin)
    code, loaded, unwanted = json.loads(probe.stderr.splitlines()[-1])
    assert code == 0, probe.stderr
    assert loaded == sorted(START_UP_LAYERS + layers)
    assert unwanted == []


def test_an_error_exit_loads_no_further_layer():
    """Mapping an exception to its exit code loads no layer: an order
    beyond the builder (exit 2) leaves only the start-up layers loaded (no
    ``qcomb``: taft(99) is refused before anything is built), an
    import that fails the axioms (exit 1) only those and the parser it
    read with, and neither loads a module the probe lists as unwanted."""
    doc = to_json_dict(taft(2))
    doc["antipode"] = [["1" if i == j else "0" for j in range(doc["dim"])]
                       for i in range(doc["dim"])]
    for argv, stdin, want, layers in (
            (("validate", "taft", "99"), None, 2, []),
            (("import", "-"), json.dumps(doc), 1, ["expr"])):
        probe = fresh_python(_FOOTPRINT_PROBE, *argv, stdin=stdin)
        code, loaded, unwanted = json.loads(probe.stderr.splitlines()[-1])
        assert (code, loaded, unwanted) == (
            want, sorted(START_UP_LAYERS + layers), [])


@pytest.mark.parametrize("module", sorted(
    p.stem for p in Path(cli.__file__).parent.glob("*.py")
    if p.stem != "__init__"))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    """The package's ``__init__`` imports no layer, so an import cycle
    between two layers shows here as an ImportError."""
    probe = fresh_python("import partial_hopf.%s" % module)
    assert probe.returncode == 0, probe.stderr


@pytest.mark.parametrize("argv", [
    ("validate", "taft", "2"),                      # fails at the last flush
    ("classify", "taft", "2", "--output", "json"),
    ("export", "taft", "8"),                        # fails while printing
])
def test_closed_stdout_exits_141_quietly(argv):
    """A reader that stops early, as in ``| head -1``: the read end of the
    pipe is closed before the command writes, so every write fails.
    stdout is block-buffered, as it is for a user's pipe."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "partial_hopf.cli", *argv], stdout=w,
            stderr=subprocess.PIPE, env={**env, "PYTHONPATH": src},
            timeout=60)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, b"")
