"""Exit codes, output schemas and round trips of the command-line tool."""
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from partial_hopf import classify, cli, exact_arith, qcomb, reference_tables
from partial_hopf.algebras import (
    InvalidOrder, dual_group_algebra_cyclic, group_algebra_cyclic, nichols,
    taft,
)
from partial_hopf.classify import (
    BranchLimitExceeded, ClassificationError, NonCyclicGrouplikes,
)
from partial_hopf.cli import (
    _identity_verdict, identity_sweep_items, main, run_identity_sweep,
)
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
    monkeypatch.setitem(cli._BUILDERS, "group", lambda n: dataclasses.replace(
        group_algebra_cyclic(n), grouplikes=(0,)))
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
    return dataclasses.replace(fam, values=(v[0] + v[0],) + v[1:])


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
    monkeypatch.setitem(lists, "taft", lambda n: [fam])
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

    monkeypatch.setattr(cli, "classify_base_field_actions", raising)
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
    assert len(identity_sweep_items(6, 8)) == 25555


def tally_every_item(max_index, root_cap):
    """The sweep's result by checking every item under every q spec."""
    counts, failures = {}, []
    for item in identity_sweep_items(max_index, root_cap):
        v = _identity_verdict(item)
        total, bad = counts.get(v.name, (0, 0))
        counts[v.name] = (total + 1, bad + (not v.ok))
        if not v.ok:
            failures.append(str(v))
    return counts, failures


@contextlib.contextmanager
def _wrong_binomial(monkeypatch):
    """q_binomial off by q at (3 choose 1): every q-identity that meets that
    binomial, in an instance or inside a recurrence, fails at the generic q
    and at most specializations.  The recurrence memo is cleared around the
    block, so no wrong value outlives it; the memo of q-powers holds no
    binomial."""
    right = qcomb.q_binomial

    def wrong(m, l, q):
        value = right(m, l, q)
        return value + q if (m, l) == (3, 1) else value

    qcomb._q_binomial.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(qcomb, "q_binomial", wrong)
            yield
    finally:
        qcomb._q_binomial.cache_clear()


@pytest.fixture
def wrong_binomial(monkeypatch):
    with _wrong_binomial(monkeypatch):
        yield


@pytest.mark.parametrize("max_index,root_cap", [(3, 3), (5, 6)])
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
    verdicts = [_identity_verdict(item) for item in identity_sweep_items(3, 3)]
    failing = [v for v in verdicts if not v.ok]
    assert failing
    assert all(v.lhs != v.rhs for v in failing)
    assert all(v.lhs == v.rhs for v in verdicts if v.ok)


def test_no_wrong_value_outlives_a_wrong_binomial(monkeypatch):
    assert run_identity_sweep(3, 3)[1] == []
    with _wrong_binomial(monkeypatch):
        assert run_identity_sweep(3, 3)[1]
    assert run_identity_sweep(3, 3)[1] == []


def test_identity_sweep_work_counts(monkeypatch):
    """Scalar products of ``identities --n 6 --max 5`` from cold memos.

    A term of a ``check_identity`` sum is skipped at its first zero
    binomial and each power of q is computed once per q, which took the
    counts from 104,521 ``_mul`` and 9,380 ``ParamPoly.__mul__`` calls to
    the numbers below.  Each q instance is still checked once under each q
    spec, as the benchmark's traced count of checks assumes.
    """
    for memo in (qcomb._q_binomial, qcomb._q_pow, qcomb.q_number,
                 qcomb.q_factorial):
        memo.cache_clear()
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
        monkeypatch.setattr(cli, name, counted("check", getattr(cli, name)))
    counts, failures = run_identity_sweep(5, 6)
    assert failures == []
    assert calls == {"cyc_mul": 56871, "poly_mul": 4504, "check": 12042}
    assert sum(total for name, (total, _) in counts.items()
               if name != "character_sum") == 12042


@pytest.mark.parametrize("binomial", ["right", "wrong"])
def test_a_q_spec_fails_only_where_the_generic_q_fails(request, binomial):
    """The homomorphism argument of the qcomb docstring: an instance that
    holds at the generic q holds under every q spec, with the right
    binomial and with a wrong one that is still a polynomial in q."""
    if binomial == "wrong":
        request.getfixturevalue("wrong_binomial")
    generic, *specs = cli._sweep_qs(6)
    failing_at_generic = 0
    for inst in cli._q_instances(5):
        if _identity_verdict(inst + (generic,)).ok:
            assert all(_identity_verdict(inst + (q,)).ok for q in specs), inst
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


def test_cli_import_loads_no_multiprocessing():
    # a fresh interpreter: the sweep runs in one process
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, partial_hopf.cli; "
         "print(sorted(m for m in sys.modules if 'multiprocessing' in m))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True)
    assert probe.stdout.strip() == "[]"


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
