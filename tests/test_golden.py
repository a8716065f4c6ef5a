"""Byte-exact JSON reports of a fast subset of CLI invocations.

The files under ``golden/`` were captured from the implementation that kept
every CycNumber coordinate as a Fraction, before the integer-coordinate
core replaced it; ``validate_nichols.json`` (the default sweep, orders 2-6)
was captured from the validator that checked one basis tuple at a time,
before it walked the nonzero structure constants; ``validate_taft.json``
(orders 2-8), ``validate_group.json`` and ``validate_dualgroup.json``
(default sweeps) were captured while associativity and the two
multiplicativity axioms were still swept over every first basis index;
``duality_nichols.json`` and ``coactions_taft.json`` (default sweeps) were
captured before the structure-constant loops were folded into one sparse
kernel.
``classify_dualgroup.json`` and ``classify_group.json`` (default sweeps,
orders 1-12) were captured while the group-like audit still summed
instance residuals as polynomials and every polynomial operation rebuilt
its term dict; ``classify_taft.json`` (orders 2-8) and
``classify_nichols.json`` (orders 2-5) were captured while the group-like
support branch still enumerated every subset of G(H).
``identity_verdicts_n3_max3.txt`` holds ``str()`` of every verdict of
``identity_sweep_items(3, 3)``, one a line, captured while the generic q
was a separate Laurent-polynomial class, except its ``character_sum``
lines, regenerated when a character sum's sides became g-vectors such as
``(1/2)*g^0 + (1/2)*g^1``; a passing verdict prints its rendered side
twice, so it pins the rendering of every scalar kind of q.
``family_failures.json`` holds ``family_failure_reports()`` as JSON, captured
while the coaction verifier still built its tensors with a separate tensor
class.  ``export_taft_3.json``, ``export_nichols_2.json`` and
``export_dualgroup_4.json`` hold ``export`` output, captured while a Delta row
was stored coefficient-first as (c, j, k); they pin every exported
structure row and its order.  Any change to a verdict, a check count, a
family, a failure text or a rendered scalar shows up here as a byte
difference.
"""
import dataclasses
import json
from pathlib import Path
from unittest import mock

import pytest

from partial_hopf import families
from partial_hopf.cli import _identity_verdict, identity_sweep_items, main
from partial_hopf.families import (
    action_consequence_checks, nichols_action_families,
    nichols_coaction_families, special_value_checks, taft_action_families,
    taft_coaction_families, taft_parametric_action, verify_partial_action,
    verify_partial_coaction,
)

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "validate_taft_4": ["validate", "taft", "4"],
    "validate_nichols": ["validate", "nichols"],
    "validate_taft": ["validate", "taft"],
    "validate_group": ["validate", "group"],
    "validate_dualgroup": ["validate", "dualgroup"],
    "duality_taft_3": ["duality", "taft", "3"],
    "duality_nichols": ["duality", "nichols"],
    "classify_taft_5": ["classify", "taft", "5"],
    "classify_taft": ["classify", "taft"],
    "classify_nichols": ["classify", "nichols"],
    "classify_dualgroup": ["classify", "dualgroup"],
    "classify_group": ["classify", "group"],
    "actions_taft_paper_examples": ["actions", "taft", "--paper-examples"],
    "coactions_nichols": ["coactions", "nichols"],
    "coactions_taft": ["coactions", "taft"],
    "identities_n3_max3": ["identities", "--n", "3", "--max", "3",
                           "--jobs", "1"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_report_matches_golden(capsys, name):
    assert main(CASES[name] + ["--output", "json"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / (name + ".json")).read_bytes()


EXPORTS = {
    "export_taft_3": ["export", "taft", "3"],
    "export_nichols_2": ["export", "nichols", "2"],
    "export_dualgroup_4": ["export", "dualgroup", "4"],
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_matches_golden(capsys, name):
    assert main(EXPORTS[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / (name + ".json")).read_bytes()


def test_identity_verdicts_match_golden():
    got = [str(_identity_verdict(item)) for item in identity_sweep_items(3, 3)]
    want = (GOLDEN / "identity_verdicts_n3_max3.txt").read_text().splitlines()
    assert len(got) == 2390
    assert got == want


# -- faulted partial (co)action families --------------------------------------

def _perturbed(coords, i):
    """The fault of test_family_faults: a nonzero coordinate is doubled, a
    zero one becomes 1."""
    c = coords[i]
    return coords[:i] + (c + c if c else c + 1,) + coords[i + 1:]


def _report(rep) -> dict:
    return {"checks": rep.checks_run,
            "failures": [str(f) for f in rep.failures]}


def family_failure_reports() -> dict:
    """The reports of every single-coordinate fault of the action and
    coaction families of taft(3) and nichols(3): the plain and the symmetric
    check, and for an action its structural consequences.  The special
    values of taft(3) are checked on the intact parametric action and on
    each of its faults."""
    kinds = (
        ("action", (taft_action_families, nichols_action_families),
         verify_partial_action),
        ("coaction", (taft_coaction_families, nichols_coaction_families),
         verify_partial_coaction),
    )
    out = {}
    for kind, listings, verify in kinds:
        for listing in listings:
            for fam in listing(3):
                H = fam.algebra
                for i in range(H.dim):
                    y = _perturbed(fam.values, i)
                    rep, srep = verify(H, y)
                    entry = {"plain": _report(rep),
                             "symmetric": _report(srep)}
                    if kind == "action":
                        entry["consequences"] = _report(
                            action_consequence_checks(
                                dataclasses.replace(fam, values=y)))
                    out["%s %s %s[%d]" % (kind, H.name, fam.name, i)] = entry
    out["special_values taft(3)"] = _report(special_value_checks(3))
    fam = taft_parametric_action(3)
    for i in range(fam.algebra.dim):
        faulted = dataclasses.replace(fam, values=_perturbed(fam.values, i))
        with mock.patch.object(families, "taft_parametric_action",
                               lambda n: faulted):
            rep = special_value_checks(3)
        out["special_values taft(3) parametric[%d]" % i] = _report(rep)
    return out


def test_family_failure_reports_match_golden():
    got = json.dumps(family_failure_reports(), indent=2, sort_keys=True)
    want = (GOLDEN / "family_failures.json").read_bytes()
    assert (got + "\n").encode() == want
