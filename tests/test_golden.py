"""Byte-exact JSON reports of a fast subset of CLI invocations.

The files under ``golden/`` were captured from the implementation that kept
every CycNumber coordinate as a Fraction, before the integer-coordinate
core replaced it; ``validate_nichols.json`` (the default sweep, orders 2-6)
was captured from the validator that checked one basis tuple at a time,
before it walked the nonzero structure constants; ``duality_nichols.json``
and ``coactions_taft.json`` (default sweeps) were captured before the
structure-constant loops were folded into one sparse kernel.
``identity_verdicts_n3_max3.txt`` holds ``str()`` of every verdict of
``identity_sweep_items(3, 3)``, one a line, captured while the generic q
was a separate Laurent-polynomial class; a passing verdict prints both
rendered sides, so it pins the rendering of every scalar kind of q.  Any
change to a verdict, a check count, a family or a rendered scalar shows up
here as a byte difference.
"""
from pathlib import Path

import pytest

from partial_hopf.cli import _identity_verdict, identity_sweep_items, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "validate_taft_4": ["validate", "taft", "4"],
    "validate_nichols": ["validate", "nichols"],
    "duality_taft_3": ["duality", "taft", "3"],
    "duality_nichols": ["duality", "nichols"],
    "classify_taft_5": ["classify", "taft", "5"],
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


def test_identity_verdicts_match_golden():
    got = [str(_identity_verdict(item)) for item in identity_sweep_items(3, 3)]
    want = (GOLDEN / "identity_verdicts_n3_max3.txt").read_text().splitlines()
    assert len(got) == 2390
    assert got == want
