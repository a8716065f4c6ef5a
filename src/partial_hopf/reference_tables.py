"""Expected values for the smallest parametric families, tabulated
independently, with the diff used by the command-line reference check.

Each table maps a basis label to an expression string in the primitive
root ``q`` and the family parameters; labels that do not appear are
expected to be zero.  The diff parses the expressions back into exact
polynomials and compares coefficient by coefficient, so an empty diff is an
exact symbolic match, not a numerical one.
"""
from __future__ import annotations

from .expr import parse_poly
from .families import (
    nichols_parametric_action, nichols_parametric_coaction,
    taft_parametric_action, taft_parametric_coaction,
)

TAFT_ACTIONS = {
    2: {"1": "1", "x": "a", "gx": "a"},
    3: {"1": "1", "x": "a", "g^2x": "-q*a",
        "x^2": "a^2", "gx^2": "a^2", "g^2x^2": "a^2"},
    4: {"1": "1", "x": "a", "g^3x": "-q*a",
        "x^2": "a^2", "g^2x^2": "-q*a^2", "g^3x^2": "(1 - q)*a^2",
        "x^3": "a^3", "gx^3": "a^3", "g^2x^3": "a^3", "g^3x^3": "a^3"},
}

TAFT_COACTIONS = {
    2: {"1": "1/2", "g": "1/2", "gx": "-a"},
    3: {"1": "1/3", "g": "1/3", "g^2": "1/3",
        "gx": "(q - 1)*a/3", "g^2x": "(q^2 - 1)*a/3", "gx^2": "-q*a^2"},
    4: {"1": "1/4", "g": "1/4", "g^2": "1/4", "g^3": "1/4",
        "gx": "q*(1 + q)*a/4", "g^2x": "-a/2", "g^3x": "-(1 + q)*a/4",
        "gx^2": "-q*a^2/2", "g^2x^2": "a^2/2", "gx^3": "(1 + q)*a^3/2"},
}

NICHOLS_ACTIONS = {
    2: {"1": "1", "x1": "a1", "gx1": "a1"},
    3: {"1": "1", "x1": "a1", "gx1": "a1", "x2": "a2", "gx2": "a2"},
    4: {"1": "1", "x1": "a1", "gx1": "a1", "x2": "a2", "gx2": "a2",
        "x3": "a3", "gx3": "a3"},
}

NICHOLS_COACTIONS = {
    2: {"1": "1/2", "g": "1/2", "gx1": "-a1"},
    3: {"1": "1/2", "g": "1/2", "gx1": "-a1", "gx2": "-a2"},
    4: {"1": "1/2", "g": "1/2", "gx1": "-a1", "gx2": "-a2", "gx3": "-a3"},
}


def diff_table(fam, table) -> list:
    """The mismatches between the values of ``fam`` and ``table``."""
    out = []
    H = fam.algebra
    allowed = set(fam.params)
    for label, got in zip(H.basis, fam.values):
        want = parse_poly(table.get(label, "0"), H.order,
                          root_symbol="q", params=allowed)
        if got != want:
            out.append("%s: computed %s, expected %s"
                       % (label, got.render("q"), want.render("q")))
    stray = set(table) - set(H.basis)
    for label in sorted(stray):
        out.append("%s: table entry does not name a basis element" % label)
    return out


def reference_checks() -> list:
    """All embedded tables diffed against the constructed families.

    Returns (name, diffs) pairs; every diffs list is empty when the
    construction reproduces the tabulated values exactly.
    """
    out = []
    for what, tables, build in (
            ("taft(%d) parametric action", TAFT_ACTIONS,
             taft_parametric_action),
            ("taft(%d) parametric coaction", TAFT_COACTIONS,
             taft_parametric_coaction),
            ("nichols(%d) parametric action", NICHOLS_ACTIONS,
             nichols_parametric_action),
            ("nichols(%d) parametric coaction", NICHOLS_COACTIONS,
             nichols_parametric_coaction)):
        for n, table in sorted(tables.items()):
            out.append((what % n, diff_table(build(n), table)))
    return out
