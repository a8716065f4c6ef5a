"""Seeded inputs for the ``import`` operations of the benchmark.

``scramble(doc, seed)`` takes a builder's exported JSON document and returns
an isomorphic algebra in a new basis, plus a negative control that no
correct verifier accepts:

* a seeded permutation of the basis;
* each basis vector that is neither group-like nor the group-like index of
  a skew-primitive is rescaled by a seeded nonzero rational p/q with
  |p|, q <= 7 (group-likes must keep coefficient 1 to stay group-like);
* every rescaled coefficient is written as the expression ``(c)*(r)``, so
  no cyclotomic arithmetic happens here and the importer's expression
  parser multiplies real products;
* the negative control scales the coefficient of one product ``1 . e_k``
  (``e_k`` not the unit) by 2, which breaks the unit law.

With ``f_p = r_i e_i`` for ``p = perm[i]`` the structure constants become:
product ``c r_i r_j / r_k``, coproduct ``c r_i / (r_j r_k)``, unit
``u_i / r_i``, counit ``eps_i r_i`` and antipode ``s_ij r_i / r_j``.
"""
from __future__ import annotations

import random
from fractions import Fraction


def _times(coeff: str, factor: Fraction) -> str:
    if coeff == "0" or factor == 1:
        return coeff
    return "(%s)*(%s)" % (coeff, factor)


def scramble(doc: dict, seed: int) -> tuple:
    """Return (isomorphic document, perturbed document) for ``seed``."""
    rng = random.Random(seed)
    dim = doc["dim"]
    perm = list(range(dim))
    rng.shuffle(perm)
    fixed = set(doc["grouplikes"])
    for _x, g, h in doc["skew_primitives"]:
        fixed.update((g, h))
    nonzero = [v for v in range(-7, 8) if v]
    r = [Fraction(1) if i in fixed
         else Fraction(rng.choice(nonzero), rng.randint(1, 7))
         for i in range(dim)]

    def dense(values, factor):
        out = [None] * dim
        for i, c in enumerate(values):
            out[perm[i]] = _times(c, factor(i))
        return out

    mult = sorted([perm[i], perm[j], perm[k], c, r[i] * r[j] / r[k]]
                  for i, j, k, c in doc["mult"])
    comult = sorted([perm[i], perm[j], perm[k],
                     _times(c, r[i] / (r[j] * r[k]))]
                    for i, j, k, c in doc["comult"])
    antipode = [None] * dim
    for i, row in enumerate(doc["antipode"]):
        antipode[perm[i]] = dense(row, lambda j, i=i: r[i] / r[j])
    basis = [None] * dim
    for i, label in enumerate(doc["basis"]):
        basis[perm[i]] = label
    out = {
        "dim": dim,
        "order": doc["order"],
        "basis": basis,
        "unit": dense(doc["unit"], lambda i: 1 / r[i]),
        "counit": dense(doc["counit"], lambda i: r[i]),
        "antipode": antipode,
        "comult": comult,
        "grouplikes": sorted(perm[g] for g in doc["grouplikes"]),
        "skew_primitives": sorted([perm[x], perm[g], perm[h]]
                                  for x, g, h in doc["skew_primitives"]),
    }
    if "grouplike_vectors" in doc:
        out["grouplike_vectors"] = [dense(v, lambda i: 1 / r[i])
                                    for v in doc["grouplike_vectors"]]
    if "basis_degrees" in doc:
        degrees = [None] * dim
        for i, d in enumerate(doc["basis_degrees"]):
            degrees[perm[i]] = d
        out["basis_degrees"] = degrees
    if "name" in doc:
        out["name"] = doc["name"]

    # The unit is a basis vector e_u with coefficient 1 in every algebra the
    # benchmark imports; its products u . k -> k are the unit-law rows.
    unit = [i for i, c in enumerate(doc["unit"]) if c != "0"]
    if len(unit) != 1 or doc["unit"][unit[0]] != "1":
        raise ValueError("the unit of %s is not a basis vector"
                         % doc.get("name"))
    u = perm[unit[0]]
    unit_rows = [n for n, (i, j, k, _c, _f) in enumerate(mult)
                 if i == u and j == k and j != u]
    bad_row = rng.choice(unit_rows)

    good, bad = dict(out), dict(out)
    good["mult"] = [[i, j, k, _times(c, f)] for i, j, k, c, f in mult]
    bad["mult"] = [[i, j, k, _times(c, f * 2 if n == bad_row else f)]
                   for n, (i, j, k, c, f) in enumerate(mult)]
    return good, bad
