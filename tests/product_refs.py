"""Products in H (x) H and generator extensions, used by the tests only.

The package multiplies in H alone (``hopf_core.vec_mul``); every built-in
structure map is stated in closed form.  The tests keep the constructions
those forms replaced: ``ref_tensor_mul`` multiplies in H (x) H, and
``extend`` multiplies generator images in order, so a table row can be
checked against the product that once built it.  No command runs them, so
they live here rather than in the package.
"""


def ref_tensor_mul(mult, t1, t2):
    """The product t1 t2 in H (x) H: (a (x) b)(c (x) d) = ac (x) bd, the
    loop of the deleted ``hopf_core.tensor_mul`` and, before it, of
    ``TensorSquare.__mul__``."""
    out = {}
    for (a1, b1), c1 in t1.items():
        for (a2, b2), c2 in t2.items():
            ra = mult.get((a1, a2))
            if not ra:
                continue
            rb = mult.get((b1, b2))
            if not rb:
                continue
            c12 = c1 * c2
            for a, ca in ra:
                for b, cb in rb:
                    key = (a, b)
                    add = c12 * (ca * cb)
                    prev = out.get(key)
                    out[key] = add if prev is None else prev + add
    return {k: v for k, v in out.items() if not v.is_zero()}


def extend(mul, one, factors):
    """The product one f_1 f_2 ... of ``factors`` through ``mul``, as a
    sorted structure row."""
    acc = one
    for f in factors:
        acc = mul(acc, f)
    return tuple(sorted(acc.items()))
