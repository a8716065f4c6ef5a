"""The identity checks against a plain reference, instance by instance.

``check_pascal`` and ``check_identity`` read binomials from the rows of
the q table, run each sum only over the indices where its binomials are
in range, and skip zero terms and products by q^0.  The reference below
states each identity as written in the ``check_identity`` docstring:
every binomial is ``q_binomial``, every power is ``q ** e``, and every
sum runs over its full range, with no skip.  For every instance of the
sweep at ``--max 5`` under every q spec of ``--n 6``, the verdict must
agree with the reference on ``ok`` and on both rendered sides.
"""
import pytest

from partial_hopf import cli, qcomb
from partial_hopf.qcomb import q_binomial


def _pascal(variant, i, s, q):
    zero = q - q
    lhs = q_binomial(i, s, q)
    # beside a negative power of q the binomial is out of range, so zero
    if variant == "a":
        rhs = q_binomial(i - 1, s - 1, q) + (
            q ** s * q_binomial(i - 1, s, q) if s >= 0 else zero)
    else:
        rhs = q_binomial(i - 1, s, q) + (
            q ** (i - s) * q_binomial(i - 1, s - 1, q) if s <= i else zero)
    return lhs, rhs


def _sum(q, terms):
    acc = q - q
    for sign, term in terms:
        acc = acc - term if sign % 2 else acc + term
    return acc


def _identity(name, indices, q):
    def B(m, l):
        return q_binomial(m, l, q)

    if name == "alternating_vandermonde":
        i, t, k = indices
        lhs = _sum(q, ((s, B(i, s) * B(i + t - s, i + k)
                        * q ** (s * k + s * (s + 1) // 2))
                       for s in range(i + 1)))
        return lhs, B(t, k)
    if name == "trinomial_revision":
        j, i, l = indices
        return B(j, l) * B(j - l, i - l), B(j, i) * B(i, l)
    if name == "four_index_inversion":
        i, j, t, s = indices
        total = _sum(q, ((i - l, B(j, l) * B(j + t - l, i + s - l) * B(l, i)
                          * q ** ((i - l) * (i - l + 1) // 2))
                         for l in range(j + 1)))
        rhs = B(j, i) * B(t, s)
        shift = s * (i - j)
        if shift >= 0:
            return q ** shift * total, rhs
        return total, q ** -shift * rhs
    assert name == "binomial_inversion"
    j, t, s = indices
    lhs = _sum(q, ((l, B(j, l) * B(j + t - l, s - l) * q ** (l * (l - 1) // 2))
                   for l in range(j + 1)))
    return lhs, q ** (s * j) * B(t, s)


def reference(check, args, q):
    """The two sides of one instance, by the reference."""
    if check is qcomb.check_pascal:
        return _pascal(*args, q)
    return _identity(*args, q)


@pytest.mark.parametrize("q", cli._sweep_qs(6), ids=qcomb.q_label)
def test_every_check_equals_the_reference(q):
    instances = cli._q_instances(5)
    assert len(instances) == 1338
    for check, args in instances:
        v = check(*args, q)
        lhs, rhs = reference(check, args, q)
        assert (v.ok, v.lhs, v.rhs) == (lhs == rhs, lhs.render(),
                                        rhs.render()), args
