"""q-combinatorics over exact scalars.

A q is one of two scalar types, and the same code path serves both:

  * a CycNumber: a root of unity in Q(zeta_n), or an arbitrary rational
    (order 1);
  * the generic q: the variable q of a ParamPoly of order 1, so identities
    checked "at generic q" are genuine polynomial identities over Q.

Only nonnegative powers of q are ever taken, so the generic q needs no
inverse.  q-binomials are computed by the q-Pascal recurrence from the
single base case (0 choose 0) = 1, with value 0 outside 0 <= l <= m.  The
recurrence is the definition; agreement with the factorial quotient
(wherever the relevant q-factorial is nonzero) and the vanishing of
(n choose k) at a primitive n-th root for 0 < k < n are verified
properties, not assumptions.

Every value at a q is read from the one table of that q (``_QTable``),
found by the type and value of q, and once per run of calls at the same q
object: its powers of q, its rows of q-binomials, its q-numbers and
q-factorials, each built once from the one before.  A check grows the
table once, through the largest row and power its indices reach, and then
reads (m choose l) as ``rows[m][l]`` and q^e as ``powers[e]``; the range
0 <= l <= m of each binomial is written into the bounds of its sum, and a
binomial outside it is the table's zero.  The public functions below read
the same table, so the recurrence has one home.

Why an instance that holds at the generic q holds at every q.  Both sides
of every ``check_pascal`` and ``check_identity`` instance are built from q
by ring operations alone: sums, products, integer multiples and
nonnegative powers.  ``check_identity`` clears a negative q-power by
multiplying both sides with the opposite nonnegative one, and
``check_pascal`` takes ``q ** s`` only where the binomial beside it is
nonzero, so s >= 0.  Both sides are therefore the values of two
polynomials in Q[q] at the q given, and each q spec (a rational, or a
root of unity in Q(zeta_n)) is a ring homomorphism out of Q[q].  The
skips drop only terms that are zero at that q and products by 1, so they
do not change a side's value: a sum runs only over the indices where each
binomial factor is inside its range, and skips a term at its first zero
binomial factor, before any product; a product of two sides, or of a
q-power and a side, with a zero factor is not made and is zero; a q-power
q^0 = 1 is not multiplied in; ``check_pascal`` adds its q-power term only
``if second``/``if first``; and the recurrence adds q^l (m-1 l) only
where (m-1 l) is nonzero.
Equality at the generic q is equality in Q[q], and a homomorphism maps it
to equality at every q spec.  So an instance that passes at the generic q
and fails at some spec shows a fault in that spec's arithmetic (a
CycNumber: of order 1 for a rational q, in Q(zeta_n) for a root), not in
the identity; the identity sweep checks every spec for that reason.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .exact_arith import ParamPoly


class ArityMismatch(ValueError):
    """An identity was given the wrong number of indices."""


class PreconditionViolated(ValueError):
    """Index tuple outside an identity's admissible range."""


def generic_q() -> ParamPoly:
    """The generic q itself, as a polynomial over Q."""
    return ParamPoly.var(1, "q")


def _label(q) -> str:
    if isinstance(q, ParamPoly):
        if not q.is_constant():
            return "generic"
        q = q.constant_value()
    if q.is_rational():
        return "q=%s" % q.render()
    return "q=zeta_%d" % q.order


def _pascal_row(prev: list, powers: list) -> list:
    """Row m of the Gaussian binomials from row m - 1 by the q-Pascal
    recurrence (m l) = (m-1 l-1) + q^l (m-1 l); ``powers`` holds q^l for
    every l < m.  A zero (m-1 l) costs no product."""
    row = [prev[0]]
    for l in range(1, len(prev)):
        b = prev[l]
        row.append(prev[l - 1] + powers[l] * b if b else prev[l - 1])
    row.append(prev[-1])
    return row


class _QTable:
    """What the package reads of one q, each value built once: ``zero``,
    ``one`` and ``label``; ``powers[e]`` = q^e, each from the one before by
    one product; ``rows[m][l]`` = (m choose l) for 0 <= l <= m, each row
    from the one before by ``_pascal_row``; ``numbers[m]`` = (m)_q and
    ``factorials[m]`` = (m)_q!, each from the one before.  ``grow`` extends
    the powers and rows at once; ``power``, ``binomial``, ``number`` and
    ``factorial`` grow their list as far as the index asked for and read
    it there."""

    __slots__ = ("q", "zero", "one", "label", "powers", "rows", "numbers",
                 "factorials")

    def __init__(self, q):
        self.q = q
        self.zero = type(q).zero(q.order)
        self.one = type(q).one(q.order)
        self.label = _label(q)
        self.powers = [self.one, q]
        self.rows = [[self.one]]
        self.numbers = [self.zero]
        self.factorials = [self.one]

    def grow(self, m: int, e: int = 0):
        """Extend ``rows`` through row m and ``powers`` through q^e (and
        through q^(m-1), which row m is built with)."""
        powers = self.powers
        while len(powers) <= max(e, m - 1):
            powers.append(powers[-1] * self.q)
        rows = self.rows
        while len(rows) <= m:
            rows.append(_pascal_row(rows[-1], powers))

    def power(self, e: int):
        """q ** e for e >= 0."""
        self.grow(0, e)
        return self.powers[e]

    def binomial(self, m: int, l: int):
        """(m choose l), zero outside 0 <= l <= m."""
        if not 0 <= l <= m:
            return self.zero
        self.grow(m)
        return self.rows[m][l]

    def number(self, m: int):
        numbers = self.numbers
        while len(numbers) <= m:
            numbers.append(numbers[-1] + self.power(len(numbers) - 1))
        return numbers[m]

    def factorial(self, m: int):
        facts = self.factorials
        while len(facts) <= m:
            facts.append(facts[-1] * self.number(len(facts)))
        return facts[m]


@lru_cache(maxsize=None, typed=True)
def _lookup(q) -> _QTable:
    return _QTable(q)


# the q object last looked up, and its table
_last = [None, None]


def _table(q) -> _QTable:
    """The one table of q.  Looked up on the type of q as well as its value
    (a constant ParamPoly equals, and hashes like, the CycNumber it holds),
    and only when q is not the object of the last lookup, so a run of
    calls at one q object hashes it once.  ``_table.cache_clear()`` drops
    every table and the last lookup; ``_table.cache_info()`` counts the
    lookups."""
    last = _last
    if last[0] is q:
        return last[1]
    qt = _lookup(q)
    last[0], last[1] = q, qt
    return qt


def _cache_clear():
    _last[0] = _last[1] = None
    _lookup.cache_clear()


_table.cache_clear = _cache_clear
_table.cache_info = _lookup.cache_info


def q_label(q) -> str:
    """Short human-readable description of a q scalar for reports: the
    value of a rational, the order of a root of unity, or "generic" for a
    polynomial in q.  A constant ParamPoly is labelled by its value."""
    return _table(q).label


def q_number(m: int, q):
    """(m)_q = 1 + q + ... + q^(m-1); (0)_q = 0."""
    if m < 0:
        raise PreconditionViolated("q-number of negative index %d" % m)
    return _table(q).number(m)


def q_factorial(m: int, q):
    """(m)_q! = (m)_q (m-1)_q ... (1)_q; (0)_q! = 1."""
    if m < 0:
        raise PreconditionViolated("q-factorial of negative index %d" % m)
    return _table(q).factorial(m)


def q_binomial(m: int, l: int, q):
    """Gaussian binomial (m choose l)_q by the q-Pascal recurrence.

    Zero outside 0 <= l <= m.  At any q this equals the specialization of
    the generic Gaussian binomial polynomial, which is what every identity
    in this package is stated for.  The value is read from the table of q,
    whose rows hold every binomial up to m once one of them is asked for.
    """
    return _table(q).binomial(m, l)


class Verdict(namedtuple("Verdict", "name indices q_desc ok left right")):
    """Outcome of one identity instance: exact equality or not.

    ``left`` and ``right`` are the two sides as values, each with a
    ``render()``; ``lhs``, ``rhs`` and ``str(v)`` render them when read,
    so a verdict that is only tallied renders nothing.  Equal sides have
    equal canonical forms and render identically, so a passing verdict
    prints one text twice."""

    __slots__ = ()

    @property
    def lhs(self) -> str:
        return self.left.render()

    @property
    def rhs(self) -> str:
        return self.right.render()

    def __str__(self):
        lhs = self.lhs
        return "%s%s @ %s: %s  [%s == %s]" % (
            self.name, self.indices, self.q_desc, "ok" if self.ok else "FAIL",
            lhs, lhs if self.ok else self.rhs)


PASCAL_VARIANTS = ("a", "b")


def check_pascal(variant: str, i: int, s: int, q) -> Verdict:
    """The two q-Pascal recurrences, valid for every integer s.

    variant "a":  (i s) = (i-1 s-1) + q^s   * (i-1 s)
    variant "b":  (i s) = (i-1 s)   + q^(i-s) * (i-1 s-1)
    """
    if variant not in PASCAL_VARIANTS:
        raise PreconditionViolated("unknown Pascal variant %r" % variant)
    if i < 1:
        raise PreconditionViolated("Pascal check needs i >= 1")
    qt = _table(q)
    qt.grow(i)
    zero, powers = qt.zero, qt.powers
    row, prev = qt.rows[i], qt.rows[i - 1]
    # the binomial multiplied by the q-power is nonzero only inside its
    # range, where that power is nonnegative
    lhs = row[s] if 0 <= s <= i else zero
    if variant == "a":
        second = prev[s] if 0 <= s < i else zero
        rhs = prev[s - 1] if 0 < s <= i else zero
        if second:
            rhs = rhs + _power_times(powers, s, second)
    else:
        first = prev[s - 1] if 0 < s <= i else zero
        rhs = prev[s] if 0 <= s < i else zero
        if first:
            rhs = rhs + _power_times(powers, i - s, first)
    return Verdict("pascal_" + variant, (i, s), qt.label, lhs == rhs, lhs,
                   rhs)


IDENTITY_ARITY = {
    "alternating_vandermonde": 3,
    "trinomial_revision": 3,
    "four_index_inversion": 4,
    "binomial_inversion": 3,
}


def check_identity(name: str, indices, q) -> Verdict:
    """Check one instance of a named q-binomial identity, exactly.

    Index conventions:
      alternating_vandermonde (i, t, k):
          sum_{s=0}^{i} (i s)(i+t-s, i+k)(-1)^s q^(sk+s(s+1)/2)  ==  (t k)
      trinomial_revision (j, i, l), requires 0 <= l <= i <= j:
          (j l)(j-l, i-l)  ==  (j i)(i l)
      four_index_inversion (i, j, t, s):
          q^(s(i-j)) * sum_{l=0}^{j} (j l)(j+t-l, i+s-l)(l i)
                        (-1)^(i-l) q^((i-l)(i-l+1)/2)  ==  (j i)(t s)
      binomial_inversion (j, t, s):
          q^(-sj) * sum_{l=0}^{j} (j l)(j+t-l, s-l)(-1)^l q^(l(l-1)/2)
                                                           ==  (t s)

    Negative q-powers are cleared by multiplying both sides with the same
    nonnegative q-power, so generic-q checks compare plain polynomials.
    Each sum runs only over the indices where every binomial factor is
    inside its range.  A product with a zero factor is not made: its
    value, zero, is taken.  A product by q^0 = 1 is not made either.
    """
    indices = tuple(indices)
    arity = IDENTITY_ARITY.get(name)
    if arity is None:
        raise PreconditionViolated("unknown identity %r" % name)
    if len(indices) != arity:
        raise ArityMismatch(
            "%s expects %d indices, got %d" % (name, arity, len(indices)))
    if min(indices) < 0:
        raise PreconditionViolated("indices must be nonnegative: %r" % (indices,))

    qt = _table(q)
    rows, powers, zero = qt.rows, qt.powers, qt.zero

    if name == "alternating_vandermonde":
        i, t, k = indices
        # (i+t-s, i+k) is zero for s > t - k
        top = min(i, t - k)
        last = max(top, 0)
        qt.grow(i + t, last * k + last * (last + 1) // 2)
        row = rows[i]
        acc = zero
        for s in range(top + 1):
            first = row[s]
            second = first and rows[i + t - s][i + k]
            if not second:
                continue
            term = first * second
            e = s * k + s * (s + 1) // 2
            if e:
                term = term * powers[e]
            acc = acc - term if s % 2 else acc + term
        lhs, rhs = acc, rows[t][k] if k <= t else zero

    elif name == "trinomial_revision":
        j, i, l = indices
        if not (l <= i <= j):
            raise PreconditionViolated(
                "trinomial_revision needs l <= i <= j, got %r" % (indices,))
        qt.grow(j)
        lhs = _product(rows[j][l], rows[j - l][i - l], zero)
        rhs = _product(rows[j][i], rows[i][l], zero)

    elif name == "four_index_inversion":
        i, j, t, s = indices
        # (l i) is zero for l < i, (j l) for l > j, and (j+t-l, i+s-l) for
        # l > i + s, or for every l when i + s > j + t
        top = min(j, i + s) if i + s <= j + t else i - 1
        shift = s * (i - j)
        last = max(top - i, 0)
        qt.grow(j + t, max(last * (last - 1) // 2, abs(shift)))
        acc = zero
        for l in range(i, top + 1):
            third = rows[l][i]
            first = third and rows[j][l]
            second = first and rows[j + t - l][i + s - l]
            if not second:
                continue
            term = first * second * third
            d = l - i
            e = d * (d - 1) // 2
            if e:
                term = term * powers[e]
            acc = acc - term if d % 2 else acc + term
        rhs = (_product(rows[j][i], rows[t][s], zero) if i <= j and s <= t
               else zero)
        if shift >= 0:
            lhs = _power_times(powers, shift, acc)
        else:
            lhs, rhs = acc, _power_times(powers, -shift, rhs)

    else:  # binomial_inversion
        j, t, s = indices
        # (j+t-l, s-l) is zero for l > s, or for every l when s > j + t
        top = min(j, s) if s <= j + t else -1
        qt.grow(j + t, max(top * (top - 1) // 2, s * j))
        row = rows[j]
        acc = zero
        for l in range(top + 1):
            first = row[l]
            second = first and rows[j + t - l][s - l]
            if not second:
                continue
            term = first * second
            e = l * (l - 1) // 2
            if e:
                term = term * powers[e]
            acc = acc - term if l % 2 else acc + term
        lhs = acc
        rhs = _power_times(powers, s * j, rows[t][s] if s <= t else zero)
    return Verdict(name, indices, qt.label, lhs == rhs, lhs, rhs)


def _product(a, b, zero):
    """a * b, or ``zero`` without a product when a factor is zero."""
    return a * b if a and b else zero


def _power_times(powers, e: int, x):
    """q^e * x, with no product when e is 0 or x is zero."""
    return powers[e] * x if e and x else x
