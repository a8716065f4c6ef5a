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

Why an instance that holds at the generic q holds at every q.  Both sides
of every ``check_pascal`` and ``check_identity`` instance are built from q
by ring operations alone: sums, products, integer multiples and
nonnegative powers.  ``check_identity`` clears a negative q-power by
multiplying both sides with the opposite nonnegative one, and
``check_pascal`` takes ``q ** s`` only where the binomial beside it is
nonzero, so s >= 0.  Both sides are therefore the values of two
polynomials in Q[q] at the q given, and each q spec (a rational, or a
root of unity in Q(zeta_n)) is a ring homomorphism out of Q[q].  The
skips drop only terms that are zero at that q, so they do not change a
side's value: a ``check_identity`` sum skips a term at its first zero
binomial factor, before any product, and ``check_pascal`` adds its
q-power term only ``if second``/``if first``.  Equality at the generic q
is equality in Q[q], and a homomorphism maps it to equality at every q
spec.  So an instance that passes at the generic q and fails at some spec
shows a fault in that spec's arithmetic (a CycNumber: of order 1 for a
rational q, in Q(zeta_n) for a root), not in the identity; the identity
sweep checks every spec for that reason.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact_arith import ParamPoly


class ArityMismatch(ValueError):
    """An identity was given the wrong number of indices."""


class PreconditionViolated(ValueError):
    """Index tuple outside an identity's admissible range."""


def generic_q() -> ParamPoly:
    """The generic q itself, as a polynomial over Q."""
    return ParamPoly.var(1, "q")


def zero_like(q):
    return type(q).zero(q.order)


def one_like(q):
    return type(q).one(q.order)


@lru_cache(maxsize=None)
def q_label(q) -> str:
    """Short human-readable description of a q scalar for reports."""
    if isinstance(q, ParamPoly):
        return "generic"
    if q.is_rational():
        return "q=%s" % q.render()
    return "q=zeta_%d" % q.order


@lru_cache(maxsize=None)
def q_number(m: int, q):
    """(m)_q = 1 + q + ... + q^(m-1); (0)_q = 0."""
    if m < 0:
        raise PreconditionViolated("q-number of negative index %d" % m)
    acc = zero_like(q)
    for k in range(m):
        acc = acc + _q_pow(k, q)
    return acc


@lru_cache(maxsize=None)
def q_factorial(m: int, q):
    """(m)_q! = (m)_q (m-1)_q ... (1)_q; (0)_q! = 1."""
    if m < 0:
        raise PreconditionViolated("q-factorial of negative index %d" % m)
    return one_like(q) if m == 0 else q_factorial(m - 1, q) * q_number(m, q)


def q_binomial(m: int, l: int, q):
    """Gaussian binomial (m choose l)_q by the q-Pascal recurrence.

    Zero outside 0 <= l <= m.  At any q this equals the specialization of
    the generic Gaussian binomial polynomial, which is what every identity
    in this package is stated for.  The trivial cases return before the
    memo, so only 0 < l < m pays for hashing q.
    """
    if l < 0 or l > m:
        return zero_like(q)
    if l == 0 or l == m:
        return one_like(q)
    return _q_binomial(m, l, q)


@lru_cache(maxsize=None)
def _q_binomial(m: int, l: int, q):
    return q_binomial(m - 1, l - 1, q) + _q_pow(l, q) * q_binomial(m - 1, l, q)


@lru_cache(maxsize=None)
def _q_pow(e: int, q):
    """q ** e for e >= 0, computed once per (e, q)."""
    return q ** e


@dataclass(frozen=True)
class Verdict:
    """Outcome of one identity instance: exact equality or not."""

    name: str
    indices: tuple
    q_desc: str
    ok: bool
    lhs: str
    rhs: str

    def __str__(self):
        mark = "ok" if self.ok else "FAIL"
        return "%s%s @ %s: %s  [%s == %s]" % (
            self.name, self.indices, self.q_desc, mark, self.lhs, self.rhs)


def _verdict(name, indices, q, lhs, rhs) -> Verdict:
    # equal canonical forms render identically, so a pass renders one side
    ok = lhs == rhs
    text = lhs.render()
    return Verdict(name, tuple(indices), q_label(q), ok, text,
                   text if ok else rhs.render())


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
    # the binomial multiplied by the q-power is nonzero only inside its
    # range, where that power is nonnegative
    lhs = q_binomial(i, s, q)
    if variant == "a":
        second = q_binomial(i - 1, s, q)
        rhs = q_binomial(i - 1, s - 1, q)
        if second:
            rhs = rhs + _q_pow(s, q) * second
    else:
        first = q_binomial(i - 1, s - 1, q)
        rhs = q_binomial(i - 1, s, q)
        if first:
            rhs = rhs + _q_pow(i - s, q) * first
    return _verdict("pascal_" + variant, (i, s), q, lhs, rhs)


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
    """
    indices = tuple(indices)
    arity = IDENTITY_ARITY.get(name)
    if arity is None:
        raise PreconditionViolated("unknown identity %r" % name)
    if len(indices) != arity:
        raise ArityMismatch(
            "%s expects %d indices, got %d" % (name, arity, len(indices)))
    if any(ix < 0 for ix in indices):
        raise PreconditionViolated("indices must be nonnegative: %r" % (indices,))

    if name == "alternating_vandermonde":
        i, t, k = indices
        acc = zero_like(q)
        for s in range(i + 1):
            first = q_binomial(i, s, q)
            second = first and q_binomial(i + t - s, i + k, q)
            if not second:
                continue
            term = first * second
            term = term * _q_pow(s * k + s * (s + 1) // 2, q)
            acc = acc - term if s % 2 else acc + term
        return _verdict(name, indices, q, acc, q_binomial(t, k, q))

    if name == "trinomial_revision":
        j, i, l = indices
        if not (l <= i <= j):
            raise PreconditionViolated(
                "trinomial_revision needs l <= i <= j, got %r" % (indices,))
        lhs = q_binomial(j, l, q) * q_binomial(j - l, i - l, q)
        rhs = q_binomial(j, i, q) * q_binomial(i, l, q)
        return _verdict(name, indices, q, lhs, rhs)

    if name == "four_index_inversion":
        i, j, t, s = indices
        acc = zero_like(q)
        for l in range(j + 1):
            # (l i) first: it is zero whenever l < i
            third = q_binomial(l, i, q)
            first = third and q_binomial(j, l, q)
            second = first and q_binomial(j + t - l, i + s - l, q)
            if not second:
                continue
            term = first * second * third
            d = i - l
            term = term * _q_pow(d * (d + 1) // 2, q)
            acc = acc - term if d % 2 else acc + term
        rhs = q_binomial(j, i, q) * q_binomial(t, s, q)
        shift = s * (i - j)
        if shift >= 0:
            lhs = _q_pow(shift, q) * acc
        else:
            lhs = acc
            rhs = _q_pow(-shift, q) * rhs
        return _verdict(name, indices, q, lhs, rhs)

    # binomial_inversion
    j, t, s = indices
    acc = zero_like(q)
    for l in range(j + 1):
        first = q_binomial(j, l, q)
        second = first and q_binomial(j + t - l, s - l, q)
        if not second:
            continue
        term = first * second
        term = term * _q_pow(l * (l - 1) // 2, q)
        acc = acc - term if l % 2 else acc + term
    rhs = _q_pow(s * j, q) * q_binomial(t, s, q)
    return _verdict(name, indices, q, acc, rhs)
