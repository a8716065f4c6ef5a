"""Scalars built from Fraction coordinates, used by the tests only.

The package builds its scalars from integers: ``CycNumber.from_rational``
takes p and q, and every other value comes out of the arithmetic.  The
tests keep ``fractions.Fraction`` as their reference arithmetic, which is
independent of the engine's integer fields.  These helpers turn Fraction
(or int) coordinates into the engine's scalars, and read a rational value
back as a Fraction.  No command runs them, so they live here rather than in
the package.
"""
from fractions import Fraction
from math import lcm

from partial_hopf.exact_arith import (
    CycNumber, ParamPoly, _cyc, _poly, euler_phi,
)


def cyc(order: int, coords) -> CycNumber:
    """The CycNumber with the phi(order) rational coordinates ``coords``;
    coords[k] is the coefficient of zeta^k."""
    fracs = [Fraction(c) for c in coords]
    if len(fracs) != euler_phi(order):
        raise ValueError("Q(zeta_%d) takes %d coordinates, got %d"
                         % (order, euler_phi(order), len(fracs)))
    den = lcm(*(f.denominator for f in fracs))
    return _cyc(order, tuple(f.numerator * (den // f.denominator)
                             for f in fracs), den)


def rat(order: int, value) -> CycNumber:
    """The rational ``value`` (an int or a Fraction) in Q(zeta_order)."""
    return cyc(order, (value,) + (0,) * (euler_phi(order) - 1))


def const(order: int, value) -> ParamPoly:
    """The constant polynomial of the rational ``value``."""
    return ParamPoly.const(order, rat(order, value))


def poly(order: int, terms: dict) -> ParamPoly:
    """The ParamPoly with ``terms`` (monomial -> CycNumber), zero
    coefficients dropped."""
    return _poly(order, {m: c for m, c in terms.items() if c})


def fraction(x: CycNumber) -> Fraction:
    """A rational CycNumber as the Fraction it equals."""
    if not x.is_rational():
        raise ValueError("not a rational value: %r" % (x,))
    return x.coords[0]
