"""Exact scalar arithmetic for the Hopf-algebra engine.

Three layers, all exact:

  * ``Rational``  -- arbitrary-precision rationals (``fractions.Fraction``).
  * ``CycNumber`` -- elements of Q(zeta_n), stored in canonical coordinates
    modulo the n-th cyclotomic polynomial: phi(n) integer numerators over
    one positive common denominator, reduced so that equal values have
    equal fields.  Sums, products, inverses and the reduction modulo Phi_n
    run on plain Python integers.  The powers of zeta_n come from one
    table per order, which the product's fold and the conjugates read.
  * ``ParamPoly`` -- sparse multivariate polynomials over CycNumber carrying
    free symbolic parameters, so that "for all alpha" claims are discharged
    as exact polynomial identities rather than by sampling.

No floating point appears anywhere in this package, and it needs nothing
beyond the standard library.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

Rational = Fraction

_RAT_TYPES = (int, Fraction)


class OrderMismatch(ValueError):
    """Combining scalars defined over different cyclotomic orders."""


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending, monic) of the n-th cyclotomic polynomial.

    Computed by exact division of x^n - 1 by the product of the cyclotomic
    polynomials of all proper divisors of n; they are monic, so the division
    stays in the integers.
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d == n:
            continue
        num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
        assert not any(rem), "cyclotomic division must be exact"
    return tuple(num)


@lru_cache(maxsize=None)
def _powers(n: int) -> tuple:
    """zeta_n^0, ..., zeta_n^(n-1) as canonical CycNumbers, each row from
    the one before by a shift and one fold of the monic Phi_n."""
    phi = euler_phi(n)
    low = [(k, c) for k, c in enumerate(cyclotomic_polynomial(n)[:phi]) if c]
    row = [1] + [0] * (phi - 1)
    rows = []
    for _ in range(n):
        rows.append(_cyc(n, tuple(row), 1))
        top = row[-1]
        row = [0] + row[:-1]
        for k, c in low:
            row[k] -= top * c
    return tuple(rows)


@lru_cache(maxsize=None)
def _fold_table(n: int) -> tuple:
    """Sparse rows (k, c) of x^m mod Phi_n for phi <= m <= 2*phi - 2: the
    powers a product of two canonical coordinate vectors can reach, read
    from ``_powers`` (x^n = 1 mod Phi_n, so m wraps at n)."""
    phi = euler_phi(n)
    powers = _powers(n)
    return tuple(tuple((k, c) for k, c in enumerate(powers[m % n].num) if c)
                 for m in range(phi, 2 * phi - 1))


_new = object.__new__


def _cyc(order: int, num: tuple, den: int) -> "CycNumber":
    """The CycNumber num/den (integer numerators, den > 0) in normal form."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
    x = _new(CycNumber)
    x.order = order
    x.num = num
    x.den = den
    return x


@lru_cache(maxsize=None)
def _zero(order: int) -> "CycNumber":
    return _cyc(order, (0,) * euler_phi(order), 1)


@lru_cache(maxsize=None)
def _one(order: int) -> "CycNumber":
    return _cyc(order, (1,) + (0,) * (euler_phi(order) - 1), 1)


class CycNumber:
    """An element of Q(zeta_order) in canonical coordinates.

    The value is (num[0] + num[1]*zeta + ... ) / den with phi(order) integer
    numerators ``num`` and an integer ``den`` > 0, reduced so that
    gcd(den, *num) == 1.  The normal form is unique: two values are equal
    iff their orders and their (num, den) fields are identical.
    ``coords`` gives the same coordinates as Fractions.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coords):
        """Build from phi(order) rational coordinates; coords[k] is the
        coefficient of zeta^k."""
        fracs = [Fraction(c) for c in coords]
        if len(fracs) != euler_phi(order):
            raise ValueError("Q(zeta_%d) takes %d coordinates, got %d"
                             % (order, euler_phi(order), len(fracs)))
        den = lcm(*(f.denominator for f in fracs))
        self.order = order
        self.num = tuple(f.numerator * (den // f.denominator) for f in fracs)
        self.den = den

    @property
    def coords(self) -> tuple:
        """coords[k] is the coefficient of zeta^k, as a Fraction."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(order: int) -> "CycNumber":
        return _zero(order)

    @staticmethod
    def one(order: int) -> "CycNumber":
        return _one(order)

    @staticmethod
    def from_rational(order: int, value) -> "CycNumber":
        if type(value) is int:
            p, q = value, 1
        else:
            value = Fraction(value)
            p, q = value.numerator, value.denominator
        return _cyc(order, (p,) + (0,) * (euler_phi(order) - 1), q)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational value: %r" % (self,))
        return Fraction(self.num[0], self.den)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.order != self.order:
                raise OrderMismatch(
                    "orders %d and %d" % (self.order, other.order))
            return other
        if isinstance(other, _RAT_TYPES):
            return CycNumber.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = (other if type(other) is CycNumber and other.order == self.order
             else self._coerce(other))
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if not any(b):
            return self
        if not any(a):
            return o
        ad, bd = self.den, o.den
        if ad == bd:
            return _cyc(self.order, tuple([x + y for x, y in zip(a, b)]), ad)
        return _cyc(self.order,
                    tuple([x * bd + y * ad for x, y in zip(a, b)]), ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.order, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if not any(b):
            return self
        ad, bd = self.den, o.den
        if ad == bd:
            return _cyc(self.order, tuple([x - y for x, y in zip(a, b)]), ad)
        return _cyc(self.order,
                    tuple([x * bd - y * ad for x, y in zip(a, b)]), ad * bd)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is CycNumber and other.order == self.order:
            return _mul(self, other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * cyc_invert(o)

    def __pow__(self, e: int):
        if e < 0:
            return cyc_invert(self) ** (-e)
        if not e:
            return CycNumber.one(self.order)
        return _power(self, e)

    def __eq__(self, other):
        if isinstance(other, CycNumber):
            return (self.num == other.num and self.den == other.den
                    and self.order == other.order)
        if isinstance(other, int):
            return (self.den == 1 and self.num[0] == other
                    and self.is_rational())
        if isinstance(other, Fraction):
            return (self.num[0] == other.numerator
                    and self.den == other.denominator and self.is_rational())
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as the int or Fraction it compares equal to
        if not self.is_rational():
            return hash((self.order, self.num, self.den))
        if self.den == 1:
            return hash(self.num[0])
        return hash(Fraction(self.num[0], self.den))

    def __bool__(self):
        return any(self.num)

    # -- display ----------------------------------------------------------

    def render(self, symbol: str = "z") -> str:
        parts = []
        den = self.den
        for k, x in enumerate(self.num):
            if not x:
                continue
            g = gcd(x, den)
            p, q = x // g, den // g
            c = "%d" % p if q == 1 else "%d/%d" % (p, q)
            if k == 0:
                parts.append(c)
                continue
            mono = symbol if k == 1 else "%s^%d" % (symbol, k)
            if c == "1":
                parts.append(mono)
            elif c == "-1":
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (c, mono))
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return "CycNumber(%d, %s)" % (self.order, self.render())


def _mul(a: CycNumber, b: CycNumber) -> CycNumber:
    """Product of two values of the same order.  A factor exactly 1 returns
    the other operand (values are never mutated), and any other rational
    factor p/q only scales the other's numerators by p and its denominator
    by q.  Otherwise: integer convolution of the numerators over the
    nonzero terms of b, then one fold of the powers >= phi through
    ``_fold_table``."""
    x, y = a.num, b.num
    if not any(y[1:]):
        a, b, x, y = b, a, y, x
    if not any(x[1:]):
        p, q = x[0], a.den
        if q == 1 and p == 1:
            return b
        return _cyc(b.order, tuple([p * v for v in y]), q * b.den)
    phi = len(x)
    terms = [(j, yj) for j, yj in enumerate(y) if yj]
    acc = [0] * (2 * phi - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in terms:
                acc[i + j] += xi * yj
    for row, c in zip(_fold_table(a.order), acc[phi:]):
        if c:
            for k, r in row:
                acc[k] += c * r
    return _cyc(a.order, tuple(acc[:phi]), a.den * b.den)


def _power(base, e: int):
    """base ** e for e >= 1 by binary powering from the lowest set bit: no
    product by one and no squaring past the top bit, so e = 1 costs no
    product and e = 2^k + ... costs (bit length - 1) squarings plus one
    product per further set bit."""
    while not e & 1:
        base = base * base
        e >>= 1
    result = base
    e >>= 1
    while e:
        base = base * base
        if e & 1:
            result = result * base
        e >>= 1
    return result


def zeta_pow(order: int, k: int) -> CycNumber:
    """zeta_order^k as a canonical CycNumber (k may be any integer)."""
    return _powers(order)[k % order]


def _poly_divmod(num: list, den: list):
    # division by a monic den needs no division, so int coefficients stay ints
    num = list(num)
    dd = len(den) - 1
    out = [0] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    return out, num[:dd]


def _conjugate(order: int, num: tuple, k: int) -> CycNumber:
    """sigma_k of the integer value sum num[i]*zeta^i: the sum of
    num[i]*zeta^(i*k), each power read as row i*k mod order of ``_powers``."""
    acc = [0] * len(num)
    powers = _powers(order)
    for i, x in enumerate(num):
        if x:
            for j, r in enumerate(powers[i * k % order].num):
                if r:
                    acc[j] += x * r
    return _cyc(order, tuple(acc), 1)


def cyc_invert(a: CycNumber) -> CycNumber:
    """Multiplicative inverse in Q(zeta_order), on integers.  Raises
    ZeroDivisionError on zero input.

    A single term c*zeta^k inverts to zeta^-k / c.  Any other a = A/den
    inverts as den*B/N, where B is the product of the conjugates sigma_k(A)
    over the units 1 < k < order and N = A*B, the field norm of A, is a
    nonzero integer."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % a.order)
    order, num, den = a.order, a.num, a.den
    terms = [k for k, x in enumerate(num) if x]
    if len(terms) == 1:
        b, p = zeta_pow(order, -terms[0]), num[terms[0]]
    else:
        conjugates = (_conjugate(order, num, k) for k in range(2, order)
                      if gcd(k, order) == 1)
        b = reduce(lambda b, c: _mul(c, b), conjugates)
        norm = _mul(_cyc(order, num, 1), b)
        assert norm.is_rational(), "a field norm is rational"
        p = norm.num[0]
    scale = den if p > 0 else -den
    return _cyc(order, tuple([x * scale for x in b.num]), abs(p))


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Q(zeta_n)
# ---------------------------------------------------------------------------

def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for name, e in m2:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


def _poly(order: int, terms: dict) -> "ParamPoly":
    """The ParamPoly with ``terms``, which must hold no zero coefficient:
    the arithmetic below builds its results here, without a second pass."""
    p = _new(ParamPoly)
    p.order = order
    p.terms = terms
    return p


class ParamPoly:
    """Sparse multivariate polynomial over Q(zeta_order).

    ``terms`` maps a monomial -- a name-sorted tuple of (parameter, exponent)
    pairs with positive exponents, the empty tuple for the constant term --
    to a nonzero CycNumber coefficient.  Zero coefficients are dropped on
    construction, so two polynomials are equal iff their canonical forms are
    structurally identical.

    The arithmetic keeps that invariant without rebuilding: a sum copies one
    term dict and deletes a monomial only when its coefficients cancel, a
    product accumulates and drops the zero sums once, and a product by a
    nonzero scalar (a CycNumber, a rational or a constant polynomial) scales
    each coefficient and needs no test at all, because Q(zeta_n) is a field.
    Every coefficient product is a ``CycNumber`` product.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: dict):
        self.order = order
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(order: int) -> "ParamPoly":
        return _poly(order, {})

    @staticmethod
    def const(order: int, value) -> "ParamPoly":
        if isinstance(value, CycNumber):
            if value.order != order:
                raise OrderMismatch("orders %d and %d" % (order, value.order))
            c = value
        else:
            c = CycNumber.from_rational(order, value)
        return _poly(order, {(): c} if c else {})

    @staticmethod
    def one(order: int) -> "ParamPoly":
        return ParamPoly.const(order, 1)

    @staticmethod
    def var(order: int, name: str, power: int = 1) -> "ParamPoly":
        if power < 0:
            raise ValueError("parameter powers must be nonnegative")
        if power == 0:
            return ParamPoly.one(order)
        return _poly(order, {((name, power),): CycNumber.one(order)})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> CycNumber:
        if not self.terms:
            return CycNumber.zero(self.order)
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self.render())
        return self.terms[()]

    def vars_used(self) -> tuple:
        names = set()
        for m in self.terms:
            for name, _ in m:
                names.add(name)
        return tuple(sorted(names))

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            if other.order != self.order:
                raise OrderMismatch(
                    "orders %d and %d" % (self.order, other.order))
            return other
        if isinstance(other, (CycNumber,) + _RAT_TYPES):
            return ParamPoly.const(self.order, other)
        return None

    def _sum(self, other, negate: bool):
        """self + other, or self - other when ``negate``: one copy of the
        term dict, a monomial deleted only when it cancels."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in o.terms.items():
            prev = terms.get(m)
            if prev is None:
                terms[m] = -c if negate else c
                continue
            s = prev - c if negate else prev + c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return _poly(self.order, terms)

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.order, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._sum(other, True)

    def __mul__(self, other):
        if isinstance(other, CycNumber):
            if other.order != self.order:
                raise OrderMismatch(
                    "orders %d and %d" % (self.order, other.order))
            return self._scaled(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(o.terms) == 1 and () in o.terms:
            return self._scaled(o.terms[()])
        if len(self.terms) == 1:
            if () in self.terms:
                return o._scaled(self.terms[()])
            if len(o.terms) == 1:
                # monomial times monomial: one product, nonzero in a field
                (m1, c1), = self.terms.items()
                (m2, c2), = o.terms.items()
                return _poly(self.order, {_mono_mul(m1, m2): c1 * c2})
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = _mono_mul(m1, m2)
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return _poly(self.order, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def _scaled(self, k: CycNumber) -> "ParamPoly":
        # a product of nonzero coefficients in the field Q(zeta_n) is nonzero
        if not k:
            return _poly(self.order, {})
        return _poly(self.order, {m: c * k for m, c in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers of a polynomial")
        if not e:
            return ParamPoly.one(self.order)
        return _power(self, e)

    def __eq__(self, other):
        if isinstance(other, (CycNumber,) + _RAT_TYPES):
            other = ParamPoly.const(self.order, other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        # a constant hashes as the scalar it compares equal to
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.order, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    # -- substitution -----------------------------------------------------

    def subs(self, name: str, value) -> "ParamPoly":
        """Substitute one parameter by a polynomial (or scalar) value."""
        repl = self._coerce(value)
        if repl is None:
            raise TypeError("cannot substitute %r" % (value,))
        out: dict = {}
        powers: dict = {}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for n2, k in m:
                if n2 == name:
                    e = k
                else:
                    rest.append((n2, k))
            rest = tuple(rest)
            if not e:
                prev = out.get(rest)
                out[rest] = c if prev is None else prev + c
                continue
            pw = powers.get(e)
            if pw is None:
                pw = powers[e] = repl ** e
            for m2, c2 in pw.terms.items():
                mono = _mono_mul(rest, m2)
                prev = out.get(mono)
                out[mono] = c * c2 if prev is None else prev + c * c2
        return _poly(self.order, {m: c for m, c in out.items() if c})

    def linear_split(self, name: str):
        """Write self as A*name + B with neither part containing ``name``.

        Raises ValueError when self has degree >= 2 in the parameter.
        """
        a_terms: dict = {}
        b_terms: dict = {}
        for m, c in self.terms.items():
            e = dict(m).get(name, 0)
            if e == 0:
                b_terms[m] = c
            elif e == 1:
                rest = tuple(p for p in m if p[0] != name)
                a_terms[rest] = c
            else:
                raise ValueError("degree %d in %s" % (e, name))
        return _poly(self.order, a_terms), _poly(self.order, b_terms)

    def divide_by_var(self, name: str) -> "ParamPoly":
        """Exact quotient self / name; every monomial must contain ``name``."""
        out: dict = {}
        for m, c in self.terms.items():
            d = dict(m)
            if name not in d:
                raise ValueError("monomial without %s" % name)
            d[name] -= 1
            if d[name] == 0:
                del d[name]
            out[tuple(sorted(d.items()))] = c
        return _poly(self.order, out)

    # -- display ----------------------------------------------------------

    def render(self, symbol: str = "z") -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            vars_str = "*".join(
                name if e == 1 else "%s^%d" % (name, e) for name, e in m)
            if not vars_str:
                cs = c.render(symbol)
                parts.append("(%s)" % cs if " " in cs else cs)
                continue
            if c == 1:
                parts.append(vars_str)
            elif c == -1:
                parts.append("-" + vars_str)
            else:
                cs = c.render(symbol)
                cs = "(%s)" % cs if " " in cs else cs
                parts.append("%s*%s" % (cs, vars_str))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return "ParamPoly(%d, %s)" % (self.order, self.render())
