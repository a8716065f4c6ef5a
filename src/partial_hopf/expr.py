"""Parser for exact coefficient expressions.

Understands integer literals, a reserved root-of-unity symbol (``z`` in the
JSON interchange format), parameter names, ``+ - * / ^`` and parentheses.
Everything is evaluated in ParamPoly arithmetic, so parsing is exact; the
strings produced by ``CycNumber.render`` and ``ParamPoly.render`` parse back
to equal values.

Division is restricted to constant (parameter-free) divisors, which is all
the interchange format needs.

Expressions arrive from imported files, so the work one can demand is
bounded: exponents, integer literals, parenthesis depth and the estimated
size of a power (which scales with phi(order), and so bounds its cost too)
are capped by the module constants below, and a breach is an ExprError
raised before the expensive step runs.  A division is bounded as the
(phi(order) - 1)-th power of its divisor, unless the divisor is a single
term c*z^k.
"""
from __future__ import annotations

import re

from .exact_arith import CycNumber, ParamPoly, cyc_invert, euler_phi, zeta_pow

MAX_EXPONENT = 4096            # |e| in base^e
MAX_LITERAL_DIGITS = 256       # digits of an integer literal or exponent
MAX_NESTING = 100              # depth of nested parentheses
MAX_POWER_BITS = 1 << 16       # estimated bits of a power, all coordinates

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])")


class ExprError(ValueError):
    """Malformed or unsupported coefficient expression."""


def _literal(tok: str) -> int:
    if len(tok) > MAX_LITERAL_DIGITS:
        raise ExprError("integer literal of %d digits exceeds %d"
                        % (len(tok), MAX_LITERAL_DIGITS))
    return int(tok)


def _tokenize(s: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ExprError("bad character %r in %r" % (s[pos], s))
        out.append(m.group(1))
        pos = m.end()
    return out


def _bound(base, exp: int, what: str) -> None:
    """Refuse base ** exp, for a ParamPoly or CycNumber base, when it would
    take more than MAX_POWER_BITS bits in all: about
    exp * log2(|num|_1 * den) + 1 bits (|num|_1 sums the absolute numerators
    of the base, so a root of unity does not grow) in each of phi(order)
    coordinates, or in one for a rational base."""
    coeffs = base.terms.values() if isinstance(base, ParamPoly) else (base,)
    grow = (sum(abs(x) for c in coeffs for x in c.num)
            * max((c.den for c in coeffs), default=1)).bit_length() - 1
    coords = (1 if all(c.is_rational() for c in coeffs)
              else euler_phi(base.order))
    bits = (grow * exp + 1) * coords
    if bits > MAX_POWER_BITS:
        raise ExprError("%s too large: about %d bits, limit %d"
                        % (what, bits, MAX_POWER_BITS))


def _power(base, exp: int):
    """base ** exp for exp >= 0, refused by ``_bound``."""
    _bound(base, exp, "power")
    return base ** exp


def _inverse(c: CycNumber) -> CycNumber:
    """1/c, refused like a power: a divisor with several terms costs about
    as much as its (phi(order) - 1)-th power.  A single term a*z^k is
    exempt, because its inverse z^-k/a is a single term too."""
    if c.is_zero():
        raise ExprError("division by zero")
    if sum(1 for x in c.num if x) > 1:
        _bound(c, euler_phi(c.order) - 1, "inverse")
    return cyc_invert(c)


class _Parser:
    def __init__(self, tokens, order, root_symbol, params):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.order = order
        self.root = root_symbol
        self.params = params

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ExprError("expected %r, got %r" % (tok, got))

    def parse_expr(self) -> ParamPoly:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> ParamPoly:
        value = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            if op == "*":
                value = value * rhs
            else:
                value = value * _inverse(rhs.constant_value())
        return value

    def parse_factor(self) -> ParamPoly:
        negate = False
        while self.peek() in ("-", "+"):
            negate ^= self.take() == "-"
        value = self.parse_atom()
        if self.peek() in ("^", "**"):
            self.take()
            exp = self.parse_int_exponent()
            if exp >= 0:
                value = _power(value, exp)
            else:
                inv = _inverse(value.constant_value())
                value = ParamPoly.const(self.order, _power(inv, -exp))
        return -value if negate else value

    def parse_int_exponent(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ExprError("expected integer exponent, got %r" % (tok,))
        exp = _literal(tok)
        if exp > MAX_EXPONENT:
            raise ExprError("exponent %d exceeds %d" % (exp, MAX_EXPONENT))
        return sign * exp

    def parse_atom(self) -> ParamPoly:
        tok = self.take()
        if tok is None:
            raise ExprError("unexpected end of expression")
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprError("parentheses nested deeper than %d"
                                % MAX_NESTING)
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.isdigit():
            return ParamPoly.const(self.order, _literal(tok))
        if tok == self.root:
            return ParamPoly.const(self.order, zeta_pow(self.order, 1))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            if self.params is not None and tok not in self.params:
                raise ExprError("unknown parameter %r" % tok)
            return ParamPoly.var(self.order, tok)
        raise ExprError("unexpected token %r" % tok)


def parse_poly(s: str, order: int, root_symbol: str = "z",
               params=None) -> ParamPoly:
    """Parse an expression into a ParamPoly over Q(zeta_order).

    ``root_symbol`` is read as the primitive order-th root of unity; other
    names become parameters (restricted to ``params`` when given).
    """
    parser = _Parser(_tokenize(s), order, root_symbol, params)
    value = parser.parse_expr()
    if parser.peek() is not None:
        raise ExprError("trailing tokens in %r" % s)
    return value


def parse_scalar(s: str, order: int) -> CycNumber:
    """Parse a parameter-free expression in z into a CycNumber."""
    return parse_poly(s, order, params=()).constant_value()
