"""Text form of polynomials.

Accepted syntax: signed sums of terms, a term being an optional integer
or rational coefficient followed by variable powers, with optional `*`
separators, e.g. ``x^2 - 2*x*y`` or ``3/4 x y^2``.  Identifiers match
[a-zA-Z][a-zA-Z0-9_]*, so ``xy`` is one variable named xy, not x*y.
Printing is canonical: terms in descending grevlex order, explicit ``*``
between factors; parse(format(p)) == p.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .orders import grevlex
from .poly import Polynomial, PolyRing, add_term


class ParseError(ValueError):
    """Syntax or validation failure, carrying the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return (None, "", len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def integer(self, digits: str, offset: int) -> int:
        try:
            return int(digits)
        except ValueError:  # past the interpreter's digit limit
            raise ParseError(f"{len(digits)}-digit integer too long", offset) from None

    def parse(self) -> dict:
        if not self.tokens:
            raise ParseError("empty polynomial", 0)
        terms: dict = {}
        p = self.ring.characteristic
        sign = 1
        kind, value, offset = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            sign = -1 if value == "-" else 1
        while True:
            exponents, coefficient = self.term(sign)
            add_term(terms, exponents, self.ring.coeff(coefficient), p)
            kind, value, offset = self.peek()
            if kind is None:
                return terms
            if kind == "op" and value in "+-":
                self.take()
                sign = -1 if value == "-" else 1
                continue
            raise ParseError(f"expected + or - before {value!r}", offset)

    def term(self, sign: int) -> tuple[tuple[int, ...], Fraction]:
        num, den = sign, 1
        exponents = [0] * self.ring.arity
        saw_anything = False
        kind, value, offset = self.peek()
        if kind == "int":
            self.take()
            num *= self.integer(value, offset)
            kind2, value2, offset2 = self.peek()
            if kind2 == "op" and value2 == "/":
                self.take()
                kind3, value3, offset3 = self.peek()
                if kind3 != "int":
                    raise ParseError("expected denominator digits", offset3)
                self.take()
                den = self.integer(value3, offset3)
                if den == 0:
                    raise ParseError("zero denominator", offset3)
                p = self.ring.characteristic
                if p and Fraction(num, den).denominator % p == 0:
                    raise ParseError("denominator vanishes in prime field", offset3)
            saw_anything = True
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value == "*":
                self.take()
                kind, value, offset = self.peek()
                if kind != "name":
                    raise ParseError("expected variable after *", offset)
            if kind != "name":
                break
            self.take()
            try:
                var_index = self.ring.variables.index(value)
            except ValueError:
                raise ParseError(f"unknown variable {value!r}", offset) from None
            power = 1
            kind2, value2, offset2 = self.peek()
            if kind2 == "op" and value2 == "^":
                self.take()
                kind3, value3, offset3 = self.peek()
                if kind3 != "int":
                    raise ParseError("expected exponent digits", offset3)
                self.take()
                power = self.integer(value3, offset3)
            exponents[var_index] += power
            saw_anything = True
        if not saw_anything:
            raise ParseError("expected coefficient or variable", offset)
        return tuple(exponents), Fraction(num, den)


def parse_terms(ring: PolyRing, text: str) -> dict:
    """{exponents: coefficient} of the polynomial, zero terms dropped."""
    return _Parser(ring, text).parse()


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    return Polynomial(ring, parse_terms(ring, text))


def format_polynomial(poly: Polynomial) -> str:
    if poly.is_zero():
        return "0"
    ring = poly.ring
    exps_sorted = sorted(poly.terms, key=grevlex().sort_key, reverse=True)
    pieces = []
    for exps in exps_sorted:
        c = poly.terms[exps]
        if ring.characteristic == 0:
            negative = c < 0
            magnitude = -c if negative else c
        else:
            negative = False
            magnitude = c
        factors = []
        for name, e in zip(ring.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        coeff_str = _format_coeff(magnitude)
        if not factors:
            body = coeff_str
        elif coeff_str == "1":
            body = "*".join(factors)
        else:
            body = "*".join([coeff_str] + factors)
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


def _format_coeff(c) -> str:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return str(c)
