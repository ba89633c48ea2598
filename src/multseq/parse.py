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


def _tokenize(text: str) -> list[tuple[str | None, str, int]]:
    """(kind, text, offset) of each token, closed by an end token."""
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
    tokens.append((None, "", len(text)))
    return tokens


def _integer(digits: str, offset: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's digit limit
        raise ParseError(f"{len(digits)}-digit integer too long", offset) from None


def parse_terms(ring: PolyRing, text: str) -> dict:
    """{exponents: coefficient} of the polynomial, zero terms dropped.

    One pass over the tokens: a sign, optional before the first term;
    an optional int[/int] coefficient; then [*]name[^int] factors.  An
    operator is matched by its text, which no other token has, and the
    end token closes every lookahead, so no bounds check is needed.
    """
    tokens = _tokenize(text)
    if tokens[0][0] is None:
        raise ParseError("empty polynomial", 0)
    p = ring.characteristic
    terms: dict = {}
    i = 0
    while True:
        num = den = 1
        if tokens[i][1] in ("+", "-"):
            num = -1 if tokens[i][1] == "-" else 1
            i += 1
        exponents = [0] * ring.arity
        kind, value, offset = tokens[i]
        saw_anything = kind == "int"
        if saw_anything:
            num *= _integer(value, offset)
            i += 1
            if tokens[i][1] == "/":
                kind, value, offset = tokens[i + 1]
                if kind != "int":
                    raise ParseError("expected denominator digits", offset)
                i += 2
                den = _integer(value, offset)
                if den == 0:
                    raise ParseError("zero denominator", offset)
                if p and Fraction(num, den).denominator % p == 0:
                    raise ParseError("denominator vanishes in prime field", offset)
        while True:
            kind, value, offset = tokens[i]
            if value == "*":
                i += 1
                kind, value, offset = tokens[i]
                if kind != "name":
                    raise ParseError("expected variable after *", offset)
            if kind != "name":
                break
            i += 1
            try:
                var_index = ring.variables.index(value)
            except ValueError:
                raise ParseError(f"unknown variable {value!r}", offset) from None
            power = 1
            if tokens[i][1] == "^":
                kind, value, offset = tokens[i + 1]
                if kind != "int":
                    raise ParseError("expected exponent digits", offset)
                i += 2
                power = _integer(value, offset)
            exponents[var_index] += power
            saw_anything = True
        if not saw_anything:
            raise ParseError("expected coefficient or variable", offset)
        add_term(terms, tuple(exponents), ring.coeff(Fraction(num, den)), p)
        if kind is None:
            return terms
        if value not in ("+", "-"):
            raise ParseError(f"expected + or - before {value!r}", offset)


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
