"""Polynomial rings with exact coefficient arithmetic.

A ring fixes a variable tuple and a coefficient field (rationals, or a
prime field chosen for speed); a monomial order is an argument of the
few routines that need one, grevlex unless stated.  Polynomials are
dicts from exponent tuples to nonzero coefficients; all values are
treated as immutable once built.  Rational coefficients are stdlib
Fractions, prime-field coefficients are ints in [0, p).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .orders import MonomialOrder

_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")


def _is_prime(p: int) -> bool:
    """Is p a prime below 3.3·10^24, the accepted characteristics?

    Miller–Rabin with the prime bases 2..41 is exact below
    3317044064679887385961981 (Sorenson–Webster, Math. Comp. 86, 2017).
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p <= 41 or p >= 3317044064679887385961981:
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    d = (p - 1) >> s
    return all(
        pow(a, d, p) == 1 or any(pow(a, d << i, p) == p - 1 for i in range(s))
        for a in bases
    )


def monomial_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError("monomial does not divide")
    return out


def add_term(terms: dict, exps: tuple[int, ...], c, p: int) -> None:
    """Add c x^exps into a term dict in place, reduced mod p if p > 0;
    a sum of zero drops the term."""
    s = terms.get(exps, 0) + c
    if p:
        s %= p
    if s == 0:
        terms.pop(exps, None)
    else:
        terms[exps] = s


@dataclass(frozen=True)
class PolyRing:
    variables: tuple[str, ...]
    characteristic: int = 0

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("ring needs at least one variable")
        seen = set()
        for name in self.variables:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable {name!r}")
            seen.add(name)
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise ValueError("characteristic must be 0 or a prime below 3.3e24")

    # -- coefficient field ------------------------------------------------

    def coeff(self, value) -> Fraction | int:
        """Normalize a number into the coefficient field."""
        if self.characteristic == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            num = value.numerator % self.characteristic
            den = value.denominator % self.characteristic
            return (num * self.coeff_inv(den)) % self.characteristic
        return int(value) % self.characteristic

    def coeff_inv(self, value) -> Fraction | int:
        p = self.characteristic
        if p == 0:
            if value == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / Fraction(value)
        v = int(value) % p
        if v == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(v, p - 2, p)

    # -- constructors -----------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.variables)

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, value) -> Polynomial:
        c = self.coeff(value)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.arity: c})

    def variable(self, name: str) -> Polynomial:
        try:
            i = self.variables.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in ring") from None
        exps = [0] * self.arity
        exps[i] = 1
        return Polynomial(self, {tuple(exps): self.coeff(1)})

    def monomial(self, exponents: tuple[int, ...], coefficient=1) -> Polynomial:
        if len(exponents) != self.arity:
            raise ValueError("exponent arity mismatch")
        if any(e < 0 for e in exponents):
            raise ValueError("negative exponent")
        c = self.coeff(coefficient)
        if c == 0:
            return self.zero()
        return Polynomial(self, {tuple(exponents): c})

    # -- derived rings ----------------------------------------------------

    def fresh_names(self, base: str, count: int) -> tuple[str, ...]:
        """`count` distinct names base0, base1, ..., none a variable here."""
        names = []
        taken = set(self.variables)
        for i in range(count):
            name = f"{base}{i}"
            while name in taken:
                name += "_"
            taken.add(name)
            names.append(name)
        return tuple(names)

    def extend_front(self, names: tuple[str, ...]) -> PolyRing:
        for name in names:
            if name in self.variables:
                raise ValueError(f"variable {name!r} already present")
        return PolyRing(tuple(names) + self.variables, self.characteristic)


class Polynomial:
    """Immutable sparse polynomial over a PolyRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_term(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- leading data -----------------------------------------------------

    def leading_monomial(
        self, order: MonomialOrder = MonomialOrder()
    ) -> tuple[int, ...]:
        """The largest exponent tuple of a term under `order`, grevlex
        unless given."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.sort_key)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: Polynomial) -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        p = self.ring.characteristic
        out = dict(self.terms)
        for exps, c in other.terms.items():
            add_term(out, exps, c, p)
        return Polynomial(self.ring, out)

    def __neg__(self) -> Polynomial:
        p = self.ring.characteristic
        if p:
            return Polynomial(self.ring, {e: (-c) % p for e, c in self.terms.items()})
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        p = self.ring.characteristic
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(key, 0) + ca * cb
                if p:
                    s %= p
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return Polynomial(self.ring, out)

    def scale(self, coefficient) -> Polynomial:
        c = self.ring.coeff(coefficient)
        if c == 0:
            return self.ring.zero()
        p = self.ring.characteristic
        if p:
            return Polynomial(self.ring, {e: (v * c) % p for e, v in self.terms.items()})
        return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, self.key()))

    def key(self) -> tuple:
        """Canonical hashable form, for caches."""
        return tuple(sorted((e, c) for e, c in self.terms.items()))

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        from .parse import format_polynomial

        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<poly {self}>"
