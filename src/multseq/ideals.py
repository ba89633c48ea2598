"""Ideals of a polynomial ring.

Every operation routes through one of two interchangeable engines: a
combinatorial one on packed exponent vectors when every generator is a
single term, and the Gröbner engine otherwise.  Results agree; tests
pin the two routes against each other.  Ideals are immutable.

An ideal's Gröbner basis is its reduced grevlex basis.  The
generators of a monomial ideal are a Gröbner basis under every
order, so its normal form drops exactly the terms the ideal holds
(Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, §2.3-2.4):
`normal_form` and `contains` test each term by exponent-tuple
divisibility and never run Buchberger nor pack the polynomial.  The
exact quotients of `colon_poly` come from `groebner.divide`.  The
general intersection and saturation each eliminate one fresh variable
t (§3.1, §4.3-4.4): A ∩ B = (t·A, (1 - t)·B) ∩ R, and A : B^∞ is the
intersection over the generators g of B of (A, 1 - t·g) ∩ R.
"""

from __future__ import annotations

from functools import reduce

from . import monomials as mo
from .errors import NonHomogeneousInput
from .groebner import buchberger, divide, normal_form
from .orders import elimination_order, grevlex
from .poly import Polynomial, PolyRing, monomial_divides


class Ideal:
    """An ideal of `ring`, given by generators.

    An ideal built from packed monomial words (`from_packed`, which every
    packed operation returns) keeps only the words and builds its `gens`
    polynomials on first read; `is_zero`, `is_homogeneous`, `packed` and
    the packed arithmetic never read them.  An ideal keeps its reduced
    grevlex basis once read, so its membership, containment and
    dimension tests share one basis.
    """

    __slots__ = ("ring", "_gens", "_packed", "_homog", "_basis")

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        live = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise TypeError("ideal generators must be polynomials")
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if not g.is_zero():
                live.append(g)
        self._gens = tuple(live)
        self._packed = None
        self._homog = None
        self._basis = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_packed(cls, ring: PolyRing, packed: tuple[int, ...]) -> Ideal:
        ideal = cls.__new__(cls)
        ideal.ring = ring
        ideal._gens = None
        ideal._packed = tuple(packed)
        ideal._homog = True  # monomials are homogeneous
        ideal._basis = None
        return ideal

    @property
    def gens(self) -> tuple[Polynomial, ...]:
        if self._gens is None:
            lay = mo.layout(self.ring.arity)
            self._gens = tuple(
                self.ring.monomial(mo.unpack(lay, w)) for w in self._packed
            )
        return self._gens

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"<ideal ({inside})>"

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generator_count()

    def generator_count(self) -> int:
        """Number of nonzero generators as given, words for `from_packed`."""
        return len(self._packed if self._gens is None else self._gens)

    def packed(self) -> tuple[int, ...] | None:
        """Canonical packed minimal generators, when all gens are terms."""
        if self._packed is None:
            if all(g.is_term() for g in self.gens):
                lay = mo.layout(self.ring.arity)
                words = [mo.pack(lay, next(iter(g.terms))) for g in self.gens]
                self._packed = mo.minimalize(lay, words)
            else:
                self._packed = False
        return None if self._packed is False else self._packed

    def is_homogeneous(self) -> bool:
        if self._homog is None:
            self._homog = all(g.is_homogeneous() for g in self.gens)
        return self._homog

    def is_proper(self) -> bool:
        packed = self.packed()
        if packed is not None:
            return not mo.is_unit(packed)
        gb = self.groebner()
        return not any(g.is_constant() for g in gb)

    # -- membership and containment ---------------------------------------

    def groebner(self) -> tuple[Polynomial, ...]:
        """Reduced grevlex basis."""
        if self._basis is None:
            self._basis = buchberger(self.gens, grevlex())
        return self._basis

    def normal_form(self, f: Polynomial) -> Polynomial:
        packed = self.packed()
        if packed is not None:
            lay = mo.layout(self.ring.arity)
            gens = [mo.unpack(lay, w) for w in packed]
            return Polynomial(self.ring, {
                e: c for e, c in f.terms.items()
                if not any(monomial_divides(g, e) for g in gens)
            })
        return normal_form(f, self.groebner())

    def contains(self, f: Polynomial) -> bool:
        return f.is_zero() or self.normal_form(f).is_zero()

    def subset_of(self, other: Ideal) -> bool:
        a, b = self.packed(), other.packed()
        if a is not None and b is not None:
            return mo.contains(mo.layout(self.ring.arity), b, a)
        return all(other.contains(g) for g in self.gens)

    # -- arithmetic -------------------------------------------------------

    def add(self, other: Ideal) -> Ideal:
        self._same_ring(other)
        a, b = self.packed(), other.packed()
        if a is not None and b is not None:
            lay = mo.layout(self.ring.arity)
            return Ideal.from_packed(self.ring, mo.add(lay, a, b))
        return Ideal(self.ring, self.gens + other.gens)

    def multiply(self, other: Ideal) -> Ideal:
        self._same_ring(other)
        a, b = self.packed(), other.packed()
        if a is not None and b is not None:
            lay = mo.layout(self.ring.arity)
            return Ideal.from_packed(self.ring, mo.multiply(lay, a, b))
        # a power built one factor at a time keeps each product of
        # generators once, not once per order of its factors
        return Ideal(
            self.ring, dict.fromkeys(f * g for f in self.gens for g in other.gens)
        )

    def intersect(self, other: Ideal) -> Ideal:
        self._same_ring(other)
        a, b = self.packed(), other.packed()
        if a is not None and b is not None:
            lay = mo.layout(self.ring.arity)
            return Ideal.from_packed(self.ring, mo.intersect(lay, a, b))
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, [])
        zero = self.ring.zero()
        return _eliminate(
            self.ring,
            [(zero, f) for f in self.gens] + [(g, -g) for g in other.gens],
        )

    def colon_poly(self, f: Polynomial) -> Ideal:
        """(self : f)."""
        if f.is_zero():
            raise ValueError("colon by zero")
        packed = self.packed()
        if packed is not None and f.is_term():
            lay = mo.layout(self.ring.arity)
            word = mo.pack(lay, next(iter(f.terms)))
            return Ideal.from_packed(self.ring, mo.colon_monomial(lay, packed, word))
        meet = self.intersect(Ideal(self.ring, [f]))
        quotients = []
        for g in meet.gens:
            (q,), rest = divide(g, [f])
            if not rest.is_zero():
                raise ArithmeticError("division witness failed: quotient is not exact")
            quotients.append(q)
        return Ideal(self.ring, quotients)

    def saturate(self, other: Ideal) -> Ideal:
        """(self : other^∞), one elimination per generator g of other.

        self : g^∞ = (self, 1 - t·g) ∩ R, and a power of other lies in
        the colon exactly when a power of each of its generators does.
        """
        a, b = self.packed(), other.packed()
        if a is not None and b is not None:
            lay = mo.layout(self.ring.arity)
            return Ideal.from_packed(self.ring, mo.saturate(lay, a, b))
        if other.is_zero():
            raise ValueError("saturation by the zero ideal")
        one = self.ring.one()
        return reduce(Ideal.intersect, [
            _eliminate(self.ring, [(f,) for f in self.gens] + [(one, -g)])
            for g in other.gens
        ])

    def initial_ideal(self) -> Ideal:
        """Monomial ideal of the leading terms of the grevlex basis."""
        packed = self.packed()
        if packed is not None:
            return Ideal.from_packed(self.ring, packed)
        lay = mo.layout(self.ring.arity)
        words = [mo.pack(lay, g.leading_monomial()) for g in self.groebner()]
        return Ideal.from_packed(self.ring, mo.minimalize(lay, words))

    def _same_ring(self, other: Ideal) -> None:
        if self.ring != other.ring:
            raise ValueError("ideals from different rings")


def _eliminate(ring: PolyRing, gens) -> Ideal:
    """(gens) ∩ ring, for gens in ring[t] with t a fresh variable.

    Each generator is given by its coefficients in `ring`, from t^0 up,
    so (f, -f) stands for (1 - t)·f.  The t-free elements of the basis
    under the order that eliminates t generate the intersection
    (Cox-Little-O'Shea, §3.1).
    """
    ext = ring.extend_front(ring.fresh_names("t_aux_", 1))
    lifted = []
    for coefficients in gens:
        terms = {}
        for i, f in enumerate(coefficients):
            terms.update(((i,) + e, c) for e, c in f.terms.items())
        lifted.append(Polynomial(ext, terms))
    return Ideal(ring, [
        Polynomial(ring, {e[1:]: c for e, c in g.terms.items()})
        for g in buchberger(lifted, elimination_order(1))
        if all(e[0] == 0 for e in g.terms)
    ])


def require_homogeneous(ideal: Ideal, what: str) -> None:
    if not ideal.is_homogeneous():
        raise NonHomogeneousInput(f"{what} requires homogeneous generators")
