"""Buchberger's algorithm with the classical pair criteria, on packed words.

One pair loop, `pair_loop`, completes a `_Packed` basis (polynomials
of one arity, characteristic and order, as words) and returns the
indices of its minimal leads.  It has two entries:
- `buchberger` packs its `Polynomial` input once, runs the loop,
  inter-reduces the kept elements on words and unpacks the reduced
  basis once;
- `multiplicity._gr_numerator` fills a `_Packed` itself and runs the
  loop two or three times in one layout and order: each later run keeps
  part of the first's basis as its finished prefix.  It reads only
  leads, so its bases are never tail-reduced nor unpacked into `Polynomial`s.
A basis that grows past `DEFAULT_BASIS_LIMIT` elements raises
`EngineLimit`.  In characteristic 0 a coefficient inside the kernel is
a Python int while it is whole; a Fraction appears only once a lead
coefficient other than ±1 divides a tail, and `buchberger` hands every
coefficient back as a Fraction.  A monomial's word (a
`monomials.Layout` with the order's `rows` and 32-bit lanes) holds its
exponents in the low lanes, one per variable, and above them the value
of each row of the order, the most significant row in the top lane.
The word of a is sum(a_i * step_i), so, while every lane stays below
its guard bit:
- the word of a product is the sum of the words;
- the order compares monomials as Python compares their words, so
  `max(work)` and the pair heap need no key function;
- a | b is `not (b - a) & guard`.
Exponents and row values must stay below 2^31.  Packing checks every
lane; the lcm of a pair is checked before the pair is reduced (an lcm
is at most twice a lane, so it never carries and still orders exactly);
and a product is checked, before it is formed, against the OR of the
factor's tail words, which bounds each lane.  A hit raises
`EngineLimit`, so no wrapped word is ever used.

Pending pairs sit in a heap keyed by the word of their lcm, so the pair
with the smallest lcm comes out first; equal lcms break by the pair's
indices, so the run is deterministic.  A caller whose generators are
homogeneous under a positive grading of the variables may pass it, and
pairs then come out by the weighted degree of their lcm first, the
word second.  Every S-polynomial and remainder is then homogeneous of
its pair's degree, and once the last pair of a degree is done the
elements so far form a basis up to that degree, so no pair is reduced
against a basis still missing lower-degree elements (the normal
strategy; Giovini-Mora-Niesi-Robbiano-Traverso, "One sugar cube,
please", ISSAC 1991).  Under a block order the word alone takes pairs
by the eliminated block's degree first, whatever their total degree,
which is what made the Rees elimination basis of `multiplicity` slow.
Both classical criteria hold for any selection order
(Becker-Weispfenning, *Groebner Bases*, ch. 5).  The first is applied
when a pair is formed: a pair of two monic terms, or of two leads whose
supports (one bitmask per element) are disjoint, reduces to zero over
the pair alone and never enters the heap.  A caller may also name a
finished prefix, leading elements that already form a Gröbner basis,
and no pair of two of them is formed.  Every pair not pending counts
as treated for the chain criterion, which skips a popped pair (i, j)
when some other lead divides its lcm and neither (i, k) nor (j, k) is
pending; a set of the pending pairs serves that membership test.
Reduced bases are monic, mutually fully reduced, and sorted, hence
unique per (ideal, order): equality of ideals can be tested by
comparing them, and the selection order never shows in a result.  The
minimal leads of any basis are the leads of the reduced one, so a
caller that reads only leads needs no inter-reduction.

`divide` and `normal_form` stay on exponent tuples: they serve
callers outside the kernel, and the tests use them, with the
`s_polynomial` of `tests/oracles.py`, as the independent route.
`divide` is the one division loop there: `normal_form` keeps its
remainder, and `ideals.Ideal.colon_poly` its quotient by a single
polynomial.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from fractions import Fraction
from functools import reduce
from operator import mul, or_

from . import monomials as mo
from .errors import EngineLimit
from .orders import MonomialOrder
from .poly import (
    Polynomial,
    PolyRing,
    add_term,
    monomial_div,
    monomial_divides,
    monomial_mul,
)

DEFAULT_BASIS_LIMIT = 4000


def divide(
    f: Polynomial, divisors, order: MonomialOrder = MonomialOrder()
) -> tuple[list[Polynomial], Polynomial]:
    """Quotients and remainder of f by `divisors`, in their order, under
    `order`, grevlex unless given.

    The largest term left is reduced by the first nonzero divisor whose
    lead divides it and otherwise moves to the remainder, so
    f = sum(q_i * g_i) + r and no lead divides a term of r.  A zero
    divisor gets a zero quotient.
    """
    ring = f.ring
    p = ring.characteristic
    reducers = []
    for k, g in enumerate(divisors):
        if not g.is_zero():
            lt = g.leading_monomial(order)
            reducers.append((lt, ring.coeff_inv(g.terms[lt]), k))
    quotients: list[dict] = [{} for _ in divisors]
    work = dict(f.terms)
    remainder: dict = {}
    while work:
        mu = max(work, key=order.sort_key)
        c = work[mu]
        for lt, inv, k in reducers:
            if monomial_divides(lt, mu):
                shift = monomial_div(mu, lt)
                factor = c * inv
                if p:
                    factor %= p
                add_term(quotients[k], shift, factor, p)
                # the lead's own term cancels mu
                for e2, c2 in divisors[k].terms.items():
                    add_term(work, monomial_mul(e2, shift), -factor * c2, p)
                break
        else:
            remainder[mu] = c
            del work[mu]
    return [Polynomial(ring, q) for q in quotients], Polynomial(ring, remainder)


def normal_form(
    f: Polynomial, basis, order: MonomialOrder = MonomialOrder()
) -> Polynomial:
    """Full remainder of f against a list of polynomials."""
    return divide(f, basis, order)[1]


LANE_BITS = 32
_RANGE = (
    "a Groebner basis monomial passes the packable range"
    f" (lanes below 2^{LANE_BITS - 1})"
)


def _integral(c):
    """A whole rational as an int; any other coefficient unchanged."""
    return c.numerator if c.denominator == 1 else c


class _Packed:
    """Monic polynomials of one arity, characteristic and order, as words.

    Element k is `leads[k]`, with coefficient 1, plus `tails[k]`, a list
    of (word, coefficient); `bounds[k]` is the OR of the tail's words and
    `exps[k]` the exponents of its lead.  In characteristic 0 a
    coefficient is an int while it is whole, and a Fraction only once a
    lead coefficient other than ±1 has divided it.
    """

    def __init__(self, arity: int, characteristic: int, order: MonomialOrder):
        self.order = order
        self.lay = mo.layout(arity, order.rows(arity), LANE_BITS)
        self.guard = self.lay.guard
        self.p = characteristic
        self.leads: list[int] = []
        self.tails: list[list[tuple[int, object]]] = []
        self.bounds: list[int] = []
        self.exps: list[tuple[int, ...]] = []

    def pack(self, terms: dict) -> dict:
        """A new dict of the {exponents: coefficient} `terms`, keyed by word."""
        lay, p = self.lay, self.p
        if p:
            return {mo.pack(lay, e): c % p for e, c in terms.items()}
        return {mo.pack(lay, e): _integral(c) for e, c in terms.items()}

    def append(self, terms: dict) -> None:
        """Add the monic multiple of a nonzero packed polynomial; takes `terms`."""
        lead = max(terms)
        lc = terms.pop(lead)
        if lc != 1:
            p = self.p
            if p:
                inv = pow(lc, p - 2, p)
                for w, c in terms.items():
                    terms[w] = c * inv % p
            elif lc == -1:
                for w, c in terms.items():
                    terms[w] = -c
            else:
                for w, c in terms.items():
                    terms[w] = _integral(Fraction(c, lc))
        self.leads.append(lead)
        self.tails.append(list(terms.items()))
        self.bounds.append(reduce(or_, terms, 0))
        self.exps.append(mo.unpack(self.lay, lead))

    def keep(self, among: list[int]) -> None:
        """Drop every element but those of `among`, in that order."""
        for name in ("leads", "tails", "bounds", "exps"):
            items = getattr(self, name)
            setattr(self, name, [items[k] for k in among])

    def polynomial(self, ring: PolyRing, k: int, tail) -> Polynomial:
        """Element k with the (word, coefficient) `tail`, in `ring`."""
        lay, coeff = self.lay, ring.coeff
        terms = {self.exps[k]: coeff(1)}
        for w, c in tail:
            terms[mo.unpack(lay, w)] = coeff(c)
        return Polynomial(ring, terms)

    def multiple(self, k: int, shift: int) -> Iterator[tuple[int, object]]:
        """Tail of element k times the monomial of word `shift`."""
        tail, guard = self.tails[k], self.guard
        # the OR of the tail's words bounds each lane, within a factor
        # of two; only past that bound is each product tested
        if (self.bounds[k] + shift) & guard:
            if any((w + shift) & guard for w, _ in tail):
                raise EngineLimit(_RANGE)
        return ((w + shift, c) for w, c in tail)

    def s_polynomial(self, i: int, j: int, lcm: int) -> dict:
        """S-polynomial of elements i and j, whose leads have lcm `lcm`."""
        work = dict(self.multiple(i, lcm - self.leads[i]))
        _subtract(work, self.multiple(j, lcm - self.leads[j]), 1, self.p)
        return work

    def remainder(self, work: dict, among) -> dict:
        """Full remainder of `work`, consumed, against the elements `among`."""
        guard, p, leads = self.guard, self.p, self.leads
        reducers = [(leads[k], k) for k in among]
        out: dict = {}
        while work:
            mu = max(work)
            c = work.pop(mu)
            for lt, k in reducers:
                shift = mu - lt
                if not shift & guard:
                    _subtract(work, self.multiple(k, shift), c, p)
                    break
            else:
                out[mu] = c
        return out


def _subtract(work: dict, terms, factor, p: int) -> None:
    """work -= factor * terms, in place."""
    get = work.get
    for w, c in terms:
        s = get(w, 0) - factor * c
        if p:
            s %= p
        if s:
            work[w] = s
        else:
            work.pop(w, None)


def pair_loop(
    basis: _Packed, grading: tuple[int, ...] | None = None, done: int = 0
) -> list[int]:
    """Complete `basis` to a Gröbner basis; the indices of its minimal leads.

    The indices come in ascending order of their leads.  `grading`, one
    positive weight per variable under which every element is
    homogeneous, makes pairs come out degree first; the leads are the
    same with or without it.  The first `done` elements must already
    form a Gröbner basis: no pair of two of them is formed.
    """
    if grading is not None and len(grading) != basis.lay.arity:
        raise ValueError("grading and basis of different arity")
    leads, tails, exps, guard = basis.leads, basis.tails, basis.exps, basis.guard
    steps = basis.lay.var_steps
    weights = grading or (0,) * basis.lay.arity
    heap: list = []
    pending: set[tuple[int, int]] = set()

    def support(k: int) -> int:
        return sum(1 << v for v, e in enumerate(exps[k]) if e)

    masks = [support(k) for k in range(len(leads))]

    def push(i: int, j: int) -> None:
        # the s-polynomial of two monic terms is identically zero, and
        # that of two coprime leads reduces to zero over the pair
        # (Buchberger's first criterion): such a pair is treated here
        if (tails[i] or tails[j]) and masks[i] & masks[j]:
            top = tuple(map(max, exps[i], exps[j]))
            # the lcm's word may pass a guard bit, but each lane is
            # below the sum of two guard-free lanes, so none carries,
            # and such words still order and add exactly
            lcm = sum(map(mul, top, steps))
            heapq.heappush(heap, (sum(map(mul, top, weights)), lcm, i, j))
            pending.add((i, j))

    for j in range(done, len(leads)):
        for i in range(j):
            push(i, j)

    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        pending.discard((i, j))

        if lcm & guard:
            raise EngineLimit(_RANGE)
        # a pair never pushed, or already popped, is treated
        chained = False
        for k, lt in enumerate(leads):
            if k != i and k != j and not (lcm - lt) & guard:
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    chained = True
                    break
        if chained:
            continue

        remainder = basis.remainder(basis.s_polynomial(i, j, lcm), range(len(leads)))
        if not remainder:
            continue
        basis.append(remainder)
        if len(leads) > DEFAULT_BASIS_LIMIT:
            raise EngineLimit(f"basis grew past {DEFAULT_BASIS_LIMIT} elements")
        t = len(leads) - 1
        masks.append(support(t))
        for k in range(t):
            push(k, t)

    kept: list[int] = []
    # ascending leads: a divisor of a lead is examined before it
    for k in sorted(range(len(leads)), key=leads.__getitem__):
        if not any(not (leads[k] - leads[q]) & guard for q in kept):
            kept.append(k)
    return kept


def buchberger(
    gens, order: MonomialOrder, grading: tuple[int, ...] | None = None
) -> tuple[Polynomial, ...]:
    """Reduced basis: minimal, tail-reduced, monic, canonically sorted.

    `grading`, one positive weight per variable under which every
    generator is homogeneous, makes pairs come out degree first; the
    basis is the same with or without it.
    """
    gens = [f for f in gens if not f.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring
    basis = _Packed(ring.arity, ring.characteristic, order)
    for f in gens:
        basis.append(basis.pack(f.terms))
    kept = pair_loop(basis, grading)
    reduced = []
    for k in reversed(kept):
        # the lead is divisible by no other kept lead, so only the
        # tail reduces
        others = [q for q in kept if q != k]
        tail = basis.remainder(dict(basis.tails[k]), others)
        reduced.append(basis.polynomial(ring, k, tail.items()))
    return tuple(reduced)
