"""Buchberger's algorithm with the classical pair criteria.

Pending pairs sit in a heap keyed by the order's sort key of their lcm,
computed once when the pair is pushed, so the pair with the smallest
lcm comes out first; equal lcms break by the pair's indices, so the
run is deterministic.  A set of the same pairs serves the membership
test of the chain criterion; the coprime criterion needs only the
leads.  Both criteria hold for any selection order (Becker-Weispfenning,
*Groebner Bases*, ch. 5).  Reduced bases are monic, mutually fully
reduced, and sorted, hence unique per (ideal, order): equality of
ideals can be tested by comparing them, and the selection order never
shows in a result.  A process-wide cache keyed by (ring, generators,
order) backs all callers.
"""

from __future__ import annotations

import heapq

from .errors import EngineLimit
from .orders import MonomialOrder
from .poly import (
    Polynomial,
    PolyRing,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

DEFAULT_BASIS_LIMIT = 4000


def normal_form(
    f: Polynomial, basis, order: MonomialOrder | None = None
) -> Polynomial:
    """Full remainder of f against a list of nonzero polynomials."""
    ring = f.ring
    order = order or ring.order
    pairs = []
    for g in basis:
        if not g.is_zero():
            pairs.append((g.leading_monomial(order), g.leading_coefficient(order), g))
    p = ring.characteristic
    work = dict(f.terms)
    remainder: dict = {}
    while work:
        mu = max(work, key=order.sort_key)
        c = work[mu]
        for lt, lc, g in pairs:
            if monomial_divides(lt, mu):
                shift = monomial_div(mu, lt)
                factor = c * ring.coeff_inv(lc)
                if p:
                    factor %= p
                for e2, c2 in g.terms.items():
                    key = monomial_mul(e2, shift)
                    s = work.get(key, 0) - factor * c2
                    if p:
                        s %= p
                    if s == 0:
                        work.pop(key, None)
                    else:
                        work[key] = s
                break
        else:
            remainder[mu] = c
            del work[mu]
    return Polynomial(ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    ltf = f.leading_monomial(order)
    ltg = g.leading_monomial(order)
    common = monomial_lcm(ltf, ltg)
    a = f.mul_term(monomial_div(common, ltf), f.ring.coeff_inv(f.leading_coefficient(order)))
    b = g.mul_term(monomial_div(common, ltg), g.ring.coeff_inv(g.leading_coefficient(order)))
    return a - b


def buchberger(
    gens,
    order: MonomialOrder,
    limit: int = DEFAULT_BASIS_LIMIT,
) -> list[Polynomial]:
    basis: list[Polynomial] = []
    lts: list[tuple[int, ...]] = []
    single_term: list[bool] = []
    for f in gens:
        if f.is_zero():
            continue
        f = f.monic(order)
        basis.append(f)
        lts.append(f.leading_monomial(order))
        single_term.append(f.is_term())
    key = order.sort_key
    heap: list = []
    pending: set[tuple[int, int]] = set()

    def push(i: int, j: int) -> None:
        # the s-polynomial of two monic terms is identically zero
        if single_term[i] and single_term[j]:
            return
        lcm = monomial_lcm(lts[i], lts[j])
        heapq.heappush(heap, (key(lcm), i, j, lcm))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)

    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))

        if monomial_mul(lts[i], lts[j]) == lcm:
            continue  # coprime leads
        chained = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if monomial_divides(lts[k], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    chained = True
                    break
        if chained:
            continue

        remainder = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if remainder.is_zero():
            continue
        remainder = remainder.monic(order)
        basis.append(remainder)
        lts.append(remainder.leading_monomial(order))
        single_term.append(remainder.is_term())
        if len(basis) > limit:
            raise EngineLimit(f"basis grew past {limit} elements")
        t = len(basis) - 1
        for k in range(t):
            push(k, t)
    return basis


def reduce_basis(basis, order: MonomialOrder) -> tuple[Polynomial, ...]:
    """Minimal, tail-reduced, monic, canonically sorted basis."""
    items = [(g.leading_monomial(order), g) for g in basis if not g.is_zero()]
    items.sort(key=lambda it: order.sort_key(it[0]))
    kept: list[tuple[tuple[int, ...], Polynomial]] = []
    for lt, g in items:
        if any(monomial_divides(lt2, lt) for lt2, _ in kept):
            continue
        kept.append((lt, g))
    reduced = []
    for idx, (lt, g) in enumerate(kept):
        others = [h for k, (_, h) in enumerate(kept) if k != idx]
        reduced.append(normal_form(g, others, order).monic(order))
    reduced.sort(key=lambda p: order.sort_key(p.leading_monomial(order)), reverse=True)
    return tuple(reduced)


_CACHE: dict[tuple, tuple[Polynomial, ...]] = {}


def groebner_basis(
    ring: PolyRing,
    gens,
    order: MonomialOrder | None = None,
    limit: int = DEFAULT_BASIS_LIMIT,
) -> tuple[Polynomial, ...]:
    """Reduced basis of the ideal, cached per (ring, generators, order)."""
    order = order or ring.order
    live = [g for g in gens if not g.is_zero()]
    key = (ring.key, tuple(sorted(g.key() for g in live)), order.key)
    got = _CACHE.get(key)
    if got is None:
        got = _CACHE[key] = reduce_basis(buchberger(live, order, limit), order)
    return got
