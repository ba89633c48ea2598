"""Shared builders for the test suite."""

from __future__ import annotations

from multseq import CyclicModule, Ideal, PolyRing, parse_polynomial


def ring(*names: str, char: int = 0) -> PolyRing:
    return PolyRing(tuple(names), char)


def poly(r: PolyRing, text: str):
    return parse_polynomial(r, text)


def ideal(r: PolyRing, *gens: str) -> Ideal:
    return Ideal(r, [parse_polynomial(r, g) for g in gens])


def module(r: PolyRing, *relations: str, equidimensional: bool = False) -> CyclicModule:
    return CyclicModule(r, ideal(r, *relations), equidimensional)
