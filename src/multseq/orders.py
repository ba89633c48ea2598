"""Monomial orders on exponent tuples.

An order compares exponent tuples of equal arity and returns -1/0/+1,
and `sort_key` maps a tuple to a plain tuple that Python orders the
same way, for `sorted`, `max` and heaps.  Four kinds are supported:
degree-reverse-lexicographic (the default everywhere), lexicographic,
a two-block elimination order that compares the first `block`
coordinates grevlex-first (so eliminating the leading block of
variables is a matter of discarding basis elements whose lead involves
them), and a weight order that compares the nonnegative weight w·a
first and breaks ties by grevlex.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, neg

GREVLEX = "grevlex"
LEX = "lex"
BLOCK = "block"
WEIGHT = "weight"


def _cmp_grevlex(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    for i in range(len(a) - 1, -1, -1):
        if a[i] != b[i]:
            # smaller exponent in the latest differing slot wins
            return 1 if a[i] < b[i] else -1
    return 0


def _grevlex_key(a: tuple[int, ...]) -> tuple:
    # the smaller exponent in the latest differing slot wins
    return (sum(a), tuple(map(neg, a[::-1])))


def _cmp_lex(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


@dataclass(frozen=True)
class MonomialOrder:
    kind: str = GREVLEX
    block: int | None = None  # size of the eliminated leading block
    weights: tuple[int, ...] | None = None  # one per variable, weight kind only

    def __post_init__(self) -> None:
        if self.kind not in (GREVLEX, LEX, BLOCK, WEIGHT):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == BLOCK:
            if not isinstance(self.block, int) or self.block < 1:
                raise ValueError("block order needs a positive block size")
        elif self.block is not None:
            raise ValueError(f"{self.kind} order takes no block size")
        if self.kind == WEIGHT:
            # nonnegative weights keep 1 the smallest monomial
            if not isinstance(self.weights, tuple) or any(
                not isinstance(w, int) or w < 0 for w in self.weights
            ):
                raise ValueError("weight order needs a tuple of nonnegative ints")
        elif self.weights is not None:
            raise ValueError(f"{self.kind} order takes no weights")

    def compare(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """Return +1 if a is larger, -1 if b is larger, 0 if equal."""
        if len(a) != len(b):
            raise ValueError("exponent tuples of different arity")
        if self.kind == GREVLEX:
            return _cmp_grevlex(a, b)
        if self.kind == LEX:
            return _cmp_lex(a, b)
        if self.kind == WEIGHT:
            if len(a) != len(self.weights):
                raise ValueError("exponent tuple and weights of different arity")
            wa = sum(w * x for w, x in zip(self.weights, a))
            wb = sum(w * x for w, x in zip(self.weights, b))
            if wa != wb:
                return 1 if wa > wb else -1
            return _cmp_grevlex(a, b)
        k = self.block
        c = _cmp_grevlex(a[:k], b[:k])
        if c:
            return c
        return _cmp_grevlex(a[k:], b[k:])

    def sort_key(self, exps: tuple[int, ...]) -> tuple:
        """Plain tuple ordered as `compare` orders exponent tuples."""
        if self.kind == GREVLEX:
            return _grevlex_key(exps)
        if self.kind == LEX:
            return exps
        if self.kind == WEIGHT:
            return (sum(map(mul, self.weights, exps)), _grevlex_key(exps))
        k = self.block
        return (_grevlex_key(exps[:k]), _grevlex_key(exps[k:]))

    @property
    def key(self) -> tuple:
        return (self.kind, self.block, self.weights)


def grevlex() -> MonomialOrder:
    return MonomialOrder(GREVLEX)


def lex() -> MonomialOrder:
    return MonomialOrder(LEX)


def elimination_order(block: int) -> MonomialOrder:
    """Order eliminating the first `block` variables."""
    return MonomialOrder(BLOCK, block)


def weight_order(weights) -> MonomialOrder:
    """Largest weight w·a leads; grevlex breaks ties."""
    return MonomialOrder(WEIGHT, weights=tuple(weights))
