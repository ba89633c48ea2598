"""Monomial orders on exponent tuples.

Four kinds are supported: degree-reverse-lexicographic (the default
everywhere), lexicographic, a two-block elimination order that compares
the first `block` coordinates grevlex-first (so eliminating the leading
block of variables is a matter of discarding basis elements whose lead
involves them), and a weight order that compares the nonnegative weight
w·a first and breaks ties by grevlex.  An elimination order may carry
weights on its trailing block, which it then orders as the weight
order does: on monomials free of the eliminated block it is that
weight order, so one basis eliminates the block and leaves a basis of
the elimination ideal under w.

Every order here is a nonnegative matrix order (Robbiano, EUROCAL
1985): nonnegative integer `rows`, the most significant first, such
that a < b exactly when the row values of a are lexicographically
smaller than those of b.  Each order is stated once, by `_shape`:
consecutive blocks of variables, each with an optional weight row on
its own variables and then ordered grevlex, by the block's prefix sums,
longest first ((Σa, Σa − a_n, ..., a_1) for one block of all n
variables).
- grevlex: one block;
- lex: one block per variable, so the rows are the identity;
- block: the eliminated leading block, then the rest, weighted or not;
- weight: one weighted block.
`rows` spells the shape out as a matrix, which `groebner` packs into
one integer word per monomial, and `sort_key` evaluates it on one
exponent tuple, for `sorted`, `max` and heaps.  The comparison written
out per kind, in `tests/oracles.py`, is the independent statement the
tests hold both to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul

GREVLEX = "grevlex"
LEX = "lex"
BLOCK = "block"
WEIGHT = "weight"


@dataclass(frozen=True)
class MonomialOrder:
    kind: str = GREVLEX
    block: int | None = None  # size of the eliminated leading block
    # weight kind: one per variable; block kind, optionally: one per
    # variable of the trailing block
    weights: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (GREVLEX, LEX, BLOCK, WEIGHT):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == BLOCK:
            if not isinstance(self.block, int) or self.block < 1:
                raise ValueError("block order needs a positive block size")
        elif self.block is not None:
            raise ValueError(f"{self.kind} order takes no block size")
        if self.kind == WEIGHT or (self.kind == BLOCK and self.weights is not None):
            # nonnegative weights keep 1 the smallest monomial
            if not isinstance(self.weights, tuple) or any(
                not isinstance(w, int) or w < 0 for w in self.weights
            ):
                raise ValueError(f"{self.kind} order needs a tuple of nonnegative ints")
        elif self.weights is not None:
            raise ValueError(f"{self.kind} order takes no weights")

    def rows(self, arity: int) -> tuple[tuple[int, ...], ...]:
        """The order's rows on `arity` variables, most significant first."""
        rows = []
        for lo, hi, weights in self._shape(arity):
            if weights:
                rows.append((0,) * lo + weights + (0,) * (arity - hi))
            # Σa over the block first; on equal degree a smaller last
            # exponent wins, then a smaller one before it, ...
            rows += [
                (0,) * lo + (1,) * k + (0,) * (arity - lo - k)
                for k in range(hi - lo, 0, -1)
            ]
        return tuple(rows)

    def sort_key(self, exps: tuple[int, ...]) -> tuple:
        """Row values of exps: a tuple ordered as the order orders exponents."""
        key = []
        for lo, hi, weights in self._shape(len(exps)):
            block = exps[lo:hi]
            if weights:
                key.append(sum(map(mul, weights, block)))
            key += reversed(tuple(accumulate(block)))
        return tuple(key)

    def _shape(self, n: int) -> tuple:
        """Consecutive blocks (lo, hi, weights or None) of n variables.

        Each block is its weight row, if any, then its grevlex rows; the
        weights, if any, belong to the last block.
        """
        cuts = (0, n)
        if self.kind == LEX:
            cuts = tuple(range(n + 1))
        elif self.kind == BLOCK:
            cuts = (0, min(self.block, n), n)
        blocks = [(lo, hi, None) for lo, hi in zip(cuts, cuts[1:])]
        if self.weights is not None:
            lo, hi, _ = blocks[-1]
            if len(self.weights) != hi - lo:
                raise ValueError("exponent tuple and weights of different arity")
            blocks[-1] = (lo, hi, self.weights)
        return tuple(block for block in blocks if block[0] < block[1])

    @property
    def key(self) -> tuple:
        return (self.kind, self.block, self.weights)


def grevlex() -> MonomialOrder:
    return MonomialOrder(GREVLEX)


def lex() -> MonomialOrder:
    return MonomialOrder(LEX)


def elimination_order(block: int, weights=None) -> MonomialOrder:
    """Order eliminating the first `block` variables.

    `weights`, one per later variable, order those by the largest w·a
    first, then grevlex, as `weight_order(weights)` does.
    """
    return MonomialOrder(BLOCK, block, None if weights is None else tuple(weights))


def weight_order(weights) -> MonomialOrder:
    """Largest weight w·a leads; grevlex breaks ties."""
    return MonomialOrder(WEIGHT, weights=tuple(weights))
