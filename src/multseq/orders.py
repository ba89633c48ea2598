"""Monomial orders on exponent tuples.

Every order here has one shape: a leading block of `block` ≥ 0
variables, compared grevlex-first, so eliminating the block is a matter
of discarding basis elements whose lead involves it; then the trailing
block, ordered grevlex, optionally after a nonnegative weight row w·a on
its own variables.  `block` 0 and no weights is grevlex, the order of
every ideal's basis; a weighted trailing block under an eliminated one
is the order of the Rees presentation in `multiplicity`, and on
monomials free of the block it is that weight order, so one basis
eliminates the block and leaves a basis of the elimination ideal under
w.

Every such order is a nonnegative matrix order (Robbiano, EUROCAL
1985): nonnegative integer `rows`, the most significant first, such
that a < b exactly when the row values of a are lexicographically
smaller than those of b.  `_shape` states the order once, as its
nonempty blocks of consecutive variables, each with an optional weight
row on its own variables and then ordered grevlex, by the block's
prefix sums, longest first ((Σa, Σa − a_n, ..., a_1) for one block of
all n variables).  `rows` spells the shape out as a matrix, which
`groebner` packs into one integer word per monomial, and `sort_key`
evaluates it on one exponent tuple, for `sorted`, `max` and heaps.  The
comparison written out on (block, weights), in `tests/oracles.py`, is
the independent statement the tests hold both to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul


@dataclass(frozen=True)
class MonomialOrder:
    block: int = 0  # size of the eliminated leading block
    # optionally, one per variable of the trailing block
    weights: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.block, int) or self.block < 0:
            raise ValueError("the eliminated block needs a nonnegative size")
        # nonnegative weights keep 1 the smallest monomial
        if self.weights is not None and (
            not isinstance(self.weights, tuple)
            or any(not isinstance(w, int) or w < 0 for w in self.weights)
        ):
            raise ValueError("weights must be a tuple of nonnegative ints")

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
        """The nonempty blocks (lo, hi, weights or None) of n variables:
        the eliminated one, then the trailing one with the weights."""
        cut = min(self.block, n)
        if self.weights is not None and len(self.weights) != n - cut:
            raise ValueError("exponent tuple and weights of different arity")
        blocks = ((0, cut, None), (cut, n, self.weights))
        return tuple(block for block in blocks if block[0] < block[1])


def grevlex() -> MonomialOrder:
    return MonomialOrder()


def elimination_order(block: int, weights=None) -> MonomialOrder:
    """Order eliminating the first `block` variables.

    `weights`, one per later variable, order those by the largest w·a
    first, then grevlex.
    """
    return MonomialOrder(block, None if weights is None else tuple(weights))
