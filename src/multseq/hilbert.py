"""Hilbert series, lengths, dimension, degree, minimal primes.

The series of a graded quotient is stored as an integer numerator over
(1-t)^arity.  Monomial ideals feed the combinatorial numerator engine
directly; other homogeneous ideals go through their initial ideal,
which has the same series.  `HilbertSeries.reduced` is the one
division by (1-t): the degree is the reduced numerator at 1, and a
length (of a quotient, or of a nested pair through the difference of
two numerators) is that value once every (1-t) has cancelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

from . import monomials as mo
from .errors import PreconditionError
from .ideals import Ideal, require_homogeneous


@dataclass(frozen=True)
class HilbertSeries:
    numerator: tuple[int, ...]
    denominator_exponent: int

    def expansion(self, upto: int) -> list[int]:
        """Coefficients of the series through degree `upto`."""
        n = self.denominator_exponent
        out = []
        for m in range(upto + 1):
            total = 0
            for k, c in enumerate(self.numerator):
                if k > m:
                    break
                total += c * math.comb(m - k + n - 1, n - 1) if n > 0 else (c if k == m else 0)
            out.append(total)
        return out

    def reduced(self) -> tuple[tuple[int, ...], int]:
        """Cancel (1-t) factors; returns (numerator, remaining exponent)."""
        numer = list(self.numerator)
        remaining = self.denominator_exponent
        while remaining > 0 and sum(numer) == 0:
            total = 0
            out = []
            for c in numer:
                total += c
                out.append(total)
            if out:
                out.pop()
            numer = out
            remaining -= 1
        while numer and numer[-1] == 0:
            numer.pop()
        return tuple(numer) if numer else (0,), remaining

    def length(self) -> int:
        """Value at 1 once every (1-t) cancels; infinite length raises."""
        numer, remaining = self.reduced()
        if remaining:
            raise PreconditionError("quotient has infinite length")
        return sum(numer)


def _packed_of(ideal: Ideal) -> tuple[mo.Layout, tuple[int, ...]]:
    lay = mo.layout(ideal.ring.arity)
    packed = ideal.packed()
    if packed is None:
        packed = ideal.initial_ideal().packed()
    return lay, packed


def hilbert_series(ideal: Ideal) -> HilbertSeries:
    """Series of the quotient by a homogeneous ideal."""
    require_homogeneous(ideal, "hilbert series")
    lay, packed = _packed_of(ideal)
    return HilbertSeries(mo.hilbert_numerator(lay, packed), lay.arity)


def length_subquotient(larger: Ideal, smaller: Ideal) -> int:
    """Length of larger/smaller for nested homogeneous ideals.

    Requires smaller to sit inside larger and the gap to have finite
    length; both are checked, the first directly, the second by the
    exactness of the series division.
    """
    require_homogeneous(larger, "length")
    require_homogeneous(smaller, "length")
    if not smaller.subset_of(larger):
        raise PreconditionError("length of a non-nested pair")
    big = hilbert_series(larger).numerator
    small = hilbert_series(smaller).numerator
    gap = tuple(a - b for a, b in zip_longest(small, big, fillvalue=0))
    return HilbertSeries(gap, larger.ring.arity).length()


def total_length(ideal: Ideal) -> int:
    """Length of the whole quotient; finite only for zero-dimensional ones."""
    require_homogeneous(ideal, "length")
    return hilbert_series(ideal).length()


def krull_dimension(ideal: Ideal) -> int:
    """Dimension of the quotient ring."""
    lay, packed = _packed_of(ideal)
    if mo.is_unit(packed):
        raise PreconditionError("dimension of the zero ring")
    return mo.dimension(lay, packed)


def quotient_degree(ideal: Ideal) -> int:
    """Multiplicity (degree) of the quotient by a homogeneous ideal."""
    require_homogeneous(ideal, "degree")
    series = hilbert_series(ideal)
    if series.numerator == (0,):
        raise PreconditionError("degree of the zero ring")
    return sum(series.reduced()[0])


def minimal_primes_monomial(ideal: Ideal) -> list[tuple[int, ...]]:
    """Minimal primes of a monomial ideal, as sorted variable-index tuples."""
    packed = ideal.packed()
    if packed is None:
        raise PreconditionError("minimal primes need a monomial ideal")
    if mo.is_unit(packed):
        raise PreconditionError("unit ideal has no primes")
    lay = mo.layout(ideal.ring.arity)
    return [tuple(sorted(s)) for s in mo.minimal_primes(lay, packed)]
