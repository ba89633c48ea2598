"""Hilbert series numerators and Krull dimension.

The series of a graded quotient is stored as an integer numerator over
(1-t)^arity.  `HilbertSeries.reduced` is the one division by (1-t):
the exponent it leaves is the dimension, which the analytic spread
reads off the fiber's series, and when it leaves none the numerator
at 1 is the length, which `localization` reads for a monomial ideal
primary to the maximal ideal.  `krull_dimension` reads a monomial
ideal directly and any other homogeneous ideal through its initial
ideal, which has the same series.  The series of any homogeneous
quotient, and the lengths and degree read off it, are test oracles in
`tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import monomials as mo
from .errors import PreconditionError
from .ideals import Ideal


@dataclass(frozen=True)
class HilbertSeries:
    numerator: tuple[int, ...]
    denominator_exponent: int

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


def krull_dimension(ideal: Ideal) -> int:
    """Dimension of the quotient ring."""
    lay = mo.layout(ideal.ring.arity)
    packed = ideal.packed()
    if packed is None:
        packed = ideal.initial_ideal().packed()
    if mo.is_unit(packed):
        raise PreconditionError("dimension of the zero ring")
    return mo.dimension(lay, packed)
