"""Slow independent routes the tests hold the engine to.

No production path calls any of these.  Each is built from public
engine names only (`Ideal` operations, the packed monomial kernel,
and `multiplicity_sequence` for a pair's sequence and the Q(s, t) its
table keeps), never from a `_`-prefixed one, so its independence shows
in its imports:

- `component_length` counts the (i, j) piece of the doubly filtered
  module as the length of two nested ideals, the per-cell route the
  tables are checked against;
- `hilbert_table`, `components`, `values` and `h` divide a table's
  Q(s, t) out into a grid, and `extract_top_coefficients` reads the
  certificate off its corner window: the grid route
  `multiplicity_sequence` is held to;
- `classical_multiplicity` reads c_0 of a finite-colength pair off
  colength differences;
- `localize` restricts a monomial pair to the polynomial ring of a
  variable prime, and `local_c0` reads the leading entry of the
  localized pair's sequence;
- `hilbert_series` collapses the bigraded numerator to one grading,
  and `expansion`, `length`, `length_subquotient`, `total_length` and
  `quotient_degree` read off it;
- `minimal_primes_monomial` finds the minimal primes of a monomial
  ideal by brute force over variable subsets;
- `power`, `polynomial_power`, `leading_coefficient` and `mul_term`
  are the ideal and polynomial powers and the term arithmetic that
  only the tests use;
- `equals` compares two ideals by their reduced bases, and
  `monomial_colon`, `colon_ideal` and `saturate_by_colons` take
  colons, and the saturation as the last colon of the rising chain
  A : B^n, the route the elimination of `Ideal.saturate` is held to;
- `s_polynomial` and `compare` state the S-polynomial and the monomial
  orders on exponent tuples, for the packed Gröbner kernel and
  `MonomialOrder.sort_key`;
- `is_reduction` scans n = 0..n_max for the least n with
  J^(n+1)M = I·J^nM, the direct route the exact reduction number of
  `rees_criterion` is held to, and `sequences_equal` compares the two
  sequences of a reduction report;
- `reference_parse_terms` is the polynomial reader as a recursive
  descent with a cursor and peek/take lookahead, the route the one
  loop of `parse_terms` is held to, message for message.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction
from itertools import zip_longest

from multseq import (
    CyclicModule,
    HilbertSeries,
    Ideal,
    ParseError,
    PolyRing,
    PreconditionError,
    grevlex,
    krull_dimension,
    multiplicity_sequence,
)
from multseq import monomials as mo
from multseq.ideals import require_homogeneous
from multseq.multiplicity import WINDOW_WIDTH
from multseq.poly import add_term, monomial_div

# -- powers and terms -----------------------------------------------------


def power(ideal: Ideal, n: int) -> Ideal:
    """I^n, one factor at a time; I^0 is the unit ideal."""
    if n < 0:
        raise ValueError("negative ideal power")
    out = Ideal(ideal.ring, [ideal.ring.one()])
    for _ in range(n):
        out = out.multiply(ideal)
    return out


def leading_coefficient(f, order=grevlex()):
    return f.terms[f.leading_monomial(order)]


def polynomial_power(f, n: int):
    """f^n by repeated squaring; f^0 is 1."""
    if n < 0:
        raise ValueError("negative power")
    result = f.ring.one()
    while n:
        if n & 1:
            result = result * f
        f = f * f if n > 1 else f
        n >>= 1
    return result


def mul_term(f, exponents: tuple[int, ...], coefficient):
    """f times the term coefficient * x^exponents."""
    return f * f.ring.monomial(exponents, coefficient)


# -- equality, colons and saturation -------------------------------------


def equals(a: Ideal, b: Ideal) -> bool:
    """Same ring, and the same minimal monomial words or reduced basis."""
    if a.ring != b.ring:
        return False
    pa, pb = a.packed(), b.packed()
    if pa is not None and pb is not None:
        return pa == pb
    return [f.key() for f in a.groebner()] == [g.key() for g in b.groebner()]


def monomial_colon(lay, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a) : (b) on packed words, intersecting over the generators of b."""
    if not b:
        raise ValueError("colon by the zero ideal")
    result = mo.colon_monomial(lay, a, b[0])
    for w in b[1:]:
        result = mo.intersect(lay, result, mo.colon_monomial(lay, a, w))
    return result


def colon_ideal(a: Ideal, b: Ideal) -> Ideal:
    """(a : b), intersecting the colons by the generators of b."""
    if b.is_zero():
        raise ValueError("colon by the zero ideal")
    pa, pb = a.packed(), b.packed()
    if pa is not None and pb is not None:
        lay = mo.layout(a.ring.arity)
        return Ideal.from_packed(a.ring, monomial_colon(lay, pa, pb))
    result = a.colon_poly(b.gens[0])
    for g in b.gens[1:]:
        result = result.intersect(a.colon_poly(g))
    return result


def saturate_by_colons(a: Ideal, b: Ideal) -> Ideal:
    """(a : b^∞), where the chain a : b^n stops rising."""
    current = a
    while True:
        widened = colon_ideal(current, b)
        if equals(widened, current):
            return current
        current = widened


# -- bigraded components --------------------------------------------------


def component_ideal(ideal, module, i: int, j: int) -> Ideal:
    """m^i I^j + I^(j+1) + K, the numerator ideal of the (i, j) piece."""
    ring = ideal.ring
    m_i = power(Ideal(ring, [ring.variable(name) for name in ring.variables]), i)
    return (
        m_i.multiply(power(ideal, j))
        .add(power(ideal, j + 1))
        .add(module.relations)
    )


def component_length(ideal, module, i: int, j: int) -> int:
    """Length of the (i, j) piece of the doubly filtered module.

    Multiplying the numerator by every variable lands in the
    denominator, so the piece is a finite-dimensional vector space and
    the series difference is a polynomial.
    """
    if i < 0 or j < 0:
        raise ValueError("negative filtration index")
    larger = component_ideal(ideal, module, i, j)
    smaller = component_ideal(ideal, module, i + 1, j)
    return length_subquotient(larger, smaller)


# -- tables ---------------------------------------------------------------


def hilbert_table(ideal, module, umax: int, vmax: int):
    """The pair's table, cut at (umax, vmax).

    It keeps the Q(s, t) of the table `multiplicity_sequence` returns;
    only the shape differs.
    """
    return replace(multiplicity_sequence(ideal, module)[1], umax=umax, vmax=vmax)


def components(table) -> tuple[tuple[int, ...], ...]:
    """The cells of Q(s, t) / ((1-s)^n (1-t)^r) up to (umax, vmax)."""
    grid = [[0] * (table.vmax + 1) for _ in range(table.umax + 1)]
    for (p, q), c in table.numerator.items():
        if p <= table.umax and q <= table.vmax:
            grid[p][q] = c
    # dividing by (1-s) or (1-t) is a running sum down or across
    for _ in range(table.n):
        sum_down(grid)
    for _ in range(table.r):
        grid = [list(itertools.accumulate(row)) for row in grid]
    return tuple(map(tuple, grid))


def values(table) -> tuple[tuple[int, ...], ...]:
    """h(u, v) for u <= umax, v <= vmax: the cells summed each way."""
    grid = [list(row) for row in components(table)]
    sum_down(grid)
    return tuple(tuple(itertools.accumulate(row)) for row in grid)


def h(table, u: int, v: int) -> int:
    return values(table)[u][v]


def sum_down(grid: list[list[int]]) -> None:
    for above, row in zip(grid, grid[1:]):
        for j, c in enumerate(above):
            row[j] += c


# -- extraction -----------------------------------------------------------


def diff_u(grid: list[list[int]]) -> list[list[int]]:
    return [
        [grid[u][v] - grid[u - 1][v] for v in range(len(grid[0]))]
        for u in range(1, len(grid))
    ]


def diff_v(grid: list[list[int]]) -> list[list[int]]:
    return [[row[v] - row[v - 1] for v in range(1, len(row))] for row in grid]


def window_cells(grid: list[list[int]], width: int) -> list[int]:
    return [c for row in grid[-width:] for c in row[-width:]]


def extract_top_coefficients(
    values, degree: int, width: int = WINDOW_WIDTH
) -> tuple[list[int] | None, dict]:
    """Read the normalized top coefficients of a table of a polynomial.

    For a table of h(u, v) agreeing with a polynomial of total degree
    `degree` near the top corner, the mixed difference of order (k,
    degree-k) is constant there and equals k!(degree-k)! times the
    u^k v^(degree-k) coefficient.  Returns (entries, diagnostics); the
    entries are None unless every window is constant and every
    difference of order degree+1 vanishes on the window.
    """
    umax = len(values) - 1
    vmax = len(values[0]) - 1
    if umax < degree + width or vmax < degree + width:
        raise ValueError("table too small for the requested window")
    # a difference of order (a, b) on the window reaches back a + width
    # rows and b + width columns, and a + b <= degree + 1
    reach = degree + 1 + width
    grid = [list(row[-reach:]) for row in values[-reach:]]
    diffs: dict[tuple[int, int], list[list[int]]] = {(0, 0): grid}
    for a in range(degree + 2):
        for b in range(degree + 2 - a):
            if (a, b) in diffs:
                continue
            if a and (a - 1, b) in diffs:
                diffs[(a, b)] = diff_u(diffs[(a - 1, b)])
            else:
                diffs[(a, b)] = diff_v(diffs[(a, b - 1)])
    entries: list[int] = []
    stable = True
    residuals: dict[str, list[int]] = {}
    for k in range(degree + 1):
        cells = window_cells(diffs[(k, degree - k)], width)
        if len(set(cells)) != 1:
            stable = False
            residuals[f"order ({k},{degree - k})"] = cells
        entries.append(cells[-1])
    for a in range(degree + 2):
        b = degree + 1 - a
        cells = window_cells(diffs[(a, b)], width)
        if any(cells):
            stable = False
            residuals[f"order ({a},{b})"] = cells
    return (entries if stable else None), residuals


# -- classical multiplicity ----------------------------------------------


def classical_multiplicity(ideal, module) -> int:
    """Leading normalized coefficient of n -> length of M/I^(n+1)M.

    Needs finite colength; computed as the eventually constant d-th
    finite difference, certified over a window like the tables are.
    """
    joined = ideal.add(module.relations)
    if krull_dimension(joined) != 0:
        raise PreconditionError("ideal does not have finite colength on the module")
    d = module.dim
    width = WINDOW_WIDTH
    # values of the colength function read before giving up
    longest = 96
    count = d + width + 3
    while True:
        colengths = [
            total_length(power(ideal, n + 1).add(module.relations))
            for n in range(count + 1)
        ]
        diffs = colengths
        for _ in range(d):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        window = diffs[-width:]
        if len(window) == width and len(set(window)) == 1:
            e = window[0]
            if e <= 0:
                raise RuntimeError(f"nonpositive multiplicity {e}: engine bug")
            return e
        count = math.ceil(count * 1.5)
        if count > longest:
            raise AssertionError("colength differences failed to stabilize")


# -- localization at variable primes --------------------------------------


def localize(ideal, module, variables: tuple[str, ...]):
    """The monomial pair at the prime generated by `variables`.

    The variables outside the prime become units, so each generator
    forgets their exponents; the local pair lives in the polynomial
    ring of the prime's variables.  A module whose relations leave the
    prime localizes to zero, which `CyclicModule` rejects.
    """
    ring = ideal.ring
    ip, kp = ideal.packed(), module.relations.packed()
    if ip is None or kp is None:
        raise PreconditionError("localization needs monomial generators")
    keep = tuple(ring.variables.index(v) for v in variables)
    sub = PolyRing(tuple(variables), ring.characteristic)
    lay = mo.layout(ring.arity)
    local_i = Ideal.from_packed(sub, mo.restrict(lay, ip, keep))
    local_k = Ideal.from_packed(sub, mo.restrict(lay, kp, keep))
    return local_i, CyclicModule(sub, local_k)


def local_c0(ideal, module, variables: tuple[str, ...]) -> int:
    """c_0 of the pair localized at the prime; 0 where I is a unit there."""
    local_i, local_m = localize(ideal, module, variables)
    if not local_i.is_proper() or local_i.is_zero():
        return 0
    seq, _ = multiplicity_sequence(local_i, local_m)
    return seq.entries[0]


# -- single-graded series -------------------------------------------------


def hilbert_series(ideal) -> HilbertSeries:
    """Series of the quotient by a homogeneous ideal.

    Monomial ideals are read directly, others through their initial
    ideal, which has the same series.  With every variable of degree
    (1, 0) the bigraded numerator has only t^0 terms, and its s-part
    is the numerator over (1-t)^arity.
    """
    require_homogeneous(ideal, "hilbert series")
    packed = ideal.packed()
    if packed is None:
        packed = ideal.initial_ideal().packed()
    lay = mo.layout(ideal.ring.arity)
    numer = mo.bigraded_numerator(lay, packed, lay.arity)
    flat = [0] * (1 + max((p for p, _ in numer), default=0))
    for (p, _), c in numer.items():
        flat[p] = c
    return HilbertSeries(tuple(flat), lay.arity)


def expansion(series: HilbertSeries, upto: int) -> list[int]:
    """Coefficients of the series through degree `upto`."""
    n = series.denominator_exponent
    out = []
    for m in range(upto + 1):
        total = 0
        for k, c in enumerate(series.numerator):
            if k > m:
                break
            if n > 0:
                total += c * math.comb(m - k + n - 1, n - 1)
            elif k == m:
                total += c
        out.append(total)
    return out


def length(series: HilbertSeries) -> int:
    """Value at 1 once every (1-t) cancels; infinite length raises."""
    numer, remaining = series.reduced()
    if remaining:
        raise PreconditionError("quotient has infinite length")
    return sum(numer)


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
    return length(HilbertSeries(gap, larger.ring.arity))


def total_length(ideal: Ideal) -> int:
    """Length of the whole quotient; finite only for zero-dimensional ones."""
    return length(hilbert_series(ideal))


def quotient_degree(ideal: Ideal) -> int:
    """Multiplicity (degree) of the quotient by a homogeneous ideal."""
    series = hilbert_series(ideal)
    if series.numerator == (0,):
        raise PreconditionError("degree of the zero ring")
    return sum(series.reduced()[0])


def minimal_primes_monomial(ideal: Ideal) -> list[tuple[int, ...]]:
    """Minimal primes of a monomial ideal, as sorted variable-index tuples.

    A brute force over variable subsets: a subset generates a prime over
    the ideal when every generator has one of its variables, and the
    minimal ones contain no other.  Listed by size, then in
    `itertools.combinations` order.
    """
    packed = ideal.packed()
    if packed is None:
        raise PreconditionError("minimal primes need a monomial ideal")
    if mo.is_unit(packed):
        raise PreconditionError("unit ideal has no primes")
    n = ideal.ring.arity
    gens = [mo.unpack(mo.layout(n), w) for w in packed]
    covers = [
        subset
        for size in range(n + 1)
        for subset in itertools.combinations(range(n), size)
        if all(any(e[v] for v in subset) for e in gens)
    ]
    return [s for s in covers if not any(set(c) < set(s) for c in covers)]


# -- Gröbner bases and orders on exponent tuples -------------------------


def s_polynomial(f, g, order):
    ltf = f.leading_monomial(order)
    ltg = g.leading_monomial(order)
    common = tuple(map(max, ltf, ltg))
    a = mul_term(
        f, monomial_div(common, ltf), f.ring.coeff_inv(leading_coefficient(f, order))
    )
    b = mul_term(
        g, monomial_div(common, ltg), g.ring.coeff_inv(leading_coefficient(g, order))
    )
    return a - b


def compare(order, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """+1 if a is larger under `order`, -1 if b is larger, 0 if equal."""
    if len(a) != len(b):
        raise ValueError("exponent tuples of different arity")
    k = order.block
    # the weights cover the trailing block, all of a when k is 0
    if order.weights is not None and len(a[k:]) != len(order.weights):
        raise ValueError("exponent tuple and weights of different arity")
    # the eliminated block first, grevlex; an empty one ties
    c = _grevlex(a[:k], b[:k])
    if c:
        return c
    if order.weights is None:
        return _grevlex(a[k:], b[k:])
    return _weighted(order.weights, a[k:], b[k:])


def _grevlex(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    for i in range(len(a) - 1, -1, -1):
        if a[i] != b[i]:
            # smaller exponent in the latest differing slot wins
            return 1 if a[i] < b[i] else -1
    return 0


def _weighted(weights: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...]) -> int:
    wa = sum(w * x for w, x in zip(weights, a))
    wb = sum(w * x for w, x in zip(weights, b))
    if wa != wb:
        return 1 if wa > wb else -1
    return _grevlex(a, b)


# -- reduction ------------------------------------------------------------


def is_reduction(small: Ideal, large: Ideal, module, n_max: int) -> int | None:
    """Least n with (J^(n+1) + K) = (I·J^n + K), or None past n_max."""
    if small.ring != large.ring or small.ring != module.ring:
        raise ValueError("ideals and module from different rings")
    require_homogeneous(small, "reduction testing")
    require_homogeneous(large, "reduction testing")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not small.subset_of(large):
        raise PreconditionError("the candidate reduction is not contained in the ideal")
    if not large.is_proper() or large.is_zero():
        raise PreconditionError("reduction testing needs a proper nonzero ideal")
    k = module.relations

    def equal_at(lower: Ideal, upper: Ideal) -> bool:
        """J^(n+1) + K = I·J^n + K, given J^n and J^(n+1)."""
        return equals(upper.add(k), small.multiply(lower).add(k))

    lower = power(large, 0)  # J^n
    for n in range(n_max + 1):
        upper = lower.multiply(large)
        if equal_at(lower, upper):
            # equality propagates upward; one step is a cheap engine check
            if not equal_at(upper, upper.multiply(large)):
                raise RuntimeError(f"reduction equality at {n} failed to propagate")
            return n
        lower = upper
    return None


def sequences_equal(report) -> bool:
    return report.sequence_small.entries == report.sequence_large.entries


# -- polynomial text ------------------------------------------------------

TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op>[-+*/^()]))"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class ReferenceParser:
    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return (None, "", len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def integer(self, digits: str, offset: int) -> int:
        try:
            return int(digits)
        except ValueError:  # past the interpreter's digit limit
            raise ParseError(f"{len(digits)}-digit integer too long", offset) from None

    def parse(self) -> dict:
        if not self.tokens:
            raise ParseError("empty polynomial", 0)
        terms: dict = {}
        p = self.ring.characteristic
        sign = 1
        kind, value, offset = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            sign = -1 if value == "-" else 1
        while True:
            exponents, coefficient = self.term(sign)
            add_term(terms, exponents, self.ring.coeff(coefficient), p)
            kind, value, offset = self.peek()
            if kind is None:
                return terms
            if kind == "op" and value in "+-":
                self.take()
                sign = -1 if value == "-" else 1
                continue
            raise ParseError(f"expected + or - before {value!r}", offset)

    def term(self, sign: int) -> tuple[tuple[int, ...], Fraction]:
        num, den = sign, 1
        exponents = [0] * self.ring.arity
        saw_anything = False
        kind, value, offset = self.peek()
        if kind == "int":
            self.take()
            num *= self.integer(value, offset)
            kind2, value2, offset2 = self.peek()
            if kind2 == "op" and value2 == "/":
                self.take()
                kind3, value3, offset3 = self.peek()
                if kind3 != "int":
                    raise ParseError("expected denominator digits", offset3)
                self.take()
                den = self.integer(value3, offset3)
                if den == 0:
                    raise ParseError("zero denominator", offset3)
                p = self.ring.characteristic
                if p and Fraction(num, den).denominator % p == 0:
                    raise ParseError("denominator vanishes in prime field", offset3)
            saw_anything = True
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value == "*":
                self.take()
                kind, value, offset = self.peek()
                if kind != "name":
                    raise ParseError("expected variable after *", offset)
            if kind != "name":
                break
            self.take()
            try:
                var_index = self.ring.variables.index(value)
            except ValueError:
                raise ParseError(f"unknown variable {value!r}", offset) from None
            power = 1
            kind2, value2, offset2 = self.peek()
            if kind2 == "op" and value2 == "^":
                self.take()
                kind3, value3, offset3 = self.peek()
                if kind3 != "int":
                    raise ParseError("expected exponent digits", offset3)
                self.take()
                power = self.integer(value3, offset3)
            exponents[var_index] += power
            saw_anything = True
        if not saw_anything:
            raise ParseError("expected coefficient or variable", offset)
        return tuple(exponents), Fraction(num, den)


def reference_parse_terms(ring: PolyRing, text: str) -> dict:
    """{exponents: coefficient} of the polynomial, by recursive descent."""
    return ReferenceParser(ring, text).parse()
