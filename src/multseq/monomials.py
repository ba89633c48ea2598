"""Combinatorics of monomial ideals on packed exponent vectors.

A monomial is packed into one int of equal lanes: one per variable,
holding its exponent, and above them one per row of a nonnegative
integer matrix, holding that row's value on the exponents, with the
first row in the top lane.  The word of a is then sum(a_i * step_i),
so the word of a product is the sum of the words, and a | b is a
single subtraction against a mask of each lane's top (guard) bit.
Comparing words as integers compares the row values
lexicographically, then the exponents from the last variable down.

`layout(arity)` has 16-bit lanes and the single row (1, ..., 1), the
total degree, so ascending words are ascending degrees; every function
below takes and returns words of such a layout, and `minimalize` reads
the degree off the top lane to compare a word only with words of lower
degree.  Ideals are canonical sorted tuples of packed minimal
generators.  Lane values must stay below the guard bit, 2^15 here, so
lane borrows are detectable; `pack` and `multiply` raise `EngineLimit`
past that.
`groebner` packs with an order's rows and wider lanes.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import mul, or_

from .errors import EngineLimit

LANE_BITS = 16
MAX_EXPONENT = (1 << (LANE_BITS - 1)) - 1


class Layout:
    """Packing geometry: arity, rows (most significant first), lane width."""

    __slots__ = (
        "arity", "rows", "lane_mask", "max_lane", "safe_degree",
        "top_shift", "guard", "var_steps", "var_shifts",
    )

    def __init__(self, arity: int, rows=None, lane_bits: int = LANE_BITS):
        rows = ((1,) * arity,) if rows is None else tuple(map(tuple, rows))
        if any(len(row) != arity or min(row, default=0) < 0 for row in rows):
            raise ValueError("rows must be nonnegative and of the layout's arity")
        self.arity = arity
        self.rows = rows
        self.lane_mask = (1 << lane_bits) - 1
        self.max_lane = (1 << (lane_bits - 1)) - 1
        # below this degree no lane can pass max_lane, so `pack` skips
        # computing the rows
        entry = max((max(row, default=0) for row in rows), default=0)
        self.safe_degree = self.max_lane // max(entry, 1)
        lanes = arity + len(rows)
        self.top_shift = lane_bits * (lanes - 1)
        guard = 0
        for lane in range(lanes):
            guard |= (self.max_lane + 1) << (lane_bits * lane)
        self.guard = guard
        self.var_shifts = tuple(lane_bits * v for v in range(arity))
        # row k sits in lane arity + len(rows) - 1 - k
        row_shifts = [lane_bits * (lanes - 1 - k) for k in range(len(rows))]
        self.var_steps = tuple(
            (1 << self.var_shifts[v])
            + sum(row[v] << s for row, s in zip(rows, row_shifts))
            for v in range(arity)
        )


# interned, so the Layout a caller gets back for the same arity is the
# same object: building one per call made the `sequence` and `formula`
# workloads 1.4x and 1.3x slower
_LAYOUTS: dict[tuple, Layout] = {}


def layout(arity: int, rows=None, lane_bits: int = LANE_BITS) -> Layout:
    key = (arity, rows, lane_bits)
    lay = _LAYOUTS.get(key)
    if lay is None:
        lay = _LAYOUTS[key] = Layout(arity, rows, lane_bits)
    return lay


def pack(lay: Layout, exponents: tuple[int, ...]) -> int:
    if len(exponents) != lay.arity:
        raise ValueError("arity mismatch")
    if exponents and min(exponents) < 0:
        raise ValueError(f"negative exponent {min(exponents)}")
    if sum(exponents) > lay.safe_degree:
        top = max(exponents)
        for row in lay.rows:
            top = max(top, sum(map(mul, row, exponents)))
        if top > lay.max_lane:
            raise EngineLimit(
                f"degree {top} out of packable range (at most {lay.max_lane})"
            )
    return sum(map(mul, exponents, lay.var_steps))


def unpack(lay: Layout, word: int) -> tuple[int, ...]:
    mask = lay.lane_mask
    return tuple([(word >> s) & mask for s in lay.var_shifts])


def degree(lay: Layout, word: int) -> int:
    """Value of the top row: the total degree in `layout(arity)`."""
    return word >> lay.top_shift


def minimalize(lay: Layout, words) -> tuple[int, ...]:
    """Minimal generating set, canonically sorted.

    The top lane holds the total degree, so ascending words come in
    bands of one degree each.  A proper divisor of a word has a strictly
    lower degree, and two distinct words of one degree never divide each
    other, so a candidate is tested only against the kept words of lower
    degree: those below the first word of its band,
    `w >> top_shift << top_shift`.  An ideal generated in one degree
    costs one pass.
    """
    guard, shift = lay.guard, lay.top_shift
    out: list[int] = []
    for w in sorted(set(words)):
        band = w >> shift << shift
        for g in out:
            if g >= band:  # no kept word of lower degree divides w
                out.append(w)
                break
            if not (w - g) & guard:
                break
        else:
            out.append(w)
    return tuple(out)


def member(lay: Layout, word: int, gens: tuple[int, ...]) -> bool:
    guard = lay.guard
    for g in gens:
        if g > word:
            return False
        if not (word - g) & guard:
            return True
    return False


def contains(lay: Layout, big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    """Every generator of `small` lies in the ideal `big`."""
    return all(member(lay, w, big) for w in small)


def add(lay: Layout, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return minimalize(lay, a + b)


def multiply(lay: Layout, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    products = [x + y for x in a for y in b]
    # a lane sum past max_lane sets that lane's guard bit
    if reduce(or_, products) & lay.guard:
        raise EngineLimit(
            f"a product of monomials passes the packable degree {lay.max_lane}"
        )
    return minimalize(lay, products)


def lcm(lay: Layout, a: int, b: int) -> int:
    ea, eb = unpack(lay, a), unpack(lay, b)
    return pack(lay, tuple(max(x, y) for x, y in zip(ea, eb)))


def intersect(lay: Layout, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    return minimalize(lay, (lcm(lay, x, y) for x in a for y in b))


def colon_monomial(lay: Layout, gens: tuple[int, ...], word: int) -> tuple[int, ...]:
    """(gens) : word."""
    if not gens:
        return ()
    e = unpack(lay, word)
    quotients = []
    for g in gens:
        eg = unpack(lay, g)
        quotients.append(pack(lay, tuple(max(x - y, 0) for x, y in zip(eg, e))))
    return minimalize(lay, quotients)


def colon_ideal(lay: Layout, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a) : (b), intersecting over the generators of b."""
    if not b:
        raise ValueError("colon by the zero ideal")
    result: tuple[int, ...] | None = None
    for w in b:
        piece = colon_monomial(lay, a, w)
        result = piece if result is None else intersect(lay, result, piece)
    return result


def saturate(lay: Layout, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a) : (b)^∞, intersecting the saturations by the generators of b.

    (a) : g^∞ drops every exponent of a's generators on the support of
    g, and (a) : (b)^∞ is the intersection of these over g in b.
    """
    if not b:
        raise ValueError("saturation by the zero ideal")
    result: tuple[int, ...] | None = None
    for g in b:
        support = [bool(x) for x in unpack(lay, g)]
        piece = minimalize(
            lay,
            [
                pack(lay, tuple(0 if s else x for s, x in zip(support, unpack(lay, w))))
                for w in a
            ],
        )
        result = piece if result is None else intersect(lay, result, piece)
    return result


def radical(lay: Layout, gens: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for g in gens:
        e = unpack(lay, g)
        out.append(pack(lay, tuple(1 if x else 0 for x in e)))
    return minimalize(lay, out)


def is_unit(gens: tuple[int, ...]) -> bool:
    return bool(gens) and gens[0] == 0


def irrelevant_power(lay: Layout, i: int) -> tuple[int, ...]:
    """Generators of the i-th power of the ideal of all variables."""
    words = []
    for combo in itertools.combinations_with_replacement(range(lay.arity), i):
        exps = [0] * lay.arity
        for v in combo:
            exps[v] += 1
        words.append(pack(lay, tuple(exps)))
    return tuple(sorted(words))


def supports(lay: Layout, gens: tuple[int, ...]) -> list[frozenset[int]]:
    out = []
    for g in gens:
        e = unpack(lay, g)
        out.append(frozenset(v for v, x in enumerate(e) if x))
    return out


def dimension(lay: Layout, gens: tuple[int, ...]) -> int:
    """Krull dimension of the quotient by a monomial ideal.

    Largest variable subset S such that no generator has support inside
    S; the quotient of a unit ideal has no dimension and raises.
    """
    if is_unit(gens):
        raise ValueError("unit ideal has empty quotient")
    supp = supports(lay, gens)
    n = lay.arity
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            s = frozenset(subset)
            if all(not sp <= s for sp in supp):
                return size
    raise AssertionError("unreachable: empty subset is always independent")


def minimal_primes(lay: Layout, gens: tuple[int, ...]) -> list[frozenset[int]]:
    """Minimal primes of a monomial ideal, as variable-index sets."""
    if is_unit(gens):
        raise ValueError("unit ideal has no primes")
    supp = supports(lay, gens)
    if not supp:
        return [frozenset()]
    n = lay.arity
    covers = []
    for size in range(0, n + 1):
        for subset in itertools.combinations(range(n), size):
            s = frozenset(subset)
            if any(c <= s for c in covers):
                continue
            if all(sp & s for sp in supp):
                covers.append(s)
    return sorted(covers, key=lambda s: (len(s), sorted(s)))


def restrict(
    lay: Layout, gens: tuple[int, ...], keep: tuple[int, ...]
) -> tuple[int, ...]:
    """Image of a monomial ideal when variables outside `keep` become units.

    Result is packed in the layout of len(keep) variables; a generator
    supported entirely outside `keep` restricts to 1 (unit ideal).
    """
    sub = layout(len(keep))
    words = []
    for g in gens:
        e = unpack(lay, g)
        words.append(pack(sub, tuple(e[v] for v in keep)))
    return minimalize(sub, words)


# -- Hilbert numerators ---------------------------------------------------


def hilbert_numerator(lay: Layout, gens: tuple[int, ...]) -> tuple[int, ...]:
    """Numerator N(t) with series of the quotient = N(t) / (1-t)^arity."""
    numer = bigraded_numerator(lay, gens, lay.arity)
    out = [0] * (1 + max((p for p, _ in numer), default=0))
    for (p, _), c in numer.items():
        out[p] = c
    return tuple(out)


def bigraded_numerator(
    lay: Layout, gens: tuple[int, ...], split: int
) -> dict[tuple[int, int], int]:
    """Numerator Q(s, t) of the bigraded series of the quotient.

    The first `split` variables have degree (1, 0) and the others
    (0, 1), so the series is Q(s, t) / ((1-s)^split (1-t)^(arity-split)).
    Returns {(p, q): coefficient of s^p t^q}, nonzero coefficients only.
    """
    numer = _numerator(lay, minimalize(lay, gens), split)
    return {pq: c for pq, c in numer.items() if c}


def _numerator(
    lay: Layout, gens: tuple[int, ...], split: int
) -> dict[tuple[int, int], int]:
    """Pivot recursion: Q(I) = Q(I + (p)) + s^a t^b * Q(I : p).

    Holds for any monomial pivot p of bidegree (a, b); the base case is
    a set of generators with pairwise disjoint supports, whose quotient
    has the product of the (1 - s^a t^b) as numerator.
    """
    if not gens:
        return {(0, 0): 1}
    if gens[0] == 0:
        return {}

    exps = [unpack(lay, g) for g in gens]
    per_var = [0] * lay.arity
    for e in exps:
        for v, x in enumerate(e):
            if x:
                per_var[v] += 1
    pivot_var = max(range(lay.arity), key=lambda v: per_var[v])

    if per_var[pivot_var] <= 1:
        # pairwise disjoint supports: a regular sequence of monomials
        out = {(0, 0): 1}
        for e in exps:
            a, b = sum(e[:split]), sum(e[split:])
            nxt = dict(out)
            for (p, q), c in out.items():
                nxt[p + a, q + b] = nxt.get((p + a, q + b), 0) - c
            out = nxt
        return out

    positives = sorted(e[pivot_var] for e in exps if e[pivot_var])
    pivot_exp = positives[len(positives) // 2]
    # a pure pivot-variable power of exponent <= pivot_exp would make the
    # plus branch a no-op; in a minimal set it is the unique such power
    # and every other generator in the variable sits strictly below it.
    # Halving it keeps the depth logarithmic in its exponent.
    for g, e in zip(gens, exps):
        if e[pivot_var] and e[pivot_var] == degree(lay, g) and e[pivot_var] <= pivot_exp:
            pivot_exp = e[pivot_var] // 2
            break
    if pivot_exp < 1:
        raise RuntimeError(f"numerator pivot exponent {pivot_exp} is not positive")
    pivot = pack_single(lay, pivot_var, pivot_exp)

    plus = minimalize(lay, gens + (pivot,))
    # dividing by the pivot lowers one exponent: the word drops by a
    # multiple of that variable's step
    step = lay.var_steps[pivot_var]
    colon = minimalize(
        lay, [g - min(e[pivot_var], pivot_exp) * step for g, e in zip(gens, exps)]
    )

    out = _numerator(lay, plus, split)
    a, b = (pivot_exp, 0) if pivot_var < split else (0, pivot_exp)
    for (p, q), c in _numerator(lay, colon, split).items():
        out[p + a, q + b] = out.get((p + a, q + b), 0) + c
    return out


def pack_single(lay: Layout, var: int, exp: int) -> int:
    exps = [0] * lay.arity
    exps[var] = exp
    return pack(lay, tuple(exps))
