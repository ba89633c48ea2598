"""Multiplicity sequences of ideals acting on cyclic graded modules.

The module R/K is filtered doubly: by powers of the ideal of variables
and by powers of a proper homogeneous ideal I.  Summing the lengths of
the mixed filtration quotients gives a function h(u, v) that is
eventually a polynomial of total degree dim R/K; its top coefficients,
rescaled by k!(d-k)!, form the multiplicity sequence c_0..c_d.  The
sequence interpolates between the classical multiplicity (c_0 when
I has finite colength) and the j-multiplicity style invariants of
non-finite-colength ideals.

The mixed quotients are the bigraded pieces of gr_m(gr_I(M)).  Every
table is counted from one Gröbner basis of a presentation of gr_I(M)
in k[x, T], one T_i per generator of I, under a weight order that
reads the m-adic filtration off the leading monomials; a bigraded
Hilbert numerator Q(s, t) of those leading monomials gives all cells
at once (`hilbert_table`), and its u = 0 column, the fiber of I on M,
gives the analytic spread.  `_gr_numerator` computes Q with both of
its bases, the Rees elimination basis and the weight basis, under one
order and in one layout of the Gröbner kernel's packed words: the
second basis starts from the t-free part of the first as a finished
prefix.  It reads only their minimal leads, so the table path builds
no polynomial ring, no `Polynomial` and no reduced tail.  Every table
keeps the Q it was divided from, so `diagnostics` reads the spread off
the table the sequence came with, and `analytic_spread` is the route
for a pair with no table.  The per-cell `component_length` is the
independent route the tests check tables against.

For monomial data one map (`_monomial_strata`) sends each
variable-subset prime over I + K to the local dimension of M there.
The height is its least value, the star condition reads it at height
zero, and `localization.enumerate_lambda` reads every support stratum
off it; `diagnostics` and `localization.verify_formula` build it once
per pair and pass it to all of them.

The sequence is read off Q, once per pair, as a proof.  h(u, v) is
the sum of Q_pq C(u-p+n, n) C(v-q+r, r), so it equals a polynomial P,
expanded in exact integers, at and past the proof point
(max p - n, max q - r), and c_k = k!(d-k)! [u^k v^(d-k)] P.  The
report keeps the growth rounds of the grid route, whose certificate
is constant (k, d-k) differences over a corner window plus vanishing
(d+1)-order differences, with the table grown geometrically until it
holds, but `multiplicity_sequence` builds no grid: a round whose
window differences reach only cells at or past the proof point
certifies by theorem, with the window corner read off Q by series
convolution as the second reading, so growth ends at the latest at
the first such round; a round that reaches below reads its window
cells off Q until one breaks the certificate, and certifies only if
it reads the entries of P.
`hilbert_table`, which fills its grid on first read, and
`extract_top_coefficients` remain the grid route the tests hold
`multiplicity_sequence` to.

The star condition, that I^n M keeps the local dimension of M at
every prime over I + K for every n, is read once per stratum off the
saturation K : I^∞ (`monomials.saturate`), where the ascending chain
of the colons K : I^n ends.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

from . import monomials as mo
from .errors import PreconditionError, StabilizationError
from .groebner import _Packed, pair_loop
from .hilbert import HilbertSeries, krull_dimension, length_subquotient, total_length
from .ideals import Ideal, require_homogeneous
from .orders import elimination_order
from .poly import Polynomial, PolyRing

# side of the square window whose differences certify a growth round;
# the entries never depend on it, only the reported window and shape do
WINDOW_WIDTH = 3


class CyclicModule:
    """Quotient of the ring by a proper homogeneous ideal of relations."""

    __slots__ = ("ring", "relations", "equidimensional", "_dim")

    def __init__(
        self,
        ring: PolyRing,
        relations: Ideal,
        equidimensional: bool | None = None,
    ):
        if relations.ring != ring:
            raise ValueError("relations from a different ring")
        require_homogeneous(relations, "module construction")
        if not relations.is_proper():
            raise PreconditionError("relations generate the unit ideal")
        self.ring = ring
        self.relations = relations
        if equidimensional is None:
            equidimensional = False
        # free modules and hypersurfaces are unmixed; upgrade silently.
        # A principal ideal has one minimal generator, and one element
        # in its reduced basis, which `is_proper` has already built
        packed = relations.packed()
        if len(relations.groebner() if packed is None else packed) <= 1:
            equidimensional = True
        self.equidimensional = bool(equidimensional)
        self._dim = None

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = krull_dimension(self.relations)
        return self._dim

    def __repr__(self) -> str:
        return f"<module ring mod {self.relations!r}>"


def _check_pair(ideal: Ideal, module: CyclicModule) -> None:
    if ideal.ring != module.ring:
        raise ValueError("ideal and module from different rings")
    require_homogeneous(ideal, "multiplicity work")
    if ideal.is_zero():
        raise PreconditionError("the zero ideal has no multiplicity data")
    if not ideal.is_proper():
        raise PreconditionError("ideal must be proper")


def _variables_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, [ring.variable(name) for name in ring.variables])


# -- bigraded components --------------------------------------------------


def component_ideal(ideal: Ideal, module: CyclicModule, i: int, j: int) -> Ideal:
    """m^i I^j + I^(j+1) + K, the numerator ideal of the (i, j) piece."""
    ring = ideal.ring
    m_i = Ideal.from_packed(ring, mo.irrelevant_power(mo.layout(ring.arity), i))
    return (
        m_i.multiply(ideal.power(j))
        .add(ideal.power(j + 1))
        .add(module.relations)
    )


def component_length(ideal: Ideal, module: CyclicModule, i: int, j: int) -> int:
    """Length of the (i, j) piece of the doubly filtered module.

    Multiplying the numerator by every variable lands in the
    denominator, so the piece is a finite-dimensional vector space and
    the series difference is a polynomial; a division failure here is
    an engine bug, not bad input.
    """
    _check_pair(ideal, module)
    if i < 0 or j < 0:
        raise ValueError("negative filtration index")
    larger = component_ideal(ideal, module, i, j)
    smaller = component_ideal(ideal, module, i + 1, j)
    return length_subquotient(larger, smaller)


# -- tables ---------------------------------------------------------------


@dataclass(frozen=True)
class BigradedTable:
    """Partial sums h(u, v) and the per-bidegree counts behind them.

    Both are read off `numerator`, Q(s, t) as {(p, q): coefficient},
    over (1-s)^n (1-t)^r, with r the number of generators of I, and
    filled on first read.  Each of `values` and `components` costs
    (umax+1)(vmax+1) cells, and a table past a far proof point is
    large; production reads neither, since the sequence, the spread
    and the report need only the shape, r and Q.
    """

    umax: int
    vmax: int
    n: int
    r: int
    numerator: dict = field(repr=False, hash=False)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return _divide(self.n, self.r, self.numerator, self.umax, self.vmax)

    @cached_property
    def values(self) -> tuple[tuple[int, ...], ...]:
        # h sums the cells once more each way
        grid = [list(row) for row in self.components]
        _sum_down(grid)
        return tuple(tuple(itertools.accumulate(row)) for row in grid)

    def h(self, u: int, v: int) -> int:
        return self.values[u][v]


def _generator_terms(ideal: Ideal) -> list[dict]:
    """{exponents: coefficient} of each generator, minimal ones if monomial."""
    packed = ideal.packed()
    if packed is None:
        return [g.terms for g in ideal.gens]
    lay = mo.layout(ideal.ring.arity)
    return [{mo.unpack(lay, w): 1} for w in packed]


def _gr_numerator(ideal: Ideal, module: CyclicModule) -> tuple[int, int, dict]:
    """(n, r, Q): the bigraded numerator of gr_m(gr_I(M)).

    First the Rees module of M = R/K, the sum of the I^j M =
    I^j / (I^j ∩ K), is presented as a quotient of k[x, T], one T_i per
    minimal generator f_i of I: in k[t, x, T] under an elimination
    order for t the elements of a Gröbner basis of (K, T_i - t*f_i)
    whose lead has no t have no t at all, and they form a Gröbner basis
    of the t-free part under the order's restriction to k[x, T] (the
    elimination theorem; Cox-Little-O'Shea, *Ideals, Varieties, and
    Algorithms*, §3.1).  K enters before t is eliminated: added
    afterwards it would present I^j / K*I^j.

    Then J = (Rees relations, f_1..f_r) presents gr_I(M) in
    S = k[x, T]; the m-adic filtration of each piece is read off the
    lowest x-degree forms, which under deg T_i = deg f_i are the forms
    of largest weight w(x) = 0, w(T_i) = deg f_i.  With that weight
    refined by grevlex, the pieces of gr_m(gr_I(M)) count the monomials
    outside the leading ideal N of J, and its series is
    Q(s, t) / ((1-s)^n (1-t)^r), with s marking x-degree and t marking
    T-degree.

    Both bases use one order, `elimination_order(1, w)`, whose
    restriction to k[x, T] is that weight order, and one layout.  The
    kept t-free elements of the first basis stay in place, words
    unchanged, as the finished prefix of the second, which appends the
    f_i and forms only pairs with an appended or new element.  Under
    deg t = deg x_i = 1 and deg T_i = 1 + deg f_i every element of
    either basis is homogeneous, so both loops take pairs degree first.

    Q reads only the minimal leads of the second basis, and those are
    unique per (ideal, order), so neither basis is tail-reduced and
    both stay packed words from the presentation to Q.  Every table
    keeps its Q, so the spread of a pair that has a table is read off
    that table (`diagnostics`), with no second call here.
    """
    n, p = ideal.ring.arity, ideal.ring.characteristic
    gens = _generator_terms(ideal)
    r = len(gens)
    degrees = tuple(max(map(sum, terms)) for terms in gens)
    basis = _Packed(1 + n + r, p, elimination_order(1, (0,) * n + degrees))
    pad = (0,) * r
    for terms in _generator_terms(module.relations):
        basis.append(basis.pack({(0,) + e + pad: c for e, c in terms.items()}))
    for i, terms in enumerate(gens):
        relation = {(1,) + e + pad: -c for e, c in terms.items()}
        relation[(0,) * (1 + n + i) + (1,) + (0,) * (r - 1 - i)] = 1
        basis.append(basis.pack(relation))
    grading = (1,) * (1 + n) + tuple(1 + d for d in degrees)
    # the kept t-free elements: a basis of the Rees relations, which
    # already contain K, under the weight order
    basis.keep([k for k in pair_loop(basis, grading) if not basis.exps[k][0]])
    done = len(basis.leads)
    for terms in gens:
        basis.append(basis.pack({(0,) + e + pad: c for e, c in terms.items()}))
    lay = mo.layout(n + r)
    leads = tuple(
        mo.pack(lay, basis.exps[k][1:]) for k in pair_loop(basis, grading, done)
    )
    return n, r, mo.bigraded_numerator(lay, leads, n)


def hilbert_table(
    ideal: Ideal, module: CyclicModule, umax: int, vmax: int
) -> BigradedTable:
    """Exact table of h(u, v) for 0 <= u <= umax, 0 <= v <= vmax.

    comp(i, j) is the coefficient of s^i t^j in the series
    Q(s, t) / ((1-s)^n (1-t)^r) of gr_m(gr_I(M)) (`_gr_numerator`).
    """
    _check_pair(ideal, module)
    return BigradedTable(umax, vmax, *_gr_numerator(ideal, module))


def _divide(
    n: int, r: int, numerator: dict, umax: int, vmax: int
) -> tuple[tuple[int, ...], ...]:
    """The cells of Q(s, t) / ((1-s)^n (1-t)^r) up to (umax, vmax)."""
    grid = [[0] * (vmax + 1) for _ in range(umax + 1)]
    for (p, q), c in numerator.items():
        if p <= umax and q <= vmax:
            grid[p][q] = c
    # dividing by (1-s) or (1-t) is a running sum down or across
    for _ in range(n):
        _sum_down(grid)
    for _ in range(r):
        grid = [list(itertools.accumulate(row)) for row in grid]
    return tuple(map(tuple, grid))


def _sum_down(grid: list[list[int]]) -> None:
    for above, row in zip(grid, grid[1:]):
        for j, c in enumerate(above):
            row[j] += c


# -- extraction -----------------------------------------------------------


def _diff_u(grid: list[list[int]]) -> list[list[int]]:
    return [
        [grid[u][v] - grid[u - 1][v] for v in range(len(grid[0]))]
        for u in range(1, len(grid))
    ]


def _diff_v(grid: list[list[int]]) -> list[list[int]]:
    return [[row[v] - row[v - 1] for v in range(1, len(row))] for row in grid]


def _window_cells(grid: list[list[int]], width: int) -> list[int]:
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
                diffs[(a, b)] = _diff_u(diffs[(a - 1, b)])
            else:
                diffs[(a, b)] = _diff_v(diffs[(a, b - 1)])
    entries: list[int] = []
    stable = True
    residuals: dict[str, list[int]] = {}
    for k in range(degree + 1):
        cells = _window_cells(diffs[(k, degree - k)], width)
        if len(set(cells)) != 1:
            stable = False
            residuals[f"order ({k},{degree - k})"] = cells
        entries.append(cells[-1])
    for a in range(degree + 2):
        b = degree + 1 - a
        cells = _window_cells(diffs[(a, b)], width)
        if any(cells):
            stable = False
            residuals[f"order ({a},{b})"] = cells
    return (entries if stable else None), residuals


@dataclass(frozen=True)
class MultiplicitySequence:
    entries: tuple[int, ...]
    dim: int
    window: dict
    table_shape: tuple[int, int]

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k: int) -> int:
        return self.entries[k]


def multiplicity_sequence(
    ideal: Ideal, module: CyclicModule
) -> tuple[MultiplicitySequence, BigradedTable]:
    """Stabilized sequence c_0..c_d plus the certifying table."""
    _check_pair(ideal, module)
    return _stabilize(module.dim, *_gr_numerator(ideal, module))


def _stabilize(
    d: int, n: int, r: int, numerator: dict
) -> tuple[MultiplicitySequence, BigradedTable]:
    """Grow the table of Q(s, t) until its top window certifies c_0..c_d.

    The entries are those of the Hilbert polynomial (`_hilbert_top`);
    the rounds and their shapes are those of the grid route
    (`hilbert_table`, `extract_top_coefficients`): square tables of
    side d + 4, then each side 1.5 times the last, with a window of
    side `WINDOW_WIDTH`, and no round builds a grid.  A round whose
    window differences reach only cells at or past the proof point
    certifies by theorem; its window corner, read off Q, is the second
    reading.  The side grows without bound, so such a round always
    comes, and growth ends there.  A round that reaches below the proof point
    reads its window cells off Q from the low corner and stops at the
    first that breaks the grid's certificate; one that passes every
    cell certifies at the shape the grid route would report (no
    benchmark workload has such a round; `TestGridOracle` pins one).
    A window below the proof point can also be constant by chance: it
    certifies only if it reads the Hilbert polynomial's entries.
    """
    width = WINDOW_WIDTH
    exact, proof = _hilbert_top(d, n, r, numerator)
    side = d + 4
    cell = partial(_cell, n, r, numerator)
    while True:
        # the (a, b) difference on the window reaches back a + width - 1
        # rows and b + width - 1 columns, and a + b <= d + 1
        if side - width - d >= max(proof):
            if any(cell(k, d - k, side, side) != c for k, c in enumerate(exact)):
                raise RuntimeError(
                    f"window corner of a {side}x{side} table disagrees with the "
                    f"Hilbert polynomial's entries {exact}: engine bug"
                )
            break
        if _scan_window(cell, d, side) == exact:
            break
        side = math.ceil(side * 1.5)
    if any(c < 0 for c in exact):
        raise RuntimeError(f"negative multiplicity entries {exact}: engine bug")
    corner = [side - width + 1, side]
    window = {"u": corner, "v": list(corner), "width": width}
    seq = MultiplicitySequence(tuple(exact), d, window, (side, side))
    return seq, BigradedTable(side, side, n, r, numerator)


def _hilbert_top(
    d: int, n: int, r: int, numerator: dict
) -> tuple[list[int], tuple[int, int]]:
    """Exact c_0..c_d of the Hilbert polynomial, and its proof point.

    h(u, v) = sum Q_pq C(u-p+n, n) C(v-q+r, r), the coefficient of s^u
    t^v in Q / ((1-s)^(n+1) (1-t)^(r+1)), and the binomials are
    polynomials in u and v from u >= p - n and v >= q - r on.  So h
    equals the polynomial P with n! r! P = sum Q_pq (u-p+1)..(u-p+n)
    (v-q+1)..(v-q+r) at and past the proof point (max p - n, max q - r),
    and c_k = k!(d-k)! [u^k v^(d-k)] P.  P has total degree d: a
    coefficient above it is an engine bug.
    """
    rising_v = {q: _rising(1 - q, r) for q in {q for _, q in numerator}}
    across: dict[int, list[int]] = {}
    for (p, q), c in numerator.items():
        row = across.get(p)
        if row is None:
            row = across[p] = [0] * (r + 1)
        for b, y in enumerate(rising_v[q]):
            row[b] += c * y
    scaled = [[0] * (r + 1) for _ in range(n + 1)]
    for p, row in across.items():
        for a, x in enumerate(_rising(1 - p, n)):
            line = scaled[a]
            for b, y in enumerate(row):
                line[b] += x * y
    if any(c for a, line in enumerate(scaled) for c in line[max(0, d + 1 - a):]):
        raise RuntimeError(
            f"Hilbert polynomial of degree above dim {d}: engine bug"
        )
    scale = math.factorial(n) * math.factorial(r)
    entries = []
    for k in range(d + 1):
        top = scaled[k][d - k] if k <= n and d - k <= r else 0
        c, rest = divmod(math.factorial(k) * math.factorial(d - k) * top, scale)
        if rest:
            raise RuntimeError(f"non-integral multiplicity entry at {k}: engine bug")
        entries.append(c)
    proof = (max(p for p, _ in numerator) - n, max(q for _, q in numerator) - r)
    return entries, proof


def _rising(start: int, count: int) -> list[int]:
    """Coefficients, lowest first, of (x + start)..(x + start + count - 1)."""
    poly = [1]
    for c in range(start, start + count):
        poly = [c * a + b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def _cell(n: int, r: int, numerator: dict, a: int, b: int, i: int, j: int) -> int:
    """The (a, b) difference of h at (i, j), read off Q.

    It is the s^i t^j coefficient of Q (1-s)^(a-n-1) (1-t)^(b-r-1), the
    sum of Q_pq [s^(i-p)] (1-s)^(a-n-1) [t^(j-q)] (1-t)^(b-r-1).
    """
    return sum(
        c * _power_coefficient(a - n - 1, i - p) * _power_coefficient(b - r - 1, j - q)
        for (p, q), c in numerator.items()
        if p <= i and q <= j
    )


def _power_coefficient(e: int, m: int) -> int:
    """[x^m] (1-x)^e for m >= 0."""
    if e < 0:
        return math.comb(m - e - 1, m)
    return -math.comb(e, m) if m & 1 else math.comb(e, m)


def _scan_window(cell, d: int, side: int) -> list[int] | None:
    """The grid's certificate on one window, stopping at its first failure.

    The (a, d+1-a) differences vanishing on the window make every
    (k, d-k) difference constant there, since each step of the latter
    inside the window is a cell of the former; so those cells are the
    certificate, read from the low corner, where a round below the
    proof point fails first.
    """
    low = side - WINDOW_WIDTH + 1
    for i in range(low, side + 1):
        for j in range(low, side + 1):
            if any(cell(a, d + 1 - a, i, j) for a in range(d + 2)):
                return None
    return [cell(k, d - k, side, side) for k in range(d + 1)]


# -- classical multiplicity ----------------------------------------------


def classical_multiplicity(ideal: Ideal, module: CyclicModule) -> int:
    """Leading normalized coefficient of n -> length of M/I^(n+1)M.

    Needs finite colength; computed as the eventually constant d-th
    finite difference, certified over a window like the tables are.
    """
    _check_pair(ideal, module)
    joined = ideal.add(module.relations)
    if krull_dimension(joined) != 0:
        raise PreconditionError("ideal does not have finite colength on the module")
    d = module.dim
    width = WINDOW_WIDTH
    # values of the colength function read before giving up
    longest = 96
    count = d + width + 3
    while True:
        values = [
            total_length(ideal.power(n + 1).add(module.relations))
            for n in range(count + 1)
        ]
        diffs = values
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
            raise StabilizationError("colength differences failed to stabilize")


# -- analytic spread ------------------------------------------------------


def _minimal_generators(ideal: Ideal) -> list[Polynomial]:
    packed = ideal.packed()
    if packed is None:
        return list(ideal.gens)
    lay = mo.layout(ideal.ring.arity)
    return [ideal.ring.monomial(mo.unpack(lay, w)) for w in packed]


def analytic_spread(ideal: Ideal, module: CyclicModule) -> int:
    """Dimension of the special fiber of the I-filtration on the module.

    The fiber, the sum of the I^j M / m*I^j M, is the u = 0 column of
    gr_m(gr_I(M)), with series Q(0, t) / (1-t)^r; its dimension is the
    order of the pole at t = 1, r - ord_{t=1} Q(0, t).
    """
    _check_pair(ideal, module)
    _, r, numerator = _gr_numerator(ideal, module)
    return _spread(r, numerator)


def _spread(r: int, numerator: dict) -> int:
    """Dimension of the fiber whose series is Q(0, t) / (1-t)^r."""
    # Q(0, 0) = 1: the (0, 0) piece is M / (m + I)M = k
    fiber = [0] * (1 + max(q for p, q in numerator if not p))
    for (p, q), c in numerator.items():
        if not p:
            fiber[q] = c
    return HilbertSeries(tuple(fiber), r).reduced()[1]


# -- heights and the dimension condition ---------------------------------


def _monomial_strata(ideal: Ideal, module: CyclicModule) -> dict | None:
    """Each variable-subset prime over I + K, mapped to dim M_p.

    Keys are sorted variable-index tuples, by size and then in
    `itertools.combinations` order; None unless I and K are monomial.
    Outside variables become units, so K restricts to the kept
    variables, where the local dimension is read off; a prime over
    I + K contains K, so the restriction is never the unit ideal.
    """
    jp = ideal.add(module.relations).packed()
    kp = module.relations.packed()
    if jp is None or kp is None:
        return None
    n = ideal.ring.arity
    lay = mo.layout(n)
    supports = mo.supports(lay, jp)
    strata = {}
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if all(sp.intersection(subset) for sp in supports):
                local = mo.restrict(lay, kp, subset)
                strata[subset] = mo.dimension(mo.layout(size), local)
    return strata


def height_on_module(ideal: Ideal, module: CyclicModule) -> int:
    """Minimum local dimension of the module over primes containing I.

    Positive height is the workhorse sufficient condition for the
    dimension condition behind the support decomposition.
    """
    _check_pair(ideal, module)
    return _height(ideal, module, _monomial_strata(ideal, module))


def _height(ideal: Ideal, module: CyclicModule, strata: dict | None) -> int:
    """`height_on_module`, given the pair's `_monomial_strata` map."""
    joined = ideal.add(module.relations)
    if not joined.is_proper():
        raise PreconditionError("no primes contain the ideal on this module")
    if strata is not None:
        return min(strata.values())
    if not module.equidimensional:
        raise PreconditionError(
            "height on a general module needs the equidimensionality assertion"
        )
    return module.dim - krull_dimension(joined)


def star_condition(ideal: Ideal, module: CyclicModule) -> bool | None:
    """Does every power of I act with full dimension, locally everywhere?

    Positive height settles it; otherwise the monomial route checks
    dim(I^n M) = dim M at every monomial prime of the support of M/IM
    and every n at once, through the saturation K : I^∞.  None means
    the engine cannot decide (general data with height zero).
    """
    _check_pair(ideal, module)
    strata = _monomial_strata(ideal, module)
    return _star(ideal, module, strata, _height(ideal, module, strata))


def _star(
    ideal: Ideal, module: CyclicModule, strata: dict | None, height: int
) -> bool | None:
    """`star_condition`, given the pair's strata map and height.

    I^n M_p = I^n / (I^n ∩ K) has the dimension of R_p / (K : I^n).
    The colons only grow with n, so their dimensions only fall from
    dim M_p at n = 0, and every n passes exactly when the saturation
    K : I^∞, which the chain reaches, has dimension dim M_p.
    """
    if height > 0:
        return True
    if strata is None:
        return None
    lay = mo.layout(ideal.ring.arity)
    ip, kp = ideal.packed(), module.relations.packed()
    for kept, d_local in strata.items():
        sub_lay = mo.layout(len(kept))
        i_local = mo.restrict(lay, ip, kept)
        colon = mo.saturate(sub_lay, mo.restrict(lay, kp, kept), i_local)
        if mo.is_unit(colon):
            # a power kills the localized module, which only a
            # zero-dimensional localization survives
            if d_local != 0:
                return False
        elif mo.dimension(sub_lay, colon) != d_local:
            return False
    return True


# -- diagnostics ----------------------------------------------------------


@dataclass(frozen=True)
class Diagnostics:
    dim: int
    colength_dim: int  # dim of M/IM
    height: int
    star: bool | None
    finite_colength: bool
    spread: int
    consistent: bool


def diagnostics(
    ideal: Ideal,
    module: CyclicModule,
    table: BigradedTable,
) -> Diagnostics:
    """Dimensions, height, star condition and spread of the pair.

    `table` is a table of this pair (`multiplicity_sequence`,
    `hilbert_table`); the spread is read off the Q(s, t) it keeps.
    """
    _check_pair(ideal, module)
    # one strata map gives the height, the star condition and, for
    # monomial data, dim M/IM: n minus the size of the smallest prime
    strata = _monomial_strata(ideal, module)
    if strata:
        q = ideal.ring.arity - len(next(iter(strata)))
    else:
        q = krull_dimension(ideal.add(module.relations))
    het = _height(ideal, module, strata)
    star = _star(ideal, module, strata, het)
    spread = _spread(table.r, table.numerator)
    return Diagnostics(
        dim=module.dim,
        colength_dim=q,
        height=het,
        star=star,
        finite_colength=(q == 0),
        spread=spread,
        consistent=module.dim - spread <= q,
    )
