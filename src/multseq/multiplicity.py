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
at once, and its u = 0 column, the fiber of I on M, gives the
analytic spread.  `_gr_numerator` computes Q with both of
its bases, the Rees elimination basis and the weight basis, under one
order and in one layout of the Gröbner kernel's packed words: the
second basis starts from the t-free part of the first as a finished
prefix.  It reads only their minimal leads, so the table path builds
no polynomial ring, no `Polynomial` and no reduced tail.  Every table
keeps the Q it was divided from, so `diagnostics` reads the spread off
the table the sequence came with.  The per-cell `component_length` in
`tests/oracles.py` is the independent route the tests check tables
against.

For monomial data one map (`_monomial_strata`) sends each
variable-subset prime over I + K to the local dimension of M there.
The height is its least value, the star condition reads it at height
zero, and the support strata of `localization.verify_formula` are
read off it; `diagnostics` and `verify_formula` build it once per pair
and pass it to all of them.

The sequence is read off Q, once per pair, as a proof.  h(u, v) is
the sum of Q_pq C(u-p+n, n) C(v-q+r, r), so it equals a polynomial P
at and past the proof point (max p - n, max q - r).  With Q written as
the sum of gamma_ij (1-s)^i (1-t)^j, gamma_ij being the integer
(-1)^(i+j) sum Q_pq C(p, i) C(q, j), c_k = k!(d-k)! [u^k v^(d-k)] P is
gamma_(n-k, r-d+k), and gamma_ij = 0 when i + j < n + r - d.  The
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
The grid route the tests hold `multiplicity_sequence` to, a grid of h
divided out of Q (`hilbert_table`) and the certificate read off its
window (`extract_top_coefficients`), is in `tests/oracles.py`.

The star condition, that I^n M keeps the local dimension of M at
every prime over I + K for every n, is read off the minimal primes of
one saturation K : I^∞ (`monomials.saturate`) per pair, where the
ascending chain of the colons K : I^n ends.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

from . import monomials as mo
from .errors import PreconditionError
from .groebner import _Packed, pair_loop
from .hilbert import HilbertSeries, krull_dimension
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


# -- tables ---------------------------------------------------------------


@dataclass(frozen=True)
class BigradedTable:
    """The shape a sequence was certified at, and its Q(s, t).

    `numerator` is Q(s, t) as {(p, q): coefficient}, over
    (1-s)^n (1-t)^r, with r the number of generators of I.  The
    sequence, the spread and the report need only these; the cells and
    h(u, v) of the table are divided out of Q by `tests/oracles.py`.
    """

    umax: int
    vmax: int
    n: int
    r: int
    numerator: dict = field(repr=False, hash=False)


def _generator_terms(ideal: Ideal) -> list[dict]:
    """{exponents: coefficient} of each generator, minimal ones if monomial."""
    packed = ideal.packed()
    if packed is None:
        return [g.terms for g in ideal.gens]
    lay = mo.layout(ideal.ring.arity)
    return [{mo.unpack(lay, w): 1} for w in packed]


def _gr_numerator(
    ideal: Ideal, module: CyclicModule, inside: Ideal | None = None
) -> tuple[int, int, dict] | tuple[int, int, dict, dict]:
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

    With an ideal L inside I as `inside`, a fourth value is the Q of
    R_I(M) / L·t·R_I(M), whose T-degree v + 1 is I^(v+1)M / L·I^vM.  For
    g = sum a_i f_i in L, t·g is congruent to the t-free sum a_i T_i, so
    its normal form against the first basis has no t and needs no
    division by the f_i; the nonzero forms (a zero one is a g in K)
    replace the f_i after the prefix in a third loop.
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
    kept = pair_loop(basis, grading)
    rounds = [[basis.pack({(0,) + e + pad: c for e, c in f.items()}) for f in gens]]
    if inside is not None:
        t_gens = [
            {(1,) + e + pad: c for e, c in g.items()} for g in _generator_terms(inside)
        ]
        rounds.append([basis.remainder(basis.pack(tg), kept) for tg in t_gens])
    # the kept t-free elements: a basis of the Rees relations, which
    # already contain K, under the weight order
    basis.keep([k for k in kept if not basis.exps[k][0]])
    done = len(basis.leads)
    lay = mo.layout(n + r)
    numerators = []
    for appended in rounds:
        basis.keep(range(done))
        for terms in filter(None, appended):
            basis.append(terms)
        leads = tuple(
            mo.pack(lay, basis.exps[k][1:]) for k in pair_loop(basis, grading, done)
        )
        numerators.append(mo.bigraded_numerator(lay, leads, n))
    return (n, r, *numerators)


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
    the rounds and their shapes are those of the grid route of
    `tests/oracles.py`: square tables of side d + 4, then each side
    1.5 times the last, with a window of side `WINDOW_WIDTH`, and no
    round builds a grid.  A round whose
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

    h(u, v) is [s^u t^v] Q / ((1-s)^(n+1) (1-t)^(r+1)), and with Q the
    sum of gamma_ij (1-s)^i (1-t)^j, the terms with i > n or j > r add
    nothing at and past the proof point (max p - n, max q - r).  There h
    is P, the sum over i <= n, j <= r of
    gamma_ij C(u+n-i, n-i) C(v+r-j, r-j), of top monomial
    u^(n-i) v^(r-j) / (n-i)!(r-j)!.  P has total degree d, so
    gamma_ij = 0 when i + j < n + r - d (else an engine bug), and
    c_k = k!(d-k)! [u^k v^(d-k)] P = gamma_(n-k, r-d+k).
    """
    # gamma[i][j] = sum Q_pq C(p, i) C(q, j), the sign of gamma_ij
    # left off, and only for i + j <= n + r - d
    top = n + r - d
    across: dict[int, list[int]] = {}
    for (p, q), c in numerator.items():
        row = across.get(p)
        if row is None:
            row = across[p] = [0] * (min(r, top) + 1)
        for j in range(min(q, r, top) + 1):
            row[j] += c * math.comb(q, j)
    gamma = [[0] * (min(r, top - i) + 1) for i in range(min(n, top) + 1)]
    for p, row in across.items():
        for i, line in enumerate(gamma[: p + 1]):
            x = math.comb(p, i)
            for j in range(len(line)):
                line[j] += x * row[j]
    if any(c for i, line in enumerate(gamma) for c in line[: top - i]):
        raise RuntimeError(f"Hilbert polynomial of degree above dim {d}: engine bug")
    sign = -1 if top & 1 else 1
    entries = [
        sign * gamma[n - k][r - d + k] if r - d + k >= 0 else 0 for k in range(d + 1)
    ]
    proof = (max(p for p, _ in numerator) - n, max(q for _, q in numerator) - r)
    return entries, proof


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


# -- analytic spread ------------------------------------------------------


def _minimal_generators(ideal: Ideal) -> list[Polynomial]:
    packed = ideal.packed()
    if packed is None:
        return list(ideal.gens)
    lay = mo.layout(ideal.ring.arity)
    return [ideal.ring.monomial(mo.unpack(lay, w)) for w in packed]


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
    `itertools.combinations` order, the order in which
    `localization.verify_formula` lists each stratum; None unless I and
    K are monomial.
    Outside variables become units, so the minimal primes of K_p are
    the minimal primes of K inside p, and dim M_p is |p| minus the
    size of the smallest of them; a prime over I + K contains K, so it
    contains at least one.
    """
    jp = ideal.add(module.relations).packed()
    kp = module.relations.packed()
    if jp is None or kp is None:
        return None
    n = ideal.ring.arity
    lay = mo.layout(n)
    supports = mo.supports(lay, jp)
    below = mo.minimal_primes(lay, kp)
    strata = {}
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if all(sp.intersection(subset) for sp in supports):
                strata[subset] = max(size - len(q) for q in below if q <= set(subset))
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


def _star(
    ideal: Ideal, module: CyclicModule, strata: dict | None, height: int
) -> bool | None:
    """Does every power of I act with full dimension, locally everywhere?

    Positive height settles it; otherwise the monomial route checks
    dim(I^n M_p) = dim M_p at every prime p of the pair's strata map and
    every n at once, through one saturation K : I^∞.  None means the
    engine cannot decide (general data with height zero).

    I^n M_p = I^n / (I^n ∩ K) has the dimension of R_p / (K : I^n).
    The colons only grow with n, so their dimensions only fall from
    dim M_p at n = 0, and every n passes exactly when (K : I^∞)_p,
    which the chain reaches and which saturation commutes with
    (Atiyah–Macdonald, Cor. 3.15), has dimension dim M_p: |p| minus
    the size of the smallest minimal prime of K : I^∞ inside p.
    """
    if height > 0:
        return True
    if strata is None:
        return None
    lay = mo.layout(ideal.ring.arity)
    colon = mo.saturate(lay, module.relations.packed(), ideal.packed())
    primes = [] if mo.is_unit(colon) else mo.minimal_primes(lay, colon)
    # with no minimal prime inside p a power of I kills M_p, which only
    # a zero-dimensional localization survives
    return all(
        max((len(p) - len(q) for q in primes if q <= set(p)), default=0) == d
        for p, d in strata.items()
    )


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

    `table` is a table of this pair (`multiplicity_sequence`); the
    spread is read off the Q(s, t) it keeps.
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
