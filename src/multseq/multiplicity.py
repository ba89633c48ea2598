"""Multiplicity sequences of ideals acting on cyclic graded modules.

The module R/K is filtered doubly: by powers of the ideal of variables
and by powers of a proper homogeneous ideal I.  Summing the lengths of
the mixed filtration quotients gives a function h(u, v) that is
eventually a polynomial of total degree dim R/K; its top coefficients,
rescaled by k!(d-k)!, form the multiplicity sequence c_0..c_d.  The
sequence interpolates between the classical multiplicity (c_0 when
I has finite colength) and the j-multiplicity style invariants of
non-finite-colength ideals.

Tables are exact integer arrays; stabilization is certified by
constant finite differences over a corner window plus the vanishing of
all next-order differences, growing the table geometrically until the
certificate holds or the budget is exhausted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import monomials as mo
from ._jobs import parallel_map
from .config import Params
from .errors import EngineLimit, PreconditionError, StabilizationError
from .hilbert import krull_dimension, length_subquotient, total_length
from .ideals import Ideal, require_homogeneous
from .poly import Polynomial, PolyRing


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
        # free modules and hypersurfaces are unmixed; upgrade silently
        if relations.is_zero() or len(relations.gens) == 1:
            equidimensional = True
        self.equidimensional = bool(equidimensional)
        self._dim = None

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = krull_dimension(self.relations)
        return self._dim

    def key(self) -> tuple:
        return self.relations.key()

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
    packed = ideal.packed()
    kp = module.relations.packed()
    if packed is not None and kp is not None:
        lay = mo.layout(ring.arity)
        part = mo.multiply(lay, mo.irrelevant_power(lay, i), mo.power(lay, packed, j))
        part = mo.add(lay, part, mo.power(lay, packed, j + 1))
        part = mo.add(lay, part, kp)
        return Ideal.from_packed(ring, part)
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
    """Partial sums h(u, v) and the per-bidegree counts behind them."""

    values: tuple[tuple[int, ...], ...]
    components: tuple[tuple[int, ...], ...]
    umax: int
    vmax: int

    def h(self, u: int, v: int) -> int:
        return self.values[u][v]


_COLUMN_CACHE: dict[tuple, list[int]] = {}
_GENERAL_COLUMN_CACHE: dict[tuple, list[int]] = {}


class _Echelon:
    """Incremental row reduction with exact arithmetic, sparse rows.

    Rows are dicts keyed by column index.  Over the rationals the rows
    stay integral (cross-multiplication, gcd-normalized); in positive
    characteristic entries live mod p.  Monomial generators contribute
    singleton rows that pivot immediately, which is what keeps the
    mixed monomial-plus-one-form inputs fast.
    """

    __slots__ = ("char", "pivots", "rank")

    def __init__(self, char: int):
        self.char = char
        self.pivots: dict[int, dict[int, int]] = {}
        self.rank = 0

    def add(self, row: dict[int, int]) -> bool:
        p = self.char
        while row:
            col = max(row)
            piv = self.pivots.get(col)
            if piv is None:
                if p:
                    inv = pow(row[col], p - 2, p)
                    row = {c: (v * inv) % p for c, v in row.items()}
                else:
                    g = math.gcd(*row.values()) if len(row) > 1 else abs(row[col])
                    if row[col] < 0:
                        g = -g
                    row = {c: v // g for c, v in row.items()}
                self.pivots[col] = row
                self.rank += 1
                return True
            if p:
                factor = row[col]
                for c, v in piv.items():
                    row[c] = (row.get(c, 0) - factor * v) % p
                row = {c: v for c, v in row.items() if v}
            else:
                a, b = piv[col], row[col]
                g = math.gcd(a, b)
                a, b = a // g, b // g
                new = {c: v * a for c, v in row.items()}
                for c, v in piv.items():
                    new[c] = new.get(c, 0) - b * v
                row = {c: v for c, v in new.items() if v}
        return False


def _integral_terms(p: Polynomial) -> list[tuple[tuple[int, ...], int]]:
    # scale a rational polynomial to integer coefficients; spans are unchanged
    if p.ring.characteristic:
        return [(e, int(c)) for e, c in p.terms.items()]
    denom = 1
    for c in p.terms.values():
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    return [(e, int(c * denom)) for e, c in p.terms.items()]


def _monomials_of_degree(n: int, deg: int):
    if n == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in _monomials_of_degree(n - 1, deg - first):
            yield (first,) + rest


def _general_column(
    ring: PolyRing,
    t_gens: list[Polynomial],
    c_gens: list[Polynomial],
    umax: int,
) -> list[int]:
    """comp(i, j) for i = 0..umax, by degreewise prefix ranks.

    In degree deg the space (m^i T + C)_deg is spanned by C_deg plus
    all multiples of the T-generators of degree at most deg - i, so
    feeding generator groups into the echelon in ascending degree
    yields the ranks for every i from a single pass.
    """
    n = ring.arity
    t_data = sorted(
        ((p.total_degree(), _integral_terms(p)) for p in t_gens),
        key=lambda pair: pair[0],
    )
    c_data = [(p.total_degree(), _integral_terms(p)) for p in c_gens]
    mindeg = t_data[0][0]
    maxdeg = max(d for d, _ in t_data)
    comp = [0] * (umax + 1)
    # the i-th piece is killed by the variables and generated in
    # degrees i + deg(g), so nothing lives above umax + maxdeg
    for deg in range(umax + maxdeg + 1):
        cols = {e: k for k, e in enumerate(_monomials_of_degree(n, deg))}
        ech = _Echelon(ring.characteristic)

        def feed(gen_deg: int, terms) -> None:
            for mu in _monomials_of_degree(n, deg - gen_deg):
                row = {}
                for e, c in terms:
                    shifted = tuple(a + b for a, b in zip(mu, e))
                    row[cols[shifted]] = row.get(cols[shifted], 0) + c
                ech.add({c: v for c, v in row.items() if v})

        for gen_deg, terms in c_data:
            if gen_deg <= deg:
                feed(gen_deg, terms)
        base_rank = ech.rank
        ranks = {}  # threshold -> rank of C_deg plus T-gens of degree <= threshold
        idx = 0
        for threshold in range(mindeg, deg + 1):
            while idx < len(t_data) and t_data[idx][0] <= threshold:
                feed(t_data[idx][0], t_data[idx][1])
                idx += 1
            ranks[threshold] = ech.rank

        def rank_at(threshold: int) -> int:
            if threshold < mindeg:
                return base_rank
            return ranks[min(threshold, deg)]

        for i in range(min(umax, deg - mindeg) + 1):
            comp[i] += rank_at(deg - i) - rank_at(deg - i - 1)
    return comp


def _monomial_column(
    lay: mo.Layout,
    ipacked: tuple[int, ...],
    kpacked: tuple[int, ...],
    j: int,
    umax: int,
    cache_key: tuple,
) -> list[int]:
    key = (cache_key, j, umax)
    got = _COLUMN_CACHE.get(key)
    if got is None:
        tj = mo.power(lay, ipacked, j)
        cut = mo.add(lay, mo.power(lay, ipacked, j + 1), kpacked)
        got = _COLUMN_CACHE[key] = mo.column_counts(lay, tj, cut, umax)
    return got


def _column_job(args) -> list[int]:
    ring, t_gens, c_gens, umax = args
    return _general_column(ring, t_gens, c_gens, umax)


def hilbert_table(
    ideal: Ideal, module: CyclicModule, umax: int, vmax: int, jobs: int = 1
) -> BigradedTable:
    """Exact table of h(u, v) for 0 <= u <= umax, 0 <= v <= vmax."""
    _check_pair(ideal, module)
    ring = ideal.ring
    ipacked = ideal.packed()
    kpacked = module.relations.packed()
    comps = []
    if ipacked is not None and kpacked is not None:
        lay = mo.layout(ring.arity)
        # the columns take powers up to I^(vmax+1) and count up to umax
        # degrees above I^vmax; every degree must fit a packed lane
        reach = max(mo.degree(lay, g) for g in ipacked) * (vmax + 1) + umax
        if reach > mo.MAX_EXPONENT:
            raise EngineLimit(
                f"a {umax}x{vmax} table reaches degree {reach}, "
                f"past the packable {mo.MAX_EXPONENT}"
            )
        cache_key = (ring.key, ipacked, kpacked)
        columns = [
            _monomial_column(lay, ipacked, kpacked, j, umax, cache_key)
            for j in range(vmax + 1)
        ]
        comps = [
            tuple(columns[j][i] for j in range(vmax + 1)) for i in range(umax + 1)
        ]
    else:
        ck = (ideal.key(), module.key())
        columns = [None] * (vmax + 1)
        pending = []
        for j in range(vmax + 1):
            key = (ck, j, umax)
            got = _GENERAL_COLUMN_CACHE.get(key)
            if got is None:
                t_gens = list(ideal.power(j).gens) or [ring.one()]
                c_gens = list(ideal.power(j + 1).gens) + list(module.relations.gens)
                pending.append((j, key, (ring, t_gens, c_gens, umax)))
            else:
                columns[j] = got
        fresh = parallel_map(_column_job, [a for _, _, a in pending], jobs)
        for (j, key, _), got in zip(pending, fresh):
            _GENERAL_COLUMN_CACHE[key] = got
            columns[j] = got
        comps = [
            tuple(columns[j][i] for j in range(vmax + 1)) for i in range(umax + 1)
        ]
    values = []
    prev_row = None
    for i in range(umax + 1):
        row = []
        running = 0
        for j in range(vmax + 1):
            running += comps[i][j]
            above = prev_row[j] if prev_row is not None else 0
            row.append(above + running)
        values.append(tuple(row))
        prev_row = row
    return BigradedTable(tuple(values), tuple(tuple(r) for r in comps), umax, vmax)


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
    values, degree: int, width: int = 3
) -> tuple[list[int] | None, dict]:
    """Read the normalized top coefficients of a table of a polynomial.

    For a table of h(u, v) agreeing with a polynomial of total degree
    `degree` near the top corner, the mixed difference of order (k,
    degree-k) is constant there and equals k!(degree-k)! times the
    u^k v^(degree-k) coefficient.  Returns (entries, diagnostics); the
    entries are None unless every window is constant and every
    difference of order degree+1 vanishes on the window.
    """
    grid = [list(row) for row in values]
    umax = len(grid) - 1
    vmax = len(grid[0]) - 1
    if umax < degree + width or vmax < degree + width:
        raise ValueError("table too small for the requested window")
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
    ideal: Ideal,
    module: CyclicModule,
    params: Params | None = None,
) -> tuple[MultiplicitySequence, BigradedTable]:
    """Stabilized sequence c_0..c_d plus the certifying table."""
    params = params or Params()
    _check_pair(ideal, module)
    d = module.dim
    width = params.window_width
    u = max(params.umax or 0, d + 4, d + width)
    v = max(params.vmax or 0, d + 4, d + width)
    while True:
        table = hilbert_table(ideal, module, u, v, jobs=params.jobs)
        entries, residuals = extract_top_coefficients(table.values, d, width)
        if entries is not None:
            if any(c < 0 for c in entries):
                raise RuntimeError(
                    f"negative multiplicity entries {entries}: engine bug"
                )
            seq = MultiplicitySequence(
                tuple(entries),
                d,
                {
                    "u": [u - width + 1, u],
                    "v": [v - width + 1, v],
                    "width": width,
                },
                (u, v),
            )
            return seq, table
        if max(u, v) >= params.grow_cap:
            raise StabilizationError(
                f"no stable window within a {u}x{v} table", residuals
            )
        u = min(params.grow_cap, math.ceil(u * 1.5))
        v = min(params.grow_cap, math.ceil(v * 1.5))


# -- classical multiplicity ----------------------------------------------


def classical_multiplicity(
    ideal: Ideal, module: CyclicModule, params: Params | None = None
) -> int:
    """Leading normalized coefficient of n -> length of M/I^(n+1)M.

    Needs finite colength; computed as the eventually constant d-th
    finite difference, certified over a window like the tables are.
    """
    params = params or Params()
    _check_pair(ideal, module)
    joined = ideal.add(module.relations)
    if krull_dimension(joined) != 0:
        raise PreconditionError("ideal does not have finite colength on the module")
    d = module.dim
    width = params.window_width
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
        if count > 2 * params.grow_cap:
            raise StabilizationError("colength differences failed to stabilize")


# -- analytic spread ------------------------------------------------------


def _fresh_names(ring: PolyRing, base: str, count: int) -> tuple[str, ...]:
    names = []
    taken = set(ring.variables)
    for i in range(count):
        name = f"{base}{i}"
        while name in taken:
            name += "_"
        taken.add(name)
        names.append(name)
    return tuple(names)


def _minimal_generators(ideal: Ideal) -> list[Polynomial]:
    packed = ideal.packed()
    if packed is None:
        return list(ideal.gens)
    lay = mo.layout(ideal.ring.arity)
    return [ideal.ring.monomial(mo.unpack(lay, w)) for w in packed]


def analytic_spread(ideal: Ideal, module: CyclicModule) -> int:
    """Dimension of the special fiber of the I-filtration on the module.

    One tag variable per generator is matched to generator times an
    internal grading variable; eliminating that variable presents the
    blowup algebra, and killing the ring variables leaves the fiber in
    the tags alone.
    """
    from .orders import elimination_order, grevlex

    _check_pair(ideal, module)
    ring = ideal.ring
    gens = _minimal_generators(ideal)
    tags = _fresh_names(ring, "g", len(gens))
    (aux,) = _fresh_names(ring, "t", 1)
    ext = PolyRing(
        (aux,) + ring.variables + tags,
        ring.characteristic,
        elimination_order(1),
    )
    n = ring.arity
    pad = (0,) * len(tags)

    def lift(p: Polynomial) -> Polynomial:
        return Polynomial(ext, {(0,) + e + pad: c for e, c in p.terms.items()})

    t_var = ext.variable(aux)
    relations = [lift(p) for p in module.relations.gens]
    for idx, g in enumerate(gens):
        relations.append(ext.variable(tags[idx]) - t_var * lift(g))
    from .groebner import groebner_basis

    gb = groebner_basis(ext, relations, ext.order)
    tag_ring = PolyRing(tags, ring.characteristic, grevlex())
    fiber_gens = []
    for p in gb:
        if any(e[0] for e in p.terms):
            continue  # still involves the grading variable
        # kill the ring variables: keep only pure tag terms
        terms = {}
        for e, c in p.terms.items():
            if any(e[1 : 1 + n]):
                continue
            terms[e[1 + n :]] = c
        if terms:
            fiber_gens.append(Polynomial(tag_ring, terms))
    return krull_dimension(Ideal(tag_ring, fiber_gens))


# -- heights and the dimension condition ---------------------------------


def dimension_at_monomial_prime(
    module: CyclicModule, prime_vars: tuple[int, ...]
) -> int:
    """Dimension of the localized module at a variable-subset prime.

    Outside variables become units; the relations restrict to the kept
    variables and the local dimension is read off there.  Requires the
    prime to lie in the support.
    """
    kp = module.relations.packed()
    if kp is None:
        raise PreconditionError("monomial localization needs monomial relations")
    lay = mo.layout(module.ring.arity)
    restricted = mo.restrict(lay, kp, tuple(prime_vars))
    if mo.is_unit(restricted):
        raise PreconditionError("prime is outside the support of the module")
    if not prime_vars:
        return 0
    return mo.dimension(mo.layout(len(prime_vars)), restricted)


def height_on_module(ideal: Ideal, module: CyclicModule) -> int:
    """Minimum local dimension of the module over primes containing I.

    Positive height is the workhorse sufficient condition for the
    dimension condition behind the support decomposition.
    """
    _check_pair(ideal, module)
    joined = ideal.add(module.relations)
    if not joined.is_proper():
        raise PreconditionError("no primes contain the ideal on this module")
    jp = joined.packed()
    kp = module.relations.packed()
    if jp is not None and kp is not None:
        lay = mo.layout(module.ring.arity)
        best = None
        for prime in mo.minimal_primes(lay, jp):
            local = dimension_at_monomial_prime(module, tuple(sorted(prime)))
            if best is None or local < best:
                best = local
        return best
    if not module.equidimensional:
        raise PreconditionError(
            "height on a general module needs the equidimensionality assertion"
        )
    return module.dim - krull_dimension(joined)


def star_condition(
    ideal: Ideal, module: CyclicModule, params: Params | None = None
) -> bool | None:
    """Does every power of I act with full dimension, locally everywhere?

    Positive height settles it; otherwise the monomial route checks
    dim(I^n M) = dim M at every monomial prime of the support of M/IM
    for n up to the power cap.  None means the engine cannot decide
    (general data with height zero).
    """
    params = params or Params()
    _check_pair(ideal, module)
    if height_on_module(ideal, module) > 0:
        return True
    ip = ideal.packed()
    kp = module.relations.packed()
    if ip is None or kp is None:
        return None
    ring = module.ring
    lay = mo.layout(ring.arity)
    joined = mo.add(lay, ip, kp)
    supp = mo.supports(lay, joined)
    n_vars = ring.arity
    for size in range(1, n_vars + 1):
        for subset in itertools.combinations(range(n_vars), size):
            s = frozenset(subset)
            if not all(sp & s for sp in supp):
                continue  # prime does not contain I + K
            kept = tuple(subset)
            sub_lay = mo.layout(len(kept))
            k_local = mo.restrict(lay, kp, kept)
            i_local = mo.restrict(lay, ip, kept)
            d_local = mo.dimension(sub_lay, k_local)
            for n in range(1, params.power_cap + 1):
                colon = mo.colon_ideal(sub_lay, k_local, mo.power(sub_lay, i_local, n))
                if mo.is_unit(colon):
                    # the power kills the localized module, which only a
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
    spread: int | None
    consistent: bool


def diagnostics(
    ideal: Ideal,
    module: CyclicModule,
    params: Params | None = None,
    include_spread: bool = False,
) -> Diagnostics:
    params = params or Params()
    _check_pair(ideal, module)
    q = krull_dimension(ideal.add(module.relations))
    het = height_on_module(ideal, module)
    star = star_condition(ideal, module, params)
    spread = analytic_spread(ideal, module) if include_spread else None
    consistent = True
    if spread is not None and module.dim - spread > q:
        consistent = False
    return Diagnostics(
        dim=module.dim,
        colength_dim=q,
        height=het,
        star=star,
        finite_colength=(q == 0),
        spread=spread,
        consistent=consistent,
    )
