"""Localization at variable-subset primes and the support decomposition.

For monomial input the localization at a prime generated by a subset of
the variables is again monomial data: the outside variables become
units, so generators simply forget their outside exponents.  That turns
each local leading coefficient into a small instance of the same table
pipeline.

In the framework of Achilles and Manaresi, c_k is the degree of the
k-dimensional part of the Stuckrad-Vogel cycle of I on M, built by
intersecting with general elements of I.  Its components are fixed (the
same for every general choice) or moving (they vary with the choice).
For monomial data the fixed components are torus invariant, hence
generated by variables, and their part of c_k is the finite sum of
local c_0 over variable-subset primes.  The moving components are not
primes of any finite list; `moving_residual` counts them by residual
intersection (Fulton, Intersection Theory, Ch. 9) on the rows where
that count is derived, and the remaining rows are reported incomplete.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import monomials as mo
from .errors import PreconditionError
from .ideals import Ideal
from .multiplicity import (
    CyclicModule,
    MultiplicitySequence,
    _height,
    _monomial_strata,
    _star,
    multiplicity_sequence,
)
from .orders import grevlex
from .poly import PolyRing


@dataclass(frozen=True)
class MonomialPrime:
    """Prime generated by a subset of the variables."""

    variables: tuple[str, ...]

    @staticmethod
    def from_indices(ring: PolyRing, indices) -> MonomialPrime:
        return MonomialPrime(tuple(ring.variables[i] for i in sorted(indices)))

    def indices(self, ring: PolyRing) -> tuple[int, ...]:
        try:
            return tuple(ring.variables.index(v) for v in self.variables)
        except ValueError:
            raise ValueError(f"prime variables {self.variables} not in ring")

    def __str__(self) -> str:
        return "(" + ", ".join(self.variables) + ")" if self.variables else "(0)"


def _restricted_ring(ring: PolyRing, prime: MonomialPrime) -> PolyRing:
    # the localized picture lives in the prime's own variables
    names = tuple(v for v in ring.variables if v in prime.variables)
    return PolyRing(names, ring.characteristic, grevlex())


def localize_ideal(ideal: Ideal, prime: MonomialPrime) -> Ideal:
    """Image of a monomial ideal in the local ring at the prime.

    Exponents on variables outside the prime are dropped; the result is
    the ideal of the restricted polynomial ring in the prime's
    variables that presents the localization.
    """
    packed = ideal.packed()
    if packed is None:
        raise PreconditionError("localization needs monomial generators")
    ring = ideal.ring
    if not prime.variables:
        raise PreconditionError("cannot localize at the empty variable set")
    lay = mo.layout(ring.arity)
    restricted = mo.restrict(lay, packed, prime.indices(ring))
    return Ideal.from_packed(_restricted_ring(ring, prime), restricted)


def localize_module(module: CyclicModule, prime: MonomialPrime) -> CyclicModule:
    return _local_module(localize_ideal(module.relations, prime))


def _local_module(relations: Ideal) -> CyclicModule:
    if not relations.is_proper():
        raise PreconditionError("prime lies outside the support of the module")
    return CyclicModule(relations.ring, relations)


@dataclass(frozen=True)
class LambdaSet:
    """Primes of codimension-complement k meeting the dimension condition."""

    k: int
    primes: tuple[MonomialPrime, ...]
    complete: bool
    note: str = ""


def enumerate_lambda(ideal: Ideal, module: CyclicModule) -> tuple[LambdaSet, ...]:
    """The strata Λ_0..Λ_d, all read off one `_monomial_strata` map.

    Λ_k holds the primes p over I plus relations with dim R/p = k and
    dim M_p = d - k.  Monomial input enumerates every variable-subset
    prime, so Λ_0 is the maximal ideal alone, and lists every fixed
    component of the k-dimensional Stuckrad-Vogel cycle; `complete`
    certifies that fixed list only.  Moving components are not listed
    here (see `moving_residual`).  Primes over non-monomial data are not
    enumerated: every stratum is returned empty and incomplete, so its
    row reads as a lower bound.
    """
    if not ideal.add(module.relations).is_proper():
        raise PreconditionError("support of the colength module is empty")
    return _lambda_sets(ideal, module, _monomial_strata(ideal, module))


def _lambda_sets(
    ideal: Ideal, module: CyclicModule, strata: dict | None
) -> tuple[LambdaSet, ...]:
    """`enumerate_lambda`, given the pair's `_monomial_strata` map."""
    ring = ideal.ring
    n = ring.arity
    d = module.dim
    if strata is None:
        note = "general input: primes over it are not enumerated"
        return tuple(LambdaSet(k, (), False, note) for k in range(d + 1))
    return tuple(
        LambdaSet(
            k,
            tuple(
                MonomialPrime.from_indices(ring, subset)
                for subset, local_dim in strata.items()
                if len(subset) == n - k and local_dim == d - k
            ),
            True,
        )
        for k in range(d + 1)
    )


def local_c0(ideal: Ideal, module: CyclicModule, prime: MonomialPrime) -> int:
    """Leading coefficient c_0 of the localized pair at the prime."""
    return _c0(localize_ideal(ideal, prime), localize_module(module, prime))


def _c0(local_i: Ideal, local_m: CyclicModule) -> int:
    if not local_i.is_proper():
        return 0  # the ideal is a unit there; nothing is carried
    if local_i.is_zero():
        return 0
    seq, _ = multiplicity_sequence(local_i, local_m)
    return seq.entries[0]


@dataclass(frozen=True)
class Contribution:
    prime: tuple[str, ...]
    local_c0: int
    degree: int  # of R/p, a polynomial ring: always 1

    @property
    def product(self) -> int:
        return self.local_c0 * self.degree


def moving_residual(ideal: Ideal, module: CyclicModule, k: int) -> int | None:
    """Degree of the moving part of the k-dimensional Stuckrad-Vogel cycle.

    Computed from the generators of I and K alone; None where no
    derivation covers the row.  Monomial input only.

    A moving component at index k lies in V(I + K) but is not torus
    invariant, so it sits inside a component of Supp(M/IM) of dimension
    greater than k: rows with k = 0 (the origin is fixed) or
    k >= q = dim M/IM carry none, and the residual is 0.  Nor do rows
    with k < d - mu, where mu is the number of generators of IM: the
    residual scheme after s steps lies in Supp(M/(g_1..g_s)M), and mu
    general elements generate IM, so nothing is left after step mu and
    the cycle has no component of dimension below d - mu.

    For K = 0, so M = R and d = n, the row k = d - 2 is derived as
    follows.  Write the minimal generators as G * m'_j, where
    G = prod x_i^(a_i) is their monomial gcd, so a_i is the least
    x_i-exponent.  A general element is g = G * g' with g' general in
    I' = I / G, the unit ideal or of height at least 2.  The first step
    of the cycle is the fixed divisor sum a_i [x_i = 0]; the residual
    scheme is V(g').  The second step intersects V(g') with
    V(g_2) = V(G) + V(g'_2).  On the hyperplane x_i = 0,
    (G / x_i^(a_i)) * g' restricts to a general element of S_i, the
    generators with x_i-exponent exactly a_i with x_i^(a_i) removed.
    So g' restricts to nu_i * j_i with nu_i a monomial and j_i general
    in J_i, which is S_i divided by its monomial gcd.  V(nu_i) gives
    coordinate (fixed) subspaces; V(j_i) has no torus-invariant
    component, since no variable divides every generator of J_i, so it
    is moving, and V(G) meets V(g') along it with multiplicity a_i.
    By the associativity formula its degree is
    a_i * e(R/(x_i, j_i)) = a_i * ord(j_i) = a_i * ord(J_i), where ord
    is the least generator degree (0 for J_i = (1): no moving part).
    No other moving component of dimension d - 2 appears: V(g', g'_2)
    meets V(I') only in coordinate subspaces, and meets x_i = 0 in
    V(nu_i) plus V(j_i, j'_i), which has dimension d - 3.  Hence the
    moving degree is the sum over i of a_i * ord(J_i).

    The other rows (0 < k < d - 2 with mu > 2, or K != 0 with
    0 < k < q and k >= d - mu) can carry moving components that do not
    lie on a divisorial factor of I; they are not derived here.
    """
    ip = ideal.packed()
    kp = module.relations.packed()
    if ip is None or kp is None:
        return None
    lay = mo.layout(ideal.ring.arity)
    joined = mo.add(lay, ip, kp)
    mu = sum(1 for w in joined if not mo.member(lay, w, kp))
    if k == 0 or k >= mo.dimension(lay, joined) or k < module.dim - mu:
        return 0
    if kp or k != module.dim - 2:
        return None
    gens = [mo.unpack(lay, w) for w in ip]
    total = 0
    for i in range(lay.arity):
        a = min(e[i] for e in gens)
        if not a:
            continue
        level = [e[:i] + e[i + 1 :] for e in gens if e[i] == a]
        gcd_degree = sum(min(column) for column in zip(*level))
        total += a * (min(sum(e) for e in level) - gcd_degree)
    return total


@dataclass(frozen=True)
class KSummary:
    """One row: c_k against the fixed-prime sum plus the moving residual."""

    k: int
    contributions: tuple[Contribution, ...]
    rhs: int
    residual: int
    lhs: int
    complete: bool

    @property
    def matches(self) -> bool | None:
        if not self.complete:
            return None
        return self.rhs + self.residual == self.lhs


@dataclass(frozen=True)
class FormulaReport:
    sequence: MultiplicitySequence
    height: int
    star: bool | None
    rows: tuple[KSummary, ...]
    complete: bool
    verdict: str  # verified | mismatch | lower-bound | hypotheses-not-met

    @property
    def verified(self) -> bool:
        return self.verdict == "verified"


def verify_formula(ideal: Ideal, module: CyclicModule) -> FormulaReport:
    """Compare the sequence against its support decomposition.

    Each entry c_k is the degree of the k-dimensional part of the
    Stuckrad-Vogel cycle.  Its fixed part is `rhs`, the sum over the
    stratum Λ_k of the local leading coefficient times the degree of
    the residue ring; its moving part is `residual`, from
    `moving_residual`.  One `_monomial_strata` map gives the height,
    the star condition and every stratum.  Λ_0 is the maximal ideal,
    where the localization is the pair itself, so row 0 reads c_0 off
    the pair's sequence; every other prime takes the `local_c0` route,
    on the pair built from the words its key restricts, once per
    distinct localized pair.  A row is complete when the stratum is
    fully enumerated and the residual is derived for it.  With the star
    condition in force and every row complete, c_k must equal
    rhs + residual exactly; otherwise the rows are reported as a
    lower-bound certificate rather than a verification.
    """
    seq, _ = multiplicity_sequence(ideal, module)
    strata = _monomial_strata(ideal, module)
    het = _height(ideal, module, strata)
    star = _star(ideal, module, strata, het)
    ring = ideal.ring
    lay = mo.layout(ring.arity)
    ip, kp = ideal.packed(), module.relations.packed()
    # primes whose localizations restrict I and K to the same words
    # have the same local pair, up to the names of its variables
    local: dict[tuple, int] = {}

    def c0(prime: MonomialPrime) -> int:
        keep = prime.indices(ring)
        i_words, k_words = mo.restrict(lay, ip, keep), mo.restrict(lay, kp, keep)
        key = (len(keep), i_words, k_words)
        if key not in local:
            sub = _restricted_ring(ring, prime)
            local[key] = _c0(
                Ideal.from_packed(sub, i_words),
                _local_module(Ideal.from_packed(sub, k_words)),
            )
        return local[key]

    rows = []
    all_complete = True
    for lam in _lambda_sets(ideal, module, strata):
        k = lam.k
        contribs = tuple(
            Contribution(p.variables, c0(p) if k else seq.entries[0], 1)
            for p in lam.primes
        )
        residual = moving_residual(ideal, module, k)
        complete = lam.complete and residual is not None
        rows.append(
            KSummary(
                k=k,
                contributions=contribs,
                rhs=sum(c.product for c in contribs),
                residual=residual or 0,
                lhs=seq.entries[k],
                complete=complete,
            )
        )
        all_complete = all_complete and complete
    hypotheses = star is True
    if hypotheses and all_complete:
        verdict = "verified" if all(r.matches for r in rows) else "mismatch"
    elif not hypotheses:
        verdict = "hypotheses-not-met"
    else:
        verdict = "lower-bound"
    return FormulaReport(seq, het, star, tuple(rows), all_complete, verdict)

