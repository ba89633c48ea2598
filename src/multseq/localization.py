"""Localization at variable-subset primes and the support decomposition.

For monomial input the localization at a prime generated by a subset of
the variables is again monomial data: the outside variables become
units, so generators simply forget their outside exponents.  That turns
each local leading coefficient into a small instance of the same table
pipeline, unless one of the two readings at the end of this docstring
decides it without a table.

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

c_0(I, M) != 0 exactly when the analytic spread of I on M is dim M
(Achilles and Manaresi, J. Math. Kyoto Univ. 33, 1993), and the fiber,
the sum of the I^j M / m I^j M, is cyclic over k[T_i : f_i not in K]:
the spread is at most mu, the number of generators of I outside K.
So c_0 = 0 when mu < dim M, and no table is built for it.

When I is generated by a pure power x_v^(a_v) of each variable, a
monomial system of parameters, c_0 is the Samuel multiplicity e(I, M),
and the associativity formula (Matsumura, Commutative Ring Theory,
Thm 14.7) gives it as the sum over the minimal primes q of K with
dim R/q = dim M of length(R_q/K_q) * e(I, R/q).  R/q is regular and
I's image there is generated by the x_v^(a_v) with v outside q, so
e(I, R/q) is its colength, the product of those a_v (Lech), and no
table is built for it either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import monomials as mo
from .hilbert import HilbertSeries
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
class Contribution:
    prime: tuple[str, ...]
    local_c0: int
    degree: int  # of R/p, a polynomial ring: always 1

    @property
    def product(self) -> int:
        return self.local_c0 * self.degree


def moving_residual(ideal: Ideal, module: CyclicModule, k: int) -> int | None:
    """Degree of the moving part of the k-dimensional Stuckrad-Vogel cycle.

    Computed from the generators of I and K alone, for 0 <= k <= dim M;
    None where no derivation covers the row.  Monomial input only.

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
    return _moving_residuals(ideal, module)[k]


def _moving_residuals(ideal: Ideal, module: CyclicModule) -> list[int | None]:
    """`moving_residual` for k = 0..d, reading I + K, mu and q once."""
    d, ip, kp = module.dim, ideal.packed(), module.relations.packed()
    if ip is None or kp is None:
        return [None] * (d + 1)
    lay = mo.layout(ideal.ring.arity)
    joined = mo.add(lay, ip, kp)
    mu = sum(1 for w in joined if not mo.member(lay, w, kp))
    q = mo.dimension(lay, joined)
    rows = [0 if k == 0 or k >= q or k < d - mu else None for k in range(d + 1)]
    if kp or d < 2 or rows[d - 2] is not None:
        return rows
    gens = [mo.unpack(lay, w) for w in ip]
    rows[d - 2] = 0
    for i in range(lay.arity):
        a = min(e[i] for e in gens)
        if not a:
            continue
        level = [e[:i] + e[i + 1 :] for e in gens if e[i] == a]
        gcd_degree = sum(min(column) for column in zip(*level))
        rows[d - 2] += a * (min(sum(e) for e in level) - gcd_degree)
    return rows


def _parameter_c0(
    lay: mo.Layout,
    exps: list[tuple[int, ...]],
    k_words: tuple[int, ...],
    local_dim: int,
) -> int:
    """c_0 of I_p = (x_v^(a_v) : v in p) on R_p/K_p, by associativity.

    The sum of the module docstring, with `exps` the exponents of the
    x_v^(a_v).  K_q is K_p on q's variables, primary to their maximal
    ideal, so length(R_q/K_q) is its Hilbert numerator at 1 once every
    (1-t) is cancelled.
    """
    powers = [sum(column) for column in zip(*exps)]
    total = 0
    for q in mo.minimal_primes(lay, k_words):
        if lay.arity - len(q) != local_dim:
            continue
        q_vars = tuple(sorted(q))
        q_lay = mo.layout(len(q_vars))
        numer = mo.bigraded_numerator(q_lay, mo.restrict(lay, k_words, q_vars), 0)
        flat = [0] * (1 + max(b for _, b in numer))
        for (_, b), c in numer.items():
            flat[b] = c
        length = sum(HilbertSeries(tuple(flat), len(q_vars)).reduced()[0])
        total += length * math.prod(a for v, a in enumerate(powers) if v not in q)
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
    `moving_residual`.  Λ_k holds the primes p over I + K with
    dim R/p = k and dim M_p = d - k.  One `_monomial_strata` map gives
    the height, the star condition and every stratum: for monomial
    input it holds every variable-subset prime over I + K, so each Λ_k
    is listed in full, its fixed components all, and Λ_0 is the maximal
    ideal alone.  There the localization is the pair itself, so row 0
    reads c_0 off the pair's sequence; every other prime's c_0 is 0 by
    the generator bound of the module docstring when mu < dim M_p on
    the words its key restricts, the associativity sum of the module
    docstring when those words of I_p are a pure power of each of the
    prime's variables, and otherwise the leading entry of the sequence
    of the pair built from them, once per distinct localized pair.
    Primes over non-monomial data are not enumerated, so every row
    lists none.  A row is complete when the stratum is fully enumerated
    and the residual is derived for it.  With the star condition in
    force and every row complete, c_k must equal rhs + residual
    exactly; otherwise the rows are reported as a lower-bound
    certificate rather than a verification.
    """
    seq, _ = multiplicity_sequence(ideal, module)
    strata = _monomial_strata(ideal, module)
    het = _height(ideal, module, strata)
    star = _star(ideal, module, strata, het)
    ring = ideal.ring
    n, d = ring.arity, module.dim
    lay = mo.layout(n)
    ip, kp = ideal.packed(), module.relations.packed()
    # primes whose localizations restrict I and K to the same words
    # have the same local pair, up to the names of its variables
    local: dict[tuple, int] = {}

    def c0(keep: tuple[int, ...], local_dim: int) -> int:
        i_words, k_words = mo.restrict(lay, ip, keep), mo.restrict(lay, kp, keep)
        sub_lay = mo.layout(len(keep))
        # the spread of I_p on M_p is at most mu, the words outside K_p
        if sum(1 for w in i_words if not mo.member(sub_lay, w, k_words)) < local_dim:
            return 0
        # a pure power of each variable: a monomial system of parameters
        exps = [mo.unpack(sub_lay, w) for w in i_words]
        if len(exps) == len(keep) and all(sum(map(bool, e)) == 1 for e in exps):
            return _parameter_c0(sub_lay, exps, k_words, local_dim)
        key = (len(keep), i_words, k_words)
        if key not in local:
            # in the prime's own variables; keep is a prime over I + K,
            # so I_p is neither (1) nor 0, and K_p is proper
            names = tuple(ring.variables[i] for i in keep)
            sub = PolyRing(names, ring.characteristic, grevlex())
            local_seq, _ = multiplicity_sequence(
                Ideal.from_packed(sub, i_words),
                CyclicModule(sub, Ideal.from_packed(sub, k_words)),
            )
            local[key] = local_seq.entries[0]
        return local[key]

    rows = []
    all_complete = True
    for k, residual in enumerate(_moving_residuals(ideal, module)):
        contribs = tuple(
            Contribution(
                tuple(ring.variables[i] for i in keep),
                c0(keep, local_dim) if k else seq.entries[0],
                1,
            )
            for keep, local_dim in (strata or {}).items()
            if len(keep) == n - k and local_dim == d - k
        )
        complete = strata is not None and residual is not None
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

