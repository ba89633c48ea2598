"""Reduction testing and randomized superficial-element search.

A smaller ideal I inside J is a reduction on the module when some power
satisfies J^(n+1)M = I·J^nM.  The direct test scans for the first such
n; the sequence criterion compares multiplicity sequences instead and,
with positive height and an unmixedness assertion, decides without a
witness.  Equal sequences are also a necessary condition with no
hypotheses at all, so the two routes cross-check each other.

Superficial elements are found by seeded random homogeneous
combinations drawn degree by degree from the ideal itself and accepted
purely on testable consequences: not in m·I, a nonzerodivisor on some
power of the ideal times the module, a dimension drop of one, and
preservation of the low multiplicity entries after killing the element.
Such a power exists exactly when (K : x) ⊆ K : I^∞, so one saturation
decides that step and the least power is found by a search that must
end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .config import Params
from .errors import PreconditionError, SearchExhausted
from .ideals import Ideal, require_homogeneous
from .multiplicity import (
    CyclicModule,
    MultiplicitySequence,
    _check_pair,
    _gr_numerator,
    _minimal_generators,
    _spread,
    _stabilize,
    _variables_ideal,
    height_on_module,
    multiplicity_sequence,
)
from .poly import Polynomial


def is_reduction(
    small: Ideal, large: Ideal, module: CyclicModule, n_max: int
) -> int | None:
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
        return upper.add(k).equals(small.multiply(lower).add(k))

    lower = large.power(0)  # J^n
    for n in range(n_max + 1):
        upper = lower.multiply(large)
        if equal_at(lower, upper):
            # equality propagates upward; one step is a cheap engine check
            if not equal_at(upper, upper.multiply(large)):
                raise RuntimeError(f"reduction equality at {n} failed to propagate")
            return n
        lower = upper
    return None


@dataclass(frozen=True)
class ReductionReport:
    contained: bool
    reduced_at: int | None
    checked_to: int
    sequence_small: MultiplicitySequence
    sequence_large: MultiplicitySequence
    criterion_verdict: str  # reduction | not-reduction | indeterminate
    height: int
    equidimensional: bool
    consistent: bool
    note: str = ""

    @property
    def sequences_equal(self) -> bool:
        return self.sequence_small.entries == self.sequence_large.entries


def rees_criterion(
    small: Ideal,
    large: Ideal,
    module: CyclicModule,
    params: Params | None = None,
) -> ReductionReport:
    """Decide reduction by comparing multiplicity sequences.

    Equal sequences plus positive height plus the unmixedness assertion
    give a reduction; unequal sequences refute one unconditionally.
    The direct witness scan always runs as an independent oracle, with
    a geometric budget escalation before an expected witness is
    declared missing.
    """
    params = params or Params()
    if not small.subset_of(large):
        raise PreconditionError("the candidate reduction is not contained in the ideal")
    seq_small, _ = multiplicity_sequence(small, module)
    if large.subset_of(small):
        seq_large = seq_small  # the same ideal
    else:
        seq_large, _ = multiplicity_sequence(large, module)
    equal = seq_small.entries == seq_large.entries
    het = height_on_module(small, module)
    if not equal:
        verdict = "not-reduction"
    elif het > 0 and module.equidimensional:
        verdict = "reduction"
    else:
        verdict = "indeterminate"
    budget = params.nmax
    witness = is_reduction(small, large, module, budget)
    while witness is None and verdict == "reduction" and budget < params.nmax_escalation:
        budget = min(params.nmax_escalation, budget * 2)
        witness = is_reduction(small, large, module, budget)
    consistent = True
    note = ""
    if witness is not None:
        if not equal:
            consistent = False
            note = (
                f"witness at n={witness} but sequences differ: "
                "necessary condition violated, engine suspect"
            )
    elif verdict == "reduction":
        consistent = False
        note = f"criterion predicts a reduction but no witness within {budget} steps"
    elif verdict == "indeterminate":
        note = f"no witness within {budget} steps and hypotheses unavailable"
    return ReductionReport(
        contained=True,
        reduced_at=witness,
        checked_to=budget,
        sequence_small=seq_small,
        sequence_large=seq_large,
        criterion_verdict=verdict,
        height=het,
        equidimensional=module.equidimensional,
        consistent=consistent,
        note=note,
    )


# -- superficial elements -------------------------------------------------


@dataclass(frozen=True)
class EvidenceItem:
    check: str
    detail: str
    passed: bool


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    degree: int
    coefficients: tuple[int, ...]
    outcome: str


@dataclass(frozen=True)
class SuperficialCandidate:
    """An accepted trial, its evidence, and the entries c_0..c_(d-2) of
    the pair's own sequence that its preservation check compared against."""

    element: Polynomial
    c_exponent: int
    trial: int
    degree: int
    coefficients: tuple[int, ...]
    seed: int
    evidence: tuple[EvidenceItem, ...]
    low_entries: tuple[int, ...]


def _monomials_of_degree(n: int, deg: int):
    if n == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in _monomials_of_degree(n - 1, deg - first):
            yield (first,) + rest


def _degree_classes(gens: list[Polynomial]) -> list[tuple[int, list[Polynomial]]]:
    """Homogeneous spanning sets of the ideal at each generator degree.

    A lower-degree generator contributes its monomial multiples of the
    class degree, so a draw ranges over the whole graded piece there;
    with mixed generator degrees the raw generators alone would miss
    most of it.
    """
    ring = gens[0].ring
    classes = []
    for target in sorted({g.total_degree() for g in gens}):
        basis: list[Polynomial] = []
        seen: set[tuple] = set()
        for g in gens:
            gap = target - g.total_degree()
            if gap < 0:
                continue
            for exps in _monomials_of_degree(ring.arity, gap):
                lifted = g * ring.monomial(exps)
                key = tuple(sorted(lifted.terms.items()))
                if key not in seen:
                    seen.add(key)
                    basis.append(lifted)
        classes.append((target, basis))
    return classes


def _draw_coefficients(rng: random.Random, count: int, bound: int) -> tuple[int, ...]:
    for _ in range(8):
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(count))
        if any(coeffs):
            return coeffs
    return coeffs


def _nzd_exponent(
    element: Polynomial, ideal: Ideal, module: CyclicModule
) -> int | None:
    """Least c with ((K : x) ∩ (I^c + K)) ⊆ K, or None when there is none.

    x is then a nonzerodivisor on I^c M.  Such a c exists exactly when
    (K : x) ⊆ K : I^∞: a power of I kills every element that x kills,
    and by the Artin-Rees lemma the elements x kills meet I^c M only in
    0 for large c (Atiyah-Macdonald, *Introduction to Commutative
    Algebra*, Ch. 10).  So past that inclusion the search must end.
    """
    relations = module.relations
    annihilating = relations.colon_poly(element)
    if annihilating.subset_of(relations):
        return 0
    if not annihilating.subset_of(relations.saturate(ideal)):
        return None
    c, power = 1, ideal  # I^c
    while not annihilating.intersect(power.add(relations)).subset_of(relations):
        c, power = c + 1, power.multiply(ideal)
    return c


def _trial_context(
    ideal: Ideal,
) -> tuple[Ideal, list[tuple[int, list[Polynomial]]]]:
    """What every trial on `ideal` shares: m·I and the degree classes."""
    classes = _degree_classes(_minimal_generators(ideal))
    return _variables_ideal(ideal.ring).multiply(ideal), classes


def _run_trial(
    ideal: Ideal,
    module: CyclicModule,
    params: Params,
    trial: int,
    low_entries: tuple[int, ...],
    m_times_ideal: Ideal,
    classes: list[tuple[int, list[Polynomial]]],
) -> tuple[TrialRecord, SuperficialCandidate | None]:
    ring = ideal.ring
    d = module.dim
    rng = random.Random(params.seed * 1_000_003 + trial)
    bound = params.coeff_bound * (1 + trial // 5)
    degree, basis = classes[trial % len(classes)]
    coeffs = _draw_coefficients(rng, len(basis), bound)

    def record(outcome: str) -> TrialRecord:
        return TrialRecord(trial, degree, coeffs, outcome)

    if not any(coeffs):
        return record("all drawn coefficients were zero"), None
    element = ring.zero()
    for a, g in zip(coeffs, basis):
        element = element + g.scale(ring.coeff(a))
    if element.is_zero():
        return record("combination collapsed to zero"), None
    evidence = [
        EvidenceItem("draw", f"degree {degree}, coefficients {list(coeffs)}", True)
    ]
    if m_times_ideal.contains(element):
        return record("element fell inside m times the ideal"), None
    evidence.append(EvidenceItem("outside-m-times-ideal", str(element), True))
    c = _nzd_exponent(element, ideal, module)
    if c is None:
        return record(
            "no nonzerodivisor power: (K : x) is not inside K : I^∞"
        ), None
    evidence.append(
        EvidenceItem("nonzerodivisor-power", f"c = {c}", True)
    )
    quotient = CyclicModule(
        ring, module.relations.add(Ideal(ring, [element]))
    )
    if quotient.dim != d - 1:
        return record(f"dimension dropped to {quotient.dim}, expected {d - 1}"), None
    evidence.append(
        EvidenceItem("dimension-drop", f"{d} -> {quotient.dim}", True)
    )
    seq_quotient, _ = multiplicity_sequence(ideal, quotient)
    got = seq_quotient.entries[: d - 1]
    if got != low_entries:
        return record(f"low entries changed: {list(got)} vs {list(low_entries)}"), None
    evidence.append(
        EvidenceItem("preservation", f"entries {list(got)} match below top", True)
    )
    candidate = SuperficialCandidate(
        element=element,
        c_exponent=c,
        trial=trial,
        degree=degree,
        coefficients=coeffs,
        seed=params.seed,
        evidence=tuple(evidence),
        low_entries=low_entries,
    )
    return record("accepted"), candidate


def superficial_search(
    ideal: Ideal,
    module: CyclicModule,
    params: Params | None = None,
) -> SuperficialCandidate:
    """Find a seeded random combination of generators acting superficially.

    Candidates are validated by consequences only; see the module
    docstring.  The returned candidate is the lowest-index success, so
    the result is deterministic in (seed, trial count).
    """
    params = params or Params()
    _check_pair(ideal, module)
    # the spread and the baseline sequence read one numerator
    n, r, numerator = _gr_numerator(ideal, module)
    if not _spread(r, numerator) > 0:
        raise PreconditionError(
            "the ideal acts nilpotently on the module; no superficial element exists"
        )
    baseline, _ = _stabilize(module.dim, n, r, numerator)
    if module.dim < 1:
        raise PreconditionError("superficial elements need positive dimension")
    low_entries = baseline.entries[: module.dim - 1]
    m_times_ideal, classes = _trial_context(ideal)
    records = []
    for trial in range(params.trials):
        rec, candidate = _run_trial(
            ideal, module, params, trial, low_entries, m_times_ideal, classes
        )
        records.append(rec)
        if candidate is not None:
            return candidate
    raise SearchExhausted(
        "no candidate passed validation; outcomes: "
        + "; ".join(f"#{r.trial}({r.outcome})" for r in records),
        trials=records,
    )


def revalidate(
    candidate: SuperficialCandidate,
    ideal: Ideal,
    module: CyclicModule,
    params: Params | None = None,
) -> bool:
    """Re-run the candidate's trial from its seed and compare evidence.

    The replay recomputes everything but the pair's own low entries,
    which the candidate carries.
    """
    params = (params or Params()).replace(seed=candidate.seed)
    m_times_ideal, classes = _trial_context(ideal)
    rec, redone = _run_trial(
        ideal,
        module,
        params,
        candidate.trial,
        candidate.low_entries,
        m_times_ideal,
        classes,
    )
    if redone is None:
        return False
    return (
        redone.element.key() == candidate.element.key()
        and redone.c_exponent == candidate.c_exponent
        and redone.coefficients == candidate.coefficients
        and redone.evidence == candidate.evidence
    )
