"""Reduction testing and randomized superficial-element search.

A smaller ideal I inside J is a reduction on the module when some power
satisfies J^(n+1)M = I·J^nM; the least such n is read exactly off the
Rees module of J.  The sequence criterion compares multiplicity
sequences instead and, with positive height and an unmixedness
assertion, decides without it.  Equal sequences are also a necessary
condition with no hypotheses at all, so the two routes cross-check.

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
from .hilbert import HilbertSeries
from .ideals import Ideal
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


# the budgets of the witness scan the exact route replaced, kept so
# that `checked_to` reads as it did wherever the scan had answered
NMAX = 12
NMAX_ESCALATION = 48


def rees_criterion(
    small: Ideal, large: Ideal, module: CyclicModule
) -> ReductionReport:
    """Decide reduction by comparing multiplicity sequences.

    Equal sequences plus positive height plus the unmixedness assertion
    give a reduction; unequal sequences refute one unconditionally.
    The reduction number, read off the Rees module of J on the same
    prefix as J's own sequence (`_reduction_number`), is the
    independent second answer.
    """
    if not small.subset_of(large):
        raise PreconditionError("the candidate reduction is not contained in the ideal")
    seq_small, _ = multiplicity_sequence(small, module)
    if large.subset_of(small):
        seq_large, reduced_at = seq_small, 0  # the same ideal
    else:
        _check_pair(large, module)
        n, r, numerator, quotient = _gr_numerator(large, module, small)
        seq_large, _ = _stabilize(module.dim, n, r, numerator)
        reduced_at = _reduction_number(r, quotient)
    equal = seq_small.entries == seq_large.entries
    het = height_on_module(small, module)
    if not equal:
        verdict = "not-reduction"
    elif het > 0 and module.equidimensional:
        verdict = "reduction"
    else:
        verdict = "indeterminate"
    budget = NMAX
    need = NMAX_ESCALATION if reduced_at is None else reduced_at
    while verdict == "reduction" and budget < min(need, NMAX_ESCALATION):
        budget *= 2
    consistent = True
    note = ""
    if reduced_at is not None:
        if not equal:
            consistent = False
            note = (
                f"witness at n={reduced_at} but sequences differ: "
                "necessary condition violated, engine suspect"
            )
    elif verdict == "reduction":
        consistent = False
        note = f"criterion predicts a reduction but no witness within {budget} steps"
    elif verdict == "indeterminate":
        note = f"no witness within {budget} steps and hypotheses unavailable"
    return ReductionReport(
        contained=True,
        reduced_at=reduced_at,
        checked_to=budget,
        sequence_small=seq_small,
        sequence_large=seq_large,
        criterion_verdict=verdict,
        height=het,
        equidimensional=module.equidimensional,
        consistent=consistent,
        note=note,
    )


def _reduction_number(r: int, numerator: dict) -> int | None:
    """Least n with J^(n+1)M = I·J^nM, off the Q_N of `_gr_numerator`.

    N = R_J(M) / I·t·R_J(M) has J^(v+1)M / I·J^vM in T-degree v + 1, and
    past one that vanishes all do: J^(v+2)M = J·I·J^vM = I·J^(v+1)M.  So
    I is a reduction exactly when (1-t)^r divides every s-row of Q_N,
    and n is the top degree of the quotients (Huneke-Swanson, *Integral
    Closure of Ideals, Rings, and Modules*, ch. 8).
    """
    rows: dict[int, dict[int, int]] = {}
    for (p, q), c in numerator.items():
        rows.setdefault(p, {})[q] = c
    reduced = [
        HilbertSeries(tuple(row.get(q, 0) for q in range(max(row) + 1)), r).reduced()
        for row in rows.values()
    ]
    if any(left for _, left in reduced):
        return None
    return max(len(quotient) - 1 for quotient, _ in reduced)


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
    # the spread is read off the baseline sequence's own table
    baseline, table = multiplicity_sequence(ideal, module)
    if not _spread(table.r, table.numerator) > 0:
        raise PreconditionError(
            "the ideal acts nilpotently on the module; no superficial element exists"
        )
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
