"""End-to-end acceptance checks, one test per shipped guarantee.

Covers the golden principal-ideal case, the README's example, the
collapse to the classical multiplicity for finite-colength inputs, the
support decomposition and the vanishing bounds on a seeded corpus,
reduction detection, the power-image shift, superficial search, and
coefficient extraction.
Run with -v to get one verdict line per guarantee; the printed
summaries name the offending inputs when a guarantee breaks.
"""

import math
import random
import re
import time
from pathlib import Path

import pytest

import oracles
from conftest import ideal, module, poly, ring
from multseq import (
    CyclicModule,
    Params,
    diagnostics,
    generate_corpus,
    multiplicity_sequence,
    problem_from_dict,
    rees_criterion,
    revalidate,
    superficial_search,
    verify_formula,
)
from oracles import (
    classical_multiplicity,
    extract_top_coefficients,
    hilbert_table,
    polynomial_power,
    sequences_equal,
)


def _shared_variables(document):
    # corpus variables are single letters, so substring containment in a
    # monomial string is exact divisibility
    return [
        v
        for v in document["ring"]["variables"]
        if all(v in g for g in document["ideals"]["I"])
    ]


def _draw_exponents(rng, arity, max_degree):
    while True:
        exps = [rng.randrange(max_degree + 1) for _ in range(arity)]
        if any(exps) and sum(exps) <= max_degree:
            return exps


def _monomial(names, exponents):
    return "*".join(
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(names, exponents)
        if e
    )


@pytest.fixture(scope="module")
def decomposition_suite():
    """Seeded 100-input corpus with sequence, decomposition, diagnostics."""
    documents = generate_corpus(100, n_vars=3, max_degree=4, seed=0, mode="single")
    start = time.perf_counter()
    rows = []
    for document in documents:
        problem = problem_from_dict(document)
        a, m = problem.ideal, problem.module()
        report = verify_formula(a, m)
        diag = diagnostics(a, m, multiplicity_sequence(a, m)[1])
        rows.append((document, report, diag))
    return rows, time.perf_counter() - start


def test_principal_ideal_golden_case():
    start = time.perf_counter()
    r = ring("x", "y")
    a = ideal(r, "x")
    m = module(r)
    seq, table = multiplicity_sequence(a, m)
    assert seq.entries == (0, 1, 0)
    for u, row in enumerate(oracles.values(table)):
        for v, value in enumerate(row):
            assert value == (u + 1) * (v + 1), f"h({u}, {v}) = {value}"
    report = verify_formula(a, m)
    assert report.verdict == "verified"
    by_k = {row.k: row for row in report.rows}
    assert by_k[1].lhs == by_k[1].rhs == 1
    assert [
        (c.prime, c.local_c0, c.degree) for c in by_k[1].contributions
    ] == [(("x",), 1, 1)]
    elapsed = time.perf_counter() - start
    print(f"golden case: sequence (0, 1, 0), decomposition verified, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_readme_example_runs():
    # the README's import example, run as written, so it cannot go stale
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    names = {}
    exec(blocks[0], names)
    assert names["seq"].entries == (0, 1, 0)
    assert names["report"].verdict == "verified"


def test_finite_colength_collapses_to_classical():
    start = time.perf_counter()
    documents = generate_corpus(50, n_vars=3, max_degree=4, seed=0, mode="primary")
    for document in documents:
        problem = problem_from_dict(document)
        a, m = problem.ideal, problem.module()
        seq, _ = multiplicity_sequence(a, m)
        e = classical_multiplicity(a, m)
        assert seq.entries[0] == e, (document["label"], seq.entries, e)
        assert not any(seq.entries[1:]), (document["label"], seq.entries)
    elapsed = time.perf_counter() - start
    print(f"classical collapse: 50/50 inputs, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_support_decomposition_on_random_corpus(decomposition_suite):
    rows, elapsed = decomposition_suite
    bad = [(doc, rep) for doc, rep, _ in rows if rep.verdict != "verified"]
    print(
        f"support decomposition: {len(rows) - len(bad)}/{len(rows)} verified, "
        f"{elapsed:.1f}s"
    )
    assert elapsed < 600.0
    lines = [
        f"{len(bad)} of {len(rows)} inputs disagree with their support aggregation:"
    ]
    for doc, rep in bad:
        divergent = [
            (row.k, row.lhs, row.rhs) for row in rep.rows if row.lhs != row.rhs
        ]
        shared = _shared_variables(doc)
        lines.append(
            f"  {doc['label']}: I = {doc['ideals']['I']}, K = {doc['ideals']['K']}, "
            f"verdict {rep.verdict}, (k, sequence, aggregate) = {divergent}, "
            f"shared variable factor = {shared or None}"
        )
    if bad and all(_shared_variables(doc) for doc, _ in bad):
        lines.append(
            "note: every divergent input has a variable dividing all generators "
            "of I, and the sequence only ever exceeds the aggregate"
        )
    assert not bad, "\n".join(lines)


def test_vanishing_bounds_on_random_corpus(decomposition_suite):
    rows, _ = decomposition_suite
    violations = []
    for doc, rep, diag in rows:
        entries = rep.sequence.entries
        d, q = diag.dim, diag.colength_dim
        for i in range(q + 1, d + 1):
            if entries[i]:
                violations.append((doc["label"], "above", i, entries))
        for i in range(d - diag.spread):
            if entries[i]:
                violations.append((doc["label"], "below", i, entries))
    print(
        f"vanishing bounds: 100 inputs clean above dim M/IM, "
        f"{len(rows)} spread lower bounds checked"
    )
    assert not violations, violations
    assert rows


def test_reduction_detection_and_consistency():
    start = time.perf_counter()
    r = ring("x", "y")
    m = module(r)

    report = rees_criterion(ideal(r, "x^2", "y^2"), ideal(r, "x^2", "x*y", "y^2"), m)
    assert report.criterion_verdict == "reduction"
    assert report.reduced_at == 1
    assert sequences_equal(report) and report.consistent

    report = rees_criterion(ideal(r, "x^2", "y^2"), ideal(r, "x", "y"), m)
    assert report.criterion_verdict == "not-reduction"
    assert report.sequence_small.entries == (4, 0, 0)
    assert report.sequence_large.entries == (1, 0, 0)
    assert report.reduced_at is None and report.consistent

    documents = generate_corpus(30, n_vars=3, max_degree=4, seed=0, mode="pair")
    for document in documents:
        problem = problem_from_dict(document)
        report = rees_criterion(
            problem.ideal, problem.larger_ideal, problem.module()
        )
        label = document["label"]
        assert report.consistent, (label, report)
        assert report.criterion_verdict in ("reduction", "not-reduction"), label
        if report.reduced_at is not None:
            assert sequences_equal(report), (label, report)
        if report.criterion_verdict == "not-reduction":
            assert report.reduced_at is None, (label, report)
            assert not sequences_equal(report), (label, report)
    elapsed = time.perf_counter() - start
    print(f"reduction detection: 2 curated + 30 seeded pairs, {elapsed:.1f}s")
    assert elapsed < 300.0


def test_power_image_shift_identity():
    # for principal I = (g) the image g^n M is cyclic with relations
    # K : g^n, and its table must equal h(u, v + n) - h(u, n - 1)
    rng = random.Random(0)
    names = ("x", "y", "z")
    for index in range(20):
        arity = rng.choice((2, 3))
        r = ring(*names[:arity])
        g_text = _monomial(names, _draw_exponents(rng, arity, 2))
        relations = [
            _monomial(names, _draw_exponents(rng, arity, 3))
            for _ in range(rng.randrange(3))
        ]
        a = ideal(r, g_text)
        m = module(r, *relations)
        big = oracles.values(hilbert_table(a, m, 6, 9))
        for n in (1, 2, 3):
            colon = ideal(r, *relations).colon_poly(polynomial_power(poly(r, g_text), n))
            if not colon.is_proper():
                # g^n already lies in the relations: the power image is
                # the zero module, so the shifted table must vanish
                for u in range(7):
                    for v in range(10 - n):
                        assert big[u][v + n] == big[u][n - 1]
                continue
            surrogate = CyclicModule(r, colon)
            small = oracles.values(hilbert_table(a, surrogate, 6, 9 - n))
            for u in range(7):
                for v in range(10 - n):
                    want = big[u][v + n] - big[u][n - 1]
                    assert small[u][v] == want, (index, g_text, relations, n, u, v)
    print("power image shift: 20 seeded inputs exact for n in (1, 2, 3)")


def test_superficial_search_with_revalidation():
    start = time.perf_counter()
    documents = generate_corpus(20, n_vars=3, max_degree=4, seed=0, mode="superficial")
    params = Params()
    for document in documents:
        problem = problem_from_dict(document)
        a, m = problem.ideal, problem.module()
        candidate = superficial_search(a, m, params)
        label = document["label"]
        assert candidate.trial < 10, (label, candidate)
        assert revalidate(candidate, a, m, params), (label, candidate)
        assert revalidate(candidate, a, m, params), (label, candidate)
        again = superficial_search(a, m, params)
        assert again.element == candidate.element, label
        assert again.c_exponent == candidate.c_exponent, label
    elapsed = time.perf_counter() - start
    print(f"superficial search: 20/20 found and revalidated, {elapsed:.1f}s")


def test_coefficient_extraction_round_trip():
    rng = random.Random(0)
    for _ in range(200):
        d = rng.randrange(5)
        coeffs = {
            (a, b): rng.randrange(6)
            for a in range(d + 1)
            for b in range(d + 1 - a)
        }
        top = [coeffs.get((k, d - k), 0) for k in range(d + 1)]
        if not any(top):
            coeffs[(d, 0)] = 1 + coeffs.get((d, 0), 0)
            top[d] += 1
        size = d + 4
        values = [
            [sum(c * u**a * v**b for (a, b), c in coeffs.items()) for v in range(size + 1)]
            for u in range(size + 1)
        ]
        entries, residuals = extract_top_coefficients(values, d)
        assert entries is not None, residuals
        assert entries == [
            math.factorial(k) * math.factorial(d - k) * top[k] for k in range(d + 1)
        ]
    print("coefficient extraction: 200 synthetic tables recovered exactly")
