"""Identities every multiplicity sequence must keep.

Each identity is a theorem, checked exactly on seeded corpora, on the
numerator Q(s, t) and on the sequence read off it:
- renaming the variables changes neither;
- for monomial I and K the Rees relations are monomials and
  pure-difference binomials, and Buchberger on them divides by nothing
  but ±1 (Eisenbud-Sturmfels, "Binomial ideals", Duke Math. J. 84,
  1996), so both are the same over Q and over every prime field;
- a free variable w, with I and K unchanged, multiplies the series by
  1/(1-s): Q stays and c(I, M[w]) = (0, c_0, ..., c_d);
- a graded change of coordinates x_i -> x_i + a_i x_(i+1), triangular
  with determinant 1, is an automorphism of R that fixes m, so the
  image pair has the same sequence.
No shared code path satisfies them by accident.  A renamed variable
moves to another lane of every order row, a prime sends the kernel down
its modular branch, one more variable changes every layout, and the
change of coordinates turns monomial data into polynomials that take
the Gröbner route.
"""

import itertools
import random
from pathlib import Path

import pytest

from multseq import (
    CyclicModule,
    Ideal,
    generate_corpus,
    multiplicity_sequence,
    problem_from_dict,
)
from multseq.multiplicity import _gr_numerator

# (variables, corpus mode, relations, count)
CORPORA = (
    (3, "primary", "mixed", 20),
    (3, "single", "mixed", 20),
    (4, "single", "monomial", 10),
)


def documents():
    for n_vars, mode, relations, count in CORPORA:
        yield from generate_corpus(
            count, n_vars=n_vars, max_degree=4, seed=3, mode=mode, relations=relations
        )


def with_ring(document, **ring):
    return {**document, "ring": {**document["ring"], **ring}}


def answer(document):
    """(n, r, Q) and c_0..c_d of a document's pair."""
    problem = problem_from_dict(document)
    a, m = problem.ideal, problem.module()
    seq, _ = multiplicity_sequence(a, m)
    return _gr_numerator(a, m), seq.entries


def test_renaming_the_variables():
    rng = random.Random(1)
    for document in documents():
        names = document["ring"]["variables"]
        want = answer(document)
        orders = list(itertools.permutations(names))[1:]
        for order in rng.sample(orders, min(len(orders), 4)):
            # the generator texts stay; each name moves to another slot
            renamed = with_ring(document, variables=list(order))
            assert answer(renamed) == want, (document, order)


@pytest.mark.parametrize("p", [2, 101, 32003])
def test_monomial_pairs_in_every_characteristic(p):
    for document in documents():
        assert answer(with_ring(document, characteristic=p)) == answer(document), document


def test_a_free_variable_shifts_the_sequence():
    rng = random.Random(2)
    for document in documents():
        names = list(document["ring"]["variables"])
        names.insert(rng.randrange(len(names) + 1), "v")
        (n, r, numerator), entries = answer(document)
        got = answer(with_ring(document, variables=names))
        assert got == ((n + 1, r, numerator), (0,) + entries), document


def substitute(f, images):
    """f with its i-th variable replaced by images[i]."""
    r = f.ring
    out = r.zero()
    for exps, c in f.terms.items():
        term = r.one().scale(c)
        for image, e in zip(images, exps):
            term = term * image**e
        out = out + term
    return out


def sheared(ideal, shear):
    """The image of `ideal` under x_i -> x_i + shear[i] x_(i+1)."""
    r = ideal.ring
    xs = [r.variable(v) for v in r.variables]
    images = [x + y.scale(r.coeff(a)) for x, y, a in zip(xs, xs[1:], shear)]
    return Ideal(r, [substitute(g, images + xs[-1:]) for g in ideal.gens])


def test_a_linear_change_of_coordinates(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    cases, _ = workloads.build("general", 0)
    # the general workload's compute documents are its complete intersections
    intersections = [case.document for case in cases if case.task == "compute"]
    assert len(intersections) == len(workloads.CI_SHAPES)
    rng = random.Random(4)
    for document in [*intersections, *documents()]:
        problem = problem_from_dict(document)
        a, m = problem.ideal, problem.module()
        shear = [rng.choice((-1, 1, 2, 3)) for _ in problem.ring.variables[1:]]
        image = CyclicModule(m.ring, sheared(m.relations, shear))
        want, _ = multiplicity_sequence(a, m)
        got, _ = multiplicity_sequence(sheared(a, shear), image)
        assert got.entries == want.entries, (document, shear)
