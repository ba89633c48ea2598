"""Identities every multiplicity sequence must keep.

Each identity is a theorem, checked exactly on seeded corpora, on the
numerator Q(s, t) and on the sequence read off it:
- renaming the variables changes neither;
- for monomial I and K the Rees relations are monomials and
  pure-difference binomials, and Buchberger on them divides by nothing
  but ±1 (Eisenbud-Sturmfels, "Binomial ideals", Duke Math. J. 84,
  1996), so both are the same over Q and over every prime field;
- a free variable w, with I and K unchanged, multiplies the series by
  1/(1-s): Q stays and c(I, M[w]) = (0, c_0, ..., c_d).
No shared code path satisfies them by accident.  A renamed variable
moves to another lane of every order row, a prime sends the kernel down
its modular branch, and one more variable changes every layout.
"""

import itertools
import random

import pytest

from multseq import generate_corpus, multiplicity_sequence, problem_from_dict
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
