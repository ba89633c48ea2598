"""Series, lengths, dimension, degree against a brute-force oracle.

The oracle enumerates standard monomials degree by degree: a monomial
survives in R/I iff no initial-ideal generator divides it.  Everything
the fast engine reports must agree with that count on small inputs.
"""

import itertools
import math
import random

import pytest

from conftest import ideal, poly, ring
from multseq import krull_dimension
from multseq import monomials as mo
from multseq.errors import EngineLimit, PreconditionError
from multseq.ideals import Ideal
from oracles import (
    expansion,
    hilbert_series,
    length_subquotient,
    minimal_primes_monomial,
    power,
    quotient_degree,
    total_length,
)


def standard_count(r, gens, degree):
    """Number of degree-`degree` monomials outside the monomial ideal."""
    lead = [g.leading_monomial() for g in gens]
    count = 0
    for exps in itertools.product(range(degree + 1), repeat=r.arity):
        if sum(exps) != degree:
            continue
        if not any(all(a >= b for a, b in zip(exps, lt)) for lt in lead):
            count += 1
    return count


def random_monomial_ideal(r, rng, max_degree=4, max_gens=4):
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        exps = tuple(rng.randrange(max_degree + 1) for _ in range(r.arity))
        if sum(exps) == 0:
            exps = (1,) + (0,) * (r.arity - 1)
        gens.append(r.monomial(exps))
    return ideal(r, *[str(g) for g in gens])


class TestSeries:
    def test_free_ring_expansion(self):
        r = ring("x", "y")
        series = hilbert_series(ideal(r))
        assert expansion(series, 4) == [1, 2, 3, 4, 5]

    def test_principal_monomial(self):
        r = ring("x", "y")
        series = hilbert_series(ideal(r, "x^2"))
        # R/(x^2): two shifted copies of k[y]
        assert expansion(series, 5) == [1, 2, 2, 2, 2, 2]

    def test_matches_brute_force_on_random_monomial_ideals(self):
        rng = random.Random(23)
        for arity in (1, 2, 3):
            r = ring(*("x", "y", "z")[:arity])
            for _ in range(15):
                a = random_monomial_ideal(r, rng)
                series = hilbert_series(a)
                got = expansion(series, 6)
                want = [standard_count(r, a.gens, d) for d in range(7)]
                assert got == want, f"{a} -> {got} vs {want}"

    def test_general_ideal_uses_initial_ideal(self):
        r = ring("x", "y", "z")
        a = ideal(r, "x^2 - y*z", "x*y - z^2")
        series = hilbert_series(a)
        init = a.initial_ideal()
        want = [standard_count(r, init.gens, d) for d in range(7)]
        assert expansion(series, 6) == want

    def test_rejects_inhomogeneous(self):
        r = ring("x", "y")
        with pytest.raises(Exception):
            hilbert_series(ideal(r, "x^2 - y"))


class TestBigradedNumerator:
    def test_matches_brute_force_standard_monomials(self):
        # n variables of degree (1, 0) then r of degree (0, 1); the cell
        # (i, j) of Q(s, t) / ((1-s)^n (1-t)^r) counts the monomials of
        # bidegree (i, j) outside the ideal
        rng = random.Random(31)
        top = 5
        for n, r in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3)):
            lay = mo.layout(n + r)
            for _ in range(6):
                gens = [
                    tuple(rng.randrange(4) for _ in range(n + r))
                    for _ in range(rng.randrange(1, 5))
                ]
                gens = [e for e in gens if any(e)] or [(1,) + (0,) * (n + r - 1)]
                numer = mo.bigraded_numerator(
                    lay, tuple(mo.pack(lay, e) for e in gens), n
                )
                for i in range(top + 1):
                    for j in range(top + 1):
                        got = sum(
                            c
                            * math.comb(i - p + n - 1, n - 1)
                            * math.comb(j - q + r - 1, r - 1)
                            for (p, q), c in numer.items()
                            if p <= i and q <= j
                        )
                        want = sum(
                            1
                            for exps in itertools.product(range(top + 1), repeat=n + r)
                            if sum(exps[:n]) == i
                            and sum(exps[n:]) == j
                            and not any(
                                all(a >= b for a, b in zip(exps, g)) for g in gens
                            )
                        )
                        assert got == want, (n, r, gens, i, j)

    def test_single_grading_collapses_to_hilbert_numerator(self):
        # the oracle's single-graded series reads the s-part of a
        # numerator whose every variable has degree (1, 0)
        rng = random.Random(37)
        r = ring("x", "y", "z")
        lay = mo.layout(3)
        for _ in range(20):
            gens = tuple(
                mo.pack(lay, tuple(rng.randrange(4) for _ in range(3)))
                for _ in range(rng.randrange(1, 5))
            )
            numer = mo.bigraded_numerator(lay, gens, 3)
            assert all(q == 0 for _, q in numer)
            series = hilbert_series(Ideal.from_packed(r, mo.minimalize(lay, gens)))
            flat = series.numerator
            assert flat == tuple(numer.get((p, 0), 0) for p in range(len(flat)))


class TestPacking:
    def test_pack_past_the_lanes_is_an_engine_limit(self):
        lay = mo.layout(2)
        with pytest.raises(EngineLimit):
            mo.pack(lay, (mo.MAX_EXPONENT + 1, 0))
        with pytest.raises(EngineLimit):
            mo.pack(lay, (mo.MAX_EXPONENT, 1))  # total degree
        with pytest.raises(ValueError):
            mo.pack(lay, (-1, 0))

    def test_multiply_checks_every_lane(self):
        lay = mo.layout(2)
        half = mo.MAX_EXPONENT // 2 + 1
        a = (mo.pack(lay, (half, 0)),)
        b = (mo.pack(lay, (half, 0)), mo.pack(lay, (0, 1)))
        with pytest.raises(EngineLimit):
            mo.multiply(lay, a, b)
        # the same degrees spread over both lanes still fit a lane each
        # but not the total-degree lane
        with pytest.raises(EngineLimit):
            mo.multiply(lay, a, (mo.pack(lay, (0, half)),))
        with pytest.raises(EngineLimit):
            power(Ideal.from_packed(ring("x", "y"), a), 2)
        assert mo.multiply(lay, a, (mo.pack(lay, (0, 1)),)) == (
            mo.pack(lay, (half, 1)),
        )

    def test_minimalize_matches_brute_force(self):
        # the reference keeps a word when no other distinct input word
        # divides it, read off the unpacked exponents
        def reference(lay, words):
            exps = {w: mo.unpack(lay, w) for w in words}
            return tuple(
                sorted(
                    w
                    for w, e in exps.items()
                    if not any(
                        g != w and all(x <= y for x, y in zip(f, e))
                        for g, f in exps.items()
                    )
                )
            )

        def check(lay, words, got):
            assert got == reference(lay, words)
            assert list(got) == sorted(set(got))
            exps = [mo.unpack(lay, w) for w in got]
            for e, f in itertools.permutations(exps, 2):
                assert not all(x <= y for x, y in zip(e, f))

        rng = random.Random(13)
        for arity in range(1, 5):
            lay = mo.layout(arity)
            assert mo.minimalize(lay, []) == ()
            for _ in range(60):
                top = rng.choice((2, 4, 7))
                words = [
                    mo.pack(lay, tuple(rng.randint(0, top) for _ in range(arity)))
                    for _ in range(rng.randint(1, 14))
                ]
                words += rng.choices(words, k=rng.randint(0, 3))  # duplicates
                if rng.random() < 0.15:
                    words.append(0)  # the unit word
                rng.shuffle(words)
                got = mo.minimalize(lay, words)
                check(lay, words, got)
                assert mo.minimalize(lay, iter(words)) == got

        # products up to a few degrees below the packable limit
        for arity in (2, 3):
            lay = mo.layout(arity)
            a, b = [], []
            for _ in range(8):
                rest = tuple(rng.randint(0, 15) for _ in range(arity - 1))
                a.append(mo.pack(lay, (mo.MAX_EXPONENT - 40 - sum(rest),) + rest))
                b.append(mo.pack(lay, tuple(rng.randint(0, 10) for _ in range(arity))))
            products = [x + y for x in a for y in b]
            check(lay, products, mo.multiply(lay, tuple(a), tuple(b)))


class TestLengthAndDimension:
    def test_total_length_box(self):
        r = ring("x", "y")
        assert total_length(ideal(r, "x^2", "y^3")) == 6
        assert total_length(ideal(r, "x", "y")) == 1

    def test_total_length_infinite_rejected(self):
        r = ring("x", "y")
        with pytest.raises(PreconditionError):
            total_length(ideal(r, "x"))

    def test_length_subquotient_nested(self):
        r = ring("x", "y")
        outer = ideal(r, "x", "y")
        inner = ideal(r, "x^2", "x*y", "y^2")
        # m/m^2 is the two-dimensional cotangent space
        assert length_subquotient(outer, inner) == 2

    def test_length_subquotient_of_infinite_pair(self):
        r = ring("x", "y")
        # (x)/(x^2, xy) has basis {x}: finite even though both quotients are not
        assert length_subquotient(ideal(r, "x"), ideal(r, "x^2", "x*y")) == 1

    def test_infinite_subquotient_rejected(self):
        r = ring("x", "y")
        # (x)/(x^2) contains x*k[y]
        with pytest.raises(PreconditionError):
            length_subquotient(ideal(r, "x"), ideal(r, "x^2"))

    def test_series_division_against_independent_routes(self):
        # the (1-t) factors left after reduced() count the dimension, which
        # krull_dimension reads from variable subsets; on m-primary ideals
        # the length is the number of standard monomials
        rng = random.Random(41)
        names = ("x", "y", "z", "w")
        for arity in (2, 3, 4):
            r = ring(*names[:arity])
            for _ in range(10):
                a = random_monomial_ideal(r, rng, max_degree=3)
                assert hilbert_series(a).reduced()[1] == krull_dimension(a), a
                powers = [rng.randrange(1, 4) for _ in range(arity)]
                primary = ideal(
                    r,
                    *[str(g) for g in a.gens],
                    *[f"{v}^{e}" for v, e in zip(names, powers)],
                )
                top = sum(powers) - arity
                want = sum(standard_count(r, primary.gens, d) for d in range(top + 1))
                assert total_length(primary) == want, primary

    def test_dimension_examples(self):
        r = ring("x", "y", "z")
        assert krull_dimension(ideal(r)) == 3
        assert krull_dimension(ideal(r, "x")) == 2
        assert krull_dimension(ideal(r, "x*y")) == 2
        assert krull_dimension(ideal(r, "x", "y", "z")) == 0
        assert krull_dimension(ideal(r, "x*y", "x*z")) == 2  # V(x) survives
        assert krull_dimension(ideal(r, "x*y", "y*z", "x*z")) == 1

    def test_dimension_of_general_ideal(self):
        r = ring("x", "y", "z")
        assert krull_dimension(ideal(r, "x^2 - y*z")) == 2
        assert krull_dimension(ideal(r, "x - y", "y - z")) == 1

    def test_degree_examples(self):
        r = ring("x", "y", "z")
        assert quotient_degree(ideal(r, "x^2 - y*z")) == 2
        assert quotient_degree(ideal(r, "x")) == 1
        assert quotient_degree(ideal(r, "x*y")) == 2

    def test_degree_zero_dimensional_is_length(self):
        r = ring("x", "y")
        a = ideal(r, "x^2", "y^2")
        assert quotient_degree(a) == total_length(a) == 4


class TestMinimalPrimes:
    def test_square_free_case(self):
        r = ring("x", "y", "z")
        primes = minimal_primes_monomial(ideal(r, "x*y", "x*z"))
        named = sorted(tuple(r.variables[i] for i in p) for p in primes)
        assert named == [("x",), ("y", "z")]

    def test_powers_are_flattened(self):
        r = ring("x", "y")
        primes = minimal_primes_monomial(ideal(r, "x^3*y^2"))
        named = sorted(tuple(r.variables[i] for i in p) for p in primes)
        assert named == [("x",), ("y",)]

    def test_irredundant(self):
        r = ring("x", "y", "z")
        primes = minimal_primes_monomial(ideal(r, "x*y", "y*z", "x*z"))
        named = {tuple(r.variables[i] for i in p) for p in primes}
        assert named == {("x", "y"), ("y", "z"), ("x", "z")}

    def test_cover_property_random(self):
        # every generator's support meets every minimal prime, and no
        # proper subset of a reported prime still covers
        rng = random.Random(31)
        r = ring("x", "y", "z")
        for _ in range(20):
            a = random_monomial_ideal(r, rng)
            supports = [
                {i for i, e in enumerate(g.leading_monomial()) if e}
                for g in a.gens
            ]
            for p in minimal_primes_monomial(a):
                chosen = set(p)
                assert all(s & chosen for s in supports)
                for drop in chosen:
                    smaller = chosen - {drop}
                    assert not all(s & smaller for s in supports)

    def test_engine_reads_the_same_primes(self):
        # the strata map and the star condition read `mo.minimal_primes`;
        # the oracle finds the primes by brute force
        rng = random.Random(37)
        for n in (2, 3, 4) * 20:
            r = ring(*"xyzw"[:n])
            a = random_monomial_ideal(r, rng)
            lay = mo.layout(n)
            engine = [tuple(sorted(p)) for p in mo.minimal_primes(lay, a.packed())]
            assert engine == minimal_primes_monomial(a), a
