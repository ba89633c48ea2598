"""Reduction testing and the superficial-element search.

The classical anchor: (x^2, y^2) reduces (x, y)^2 with witness at
n = 1, and both sequences collapse to the mixed-power multiplicity 4.
Random pairs only ever assert cross-consistency between the reduction
number, the witness scan of `oracles.is_reduction` and the sequence
comparison, never an unverified ground truth.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from conftest import ideal, module, ring
from multseq import (
    Ideal,
    Params,
    PolyRing,
    buchberger,
    generate_corpus,
    grevlex,
    problem_from_dict,
    rees_criterion,
    revalidate,
    superficial_search,
)
from multseq import ideals, monomials, multiplicity, reduction
from multseq.errors import PreconditionError, SearchExhausted
from oracles import (
    equals,
    is_reduction,
    local_c0,
    saturate_by_colons,
    sequences_equal,
)


class TestWitnessScan:
    def test_equal_ideals_reduce_at_zero(self):
        r = ring("x", "y")
        a = ideal(r, "x^2", "y^2")
        assert is_reduction(a, a, module(r), 3) == 0

    def test_mixed_powers_inside_square(self):
        r = ring("x", "y")
        small = ideal(r, "x^2", "y^2")
        large = ideal(r, "x^2", "x*y", "y^2")
        assert is_reduction(small, large, module(r), 5) == 1

    def test_degree_gap_never_witnesses(self):
        # J^(n+1) lives in degree n+1, I*J^n in degree n+2
        r = ring("x", "y")
        small = ideal(r, "x^2", "y^2")
        large = ideal(r, "x", "y")
        assert is_reduction(small, large, module(r), 6) is None

    def test_scan_builds_no_polynomials(self, monkeypatch):
        # the scan runs on packed words: no step turns them back into
        # polynomials, with or without a witness
        r = ring("x", "y")
        built = []
        monomial = PolyRing.monomial

        def counted(self, *args, **kwargs):
            built.append(args)
            return monomial(self, *args, **kwargs)

        small = ideal(r, "x^2", "y^2")
        pairs = ((ideal(r, "x", "y"), 6, None), (ideal(r, "x^2", "x*y", "y^2"), 5, 1))
        monkeypatch.setattr(PolyRing, "monomial", counted)
        for large, n_max, want in pairs:
            assert is_reduction(small, large, module(r), n_max) == want
        assert built == []

    def test_packed_scan_matches_groebner_route(self):
        # the least n from polynomial products of the parsed generators,
        # ideals compared by their reduced Groebner bases
        def least_witness(small, large, relations, n_max):
            ring = small.ring

            def basis(gens):
                return buchberger(list(gens) + list(relations.gens), grevlex())

            lower = [ring.one()]
            for n in range(n_max + 1):
                upper = list(dict.fromkeys(f * g for f in lower for g in large.gens))
                if basis(upper) == basis(f * g for f in lower for g in small.gens):
                    return n
                lower = upper
            return None

        found = set()
        for n_vars, count in ((3, 30), (4, 20)):
            for doc in generate_corpus(count, n_vars=n_vars, seed=2, mode="pair"):
                problem = problem_from_dict(doc)
                small, large = problem.ideal, problem.larger_ideal
                want = least_witness(small, large, problem.relations, 3)
                assert is_reduction(small, large, problem.module(), 3) == want, doc
                found.add(want)
        assert None in found and len(found) > 1

    def test_containment_required(self):
        r = ring("x", "y")
        with pytest.raises(PreconditionError):
            is_reduction(ideal(r, "x"), ideal(r, "y"), module(r), 2)

    def test_relations_change_the_answer(self):
        # modulo y^2 the square of (x, y) is already x*(x, y)
        r = ring("x", "y")
        small = ideal(r, "x")
        large = ideal(r, "x", "y")
        assert is_reduction(small, large, module(r), 4) is None
        assert is_reduction(small, large, module(r, "y^2"), 4) == 1


class TestCriterion:
    def test_classical_pair(self):
        r = ring("x", "y")
        rep = rees_criterion(
            ideal(r, "x^2", "y^2"), ideal(r, "x^2", "x*y", "y^2"), module(r)
        )
        assert rep.criterion_verdict == "reduction"
        assert rep.reduced_at == 1
        assert rep.sequence_small.entries == (4, 0, 0)
        assert rep.sequence_large.entries == (4, 0, 0)
        assert rep.height == 2
        assert rep.consistent
        assert rep.note == ""

    def test_unequal_sequences_refute(self):
        r = ring("x", "y")
        rep = rees_criterion(ideal(r, "x^2", "y^2"), ideal(r, "x", "y"), module(r))
        assert rep.criterion_verdict == "not-reduction"
        assert rep.reduced_at is None
        assert rep.sequence_small.entries == (4, 0, 0)
        assert rep.sequence_large.entries == (1, 0, 0)
        assert rep.consistent

    def test_equal_ideals_share_one_sequence(self, monkeypatch):
        # J = I with other generators: one sequence serves both sides
        from multseq import monomials

        calls = []
        real = monomials.bigraded_numerator

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(monomials, "bigraded_numerator", counted)
        r = ring("x", "y", "z")
        small = ideal(r, "x^2", "x*y", "y^2")
        large = ideal(r, "y^2", "x*y", "x^2", "x^2*y")
        rep = rees_criterion(small, large, module(r, "z^3"))
        assert rep.sequence_small == rep.sequence_large
        assert rep.reduced_at == 0
        assert len(calls) == 1

    def test_equal_sequences_without_hypotheses_stay_open(self):
        # identical ideals, but the module never asserts unmixedness
        r = ring("x", "y", "z")
        a = ideal(r, "x")
        m = module(r, "x*y", "x*z", equidimensional=False)
        rep = rees_criterion(a, a, m)
        assert rep.equidimensional is False
        assert rep.criterion_verdict == "indeterminate"
        assert rep.reduced_at == 0

    def test_false_unmixedness_reports_inconsistency(self):
        # K = (xy, yz) has components of dimensions 2 and 1, so the
        # assertion is false: the sequences agree and the criterion says
        # reduction, but (x, y^2, z^3) does not reduce (x, y, z^3) there
        r = ring("x", "y", "z")
        small = ideal(r, "x", "y^2", "z^3")
        large = ideal(r, "x", "y", "z^3")
        m = module(r, "x*y", "y*z", equidimensional=True)
        rep = rees_criterion(small, large, m)
        assert rep.criterion_verdict == "reduction"
        assert rep.reduced_at is None
        assert is_reduction(small, large, m, 3) is None
        assert not rep.consistent
        assert rep.note == "criterion predicts a reduction but no witness within 48 steps"

    def test_localwise_collapse_on_witnessed_pair(self):
        # a witnessed reduction equalizes the local leading term at
        # every enumerated prime, and never rises under containment
        r = ring("x", "y")
        m = module(r)
        small = ideal(r, "x^2", "y^2")
        large = ideal(r, "x^2", "x*y", "y^2")
        assert local_c0(small, m, ("x", "y")) == local_c0(large, m, ("x", "y")) == 4
        for p in (("x",), ("y",)):
            assert local_c0(small, m, p) == local_c0(large, m, p)

    def test_random_pairs_are_cross_consistent(self):
        rng = random.Random(11)
        r = ring("x", "y")
        m = module(r)
        for _ in range(10):
            degree = rng.randint(2, 4)
            a = rng.randint(0, degree)
            b = rng.randint(0, degree)
            gens = [f"x^{degree}", f"y^{degree}", f"x^{a}*y^{degree - a}"]
            small = ideal(r, gens[0], gens[1])
            large = ideal(r, *gens, f"x^{b}*y^{degree - b}")
            rep = rees_criterion(small, large, m)
            assert rep.consistent, rep.note
            if rep.reduced_at is not None:
                assert sequences_equal(rep)
            if sequences_equal(rep) and rep.height > 0 and rep.equidimensional:
                assert rep.criterion_verdict == "reduction"
                assert rep.reduced_at is not None


def scan_agrees(small, large, m, bound: int) -> tuple:
    """The reduction number, and the answer the scan to `bound` gives.

    They must agree wherever the scan finds a witness, and the scan may
    find none only when the reduction number is None or past `bound`.
    """
    reduced_at = rees_criterion(small, large, m).reduced_at
    seen = reduced_at if reduced_at is not None and reduced_at <= bound else None
    return reduced_at, seen, is_reduction(small, large, m, bound)


def pair_problems(count: int, seeds=(0, 1, 2)):
    for n_vars in (2, 3, 4):
        for seed in seeds:
            for char in (0, 101):
                docs = generate_corpus(
                    count, n_vars=n_vars, seed=seed, mode="pair", characteristic=char
                )
                yield from ((doc, problem_from_dict(doc)) for doc in docs)


class TestReductionNumber:
    """The reduction number is read off the Rees module of J, with no scan."""

    @pytest.mark.parametrize("k, checked_to", [(3, 12), (14, 24), (50, 48)])
    def test_power_family(self, k, checked_to):
        # (x^k, y^k) reduces (x^k, x^(k-1)*y, y^k) first at n = k - 1;
        # `checked_to` reports the budget a witness scan would have had
        r = ring("x", "y")
        small = ideal(r, f"x^{k}", f"y^{k}")
        large = ideal(r, f"x^{k}", f"x^{k - 1}*y", f"y^{k}")
        rep = rees_criterion(small, large, module(r))
        assert rep.criterion_verdict == "reduction"
        assert rep.reduced_at == k - 1
        assert rep.checked_to == checked_to
        assert rep.consistent and rep.note == ""

    def test_pair_corpora_agree_with_the_scan(self):
        found = set()
        for doc, problem in pair_problems(10):
            small, large = problem.ideal, problem.larger_ideal
            reduced_at, seen, scan = scan_agrees(small, large, problem.module(), 4)
            assert scan == seen, (doc, reduced_at)
            found.add(reduced_at)
        assert None in found and {0, 1} <= found

    def test_monomial_relations_agree_with_the_scan(self):
        # pair documents with one or two random monomial relations
        rng = random.Random(7)
        found = set()
        for doc, problem in pair_problems(5, seeds=(3,)):
            names = problem.ring.variables
            relations = []
            for _ in range(rng.randint(1, 2)):
                exps = [0] * len(names)
                for _ in range(rng.randint(2, 4)):
                    exps[rng.randrange(len(names))] += 1
                relations.append("*".join(f"{v}^{e}" for v, e in zip(names, exps) if e))
            m = module(problem.ring, *relations)
            small, large = problem.ideal, problem.larger_ideal
            reduced_at, seen, scan = scan_agrees(small, large, m, 4)
            assert scan == seen, (doc, relations, reduced_at)
            found.add(reduced_at)
        assert None in found and {0, 1} <= found

    @pytest.mark.parametrize(
        "names, char, small, large, relations, want",
        [
            ("xy", 0, ["x^2 + y^2", "x*y"], ["x^2", "x*y", "y^2"], [], 1),
            ("xy", 101, ["x^2 + y^2", "x*y"], ["x^2", "x*y", "y^2"], [], 1),
            ("xy", 0, ["x^2 - y^2", "x*y + y^2"], ["x^2", "x*y", "y^2"], [], None),
            ("xy", 0, ["x + y", "y^2"], ["x", "y"], [], None),
            ("xy", 0, ["x^3 + y^3", "x*y^2"], ["x^3", "x^2*y", "x*y^2", "y^3"], [], 1),
            ("xy", 0, ["x^5 + y^5", "y^5"], ["x^5", "x^4*y", "y^5"], [], 4),
            ("xyz", 0, ["x", "y"], ["x", "y", "z"], ["x*y + z^2"], 1),
            ("xyz", 101, ["x", "y"], ["x", "y", "z"], ["x*y + z^2"], 1),
            ("xyz", 0, ["x", "z"], ["x", "y", "z"], ["x*y + z^2"], None),
            ("xyz", 0, ["x^2", "y^2"], ["x^2", "x*y", "y^2"], ["x*z - y^2"], 1),
            (
                "xyz", 101, ["x^2 + y*z", "y^2"], ["x^2", "y^2", "y*z", "x*y"],
                ["z^2 - x*y"], 2,
            ),
            ("xyz", 0, ["x^2 - y*z", "z^2"], ["x^2", "y*z", "z^2"], [], None),
            (
                "xyz", 101, ["x*y - z^2", "x^2"], ["x^2", "x*y", "z^2"],
                ["y^3 - x*z^2"], 2,
            ),
        ],
    )
    def test_general_inputs_agree_with_the_scan(
        self, names, char, small, large, relations, want
    ):
        # the scan multiplies general ideals, so it runs only to 3
        r = ring(*names, char=char)
        m = module(r, *relations)
        reduced_at, seen, scan = scan_agrees(ideal(r, *small), ideal(r, *large), m, 3)
        assert reduced_at == want
        assert scan == seen

    def test_verdict_reduction_exactly_when_reduced(self):
        # on the pair corpora the sequences agree with the reduction
        # number, as the main theorem and its converse say they must
        verdicts = set()
        for doc, problem in pair_problems(20):
            rep = rees_criterion(problem.ideal, problem.larger_ideal, problem.module())
            reduction = rep.criterion_verdict == "reduction"
            assert reduction == (rep.reduced_at is not None), doc
            assert rep.consistent, doc
            verdicts.add(reduction)
        assert verdicts == {True, False}

    def test_reduction_number_is_one_extra_numerator(self, monkeypatch):
        # J's own sequence and its reduction number share the Rees
        # basis: one Q for each sequence, one Q_N for the number
        calls = []
        real = monomials.bigraded_numerator

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(monomials, "bigraded_numerator", counted)
        r = ring("x", "y")
        rep = rees_criterion(
            ideal(r, "x^2", "y^2"), ideal(r, "x^2", "x*y", "y^2"), module(r)
        )
        assert rep.reduced_at == 1
        assert len(calls) == 3


class TestSuperficial:
    def test_maximal_ideal_finds_sum_of_variables(self):
        r = ring("x", "y")
        cand = superficial_search(ideal(r, "x", "y"), module(r), Params())
        assert str(cand.element) == "x + y"
        assert cand.c_exponent == 0
        assert cand.trial == 0
        assert cand.coefficients == (1, 1)
        assert [e.check for e in cand.evidence] == [
            "draw",
            "outside-m-times-ideal",
            "nonzerodivisor-power",
            "dimension-drop",
            "preservation",
        ]
        assert all(e.passed for e in cand.evidence)

    def test_revalidation_replays_bit_identical(self):
        r = ring("x", "y")
        a = ideal(r, "x", "y")
        m = module(r)
        cand = superficial_search(a, m, Params())
        assert revalidate(cand, a, m, Params())

    def test_revalidation_fails_against_other_input(self):
        r = ring("x", "y")
        m = module(r)
        cand = superficial_search(ideal(r, "x", "y"), m, Params())
        assert not revalidate(cand, ideal(r, "x^2", "y^2"), m, Params())

    def test_revalidation_checks_the_carried_entries(self):
        # the replay compares the quotient's low entries with the ones
        # the candidate carries, not with a baseline of its own
        r = ring("x", "y")
        a, m = ideal(r, "x", "y"), module(r)
        cand = superficial_search(a, m, Params())
        assert cand.low_entries == (1,)
        assert revalidate(cand, a, m, Params())
        assert not revalidate(replace(cand, low_entries=(2,)), a, m, Params())

    def test_nilpotent_action_rejected(self):
        r = ring("x", "y")
        # on the zero-dimensional module too, nilpotence is reported
        # before the dimension
        for relations in (("x^2",), ("x^2", "y^3")):
            with pytest.raises(PreconditionError, match="acts nilpotently"):
                superficial_search(ideal(r, "x"), module(r, *relations), Params())

    def test_pair_numerator_read_once(self, monkeypatch):
        # the spread check and the baseline share one Q(s, t); only the
        # trials' quotient modules ask for more
        pairs = []
        real = multiplicity._gr_numerator

        def counted(a, m):
            pairs.append(m)
            return real(a, m)

        monkeypatch.setattr(multiplicity, "_gr_numerator", counted)
        monkeypatch.setattr(reduction, "_gr_numerator", counted)
        r = ring("x", "y", "z")
        m = module(r, "x*y + z^2")
        superficial_search(ideal(r, "x", "y"), m, Params())
        assert sum(1 for seen in pairs if seen is m) == 1

    def test_exhaustion_carries_trial_records(self):
        r = ring("x", "y")
        with pytest.raises(SearchExhausted) as info:
            superficial_search(ideal(r, "x", "y"), module(r), Params(trials=0))
        assert info.value.trials == []


class TestNonzerodivisorStep:
    """x is a nonzerodivisor on some I^c M exactly when (K : x) ⊆ K : I^∞."""

    def test_power_past_ten_is_found(self):
        # K : y = (x^2, x*y^11) meets (y^c) + K outside K until c = 12,
        # past any small fixed cap on c
        r = ring("x", "y", "z")
        a, m = ideal(r, "y"), module(r, "x^2", "x*y^12")
        cand = superficial_search(a, m, Params())
        assert cand.trial == 0
        assert cand.c_exponent == 12
        assert revalidate(cand, a, m, Params())

    def test_annihilator_outside_the_saturation_rejects(self):
        # trial 0 draws x, and K : x = (z) is not inside K : I^∞ = (x*z):
        # the powers y^(2c) * z stay outside K, so no c exists
        r = ring("x", "y", "z")
        a, m = ideal(r, "x", "y^2"), module(r, "x*z")
        with pytest.raises(SearchExhausted) as info:
            superficial_search(a, m, Params(trials=1))
        (record,) = info.value.trials
        assert record.coefficients == (1,)
        assert record.outcome == (
            "no nonzerodivisor power: (K : x) is not inside K : I^∞"
        )

    @pytest.mark.parametrize("char", [0, 32003])
    def test_power_past_ten_on_non_monomial_relations(self, char):
        # x^3 + x^2*y lies in (x^2), so K is the ideal above, but its
        # generators send the saturation down the elimination route
        r = ring("x", "y", "z", char=char)
        a, m = ideal(r, "y"), module(r, "x^2", "x*y^12", "x^3 + x^2*y")
        assert m.relations.packed() is None
        cand = superficial_search(a, m, Params())
        assert cand.c_exponent == 12
        assert revalidate(cand, a, m, Params())

    def test_annihilator_outside_a_non_monomial_saturation_rejects(self):
        # K = (x*z, x^2*z + x*y*z) is (x*z) with a redundant binomial
        r = ring("x", "y", "z")
        a, m = ideal(r, "x", "y^2"), module(r, "x*z", "x^2*z + x*y*z")
        with pytest.raises(SearchExhausted) as info:
            superficial_search(a, m, Params(trials=1))
        (record,) = info.value.trials
        assert record.outcome == (
            "no nonzerodivisor power: (K : x) is not inside K : I^∞"
        )

    def test_saturation_of_a_binomial(self):
        r = ring("x", "y")
        got = ideal(r, "x^2 + x*y").saturate(ideal(r, "x"))
        assert equals(got, ideal(r, "x + y"))

    def test_saturation_pins_on_non_monomial_ideals(self):
        r = ring("x", "y", "z", "w")
        # the twisted cubic's cone with a thickened line w = 0 removed
        cubic = ideal(r, "x*z - y^2", "x*w - y*z", "y*w - z^2", "x^2*w^3")
        got = cubic.saturate(ideal(r, "w"))
        assert equals(got, ideal(r, "x^2", "y^2 - x*z", "y*z - x*w", "z^2 - y*w"))
        # (x*y, x*z) : (y, z)^∞ = (x), through two eliminations
        got = ideal(r, "x*y", "x*z", "x*y + x*z").saturate(ideal(r, "y", "y + z"))
        assert equals(got, ideal(r, "x"))
        # a unit saturation: a power of (x, y) lies in (x^2, x*y + y^2)
        got = ideal(r, "x^2", "x*y + y^2").saturate(ideal(r, "x", "y"))
        assert equals(got, ideal(r, "1"))

    def test_one_elimination_per_generator(self, monkeypatch):
        calls = []

        def counted(ring, gens):
            calls.append(gens[-1])
            return eliminate(ring, gens)

        eliminate = ideals._eliminate
        monkeypatch.setattr(ideals, "_eliminate", counted)
        r = ring("x", "y", "z")
        k = ideal(r, "x^2*y", "x*z^2 + x^2*z")
        b = ideal(r, "y", "z", "y + z")
        k.saturate(b)
        # the last coefficient list of a saturation's generators is
        # (1, -g); an intersection of two pieces ends in (g, -g)
        tails = [tail for tail in calls if tail[0] == r.one()]
        assert [-tail[1] for tail in tails] == list(b.gens)

    def test_saturation_by_the_zero_ideal_raises(self):
        r = ring("x", "y")
        for k in (ideal(r, "x*y"), ideal(r, "x*y", "x^2 + x*y")):
            with pytest.raises(ValueError):
                k.saturate(ideal(r))

    @staticmethod
    def disguised(r, words):
        """The monomial ideal of `words` with one more, non-term generator,
        so every operation on it takes the Gröbner route."""
        mono = Ideal.from_packed(r, words)
        first = mono.gens[0]
        spare = first * (r.variable(r.variables[0]) + r.variable(r.variables[1]))
        return Ideal(r, [*mono.gens, spare])

    def test_elimination_matches_the_colon_chain_and_the_monomial_saturation(self):
        rng = random.Random(43)
        checked = Counter()
        for _ in range(110):
            n = rng.randint(2, 4)
            lay = monomials.layout(n)
            k, i = (
                monomials.minimalize(lay, [
                    monomials.pack(lay, tuple(rng.randint(0, 4) for _ in range(n)))
                    for _ in range(rng.randint(1, 3))
                ])
                for _ in range(2)
            )
            if not k or not i or monomials.is_unit(k) or monomials.is_unit(i):
                continue
            for char in (0, 32003):
                r = ring(*"xyzw"[:n], char=char)
                big, small = self.disguised(r, k), self.disguised(r, i)
                got = big.saturate(small)
                want = Ideal.from_packed(r, monomials.saturate(lay, k, i))
                assert equals(got, want), (char, k, i)
                assert equals(got, saturate_by_colons(big, small)), (char, k, i)
                checked[char, n] += 1
        assert sum(checked.values()) >= 180
        assert {n for _, n in checked} == {2, 3, 4}
