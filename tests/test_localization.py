"""Localization at variable primes and the support-wise decomposition.

Hand-checked decompositions: the principal ideal (x) on the plane puts
all of c_1 at the prime (x); a parameter ideal loads c_0 at the
irrelevant prime; mixed-support examples split across strata.
"""

import contextlib
import io
import json
import random

import pytest

from conftest import ideal, module, poly, ring
from multseq import (
    CyclicModule,
    Ideal,
    PolyRing,
    canonical_json,
    cli,
    diagnostics,
    generate_corpus,
    height_on_module,
    krull_dimension,
    multiplicity_sequence,
    problem_from_dict,
    grevlex,
    verify_formula,
)
from multseq import multiplicity
from multseq.errors import PreconditionError
from multseq.localization import moving_residual
from oracles import local_c0, localize, minimal_primes_monomial


def generators_outside(local_i, local_m) -> int:
    """mu: the generators of I_p that are not in K_p."""
    return sum(not local_m.relations.contains(g) for g in local_i.gens)


def random_monomials(rng, r, count):
    """`count` seeded monomials of r, each of positive degree."""
    out = []
    for _ in range(count):
        e = [rng.randrange(3) for _ in range(r.arity)]
        e[rng.randrange(r.arity)] += 1
        out.append("*".join(f"{v}^{k}" for v, k in zip(r.variables, e)))
    return out


class TestLocalize:
    def test_drops_outside_variables(self):
        r = ring("x", "y", "z")
        a = ideal(r, "x^2*y", "z*x")
        local, _ = localize(a, module(r), ("x",))
        # y and z become units at (x), leaving (x^2, x) = (x)
        assert local.ring.variables == ("x",)
        assert local.equals(ideal(local.ring, "x"))

    def test_unit_when_ideal_misses_prime(self):
        r = ring("x", "y")
        local, _ = localize(ideal(r, "y"), module(r), ("x",))
        assert not local.is_proper()

    def test_zero_ideal_stays_zero(self):
        r = ring("x", "y")
        local, _ = localize(ideal(r), module(r), ("x",))
        assert local.is_zero()

    def test_module_outside_support_rejected(self):
        r = ring("x", "y")
        m = module(r, "x")
        with pytest.raises(PreconditionError):
            localize(ideal(r, "y"), m, ("y",))

    def test_module_localizes_relations(self):
        r = ring("x", "y")
        m = module(r, "x*y")
        _, local = localize(ideal(r, "x"), m, ("x",))
        assert local.dim == 0  # at (x) the relation becomes x


class TestLambdaStrata:
    @staticmethod
    def primes(row):
        return [c.prime for c in row.contributions]

    def test_principal_on_plane(self):
        r = ring("x", "y")
        rows = verify_formula(ideal(r, "x"), module(r)).rows
        assert rows[1].complete
        assert self.primes(rows[1]) == [("x",)]
        assert self.primes(rows[0]) == [("x", "y")]
        assert rows[2].contributions == ()

    def test_dimension_condition_filters(self):
        # M = R/(xy, xz) has a plane and a line; at (y, z) the module
        # localizes to the line's residue field, so dim R/p + dim M_p
        # is 1 + 0 < 2 = dim M and the prime is filtered out
        r = ring("x", "y", "z")
        rows = verify_formula(ideal(r, "y", "z"), module(r, "x*y", "x*z")).rows
        assert rows[1].complete
        assert rows[1].contributions == ()
        # the maximal ideal always satisfies the condition
        assert self.primes(rows[0]) == [("x", "y", "z")]

    def test_general_input_stratum_incomplete(self):
        r = ring("x", "y")
        rows = verify_formula(ideal(r, "x + y"), module(r)).rows
        assert [row.k for row in rows] == [0, 1, 2]
        assert all(row.contributions == () and not row.complete for row in rows)

    def test_stratum_zero_is_the_maximal_ideal(self):
        # the row-0 read of verify_formula takes c_0 off the pair's own
        # sequence; the localization at the maximal ideal must agree
        # primary documents have K = 0 and finite colength, so c_0 > 0
        kinds = (("single", "zero"), ("single", "monomial"), ("primary", "zero"))
        leading = []
        for n_vars in (3, 4):
            for mode, relations in kinds:
                docs = generate_corpus(
                    6, n_vars=n_vars, seed=31, mode=mode, relations=relations
                )
                for doc in docs:
                    problem = problem_from_dict(doc)
                    a, m = problem.ideal, problem.module()
                    assert problem.relations.is_zero() == (relations == "zero")
                    rep = verify_formula(a, m)
                    at0 = rep.rows[0]
                    assert at0.complete
                    assert self.primes(at0) == [a.ring.variables]
                    c0 = rep.sequence.entries[0]
                    assert local_c0(a, m, a.ring.variables) == c0, doc
                    assert at0.contributions[0].local_c0 == c0
                    leading.append(c0)
        assert 0 in leading and max(leading) > 1


class TestHeight:
    def test_height_is_least_local_dimension_over_minimal_primes(self):
        rng = random.Random(23)
        heights = []
        for n_vars in (3, 4) * 30:
            r = ring(*("x", "y", "z", "w")[:n_vars])
            a = ideal(r, *random_monomials(rng, r, rng.randint(1, 3)))
            m = module(r, *random_monomials(rng, r, rng.randint(0, 2)))
            joined = a.add(m.relations)
            want = min(
                localize(a, m, tuple(r.variables[i] for i in p))[1].dim
                for p in minimal_primes_monomial(joined)
            )
            assert height_on_module(a, m) == want, (a, m)
            heights.append(want)
        assert 0 in heights and max(heights) > 1


class TestStrataReadings:
    """The strata map and the star condition against localized pairs.

    The engine reads dim M_p off the minimal primes of K, and the star
    condition off the minimal primes of one saturation K : I^∞; the
    oracles localize the pair at every prime of the map and read the
    dimension of the localized module, and of the localized pair's own
    saturation, from `Ideal.saturate`.
    """

    @staticmethod
    def names(a, kept):
        return tuple(a.ring.variables[i] for i in kept)

    def star_by_localizing(self, a, m, strata):
        for kept, d_local in strata.items():
            local_i, local_m = localize(a, m, self.names(a, kept))
            colon = local_m.relations.saturate(local_i)
            # a unit saturation: a power of I kills M_p
            if (krull_dimension(colon) if colon.is_proper() else 0) != d_local:
                return False
        return True

    @staticmethod
    def corpus_pairs():
        for n_vars in (3, 4):
            for relations in ("zero", "monomial"):
                for doc in generate_corpus(
                    10, n_vars=n_vars, seed=13, mode="single", relations=relations
                ):
                    problem = problem_from_dict(doc)
                    yield problem.ideal, problem.module()

    @staticmethod
    def height_zero_pairs():
        r = ring("x", "y")
        yield ideal(r, "x"), module(r, "x^7")
        yield ideal(r, "x"), module(r, "x*y")
        rng = random.Random(47)
        for _ in range(120):
            n = rng.randint(2, 4)
            r = ring(*("x", "y", "z", "w")[:n])
            a = ideal(r, *random_monomials(rng, r, rng.randint(1, 3)))
            m = module(r, *random_monomials(rng, r, 2))
            if a.add(m.relations).is_proper() and not height_on_module(a, m):
                yield a, m

    def test_every_stratum_is_the_localized_dimension(self):
        for a, m in [*self.corpus_pairs(), *self.height_zero_pairs()]:
            strata = multiplicity._monomial_strata(a, m)
            assert strata
            for kept, d_local in strata.items():
                assert localize(a, m, self.names(a, kept))[1].dim == d_local, (a, m)

    def test_star_on_corpus_pairs_reads_every_stratum(self):
        # corpus pairs have positive height; passing height 0 makes the
        # star condition read every stratum all the same
        seen = 0
        for a, m in self.corpus_pairs():
            strata = multiplicity._monomial_strata(a, m)
            assert multiplicity._star(a, m, strata, 0) is True
            assert self.star_by_localizing(a, m, strata), (a, m)
            seen += 1
        assert seen == 40

    def test_star_at_height_zero(self):
        outcomes = []
        for a, m in self.height_zero_pairs():
            strata = multiplicity._monomial_strata(a, m)
            star = multiplicity._star(a, m, strata, 0)
            assert star == self.star_by_localizing(a, m, strata), (a, m)
            outcomes.append(star)
        # (x) on k[x, y]/(x^7) fails, (x) on k[x, y]/(xy) holds
        assert outcomes[:2] == [False, True]
        assert outcomes.count(True) > 2 and outcomes.count(False) > 1, outcomes


class TestLocalMultiplicity:
    def test_local_c0_concentrates(self):
        r = ring("x", "y")
        a = ideal(r, "x")
        m = module(r)
        assert local_c0(a, m, ("x",)) == 1
        # at the irrelevant prime the ideal stays principal of
        # positive dimension: no finite leading term
        assert local_c0(a, m, ("x", "y")) == 0

    def test_local_c0_of_parameter_ideal(self):
        r = ring("x", "y")
        a = ideal(r, "x^2", "y^2")
        assert local_c0(a, module(r), ("x", "y")) == 4


class TestGeneratorBound:
    def test_zero_below_the_bound_with_no_table(self, monkeypatch):
        # mu, the generators of I_p outside K_p, bounds the analytic
        # spread of the local pair; below dim M_p its c_0 is 0, which
        # the full table route confirms, and `verify_formula` builds no
        # table for it.  With two variables the bound cannot fire: a
        # local ring of row k >= 1 has one variable, so mu < dim M_p
        # would need I_p = 0
        tabled = set()
        real = multiplicity._gr_numerator

        def recorded(a, m, *rest):
            tabled.add((a.ring.arity, a.packed(), m.relations.packed()))
            return real(a, m, *rest)

        kinds = (("single", "zero"), ("single", "monomial"), ("primary", "zero"))
        fired = dict.fromkeys((2, 3, 4), 0)
        for n_vars in fired:
            for seed in (0, 1):
                for mode, relations in kinds:
                    for doc in generate_corpus(
                        8, n_vars=n_vars, seed=seed, mode=mode, relations=relations
                    ):
                        problem = problem_from_dict(doc)
                        a, m = problem.ideal, problem.module()
                        tabled.clear()
                        with monkeypatch.context() as patched:
                            patched.setattr(multiplicity, "_gr_numerator", recorded)
                            rep = verify_formula(a, m)
                        for c in (c for row in rep.rows[1:] for c in row.contributions):
                            local_i, local_m = localize(a, m, c.prime)
                            if generators_outside(local_i, local_m) >= local_m.dim:
                                continue
                            fired[n_vars] += 1
                            assert c.local_c0 == 0 == local_c0(a, m, c.prime), doc
                            key = (
                                len(c.prime),
                                local_i.packed(),
                                local_m.relations.packed(),
                            )
                            assert key not in tabled, doc
        assert fired[2] == 0 and fired[3] and fired[4], fired


class TestFormula:
    def test_principal_on_plane_rows(self):
        r = ring("x", "y")
        rep = verify_formula(ideal(r, "x"), module(r))
        assert rep.verdict == "verified"
        assert rep.height == 1
        by_k = {row.k: row for row in rep.rows}
        assert (by_k[1].lhs, by_k[1].rhs) == (1, 1)
        assert by_k[1].contributions[0].prime == ("x",)
        assert (by_k[0].lhs, by_k[0].rhs) == (0, 0)
        assert (by_k[2].lhs, by_k[2].rhs) == (0, 0)

    def test_parameter_ideal_rows(self):
        r = ring("x", "y")
        rep = verify_formula(ideal(r, "x^2", "y^2"), module(r))
        assert rep.verdict == "verified"
        by_k = {row.k: row for row in rep.rows}
        assert (by_k[0].lhs, by_k[0].rhs) == (4, 4)
        assert by_k[0].contributions[0].prime == ("x", "y")

    def test_veronese_rows(self):
        r = ring("x", "y")
        rep = verify_formula(ideal(r, "x^2", "x*y", "y^2"), module(r))
        assert rep.verified
        by_k = {row.k: row for row in rep.rows}
        assert (by_k[0].lhs, by_k[0].rhs) == (4, 4)

    def test_three_variable_principal(self):
        r = ring("x", "y", "z")
        rep = verify_formula(ideal(r, "x"), module(r))
        assert rep.verified
        seq = rep.sequence
        assert seq.entries == (0, 0, 1, 0)

    def test_on_module_with_relations(self):
        r = ring("x", "y")
        rep = verify_formula(ideal(r, "x", "y"), module(r, "x*y"))
        assert rep.verified
        by_k = {row.k: row for row in rep.rows}
        assert (by_k[0].lhs, by_k[0].rhs) == (2, 0 + 2)

    def test_height_zero_star_checked_directly(self):
        r = ring("x", "y")
        rep = verify_formula(ideal(r, "x"), module(r, "x*y"))
        assert rep.height == 0
        assert rep.star is True
        assert rep.verified
        by_k = {row.k: row for row in rep.rows}
        assert (by_k[0].lhs, by_k[0].rhs) == (1, 1)
        assert (by_k[1].lhs, by_k[1].rhs) == (1, 1)

    def test_annihilated_module_hypotheses_fail(self):
        r = ring("x", "y")
        rep = verify_formula(ideal(r, "x"), module(r, "x"))
        assert rep.star is False
        assert rep.verdict == "hypotheses-not-met"

    def test_one_strata_map_and_no_sequence_at_the_maximal_ideal(self, monkeypatch):
        # the height, the star condition and the strata read one map, in
        # `verify-formula` and in `compute`; row 0 reads c_0 off the
        # pair's sequence, and each distinct localized pair whose
        # generator bound leaves c_0 open has one sequence
        from multseq import localization, multiplicity

        calls = {"strata": 0, "sequence": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        strata = counted("strata", multiplicity._monomial_strata)
        monkeypatch.setattr(multiplicity, "_monomial_strata", strata)
        monkeypatch.setattr(localization, "_monomial_strata", strata)
        monkeypatch.setattr(
            localization,
            "multiplicity_sequence",
            counted("sequence", localization.multiplicity_sequence),
        )
        r = ring("x", "y", "z", "w")
        cases = (
            (ideal(r, "x*z", "y*z", "w^2"), module(r)),
            (ideal(r, "x^2", "y*z", "z*w"), module(r, "x*y*w")),
        )
        for a, m in cases:
            calls.update(strata=0, sequence=0)
            rep = verify_formula(a, m)
            assert rep.height > 0
            pairs = [
                localize(a, m, c.prime) for row in rep.rows[1:] for c in row.contributions
            ]
            assert pairs
            open_pairs = {
                (len(i.ring.variables), i.packed(), k.relations.packed())
                for i, k in pairs
                if generators_outside(i, k) >= k.dim
            }
            assert calls == {"strata": 1, "sequence": 1 + len(open_pairs)}
            assert rep.rows[0].contributions[0].prime == r.variables
            assert rep.rows[0].rhs == rep.sequence.entries[0]
            calls.update(strata=0)
            _, table = multiplicity_sequence(a, m)
            diag = diagnostics(a, m, table)
            assert calls["strata"] == 1
            assert (diag.height, diag.star) == (rep.height, rep.star)

    def test_each_localized_pair_once(self, monkeypatch):
        # (x, y) and (x, z) both localize I to (x) and K to 0, one
        # generator on a plane, so c_0 there is 0 by the generator bound
        # with no table; (y, z) and the one prime of Λ_2 need two local
        # numerators besides the pair's own
        from multseq import monomials

        calls = []
        real = monomials.bigraded_numerator

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(monomials, "bigraded_numerator", counted)
        r = ring("x", "y", "z")
        rep = verify_formula(ideal(r, "x*y^2", "x*z^2"), module(r))
        assert rep.verified
        assert [c.prime for c in rep.rows[1].contributions] == [
            ("x", "y"), ("x", "z"), ("y", "z")
        ]
        assert [c.local_c0 for c in rep.rows[1].contributions] == [0, 0, 4]
        assert len(calls) == 3

    def test_verify_document_builds_no_monomials(self, monkeypatch, tmp_path):
        # a monomial document is parsed to packed words and each local
        # pair is built from the words restricted for its key, so no
        # step of a `verify-formula` document builds a monomial
        built = []
        real = PolyRing.monomial

        def counted(self, *args, **kwargs):
            built.append(args)
            return real(self, *args, **kwargs)

        path = tmp_path / "problem.json"
        for document in self.monomial_documents():
            path.write_text(canonical_json(document))
            monkeypatch.setattr(PolyRing, "monomial", counted)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                cli.main(["--task", "verify-formula", "--input", str(path)])
            monkeypatch.undo()
            assert json.loads(out.getvalue())["formula"]["rows"]
            assert built == []

    def test_local_pairs_match_polynomial_localization(self):
        # the localized pairs, built from restricted words, are the pairs
        # built from `Polynomial`s of the restricted exponents
        def localized(gens, prime, sub):
            keep = tuple(gens.ring.variables.index(v) for v in prime)
            terms = [next(iter(g.terms)) for g in gens.gens]
            return Ideal(sub, [sub.monomial(tuple(e[i] for i in keep)) for e in terms])

        seen = 0
        for document in self.monomial_documents():
            problem = problem_from_dict(document)
            a, m = problem.ideal, problem.module()
            for row in verify_formula(a, m).rows[1:]:
                for c in row.contributions:
                    local_i, local_m = localize(a, m, c.prime)
                    sub = PolyRing(c.prime, a.ring.characteristic, grevlex())
                    old_i = localized(a, c.prime, sub)
                    old_k = localized(m.relations, c.prime, sub)
                    assert local_i.ring == sub
                    assert local_i.packed() == old_i.packed()
                    assert local_m.relations.packed() == old_k.packed()
                    old_m = CyclicModule(sub, old_k)
                    assert local_m.equidimensional == old_m.equidimensional
                    if old_i.is_proper():
                        seq, _ = multiplicity_sequence(old_i, old_m)
                        assert c.local_c0 == seq.entries[0]
                    seen += 1
        assert seen > 20

    @staticmethod
    def monomial_documents():
        r = ring("x", "y", "z", "w")
        hand = {
            "schema": 1,
            "ring": {"variables": list(r.variables)},
            "ideals": {"I": ["x^2", "y*z", "z*w"], "K": ["x*y*w"]},
        }
        return [hand] + generate_corpus(
            6, n_vars=4, max_degree=3, seed=9, mode="single", relations="mixed"
        )

    def test_general_input_without_primes_is_lower_bound(self):
        r = ring("x", "y")
        rep = verify_formula(ideal(r, "x^2 - y^2"), module(r))
        assert rep.verdict in ("lower-bound", "verified")
        # a sum over a subset of the true stratum can never exceed it
        for row in rep.rows:
            assert row.rhs <= row.lhs

    def test_random_monomial_suite(self):
        # the fixed-prime sum never exceeds c_k and is exact at the ends;
        # with a shared variable factor the middle row also carries the
        # moving residual, and fixed plus residual is exact throughout
        rng = random.Random(53)
        r = ring("x", "y", "z")
        m = module(r)
        seen_clean = 0
        for _ in range(18):
            exps = []
            for _ in range(rng.randrange(2, 4)):
                e = [rng.randrange(3) for _ in range(3)]
                if sum(e) == 0:
                    e[rng.randrange(3)] = 1
                exps.append(e)
            a = ideal(r, *("x^%d*y^%d*z^%d" % tuple(e) for e in exps))
            if not a.is_proper():
                continue
            shared = any(all(e[i] > 0 for e in exps) for i in range(3))
            rep = verify_formula(a, m)
            d = len(rep.rows) - 1
            for row in rep.rows:
                assert row.rhs <= row.lhs, (exps, row.k)
                if row.k in (0, d - 1, d):
                    assert row.rhs == row.lhs, (exps, row.k)
                if not shared:
                    assert row.residual == 0, (exps, row.k)
            seen_clean += not shared
            assert rep.verdict == "verified", (exps, rep.verdict)
        assert seen_clean >= 5

    def test_shared_factor_excess_frozen(self):
        # both witnesses carry a plane-supported factor that the
        # fixed-prime aggregation cannot see at the middle index; the
        # moving curves on that plane make up the difference
        r = ring("x", "y", "z")
        m = module(r)

        a = ideal(r, "x*z", "y*z")
        seq, _ = multiplicity_sequence(a, m)
        assert seq.entries == (0, 2, 1, 0)
        rep = verify_formula(a, m)
        assert rep.verdict == "verified"
        by_k = {row.k: row for row in rep.rows}
        assert (by_k[1].lhs, by_k[1].rhs, by_k[1].residual) == (2, 1, 1)
        assert [(c.prime, c.local_c0, c.degree) for c in by_k[1].contributions] == [
            (("x", "y"), 1, 1),
            (("x", "z"), 0, 1),
            (("y", "z"), 0, 1),
        ]
        assert (by_k[2].lhs, by_k[2].rhs) == (1, 1)
        assert [(c.prime, c.local_c0) for c in by_k[2].contributions] == [(("z",), 1)]

        b = ideal(r, "x*z", "y^2*z")
        seq_b, _ = multiplicity_sequence(b, m)
        assert seq_b.entries == (0, 3, 1, 0)
        rep_b = verify_formula(b, m)
        assert rep_b.verdict == "verified"
        row1 = {row.k: row for row in rep_b.rows}[1]
        assert (row1.lhs, row1.rhs, row1.residual) == (3, 2, 1)


class TestMovingResidual:
    @pytest.mark.parametrize(
        "gens, residual",
        [
            (("x*z", "y*z"), 1),
            (("x*z^2", "y*z^2"), 2),
            (("x*y", "x*z^2"), 1),
            (("x^2*z", "x*z^2", "x*y^2*z"), 2),
            (("x*z^2", "y*z"), 0),
        ],
    )
    def test_exact_rows(self, gens, residual):
        r = ring("x", "y", "z")
        a, m = ideal(r, *gens), module(r)
        # derived from the generators alone, before any table is built
        assert moving_residual(a, m, 1) == residual
        rep = verify_formula(a, m)
        assert rep.verdict == "verified"
        row1 = {row.k: row for row in rep.rows}[1]
        assert row1.residual == residual
        assert row1.lhs == row1.rhs + residual
        assert all(row.residual == 0 for row in rep.rows if row.k != 1)

    def test_squared_factor_sequence(self):
        r = ring("x", "y", "z")
        rep = verify_formula(ideal(r, "x*z^2", "y*z^2"), module(r))
        assert rep.sequence.entries == (0, 3, 2, 0)
        row1 = {row.k: row for row in rep.rows}[1]
        assert (row1.lhs, row1.rhs, row1.residual) == (3, 1, 2)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fresh_seed_corpus_verified(self, seed):
        documents = generate_corpus(100, n_vars=3, seed=seed, mode="single")
        verdicts = {}
        for document in documents:
            problem = problem_from_dict(document)
            rep = verify_formula(problem.ideal, problem.module())
            verdicts[document["label"]] = rep.verdict
        assert set(verdicts.values()) == {"verified"}, verdicts

    def test_non_divisorial_excess_is_not_claimed(self):
        # no variable divides every generator, yet c_1 exceeds the fixed
        # sum by 2; that row lies outside the derivation
        r = ring("x", "y", "z", "w")
        rep = verify_formula(ideal(r, "z*w", "y^2*z", "y*z^2", "x^2*y*w"), module(r))
        assert rep.verdict == "lower-bound"
        row1 = {row.k: row for row in rep.rows}[1]
        assert (row1.lhs, row1.rhs, row1.complete) == (8, 6, False)
        assert row1.matches is None

    def test_hyperplane_factor_in_four_variables(self):
        # w(x, y, z): the k = d - 2 row is derived, the k = 1 row is not
        r = ring("x", "y", "z", "w")
        a, m = ideal(r, "x*w", "y*w", "z*w"), module(r)
        rep = verify_formula(a, m)
        assert rep.verdict == "lower-bound"
        by_k = {row.k: row for row in rep.rows}
        assert (by_k[2].lhs, by_k[2].rhs, by_k[2].residual) == (1, 0, 1)
        assert by_k[2].complete
        assert not by_k[1].complete
        assert moving_residual(a, m, 1) is None
