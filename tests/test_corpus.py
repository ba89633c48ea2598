"""Seeded corpus generation: determinism, caps, and document validity."""

import json
import pathlib

import pytest

import jsonschema

from multseq import EngineLimit, generate_corpus, problem_from_dict
from multseq.multiplicity import height_on_module

SCHEMA_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "src"
    / "multseq"
    / "schema"
    / "problem.schema.json"
)


class TestDeterminism:
    def test_same_seed_same_documents(self):
        a = generate_corpus(8, n_vars=3, max_degree=4, seed=7)
        b = generate_corpus(8, n_vars=3, max_degree=4, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_corpus(8, n_vars=3, max_degree=4, seed=7)
        b = generate_corpus(8, n_vars=3, max_degree=4, seed=8)
        assert a != b

    def test_prefix_stability_not_required_but_count_is(self):
        docs = generate_corpus(5, seed=3)
        assert len(docs) == 5
        assert [d["label"] for d in docs] == [f"single-{i}" for i in range(5)]


class TestCaps:
    def test_variable_cap(self):
        with pytest.raises(EngineLimit):
            generate_corpus(1, n_vars=5)

    def test_degree_cap(self):
        with pytest.raises(EngineLimit):
            generate_corpus(1, max_degree=6)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            generate_corpus(-1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            generate_corpus(1, mode="exotic")


class TestDocuments:
    def test_documents_load_and_validate(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        for mode in ("single", "primary", "pair", "superficial"):
            for doc in generate_corpus(6, n_vars=3, max_degree=4, seed=1, mode=mode):
                jsonschema.validate(doc, schema)
                problem = problem_from_dict(doc)
                assert problem.ideal.is_proper()

    def test_single_mode_has_positive_height(self):
        for doc in generate_corpus(12, n_vars=3, max_degree=4, seed=5, mode="single"):
            problem = problem_from_dict(doc)
            assert problem.larger_ideal is None
            assert height_on_module(problem.ideal, problem.module()) > 0

    def test_primary_mode_is_finite_colength(self):
        for doc in generate_corpus(8, n_vars=3, max_degree=3, seed=2, mode="primary"):
            assert problem_from_dict(doc).relations.is_zero()
            variables = set()
            for text in doc["ideals"]["I"]:
                for piece in text.split("*"):
                    variables.add(piece.split("^")[0].strip())
            assert {"x", "y", "z"} <= variables

    def test_pair_mode_nests_ideals(self):
        for doc in generate_corpus(8, n_vars=2, max_degree=4, seed=4, mode="pair"):
            problem = problem_from_dict(doc)
            small, large = problem.ideal, problem.larger_ideal
            assert large is not None
            assert small.subset_of(large)
            degrees = {g.total_degree() for g in small.gens + large.gens}
            assert len(degrees) == 1

    def test_characteristic_passes_through(self):
        docs = generate_corpus(3, n_vars=2, max_degree=3, seed=9, characteristic=7)
        for doc in docs:
            assert doc["ring"]["characteristic"] == 7
            problem_from_dict(doc)

    def test_relations_kind_zero_gives_empty_k(self):
        docs = generate_corpus(6, n_vars=3, max_degree=4, seed=6, relations="zero")
        assert all(doc["ideals"]["K"] == [] for doc in docs)

    def test_relations_kind_monomial_gives_positive_dimension(self):
        docs = generate_corpus(
            6, n_vars=3, max_degree=4, seed=6, relations="monomial"
        )
        for doc in docs:
            problem = problem_from_dict(doc)
            assert not problem.relations.is_zero()
            assert problem.module().dim >= 1
