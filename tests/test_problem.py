"""Problem documents: schema checks, error locations, canonical JSON."""

import contextlib
import gc
import io
import json
import random
from dataclasses import fields
from pathlib import Path

import pytest

import multseq
from multseq import (
    Params,
    PolyRing,
    ProblemError,
    canonical_json,
    cli,
    load_problem,
    problem_from_dict,
)
from multseq import monomials
from multseq.config import MINIMUMS
from multseq.errors import EngineLimit


def doc(**overrides):
    base = {
        "schema": 1,
        "ring": {"variables": ["x", "y"], "characteristic": 0, "order": "grevlex"},
        "ideals": {"I": ["x^2", "y^2"], "K": []},
    }
    base.update(overrides)
    return base


class TestBuilding:
    def test_minimal_document(self):
        p = problem_from_dict(doc())
        assert p.ring.variables == ("x", "y")
        assert [str(g) for g in p.ideal.gens] == ["x^2", "y^2"]
        assert p.relations.is_zero()
        assert p.larger_ideal is None
        assert p.equidimensional is False
        assert p.params == {}
        assert p.label is None

    def test_full_document(self):
        p = problem_from_dict(
            doc(
                label="demo",
                ideals={"I": ["x"], "J": ["x", "y"], "K": []},
                assertions={"equidimensional": True},
                params={"nmax": 9, "seed": 3},
            )
        )
        assert p.label == "demo"
        assert p.larger_ideal is not None
        assert p.module().equidimensional
        assert p.effective_params(Params()).nmax == 9
        assert p.effective_params(Params()).seed == 3

    def test_defaults_pass_through_when_params_empty(self):
        p = problem_from_dict(doc())
        base = Params(seed=17)
        assert p.effective_params(base) is base


class TestRejection:
    def test_wrong_schema(self):
        with pytest.raises(ProblemError, match="schema"):
            problem_from_dict(doc(schema=2))

    def test_unknown_top_level_key(self):
        with pytest.raises(ProblemError, match="unknown keys"):
            problem_from_dict(doc(extra=1))

    def test_missing_ideal(self):
        with pytest.raises(ProblemError, match="ideal I is required"):
            problem_from_dict(doc(ideals={"K": []}))

    def test_unit_relations(self):
        bad = doc(ideals={"I": ["x"], "K": ["1"]})
        with pytest.raises(ProblemError, match="unit ideal"):
            problem_from_dict(bad)

    def test_parse_error_carries_generator_location(self):
        bad = doc(ideals={"I": ["x^2", "x +"], "K": []})
        with pytest.raises(ProblemError) as info:
            problem_from_dict(bad)
        assert info.value.location == "ideals.I[1]"

    def test_duplicate_variables(self):
        bad = doc(ring={"variables": ["x", "x"]})
        with pytest.raises(ProblemError, match="distinct"):
            problem_from_dict(bad)

    def test_too_many_variables(self):
        names = [f"v{i}" for i in range(9)]
        with pytest.raises(ProblemError, match="at most"):
            problem_from_dict(doc(ring={"variables": names}))

    def test_composite_characteristic(self):
        bad = doc(ring={"variables": ["x"], "characteristic": 6})
        with pytest.raises(ProblemError) as info:
            problem_from_dict(bad)
        assert info.value.location == "ring"

    def test_unknown_order(self):
        bad = doc(ring={"variables": ["x"], "order": "degrevlexish"})
        with pytest.raises(ProblemError, match="order"):
            problem_from_dict(bad)

    def test_primes_key_exits_bad_input(self, tmp_path, capsys):
        # candidate primes are not part of the schema: like any unknown
        # key they make the document malformed
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc(primes=[["x"], ["x", "y"]])))
        code = cli.main(["--task", "verify-formula", "--input", str(path)])
        assert code == cli.EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert "unknown keys ['primes']" in err

    def test_boolean_parameter_rejected(self):
        with pytest.raises(ProblemError, match="integers"):
            problem_from_dict(doc(params={"trials": True}))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ProblemError, match="unknown parameter"):
            problem_from_dict(doc(params={"depth": 3}))

    def test_out_of_range_parameter_rejected(self):
        with pytest.raises(ProblemError, match="params: coeff_bound must be at least 1"):
            problem_from_dict(doc(params={"coeff_bound": 0}))
        with pytest.raises(ValueError, match="trials"):
            Params(trials=-1)

    def test_schema_lists_every_parameter_and_minimum(self):
        path = Path(multseq.__file__).parent / "schema" / "problem.schema.json"
        schema = json.loads(path.read_text())["properties"]["params"]["properties"]
        names = [f.name for f in fields(Params)]
        assert names == ["nmax", "nmax_escalation", "trials", "coeff_bound", "seed"]
        assert set(schema) == set(names)
        assert {k: v["minimum"] for k, v in schema.items() if "minimum" in v} == MINIMUMS


class TestMonomialDocuments:
    """One-term generators are parsed straight to packed words."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x^", "expected exponent digits (at offset 2)"),
            ("x^y", "expected exponent digits (at offset 2)"),
            ("x*", "expected variable after * (at offset 2)"),
            ("q^2", "unknown variable 'q' (at offset 0)"),
            ("2/0*y", "zero denominator (at offset 2)"),
            ("2/ y", "expected denominator digits (at offset 3)"),
            ("x $", "unexpected character '$' (at offset 2)"),
            ("", "empty polynomial (at offset 0)"),
            ("x + ", "expected coefficient or variable (at offset 4)"),
            ("x )", "expected + or - before ')' (at offset 2)"),
        ],
    )
    def test_malformed_generator_keeps_message_and_location(self, text, message):
        with pytest.raises(ProblemError) as info:
            problem_from_dict(doc(ideals={"I": ["x^2", text], "K": []}))
        assert info.value.location == "ideals.I[1]"
        assert str(info.value) == f"ideals.I[1]: {message}"

    def test_prime_field_denominator_keeps_message(self):
        bad = doc(ring={"variables": ["x", "y"], "characteristic": 2})
        bad["ideals"] = {"I": ["x", "1/2*y"]}
        with pytest.raises(ProblemError) as info:
            problem_from_dict(bad)
        assert str(info.value) == (
            "ideals.I[1]: denominator vanishes in prime field (at offset 0)"
        )

    def test_malformed_relation_exits_bad_input(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc(ideals={"I": ["x"], "K": ["y", "y^"]})))
        code = cli.main(["--task", "compute", "--input", str(path)])
        assert code == cli.EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: ideals.K[1]: expected exponent digits (at offset 2)\n"

    def test_monomial_document_builds_no_polynomials(self, monkeypatch):
        built = []
        monomial = PolyRing.monomial

        def counted(self, *args, **kwargs):
            built.append(args)
            return monomial(self, *args, **kwargs)

        monkeypatch.setattr(PolyRing, "monomial", counted)
        p = problem_from_dict(doc(ideals={"I": ["y^3", "x*y", "2*x^2"], "K": ["x*y^2"]}))
        assert built == []
        monkeypatch.undo()
        lay = monomials.layout(2)
        want = [monomials.pack(lay, e) for e in ((2, 0), (1, 1), (0, 3))]
        assert p.ideal.packed() == monomials.minimalize(lay, want)
        assert p.relations.packed() == (monomials.pack(lay, (1, 2)),)
        assert [str(g) for g in p.ideal.gens] == ["x^2", "x*y", "y^3"]

    def test_mixed_or_redundant_lists_keep_their_generators(self):
        # a mixed list keeps its given generators; a redundant list of
        # terms reads minimal, so (x*y, x^2*y) is the hypersurface (x*y)
        # and unmixed however it is written
        for relations in (["x*y", "x^2*y"], ["x*y"]):
            p = problem_from_dict(doc(ideals={"I": ["x"], "K": relations}))
            assert [str(g) for g in p.relations.gens] == ["x*y"]
            assert p.module().equidimensional is True
        # a principal ideal given by a redundant list of binomials
        relations = ["x*y - y^2", "x^2*y - x*y^2"]
        p = problem_from_dict(doc(ideals={"I": ["x"], "K": relations}))
        assert p.relations.generator_count() == 2
        assert p.module().equidimensional is True
        p = problem_from_dict(doc(ideals={"I": ["x"], "K": ["x*y", "y^3"]}))
        assert p.module().equidimensional is False
        p = problem_from_dict(doc(ideals={"I": ["x^2 - y^2", "x*y"], "K": []}))
        assert p.ideal.packed() is None
        assert [str(g) for g in p.ideal.gens] == ["x^2 - y^2", "x*y"]

    def test_exponent_past_the_packed_range_is_reported_by_the_engine(self):
        with pytest.raises(EngineLimit):
            problem_from_dict(doc(ideals={"I": ["x"], "K": ["x^40000"]}))
        p = problem_from_dict(doc(ideals={"I": ["x^40000", "y"], "K": []}))
        with pytest.raises(EngineLimit):
            p.ideal.packed()


class TestLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemError):
            load_problem(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProblemError, match="invalid JSON"):
            load_problem(str(path))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(canonical_json(doc()))
        p = load_problem(str(path))
        assert p.ideal.is_proper()


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"c"') < text.index('"d"')

    def test_byte_stability(self):
        payload = doc(params={"seed": 1, "nmax": 4})
        assert canonical_json(payload) == canonical_json(json.loads(canonical_json(payload)))

    @staticmethod
    def dumps(value):
        return json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_matches_json_dumps_on_seeded_values(self):
        rng = random.Random(29)
        scalars = (
            None, True, False, 0, -7, 10**40, -(2**70), 0.1, -2.5e-300, 1e300,
            3.0, float("inf"), float("-inf"), float("nan"), "", "plain",
            "caf\u00e9 \u2603 \U0001d11e", 'quote " backslash \\ tab \t nul \x00',
        )

        def value(depth):
            kind = rng.randrange(6 if depth < 4 else 1)
            if kind == 0:
                return rng.choice(scalars)
            if kind in (1, 2):
                return [value(depth + 1) for _ in range(rng.randrange(4))]
            if kind == 3:
                return tuple(value(depth + 1) for _ in range(rng.randrange(3)))
            keys = ("a", "B", "\u00e9", "", "k\n", "z z")
            return {
                rng.choice(keys) + str(i): value(depth + 1)
                for i in range(rng.randrange(4))
            }

        for _ in range(500):
            v = value(0)
            assert canonical_json(v) == self.dumps(v)
        for v in ({}, [], {"a": {}, "b": [[]]}, {2: 1, 1.5: 0}, {None: 1}, {True: 0}):
            assert canonical_json(v) == self.dumps(v)
        for bad in ({(1,): 2}, {"a": {1, 2}}, {"a": 1j}):
            with pytest.raises(TypeError):
                self.dumps(bad)
            with pytest.raises(TypeError):
                canonical_json(bad)

    @staticmethod
    def workload_documents(monkeypatch, tmp_path, workload):
        """(task, path) of each seed-0 document of a benchmark workload."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import workloads

        cases, _ = workloads.build(workload, 0)
        out = []
        for index, case in enumerate(cases):
            path = tmp_path / f"{workload}-{index}.json"
            path.write_text(canonical_json(case.document))
            out.append((case.task, str(path)))
        return out

    def test_matches_json_dumps_on_every_seed_0_report(self, monkeypatch, tmp_path):
        reports = []
        real = cli.canonical_json

        def checked(report):
            text = real(report)
            assert text == self.dumps(report)
            reports.append(report)
            return text

        monkeypatch.setattr(cli, "canonical_json", checked)
        count = 0
        for workload in ("sequence", "formula", "general"):
            for task, path in self.workload_documents(monkeypatch, tmp_path, workload):
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(["--task", task, "--input", path, "--timings"])
                count += 1
        assert len(reports) == count
        assert all(isinstance(r["timings"]["total_s"], float) for r in reports)

    def test_reports_leave_no_cyclic_garbage(self, monkeypatch, tmp_path):
        documents = self.workload_documents(monkeypatch, tmp_path, "formula")[:40]
        gc.collect()
        gc.disable()
        try:
            for task, path in documents:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(["--task", task, "--input", path])
            assert gc.collect() == 0
        finally:
            gc.enable()
