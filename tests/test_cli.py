"""Command line front end: task dispatch, exit codes, report shape."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace
from importlib import metadata
from pathlib import Path

import pytest

import multseq
import oracles
from multseq import cli, monomials
from multseq.cli import main
from multseq.localization import verify_formula
from multseq.problem import canonical_json


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(canonical_json(payload))
    return str(path)


def golden(tmp_path):
    return write(
        tmp_path,
        "golden.json",
        {
            "schema": 1,
            "ring": {"variables": ["x", "y"]},
            "ideals": {"I": ["x"], "K": []},
        },
    )


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(argv, *flags):
    """(exit code, stdout, stderr) of `python FLAGS -m multseq.cli ARGV`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(multseq.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "multseq.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCompute:
    def test_golden_sequence(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["--task", "compute", "--input", golden(tmp_path)])
        assert code == 0
        report = json.loads(out)
        assert report["task"] == "compute"
        assert report["sequence"]["entries"] == [0, 1, 0]
        assert report["diagnostics"]["colength_dim"] == 1
        assert report["diagnostics"]["height"] == 1
        assert report["seed"] == 0
        assert report["engine"]["name"] == "multseq"

    def test_reports_are_byte_identical(self, tmp_path, capsys):
        argv = ["--task", "compute", "--input", golden(tmp_path)]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_timings_only_with_flag(self, tmp_path, capsys):
        path = golden(tmp_path)
        _, without, _ = run(capsys, ["--task", "compute", "--input", path])
        assert "timings" not in json.loads(without)
        _, with_flag, _ = run(
            capsys, ["--task", "compute", "--input", path, "--timings"]
        )
        assert json.loads(with_flag)["timings"]["total_s"] >= 0

    def test_table_format(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            ["--task", "compute", "--input", golden(tmp_path), "--format", "table"],
        )
        assert code == 0
        assert "sequence" in out
        assert "(0, 1, 0)" in out or "0, 1, 0" in out

    def test_flag_overrides_file_params(self, tmp_path, capsys):
        # every report echoes the effective seed
        path = write(
            tmp_path,
            "p.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y"]},
                "ideals": {"I": ["x"], "K": []},
                "params": {"seed": 8},
            },
        )
        _, out, _ = run(capsys, ["--task", "compute", "--input", path])
        assert json.loads(out)["seed"] == 8
        _, out, _ = run(
            capsys, ["--task", "compute", "--input", path, "--seed", "12"]
        )
        assert json.loads(out)["seed"] == 12

    def test_degrees_past_packed_lanes_exit_four(self, tmp_path, capsys):
        # x^40000 does not fit a packed exponent lane
        path = write(
            tmp_path,
            "wide.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y"]},
                "ideals": {"I": ["x^40000*y"], "K": []},
            },
        )
        code, out, err = run(capsys, ["--task", "compute", "--input", path])
        assert code == 4
        assert out == ""
        assert "EngineLimit" in err
        assert "packable" in err
        # x^20000*y fits; Q = 1 - s^20001, so past the proof point (19999, -1)
        # h(u, v) = (v+1)(20001u + const) and growth ends there
        path = write(
            tmp_path,
            "deep.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y"]},
                "ideals": {"I": ["x^20000*y"], "K": []},
            },
        )
        code, out, err = run(capsys, ["--task", "compute", "--input", path])
        assert code == 0
        assert err == ""
        assert json.loads(out)["sequence"]["entries"] == [0, 20001, 0]

    def test_high_degree_generators_answer(self, tmp_path, capsys):
        # the numerator recursion must not nest once per exponent step
        path = write(
            tmp_path,
            "high.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y", "z"]},
                "ideals": {"I": ["x^1000*z", "y^999*z", "x*y*z^500"], "K": []},
            },
        )
        code, out, err = run(capsys, ["--task", "compute", "--input", path])
        assert code == 0
        assert err == ""


def table(capsys, tmp_path, task, ideals, variables=("x", "y"), *flags):
    """Exit code and table lines of one task, without the engine line."""
    argv = ["--task", task, "--format", "table", *flags]
    if task != "corpus":
        document = {"schema": 1, "ring": {"variables": list(variables)}, "ideals": ideals}
        argv += ["--input", write(tmp_path, "p.json", document)]
    code, out, err = run(capsys, argv)
    assert err == ""
    lines = out.splitlines()
    assert lines[1].startswith("engine    multseq ")
    return code, [lines[0], *lines[2:]]


class TestTableFormat:
    def test_verify_formula(self, tmp_path, capsys):
        code, lines = table(capsys, tmp_path, "verify-formula", {"I": ["x"], "K": []})
        assert code == 0
        assert lines == [
            "task      verify-formula",
            "seed      0",
            "formula   verified  height 1  star True  complete True",
            "sequence  c = (0, 1, 0)  dim 2",
            "k  c_k  sum  residual  match  primes",
            "0  0    0    0         yes    (x, y): 0*1",
            "1  1    1    0         yes    (x): 1*1",
            "2  0    0    0         yes    -",
        ]

    def test_verify_formula_lower_bound_rows_read_open(self, tmp_path, capsys):
        # w(x, y, z): the moving residual of row 1 is not derived
        code, lines = table(
            capsys, tmp_path, "verify-formula",
            {"I": ["x*w", "y*w", "z*w"], "K": []}, ("x", "y", "z", "w"),
        )
        assert code == 2
        assert lines[2:] == [
            "formula   lower-bound  height 1  star True  complete False",
            "sequence  c = (0, 2, 1, 1, 0)  dim 4",
            "k  c_k  sum  residual  match  primes",
            "0  0    0    0         yes    (x, y, z, w): 0*1",
            "1  2    1    0         open   (x, y, z): 1*1, (x, y, w): 0*1,"
            " (x, z, w): 0*1, (y, z, w): 0*1",
            "2  1    0    1         yes    (x, w): 0*1, (y, w): 0*1, (z, w): 0*1",
            "3  1    1    0         yes    (w): 1*1",
            "4  0    0    0         yes    -",
        ]

    def test_check_reduction(self, tmp_path, capsys):
        ideals = {"I": ["x^2", "y^2"], "J": ["x^2", "x*y", "y^2"], "K": []}
        code, lines = table(capsys, tmp_path, "check-reduction", ideals)
        assert code == 0
        assert lines[2:] == [
            "reduction reduction  reduced_at 1  checked_to 12",
            "sequences small (4, 0, 0)  large (4, 0, 0)",
            "checks    height 2  equidimensional True  consistent True",
        ]

    def test_superficial_evidence_rows(self, tmp_path, capsys):
        code, lines = table(
            capsys, tmp_path, "superficial", {"I": ["x*z", "y*z"], "K": []},
            ("x", "y", "z"),
        )
        assert code == 0
        assert lines[2:] == [
            "element   x*z + y*z  (degree 2, trial 0, c = 0)",
            "replay    ok",
            "check                  result  detail",
            "draw                   ok      degree 2, coefficients [1, 1]",
            "outside-m-times-ideal  ok      x*z + y*z",
            "nonzerodivisor-power   ok      c = 0",
            "dimension-drop         ok      3 -> 2",
            "preservation           ok      entries [0, 2] match below top",
        ]

    def test_corpus(self, tmp_path, capsys):
        flags = ("--count", "2", "--seed", "3")
        code, lines = table(capsys, tmp_path, "corpus", {}, (), *flags)
        assert code == 0
        assert lines == [
            "task      corpus",
            "seed      3",
            "generated 2 problems",
            "  single-0: I=(y, x^2*z, x*z^3)",
            "  single-1: I=(x*z, x*y^2, z^4); K=(z)",
        ]
        out_dir = tmp_path / "bundle"
        code, lines = table(
            capsys, tmp_path, "corpus", {}, (), *flags, "--out-dir", str(out_dir)
        )
        assert code == 0
        assert lines[2:] == [
            "written   2 files",
            f"  {out_dir / 'problem-000.json'}",
            f"  {out_dir / 'problem-001.json'}",
        ]


class TestVerdictExits:
    def test_formula_match_exits_zero(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, ["--task", "verify-formula", "--input", golden(tmp_path)]
        )
        assert code == 0
        assert json.loads(out)["formula"]["verdict"] == "verified"

    def test_formula_mismatch_exits_one(self, tmp_path, capsys, monkeypatch):
        path = write(
            tmp_path,
            "shared.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y", "z"]},
                "ideals": {"I": ["x*z", "y*z"], "K": []},
            },
        )
        code, out, _ = run(capsys, ["--task", "verify-formula", "--input", path])
        assert code == 0
        rows = {row["k"]: row for row in json.loads(out)["formula"]["rows"]}
        assert (rows[1]["lhs"], rows[1]["rhs"], rows[1]["residual"]) == (2, 1, 1)

        # no correct input mismatches; a comparator that drops the moving
        # residual does, and its verdict must exit 1 with the rows printed
        def without_residual(*args, **kwargs):
            rep = verify_formula(*args, **kwargs)
            rows = tuple(replace(row, residual=0) for row in rep.rows)
            return replace(rep, rows=rows, verdict="mismatch")

        monkeypatch.setattr(cli, "verify_formula", without_residual)
        code, out, _ = run(capsys, ["--task", "verify-formula", "--input", path])
        assert code == 1
        report = json.loads(out)["formula"]
        assert report["verdict"] == "mismatch"
        rows = {row["k"]: row for row in report["rows"]}
        assert (rows[1]["lhs"], rows[1]["rhs"]) == (2, 1)
        assert rows[1]["matches"] is False

    def test_power_killing_the_module_fails_the_hypotheses(self, tmp_path, capsys):
        # (x) acting on k[x, y]/(x^7): I^7 M = 0, so the star condition
        # fails; a check of the first six powers read it as holding
        path = write(
            tmp_path,
            "killed.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y"]},
                "ideals": {"I": ["x"], "K": ["x^7"]},
            },
        )
        code, out, _ = run(capsys, ["--task", "verify-formula", "--input", path])
        assert code == 2
        report = json.loads(out)["formula"]
        assert report["star"] is False
        assert report["verdict"] == "hypotheses-not-met"

    def test_reduction_verdicts(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "pair.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y"]},
                "ideals": {"I": ["x^2", "y^2"], "J": ["x^2", "x*y", "y^2"], "K": []},
            },
        )
        code, out, _ = run(capsys, ["--task", "check-reduction", "--input", path])
        assert code == 0
        report = json.loads(out)["reduction"]
        assert report["criterion_verdict"] == "reduction"
        assert report["reduced_at"] == 1

    def test_reduction_requires_larger_ideal(self, tmp_path, capsys):
        code, _, err = run(
            capsys, ["--task", "check-reduction", "--input", golden(tmp_path)]
        )
        assert code == 3
        assert "requires ideal J" in err

    def test_false_unmixedness_exits_one(self, tmp_path, capsys):
        # K = (xy, yz) has components of dimensions 2 and 1, so the
        # assertion is false: the criterion says reduction, and the
        # reduction number shows there is none
        path = write(
            tmp_path,
            "mixed.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y", "z"]},
                "ideals": {
                    "I": ["x", "y^2", "z^3"],
                    "J": ["x", "y", "z^3"],
                    "K": ["x*y", "y*z"],
                },
                "assertions": {"equidimensional": True},
            },
        )
        code, out, _ = run(capsys, ["--task", "check-reduction", "--input", path])
        assert code == 1
        report = json.loads(out)["reduction"]
        assert report["criterion_verdict"] == "reduction"
        assert report["reduced_at"] is None
        assert report["consistent"] is False

    def test_reduction_number_past_the_old_budget_exits_zero(self, tmp_path, capsys):
        # (x^50, y^50) reduces (x^50, x^49*y, y^50) at n = 49, past the
        # 48 steps a witness scan was given
        path = write(
            tmp_path,
            "deep.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y"]},
                "ideals": {
                    "I": ["x^50", "y^50"],
                    "J": ["x^50", "x^49*y", "y^50"],
                    "K": [],
                },
            },
        )
        code, out, _ = run(capsys, ["--task", "check-reduction", "--input", path])
        assert code == 0
        report = json.loads(out)["reduction"]
        assert report["reduced_at"] == 49
        assert report["checked_to"] == 48
        assert report["consistent"] is True

    def test_indeterminate_exits_two(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "open.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y", "z"]},
                "ideals": {"I": ["x"], "J": ["x"], "K": ["x*y", "x*z"]},
            },
        )
        code, out, _ = run(capsys, ["--task", "check-reduction", "--input", path])
        assert code == 2
        assert json.loads(out)["reduction"]["criterion_verdict"] == "indeterminate"

    def test_superficial_search_reports_replay(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "sup.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y"]},
                "ideals": {"I": ["x", "y"], "K": []},
            },
        )
        code, out, _ = run(capsys, ["--task", "superficial", "--input", path])
        assert code == 0
        report = json.loads(out)
        assert report["candidate"]["element"] == "x + y"
        assert report["revalidated"] is True

    def test_nonzerodivisor_power_past_ten(self, tmp_path, capsys):
        # the least power is 12, so the search must not stop at a cap
        path = write(
            tmp_path,
            "deep.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y", "z"]},
                "ideals": {"I": ["y"], "K": ["x^2", "x*y^12"]},
            },
        )
        code, out, err = run(capsys, ["--task", "superficial", "--input", path])
        assert code == 0, err
        report = json.loads(out)
        assert report["candidate"]["c_exponent"] == 12
        assert report["revalidated"] is True

    def test_variable_named_like_an_auxiliary_one(self, tmp_path, capsys):
        # the intersection behind a non-monomial colon extends the ring
        # by a fresh variable, whatever the ring's own names are
        candidates = []
        for name in ("t_aux_0", "z"):
            path = write(
                tmp_path,
                f"{name}.json",
                {
                    "schema": 1,
                    "ring": {"variables": ["x", "y", name]},
                    "ideals": {"I": ["x + y", f"y + {name}"], "K": ["x*y"]},
                },
            )
            code, out, err = run(capsys, ["--task", "superficial", "--input", path])
            assert code == 0, err
            found = json.loads(out)["candidate"]
            candidates.append(
                (found["trial"], found["coefficients"], found["c_exponent"])
            )
        assert candidates[0] == candidates[1]

    def test_exhausted_search_exits_four(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "dead.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y"]},
                "ideals": {"I": ["x", "y"], "K": []},
                "params": {"trials": 0},
            },
        )
        code, _, err = run(capsys, ["--task", "superficial", "--input", path])
        assert code == 4
        assert "SearchExhausted" in err


class TestOptimizedInterpreter:
    """`python -O` strips assert statements; no answer may depend on them."""

    XYZ = ["x", "y", "z"]
    CASES = {
        "compute": ("compute", XYZ, {"I": ["x^3", "y^3", "x*y*z"]}, []),
        "verify-formula": ("verify-formula", XYZ, {"I": ["x*z", "y*z"]}, []),
        "check-reduction": (
            "check-reduction",
            XYZ,
            {"I": ["x^2", "y^2"], "J": ["x^2", "x*y", "y^2"], "K": ["z^3"]},
            [],
        ),
        "superficial": ("superficial", XYZ, {"I": ["x", "y"], "K": ["x*y + z^2"]}, []),
        # the exit-4 case of TestCompute
        "packed-lanes": ("compute", ["x", "y"], {"I": ["x^40000*y"]}, []),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_exit_and_bytes_as_in_process(self, tmp_path, capsys, case):
        task, variables, ideals, extra = self.CASES[case]
        document = {"schema": 1, "ring": {"variables": variables}, "ideals": ideals}
        argv = ["--task", task, "--input", write(tmp_path, "p.json", document), *extra]
        want = run(capsys, argv)
        assert run_fresh(argv, "-O") == want


def key_paths(value, prefix=""):
    """Each dict key under value as a dotted path, `[]` marking a list."""
    if isinstance(value, dict):
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else key
            yield path
            # the inputs echo the problem document, whose schema is its own
            if path != "inputs":
                yield from key_paths(item, path)
    elif isinstance(value, list):
        for item in value:
            yield from key_paths(item, prefix + "[]")


class TestReportSchema:
    """The key paths of one report per task.

    Report keys are the field names of the result types, so a field
    added to, renamed in or dropped from one shows here.
    """

    # {path: the keys under it}; "" is the report itself
    SEQUENCE = "dim entries table_shape window window.u window.v window.width"
    KEYS = {
        "compute": {
            "": "diagnostics engine inputs seed sequence task",
            "diagnostics": "colength_dim consistent dim finite_colength height"
            " spread star",
            "sequence": SEQUENCE,
        },
        "verify-formula": {
            "": "engine formula inputs seed task",
            "formula": "complete height rows sequence star verdict",
            "formula.rows[]": "complete contributions k lhs matches residual rhs",
            "formula.rows[].contributions[]": "degree local_c0 prime product",
            "formula.sequence": SEQUENCE,
        },
        "check-reduction": {
            "": "engine inputs reduction seed task",
            "reduction": "checked_to consistent contained criterion_verdict"
            " equidimensional height note reduced_at sequence_large sequence_small",
            "reduction.sequence_large": SEQUENCE,
            "reduction.sequence_small": SEQUENCE,
        },
        "superficial": {
            "": "candidate engine inputs revalidated seed task",
            "candidate": "c_exponent coefficients degree element evidence seed trial",
            "candidate.evidence[]": "check detail passed",
        },
    }

    @pytest.mark.parametrize("task", sorted(KEYS))
    def test_report_keys(self, tmp_path, capsys, task):
        # the documents of TestOptimizedInterpreter: the verify-formula
        # rows carry contributions and the candidate carries evidence
        _, variables, ideals, extra = TestOptimizedInterpreter.CASES[task]
        document = {"schema": 1, "ring": {"variables": variables}, "ideals": ideals}
        argv = ["--task", task, "--input", write(tmp_path, "p.json", document), *extra]
        code, out, _ = run(capsys, argv)
        assert code == 0
        want = {
            f"{path}.{key}" if path else key
            for path, keys in {"engine": "name version", **self.KEYS[task]}.items()
            for key in keys.split()
        }
        assert sorted(set(key_paths(json.loads(out)))) == sorted(want)


class TestOneProcess:
    """`main` called again and again in one process, as a batch caller does."""

    def test_usage_errors_after_a_success(self, tmp_path, capsys):
        assert run(capsys, ["--task", "compute", "--input", golden(tmp_path)])[0] == 0
        for argv in (["--task", "dance"], ["--task", "compute"]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (3, "")
            assert err.startswith("usage error")

    def test_json_then_table_match_fresh_runs(self, tmp_path, capsys):
        argv = ["--task", "compute", "--input", golden(tmp_path)]
        for extra in ([], ["--format", "table"]):
            assert run(capsys, argv + extra) == run_fresh(argv + extra)

    def test_version_unknown_without_a_distribution(self, tmp_path, capsys, monkeypatch):
        def missing(name):
            raise metadata.PackageNotFoundError(name)

        monkeypatch.setattr(cli.metadata, "version", missing)
        cli._version.cache_clear()
        try:
            _, out, _ = run(capsys, ["--task", "compute", "--input", golden(tmp_path)])
        finally:
            cli._version.cache_clear()
        assert json.loads(out)["engine"]["version"] == "unknown"

    def test_compute_reads_one_numerator(self, tmp_path, capsys, monkeypatch):
        # the spread in the diagnostics comes from the sequence's Q(s, t)
        calls = []
        real = monomials.bigraded_numerator

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(monomials, "bigraded_numerator", counted)
        document = {
            "schema": 1,
            "ring": {"variables": ["x", "y", "z"]},
            "ideals": {"I": ["x^2", "x*y", "y^2"], "K": ["x*z^3"]},
        }
        path = write(tmp_path, "p.json", document)
        code, out, _ = run(capsys, ["--task", "compute", "--input", path])
        assert code == 0
        assert json.loads(out)["diagnostics"]["spread"] == 2
        assert len(calls) == 1

    def test_superficial_replay_reuses_the_baseline(self, tmp_path, capsys, monkeypatch):
        # the search reads the pair's Q(s, t) and the accepted trial's;
        # the replay reads only the trial's again, since the candidate
        # carries the low entries it was compared against
        calls = []
        real = monomials.bigraded_numerator

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(monomials, "bigraded_numerator", counted)
        document = {
            "schema": 1,
            "ring": {"variables": ["x", "y"]},
            "ideals": {"I": ["x", "y"], "K": []},
        }
        path = write(tmp_path, "p.json", document)
        code, out, _ = run(capsys, ["--task", "superficial", "--input", path])
        assert code == 0
        assert json.loads(out)["revalidated"] is True
        assert len(calls) == 3

    def test_only_the_layout_table_grows(self, tmp_path, capsys):
        # the engine keeps no process-wide memo of its answers: one
        # document of each task leaves every module-level table as it
        # was, but the packed layouts (one per arity, order and lane
        # width).  A new memo has to be named here, with its reason.
        def tables():
            sizes = {}
            for name, mod in list(sys.modules.items()):
                if not name.startswith("multseq."):
                    continue
                for attr, value in vars(mod).items():
                    if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                        sizes[f"{name[8:]}.{attr}"] = len(value)
                    elif hasattr(value, "cache_info"):
                        sizes[f"{name[8:]}.{attr}"] = value.cache_info().currsize
            return sizes

        # the front end builds its parser and reads its version once
        run(capsys, ["--task", "compute", "--input", golden(tmp_path)])
        before = tables()
        assert {"config.MINIMUMS", "cli._version"} <= set(before)
        for task, variables, ideals, extra in TestOptimizedInterpreter.CASES.values():
            document = {"schema": 1, "ring": {"variables": variables}, "ideals": ideals}
            path = write(tmp_path, f"{task}.json", document)
            run(capsys, ["--task", task, "--input", path, *extra])
        run(capsys, ["--task", "corpus", "--count", "2", "--mode", "pair"])
        grown = {name for name, size in tables().items() if size != before.get(name)}
        assert grown <= {"monomials._LAYOUTS"}

    # engine names that only the tests called, each with the oracle in
    # tests/oracles.py that replaces it
    MOVED = {
        "component_ideal": "component_ideal",
        "component_length": "component_length",
        "hilbert_table": "hilbert_table",
        "_divide": "components",
        "_sum_down": "sum_down",
        "_diff_u": "diff_u",
        "_diff_v": "diff_v",
        "_window_cells": "window_cells",
        "extract_top_coefficients": "extract_top_coefficients",
        "classical_multiplicity": "classical_multiplicity",
        "length_subquotient": "length_subquotient",
        "total_length": "total_length",
        "quotient_degree": "quotient_degree",
        "minimal_primes_monomial": "minimal_primes_monomial",
        "hilbert_series": "hilbert_series",
        "s_polynomial": "s_polynomial",
        "monomial_lcm": "s_polynomial",
        "_cmp_grevlex": "compare",
        "_cmp_lex": "compare",
        "_cmp_weighted": "compare",
        "is_reduction": "is_reduction",
        "local_c0": "local_c0",
        "localize_ideal": "localize",
        "localize_module": "localize",
        "colon_ideal": "monomial_colon",
    }
    MOVED_METHODS = {
        ("BigradedTable", "components"): "components",
        ("BigradedTable", "values"): "values",
        ("BigradedTable", "h"): "h",
        ("HilbertSeries", "expansion"): "expansion",
        ("HilbertSeries", "length"): "length",
        ("MonomialOrder", "compare"): "compare",
        ("Ideal", "power"): "power",
        ("Ideal", "colon_ideal"): "colon_ideal",
        ("Ideal", "equals"): "equals",
        ("Polynomial", "leading_coefficient"): "leading_coefficient",
        ("Polynomial", "mul_term"): "mul_term",
        ("Polynomial", "__pow__"): "polynomial_power",
        ("ReductionReport", "sequences_equal"): "sequences_equal",
    }
    DELETED = (
        "StabilizationError",
        "irrelevant_power",
        "hilbert_numerator",
        "MonomialPrime",
        "LambdaSet",
        "enumerate_lambda",
        "analytic_spread",
        "star_condition",
        "_lambda_sets",
        "_c0",
        "_local_module",
        "moving_residual",
        "_moving_residuals",
        "lex",
        "weight_order",
        "_ORDERS",
        "LEX",
        "WEIGHT",
        "sequence_dict",
        "diagnostics_dict",
        "formula_dict",
        "reduction_dict",
        "candidate_dict",
        "_row_dict",
        "_contribution_dict",
    )

    def test_the_engine_ships_no_oracle(self):
        # the slow routes the tests hold the engine to live in
        # tests/oracles.py, and read only public engine names there
        tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("multseq"):
                assert not any(part.startswith("_") for part in node.module.split("."))
                assert not [a.name for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Import):
                assert not [a.name for a in node.names if "._" in a.name]
            elif isinstance(node, ast.Attribute):
                private = node.attr.startswith("_") and not node.attr.startswith("__")
                assert not private, node.attr
        engine = [
            importlib.import_module(f"multseq.{info.name}")
            for info in pkgutil.iter_modules(multseq.__path__)
        ]
        for mod in [multseq, *engine]:
            for name in [*self.MOVED, *self.DELETED]:
                assert not hasattr(mod, name), (mod.__name__, name)
        for (cls, method), oracle in self.MOVED_METHODS.items():
            assert not hasattr(getattr(multseq, cls), method), (cls, method)
            assert callable(getattr(oracles, oracle))
        for oracle in self.MOVED.values():
            assert callable(getattr(oracles, oracle))

    def test_every_exported_name_resolves_once(self):
        # `from multseq import *` fails on a name in __all__ that the
        # package no longer binds
        assert len(set(multseq.__all__)) == len(multseq.__all__)
        for name in multseq.__all__:
            assert hasattr(multseq, name), name


class TestUsage:
    def test_unknown_task(self, capsys):
        code, _, err = run(capsys, ["--task", "dance"])
        assert code == 3
        assert "usage error" in err

    def test_unknown_flag(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            ["--task", "compute", "--input", golden(tmp_path), "--explode"],
        )
        assert code == 3
        # the table work runs in one process; there is no worker count
        code, _, err = run(
            capsys,
            ["--task", "compute", "--input", golden(tmp_path), "--jobs", "2"],
        )
        assert code == 3
        assert "usage error" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["--task", "compute", "--input", str(tmp_path / "gone.json")]
        )
        assert code == 3
        assert "input error" in err

    def test_non_utf8_input_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        code, _, err = run(capsys, ["--task", "compute", "--input", str(path)])
        assert code == 3
        assert "input error" in err and str(path) in err


    @pytest.mark.parametrize(
        "field, replacement",
        [
            ('"variables"', '"characteristic": 1' + "0" * 4999 + ', "variables"'),
            ('"schema"', '"params": {"seed": 1' + "0" * 4999 + '}, "schema"'),
            ('"I": [\n      "x"', '"I": [\n      "1' + "0" * 4999 + '*x"'),
            ('"I": [\n      "x"', '"I": [\n      "1/' + "3" * 5000 + '*x"'),
            ('"I": [\n      "x"', '"I": [\n      "x^' + "2" * 5000 + '"'),
        ],
        ids=["characteristic", "seed", "coefficient", "denominator", "exponent"],
    )
    def test_literal_past_the_digit_limit(self, tmp_path, capsys, field, replacement):
        # Python refuses to convert integers of more than 4,300 digits
        path = Path(golden(tmp_path))
        text = path.read_text()
        assert field in text
        path.write_text(text.replace(field, replacement, 1))
        code, out, err = run(capsys, ["--task", "compute", "--input", str(path)])
        assert code == 3
        assert out == ""
        assert err.startswith("input error:")

    @pytest.mark.parametrize(
        "task, code", [("compute", 0), ("verify-formula", 0), ("superficial", 0)]
    )
    def test_large_prime_characteristic(self, tmp_path, capsys, task, code):
        def document(p):
            return write(
                tmp_path,
                f"p{p}.json",
                {
                    "schema": 1,
                    "ring": {"variables": ["x", "y", "z"], "characteristic": p},
                    "ideals": {"I": ["x*z", "y*z"], "K": []},
                },
            )

        got, out, _ = run(capsys, ["--task", task, "--input", document(2**61 - 1)])
        assert got == code
        assert json.loads(out)["inputs"]["ring"]["characteristic"] == 2**61 - 1
        got, out, err = run(
            capsys, ["--task", task, "--input", document(399165290221 * 798330580441)]
        )
        assert (got, out) == (3, "")
        assert "prime below" in err

    def test_only_the_grevlex_order_is_accepted(self, tmp_path, capsys):
        # no answer depends on the monomial order: a document may still
        # name grevlex, and naming lex is bad input, as a removed
        # parameter is
        def document(order):
            return write(
                tmp_path,
                f"{order}.json",
                {
                    "schema": 1,
                    "ring": {"variables": ["x", "y"], "order": order},
                    "ideals": {"I": ["x^2 + y^2", "x*y"], "K": []},
                },
            )

        code, out, _ = run(capsys, ["--task", "compute", "--input", document("grevlex")])
        assert code == 0
        assert json.loads(out)["inputs"]["ring"]["order"] == "grevlex"
        code, out, err = run(capsys, ["--task", "compute", "--input", document("lex")])
        assert (code, out) == (3, "")
        assert "ring.order" in err


# a one-cell window would read (0, 45, 6, 0) here, since it certifies
# any table
UNSTABLE = {
    "schema": 1,
    "ring": {"variables": ["x", "y", "z"]},
    "ideals": {"I": ["y^5*z^6", "x^3*y^6*z"], "K": []},
}


class TestParameterRanges:
    def test_default_window_on_the_unstable_input(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", UNSTABLE)
        code, out, _ = run(capsys, ["--task", "compute", "--input", path])
        assert code == 0
        assert json.loads(out)["sequence"]["entries"] == [0, 49, 6, 0]

    @pytest.mark.parametrize(
        "params, flags, env, named",
        [
            ({"window_width": 1}, [], {}, "window_width"),
            ({"power_cap": 0}, [], {}, "power_cap"),
            ({"coeff_bound": -2}, [], {}, "coeff_bound"),
            # no MULTSEQ_ variable is read, so the flag's error shows
            ({}, ["--trials", "-1"], {"MULTSEQ_TRIALS": "abc"}, "trials"),
            ({}, ["--trials", "-3"], {}, "trials"),
            ({}, ["--trials", "-1"], {}, "trials"),
        ],
    )
    def test_out_of_range_exits_three(
        self, tmp_path, capsys, monkeypatch, params, flags, env, named
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        path = write(tmp_path, "p.json", dict(UNSTABLE, params=params))
        code, out, err = run(capsys, ["--task", "compute", "--input", path, *flags])
        assert code == 3
        assert out == ""
        assert named in err
        assert "MULTSEQ" not in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "params, flags, named",
        [
            ({"grow_cap": 48}, [], "unknown parameter 'grow_cap'"),
            ({"power_cap": 6}, [], "unknown parameter 'power_cap'"),
            ({}, ["--grow-cap", "48"], "--grow-cap"),
            ({"umax": 8}, [], "unknown parameter 'umax'"),
            ({"vmax": 8}, [], "unknown parameter 'vmax'"),
            ({"window_width": 3}, [], "unknown parameter 'window_width'"),
            ({"nzd_cap": 10}, [], "unknown parameter 'nzd_cap'"),
            ({}, ["--umax", "8"], "--umax"),
            ({}, ["--vmax", "8"], "--vmax"),
            ({}, ["--window-width", "1"], "--window-width"),
            ({"nmax": 12}, [], "unknown parameter 'nmax'"),
            ({"nmax_escalation": 48}, [], "unknown parameter 'nmax_escalation'"),
            ({}, ["--nmax", "12"], "--nmax"),
        ],
    )
    def test_removed_caps_exit_three(self, tmp_path, capsys, params, flags, named):
        # table growth ends at the proof point, the star condition and
        # the nonzerodivisor step each read one saturation, the
        # reduction number is read off the Rees module of J, and no
        # window knob can change an entry, so none of them is settable
        path = write(tmp_path, "p.json", dict(UNSTABLE, params=params))
        code, out, err = run(capsys, ["--task", "compute", "--input", path, *flags])
        assert code == 3
        assert out == ""
        assert named in err


class TestCorpusTask:
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--count", "-1"], "--count"),
            (["--char", "4"], "--char"),
            (["--char", "1"], "--char"),
            (["--char", "-3"], "--char"),
            (["--n-vars", "0"], "--n-vars"),
            (["--n-vars", "5"], "--n-vars"),
            (["--max-degree", "0"], "--max-degree"),
            (["--max-degree", "6"], "--max-degree"),
            # 399165290221 * 798330580441, which every prime base below
            # 41 passes
            (["--char", "318665857834031151167461"], "--char"),
            # 2^89 - 1 is prime, past the range the test is exact on
            (["--char", str(2**89 - 1)], "--char"),
        ],
    )
    def test_out_of_range_flags_exit_three(self, capsys, flags, named):
        code, out, err = run(capsys, ["--task", "corpus", *flags])
        assert code == 3
        assert out == ""
        assert err.startswith("usage error:")
        assert named in err

    def test_engine_value_error_stays_internal(self, capsys, monkeypatch):
        # only the flags are checked up front: a ValueError from inside
        # the engine is still a bug
        def broken(*args, **kwargs):
            raise ValueError("engine fault")

        monkeypatch.setattr(cli, "generate_corpus", broken)
        code, out, err = run(capsys, ["--task", "corpus", "--count", "1"])
        assert code == 5
        assert out == ""
        assert "internal error: ValueError: engine fault" in err

    def test_large_prime_char(self, capsys):
        code, out, _ = run(
            capsys, ["--task", "corpus", "--count", "2", "--char", str(2**61 - 1)]
        )
        assert code == 0
        docs = json.loads(out)["documents"]
        assert [d["ring"]["characteristic"] for d in docs] == [2**61 - 1] * 2

    def test_out_dir_that_is_a_file_exits_three(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        for out_dir in (taken, taken / "below"):
            code, out, err = run(
                capsys, ["--task", "corpus", "--count", "1", "--out-dir", str(out_dir)]
            )
            assert code == 3
            assert out == ""
            assert err.startswith("usage error: --out-dir")

    def test_inline_documents_deterministic(self, capsys):
        argv = ["--task", "corpus", "--count", "4", "--seed", "5"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        docs = json.loads(first)["documents"]
        assert len(docs) == 4

    def test_out_dir_round_trips_through_compute(self, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        code, out, _ = run(
            capsys,
            [
                "--task",
                "corpus",
                "--count",
                "3",
                "--seed",
                "2",
                "--out-dir",
                str(out_dir),
            ],
        )
        assert code == 0
        written = json.loads(out)["written"]
        assert len(written) == 3
        for name in written:
            code, _, _ = run(
                capsys, ["--task", "compute", "--input", str(out_dir / name)]
            )
            assert code == 0
