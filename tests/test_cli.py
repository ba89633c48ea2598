"""Command line front end: task dispatch, exit codes, report shape."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from importlib import metadata

import pytest

import multseq
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

    def test_forced_budget_exits_one(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "forced.json",
            {
                "schema": 1,
                "ring": {"variables": ["x", "y"]},
                "ideals": {"I": ["x^2", "y^2"], "J": ["x^2", "x*y", "y^2"], "K": []},
                "params": {"nmax": 0, "nmax_escalation": 0},
            },
        )
        code, out, _ = run(capsys, ["--task", "check-reduction", "--input", path])
        assert code == 1
        assert json.loads(out)["reduction"]["consistent"] is False

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
        assert {"config.MINIMUMS", "problem._ORDERS", "cli._version"} <= set(before)
        for task, variables, ideals, extra in TestOptimizedInterpreter.CASES.values():
            document = {"schema": 1, "ring": {"variables": variables}, "ideals": ideals}
            path = write(tmp_path, f"{task}.json", document)
            run(capsys, ["--task", task, "--input", path, *extra])
        run(capsys, ["--task", "corpus", "--count", "2", "--mode", "pair"])
        grown = {name for name, size in tables().items() if size != before.get(name)}
        assert grown <= {"monomials._LAYOUTS"}


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
            ({}, ["--nmax", "-1"], {"MULTSEQ_NMAX": "abc"}, "nmax"),
            ({}, ["--nmax", "-3"], {}, "nmax"),
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
        ],
    )
    def test_removed_caps_exit_three(self, tmp_path, capsys, params, flags, named):
        # table growth ends at the proof point, the star condition and
        # the nonzerodivisor step each read one saturation, and no
        # window knob can change an entry, so none of them is settable
        path = write(tmp_path, "p.json", dict(UNSTABLE, params=params))
        code, out, err = run(capsys, ["--task", "compute", "--input", path, *flags])
        assert code == 3
        assert out == ""
        assert named in err


class TestCorpusTask:
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
