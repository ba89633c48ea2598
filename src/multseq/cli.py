"""Command-line front end.

Reads one JSON problem document, runs the requested task, and prints a
canonical JSON report (or an aligned text rendering with
``--format table``).  Reports are byte-identical across repeated runs
with the same inputs and seed; wall-clock timings appear only under
``--timings``.

Exit codes: 0 completed with every verdict matching/consistent, 1 on a
mismatch or inconsistency, 2 when a verdict is indeterminate or the
formula hypotheses fail, 3 on malformed input, 4 when an engine cap or
search budget is exhausted, 5 on an internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from importlib import metadata

from .config import Params
from .corpus import MAX_DEGREE, MAX_VARIABLES, generate_corpus
from .errors import (
    EngineLimit,
    NonHomogeneousInput,
    PreconditionError,
    SearchExhausted,
    StabilizationError,
)
from .localization import verify_formula
from .multiplicity import diagnostics, multiplicity_sequence
from .parse import ParseError
from .problem import (
    Problem,
    ProblemError,
    canonical_json,
    candidate_dict,
    diagnostics_dict,
    formula_dict,
    load_problem,
    reduction_dict,
    sequence_dict,
)
from .reduction import rees_criterion, revalidate, superficial_search

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INDETERMINATE = 2
EXIT_BAD_INPUT = 3
EXIT_LIMIT = 4
EXIT_BUG = 5

_PARAM_FLAGS = (
    "nmax",
    "trials",
    "seed",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes under our control
        raise _UsageError(message)


# built on first use, not at import, and kept: a caller may run `main`
# once per document in one process
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="multseq",
        description="multiplicity sequences of homogeneous ideals",
    )
    parser.add_argument(
        "--task",
        required=True,
        choices=["compute", "verify-formula", "check-reduction", "superficial", "corpus"],
    )
    parser.add_argument("--input", help="problem JSON file (all tasks but corpus)")
    parser.add_argument("--format", choices=["json", "table"], default="json")
    parser.add_argument("--timings", action="store_true", help="include wall times")
    parser.add_argument("--nmax", type=int, help="reduction power budget")
    parser.add_argument("--trials", type=int, help="superficial trial budget")
    parser.add_argument("--seed", type=int)
    corpus = parser.add_argument_group("corpus")
    corpus.add_argument("--count", type=int, default=10)
    corpus.add_argument("--n-vars", type=int, dest="n_vars", default=3)
    corpus.add_argument("--max-degree", type=int, dest="max_degree", default=4)
    corpus.add_argument("--char", type=int, default=0, help="coefficient characteristic")
    corpus.add_argument(
        "--mode",
        choices=["single", "primary", "pair", "superficial"],
        default="single",
    )
    corpus.add_argument(
        "--relations", choices=["mixed", "zero", "monomial"], default="mixed"
    )
    corpus.add_argument("--out-dir", dest="out_dir", help="write one file per problem")
    return parser


@functools.cache
def _version() -> str:
    try:
        return metadata.version("multseq")
    except metadata.PackageNotFoundError:
        return "unknown"


def _effective_params(problem: Problem | None, args) -> Params:
    overrides = {}
    for name in _PARAM_FLAGS:
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    # a document's params were checked when it loaded
    params = Params() if problem is None else problem.effective_params(Params())
    try:
        return params.replace(**overrides)
    except ValueError as exc:
        # an out-of-range flag is bad input
        raise _UsageError(str(exc)) from None


def _base_report(task: str, params: Params, inputs) -> dict:
    return {
        "task": task,
        "engine": {"name": "multseq", "version": _version()},
        "seed": params.seed,
        "inputs": inputs,
    }


def _run_compute(problem: Problem, params: Params) -> tuple[dict, int]:
    module = problem.module()
    seq, table = multiplicity_sequence(problem.ideal, module)
    diag = diagnostics(problem.ideal, module, table)
    report = _base_report("compute", params, problem.source)
    report["sequence"] = sequence_dict(seq)
    report["diagnostics"] = diagnostics_dict(diag)
    return report, EXIT_OK if diag.consistent else EXIT_MISMATCH


def _run_verify(problem: Problem, params: Params) -> tuple[dict, int]:
    module = problem.module()
    rep = verify_formula(problem.ideal, module)
    report = _base_report("verify-formula", params, problem.source)
    report["formula"] = formula_dict(rep)
    if rep.verdict == "verified":
        code = EXIT_OK
    elif rep.verdict == "mismatch":
        code = EXIT_MISMATCH
    else:
        code = EXIT_INDETERMINATE
    return report, code


def _run_reduction(problem: Problem, params: Params) -> tuple[dict, int]:
    large = problem.larger_ideal
    if large is None:
        raise ProblemError("task check-reduction requires ideal J", "ideals")
    module = problem.module()
    rep = rees_criterion(problem.ideal, large, module, params)
    report = _base_report("check-reduction", params, problem.source)
    report["reduction"] = reduction_dict(rep)
    if not rep.consistent:
        code = EXIT_MISMATCH
    elif rep.criterion_verdict == "indeterminate":
        code = EXIT_INDETERMINATE
    else:
        code = EXIT_OK
    return report, code


def _run_superficial(problem: Problem, params: Params) -> tuple[dict, int]:
    module = problem.module()
    candidate = superficial_search(problem.ideal, module, params)
    replayed = revalidate(candidate, problem.ideal, module, params)
    report = _base_report("superficial", params, problem.source)
    report["candidate"] = candidate_dict(candidate)
    report["revalidated"] = replayed
    return report, EXIT_OK if replayed else EXIT_MISMATCH


def _run_corpus(args, params: Params) -> tuple[dict, int]:
    documents = generate_corpus(
        args.count,
        n_vars=args.n_vars,
        max_degree=args.max_degree,
        seed=params.seed,
        mode=args.mode,
        characteristic=args.char,
        relations=args.relations,
    )
    inputs = {
        "count": args.count,
        "n_vars": args.n_vars,
        "max_degree": args.max_degree,
        "mode": args.mode,
        "characteristic": args.char,
        "relations": args.relations,
    }
    report = _base_report("corpus", params, inputs)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        written = []
        for index, doc in enumerate(documents):
            path = os.path.join(args.out_dir, f"problem-{index:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(doc))
            written.append(path)
        report["written"] = written
    else:
        report["documents"] = documents
    return report, EXIT_OK


def _run(args) -> tuple[dict, int]:
    if args.task == "corpus":
        params = _effective_params(None, args)
        return _run_corpus(args, params)
    if not args.input:
        raise _UsageError(f"--task {args.task} requires --input")
    problem = load_problem(args.input)
    params = _effective_params(problem, args)
    runner = {
        "compute": _run_compute,
        "verify-formula": _run_verify,
        "check-reduction": _run_reduction,
        "superficial": _run_superficial,
    }[args.task]
    return runner(problem, params)


# -- text rendering -------------------------------------------------------


def _rows_to_text(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return lines


def _render_table(report: dict) -> str:
    lines = [
        f"task      {report['task']}",
        f"engine    {report['engine']['name']} {report['engine']['version']}",
        f"seed      {report['seed']}",
    ]
    if "sequence" in report:
        seq = report["sequence"]
        window = seq["window"]
        lines.append(f"sequence  c = {tuple(seq['entries'])}  dim {seq['dim']}")
        lines.append(
            f"window    u {window['u'][0]}..{window['u'][1]}"
            f"  v {window['v'][0]}..{window['v'][1]}  width {window['width']}"
        )
    if "diagnostics" in report:
        diag = report["diagnostics"]
        lines.append(
            "checks    "
            + "  ".join(f"{k} {diag[k]}" for k in sorted(diag))
        )
    if "formula" in report:
        formula = report["formula"]
        lines.append(
            f"formula   {formula['verdict']}  height {formula['height']}"
            f"  star {formula['star']}  complete {formula['complete']}"
        )
        seq = formula["sequence"]
        lines.append(f"sequence  c = {tuple(seq['entries'])}  dim {seq['dim']}")
        rows = [
            [
                str(row["k"]),
                str(row["lhs"]),
                str(row["rhs"]),
                str(row["residual"]),
                {True: "yes", False: "NO", None: "open"}[row["matches"]],
                ", ".join(
                    f"({', '.join(c['prime'])}): {c['local_c0']}*{c['degree']}"
                    for c in row["contributions"]
                )
                or "-",
            ]
            for row in formula["rows"]
        ]
        header = ["k", "c_k", "sum", "residual", "match", "primes"]
        lines.extend(_rows_to_text(header, rows))
    if "reduction" in report:
        red = report["reduction"]
        lines.append(
            f"reduction {red['criterion_verdict']}"
            f"  reduced_at {red['reduced_at']}  checked_to {red['checked_to']}"
        )
        lines.append(
            f"sequences small {tuple(red['sequence_small']['entries'])}"
            f"  large {tuple(red['sequence_large']['entries'])}"
        )
        lines.append(
            f"checks    height {red['height']}"
            f"  equidimensional {red['equidimensional']}"
            f"  consistent {red['consistent']}"
        )
        if red["note"]:
            lines.append(f"note      {red['note']}")
    if "candidate" in report:
        cand = report["candidate"]
        lines.append(
            f"element   {cand['element']}  (degree {cand['degree']},"
            f" trial {cand['trial']}, c = {cand['c_exponent']})"
        )
        lines.append(f"replay    {'ok' if report['revalidated'] else 'FAILED'}")
        rows = [
            [e["check"], "ok" if e["passed"] else "FAILED", e["detail"]]
            for e in cand["evidence"]
        ]
        lines.extend(_rows_to_text(["check", "result", "detail"], rows))
    if "written" in report:
        lines.append(f"written   {len(report['written'])} files")
        lines.extend(f"  {path}" for path in report["written"])
    if "documents" in report:
        lines.append(f"generated {len(report['documents'])} problems")
        for doc in report["documents"]:
            ideals = doc["ideals"]
            parts = [f"I=({', '.join(ideals['I'])})"]
            if "J" in ideals:
                parts.append(f"J=({', '.join(ideals['J'])})")
            if ideals.get("K"):
                parts.append(f"K=({', '.join(ideals['K'])})")
            lines.append(f"  {doc['label']}: {'; '.join(parts)}")
    if "timings" in report:
        lines.append(f"time      {report['timings']['total_s']} s")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    started = time.perf_counter()
    try:
        report, code = _run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ProblemError, ParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (
        PreconditionError,
        EngineLimit,
        StabilizationError,
        SearchExhausted,
        NonHomogeneousInput,
    ) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except Exception as exc:  # pragma: no cover - bug guard
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BUG
    if args.timings:
        report["timings"] = {"total_s": round(time.perf_counter() - started, 6)}
    if args.format == "json":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(_render_table(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
