"""One round of a workload in a fresh interpreter.

Started by run.py as ``worker.py ROOT WORKLOAD SEED setup|run|trace``.
It imports the engine from ROOT/src, builds and writes the round's
documents, prints ``ready`` (run.py takes the set-up time at that line)
and, unless only set-up is measured, sends every document through
``multseq.cli.main`` in-process, one after the other, with ``jobs = 1``.
After the timed loop it checks every report apart from the engine and
prints one JSON line with the per-document times and outcomes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time


def _run_documents(cli, paths, cases):
    """Per-document wall times, exit codes and printed reports."""
    times, codes, outputs = [], [], []
    clock = time.perf_counter
    for path, case in zip(paths, cases):
        out, err = io.StringIO(), io.StringIO()
        started = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["--task", case.task, "--input", path])
        except Exception as exc:  # a raising document is a failed operation
            code = f"raised {type(exc).__name__}: {exc}"
        times.append(clock() - started)
        codes.append(code)
        outputs.append(out.getvalue() or err.getvalue())
    return times, codes, outputs


def _judge(checks, cases, codes, outputs):
    """(failed flags, wrong answers, errors) for the round.

    A document fails when it raises, exits 3, 4 or 5, reads the known
    `lower-bound`, or gives an answer its check refutes; only the last
    is a wrong answer.
    """
    failed, wrong_answers, errors = [], [], []
    for case, code, output in zip(cases, codes, outputs):
        label = case.document["label"]
        if code not in (0, 1, 2):
            failed.append(True)
            errors.append(f"{label}: exit {code}: {output.strip()[:200]}")
            continue
        known, wrong = checks.check_report(
            case.task, case.document, case.expect, json.loads(output)
        )
        failed.append(known or bool(wrong))
        wrong_answers += [f"{label}: {p}" for p in wrong]
    return failed, wrong_answers, errors


def main(argv) -> int:
    root, workload, seed, mode = argv[1], argv[2], int(argv[3]), argv[4]
    sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]
    from multseq import cli
    from multseq.problem import canonical_json

    import checks
    import workloads

    cases, generate_s = workloads.build(workload, seed)
    folder = os.path.join(root, ".perfbench_out", f"docs-{os.getpid()}")
    os.makedirs(folder, exist_ok=True)
    try:
        paths = []
        for index, case in enumerate(cases):
            path = os.path.join(folder, f"{index:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(case.document))
            paths.append(path)
        print("ready", flush=True)
        if mode == "setup":
            return 0
        tracer = None
        if mode == "trace":
            import layers

            tracer = layers.Tracer()
            tracer.install()
        times, codes, outputs = _run_documents(cli, paths, cases)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    failed, wrong, errors = _judge(checks, cases, codes, outputs)
    result = {
        "times": times,
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
        "peak_rss_mb": peak_kb / 1024,
        "generate_s": generate_s,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
