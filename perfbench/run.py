"""Benchmark of the multseq command line: three workloads, closed loop.

    python3 perfbench/run.py --workload sequence --seed 0 --seconds 12 --trace 0

Run from the root of a checkout.  Every round of a workload runs in a
fresh interpreter (worker.py), so the engine's module caches start
empty, as they do for a user of the command line.  One caller, one
thread, one document at a time.  Rounds repeat until --seconds have
passed; every round attempts the same documents.  The last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of one extra traced round with --trace 1.  See
README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS_PER_ROUND = 4
ROUND_TIMEOUT_S = 150


def _worker_command(workload: str, seed: int, mode: str) -> list[str]:
    # -I ignores PYTHON* variables and the user site; the private bytecode
    # prefix, filled by an untimed round before any measurement, keeps
    # set-up independent of whatever __pycache__ the checkout holds
    prefix = os.path.join(ROOT, ".perfbench_out", "pycache")
    return [
        sys.executable, "-I", "-X", f"pycache_prefix={prefix}",
        os.path.join(HERE, "worker.py"), ROOT, workload, str(seed), mode,
    ]


def _environment() -> dict[str, str]:
    # engine parameters come from the documents alone
    return {k: v for k, v in os.environ.items() if not k.startswith("MULTSEQ_")}


def _round(workload: str, seed: int, mode: str) -> tuple[float, dict | None]:
    """Set-up seconds of one worker, and its result unless mode is setup."""
    started = time.perf_counter()
    with subprocess.Popen(
        _worker_command(workload, seed, mode),
        stdout=subprocess.PIPE,
        text=True,
        env=_environment(),
        cwd=ROOT,
    ) as proc:
        # a worker that hangs is killed, so a run always ends
        watchdog = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{mode} worker failed with exit {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail_percentile(round_size: int) -> int:
    """Highest whole percentile with at least ten documents of a round above it."""
    return max(0, math.floor(100 * (1 - 10 / round_size)))


def quantile(values: list[float], pct: int) -> float:
    """Harrell-Davis estimate of the pct-th percentile of values.

    Every order statistic is weighted by the mass that the
    Beta(p(n+1), (1-p)(n+1)) density puts on its slot ((i-1)/n, i/n],
    integrated by the midpoint rule.  It reads a few neighbours of the
    nearest rank, not one document, so one slow sample moves it less.
    """
    ordered = sorted(values)
    n, p = len(ordered), pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 64
    weights = [
        sum(density((i + (j + 0.5) / steps) / n) for j in range(steps)) for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _round_median(rounds: list[dict], pct: int) -> float:
    return statistics.median(quantile(r["times"], pct) for r in rounds)


def measure(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    _round(workload, seed, "setup")  # fills the bytecode prefix; not timed
    setups, rounds = [], []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        # set-up alone, several times per round, so that its median spans
        # the run and not one moment of it
        setups += [_round(workload, seed, "setup")[0] for _ in range(SETUPS_PER_ROUND)]
        setup_s, result = _round(workload, seed, "run")
        setups.append(setup_s)
        rounds.append(result)
    times = [t for r in rounds for t in r["times"]]
    wrong = [w for r in rounds for w in r["wrong"]]
    errors = [e for r in rounds for e in r["errors"]]
    for line in sorted(set(wrong)) + sorted(set(errors)):
        print(line, file=sys.stderr)
    summary = {
        "correct": not wrong,
        "attempted": len(times),
        "failed": sum(f for r in rounds for f in r["failed"]),
    }
    if not traced:
        tail = tail_percentile(len(rounds[0]["times"]))
        summary["metrics"] = {
            "docs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            # each round's percentile, then the median over rounds: a
            # percentile of the pooled times would read the slowest of the
            # rounds' samples of the documents at its rank
            "doc_p50_s": {"value": _round_median(rounds, 50), "unit": "s"},
            "doc_tail_s": {"value": _round_median(rounds, tail), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in rounds),
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        return summary
    _, traced_round = _round(workload, seed, "trace")
    layers = traced_round["layers"]
    layers["corpus.generate_s"] = traced_round["generate_s"]
    untraced_s = statistics.median(sum(r["times"]) for r in rounds)
    layers["trace.overhead_s"] = sum(traced_round["times"]) - untraced_s
    summary["metrics"] = {
        name: {"value": value, "unit": _unit(name)} for name, value in layers.items()
    }
    return summary


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "multiplicity.rounds_per_sequence":
        return "rounds/sequence"
    if name == "reduction.trials_per_search":
        return "trials/search"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "multseq", "cli.py")):
        print("no multseq sources under src/ in this checkout", file=sys.stderr)
        return 2
    summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
