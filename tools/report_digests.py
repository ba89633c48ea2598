"""One digest per report, so two checkouts compare with one `diff`.

    python3 tools/report_digests.py CHECKOUT > digests.txt
    diff parent.txt change.txt

Runs every document of the three benchmark workloads at seeds 0 and 7,
plus a fixed seeded corpus grid in characteristic 0 and in a prime
field, then a few hand documents, through `multseq.cli.main` of
CHECKOUT in-process, once with `--format json` and once with
`--format table`.  The grid adds documents the workloads do not run,
among them four-variable `verify-formula` and `check-reduction`
documents, whose Rees bases are the largest of the grid, four-variable
`superficial` documents, whose principal relations `colon_poly`
divides out, and the prime-field rows, where the Groebner kernel
reduces mod p.  The hand documents reach what the corpus never draws:
`superficial` inputs whose drawn element is a zerodivisor on M, so the
nonzerodivisor step saturates K by I (by elimination when K or I has a
non-monomial generator, on packed words otherwise), and a `compute`
input of height zero, where the star condition runs.  They come after
the grid, so the earlier lines keep their order.  Each report prints
as one line, `label sha256(exit code, stdout, stderr)`.  The engine
comes from CHECKOUT/src and the workload documents from
CHECKOUT/perfbench; the documents are written to a temporary directory
and nothing under the checkout is changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

WORKLOADS = ("sequence", "formula", "general")
SEEDS = (0, 7)
FORMATS = ("json", "table")
GRID_SEED = 5
GRID_COUNT = 12
# (task, corpus mode, variables, relations)
GRID = (
    ("compute", "single", 3, "mixed"),
    ("compute", "single", 4, "zero"),
    ("compute", "primary", 3, "mixed"),
    ("verify-formula", "single", 3, "zero"),
    ("verify-formula", "single", 3, "monomial"),
    ("verify-formula", "single", 4, "zero"),
    ("verify-formula", "single", 4, "monomial"),
    ("verify-formula", "primary", 3, "mixed"),
    ("check-reduction", "pair", 3, "mixed"),
    ("check-reduction", "pair", 4, "zero"),
    ("superficial", "superficial", 3, "mixed"),
    ("superficial", "superficial", 4, "mixed"),
)
# five rows of GRID again, over the prime field of PRIME
PRIME = 32003
PRIME_GRID = (
    ("compute", "primary", 3, "mixed"),
    ("verify-formula", "single", 4, "monomial"),
    ("check-reduction", "pair", 3, "mixed"),
    ("superficial", "superficial", 3, "mixed"),
    ("superficial", "superficial", 4, "mixed"),
)

# (label, task, characteristic, I, K, params) over k[x, y, z]
HAND = (
    ("superficial-nzd-general-k", "superficial", 0,
     ["y"], ["x^2", "x*y^12", "x^3 + x^2*y"], {}),
    ("superficial-nzd-general-k-p32003", "superficial", PRIME,
     ["y"], ["x^2", "x*y^12", "x^3 + x^2*y"], {}),
    ("superficial-annihilator-outside", "superficial", 0,
     ["x", "y^2"], ["x*z", "x^2*z + x*y*z"], {"trials": 1}),
    ("superficial-nzd-general-i", "superficial", 0,
     ["y", "y^2 + y*z"], ["x^2", "x*y^12"], {}),
    ("superficial-nzd-monomial", "superficial", 0,
     ["y"], ["x^2", "x*y^12"], {}),
    ("compute-height-zero", "compute", 0, ["x"], ["x*y"], {}),
)


def _cases(workloads):
    """(label, task, document) for every document digested."""
    from multseq.corpus import generate_corpus

    for name in WORKLOADS:
        for seed in SEEDS:
            cases, _ = workloads.build(name, seed)
            for index, case in enumerate(cases):
                yield f"{name}-s{seed}-{index:03d}", case.task, case.document
    rows = [(row, 0) for row in GRID] + [(row, PRIME) for row in PRIME_GRID]
    for (task, mode, n_vars, relations), characteristic in rows:
        documents = generate_corpus(
            GRID_COUNT, n_vars=n_vars, seed=GRID_SEED, mode=mode,
            characteristic=characteristic, relations=relations,
        )
        field = f"-p{characteristic}" if characteristic else ""
        for index, document in enumerate(documents):
            label = f"grid-{task}-{mode}{n_vars}-{relations}{field}-{index:02d}"
            yield label, task, document
    for label, task, characteristic, i_gens, k_gens, params in HAND:
        document = {
            "schema": 1,
            "ring": {"variables": ["x", "y", "z"], "characteristic": characteristic},
            "ideals": {"I": i_gens, "K": k_gens},
            "params": params,
        }
        yield f"hand-{label}", task, document


def _digest(cli, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(blob).hexdigest()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = os.path.abspath(argv[1])
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from multseq import cli
    from multseq.problem import canonical_json

    import workloads

    with tempfile.TemporaryDirectory() as folder:
        for label, task, document in _cases(workloads):
            path = os.path.join(folder, "doc.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(document))
            for fmt in FORMATS:
                digest = _digest(cli, ["--task", task, "--input", path, "--format", fmt])
                print(f"{label}-{fmt} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
