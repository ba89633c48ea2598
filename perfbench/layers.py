"""Per-layer counters and inclusive timers, installed from outside.

`install` replaces public functions of the engine's modules with
timing wrappers.  A function is replaced at every module attribute that
binds it, because modules import some functions by name (`cli` binds
`multiplicity_sequence`, `localization` binds `star_condition`, and so
on); methods of `Ideal` are replaced on the class.  A function that a
later version of the engine no longer has is skipped, and its metrics
read 0.

Times are inclusive and counted once per outermost call of a group, so
recursion (`monomials.power`) and nested report builders are not
counted twice.
"""

from __future__ import annotations

import sys
import time
import types
from collections import Counter, defaultdict

# (module, attribute, group); groups name the metrics they feed
FUNCTIONS = (
    ("multiplicity", "multiplicity_sequence", "multiplicity.sequence"),
    ("multiplicity", "extract_top_coefficients", "multiplicity.extract"),
    ("multiplicity", "analytic_spread", "multiplicity.spread"),
    ("multiplicity", "star_condition", "multiplicity.star"),
    ("monomials", "column_counts", "monomials.column_counts"),
    ("monomials", "hilbert_numerator", "monomials.numerator"),
    ("monomials", "power", "monomials.power"),
    ("hilbert", "length_subquotient", "hilbert.length"),
    ("hilbert", "total_length", "hilbert.length"),
    ("hilbert", "krull_dimension", "hilbert.dimension"),
    ("groebner", "groebner_basis", "groebner.basis"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("localization", "local_c0", "localization.local_c0"),
    ("localization", "enumerate_lambda", "localization.enumerate"),
    ("localization", "moving_residual", "localization.residual"),
    ("reduction", "is_reduction", "reduction.witness"),
    ("reduction", "revalidate", "reduction.revalidate"),
    ("problem", "load_problem", "problem.load"),
    ("problem", "canonical_json", "problem.report"),
    ("problem", "sequence_dict", "problem.report"),
    ("problem", "diagnostics_dict", "problem.report"),
    ("problem", "formula_dict", "problem.report"),
    ("problem", "reduction_dict", "problem.report"),
    ("problem", "candidate_dict", "problem.report"),
)

IDEAL_METHODS = (
    ("colon_poly", "ideals.colon"),
    ("colon_ideal", "ideals.colon"),
    ("intersect", "ideals.intersect"),
    ("power", "ideals.power"),
)

# module-level memo tables; nothing evicts from them, so the number of
# entries is the number of misses
CACHES = (
    ("groebner", "_CACHE", "cache.groebner_basis_misses"),
    ("monomials", "_POWER_CACHE", "cache.monomial_power_misses"),
    ("monomials", "_MAX_POWER_CACHE", "cache.irrelevant_power_misses"),
    ("monomials", "_NUMERATOR_CACHE", "cache.numerator_misses"),
    ("multiplicity", "_COLUMN_CACHE", "cache.monomial_column_misses"),
    ("multiplicity", "_GENERAL_COLUMN_CACHE", "cache.general_column_misses"),
)


def _module(name: str):
    return sys.modules.get(f"multseq.{name}")


class Tracer:
    """Counters for one traced round."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.counts = Counter()
        self._depth = Counter()

    def wrap(self, group: str, fn, after=None, group_of=None):
        """fn with its outermost calls counted and timed under a group.

        `group_of(args)` picks the group per call; `after(args, result)`
        records counts from the arguments and the result.
        """
        calls, seconds, depth = self.calls, self.seconds, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = group_of(args) if group_of else group
            depth[name] += 1
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                depth[name] -= 1
            if not depth[name]:
                calls[name] += 1
                seconds[name] += elapsed
                if after:
                    after(args, result)
            return result

        return wrapper

    def _table_group(self, args) -> str:
        ideal, module = args[0], args[1]
        monomial = ideal.packed() is not None and module.relations.packed() is not None
        return "multiplicity.table_monomial" if monomial else "multiplicity.table_general"

    def _after_table(self, args, result) -> None:
        ideal, module, umax, vmax = args[:4]
        self.counts["table_cells"] += (umax + 1) * (vmax + 1)
        self.counts["columns"] += vmax + 1
        if ideal.packed() is not None and module.relations.packed() is not None:
            self.counts["monomial_columns"] += vmax + 1

    def _after_search(self, args, result) -> None:
        # the search returns its lowest accepted trial, so trial + 1 ran
        self.counts["trials"] += result.trial + 1

    def install(self) -> None:
        replace = {}
        for mod_name, attr, group in FUNCTIONS:
            fn = getattr(_module(mod_name), attr, None)
            if fn is not None:
                replace[fn] = self.wrap(group, fn)
        table = getattr(_module("multiplicity"), "hilbert_table", None)
        if table is not None:
            replace[table] = self.wrap(
                "", table, after=self._after_table, group_of=self._table_group
            )
        search = getattr(_module("reduction"), "superficial_search", None)
        if search is not None:
            replace[search] = self.wrap(
                "reduction.search", search, after=self._after_search
            )
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "multseq" or name.startswith("multseq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in replace:
                    setattr(mod, attr, replace[value])
        ideal_cls = getattr(_module("ideals"), "Ideal", None)
        for attr, group in IDEAL_METHODS:
            method = getattr(ideal_cls, attr, None)
            if method is not None:
                setattr(ideal_cls, attr, self.wrap(group, method))

    def metrics(self) -> dict[str, float]:
        calls, seconds, counts = self.calls, self.seconds, self.counts
        table_calls = (
            calls["multiplicity.table_monomial"] + calls["multiplicity.table_general"]
        )

        def ratio(part, whole):
            return part / whole if whole else 0.0

        out = {
            "multiplicity.sequence_calls": calls["multiplicity.sequence"],
            "multiplicity.sequence_s": seconds["multiplicity.sequence"],
            "multiplicity.table_calls": table_calls,
            "multiplicity.table_cells": counts["table_cells"],
            "multiplicity.rounds_per_sequence": ratio(
                table_calls, calls["multiplicity.sequence"]
            ),
            "multiplicity.columns_requested": counts["columns"],
            "multiplicity.extract_s": seconds["multiplicity.extract"],
            "multiplicity.table_monomial_s": seconds["multiplicity.table_monomial"],
            "multiplicity.table_general_s": seconds["multiplicity.table_general"],
            "multiplicity.spread_calls": calls["multiplicity.spread"],
            "multiplicity.spread_s": seconds["multiplicity.spread"],
            "multiplicity.star_s": seconds["multiplicity.star"],
            "monomials.column_counts_calls": calls["monomials.column_counts"],
            "monomials.column_counts_s": seconds["monomials.column_counts"],
            "monomials.column_hit_ratio": (
                1.0 - ratio(calls["monomials.column_counts"], counts["monomial_columns"])
                if counts["monomial_columns"]
                else 0.0
            ),
            "monomials.numerator_calls": calls["monomials.numerator"],
            "monomials.numerator_s": seconds["monomials.numerator"],
            "monomials.power_s": seconds["monomials.power"],
            "hilbert.length_calls": calls["hilbert.length"],
            "hilbert.length_s": seconds["hilbert.length"],
            "hilbert.dimension_s": seconds["hilbert.dimension"],
            "groebner.basis_calls": calls["groebner.basis"],
            "groebner.buchberger_calls": calls["groebner.buchberger"],
            "groebner.buchberger_s": seconds["groebner.buchberger"],
            "groebner.basis_hit_ratio": (
                1.0 - ratio(calls["groebner.buchberger"], calls["groebner.basis"])
                if calls["groebner.basis"]
                else 0.0
            ),
            "groebner.normal_form_calls": calls["groebner.normal_form"],
            "groebner.normal_form_s": seconds["groebner.normal_form"],
            "ideals.colon_s": seconds["ideals.colon"],
            "ideals.intersect_s": seconds["ideals.intersect"],
            "ideals.power_s": seconds["ideals.power"],
            "localization.local_c0_calls": calls["localization.local_c0"],
            "localization.local_c0_s": seconds["localization.local_c0"],
            "localization.enumerate_s": seconds["localization.enumerate"],
            "localization.residual_s": seconds["localization.residual"],
            "reduction.witness_calls": calls["reduction.witness"],
            "reduction.witness_s": seconds["reduction.witness"],
            "reduction.search_s": seconds["reduction.search"],
            "reduction.revalidate_s": seconds["reduction.revalidate"],
            "reduction.trials_per_search": ratio(
                counts["trials"], calls["reduction.search"]
            ),
            "problem.load_s": seconds["problem.load"],
            "problem.report_s": seconds["problem.report"],
        }
        for mod_name, attr, metric in CACHES:
            out[metric] = len(getattr(_module(mod_name), attr, ()))
        return out
