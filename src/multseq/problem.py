"""Schema-1 problem documents and canonical report serialization.

A problem file is one JSON object naming a ring, ideals I (and
optionally J and K) as polynomial strings, an unmixedness assertion,
and parameter overrides.  Validation errors carry a dotted location
into the document.  A report's keys are the fields of the result
types (`report_fields`), and reports serialize to canonical JSON
(sorted keys, two-space indent) so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _encode_string

from . import monomials as mo
from .config import Params
from .errors import EngineLimit
from .ideals import Ideal
from .localization import Contribution, FormulaReport, KSummary
from .multiplicity import CyclicModule, Diagnostics, MultiplicitySequence
from .parse import ParseError, parse_terms
from .poly import Polynomial, PolyRing
from .reduction import EvidenceItem, ReductionReport, SuperficialCandidate

MAX_PROBLEM_VARIABLES = 8

_PARAM_FIELDS = frozenset(f.name for f in fields(Params))


class ProblemError(ValueError):
    """Invalid problem document, with a dotted location."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


@dataclass(frozen=True)
class Problem:
    ring: PolyRing
    ideals: dict[str, Ideal]
    equidimensional: bool
    params: Params
    label: str | None
    source: dict

    @property
    def ideal(self) -> Ideal:
        return self.ideals["I"]

    @property
    def larger_ideal(self) -> Ideal | None:
        return self.ideals.get("J")

    @property
    def relations(self) -> Ideal:
        return self.ideals["K"]

    def module(self) -> CyclicModule:
        return CyclicModule(self.ring, self.relations, self.equidimensional)


def _expect(condition: bool, message: str, location: str) -> None:
    if not condition:
        raise ProblemError(message, location)


def _build_ring(doc, location: str) -> PolyRing:
    _expect(isinstance(doc, dict), "must be an object", location)
    variables = doc.get("variables")
    _expect(
        isinstance(variables, list)
        and variables
        and all(isinstance(v, str) for v in variables),
        "variables must be a nonempty list of strings",
        f"{location}.variables",
    )
    _expect(
        len(variables) <= MAX_PROBLEM_VARIABLES,
        f"at most {MAX_PROBLEM_VARIABLES} variables supported",
        f"{location}.variables",
    )
    _expect(
        len(set(variables)) == len(variables),
        "variables must be distinct",
        f"{location}.variables",
    )
    characteristic = doc.get("characteristic", 0)
    _expect(
        isinstance(characteristic, int) and not isinstance(characteristic, bool),
        "characteristic must be an integer",
        f"{location}.characteristic",
    )
    # no answer depends on a monomial order: the one accepted is the
    # grevlex order every basis is read under
    _expect(
        doc.get("order", "grevlex") == "grevlex",
        "order must be 'grevlex'",
        f"{location}.order",
    )
    unknown = set(doc) - {"variables", "characteristic", "order"}
    _expect(not unknown, f"unknown keys {sorted(unknown)}", location)
    try:
        return PolyRing(tuple(variables), characteristic)
    except ValueError as exc:
        raise ProblemError(str(exc), location)


def _build_ideal(ring: PolyRing, gens, location: str) -> Ideal:
    _expect(
        isinstance(gens, list) and all(isinstance(g, str) for g in gens),
        "must be a list of polynomial strings",
        location,
    )
    parsed = []
    for index, text in enumerate(gens):
        try:
            parsed.append(parse_terms(ring, text))
        except ParseError as exc:
            raise ProblemError(str(exc), f"{location}[{index}]")
    words = _monomial_words(ring, parsed)
    if words is not None:
        return Ideal.from_packed(ring, words)
    return Ideal(ring, [Polynomial(ring, terms) for terms in parsed])


def _monomial_words(ring: PolyRing, parsed: list[dict]) -> tuple[int, ...] | None:
    """Minimal packed words of generators that are each one nonzero term.

    None otherwise, and for an exponent past the packed range, which the
    engine reports where it packs the ideal.
    """
    if not all(len(terms) == 1 for terms in parsed):
        return None
    lay = mo.layout(ring.arity)
    try:
        words = [mo.pack(lay, exponents) for terms in parsed for exponents in terms]
    except EngineLimit:
        return None
    return mo.minimalize(lay, words)


def problem_from_dict(doc: dict) -> Problem:
    _expect(isinstance(doc, dict), "problem must be a JSON object", "")
    _expect(doc.get("schema") == 1, "schema must be 1", "schema")
    known = {"schema", "label", "ring", "ideals", "assertions", "params"}
    unknown = set(doc) - known
    _expect(not unknown, f"unknown keys {sorted(unknown)}", "")
    ring = _build_ring(doc.get("ring"), "ring")

    ideals_doc = doc.get("ideals")
    _expect(isinstance(ideals_doc, dict), "ideals must be an object", "ideals")
    unknown = set(ideals_doc) - {"I", "J", "K"}
    _expect(not unknown, f"unknown ideals {sorted(unknown)}", "ideals")
    _expect("I" in ideals_doc, "ideal I is required", "ideals")
    ideals = {"I": _build_ideal(ring, ideals_doc["I"], "ideals.I")}
    if "J" in ideals_doc:
        ideals["J"] = _build_ideal(ring, ideals_doc["J"], "ideals.J")
    ideals["K"] = _build_ideal(ring, ideals_doc.get("K", []), "ideals.K")
    _expect(ideals["K"].is_proper(), "relations generate the unit ideal", "ideals.K")

    assertions = doc.get("assertions", {})
    _expect(isinstance(assertions, dict), "assertions must be an object", "assertions")
    unknown = set(assertions) - {"equidimensional"}
    _expect(not unknown, f"unknown assertions {sorted(unknown)}", "assertions")
    equidimensional = assertions.get("equidimensional", False)
    _expect(
        isinstance(equidimensional, bool),
        "equidimensional must be a boolean",
        "assertions.equidimensional",
    )

    params_doc = doc.get("params", {})
    _expect(isinstance(params_doc, dict), "params must be an object", "params")
    for key, value in params_doc.items():
        _expect(key in _PARAM_FIELDS, f"unknown parameter {key!r}", f"params.{key}")
        _expect(
            isinstance(value, int) and not isinstance(value, bool),
            "parameters are integers",
            f"params.{key}",
        )
    try:
        params = Params(**params_doc)
    except ValueError as exc:
        raise ProblemError(str(exc), "params") from None

    label = doc.get("label")
    _expect(
        label is None or isinstance(label, str), "label must be a string", "label"
    )
    return Problem(
        ring=ring,
        ideals=ideals,
        equidimensional=equidimensional,
        params=params,
        label=label,
        source=doc,
    )


def load_problem(path: str) -> Problem:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ProblemError(str(exc), path)
    except json.JSONDecodeError as exc:
        raise ProblemError(f"invalid JSON: {exc}", path)
    except UnicodeDecodeError as exc:
        raise ProblemError(f"not UTF-8: {exc}", path)
    except ValueError as exc:  # a number past the interpreter's digit limit
        raise ProblemError(str(exc), path)
    return problem_from_dict(doc)


# -- report serialization -------------------------------------------------


def canonical_json(doc: dict) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)` plus a newline, byte for byte.

    One recursive function writes it: `json.dumps` with an indent takes
    the pure-Python encoder, whose nested closures refer to each other
    and leave every call's encoder for the cyclic garbage collector.
    """
    out: list[str] = []
    _emit(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _scalar(value) -> str | None:
    """JSON text of a number, bool or None, as `json.dumps` writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    return None


def _key(key) -> str:
    """A dict key as the quoted text `json.dumps` writes before its ": "."""
    if not isinstance(key, str):
        text = _scalar(key)
        if text is None:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = text
    return _encode_string(key) + ": "


def _emit(value, newline: str, out: list[str]) -> None:
    """Append the JSON text of `value`, its lines indented after `newline`."""
    if isinstance(value, str):
        out.append(_encode_string(value))
        return
    if isinstance(value, dict):
        items = [(_key(k), v) for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [("", v) for v in value]
        brackets = "[]"
    else:
        text = _scalar(value)
        if text is None:
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )
        out.append(text)
        return
    if not items:
        out.append(brackets)
        return
    inner = newline + "  "
    separator = brackets[0] + inner
    for prefix, item in items:
        out.append(separator + prefix)
        _emit(item, inner, out)
        separator = "," + inner
    out.append(newline + brackets[1])


# the report keys of each result type: its fields, less the low entries
# only the replay reads, plus the two properties a report reader would
# otherwise recompute
_REPORT_KEYS = {
    cls: tuple(f.name for f in fields(cls) if f.name not in drop) + extra
    for cls, drop, extra in (
        (MultiplicitySequence, (), ()),
        (Diagnostics, (), ()),
        (Contribution, (), ("product",)),
        (KSummary, (), ("matches",)),
        (FormulaReport, (), ()),
        (ReductionReport, (), ()),
        (EvidenceItem, (), ()),
        (SuperficialCandidate, ("low_entries",), ()),
    )
}


def report_fields(result) -> dict:
    """The report form of a result: a dict of its report keys.

    A result among the values becomes its own dict, a tuple of results
    a list of them, and a polynomial its text; plain values, and tuples
    of them, pass through, since `canonical_json` writes a tuple as a
    list.
    """
    out = {}
    for key in _REPORT_KEYS[type(result)]:
        value = getattr(result, key)
        kind = type(value)
        if kind in _REPORT_KEYS:
            value = report_fields(value)
        elif kind is tuple and value and type(value[0]) in _REPORT_KEYS:
            value = [report_fields(item) for item in value]
        elif kind is Polynomial:
            value = str(value)
        out[key] = value
    return out
