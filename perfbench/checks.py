"""Answer checks computed apart from the engine.

Everything here works on exponent vectors with exact integers or
fractions and imports nothing from multseq, so a wrong engine answer
cannot also make its check pass.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?\Z")


def parse_terms(text: str, variables) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Terms of a polynomial written as the engine prints it.

    Accepts sums like ``3*x^2*y - 1/2*z^3 + x``: a term is an optional
    sign, an optional rational coefficient and a product of powers.
    """
    index = {v: i for i, v in enumerate(variables)}
    terms = []
    for piece in text.replace(" - ", " + -").split(" + "):
        piece = piece.strip()
        sign = 1
        if piece.startswith("-"):
            sign, piece = -1, piece[1:]
        coeff = Fraction(1)
        exps = [0] * len(variables)
        for factor in piece.split("*"):
            if factor[:1].isdigit():
                coeff *= Fraction(factor)
                continue
            match = _FACTOR.match(factor)
            if match is None or match.group(1) not in index:
                raise ValueError(f"cannot read factor {factor!r} of {text!r}")
            exps[index[match.group(1)]] += int(match.group(2) or 1)
        terms.append((sign * coeff, tuple(exps)))
    return terms


def monomial(text: str, variables) -> tuple[int, ...]:
    """Exponent vector of a monomial string such as ``x^2*y``."""
    (coeff, exps), = parse_terms(text, variables)
    if coeff != 1:
        raise ValueError(f"{text!r} is not a monic monomial")
    return exps


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def in_monomial_ideal(exps, gens) -> bool:
    return any(divides(g, exps) for g in gens)


def quotient_dimension(n: int, gens) -> int:
    """Krull dimension of R/J for a monomial ideal J in n variables.

    The largest set of variables on which no generator is supported;
    -1 when J is the unit ideal.
    """
    supports = [frozenset(i for i, a in enumerate(g) if a) for g in gens]
    if frozenset() in supports:
        return -1
    for size in range(n, -1, -1):
        for kept in itertools.combinations(range(n), size):
            if not any(s <= set(kept) for s in supports):
                return size
    return -1  # pragma: no cover - the empty set always qualifies


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _det3(p, q, r) -> int:
    return _dot(p, _cross(q, r))


def _hull_2d(points):
    """Convex hull vertices in order (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def newton_multiplicity(gens) -> int:
    """e(I) = 3! * covolume of the Newton polyhedron, I of finite colength.

    The complement of conv(exponents) + R^3_{>=0} in the orthant is the
    union of the cones from the origin over the compact facets, so
    triangulating each compact facet into (p, q, r) gives
    e(I) = sum |det(p, q, r)| (Teissier).  Compact facets are the
    supporting planes through three exponents with a strictly positive
    normal.
    """
    pts = sorted(set(tuple(g) for g in gens))
    if any(len(p) != 3 for p in pts):
        raise ValueError("newton_multiplicity is written for three variables")
    for axis in range(3):
        if not any(all(p[i] == 0 for i in range(3) if i != axis) for p in pts):
            raise ValueError("the ideal does not have finite colength")
    facets = {}
    for p, q, r in itertools.combinations(pts, 3):
        normal = _cross(_sub(q, p), _sub(r, p))
        if all(c < 0 for c in normal):
            normal = tuple(-c for c in normal)
        if not all(c > 0 for c in normal):
            continue  # collinear, or a face that contains a ray
        g = math.gcd(*normal)
        normal = tuple(c // g for c in normal)
        level = _dot(normal, p)
        if all(_dot(normal, a) >= level for a in pts):
            facets[normal] = tuple(a for a in pts if _dot(normal, a) == level)
    total = 0
    for on_facet in facets.values():
        # the plane has a nonzero z-normal, so dropping z is injective
        lift = {(a[0], a[1]): a for a in on_facet}
        ring = [lift[v] for v in _hull_2d(lift)]
        for i in range(1, len(ring) - 1):
            total += abs(_det3(ring[0], ring[i], ring[i + 1]))
    return total


def _solve(columns, target):
    """Exact solution x of sum x_i * columns[i] = target, or None."""
    size = len(target)
    rows = [
        [Fraction(col[r]) for col in columns] + [Fraction(target[r])]
        for r in range(size)
    ]
    for c in range(size):
        pivot = next((r for r in range(c, size) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(size):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[r][size] / rows[r][r] for r in range(size)]


def in_newton_polyhedron(point, gens) -> bool:
    """Is point in conv(gens) + R^n_{>=0}?

    Homogenize: the point lies there exactly when (point, 1) is a
    nonnegative combination of the (g, 1) and the (e_j, 0).  Those
    vectors span R^(n+1), so by Caratheodory it is enough to try every
    basis among them.
    """
    if in_monomial_ideal(point, gens):
        return True
    n = len(point)
    vectors = [tuple(g) + (1,) for g in gens]
    vectors += [tuple(int(i == j) for i in range(n)) + (0,) for j in range(n)]
    target = tuple(point) + (1,)
    for basis in itertools.combinations(vectors, n + 1):
        x = _solve(basis, target)
        if x is not None and all(v >= 0 for v in x):
            return True
    return False


def formula_rows_uncovered(n: int, i_gens, k_gens) -> list[int]:
    """Rows k of verify-formula that the moving residual does not derive.

    Mirrors the documented scope of the residual term: a row needs no
    residual when k = 0, k >= dim M/IM or k < dim M - mu (mu the number
    of minimal generators of IM), and for K = 0 the row k = n - 2 is
    derived.  Every other row makes the verdict `lower-bound`.
    """
    d = quotient_dimension(n, k_gens)
    joined = _minimalize(list(i_gens) + list(k_gens))
    q = quotient_dimension(n, joined)
    mu = sum(1 for g in joined if not in_monomial_ideal(g, k_gens))
    return [
        k
        for k in range(1, d + 1)
        if k < q and k >= d - mu and (k_gens or k != d - 2)
    ]


def _minimalize(gens):
    gens = sorted(set(tuple(g) for g in gens), key=sum)
    kept = []
    for g in gens:
        if not any(divides(h, g) for h in kept):
            kept.append(g)
    return kept


def bezout_sequence(n: int, degrees, relation_degree: int | None) -> list[int]:
    """Sequence of I = (f, g) for a homogeneous regular sequence f, g.

    With K = 0 the only nonzero entry is c_(n-2) = deg f * deg g, the
    degree of the complete intersection; with K = (h), h regular modulo
    (f, g) and n = 3, I has finite colength on R/(h) and
    c_0 = deg f * deg g * deg h.
    """
    a, b = degrees
    if relation_degree is None:
        entries = [0] * (n + 1)
        entries[n - 2] = a * b
    else:
        entries = [0] * n
        entries[0] = a * b * relation_degree
    return entries


def _gens(document: dict, name: str):
    variables = document["ring"]["variables"]
    return [monomial(t, variables) for t in document["ideals"].get(name, [])]


def _check_sequence(document: dict, expect: dict, seq: dict) -> list[str]:
    """Entries of a compute or verify-formula report against the inputs."""
    entries = seq["entries"]
    n = len(document["ring"]["variables"])
    if "bezout" in expect:
        want = bezout_sequence(n, expect["bezout"], expect["relation_degree"])
        return [] if entries == want else [f"sequence {entries}, Bezout gives {want}"]
    i_gens, k_gens = _gens(document, "I"), _gens(document, "K")
    d = quotient_dimension(n, k_gens)
    q = quotient_dimension(n, i_gens + k_gens)
    problems = []
    if seq["dim"] != d or len(entries) != d + 1:
        problems.append(f"dim {seq['dim']} with {len(entries)} entries, expected {d}")
    if any(entries[q + 1 :]):
        problems.append(f"entries {entries} nonzero above dim M/IM = {q}")
    if q == 0 and not k_gens and n == 3:
        e = newton_multiplicity(i_gens)
        if entries[0] != e:
            problems.append(f"c_0 = {entries[0]}, Newton polyhedron gives {e}")
    return problems


def check_report(task: str, document: dict, expect: dict, report: dict):
    """(known_failure, problems) for one report that the CLI printed.

    `known_failure` marks the verify-formula rows the moving residual
    does not derive; `problems` lists every answer that disagrees with
    the independent computation.
    """
    if task == "compute":
        problems = _check_sequence(document, expect, report["sequence"])
        diag = report["diagnostics"]
        if not diag["consistent"]:
            problems.append("diagnostics are inconsistent")
        return False, problems
    if task == "verify-formula":
        formula = report["formula"]
        problems = _check_sequence(document, expect, formula["sequence"])
        verdict = formula["verdict"]
        if verdict == "verified":
            return False, problems
        if verdict == "lower-bound" and expect.get("lower_bound"):
            return True, problems
        return False, problems + [f"verdict {verdict}"]
    if task == "check-reduction":
        red = report["reduction"]
        i_gens = _gens(document, "I")
        member = all(in_newton_polyhedron(g, i_gens) for g in _gens(document, "J"))
        want = "reduction" if member else "not-reduction"
        problems = []
        if red["criterion_verdict"] != want:
            problems.append(f"verdict {red['criterion_verdict']}, Newton gives {want}")
        if not red["consistent"]:
            problems.append("routes inconsistent")
        if (red["reduced_at"] is not None) != member:
            problems.append(f"reduced_at {red['reduced_at']} on a {want}")
        return False, problems
    if task == "superficial":
        cand = report["candidate"]
        problems = []
        if report["revalidated"] is not True:
            problems.append("candidate did not revalidate")
        problems += [
            f"evidence {e['check']} failed" for e in cand["evidence"] if not e["passed"]
        ]
        variables = document["ring"]["variables"]
        i_gens = _gens(document, "I")
        m_i = [tuple(a + (j == v) for j, a in enumerate(g)) for g in i_gens for v in range(len(variables))]
        terms = [e for c, e in parse_terms(cand["element"], variables) if c]
        if not all(in_monomial_ideal(e, i_gens) for e in terms):
            problems.append(f"element {cand['element']} is not in I")
        if all(in_monomial_ideal(e, m_i) for e in terms):
            problems.append(f"element {cand['element']} lies in m*I")
        return False, problems
    raise ValueError(f"no check for task {task!r}")
