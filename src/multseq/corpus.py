"""Seeded random problem generation for property runs.

Documents come out as plain dicts in the schema-1 problem format, fully
determined by the seed.  Single-ideal problems enforce positive height
by construction: the ideal is padded with a pure power of every
variable appearing in a minimal prime of the relations, and draws still
contained in one of those primes are rejected.  Pair problems augment
the ideal with one extra monomial of the same degree; half the time the
extra generator is the exact midpoint of two generators, which lands in
the Newton region and so guarantees a genuine reduction pair.
"""

from __future__ import annotations

import random

from . import monomials as mo
from .errors import EngineLimit
from .poly import PolyRing

_VARIABLE_POOL = ("x", "y", "z", "w")
MAX_VARIABLES = 4
MAX_DEGREE = 5


def _ring(n_vars: int, characteristic: int) -> PolyRing:
    return PolyRing(_VARIABLE_POOL[:n_vars], characteristic)


def _random_exponent_of_degree(rng: random.Random, n_vars: int, degree: int):
    exponent = [0] * n_vars
    for _ in range(degree):
        exponent[rng.randrange(n_vars)] += 1
    return tuple(exponent)


def _random_exponent(rng: random.Random, n_vars: int, max_degree: int):
    return _random_exponent_of_degree(rng, n_vars, rng.randint(1, max_degree))


def _monomial_strings(ring: PolyRing, exponents) -> list[str]:
    lay = mo.layout(ring.arity)
    packed = mo.minimalize(lay, [mo.pack(lay, e) for e in exponents])
    return [str(ring.monomial(mo.unpack(lay, w))) for w in packed]


def _random_monomial_ideal(
    rng: random.Random, ring: PolyRing, max_degree: int, count: int
) -> list[tuple[int, ...]]:
    return [_random_exponent(rng, ring.arity, max_degree) for _ in range(count)]


def _random_relations(
    rng: random.Random, ring: PolyRing, max_degree: int, kind: str
) -> list[tuple[int, ...]]:
    if kind == "zero":
        return []
    if kind == "principal":
        return [_random_exponent(rng, ring.arity, max_degree)]
    # general monomial relations, kept away from finite length
    lay = mo.layout(ring.arity)
    for _ in range(64):
        exponents = _random_monomial_ideal(rng, ring, max_degree, rng.randint(1, 3))
        packed = mo.minimalize(lay, [mo.pack(lay, e) for e in exponents])
        if mo.dimension(lay, packed) >= 1:
            return [mo.unpack(lay, w) for w in packed]
    raise EngineLimit("could not draw positive-dimensional relations")


def _positive_height_ideal(
    rng: random.Random,
    ring: PolyRing,
    max_degree: int,
    relations: list[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """Random monomial ideal with positive height on R modulo the relations."""
    lay = mo.layout(ring.arity)
    k_packed = mo.minimalize(lay, [mo.pack(lay, e) for e in relations])
    primes = mo.minimal_primes(lay, k_packed) if k_packed else []
    pad_vars = sorted({v for p in primes for v in p})
    for _ in range(256):
        exponents = _random_monomial_ideal(rng, ring, max_degree, rng.randint(2, 4))
        for v in pad_vars:
            power = [0] * ring.arity
            power[v] = rng.randint(1, max_degree)
            exponents.append(tuple(power))
        if any(all(any(e[v] for v in p) for e in exponents) for p in primes):
            continue  # contained in a minimal prime of the relations
        return exponents
    raise EngineLimit("could not draw an ideal of positive height")


def _document(
    ring: PolyRing,
    label: str,
    ideals: dict[str, list[str]],
    equidimensional: bool,
) -> dict:
    return {
        "schema": 1,
        "label": label,
        "ring": {
            "variables": list(ring.variables),
            "characteristic": ring.characteristic,
            "order": "grevlex",
        },
        "ideals": ideals,
        "assertions": {"equidimensional": equidimensional},
    }


def _single_document(
    rng: random.Random,
    ring: PolyRing,
    max_degree: int,
    relations_kind: str,
    label: str,
) -> dict:
    kind = relations_kind
    if kind == "mixed":
        kind = rng.choice(("zero", "monomial"))
    relations = _random_relations(rng, ring, max_degree, kind)
    exponents = _positive_height_ideal(rng, ring, max_degree, relations)
    return _document(
        ring,
        label,
        {
            "I": _monomial_strings(ring, exponents),
            "K": _monomial_strings(ring, relations) if relations else [],
        },
        equidimensional=len(relations) <= 1,
    )


def _primary_document(
    rng: random.Random, ring: PolyRing, max_degree: int, label: str
) -> dict:
    exponents = []
    for v in range(ring.arity):
        power = [0] * ring.arity
        power[v] = rng.randint(1, max_degree)
        exponents.append(tuple(power))
    for _ in range(rng.randint(0, 2)):
        exponents.append(_random_exponent(rng, ring.arity, max_degree))
    return _document(
        ring, label, {"I": _monomial_strings(ring, exponents), "K": []}, True
    )


def _superficial_document(
    rng: random.Random, ring: PolyRing, max_degree: int, label: str
) -> dict:
    """Input of dimension at least two where a graded draw can work.

    All generators share one degree, so a random combination is both
    homogeneous and generic among the minimal generators, and no
    associated prime of the module contains the whole ideal; with mixed
    degrees or a swallowed ideal every homogeneous candidate would be
    rejected.
    """
    if ring.arity < 2:
        raise EngineLimit("superficial corpus needs at least two variables")
    lay = mo.layout(ring.arity)
    for _ in range(256):
        kind = rng.choice(("zero", "principal"))
        relations = _random_relations(rng, ring, max_degree, kind)
        if ring.arity - (1 if relations else 0) < 2:
            continue
        degree = rng.randint(1, max_degree)
        exponents = sorted(
            {
                _random_exponent_of_degree(rng, ring.arity, degree)
                for _ in range(rng.randint(1, 3))
            }
        )
        if relations:
            k_packed = mo.minimalize(lay, [mo.pack(lay, e) for e in relations])
            i_packed = mo.minimalize(lay, [mo.pack(lay, e) for e in exponents])
            if mo.is_unit(mo.saturate(lay, k_packed, i_packed)):
                continue  # the ideal would act nilpotently: I ⊆ √K
            relation_vars = {t for e in relations for t, a in enumerate(e) if a}
            if any(all(e[t] for e in exponents) for t in relation_vars):
                continue  # every element of I would be a zerodivisor
        return _document(
            ring,
            label,
            {
                "I": _monomial_strings(ring, exponents),
                "K": _monomial_strings(ring, relations) if relations else [],
            },
            equidimensional=True,
        )
    raise EngineLimit("could not draw a superficial-search input")


def _pair_document(
    rng: random.Random, ring: PolyRing, max_degree: int, label: str
) -> dict:
    """I next to J = I plus one extra generator of the same degree."""
    n = ring.arity
    if n < 2 or max_degree < 2:
        raise EngineLimit("pair corpus needs two variables and degree two")
    degree = rng.randint(2, max_degree)
    for _ in range(256):
        center = _random_exponent_of_degree(rng, n, degree)
        positive = [i for i, c in enumerate(center) if c]
        i_up = rng.randrange(n)
        i_down = rng.choice(positive)
        if i_up == i_down:
            continue
        shift = rng.randint(1, center[i_down])
        move = [0] * n
        move[i_up], move[i_down] = shift, -shift
        a = tuple(c + m for c, m in zip(center, move))
        b = tuple(c - m for c, m in zip(center, move))
        if min(b) < 0:
            continue
        gens = [a, b]
        for _ in range(rng.randint(0, 2)):
            gens.append(_random_exponent_of_degree(rng, n, degree))
        if rng.random() < 0.5:
            extra_gen = center  # midpoint: a guaranteed reduction pair
        else:
            extra_gen = _random_exponent_of_degree(rng, n, degree)
        small = _monomial_strings(ring, gens)
        large = _monomial_strings(ring, gens + [extra_gen])
        return _document(
            ring, label, {"I": small, "J": large, "K": []}, equidimensional=True
        )
    raise EngineLimit("could not draw a reduction pair")


def generate_corpus(
    count: int,
    n_vars: int = 3,
    max_degree: int = 4,
    seed: int = 0,
    mode: str = "single",
    characteristic: int = 0,
    relations: str = "mixed",
) -> list[dict]:
    """Deterministic list of schema-1 problem documents."""
    if not 1 <= n_vars <= MAX_VARIABLES:
        raise EngineLimit(f"n_vars must be between 1 and {MAX_VARIABLES}")
    if not 1 <= max_degree <= MAX_DEGREE:
        raise EngineLimit(f"max_degree must be between 1 and {MAX_DEGREE}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    builders = {
        "single": lambda rng, ring, label: _single_document(
            rng, ring, max_degree, relations, label
        ),
        "primary": lambda rng, ring, label: _primary_document(
            rng, ring, max_degree, label
        ),
        "pair": lambda rng, ring, label: _pair_document(rng, ring, max_degree, label),
        "superficial": lambda rng, ring, label: _superficial_document(
            rng, ring, max_degree, label
        ),
    }
    if mode not in builders:
        raise ValueError(f"unknown corpus mode {mode!r}")
    ring = _ring(n_vars, characteristic)
    rng = random.Random(seed)
    build = builders[mode]
    return [build(rng, ring, f"{mode}-{index}") for index in range(count)]

