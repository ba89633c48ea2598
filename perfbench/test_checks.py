"""Hand-known cases for the benchmark's independent answer checks.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402

XYZ = ("x", "y", "z")


def test_newton_multiplicity_of_pure_powers_is_the_product():
    for a, b, c in [(1, 1, 1), (2, 3, 5), (4, 1, 3)]:
        assert checks.newton_multiplicity([(a, 0, 0), (0, b, 0), (0, 0, c)]) == a * b * c


def test_newton_multiplicity_of_maximal_ideal_powers_is_k_cubed():
    for k in range(1, 5):
        gens = [
            (i, j, k - i - j) for i in range(k + 1) for j in range(k + 1 - i)
        ]
        assert checks.newton_multiplicity(gens) == k ** 3


def test_newton_multiplicity_ignores_generators_above_the_polyhedron():
    # x*y*z lies above the facet of (x^2, y^2, z^2): e stays 8
    assert checks.newton_multiplicity([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]) == 8
    # x*y lies on it (the midpoint of x^2 and y^2): e stays 8
    assert checks.newton_multiplicity([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)]) == 8


def test_newton_multiplicity_with_several_facets():
    # x*y*z lies below the plane of x^4, y^4, z^4 and splits it into three
    # facets, each a triangle with |det| = 16
    assert checks.newton_multiplicity([(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)]) == 48
    # (x, y, z)^2 in the y, z directions only: e(x, (y, z)^2) = 1 * 4
    assert checks.newton_multiplicity([(1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1)]) == 4


def test_newton_membership():
    square = [(2, 0), (0, 2)]
    assert checks.in_newton_polyhedron((1, 1), square)
    assert not checks.in_newton_polyhedron((1, 0), square)
    assert checks.in_newton_polyhedron((0, 3), square)
    cube = [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    assert checks.in_newton_polyhedron((1, 1, 1), cube)
    assert not checks.in_newton_polyhedron((1, 1, 0), cube)
    assert checks.in_newton_polyhedron((2, 1, 0), cube)


def test_quotient_dimension():
    assert checks.quotient_dimension(3, []) == 3
    assert checks.quotient_dimension(3, [(1, 0, 0)]) == 2
    assert checks.quotient_dimension(3, [(1, 1, 0)]) == 2
    assert checks.quotient_dimension(3, [(1, 0, 0), (0, 1, 0)]) == 1
    assert checks.quotient_dimension(3, [(2, 0, 0), (0, 3, 0), (0, 0, 1)]) == 0
    assert checks.quotient_dimension(3, [(0, 0, 0)]) == -1


def test_parse_terms_reads_the_engine_format():
    assert checks.parse_terms("3*x^2*y - 1/2*z^3 + x", XYZ) == [
        (3, (2, 1, 0)),
        (checks.Fraction(-1, 2), (0, 0, 3)),
        (1, (1, 0, 0)),
    ]
    assert checks.monomial("x*z^4", XYZ) == (1, 0, 4)


def test_bezout_sequences():
    assert checks.bezout_sequence(3, (2, 3), None) == [0, 6, 0, 0]
    assert checks.bezout_sequence(3, (2, 3), 2) == [12, 0, 0]


def test_uncovered_rows_match_the_documented_examples():
    xyzw = ("x", "y", "z", "w")

    def rows(i_gens, k_gens=()):
        return checks.formula_rows_uncovered(
            4,
            [checks.monomial(t, xyzw) for t in i_gens],
            [checks.monomial(t, xyzw) for t in k_gens],
        )

    assert rows(["x*w", "y*w", "z*w"]) == [1]
    assert rows(["z*w", "y^2*z", "y*z^2", "x^2*y*w"]) == [1]
    assert rows(["w", "z^2"], ["y*z*w", "z*w^2", "x^2*z*w"]) == [1]
    assert rows(["x*z", "y*z"]) == []


def test_check_report_catches_a_wrong_primary_multiplicity():
    document = {
        "label": "p",
        "ring": {"variables": list(XYZ)},
        "ideals": {"I": ["x^2", "y^3", "z"], "K": []},
    }
    good = {"sequence": {"entries": [6, 0, 0, 0], "dim": 3},
            "diagnostics": {"consistent": True}}
    assert checks.check_report("compute", document, {}, good) == (False, [])
    bad = {"sequence": {"entries": [5, 0, 0, 0], "dim": 3},
           "diagnostics": {"consistent": True}}
    assert checks.check_report("compute", document, {}, bad)[1]


def test_renaming_keeps_the_positions():
    document = {
        "label": "p",
        "ring": {"variables": list(XYZ)},
        "ideals": {"I": ["x^2*y", "z"], "K": []},
    }
    moved = workloads.rename_document(document, ["q", "b", "k"])
    assert moved["ring"]["variables"] == ["q", "b", "k"]
    assert moved["ideals"] == {"I": ["q^2*b", "k"], "K": []}
    assert document["ring"]["variables"] == list(XYZ)
