"""Division and basis computation.

Oracles: hand-checked reduced bases for small classics, plus the
defining properties (remainder freeness, ideal membership, s-polynomial
reduction) verified directly.  The basis kernel runs on packed words;
`divide` and `normal_form` stay on exponent tuples and, with the
`s_polynomial` and `compare` of `tests/oracles.py`, are the
independent route its results are checked with.
"""

import dataclasses
import heapq
import itertools
import random
from fractions import Fraction
from functools import cmp_to_key, partial

import pytest

from conftest import ideal, poly, ring
from multseq import (
    Ideal,
    PolyRing,
    Polynomial,
    elimination_order,
    grevlex,
    krull_dimension,
    normal_form,
)
from multseq import groebner, ideals
from multseq import monomials as mo
from multseq.errors import EngineLimit
from multseq.groebner import LANE_BITS, buchberger, divide
from multseq.orders import MonomialOrder
from oracles import (
    colon_ideal,
    compare,
    equals,
    leading_coefficient,
    power,
    s_polynomial,
)


def basis_of(r, *texts):
    return buchberger([poly(r, t) for t in texts], grevlex())


class TestNormalForm:
    def test_remainder_has_no_divisible_term(self):
        r = ring("x", "y")
        basis = [poly(r, "x^2 - y"), poly(r, "x*y - 1")]
        f = poly(r, "x^3*y^2 + x*y")
        rem = normal_form(f, basis)
        lts = [g.leading_monomial() for g in basis]
        for exps in rem.terms:
            assert not any(
                all(a >= b for a, b in zip(exps, lt)) for lt in lts
            )

    def test_difference_lies_in_ideal(self):
        r = ring("x", "y")
        gens = [poly(r, "x^2 - y^2"), poly(r, "x*y + y^2")]
        gb = buchberger(gens, grevlex())
        f = poly(r, "x^3 + y^3")
        rem = normal_form(f, gb)
        assert normal_form(f - rem, gb).is_zero()

    def test_zero_against_empty_basis(self):
        r = ring("x")
        f = poly(r, "x^2 + 1")
        assert normal_form(f, []) == f


def random_poly(rng, r, terms=3, top=2):
    out = {}
    for _ in range(rng.randrange(1, terms + 1)):
        e = tuple(rng.randrange(top + 1) for _ in range(r.arity))
        out[e] = r.coeff(rng.randrange(1, 7) * rng.choice((1, -1)))
    return Polynomial(r, out)


class TestDivide:
    @pytest.mark.parametrize("char", [0, 101])
    def test_quotients_and_remainder(self, char):
        rng = random.Random(19 + char)
        for arity in (2, 3, 4):
            names = ("x", "y", "z", "w")[:arity]
            for order in random_orders(rng, arity):
                r = PolyRing(names, char)
                divisors = [
                    random_poly(rng, r, terms=4, top=3)
                    for _ in range(rng.randrange(1, 4))
                ]
                divisors.insert(rng.randrange(len(divisors) + 1), r.zero())
                f = random_poly(rng, r, terms=8, top=5)
                quotients, rem = divide(f, divisors, order)
                total = rem
                for q, g in zip(quotients, divisors, strict=True):
                    total = total + q * g
                assert total == f
                assert all(q.is_zero() for q, g in zip(quotients, divisors) if g.is_zero())
                leads = [g.leading_monomial(order) for g in divisors if not g.is_zero()]
                for e in rem.terms:
                    assert not any(all(a <= b for a, b in zip(lt, e)) for lt in leads)
                assert normal_form(f, divisors, order) == rem

    @pytest.mark.parametrize("char", [0, 101])
    def test_colon_quotients_times_f_are_the_intersection(self, char):
        rng = random.Random(23 + char)
        r = ring("x", "y", "z", char=char)
        checked = 0
        for _ in range(6):
            a = Ideal(r, [random_poly(rng, r) for _ in range(2)])
            f = random_poly(rng, r, terms=2)
            if f.is_constant() or a.packed() is not None:
                continue
            meet = a.intersect(Ideal(r, [f]))
            assert [q * f for q in a.colon_poly(f).gens] == list(meet.gens)
            checked += 1
        assert checked >= 4

    def test_inexact_colon_division_fails_loudly(self, monkeypatch):
        r = ring("x", "y")
        f = poly(r, "x + y")
        monkeypatch.setattr(
            Ideal, "intersect", lambda self, other: ideal(r, "x^2 + y")
        )
        with pytest.raises(ArithmeticError, match="division witness failed"):
            ideal(r, "x^2 - y^2").colon_poly(f)


class TestSortKey:
    @staticmethod
    def orders(arity):
        return (
            grevlex(),
            elimination_order(1),
            elimination_order(2),
            # zero weights on a leading block, as for the x variables of
            # a bigraded presentation, and all-distinct weights
            MonomialOrder(weights=(0,) * (arity - 2) + (2, 1)),
            MonomialOrder(weights=tuple(range(arity))),
            # the order of the Rees presentation: t eliminated, then
            # the weight order with zero weights on the x variables
            elimination_order(1, (0,) * (arity - 3) + (2, 1)),
        )

    def test_sorting_by_key_agrees_with_compare(self):
        rng = random.Random(5)
        for arity in (3, 4, 5):
            for order in self.orders(arity):
                exps = set()
                while len(exps) < 60:
                    exps.add(tuple(rng.randrange(4) for _ in range(arity)))
                # equal-degree ties, and tuples that differ only in the
                # second block of either elimination order
                exps |= {(1, 1, 0) + (0,) * (arity - 3), (1, 0, 1) + (0,) * (arity - 3)}
                exps |= {(2, 1) + (1, 0, 0)[: arity - 2], (2, 1) + (0, 0, 1)[: arity - 2]}
                exps = sorted(exps)
                rng.shuffle(exps)
                by_key = sorted(exps, key=order.sort_key)
                assert by_key == sorted(exps, key=cmp_to_key(partial(compare, order)))
                for a, b in zip(by_key, by_key[1:]):
                    assert compare(order, a, b) < 0


def random_orders(rng, arity):
    """Orders of every shape on `arity` variables; weights include zeros."""
    return (
        grevlex(),
        elimination_order(1),
        elimination_order(2),
        MonomialOrder(weights=(0,) * arity),
        MonomialOrder(weights=tuple(rng.randrange(3) for _ in range(arity))),
        MonomialOrder(weights=tuple(rng.randrange(1, 6) for _ in range(arity))),
        elimination_order(1, tuple(rng.randrange(3) for _ in range(arity - 1))),
    )


class TestRows:
    """The rows of an order state it: row values order as `compare` does."""

    def test_rows_agree_with_compare_and_pack_additively(self):
        rng = random.Random(8)
        for arity in range(1, 6):
            for order in random_orders(rng, arity):
                rows = order.rows(arity)
                assert all(min(row) >= 0 and len(row) == arity for row in rows)
                lay = mo.layout(arity, rows, LANE_BITS)
                exps = [
                    tuple(rng.randrange(4) for _ in range(arity))
                    for _ in range(40)
                ]
                exps += [
                    tuple(rng.randrange(2) for _ in range(arity))
                    for _ in range(20)
                ]
                for a, b in zip(exps, exps[1:] + exps[:1]):
                    values = [
                        tuple(sum(r * x for r, x in zip(row, e)) for row in rows)
                        for e in (a, b)
                    ]
                    assert order.sort_key(a) == values[0]
                    want = compare(order, a, b)
                    assert (values[0] > values[1]) - (values[0] < values[1]) == want
                    wa, wb = mo.pack(lay, a), mo.pack(lay, b)
                    assert (wa > wb) - (wa < wb) == want
                    product = tuple(x + y for x, y in zip(a, b))
                    assert mo.pack(lay, product) == wa + wb
                    divides = all(x <= y for x, y in zip(a, b))
                    assert (not (wb - wa) & lay.guard) == divides

    def test_rows_by_kind(self):
        assert grevlex().rows(3) == ((1, 1, 1), (1, 1, 0), (1, 0, 0))
        assert elimination_order(1).rows(3) == ((1, 0, 0), (0, 1, 1), (0, 1, 0))
        assert MonomialOrder(weights=(0, 2)).rows(2) == ((0, 2), (1, 1), (1, 0))
        assert elimination_order(1, (0, 2)).rows(3) == (
            (1, 0, 0), (0, 0, 2), (0, 1, 1), (0, 1, 0)
        )

    @pytest.mark.parametrize("n, degrees", [(3, (2, 1)), (2, (1, 3, 3)), (4, (4,))])
    def test_weighted_elimination_is_the_weight_order_off_the_block(self, n, degrees):
        # the Rees basis and the weight basis share this order: on
        # monomials free of t it is the weight order of (0,) * n + degrees
        w = (0,) * n + degrees
        arity = n + len(degrees)
        order, weight = elimination_order(1, w), MonomialOrder(weights=w)
        rows = order.rows(1 + arity)
        assert rows[0] == (1,) + (0,) * arity
        assert rows[1:] == tuple((0,) + row for row in weight.rows(arity))
        rng = random.Random(arity)
        exps = [tuple(rng.randrange(4) for _ in range(arity)) for _ in range(40)]
        for a, b in zip(exps, exps[1:]):
            assert compare(order, (0,) + a, (0,) + b) == compare(weight, a, b)
            assert order.sort_key((0,) + a)[1:] == weight.sort_key(a)

    def test_weighted_elimination_is_a_frozen_order(self):
        order = elimination_order(1, [0, 2])
        assert type(order) is MonomialOrder
        assert order == elimination_order(1, (0, 2))
        assert hash(order) == hash(elimination_order(1, (0, 2)))
        assert order != elimination_order(1)
        assert order != MonomialOrder(weights=(0, 0, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            order.weights = (1, 1)
        with pytest.raises(ValueError):
            elimination_order(1, (0, -1))
        with pytest.raises(ValueError):
            order.rows(4)  # two weights for a trailing block of three
        with pytest.raises(ValueError):
            order.sort_key((1, 0, 0, 0))


class TestLaneRange:
    """A lane that would reach its guard bit is an engine limit."""

    TOP = 1 << (LANE_BITS - 1)

    @pytest.mark.parametrize(
        "order, gens",
        [
            # a generator past the lanes
            (grevlex(), [f"x^{TOP} - y"]),
            # two leads of degree 2^30 + 1 whose lcm passes 2^31
            (grevlex(), [f"x^{TOP // 2}*y + z", f"y*z^{TOP // 2} + x"]),
            # the lead x has weight 1, so the tail y^(2^30 + 1) times
            # x^(2^30 - 1) in the s-polynomial has degree 2^31
            (
                MonomialOrder(weights=(1, 0, 0)),
                [f"x - y^{TOP // 2 + 1}", f"x^{TOP // 2} - z"],
            ),
            # x leads by elimination, and z times the tail y^(2^31 - 1)
            # passes the degree lane; that product is the whole
            # s-polynomial and the only new element, whose pairs are
            # coprime or of two terms, so only the check on the product
            # sees it
            (elimination_order(1), [f"x - y^{TOP - 1}", "x*z"]),
        ],
    )
    def test_overflow_raises(self, order, gens):
        r = ring("x", "y", "z")
        with pytest.raises(EngineLimit):
            buchberger([poly(r, g) for g in gens], order)

    def test_largest_lane_value_computes(self):
        # y^top fills the degree lane; the pair of y^top with the first
        # generator has an lcm past the lanes, but coprime leads skip it
        r = ring("x", "y")
        top = self.TOP - 1
        gens = [poly(r, f"x^{top - 1} + y^{top - 1}"), poly(r, "x*y")]
        got = buchberger(gens, grevlex())
        assert [str(g) for g in got] == [
            f"y^{top}", f"x^{top - 1} + y^{top - 1}", "x*y"
        ]


class TestBasisLimit:
    def test_basis_past_the_limit_is_an_engine_limit(self, monkeypatch):
        # two generators whose reduced basis has three elements
        r = ring("x", "y", "z")
        gens = [poly(r, "x*y - z^2"), poly(r, "x^2 - y^2")]
        assert [str(g) for g in buchberger(gens, grevlex())] == [
            "y^3 - x*z^2", "x^2 - y^2", "x*y - z^2"
        ]
        monkeypatch.setattr(groebner, "DEFAULT_BASIS_LIMIT", 2)
        with pytest.raises(EngineLimit, match="basis grew past 2 elements"):
            buchberger(gens, grevlex())


class TestRandomBases:
    """Seeded bases, checked through the tuple routes only."""

    @pytest.mark.parametrize("char", [0, 101])
    def test_reduced_and_every_s_polynomial_reduces_to_zero(self, char):
        rng = random.Random(3 + char)
        for arity in (2, 3, 4):
            names = ("x", "y", "z", "w")[:arity]
            for order in random_orders(rng, arity):
                r = PolyRing(names, char)
                gens = [random_poly(rng, r) for _ in range(rng.randrange(2, 4))]
                gb = buchberger(gens, order)
                leads = [g.leading_monomial(order) for g in gb]
                for g, lead in zip(gb, leads):
                    assert leading_coefficient(g, order) == 1
                    for e in g.terms:
                        divisible = [
                            all(x <= y for x, y in zip(other, e)) for other in leads
                        ]
                        assert divisible.count(True) == (1 if e == lead else 0)
                for a, b in zip(leads, leads[1:]):
                    assert compare(order, a, b) > 0
                for i, f in enumerate(gb):
                    for g in gb[:i]:
                        s = s_polynomial(f, g, order)
                        assert normal_form(s, gb, order).is_zero()
                for f in gens:
                    assert normal_form(f, gb, order).is_zero()


def reference_leads(gens, order):
    """Minimal leads of a basis built by reducing every pair.

    No coprime, monomial or chain criterion: every pair, old or new, is
    reduced through the tuple routes `s_polynomial` and `normal_form`,
    the pair of smallest lcm first.  Ascending in `order`.
    """
    basis = [f for f in gens if not f.is_zero()]
    leads = [f.leading_monomial(order) for f in basis]
    heap = []

    def push(i, j):
        lcm = tuple(map(max, leads[i], leads[j]))
        heapq.heappush(heap, (order.sort_key(lcm), i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)
    while heap:
        _, i, j = heapq.heappop(heap)
        h = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if not h.is_zero():
            basis.append(h)
            leads.append(h.leading_monomial(order))
            for k in range(len(basis) - 1):
                push(k, len(basis) - 1)
    minimal = [
        a for a in set(leads)
        if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in leads)
    ]
    return sorted(minimal, key=order.sort_key)


class TestPairCriteria:
    """Pairs dropped at push, or in a finished prefix, never drop a lead."""

    @staticmethod
    def binomial(rng, r):
        a = tuple(rng.randrange(3) for _ in range(r.arity))
        b = tuple(rng.randrange(3) for _ in range(r.arity))
        c = rng.randrange(1, 6) * rng.choice((1, -1))
        return Polynomial(r, {a: r.coeff(1), b: r.coeff(c)} if a != b else {a: r.coeff(1)})

    @staticmethod
    def dense(rng, r):
        terms = {}
        for _ in range(rng.randrange(2, 4)):
            e = tuple(rng.randrange(2) for _ in range(r.arity))
            terms[e] = r.coeff(rng.randrange(1, 9) * rng.choice((1, -1)))
        return Polynomial(r, terms)

    @staticmethod
    def kernel_leads(gens, order, split=None):
        """Leads from `pair_loop`; with `split`, the first `split`
        generators are completed first and kept as a finished prefix."""
        r = gens[0].ring
        basis = groebner._Packed(r.arity, r.characteristic, order)
        head = gens if split is None else gens[:split]
        for f in head:
            basis.append(basis.pack(f.terms))
        kept = groebner.pair_loop(basis)
        if split is not None:
            basis.keep(kept)
            done = len(basis.leads)
            for f in gens[split:]:
                basis.append(basis.pack(f.terms))
            kept = groebner.pair_loop(basis, None, done)
        return [basis.exps[k] for k in kept]

    @pytest.mark.parametrize("char", [0, 32003])
    @pytest.mark.parametrize("shape", ["binomial", "dense"])
    def test_kept_leads_equal_the_reference(self, char, shape):
        rng = random.Random(char + len(shape))
        make = getattr(self, shape)
        for arity in (2, 3, 4):
            names = ("x", "y", "z", "w")[:arity]
            orders = (
                grevlex(),
                elimination_order(1),
                MonomialOrder(weights=tuple(rng.randrange(3) for _ in range(arity))),
                elimination_order(1, tuple(rng.randrange(1, 4) for _ in range(arity - 1))),
            )
            for order in orders:
                r = PolyRing(names, char)
                for _ in range(4):
                    gens = [make(rng, r) for _ in range(rng.randrange(2, 4))]
                    want = reference_leads(gens, order)
                    assert self.kernel_leads(gens, order) == want, (gens, order)
                    split = rng.randrange(1, len(gens))
                    assert self.kernel_leads(gens, order, split) == want, (gens, order)


def rees_presentation(gens):
    """Relations g_i - t*f_i in (t, x, y, z, g...) under elimination_order(1)."""
    base = ring("x", "y", "z")
    tags = tuple(f"g{i}" for i in range(len(gens)))
    ext = PolyRing(("t",) + base.variables + tags, 0)
    t = ext.variable("t")
    pad = (0,) * len(tags)
    relations = []
    for tag, text in zip(tags, gens):
        f = Polynomial(ext, {(0,) + e + pad: c for e, c in poly(base, text).terms.items()})
        relations.append(ext.variable(tag) - t * f)
    return ext, relations


class TestBuchberger:
    def test_classic_twisted_cubic_eliminates_t(self):
        r = ring("t", "x", "y")
        gens = [poly(r, "t^2 - x"), poly(r, "t^3 - y")]
        gb = buchberger(gens, elimination_order(1))
        # the relation x^3 = y^2 must be discovered, and the t-free
        # elements generate the elimination ideal (x^3 - y^2)
        assert [g for g in gb if not any(e[0] for e in g.terms)] == [
            poly(r, "x^3 - y^2")
        ]

    def test_sylvester_style_example(self):
        # Cox-Little-O'Shea staple: (x^2+y^2-1, x*y-1) under grevlex
        r = ring("x", "y")
        gb = basis_of(r, "x^2 + y^2 - 1", "x*y - 1")
        f = poly(r, "x^3 - x + y")  # x*(x^2-1) + y = x*(- y^2)+y ... in ideal?
        # membership decided consistently with a direct rewrite
        expected = normal_form(f, gb)
        assert normal_form(expected, gb) == expected

    def test_every_s_polynomial_reduces_to_zero(self):
        r = ring("x", "y", "z")
        gb = basis_of(r, "x*y - z^2", "y^2 - x*z", "x^2 - y*z")
        for i, f in enumerate(gb):
            for g in gb[:i]:
                assert normal_form(s_polynomial(f, g, grevlex()), gb).is_zero()

    def test_generators_reduce_to_zero(self):
        r = ring("x", "y")
        gens = ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"]
        gb = basis_of(r, *gens)
        for t in gens:
            assert normal_form(poly(r, t), gb).is_zero()

    def test_monomial_input_passes_through(self):
        r = ring("x", "y")
        gb = basis_of(r, "x^2", "x*y", "x^3")
        assert sorted(str(g) for g in gb) == ["x*y", "x^2"]

    def test_unit_ideal_collapses(self):
        r = ring("x", "y")
        gb = basis_of(r, "x", "x + 1")
        assert [str(g) for g in gb] == ["1"]

    def test_random_membership_agreement(self):
        # f in (gens) iff nf(f) == 0; certified by explicit combinations
        rng = random.Random(11)
        r = ring("x", "y")
        gens = [poly(r, "x^2 - y"), poly(r, "y^2 - x")]
        gb = buchberger(gens, grevlex())
        for _ in range(20):
            coeffs = [
                r.monomial(
                    (rng.randrange(3), rng.randrange(3)), rng.randrange(-2, 3)
                )
                for _ in gens
            ]
            f = sum(
                (c * g for c, g in zip(coeffs, gens)), r.zero()
            )
            assert normal_form(f, gb).is_zero()

    @pytest.mark.parametrize(
        "gens, lead_ones",
        [
            # binomials: the kernel never leaves the integers
            (("x^2 - y*z", "y^2 - x*z"), True),
            # lead coefficients 2 and 3 divide the tails
            (("2*x^2 - 3*y*z", "3*y^2 - 2*x*z"), False),
        ],
    )
    def test_rational_coefficients_are_fractions(self, gens, lead_ones):
        r = ring("x", "y", "z")
        gb = basis_of(r, *gens)
        coefficients = [c for g in gb for c in g.terms.values()]
        assert all(type(c) is Fraction for c in coefficients)
        assert all(c.denominator == 1 for c in coefficients) == lead_ones
        for text in gens:
            assert normal_form(poly(r, text), gb).is_zero()

    def test_char_p_basis(self):
        r = ring("x", "y", char=2)
        gb = basis_of(r, "x^2 + y^2", "x*y")
        # (x+y)^2 = x^2+y^2 in char 2, so the ideal is (x^2+y^2, xy) = ((x+y)^2, xy)
        assert normal_form(poly(r, "x^2 + y^2"), gb).is_zero()
        assert normal_form(poly(r, "y^3"), gb).is_zero()


class TestReducedBasis:
    @pytest.mark.parametrize(
        "gens",
        [("x^2", "x*y", "y^2", "z^3"), ("x^2 - y*z", "x*y + z^2", "y^3")],
    )
    def test_rees_basis_independent_of_generator_order(self, gens):
        ext, relations = rees_presentation(gens)
        order = elimination_order(1)
        # deg t = deg x = 1, deg g_i = 1 + deg f_i: degree-first pairs
        grading = (1, 1, 1, 1) + tuple(
            1 + poly(ring("x", "y", "z"), f).total_degree() for f in gens
        )
        expected = buchberger(relations, order)
        assert any(any(e[0] for e in g.terms) for g in expected)
        assert any(not any(e[0] for e in g.terms) for g in expected)
        for perm in itertools.permutations(relations):
            assert buchberger(list(perm), order) == expected
            assert buchberger(list(perm), order, grading) == expected
        with pytest.raises(ValueError):
            buchberger(relations, order, grading[:-1])

    def test_reduced_basis_is_canonical(self):
        r = ring("x", "y")
        a = basis_of(r, "x^2 - y^2", "x*y + y^2")
        b = basis_of(r, "x*y + y^2", "x^2 - y^2", "x^2 + x*y")
        assert a == b

    def test_monic_and_self_reduced(self):
        r = ring("x", "y")
        gb = basis_of(r, "2*x^2 - 2*y", "3*x*y - 3")
        for i, g in enumerate(gb):
            assert leading_coefficient(g) == 1
            rest = gb[:i] + gb[i + 1 :]
            lts = [h.leading_monomial() for h in rest]
            for exps in g.terms:
                assert not any(
                    all(a >= b for a, b in zip(exps, lt)) for lt in lts
                )


class TestIdealOps:
    def test_sum_product_power(self):
        r = ring("x", "y")
        a = ideal(r, "x^2")
        b = ideal(r, "y^2")
        assert equals(a.add(b), ideal(r, "x^2", "y^2"))
        assert equals(a.multiply(b), ideal(r, "x^2*y^2"))
        assert equals(power(a, 3), ideal(r, "x^6"))
        assert power(a, 0).contains(r.one())

    def test_intersection_principal_case(self):
        r = ring("x", "y")
        a = ideal(r, "x")
        b = ideal(r, "y")
        assert equals(a.intersect(b), ideal(r, "x*y"))

    def test_intersection_general(self):
        r = ring("x", "y")
        a = ideal(r, "x^2", "y")
        b = ideal(r, "x")
        # (x^2, y) cap (x) = x*((x, y)) since (x^2,y):x = (x,y)... check both inclusions
        got = a.intersect(b)
        assert equals(got, ideal(r, "x^2", "x*y"))

    def test_colon_by_polynomial(self):
        r = ring("x", "y")
        a = ideal(r, "x*y", "y^2")
        assert equals(a.colon_poly(poly(r, "y")), ideal(r, "x", "y"))

    def test_colon_by_ideal(self):
        r = ring("x", "y")
        a = ideal(r, "x^2*y", "x*y^2")
        b = ideal(r, "x", "y")
        assert equals(colon_ideal(a, b), ideal(r, "x*y"))

    def test_colon_untwists_multiplication(self):
        r = ring("x", "y", "z")
        a = ideal(r, "x^2 - y*z", "z^3")
        f = poly(r, "x + y")
        assert equals(a.multiply(ideal(r, str(f))).colon_poly(f), a)

    def test_one_basis_per_ideal(self, monkeypatch):
        # membership of each generator of a smaller ideal, properness,
        # the initial ideal, dimension and equality all read the one
        # grevlex basis the ideal keeps
        calls = []

        def counted(gens, order, grading=None):
            calls.append(order)
            return buchberger(gens, order, grading)

        monkeypatch.setattr(ideals, "buchberger", counted)
        r = ring("x", "y", "z")
        a = ideal(r, "x^2 - y*z", "y^2 - x*z")
        small = ideal(r, "x^2 - y*z", "x*y^2 - x^2*z", "z*x^2 - y*z^2")
        assert small.subset_of(a)
        assert a.is_proper()
        assert a.initial_ideal().packed() is not None
        assert krull_dimension(a) == 1
        assert equals(a, a)
        assert calls == [grevlex()]

    def test_containment_and_equality(self):
        r = ring("x", "y")
        small = ideal(r, "x^2", "y^2")
        big = ideal(r, "x", "y")
        assert small.subset_of(big)
        assert not big.subset_of(small)
        assert equals(big, ideal(r, "y", "x + y"))

    def test_initial_ideal_nontrivial(self):
        r = ring("x", "y")
        a = ideal(r, "x^2 + y^2", "x*y")
        init = a.initial_ideal()
        # y^3 = y*(x^2+y^2) - x*(x*y) joins the leading terms
        assert equals(init, ideal(r, "x^2", "x*y", "y^3"))

    def test_packed_fast_path_matches_general(self):
        r = ring("x", "y", "z")
        mono = ideal(r, "x^2", "y*z")
        alias = ideal(r, "x^2", "y*z", "x^2 + y*z")  # same ideal, non-minimal gens
        assert equals(mono.intersect(ideal(r, "z")), alias.intersect(ideal(r, "z")))
        assert equals(mono.colon_poly(poly(r, "z")), alias.colon_poly(poly(r, "z")))
        assert equals(power(mono, 2), power(alias, 2))

    def test_packed_ideal_builds_gens_on_first_read(self, monkeypatch):
        r = ring("x", "y", "z")
        lay = mo.layout(3)
        built = []
        monomial = PolyRing.monomial

        def counted(self, *args, **kwargs):
            built.append(args)
            return monomial(self, *args, **kwargs)

        zero, unit = (), (0,)
        mixed = mo.minimalize(
            lay, [mo.pack(lay, e) for e in ((2, 0, 0), (1, 1, 0), (0, 0, 3), (1, 0, 2))]
        )
        for words in (zero, unit, mixed):
            eager = Ideal(r, [r.monomial(mo.unpack(lay, w)) for w in words])
            monkeypatch.setattr(PolyRing, "monomial", counted)
            lazy = Ideal.from_packed(r, words)
            assert lazy.is_zero() == eager.is_zero() == (words == zero)
            assert lazy.is_homogeneous() and eager.is_homogeneous()
            assert lazy.packed() == eager.packed() == words
            assert equals(lazy, eager) and equals(eager, lazy)
            assert built == []
            monkeypatch.setattr(PolyRing, "monomial", monomial)
            assert lazy.gens == eager.gens
            assert repr(lazy) == repr(eager)
            assert lazy.groebner() == eager.groebner()

    @pytest.mark.parametrize("char", [0, 101])
    def test_monomial_normal_form_is_the_division_remainder(self, char, monkeypatch):
        # the term-by-term route of a monomial ideal against the
        # remainder by its reduced basis; it runs no Buchberger
        calls = []

        def counted(gens, order, grading=None):
            calls.append(order)
            return buchberger(gens, order, grading)

        monkeypatch.setattr(ideals, "buchberger", counted)
        rng = random.Random(29 + char)
        cases = []
        for arity in (2, 3, 4):
            names = ("x", "y", "z", "w")[:arity]
            for order in random_orders(rng, arity):
                r = PolyRing(names, char)
                gens = [
                    r.monomial(
                        tuple(rng.randrange(4) for _ in names), rng.randrange(1, 5)
                    )
                    for _ in range(rng.randrange(1, 5))
                ]
                a = Ideal(r, gens)
                for _ in range(4):
                    f = random_poly(rng, r, terms=6, top=5)
                    if rng.random() < 0.5:  # a combination of the generators
                        f = sum((random_poly(rng, r) * g for g in gens), r.zero())
                    cases.append((a, order, f, a.normal_form(f), a.contains(f)))
        assert calls == []
        members = 0
        for a, order, f, nf, held in cases:
            expected = normal_form(f, buchberger(a.gens, order), order)
            assert nf == expected
            assert held == expected.is_zero()
            members += held
        assert 0 < members < len(cases)

    def test_membership_past_the_packed_range(self, monkeypatch):
        monkeypatch.setattr(ideals, "buchberger", None)
        r = ring("x", "y")
        big = mo.MAX_EXPONENT * 2
        a = ideal(r, "x", "y^2")
        assert a.contains(poly(r, f"x^{big}"))
        assert not a.contains(poly(r, f"x^{big} + y"))
        assert a.normal_form(poly(r, f"x^{big} + y")) == poly(r, "y")
        b = ideal(r, "x*y", "y^2")
        assert not b.contains(poly(r, f"x^{big}"))
        assert b.contains(poly(r, f"x^{big}*y + 3*y^{big}"))

    def test_zero_ideal_edge_cases(self):
        r = ring("x")
        z = ideal(r)
        assert z.is_zero()
        assert equals(z.add(ideal(r, "x")), ideal(r, "x"))
        assert z.multiply(ideal(r, "x")).is_zero()
        assert not z.contains(r.one())
