"""Polynomial arithmetic, monomial orders, and the string grammar."""

import random
import time
from fractions import Fraction

import pytest

from conftest import poly, ring
from multseq import (
    ParseError,
    PolyRing,
    elimination_order,
    format_polynomial,
    grevlex,
    parse_polynomial,
)
from multseq.orders import MonomialOrder
from multseq.parse import parse_terms
from multseq.poly import _is_prime
from oracles import (
    compare,
    leading_coefficient,
    polynomial_power,
    reference_parse_terms,
)


class TestRing:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            ring("x", char=4)

    # 399165290221 * 798330580441, a strong pseudoprime to every prime
    # base up to 37: only the base 41 rejects it
    PSEUDOPRIME = 318665857834031151167461

    def test_primality_matches_a_sieve(self):
        n = 5000
        sieve = [False, False] + [True] * (n - 2)
        for i in range(2, n):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
        assert [_is_prime(i) for i in range(n)] == sieve
        assert not _is_prime(-7)

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to the first k prime bases, and
        # Carmichael numbers
        for p in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051,
                  self.PSEUDOPRIME, 561, 1105, 41041):
            assert not _is_prime(p), p

    def test_large_prime_characteristic_is_fast(self):
        started = time.perf_counter()
        for p in (2**61 - 1, 10**14 + 31, 2**31 - 1, 1000000007):
            assert _is_prime(p), p
            assert ring("x", char=p).characteristic == p
        assert time.perf_counter() - started < 2
        assert not _is_prime(1000000007 * 998244353)

    def test_rejects_a_product_of_two_large_primes(self):
        with pytest.raises(ValueError, match="prime"):
            ring("x", char=self.PSEUDOPRIME)

    def test_rejects_characteristics_past_the_exact_range(self):
        # 2^89 - 1 is prime, but past the range where the test is exact
        with pytest.raises(ValueError, match="below 3.3e24"):
            ring("x", char=2**89 - 1)

    def test_rejects_duplicate_variables(self):
        with pytest.raises(ValueError):
            PolyRing(("x", "x"), 0)

    def test_constant_and_variable(self):
        r = ring("x", "y")
        assert r.constant(3).is_constant()
        assert str(r.variable("y")) == "y"
        with pytest.raises(KeyError):
            r.variable("z")

    def test_characteristic_reduces_coefficients(self):
        r = ring("x", char=5)
        assert (r.constant(3) + r.constant(2)).is_zero()
        assert str(r.constant(7)) == "2"

    def test_fresh_names_avoid_the_variables(self):
        r = ring("g0", "g1_", "t")
        assert r.fresh_names("g", 3) == ("g0_", "g1", "g2")
        assert r.fresh_names("t", 1) == ("t0",)
        assert r.fresh_names("x", 0) == ()


class TestArithmetic:
    def test_ring_axioms_on_samples(self):
        r = ring("x", "y", "z")
        a = poly(r, "x^2 + 2*y*z - 1")
        b = poly(r, "3*x - z^3")
        c = poly(r, "y + 5")
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == r.zero()
        assert a * r.one() == a
        assert a * r.zero() == r.zero()

    def test_exact_fractions(self):
        r = ring("x")
        half = r.constant(Fraction(1, 2))
        third = r.constant(Fraction(1, 3))
        assert (half + third) == r.constant(Fraction(5, 6))

    def test_power(self):
        r = ring("x", "y")
        f = poly(r, "x + y")
        assert polynomial_power(f, 3) == poly(r, "x^3 + 3*x^2*y + 3*x*y^2 + y^3")
        assert polynomial_power(f, 0) == r.one()

    def test_cancellation_drops_terms(self):
        r = ring("x", "y")
        f = poly(r, "x^2 - y^2")
        g = poly(r, "x^2 + y^2")
        assert (f + g) == poly(r, "2*x^2")
        assert len((f + g).terms) == 1

    def test_homogeneous_detection(self):
        r = ring("x", "y")
        assert poly(r, "x^2 + x*y").is_homogeneous()
        assert not poly(r, "x^2 + x").is_homogeneous()
        assert r.zero().is_homogeneous()

    def test_total_degree(self):
        r = ring("x", "y")
        assert poly(r, "x^3*y + y^2").total_degree() == 4
        assert r.zero().total_degree() == -1

    def test_frobenius_in_char_p(self):
        r = ring("x", "y", char=5)
        f = poly(r, "x + y")
        assert polynomial_power(f, 5) == poly(r, "x^5 + y^5")

    def test_cross_ring_operations_rejected(self):
        a = poly(ring("x"), "x")
        b = poly(ring("y"), "y")
        with pytest.raises(ValueError):
            a + b


class TestOrders:
    def test_grevlex_classic_comparison(self):
        # degree first; then the variable latest in the list with the
        # smaller exponent wins
        o = grevlex()
        assert compare(o, (2, 0), (1, 1)) > 0
        assert compare(o, (1, 1), (0, 2)) > 0
        assert compare(o, (0, 3), (2, 0)) > 0
        assert compare(o, (1, 1, 0), (1, 0, 1)) > 0
        assert compare(o, (1, 1), (1, 1)) == 0

    def test_elimination_block_dominates(self):
        o = elimination_order(1)
        assert compare(o, (1, 0, 0), (0, 9, 9)) > 0
        assert compare(o, (1, 2, 0), (1, 0, 1)) > 0  # ties fall to grevlex

    def test_weight_dominates_then_grevlex(self):
        o = MonomialOrder(weights=(0, 0, 1))
        assert compare(o, (0, 0, 1), (5, 0, 0)) > 0
        assert compare(o, (2, 0, 1), (0, 1, 1)) > 0  # equal weight: grevlex
        assert compare(o, (1, 0, 0), (0, 0, 0)) > 0  # 1 stays the least
        assert MonomialOrder() == grevlex()
        with pytest.raises(ValueError):
            MonomialOrder(weights=(0, -1))
        with pytest.raises(ValueError):
            MonomialOrder(weights=[1, 1])
        with pytest.raises(ValueError):
            MonomialOrder(-1)

    def test_leading_monomial_respects_order(self):
        r = ring("x", "y")
        f = poly(r, "x^2*y + x*y^2")
        assert f.leading_monomial() == (2, 1)
        assert f.leading_monomial(elimination_order(1)) == (2, 1)

    def test_leading_monomial_follows_each_order(self):
        # the lead is remembered per polynomial; asking under another
        # order must not return the stale one
        r = ring("x", "y", "z")
        f = poly(r, "x + y^2 + z^3")
        for _ in range(2):
            assert f.leading_monomial(elimination_order(1)) == (1, 0, 0)
            assert f.leading_monomial() == (0, 0, 3)
            assert f.leading_monomial(MonomialOrder(weights=(0, 1, 0))) == (0, 2, 0)
            assert leading_coefficient(f, elimination_order(1)) == 1

    def test_multiplicative_invariance(self):
        # a well order on monomials must be stable under common factors
        o = grevlex()
        pairs = [((2, 0, 1), (1, 1, 1)), ((0, 3, 0), (1, 0, 1))]
        for a, b in pairs:
            s = compare(o, a, b)
            shifted = tuple(x + 2 for x in a), tuple(x + 2 for x in b)
            assert compare(o, *shifted) == s


class TestParsing:
    def test_round_trip_is_canonical(self):
        r = ring("x", "y", "z")
        for text in ["x^2 + 2*x*y - z", "1/2*x - 3", "x*y*z", "0", "-x + y"]:
            f = parse_polynomial(r, text)
            assert parse_polynomial(r, format_polynomial(f)) == f

    def test_terms_are_flat_products(self):
        r = ring("x", "y")
        assert poly(r, "x + y * x") == poly(r, "x + x*y")
        assert poly(r, "2x") == poly(r, "2*x")  # separators are optional
        assert poly(r, "3/4 x y^2") == poly(r, "3/4*x*y^2")
        assert poly(r, "x*x*x") == poly(r, "x^3")

    def test_no_parenthesized_expressions(self):
        r = ring("x", "y")
        with pytest.raises(ParseError):
            parse_polynomial(r, "(x + y)^2")

    def test_rational_coefficients(self):
        r = ring("x")
        f = poly(r, "2/3*x")
        assert leading_coefficient(f) == Fraction(2, 3)

    def test_error_offsets(self):
        r = ring("x", "y")
        for text, offset in [("x +", 3), ("x ^ y", 4), ("w", 0), ("x * * y", 4)]:
            with pytest.raises(ParseError) as err:
                parse_polynomial(r, text)
            assert err.value.offset == offset

    # what the parity strings are drawn from: the ring's names, a name
    # outside it, digits, every operator, a space and a character the
    # tokenizer rejects
    PIECES = ("x", "y", "z", "w", *"0123456789", *"+-*/^()", " ", "$")
    MESSAGES = (
        "unexpected character",
        "digit integer too long",
        "empty polynomial",
        "expected + or - before",
        "expected denominator digits",
        "zero denominator",
        "denominator vanishes in prime field",
        "expected variable after *",
        "unknown variable",
        "expected exponent digits",
        "expected coefficient or variable",
    )

    def test_one_loop_matches_the_reference_parser(self):
        def outcome(parse, r, text):
            try:
                return parse(r, text)
            except Exception as exc:
                return type(exc), str(exc), getattr(exc, "offset", None)

        rng = random.Random(0)
        texts = [
            "".join(rng.choices(self.PIECES, k=rng.randint(0, 8)))
            for _ in range(10_000)
        ]
        texts += ["7" * 5000 + "*x", "x^" + "7" * 5000]
        accepted, messages = 0, set()
        for char in (0, 2, 32003):
            r = ring("x", "y", "z", char=char)
            for text in texts:
                got = outcome(parse_terms, r, text)
                assert got == outcome(reference_parse_terms, r, text), (char, text)
                if isinstance(got, dict):
                    accepted += 1
                else:
                    messages.add(got[1])
        # the strings reach accepted text and every message of the grammar
        assert accepted > 1000
        for stem in self.MESSAGES:
            assert any(stem in message for message in messages), stem

    def test_unknown_variable_message_names_it(self):
        r = ring("x", "y")
        with pytest.raises(ParseError, match="q"):
            parse_polynomial(r, "x + q")

    def test_format_orders_terms_descending(self):
        r = ring("x", "y")
        assert format_polynomial(poly(r, "y^2 + x^2 + x*y")) == "x^2 + x*y + y^2"
        assert str(poly(r, "-x - 1")) == "-x - 1"
        assert str(r.zero()) == "0"

    def test_char_p_coefficients_normalize(self):
        r = ring("x", char=7)
        assert str(poly(r, "10*x")) == "3*x"
        assert poly(r, "7*x").is_zero()
