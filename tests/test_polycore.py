from __future__ import annotations

import random
from fractions import Fraction

import pytest

from copoly2d.polycore import (
    NEG_INF,
    BivariatePoly as P,
    RationalFn,
    ZeroDenominatorError,
    parse_poly,
)


def _rand_poly(rng, deg=3, nterms=5):
    terms = {}
    for _ in range(nterms):
        i = rng.randrange(deg + 1)
        j = rng.randrange(deg + 1 - i)
        terms[(i, j)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return P.from_terms(terms)


def test_add_cancellation():
    p = parse_poly("x + y")
    q = parse_poly("x - y")
    assert p + q == parse_poly("2*x")
    assert p - p == P.zero()
    assert (p + P.zero()) == p


def test_mul_hand_values():
    assert parse_poly("x+y") * parse_poly("x-y") == parse_poly("x^2 - y^2")
    got = parse_poly("x + 2*y") * parse_poly("3*x + 1/2*y")
    assert got == parse_poly("3*x^2 + 13/2*x*y + y^2")
    p = _rand_poly(random.Random(7))
    assert p * P.one() == p
    assert p * P.zero() == P.zero()


def test_ring_axioms_random():
    rng = random.Random(20260818)
    for _ in range(25):
        a, b, c = (_rand_poly(rng) for _ in range(3))
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_degree_law():
    rng = random.Random(5)
    assert P.zero().total_degree == NEG_INF
    assert P.const(4).total_degree == 0
    for _ in range(20):
        a, b = _rand_poly(rng), _rand_poly(rng)
        if a.is_zero or b.is_zero:
            continue
        assert (a * b).total_degree == a.total_degree + b.total_degree


def test_derivatives():
    p = parse_poly("x^3*y^2")
    assert p.dx() == parse_poly("3*x^2*y^2")
    assert p.dy() == parse_poly("2*x^3*y")
    assert P.const(5).dx() == P.zero()


def test_leibniz_and_mixed_partials():
    rng = random.Random(99)
    for _ in range(25):
        a, b = _rand_poly(rng), _rand_poly(rng)
        assert (a * b).dx() == a.dx() * b + a * b.dx()
        assert (a * b).dy() == a.dy() * b + a * b.dy()
        assert a.dx().dy() == a.dy().dx()


def test_eval_homomorphism():
    rng = random.Random(3)
    for _ in range(10):
        a, b = _rand_poly(rng), _rand_poly(rng)
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert (a * b).eval_exact(x0, y0) == a.eval_exact(x0, y0) * b.eval_exact(x0, y0)
        assert (a + b).eval_exact(x0, y0) == a.eval_exact(x0, y0) + b.eval_exact(x0, y0)


def test_parse_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        p = _rand_poly(rng)
        assert parse_poly(p.to_text()) == p
    assert parse_poly("  -3/2*x^2*y + x - 1 ") == P.from_terms(
        {(2, 1): Fraction(-3, 2), (1, 0): 1, (0, 0): -1}
    )
    assert parse_poly("0.5*y") == P.monomial(0, 1, Fraction(1, 2))
    assert parse_poly("x**2") == P.monomial(2, 0)


def test_parse_rejects_garbage():
    for bad in ("", "x^", "z + 1", "2**x", "x^-1", "1//2"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_pow():
    assert parse_poly("x+y") ** 2 == parse_poly("x^2 + 2*x*y + y^2")
    assert parse_poly("x") ** 0 == P.one()


def test_rational_equality_cross_multiplies():
    x, y = P.x(), P.y()
    assert RationalFn(2 * x, P.const(2)) == RationalFn(x)
    assert RationalFn(x * (x + 1), y * (x + 1)) == RationalFn(x, y)
    assert RationalFn(x, y) != RationalFn(y, x)
    assert repr(RationalFn(x)) == "RationalFn('x')"
    assert repr(RationalFn(x, y)) == "RationalFn('x', 'y')"
    with pytest.raises(AttributeError):
        RationalFn(x).num = y


def test_rational_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        RationalFn(P.one(), P.zero())


def test_immutability():
    p = P.one()
    with pytest.raises(AttributeError):
        p.terms = {}
