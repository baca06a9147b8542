"""The monic systems of the built-in families against closed forms.

Each closed form builds P_n from classical one-variable recurrences,
reading no moment, so it checks build_monic (which reads nothing but
the moments) from outside.  The monic P_n is unique: its entry k is
x^(n-k) y^k plus lower degree, orthogonal to every polynomial of lower
degree.

- Product weights: P_n[k] = p_(n-k)(x) q_k(y), with p and q the monic
  orthogonal polynomials of the two one-variable factors.
- The triangle x^a y^b (1-x-y)^c: the Proriol-Koornwinder polynomials
  Q_n[k] = P_(n-k)^(2k+b+c+1, a)(2x-1) (1-x)^k P_k^(c,b)(2y/(1-x) - 1)
  are orthogonal to lower degree (Koornwinder 1975; Dunkl-Xu 2014,
  section 2.4), and P_n is the inverse of their leading block times
  them.  Q_n[k] holds y^i only for i <= k, so the block is lower
  triangular.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from copoly2d.orthosys import build_monic
from copoly2d.polycore import BivariatePoly
from copoly2d.weights import builtin, export_family, load_family


def _monic(b, c, deg: int) -> list:
    """p_0 .. p_deg, coefficient lists, of p_(n+1) = (t - b(n)) p_n - c(n) p_(n-1)."""
    ps = [[Fraction(1)], [-b(0), Fraction(1)]]
    for n in range(1, deg):
        shifted = [Fraction(0)] + ps[n]
        lower = ps[n - 1] + [0, 0]
        ps.append([s - b(n) * p - c(n) * q
                   for s, p, q in zip(shifted, ps[n] + [0], lower)])
    return ps[:deg + 1]


def _hermite(deg: int) -> list:
    """Monic Hermite, weight exp(-t^2) on the line."""
    return _monic(lambda n: 0, lambda n: Fraction(n, 2), deg)


def _laguerre(a: Fraction, deg: int) -> list:
    """Monic Laguerre, weight t^a exp(-t) on t > 0."""
    return _monic(lambda n: 2 * n + a + 1, lambda n: n * (n + a), deg)


def _jacobi(al: Fraction, be: Fraction, deg: int) -> list:
    """Monic Jacobi, weight (1-t)^al (1+t)^be on (-1, 1)."""
    def b(n):
        if n == 0:
            return (be - al) / (al + be + 2)
        return (be * be - al * al) / ((2 * n + al + be) * (2 * n + al + be + 2))

    def c(n):
        s = 2 * n + al + be
        if n == 1:  # n + al + be over s - 1 cancels, also at al + be = -1
            return 4 * (1 + al) * (1 + be) / (s * s * (s + 1))
        return 4 * n * (n + al) * (n + be) * (n + al + be) / (s * s * (s + 1) * (s - 1))
    return _monic(b, c, deg)


def _product(px: list, qy: list, deg: int) -> list:
    """P_0 .. P_deg of the product weight whose factors have p and q."""
    return [[BivariatePoly.from_terms({(i, j): u * v
                                       for i, u in enumerate(px[n - k])
                                       for j, v in enumerate(qy[k])})
             for k in range(n + 1)] for n in range(deg + 1)]


def _in_x(p: list, scale, shift) -> BivariatePoly:
    """p(scale*x + shift) by Horner."""
    out = BivariatePoly.zero()
    line = scale * BivariatePoly.x() + shift
    for c in reversed(p):
        out = out * line + c
    return out


def _triangle(a: Fraction, b: Fraction, c: Fraction, deg: int) -> list:
    """P_0 .. P_deg of x^a y^b (1-x-y)^c from the Proriol-Koornwinder basis."""
    one_minus_x = 1 - BivariatePoly.x()
    chord = 2 * BivariatePoly.y() - one_minus_x  # (1-x) (2y/(1-x) - 1)
    # (1-x)^k P_k^(c,b)(2y/(1-x) - 1) = sum_i c_i chord^i (1-x)^(k-i)
    inner = [sum((ci * chord ** i * one_minus_x ** (k - i) for i, ci in enumerate(p)),
                 BivariatePoly.zero())
             for k, p in enumerate(_jacobi(c, b, deg))]
    outer = [[_in_x(p, 2, -1) for p in _jacobi(2 * k + b + c + 1, a, deg - k)]
             for k in range(deg + 1)]
    system = []
    for n in range(deg + 1):
        qs = [outer[k][n - k] * inner[k] for k in range(n + 1)]
        ps = []
        for j, q in enumerate(qs):  # forward substitution on the leading block
            for i, p in enumerate(ps):
                q = q - q.coeff(n - i, i) * p
            ps.append(q / q.coeff(n - j, j))
        system.append(ps)
    return system


def closed_form(f, deg: int) -> list:
    """P_0 .. P_deg of a built-in family, read off its name and domain parameters."""
    params = f.domain.params
    if f.name == "product_hermite":
        return _product(_hermite(deg), _hermite(deg), deg)
    if f.name == "product_laguerre":
        return _product(_laguerre(params[0], deg), _laguerre(params[1], deg), deg)
    if f.name == "hermite_laguerre":
        return _product(_hermite(deg), _laguerre(params[0], deg), deg)
    if f.name == "product_jacobi":
        a, b, c, d = params
        return _product(_jacobi(a, b, deg), _jacobi(c, d, deg), deg)
    assert f.name == "triangle"
    return _triangle(*params, deg)


def differing_degrees(f, deg: int) -> list:
    """The degrees n <= deg at which build_monic's P_n is not the closed form's."""
    sys, want = build_monic(f, deg), closed_form(f, deg)
    return [n for n in range(deg + 1)
            if [sys.p(n)[k, 0].terms for k in range(n + 1)] != [p.terms for p in want[n]]]


_PRODUCTS = ["product_hermite", "product_laguerre(1,2)", "product_laguerre(2,1)",
             "product_laguerre(1,1)", "product_laguerre(0,1)", "hermite_laguerre(1)",
             "hermite_laguerre(2)", "product_jacobi(1/2,1/2,1/2,1/2)",
             "product_jacobi(3/2,3/2,3/2,3/2)", "product_jacobi(1,2,0,0)"]
_TRIANGLES = ["triangle(1,1,1)", "triangle(1,2,1)", "triangle(-1/2,1/3,2)"]


@pytest.mark.parametrize("ref", _PRODUCTS)
def test_product_systems_match_their_closed_form_to_degree_20(ref):
    assert differing_degrees(builtin(ref), 20) == []


@pytest.mark.parametrize("ref", _TRIANGLES)
def test_triangle_systems_match_proriol_koornwinder_to_degree_16(ref):
    assert differing_degrees(builtin(ref), 16) == []


_PARAM = st.fractions(min_value=-1, max_value=3, max_denominator=4).filter(lambda v: v > -1)


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(st.sampled_from([("product_laguerre", 2), ("hermite_laguerre", 1),
                        ("product_jacobi", 4), ("triangle", 3)]).flatmap(
    lambda nk: st.tuples(st.just(nk[0]), st.lists(_PARAM, min_size=nk[1],
                                                  max_size=nk[1]))))
def test_admissible_parameters_match_their_closed_form_to_degree_8(drawn):
    name, params = drawn
    assert differing_degrees(builtin(name, params), 8) == []


@pytest.mark.parametrize("ref", ["product_hermite", "product_laguerre(1,2)"])
def test_a_moment_off_by_one_is_caught_at_the_first_degree_that_reads_it(ref):
    # building P_8 reads moments to degree 15; raising mu_(0,15) moves
    # P_8 alone, and the closed form must see it
    doc = export_family(builtin(ref), moment_degree=15)
    doc["moments"] = [[i, j, str(Fraction(v) + 1) if (i, j) == (0, 15) else v]
                      for i, j, v in doc["moments"]]
    assert differing_degrees(load_family(doc), 8) == [8]
