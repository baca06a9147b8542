from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copoly2d.basisops import x_vec
from copoly2d.matpoly import PolyMatrix, ShapeError, det_exact, kron_power, vstack
from copoly2d.orthosys import (
    OrthoSystem,
    SingularGramError,
    build_monic,
    g_lead,
    inner,
    integrate_matrix,
    integrate_poly,
    integrate_product,
    integrate_products,
    leading_block,
)
from copoly2d.polycore import BivariatePoly as P, parse_poly
from copoly2d.weights import builtin, load_family, export_family, make_quadrature


def test_hermite_low_degrees():
    sys = build_monic(builtin("product_hermite"), 3)
    assert sys.p(0) == PolyMatrix.column([1])
    assert sys.p(1) == PolyMatrix.column([parse_poly("x"), parse_poly("y")])
    assert sys.p(2) == PolyMatrix.column(
        [parse_poly("x^2 - 1/2"), parse_poly("x*y"), parse_poly("y^2 - 1/2")]
    )
    p3 = sys.p(3)
    assert p3[0, 0] == parse_poly("x^3 - 3/2*x")
    assert p3[1, 0] == parse_poly("x^2*y - 1/2*y")


def test_triangle_first_degree():
    sys = build_monic(builtin("triangle(0,0,0)"), 1)
    assert sys.p(1) == PolyMatrix.column(
        [parse_poly("x - 1/3"), parse_poly("y - 1/3")]
    )


def test_monicity_and_orthogonality():
    for ref in ("product_laguerre(1,2)", "product_jacobi(0,0,0,0)", "triangle(1,1,1)"):
        f = builtin(ref)
        sys = build_monic(f, 5)
        for n in range(6):
            assert leading_block(sys.p(n).transpose(), n) == PolyMatrix.identity(n + 1), (ref, n)
            for j in range(n):
                z = integrate_matrix(x_vec(j) @ sys.p(n).transpose(), f)
                assert z.is_zero, (ref, n, j)
            assert det_exact(sys.gram(n, 0)) != 0, (ref, n)


def test_gradient_stack_shapes_and_values():
    sys = build_monic(builtin("product_hermite"), 3)
    q11 = sys.q(1, 1)
    assert q11.shape == (2, 3)
    assert q11 == PolyMatrix.from_rows(
        [[parse_poly("2*x"), parse_poly("y"), 0], [0, parse_poly("x"), parse_poly("2*y")]]
    )
    assert sys.q(2, 0) == sys.p(2).transpose()
    q02 = sys.q(0, 2)
    assert q02.shape == (4, 3)
    # all four second partials of the degree-2 entries, constant
    assert q02.degree == 0
    with pytest.raises(ValueError):
        sys.q(3, 1)


def test_g_lead_values():
    assert g_lead(2, 0) == PolyMatrix.identity(3)
    got = g_lead(1, 1)
    assert got == PolyMatrix.from_rows(
        [[2, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 2]]
    )
    assert g_lead(0, 1).shape == (2, 2)
    assert g_lead(1, 2).shape == (8, 4)


def test_leading_block_matches_g_lead():
    # the extracted top coefficients of any gradient stack follow the
    # band recurrence, independent of the family
    for ref in ("product_hermite", "triangle(0,0,0)", "product_jacobi(0,0,0,0)"):
        sys = build_monic(builtin(ref), 4)
        for m in range(3):
            for n in range(4 - m):
                q = sys.q(n, m)
                assert leading_block(q, n) == g_lead(n, m), (ref, n, m)


def test_gradient_orthogonality_exact():
    f = builtin("product_hermite")
    sys = build_monic(f, 4)
    for m in (1, 2):
        for n in range(1, 4 - m + 1):
            for k in range(n):
                z = inner(sys.q(k, m), sys.q(n, m), m, f)
                assert z.is_zero, (n, m, k)
            h = inner(sys.q(n, m), sys.q(n, m), m, f)
            assert det_exact(h) != 0


def test_inner_numeric_matches_exact():
    f = builtin("product_jacobi(0,0,0,0)")
    sys = build_monic(f, 4)
    rule = make_quadrature(f, 12)
    for n, m in ((1, 0), (2, 1), (1, 2)):
        a = sys.q(n, m)
        exact = inner(a, a, m, f, mode="exact")
        num = inner(a, a, m, f, mode="numeric", rule=rule)
        ex = np.array([[float(v) for v in row] for row in exact.const_entries()])
        scale = max(1.0, np.max(np.abs(ex)))
        assert np.max(np.abs(num - ex)) <= 1e-10 * scale, (n, m)


def test_integrate_poly_normalization():
    f = builtin("product_laguerre(0,0)")
    assert integrate_poly(P.one(), f) == 1
    assert integrate_poly(parse_poly("x*y"), f) == 1
    assert integrate_poly(parse_poly("x^2 - 2*x"), f) == 0


def test_singular_gram_detected():
    # constant-1 moment table: the degree-1 block Gram [[1,1],[1,1]] per
    # blocks collapses once degree 2 couples repeated monomials
    doc = export_family(builtin("product_hermite"), moment_degree=0)
    doc["moments"] = [[i, j, "1"] for i in range(9) for j in range(9)]
    f = load_family(doc)
    with pytest.raises(SingularGramError):
        build_monic(f, 2)


def test_build_monic_guard():
    with pytest.raises(ValueError):
        build_monic(builtin("product_hermite"), -1)


# ---------------------------------------------------------------------------
# the bilinear-form integral against the formed product

_KERNEL_FAMILIES = ("triangle(1,1,1)", "product_jacobi(1/2,1/2,1/2,1/2)",
                    "product_laguerre(1,2)")
# denominators are divisors of 12, so that they share factors
_COEFF = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 12]))
_EXPONENT = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) <= 3)


@st.composite
def _kernel_poly(draw):
    if draw(st.integers(0, 3)) == 0:
        return P.zero()
    return P.from_terms(draw(st.dictionaries(_EXPONENT, _COEFF, max_size=4)))


@st.composite
def _kernel_operands(draw):
    """Left factors a_1 .. a_K (r x c_i) sharing one w (r x d).

    Shapes 0..3, often with zero entries, mixed degrees up to 3, and
    sometimes a row of one factor zeroed.  Sometimes every row is
    repeated, negated in w, so each entry of every a_i^t w cancels term
    by term.
    """
    r, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def mat(rows, cols):
        return PolyMatrix(rows, cols, [draw(_kernel_poly()) for _ in range(rows * cols)])

    mats = [mat(r, draw(st.integers(0, 3))) for _ in range(draw(st.integers(1, 3)))]
    w = mat(r, d)
    if r and draw(st.booleans()):
        i, row = draw(st.integers(0, len(mats) - 1)), draw(st.integers(0, r - 1))
        a = mats[i]
        mats[i] = PolyMatrix(r, a.cols, [P.zero() if q == row else a[q, c]
                                         for q in range(r) for c in range(a.cols)])
    if draw(st.booleans()):
        mats, w = [vstack(a, a) for a in mats], vstack(w, -w)
    return mats, w


def _recording(f):
    """A fresh copy of f and the set of moments its oracle is asked for."""
    seen = set()

    def moment_fn(i, j):
        seen.add((i, j))
        return f.moment(i, j)

    return dataclasses.replace(f, moment_fn=moment_fn), seen


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(_kernel_operands(), st.sampled_from(_KERNEL_FAMILIES))
def test_integrate_product_matches_formed_product(aw, ref):
    mats, w = aw
    f = builtin(ref)
    batch, read_together = _recording(f)
    got = integrate_products(mats, w, batch)
    assert len(got) == len(mats)
    single, read_apart = _recording(f)
    for a, g in zip(mats, got):
        want = integrate_matrix(a.transpose() @ w, f)
        assert g.shape == (a.cols, w.cols)
        assert g == want
        assert integrate_product(a, w, single) == want
    # one contraction reads the moments the separate calls read
    assert read_together == read_apart


def test_integrate_product_rejects_row_mismatch():
    f = builtin("product_hermite")
    with pytest.raises(ShapeError):
        integrate_product(PolyMatrix.zeros(2, 1), PolyMatrix.zeros(3, 1), f)
    with pytest.raises(ShapeError):
        integrate_products([PolyMatrix.zeros(3, 1), PolyMatrix.zeros(2, 1)],
                           PolyMatrix.zeros(3, 1), f)


@pytest.mark.parametrize("ref", _KERNEL_FAMILIES)
def test_gram_equals_formed_product_integral(ref):
    f = builtin(ref)
    sys = build_monic(f, 6)
    for m in range(3):
        phim = kron_power(f.phi, m)
        for n in range(5):
            q = sys.q(n, m)
            assert sys.gram(n, m) == integrate_matrix(q.transpose() @ phim @ q, f), (n, m)


def test_numeric_gram_is_kept_per_rule():
    f = builtin("product_jacobi(0,0,0,0)")
    sys = build_monic(f, 4)
    q = sys.q(2, 1)
    rule = make_quadrature(f, 12)
    g = sys.gram(2, 1, rule)
    assert sys.gram(2, 1, rule) is g
    assert np.array_equal(g, inner(q, q, 1, f, mode="numeric", rule=rule))
    assert not g.flags.writeable
    # another rule, even one with equal nodes, never hits the entry
    for other in (make_quadrature(f, 14), make_quadrature(f, 12)):
        h = sys.gram(2, 1, other)
        assert h is not g
        assert np.array_equal(h, inner(q, q, 1, f, mode="numeric", rule=other))
    assert isinstance(sys.gram(2, 1), PolyMatrix)
