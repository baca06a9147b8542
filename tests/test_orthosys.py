from __future__ import annotations

import dataclasses
import functools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from conftest import _consts, count_table_builds, gram_matrix
from hypothesis import example, given, settings, strategies as st
from test_acceptance import ALL_INSTANCES
from test_characterize import pearson_data
from test_reductions import _shifted_hermite

from copoly2d import byparts, characterize, matpoly, orthosys
from copoly2d.basisops import x_vec
from copoly2d.characterize import verify_all
from copoly2d.matpoly import (
    PolyMatrix,
    ShapeError,
    SingularMatrixError,
    const_matrix,
    det_exact,
    hstack,
    kron_power,
    rat_solve,
    vstack,
)
from copoly2d.orthosys import (
    OrthoSystem,
    SingularGramError,
    build_monic,
    eval_entries,
    eval_product,
    g_lead_rows,
    hankel_table,
    inner,
    integrate_matrix,
    integrate_poly,
    integrate_rows,
)
from copoly2d.polycore import BivariatePoly as P, parse_poly
from copoly2d.weights import (
    OracleUnavailableError,
    QuadRule,
    WeightFamily,
    builtin,
    export_family,
    load_family,
    make_quadrature,
)


def leading_block(q, n):
    """The degree-n coefficient block of a level stack.

    Row r of the stack expands as X_n^t times rows r(n+1) .. r(n+1)+n of
    the returned matrix plus lower degree terms.
    """
    return const_matrix([[q[r, c].coeff(n - s, s) for c in range(q.cols)]
                         for r in range(q.rows) for s in range(n + 1)], q.cols)


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
            assert det_exact(gram_matrix(sys, n, 0)) != 0, (ref, n)


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
    assert g_lead_rows(2, 0) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # dx P_2^t leads with 2x, y and dy P_2^t with x, 2y: at m = 1 the two
    # popcount classes are the two row blocks
    assert g_lead_rows(1, 1) == [[2, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 2]]
    assert g_lead_rows(0, 1) == [[1, 0], [0, 1]]
    # dx^2, dx dy and dy^2 of P_3^t: three blocks of two rows, not four
    assert g_lead_rows(1, 2) == [[6, 0, 0, 0], [0, 2, 0, 0],
                                 [0, 2, 0, 0], [0, 0, 2, 0],
                                 [0, 0, 2, 0], [0, 0, 0, 6]]
    # m + 1 blocks of n + 1 rows: a 2^m-block build gives 2^20 blocks here
    got = g_lead_rows(1, 20)
    assert len(got) == 21 * 2
    assert {len(row) for row in got} == {22}


def test_leading_block_matches_g_lead():
    # the extracted top coefficients of any gradient stack's distinct rows
    # follow the band recurrence, independent of the family
    for ref in ("product_hermite", "triangle(0,0,0)", "product_jacobi(0,0,0,0)"):
        sys = build_monic(builtin(ref), 4)
        for m in range(3):
            for n in range(4 - m):
                got = leading_block(sys.q_rows(n, m), n)
                assert got == const_matrix(g_lead_rows(n, m), n + m + 1), (ref, n, m)


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
        ex = np.array([[float(v) for v in row] for row in _consts(exact)])
        scale = max(1.0, np.max(np.abs(ex)))
        assert np.max(np.abs(num - ex)) <= 1e-10 * scale, (n, m)


def test_integrate_poly_normalization():
    f = builtin("product_laguerre(0,0)")
    assert integrate_poly(P.one(), f) == 1
    assert integrate_poly(parse_poly("x*y"), f) == 1
    assert integrate_poly(parse_poly("x^2 - 2*x"), f) == 0


# ---------------------------------------------------------------------------
# the coupled moment-block elimination as the reference construction


def _moment_block(f, j, k):
    # integral(X_j X_k^t rho) / mu_00; entry (r, s) pairs the monomials
    # x^(j-r) y^r and x^(k-s) y^s
    return PolyMatrix.from_rows([[f.moment((j - r) + (k - s), r + s) for s in range(k + 1)]
                                 for r in range(j + 1)])


def _reference_monic(f, nmax):
    """P_0 .. P_nmax from one coupled solve per degree.

    Writing P_n = X_n + sum_k C_k X_k, the orthogonality conditions
    stack into one square system over the blocks M(j, k) =
    integral(X_j X_k^t rho), j, k < n.  Each entry is built as its
    leading monomial plus C_k^t X_k for k = 0 .. n - 1, which fixes its
    term order.
    """
    pvecs = [PolyMatrix.column([1])]
    for n in range(1, nmax + 1):
        a = vstack(*[hstack(*[_moment_block(f, j, k) for k in range(n)]) for j in range(n)])
        b = vstack(*[_moment_block(f, j, n) for j in range(n)])
        try:
            z = rat_solve(a, -b)
        except SingularMatrixError as exc:
            raise SingularGramError(f"degree {n}: {exc}") from exc
        entries = list(x_vec(n).transpose().row_list(0))
        row0 = 0
        for k in range(n):
            ck_t = PolyMatrix(k + 1, n + 1, [z[row0 + r, s] for r in range(k + 1)
                                             for s in range(n + 1)])
            contrib = ck_t.transpose() @ x_vec(k)
            entries = [p + contrib[r, 0] for r, p in enumerate(entries)]
            row0 += k + 1
        pvecs.append(PolyMatrix.column(entries))
    return pvecs


@pytest.mark.parametrize("ref", ALL_INSTANCES)
def test_gram_schmidt_matches_the_coupled_elimination(ref):
    # same Fractions and the same term order: numeric mode sums terms
    # in dict order, so another order would move numeric residuals
    f = builtin(ref)
    sys = build_monic(f, 8)
    for n, want in enumerate(_reference_monic(f, 8)):
        got = sys.p(n)
        assert got == want, (ref, n)
        for r in range(n + 1):
            assert list(got[r, 0].terms) == list(want[r, 0].terms), (ref, n, r)


def _table_family(moment):
    doc = export_family(builtin("product_hermite"), moment_degree=0)
    doc["moments"] = [[i, j, str(moment(i, j))] for i in range(9) for j in range(9)]
    return load_family(doc)


def _hermite_moment(k):
    # normalized moments of exp(-t^2): (k-1)!! / 2^(k/2) for even k
    return 0 if k % 2 else Fraction(math.factorial(k), math.factorial(k // 2) * 4 ** (k // 2))


def _circle_moment(i, j):
    # the uniform measure on the unit circle: the mean of cos^i t sin^j t,
    # (i-1)!! (j-1)!! / (i+j)!! for even i and j
    def double_factorial(k):
        return math.prod(range(k, 0, -2))
    if i % 2 or j % 2:
        return 0
    return Fraction(double_factorial(i - 1) * double_factorial(j - 1), double_factorial(i + j))


@pytest.mark.parametrize("moment, text", [
    # constant-1 table (a point mass at (1, 1)): the Gram block H_1 is 0
    (lambda i, j: 1, "degree 2: singular pivot at column 1"),
    # a weight on the line x = y: mu_ij is the Hermite moment of degree i + j,
    # and H_1 = [[1, 1], [1, 1]] / 2 has its first pivotless column at 1
    (lambda i, j: _hermite_moment(i + j), "degree 2: singular pivot at column 2"),
    # G_0 and G_1 are regular and x^2 + y^2 - 1 vanishes on the circle, so
    # column 2 of G_2 (y^2) has no pivot: column 3 + 2 of the moment matrix
    (_circle_moment, "degree 3: singular pivot at column 5"),
])
def test_singular_gram_detected(moment, text):
    f = _table_family(moment)
    # the construction is regular up to the degree the message names
    degree = int(text.split()[1].rstrip(":"))
    build_monic(f, degree - 1)
    for construct in (build_monic, _reference_monic):
        with pytest.raises(SingularGramError) as err:
            construct(f, degree)
        assert str(err.value) == text


def test_build_monic_guard():
    with pytest.raises(ValueError):
        build_monic(builtin("product_hermite"), -1)


# random discrete moment tables: the three-term construction against the
# coupled elimination on functionals that are not classical, quasi-definite
# and degenerate alike


def _discrete_family(points, weights, depth):
    """A family whose moments are those of sum_k w_k delta_(x_k, y_k) / sum_k w_k."""
    total = sum(weights)
    doc = export_family(builtin("product_hermite"), moment_degree=0)
    doc["moments"] = [[i, d - i, str(sum(w * x**i * y**(d - i)
                                         for (x, y), w in zip(points, weights)) / total)]
                      for d in range(depth + 1) for i in range(d + 1)]
    return load_family(doc)


def _discrete_table(seed):
    """(kind, nmax, points, weights) of random discrete table number seed.

    Generic points are as many as the monomials of degree <= nmax, so the
    table is quasi-definite to that degree; points on a line or on a conic
    make the Gram block of degree 1 or 2 singular.  Weights have both
    signs, so a quasi-definite table need not be positive.
    """
    rng = random.Random(seed)
    kind = ("generic", "line", "conic")[seed % 3]
    nmax = 2 + seed // 3 % 4

    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    count = (nmax + 1) * (nmax + 2) // 2 + (kind != "generic") * rng.randint(0, 3)
    if kind == "generic":
        points = [(rat(), rat()) for _ in range(count)]
    elif kind == "line":
        a, b = rat(), rat()
        points = [(t, a * t + b) for t in (rat() for _ in range(count))]
    else:
        # an affine image of the rationally parametrised unit circle
        a, b, c, d, e, g = (rat() for _ in range(6))
        if a * d == b * c:
            a += 1
        circle = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
                  for t in (rat() for _ in range(count))]
        points = [(a * u + b * v + e, c * u + d * v + g) for u, v in circle]
    weights = [rng.choice([-1, 1]) * rng.randint(1, 5) for _ in points]
    while sum(weights) == 0:
        weights[0] += 1
    return kind, nmax, points, weights


@pytest.mark.parametrize("seed", range(60))
def test_three_term_construction_on_random_discrete_tables(seed):
    kind, nmax, points, weights = _discrete_table(seed)
    f = _discrete_family(points, weights, 2 * nmax)
    try:
        want = _reference_monic(f, nmax)
    except SingularGramError as exc:
        with pytest.raises(SingularGramError) as err:
            build_monic(f, nmax)
        assert str(err.value) == str(exc)
        # one-dimensional support fails at degree 2, a conic at degree 3
        assert kind != "generic"
        assert str(exc).startswith(f"degree {2 if kind == 'line' else 3}:")
        return
    assert kind != "line" and (kind == "generic" or nmax == 2)
    sys = build_monic(f, nmax)
    for n, col in enumerate(want):
        assert sys.p(n) == col, n
        for r in range(n + 1):
            assert list(sys.p(n)[r, 0].terms) == list(col[r, 0].terms), (n, r)


@pytest.mark.parametrize("ref", ["triangle(1,1,1)", "product_jacobi(1/2,1/2,1/2,1/2)",
                                 "product_laguerre(1,2)"])
def test_build_monic_cost_shape(monkeypatch, ref):
    # one table read per construction, and per degree one moment block
    # read off it, no general contraction, no polynomial matrix product
    # and one square elimination, that of G_n; the moments read reach
    # exactly degree 2 nmax - 1
    calls = {"hankel_table": 0, "integrate_rows": 0, "@": 0, "square _echelon": 0}
    degrees = []

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    echelon = matpoly._echelon

    def eliminating(w, ncols):
        if len(w) == ncols and len(w[0]) > ncols:
            calls["square _echelon"] += 1
        return echelon(w, ncols)

    moment = orthosys.WeightFamily.moment

    def recording(family, i, j):
        degrees.append(i + j)
        return moment(family, i, j)

    for name in ("hankel_table", "integrate_rows"):
        monkeypatch.setattr(orthosys, name, counting(name, getattr(orthosys, name)))
    monkeypatch.setattr(matpoly.PolyMatrix, "__matmul__",
                        counting("@", matpoly.PolyMatrix.__matmul__))
    for mod in (matpoly, orthosys):
        monkeypatch.setattr(mod, "_echelon", eliminating)
    monkeypatch.setattr(orthosys.WeightFamily, "moment", recording)
    for nmax in range(1, 8):
        f = builtin(ref)
        for name in calls:
            calls[name] = 0
        degrees.clear()
        sys = build_monic(f, nmax)
        assert calls == {"hankel_table": 1, "integrate_rows": 0, "@": 0,
                         "square _echelon": nmax}
        assert max(degrees) == 2 * nmax - 1
        # the construction leaves the gram_record of gram(n, 0), n < nmax,
        # in the memo
        for n in range(nmax):
            assert ("gram record", n, 0) in sys._memo
            assert gram_matrix(sys, n, 0) == integrate_matrix(
                sys.q(n, 0).transpose() @ sys.q(n, 0), f), n


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
def test_integrate_rows_matches_formed_product(aw, ref):
    mats, w = aw
    f = builtin(ref)
    batch, read_together = _recording(f)
    got = integrate_rows(mats, w, batch)
    assert len(got) == len(mats)
    single, read_apart = _recording(f)
    for a, (rows, d) in zip(mats, got):
        want = integrate_matrix(a.transpose() @ w, f)
        assert len(rows) == a.cols and all(len(row) == w.cols for row in rows)
        assert const_matrix([[Fraction(v, d) for v in row] for row in rows], w.cols) == want
        assert integrate_rows([a], w, single) == [(rows, d)]
    # one contraction reads the moments the separate calls read
    assert read_together == read_apart


def test_integrate_rows_reads_no_moment_where_no_rows_meet():
    f, seen = _recording(builtin("triangle(1,1,1)"))
    a = PolyMatrix.column([parse_poly("x"), 0])
    w = PolyMatrix.column([0, parse_poly("y")])
    assert integrate_rows([a], w, f) == [([[0]], 1)]
    assert not seen


def test_integrate_rows_rejects_row_mismatch():
    f = builtin("product_hermite")
    with pytest.raises(ShapeError):
        integrate_rows([PolyMatrix.zeros(2, 1)], PolyMatrix.zeros(3, 1), f)
    with pytest.raises(ShapeError, match="integrate_rows"):
        integrate_rows([PolyMatrix.zeros(3, 1), PolyMatrix.zeros(2, 1)],
                       PolyMatrix.zeros(3, 1), f)


# ---------------------------------------------------------------------------
# the family's kept moment table


def _same_system(a, b):
    assert a.nmax == b.nmax
    for n in range(a.nmax + 1):
        assert a.p(n) == b.p(n), n
        for r in range(n + 1):
            assert list(a.p(n)[r, 0].terms) == list(b.p(n)[r, 0].terms), (n, r)
        if n < a.nmax:
            assert a.gram_record(n, 0) == b.gram_record(n, 0), n


@pytest.mark.parametrize("make, deep", [
    (lambda: builtin("triangle(1,1,1)"), 40),
    (lambda: builtin("product_jacobi(1/2,1/2,1/2,1/2)"), 40),
    (lambda: builtin("product_laguerre(1,2)"), 40),
    (lambda: builtin("product_jacobi(1,2,0,0)"), 40),
    # Pearson data whose moments do not solve the functional equation,
    # tabulated to degree 13
    (lambda: _shifted_hermite(13), 14),
])
def test_readers_agree_on_a_fresh_table_and_a_deeper_kept_one(make, deep):
    # each reader codes its polynomials with the stride the table comes
    # with, so a table kept deeper than the reader asks for changes no
    # bit of what it returns
    held = make()
    hankel_table(held, deep)
    sys = build_monic(held, 6)
    assert hankel_table(held, 0)[2] == deep
    fresh = build_monic(make(), 6)
    assert hankel_table(fresh.family, 0)[2] == 12
    _same_system(sys, fresh)
    assert byparts._functional_pearson(sys) == byparts._functional_pearson(fresh)
    assert hankel_table(fresh.family, 0)[2] == 12
    mats = [sys.counted_rows(k, 1) for k in range(4)]
    w = sys.weighted_rows(3, 1)
    alone = make()
    got = integrate_rows(mats, w, alone)
    assert hankel_table(alone, 0)[2] < deep
    assert integrate_rows(mats, w, held) == got
    assert integrate_rows(mats, w, fresh.family) == got


def test_a_shallow_table_serves_shallower_reads_after_a_deeper_request_fails(monkeypatch):
    # a family file tabulated to degree 8: a deeper request raises, keeps
    # the table built before it, and raises again the next time
    f = load_family(export_family(builtin("triangle(1,1,1)"), moment_degree=8))
    want = build_monic(builtin("triangle(1,1,1)"), 4)
    degrees = []
    moment = WeightFamily.moment

    def recording(family, i, j):
        degrees.append(i + j)
        return moment(family, i, j)

    monkeypatch.setattr(WeightFamily, "moment", recording)
    table = hankel_table(f, 9)
    assert table[2] == 9 and sorted(degrees) == [d for d in range(9) for _ in range(d + 1)]
    degrees.clear()
    with pytest.raises(OracleUnavailableError, match=r"moment \(0,9\)"):
        hankel_table(f, 10)
    degrees.clear()
    assert hankel_table(f, 5) is table
    sys = build_monic(f, 4)
    _same_system(sys, want)
    assert byparts._functional_pearson(sys)
    [(rows, d)] = integrate_rows([sys.counted_rows(1, 1)], sys.weighted_rows(1, 1), f)
    block = const_matrix([[Fraction(v, d) for v in row] for row in rows], 3)
    assert gram_matrix(sys, 1, 1) == block
    assert not degrees
    with pytest.raises(OracleUnavailableError, match=r"moment \(0,9\)"):
        build_monic(f, 5)
    assert hankel_table(f, 0) is table


@pytest.mark.parametrize("ref", ["triangle(1,1,1)", "product_jacobi(1/2,1/2,1/2,1/2)"])
def test_a_degree_12_construction_reads_each_moment_once(monkeypatch, ref):
    # the two construct-deep families: one table, one WeightFamily.moment
    # call per moment of degree <= 23 plus validation's (0,0), 301 each
    calls = []
    moment = WeightFamily.moment

    def recording(family, i, j):
        calls.append((i, j))
        return moment(family, i, j)

    monkeypatch.setattr(WeightFamily, "moment", recording)
    build_monic(builtin(ref), 12)
    assert len(calls) == 301
    assert calls[0] == (0, 0) and sorted(calls[1:]) == sorted(
        (i, t - i) for t in range(24) for i in range(t + 1))


@pytest.mark.parametrize("ref", ["product_hermite", "product_laguerre(1,2)",
                                 "hermite_laguerre(1)", "product_jacobi(1/2,1/2,1/2,1/2)",
                                 "triangle(1,1,1)", "product_jacobi(1,2,0,0)"])
def test_an_exact_run_builds_one_table_per_family(monkeypatch, ref):
    builds = count_table_builds(monkeypatch)
    f = builtin(ref)
    verify_all(f, mode="exact")
    # on the default grid (4, 2), to the degree exact (e)'s gram(5, 2) or
    # the construction of P_0 .. P_7 reads, whichever is deeper
    depth = max(2 * 7 - 1, 2 * 5 + 2 * f.phi.degree)
    assert builds == [depth + 1]


def _gauss_jordan(block):
    """Fraction Gauss-Jordan on [block | I]: (block^-1 or None, the first dependent column).

    Column j of block gets a pivot exactly when it is independent of
    the columns before it.
    """
    k = len(block)
    a = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(block)]
    pivots = []
    for col in range(k):
        r = next((r for r in range(len(pivots), k) if a[r][col]), None)
        if r is None:
            continue
        top = len(pivots)
        a[top], a[r] = a[r], a[top]
        a[top] = [v / a[top][col] for v in a[top]]
        for i in range(k):
            if i != top and a[i][col]:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[top])]
        pivots.append(col)
    if len(pivots) == k:
        return [row[k:] for row in a], None
    return None, next(j for j in range(k) if j not in pivots)


@st.composite
def _int_blocks(draw):
    """A k x k int block, k <= 6, over d >= 1; some with a planted repeated row or zero column."""
    k = draw(st.integers(1, 6))
    bound = draw(st.sampled_from([2, 2 ** 40]))
    entry = st.integers(-bound, bound)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    plant = draw(st.sampled_from(["none", "repeated row", "zero column"]))
    if plant == "repeated row" and k > 1:
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        rows[j] = list(rows[i])
    elif plant == "zero column":
        j = draw(st.integers(0, k - 1))
        for row in rows:
            row[j] = 0
    return rows, draw(st.integers(1, 2 ** 40))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_int_blocks())
@example(([[2 ** 61 - 1, 0], [0, 1]], 1))
@example(([[2 ** 61 - 1, 0], [0, 1]], 3))
@example(([[1, 2, 3], [1, 2, 3], [0, 0, 1]], 5))
@example(([[1, 0, 2], [3, 0, 4], [5, 0, 6]], 1))
def test_gram_record_against_a_fraction_inverse(block):
    rows, d = block
    k = len(rows)
    rec = orthosys._gram_record([list(row) for row in rows], d)
    assert (rec.rows, rec.den) == (rows, d)
    frs = [[Fraction(v, d) for v in row] for row in rows]
    want, free = _gauss_jordan(frs)
    assert (rec.inv is None) == (det_exact(const_matrix(frs, k)) == 0) == (want is None)
    if rec.inv is None:
        assert rec.free == free
        return
    assert rec.free is None and rec.inv_den > 0
    assert math.gcd(rec.inv_den, *(v for row in rec.inv for v in row)) == 1
    assert [[Fraction(v, rec.inv_den) for v in row] for row in rec.inv] == want


@pytest.mark.parametrize("ref", _KERNEL_FAMILIES)
def test_gram_equals_formed_product_integral(ref):
    # gram_record reads the m + 1 distinct rows; the oracle forms every row
    f = builtin(ref)
    sys = build_monic(f, 7)
    for m in range(5):
        phim = kron_power(f.phi, m)
        for n in range(min(5, 8 - m)):
            q = sys.q(n, m)
            assert gram_matrix(sys, n, m) == integrate_matrix(q.transpose() @ phim @ q, f), (n, m)


# ---------------------------------------------------------------------------
# distinct rows: S(n, m), W_m and R(n, m) against the full tensors

_FIVE = ["product_hermite", "product_laguerre(1,2)", "hermite_laguerre(1)",
         "product_jacobi(1/2,1/2,1/2,1/2)", "triangle(1,1,1)"]


def _popcount(r):
    return bin(r).count("1")


def _expanded(rows, m):
    """The 2^m-row stack whose row r is rows[popcount r]."""
    return PolyMatrix.from_rows([rows.row_list(_popcount(r)) for r in range(2 ** m)],
                                rows.cols)


def _check_distinct_rows(sys):
    """q_rows, phi_rows, weighted_rows and counted_rows for n + m <= 6, m <= 4."""
    f = sys.family
    for m in range(5):
        phim = kron_power(f.phi, m)
        w = sys.phi_rows(m)
        assert w.shape == (m + 1, m + 1)
        for r in range(2 ** m):
            for t in range(m + 1):
                want = P.zero()
                for c in range(2 ** m):
                    if _popcount(c) == t:
                        want = want + phim[r, c]
                assert w[_popcount(r), t] == want, (m, r, t)
        for n in range(7 - m):
            q, s = sys.q(n, m), sys.q_rows(n, m)
            assert s.shape == (m + 1, n + m + 1)
            assert _expanded(s, m) == q, (n, m)
            assert _expanded(sys.weighted_rows(n, m), m) == phim @ q, (n, m)
            assert sys.counted_rows(n, m) == vstack(*(
                PolyMatrix.row(s.row_list(k)).scale(math.comb(m, k)) for k in range(m + 1)))


@pytest.mark.parametrize("ref", _FIVE)
def test_distinct_rows_stand_for_the_full_stacks(ref):
    _check_distinct_rows(build_monic(builtin(ref), 6))


@functools.lru_cache(maxsize=None)
def _triangle_columns():
    sys = build_monic(builtin("triangle(1,1,1)"), 6)
    return [sys.p(n) for n in range(7)]


@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(pearson_data())
def test_distinct_rows_stand_for_the_full_stacks_under_random_pearson_data(f):
    # the stacks need columns only, so the triangle's stand under random phi
    _check_distinct_rows(OrthoSystem(f, _triangle_columns()))


def test_distinct_rows_check_their_indices():
    sys = build_monic(builtin("product_hermite"), 3)
    for n, m in ((-1, 1), (0, -1), (2, 2), (4, 0)):
        with pytest.raises(ValueError):
            sys.q_rows(n, m)



def test_p_rejects_a_degree_outside_the_system():
    sys = build_monic(builtin("product_hermite"), 3)
    assert sys.p(0).shape == (1, 1) and sys.p(3).shape == (4, 1)
    for n in (-1, 4):
        with pytest.raises(ValueError, match="outside 0..nmax 3"):
            sys.p(n)


def test_phi_power_rejects_a_negative_level():
    sys = build_monic(builtin("product_hermite"), 3)
    with pytest.raises(ValueError, match="negative Kronecker power"):
        sys.phi_power(-1)


def test_phi_rows_rejects_a_negative_level():
    sys = build_monic(builtin("product_hermite"), 3)
    with pytest.raises(ValueError, match="negative Kronecker power"):
        sys.phi_rows(-1)


def test_weighted_rows_rejects_a_negative_level():
    sys = build_monic(builtin("product_hermite"), 3)
    with pytest.raises(ValueError):
        sys.weighted_rows(1, -1)

def test_numeric_blocks_are_kept_per_rule():
    f = builtin("product_jacobi(0,0,0,0)")
    sys = build_monic(f, 4)
    q = sys.q(2, 1)
    rule = make_quadrature(f, 12)
    g = sys.inner_on(2, 2, 1, rule)
    assert sys.inner_on(2, 2, 1, rule) is g
    assert not g.flags.writeable
    assert _same_bits(g, inner(q, q, 1, f, mode="numeric", rule=rule))
    # another rule, even one with equal nodes, never hits the entry
    for other in (make_quadrature(f, 14), make_quadrature(f, 12)):
        h = sys.inner_on(2, 2, 1, other)
        assert h is not g
        assert _same_bits(h, inner(q, q, 1, f, mode="numeric", rule=other))
    # a cross block k < n is kept as well, read-only
    for k in (0, 1):
        cross = sys.inner_on(k, 2, 1, rule)
        assert sys.inner_on(k, 2, 1, rule) is cross
        assert not cross.flags.writeable
        assert _same_bits(cross, inner(sys.q(k, 1), q, 1, f, mode="numeric", rule=rule)), k


# ---------------------------------------------------------------------------
# float evaluation: bit-identical to the per-term loop


def _per_term(terms, x0, y0):
    """One polynomial on nodes, term by term: the reference evaluation.

    Sums float(c) * x**i * y**j over the terms in their dict order,
    starting from 0.0 * (x0 + y0), which is -0.0 where x0 + y0 < 0.
    Numeric reports are pinned to this loop bit for bit, signed zeros
    included: another term order or start moves the last bits.
    """
    total = 0.0 * (x0 + y0)
    for (i, j), c in terms.items():
        total = total + float(c) * x0**i * y0**j
    return total


def _per_term_rows(terms, rule):
    """orthosys._eval_terms, one polynomial and one term at a time."""
    out = np.zeros((len(terms), len(rule.nodes_x)))
    for r, t in enumerate(terms):
        if t:
            out[r] = _per_term(t, rule.nodes_x, rule.nodes_y)
    return out


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


# nodes where 0.0 * (x + y) is -0.0 and terms vanish with either sign
_SIGNED_NODES = [(0.0, -1.0), (-1.0, 0.0), (0.0, 0.0), (-0.75, 0.5), (1.5, -2.0)]
_NODE = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
_EVAL_COEFF = st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 30))
_EVAL_EXPONENT = st.tuples(st.integers(0, 5), st.integers(0, 5))


@st.composite
def _eval_nodes(draw):
    """A rule on the signed nodes and up to six more; evaluation reads no weights."""
    pts = _SIGNED_NODES + draw(st.lists(st.tuples(_NODE, _NODE), max_size=6))
    return QuadRule(nodes_x=np.array([p[0] for p in pts]), nodes_y=np.array([p[1] for p in pts]),
                    weights=np.ones(len(pts)), order=1)


@st.composite
def _eval_poly(draw):
    """Zero, constant, or 1..6 terms of mixed degree."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return P.zero()
    if kind == 1:
        return P.const(draw(_EVAL_COEFF))
    return P.from_terms(draw(st.dictionaries(_EVAL_EXPONENT, _EVAL_COEFF,
                                             min_size=1, max_size=6)))


def _eval_matrix(rows, cols):
    return st.lists(_eval_poly(), min_size=rows * cols, max_size=rows * cols).map(
        lambda e: PolyMatrix(rows, cols, e))


_EVAL = settings(derandomize=True, deadline=None, database=None, max_examples=150)


@_EVAL
@given(st.integers(0, 3).flatmap(lambda r: st.integers(0, 4).flatmap(
           lambda c: _eval_matrix(r, c))),
       _eval_nodes(), st.sampled_from([1, 2, 5, 1 << 14]))
def test_eval_entries_is_the_per_term_loop(m, rule, block):
    xs, ys = rule.nodes_x, rule.nodes_y
    want = np.zeros((m.rows, m.cols, len(xs)))
    for i, j, p in m.nonzeros():
        want[i, j] = _per_term(p.terms, xs, ys)
    # block rows at a time, so the blocking of the kernel is exercised too
    with mock.patch.object(orthosys, "_EVAL_BLOCK", block * len(xs)):
        assert _same_bits(eval_entries(m, rule), want)


@st.composite
def _product_operands(draw):
    r, k, c = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return draw(_eval_matrix(r, k)), draw(_eval_matrix(k, c)), draw(_eval_matrix(k, c))


@_EVAL
@given(_product_operands(), _eval_nodes())
def test_eval_product_is_eval_entries_of_the_product(operands, rule):
    a, u, v = operands
    # the cancelling pairs leave sums that are zero term by term
    for left, right in ((a, u), (hstack(a, a), vstack(u + v, u - v)),
                        (hstack(a, a), vstack(u, -u))):
        assert _same_bits(eval_product(left, right, rule),
                          eval_entries(left @ right, rule))


def _signed_rule():
    return QuadRule(nodes_x=np.array([p[0] for p in _SIGNED_NODES]),
                    nodes_y=np.array([p[1] for p in _SIGNED_NODES]),
                    weights=np.ones(len(_SIGNED_NODES)), order=1)


def test_eval_terms_sorts_rows_and_scatters_them_back():
    # row lengths 2 0 5 3 0 3 3 1 0 5 3 2 sort to 5 5 | 3 3 3 | 3 2 2 | 1
    # in blocks of three rows: a block boundary falls inside the run of
    # threes, and the empty rows sit between nonempty ones
    rng = random.Random(7)
    rule = _signed_rule()
    rows = []
    for n in (2, 0, 5, 3, 0, 3, 3, 1, 0, 5, 3, 2):
        exps = rng.sample([(i, j) for i in range(4) for j in range(4)], n)
        rows.append({e: rng.randint(-9, 9) or 1 for e in exps})
    den = 7
    want = _per_term_rows([{e: c / den for e, c in t.items()} for t in rows], rule)
    with mock.patch.object(orthosys, "_EVAL_BLOCK", 3 * len(rule.nodes_x)):
        assert _same_bits(orthosys._eval_terms(rows, rule, den), want)
        fracs = [{e: Fraction(c, den) for e, c in t.items()} for t in rows]
        assert _same_bits(orthosys._eval_terms(fracs, rule), want)
    # the case has -0.0 values, and the empty rows are +0.0
    assert (np.signbit(want) & (want == 0)).any()
    assert not np.signbit(want[[1, 4, 8]]).any() and not want[[1, 4, 8]].any()


class _CountedTable(np.ndarray):
    """A power table that adds the number of values each take gathers to gathered."""

    gathered = 0

    def take(self, indices, *args, **kwargs):
        _CountedTable.gathered += np.size(indices) * self.shape[1]
        return np.asarray(self).take(indices, *args, **kwargs)


def test_eval_terms_computes_each_term_once(monkeypatch):
    # one 30-term row and 50 one-term rows: padding every row to the
    # longest would compute 30 * 51 term values per node
    rule = _signed_rule()
    rows = [{(i, 30 - i): i + 1 for i in range(30)}] + [{(k % 4, k % 3): k + 1}
                                                         for k in range(50)]
    real = QuadRule.powers
    monkeypatch.setattr(QuadRule, "powers", lambda self, d: tuple(
        t.view(_CountedTable) for t in real(self, d)))
    monkeypatch.setattr(_CountedTable, "gathered", 0)
    got = orthosys._eval_terms(rows, rule)
    # x**i and y**j once for each of the 80 terms on each node
    assert _CountedTable.gathered == 2 * 80 * len(rule.nodes_x)
    assert _same_bits(got, _per_term_rows(rows, rule))


_SEED0_BUILTINS = ("product_hermite", "product_laguerre(1,2)", "hermite_laguerre(1)",
                   "product_jacobi(1/2,1/2,1/2,1/2)", "triangle(1,1,1)")


def test_numeric_reports_match_the_per_term_reference(monkeypatch):
    def reports():
        return [[r.to_dict() for r in verify_all(builtin(ref), 4, 2, mode="numeric")]
                for ref in _SEED0_BUILTINS]

    got = reports()
    monkeypatch.setattr(orthosys, "_eval_terms", _per_term_rows)
    monkeypatch.setattr(characterize, "eval_product",
                        lambda a, b, rule: eval_entries(a @ b, rule))
    want = reports()
    assert any(r["residual"] for fam in want for r in fam if r["mode"] == "numeric")
    assert got == want
