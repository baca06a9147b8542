from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from copoly2d import matpoly, polycore
from copoly2d.matpoly import (
    InconsistentSystemError,
    PolyMatrix,
    ShapeError,
    SingularMatrixError,
    const_matrix,
    det_exact,
    hstack,
    kron,
    kron_power,
    rank_exact,
    rat_solve,
    solve_columns,
    vstack,
)
from copoly2d.orthosys import integrate_poly
from copoly2d.polycore import BivariatePoly as P, parse_poly
from copoly2d.weights import builtin


def _rand_const(rng, r, c):
    return const_matrix(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(c)] for _ in range(r)]
    )


def _rand_polymat(rng, r, c, deg=2):
    rows = []
    for _ in range(r):
        row = []
        for _ in range(c):
            terms = {}
            for _ in range(3):
                i = rng.randrange(deg + 1)
                j = rng.randrange(deg + 1 - i)
                terms[(i, j)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            row.append(P.from_terms(terms))
        rows.append(row)
    return PolyMatrix.from_rows(rows)


def test_matmul_hand_value():
    a = PolyMatrix.from_rows([[parse_poly("x"), 1], [0, parse_poly("y")]])
    b = PolyMatrix.from_rows([[1, parse_poly("y")], [parse_poly("x"), 0]])
    got = a @ b
    assert got == PolyMatrix.from_rows(
        [[parse_poly("2*x"), parse_poly("x*y")], [parse_poly("x*y"), 0]]
    )


def test_matmul_identity_and_assoc():
    rng = random.Random(12)
    a = _rand_polymat(rng, 3, 4)
    b = _rand_polymat(rng, 4, 2)
    c = _rand_polymat(rng, 2, 5)
    assert PolyMatrix.identity(3) @ a == a
    assert a @ PolyMatrix.identity(4) == a
    assert (a @ b) @ c == a @ (b @ c)


def test_empty_shapes_compose():
    e = PolyMatrix.zeros(0, 3)
    a = _rand_polymat(random.Random(1), 3, 2)
    assert (e @ a).shape == (0, 2)
    t = e.transpose()
    assert t.shape == (3, 0)
    assert (t @ e).shape == (3, 3)
    assert (t @ e).is_zero


def test_stacking():
    a = PolyMatrix.identity(2)
    b = PolyMatrix.zeros(2, 2)
    assert hstack(a, b).shape == (2, 4)
    assert vstack(a, b).shape == (4, 2)
    with pytest.raises(ShapeError):
        hstack(a, PolyMatrix.zeros(3, 1))


def test_kron_hand_value():
    a = const_matrix([[1, 2], [3, 4]])
    b = const_matrix([[0, 1], [1, 0]])
    got = kron(a, b)
    assert got == const_matrix(
        [[0, 1, 0, 2], [1, 0, 2, 0], [0, 3, 0, 4], [3, 0, 4, 0]]
    )


def test_kron_with_identity_and_scalar():
    rng = random.Random(2)
    a = _rand_polymat(rng, 2, 3)
    assert kron(PolyMatrix.from_rows([[P.one()]]), a) == a
    assert kron(a, PolyMatrix.from_rows([[P.one()]])) == a
    left = kron(PolyMatrix.identity(2), a)
    assert left.shape == (4, 6)
    assert left[0, 0] == a[0, 0] and left[2, 3] == a[0, 0]


def test_kron_power():
    d = PolyMatrix.from_rows([[parse_poly("x"), 0], [0, parse_poly("y")]])
    assert kron_power(d, 0) == PolyMatrix.identity(1)
    assert kron_power(d, 1) == d
    sq = kron_power(d, 2)
    assert sq.shape == (4, 4)
    assert sq[0, 0] == parse_poly("x^2")
    assert sq[1, 1] == parse_poly("x*y")
    assert sq[2, 2] == parse_poly("x*y")
    assert sq[3, 3] == parse_poly("y^2")
    assert kron_power(PolyMatrix.identity(2), 3) == PolyMatrix.identity(8)


def test_kron_associativity_random():
    rng = random.Random(44)
    a = _rand_polymat(rng, 2, 1, deg=1)
    b = _rand_polymat(rng, 1, 2, deg=1)
    c = _rand_polymat(rng, 2, 2, deg=1)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_mixed_product():
    rng = random.Random(9)
    a = _rand_const(rng, 2, 3)
    c = _rand_const(rng, 3, 2)
    b = _rand_polymat(rng, 2, 2, deg=1)
    d = _rand_polymat(rng, 2, 1, deg=1)
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_kron_derivative_product_rule():
    rng = random.Random(31)
    a = _rand_polymat(rng, 2, 2)
    b = _rand_polymat(rng, 2, 2)
    assert kron(a, b).dx() == kron(a.dx(), b) + kron(a, b.dx())
    assert kron(a, b).dy() == kron(a.dy(), b) + kron(a, b.dy())
    c = const_matrix([[1, 2], [3, 4]])
    assert kron(c, c).dx().is_zero


def test_det_and_rank():
    assert det_exact(PolyMatrix.identity(4)) == 1
    assert det_exact(const_matrix([[2, 0], [0, 3]])) == 6
    assert det_exact(const_matrix([[1, 2], [2, 4]])) == 0
    assert det_exact(const_matrix([[0, 1], [1, 0]])) == -1
    assert rank_exact(const_matrix([[1, 2], [2, 4]])) == 1
    assert rank_exact(PolyMatrix.zeros(3, 2)) == 0
    rng = random.Random(6)
    a = _rand_const(rng, 4, 4)
    b = _rand_const(rng, 4, 4)
    assert det_exact(a @ b) == det_exact(a) * det_exact(b)


def test_rat_solve_round_trip():
    rng = random.Random(77)
    for _ in range(5):
        a = _rand_const(rng, 5, 5)
        if det_exact(a) == 0:
            continue
        b = _rand_const(rng, 5, 3)
        x = rat_solve(a, b)
        assert a @ x == b
    assert rat_solve(PolyMatrix.identity(3), PolyMatrix.identity(3)) == PolyMatrix.identity(3)


def test_rat_solve_singular():
    a = const_matrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        rat_solve(a, PolyMatrix.identity(2))


def test_inverse():
    a = const_matrix([[2, 1], [1, 1]])
    assert a @ rat_solve(a, PolyMatrix.identity(2)) == PolyMatrix.identity(2)


def test_solve_columns_overdetermined():
    a = const_matrix([[1, 0], [0, 1], [1, 1]])
    x = const_matrix([[Fraction(2)], [Fraction(-1)]])
    b = a @ x
    assert solve_columns(a, b) == x
    bad = const_matrix([[2], [-1], [5]])
    with pytest.raises(InconsistentSystemError):
        solve_columns(a, bad)


def test_const_entries_rejects_polynomials():
    with pytest.raises(ValueError):
        det_exact(PolyMatrix.from_rows([[parse_poly("x"), 0], [0, 1]]))


def test_no_rows_take_an_explicit_column_count():
    assert const_matrix([], 3).shape == (0, 3)
    assert PolyMatrix.from_rows([], 0).shape == (0, 0)
    assert const_matrix([[1, 2]], 2) == const_matrix([[1, 2]])
    with pytest.raises(ShapeError):
        const_matrix([])
    with pytest.raises(ShapeError):
        PolyMatrix.from_rows([[1, 2]], 3)


# ---------------------------------------------------------------------------
# property tests of the exact eliminations against references written
# here: Leibniz expansion for det, the largest nonzero minor for rank

_ENTRY = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_EXACT = settings(derandomize=True, deadline=None, database=None, max_examples=100)


def _const(r, c, rows):
    return PolyMatrix(r, c, [P.const(v) for row in rows for v in row])


@st.composite
def _matrices(draw, rows, cols):
    """Rational matrices, often of low rank or with a zero row or column."""
    r, c = draw(rows), draw(cols)

    def dense(r, c):
        return [[draw(_ENTRY) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        k = draw(st.integers(0, min(r, c)))
        u, v = dense(r, k), dense(k, c)
        m = [[sum((u[i][t] * v[t][j] for t in range(k)), Fraction(0))
              for j in range(c)] for i in range(r)]
    else:
        m = dense(r, c)
    if r and draw(st.booleans()):
        m[draw(st.integers(0, r - 1))] = [Fraction(0)] * c
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in m:
            row[j] = Fraction(0)
    return m


def _leibniz(m):
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _rank(m, cols=None):
    """Size of the largest nonzero minor among the first `cols` columns."""
    c = len(m[0]) if cols is None else cols
    for k in range(min(len(m), c), 0, -1):
        for ri in combinations(range(len(m)), k):
            for ci in combinations(range(c), k):
                if _leibniz([[m[i][j] for j in ci] for i in ri]):
                    return k
    return 0


def _check_solver(solver, a, b, no_pivot):
    """solver(a, b) solves, or raises exactly as the ranks say it must."""
    am, bm = _const(len(a), len(a[0]), a), _const(len(b), len(b[0]), b)
    deficient = [c for c in range(len(a[0])) if _rank(a, c + 1) <= c]
    if deficient:
        with pytest.raises(SingularMatrixError) as err:
            solver(am, bm)
        assert str(err.value) == no_pivot.format(deficient[0])
        assert err.value.column == deficient[0]
    elif _rank([ra + rb for ra, rb in zip(a, b)]) > _rank(a):
        with pytest.raises(InconsistentSystemError):
            solver(am, bm)
    else:
        assert am @ solver(am, bm) == bm


_ROWS = st.integers(1, 4)


@_EXACT
@given(_matrices(_ROWS, st.integers(0, 5)))
def test_rank_matches_largest_nonzero_minor(m):
    assert rank_exact(_const(len(m), len(m[0]), m)) == _rank(m)


@_EXACT
@given(_ROWS.flatmap(lambda n: _matrices(st.just(n), st.just(n))))
def test_det_matches_leibniz(m):
    assert det_exact(_const(len(m), len(m), m)) == _leibniz(m)


@_EXACT
@given(_ROWS.flatmap(lambda r: st.tuples(_matrices(st.just(r), st.integers(0, 5)),
                                         _matrices(st.just(r), st.integers(0, 2)))))
def test_solve_columns_solves_or_raises_by_rank(ab):
    _check_solver(solve_columns, *ab, "column {} has no pivot")


@_EXACT
@given(_ROWS.flatmap(lambda n: st.tuples(_matrices(st.just(n), st.just(n)),
                                         _matrices(st.just(n), st.integers(0, 2)))))
def test_rat_solve_solves_or_raises_by_rank(ab):
    _check_solver(rat_solve, *ab, "singular pivot at column {}")


def _outcome(solver, a, b):
    try:
        return solver(a, b)
    except (SingularMatrixError, InconsistentSystemError) as exc:
        return type(exc), str(exc)


@_EXACT
@given(_ROWS.flatmap(lambda r: st.tuples(_matrices(st.just(r), st.integers(0, 5)),
                                         _matrices(st.just(r), st.integers(0, 2)))))
def test_solve_columns_takes_fraction_rows(ab):
    a, b = ab
    am, bm = _const(len(a), len(a[0]), a), _const(len(b), len(b[0]), b)
    assert _outcome(solve_columns, a, b) == _outcome(solve_columns, am, bm)
    with pytest.raises(ShapeError):
        solve_columns(a, b[:-1])


# ---------------------------------------------------------------------------
# property tests of the product kernel and the moment sums, which run on
# int numerators, against Fraction references written here

# denominators up to 12 share factors, so common denominators are not
# plain products
_COEFF = st.fractions(min_value=-6, max_value=6, max_denominator=12)
_POLYS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _COEFF,
                         max_size=5).map(P.from_terms)


def _schoolbook(ta, tb):
    out = {}
    for (i, j), c in ta.items():
        for (k, l), d in tb.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), Fraction(0)) + c * d
    return {e: c for e, c in out.items() if c}


def _stored(p):
    """p's terms, after checking they are nonzero Fractions."""
    assert all(type(c) is Fraction and c for c in p.terms.values())
    return p.terms


@st.composite
def _factor_pairs(draw):
    """Two polynomials, often u + v and u - v: the cross terms cancel."""
    u, v = draw(_POLYS), draw(_POLYS)
    return (u + v, u - v) if draw(st.booleans()) else (u, v)


@st.composite
def _matmul_operands(draw):
    """r x k and k x c polynomial matrices, 0 x k @ k x 0 included.

    Often a gets the extra column -a[:, 0] and b the extra row b[0, :],
    so the contributions of that pair cancel in every product entry.
    """
    r, k, c = (draw(st.integers(0, 3)) for _ in range(3))
    a = [[draw(_POLYS) for _ in range(k)] for _ in range(r)]
    b = [[draw(_POLYS) for _ in range(c)] for _ in range(k)]
    if k and draw(st.booleans()):
        a = [row + [-row[0]] for row in a]
        b = b + [list(b[0])]
        k += 1
    return PolyMatrix(r, k, [p for row in a for p in row]), \
        PolyMatrix(k, c, [p for row in b for p in row])


@_EXACT
@given(_factor_pairs())
def test_poly_product_matches_schoolbook(ab):
    a, b = ab
    assert _stored(a * b) == _schoolbook(a.terms, b.terms)


@_EXACT
@given(_matmul_operands())
def test_matmul_matches_schoolbook(ab):
    a, b = ab
    got = a @ b
    assert got.shape == (a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            want = {}
            for k in range(a.cols):
                for e, c in _schoolbook(a[i, k].terms, b[k, j].terms).items():
                    want[e] = want.get(e, Fraction(0)) + c
            assert _stored(got[i, j]) == {e: c for e, c in want.items() if c}


_MOMENT_FAMILIES = [builtin("triangle", ("1", "1", "1")),
                    builtin("product_jacobi", ("1/2", "3/2", "1/2", "1/2")),
                    builtin("product_laguerre", ("1", "2"))]


@_EXACT
@given(_POLYS, st.sampled_from(_MOMENT_FAMILIES))
def test_integrate_poly_matches_moment_sum(p, f):
    got = integrate_poly(p, f)
    assert type(got) is Fraction
    assert got == sum((c * f.moment(i, j) for (i, j), c in p.terms.items()), Fraction(0))


def test_product_kernel_runs_through_the_module_globals(monkeypatch):
    # bench/tracing.py counts products by wrapping _mul_into at these two
    # names; if the kernel were reached another way its metrics would read 0
    a, b = parse_poly("x^2 - 1/3*x*y + 5/6"), parse_poly("3/4*y + x - 2")
    am = PolyMatrix.from_rows([[a, 0, parse_poly("x*y")], [1, b, 0]])
    bm = PolyMatrix.from_rows([[b, 0], [a, parse_poly("1/2*y")], [0, 7]])
    want, want_m = a * b, am @ bm
    seen = []
    real = polycore._mul_into

    def counting(acc, ta, tb):
        seen.append(len(ta) * len(tb))
        real(acc, ta, tb)

    monkeypatch.setattr(polycore, "_mul_into", counting)
    monkeypatch.setattr(matpoly, "_mul_into", counting)
    assert a * b == want
    assert seen == [len(a.terms) * len(b.terms)]
    seen.clear()
    assert am @ bm == want_m
    assert sorted(seen) == sorted(
        len(am[i, k].terms) * len(bm[k, j].terms)
        for i in range(2) for k in range(3) for j in range(2)
        if am[i, k].terms and bm[k, j].terms)
