"""The proved reductions above level 0, against the routes they replace.

(c): for m >= 1, characterize._lambda reads Lambda(n, m) = Lambda(n + m, 0)
+ c_m I where the class sums of the level's zero-order term C_m are c_m I
(PsiLevel.zero_order) and level 0 solves; elsewhere it solves the level-m
system (lambda_via_operator).  (d): _cleared_divergence_identity is a
theorem where the lifted Pearson equation holds (_lifted_pearson), and is
computed elsewhere.  Each reduction is checked against the route it
replaces: criterion 2's dense C_m, the closed form c_m = m d + m(m - 1) a,
lambda_via_operator on every cell, and whole (c) and (d) reports with
both reductions switched off.  The disk, whose weight matrix breaks
phi_conditions, keeps (d)'s polynomial identity above level 0.  (b):
the level Gram blocks and cross terms are read off level 0 by parts where
OrthoSystem._by_parts holds, and integrated elsewhere; each is checked
against its own moment contraction, and each fallback is seen in the
route the memo keeps, not in a verdict.  check_b's Gram verdict is T_n's
nonsingularity there, with no level-m record built.  (e)'s corner reads
stack nmax + 1's Gram verdict off its direct record where deg phi < 2,
and its reconstruction off phi's curl symbol, checked against the curl
product on the polynomial stack that it replaces.  Level-0 Lambda(n, 0)
is -T(n - 1, 1) where OrthoSystem._by_parts(n - 1, 1) holds, and solved
elsewhere; it is checked against the coefficient solve that hand-built
systems keep.  A non-symmetric phi, which validate_family rejects, is
refused by the guard.
"""
from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from test_acceptance import (
    ALL_INSTANCES,
    _admissible_families,
    _c_obstruction,
    _zero_order_term,
)
from test_basisops import random_rational_matrix
from test_characterize import (
    _LEVEL_TWO_ONLY,
    _pearson_family,
    _result,
    oracle_psi_tower,
    pearson_data,
)

from copoly2d import byparts, characterize, cli
from copoly2d.basisops import x_vec
from copoly2d.characterize import (
    NoConstantSolution,
    check_b,
    check_e,
    lambda_via_formula,
    lambda_via_operator,
    level_pearson_check,
    psi_tower,
    verify_all,
)
from copoly2d.matpoly import PolyMatrix, const_matrix, det_exact, hstack
from copoly2d.orthosys import (
    OrthoSystem,
    _gram_record,
    build_monic,
    integrate_rows,
    row_halves,
)
from copoly2d.polycore import ZERO, BivariatePoly, parse_poly
from copoly2d.weights import (
    FamilyLoadError,
    OracleUnavailableError,
    builtin,
    check_pearson,
    check_phi_conditions,
    export_family,
    load_family,
    validate_family,
)

# criterion 2's instances, product_jacobi(1,2,0,0) among them, the two
# more whose (c) fails above level 0 in another way, and a triangle with
# unequal parameters
INSTANCES = [*ALL_INSTANCES, "hermite_laguerre(1)", "product_jacobi(1/2,1/2,1/2,1/2)",
             "triangle(-1/2,1/3,2)"]

# (family, first level at which (c) takes the level-m solve)
SOLVED_FROM = [("hermite_laguerre(1)", 1), ("product_jacobi(1/2,1/2,1/2,1/2)", 2),
               ("product_jacobi(1,2,0,0)", 1)]


def _poch(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def _disk_moment(i: int, j: int) -> Fraction:
    if i % 2 or j % 2:
        return Fraction(0)
    half = Fraction(1, 2)
    return _poch(half, i // 2) * _poch(half, j // 2) / _poch(Fraction(3), (i + j) // 2)


# the disk weight 1 - x^2 - y^2 (mu = 1): Pearson holds, phi_conditions fails
DISK = {
    "name": "disk",
    "phi": [["1-x^2", "-x*y"], ["-x*y", "1-y^2"]],
    "psi1": "-5*x",
    "psi2": "-5*y",
    "log_grad_x": {"num": "-2*x", "den": "1-x^2-y^2"},
    "log_grad_y": {"num": "-2*y", "den": "1-x^2-y^2"},
    "domain": {"kind": "plane"},
    "moments": [[i, d - i, str(_disk_moment(i, d - i))] for d in range(25) for i in range(d + 1)],
}


def _direct_lambda(sys, n, m):
    """The eigenvalue matrix as the level-m solve alone, memoised like _lambda."""
    return sys.cached(("lambda", n, m), lambda: lambda_via_operator(sys, n, m))


def _spy_solves(monkeypatch):
    """Record the (n, m) of every lambda_via_operator call that _lambda makes."""
    calls = []
    real = characterize.lambda_via_operator

    def spy(sys, n, m):
        calls.append((n, m))
        return real(sys, n, m)

    monkeypatch.setattr(characterize, "lambda_via_operator", spy)
    return calls


# ---------------------------------------------------------------------------
# C_m on its popcount classes


def _assert_zero_order_matches_the_dense_oracle(f, depth):
    tower = psi_tower(f, depth)
    dense = oracle_psi_tower(f, depth)
    d = tower.level(0).class_sums[1]
    for m in range(depth + 1):
        c = _zero_order_term(dense, m)
        want = [[Fraction(v, d) for v in row] for row in tower.level(m).zero_order]
        # every row's column sums by popcount are the class row of its popcount
        for r in range(2 ** m):
            got = [Fraction(0)] * (m + 1)
            for col, p in enumerate(c.row_list(r)):
                got[bin(col).count("1")] += p.coeff(0, 0)
            assert got == want[bin(r).count("1")], (m, r)
        scalar = all(want[s][t] == (s == t) * want[0][0]
                     for s in range(m + 1) for t in range(m + 1))
        assert tower.level(m).zero_order_scalar() == (want[0][0] if scalar else None), m


@pytest.mark.parametrize("ref", INSTANCES)
def test_zero_order_class_sums_match_criterion_2s_dense_term(ref):
    _assert_zero_order_matches_the_dense_oracle(builtin(ref), 4)


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(pearson_data())
def test_zero_order_class_sums_match_the_dense_term_on_pearson_data(f):
    _assert_zero_order_matches_the_dense_oracle(f, 3)


@pytest.mark.parametrize("ref", INSTANCES)
def test_zero_order_scalar_is_the_closed_form_where_criterion_2_predicts_it(ref):
    # c_m = m d + m (m - 1) a: d the scalar drift, phi's quadratic part a x x^t
    f = builtin(ref)
    tower = psi_tower(f, 6)
    d = f.d_matrix()[0, 0].coeff(0, 0)
    a = f.phi[0, 0].coeff(2, 0)
    for m in range(7):
        want = None if _c_obstruction(f, m) else m * d + m * (m - 1) * a
        assert tower.level(m).zero_order_scalar() == want, m


# ---------------------------------------------------------------------------
# the (c) route: _lambda against the level-m solve


@pytest.mark.parametrize("ref", INSTANCES)
def test_lambda_matches_the_level_m_solve_on_every_cell(ref, monkeypatch):
    f = builtin(ref)
    sys = build_monic(f, 6)
    solves = _spy_solves(monkeypatch)
    cells = [(n, m) for n in range(1, 7) for m in range(4) if n + m <= 6]
    got = {cell: _result(characterize._lambda, sys, *cell) for cell in cells}
    solved = {cell for cell in solves if cell[1] >= 1}
    monkeypatch.undo()
    for cell in cells:
        assert got[cell] == _result(lambda_via_operator, sys, *cell), cell
    # level 0 solves on every built-in, so the level-m solve runs exactly
    # where C~_m is not scalar
    tower = psi_tower(f, 3)
    assert solved == {(n, m) for n, m in cells
                      if m >= 1 and tower.level(m).zero_order_scalar() is None}


@pytest.mark.parametrize("ref, first", SOLVED_FROM)
def test_families_without_a_scalar_zero_order_term_keep_the_solve(ref, first, monkeypatch):
    # their failing cells keep lambda_via_operator's exception and message
    sys = build_monic(builtin(ref), 6)
    solves = _spy_solves(monkeypatch)
    for n, m in [(n, m) for n in range(1, 5) for m in range(first, 3)]:
        del solves[:]
        got = _result(characterize._lambda, sys, n, m)
        assert (n, m) in solves
        assert got[0] == "NoConstantSolution"
        assert got[1].startswith("inconsistent coefficient system")


def _homogeneous_part(p: BivariatePoly, k: int) -> BivariatePoly:
    return BivariatePoly.from_terms({e: c for e, c in p.terms.items() if sum(e) == k})


def _op0(f, p: BivariatePoly) -> BivariatePoly:
    px, py = p.dx(), p.dy()
    return (f.phi[0, 0] * px.dx() + f.phi[0, 1] * px.dy() * 2 + f.phi[1, 1] * py.dy()
            + f.psi1 * px + f.psi2 * py)


def _eigen_columns(f, nmax):
    """Monic P_0 .. P_nmax with op_0(P_n^t) = lam_n P_n^t, or None.

    Built where phi's quadratic part is c x x^t and the drift is d I:
    op_0 then acts on the forms of degree k as lam_k = c k (k - 1) + d k
    plus terms of lower degree, so each entry's lower parts follow from
    its leading monomial while lam_k != lam_n for k < n.
    """
    d = f.d_matrix()
    c = f.phi[0, 0].coeff(2, 0)
    xs = (BivariatePoly.x(), BivariatePoly.y())
    quad = all(_homogeneous_part(f.phi[i, j], 2) == xs[i] * xs[j] * c
               for i in (0, 1) for j in (0, 1))
    if not (quad and d[0, 1].is_zero and d[1, 0].is_zero and d[0, 0] == d[1, 1]):
        return None
    drift = d[0, 0].coeff(0, 0)
    lam = [c * k * (k - 1) + drift * k for k in range(nmax + 1)]
    if any(lam[k] == lam[n] for n in range(nmax + 1) for k in range(n)):
        return None
    cols = []
    for n in range(nmax + 1):
        entries = []
        for j in range(n + 1):
            p = BivariatePoly.from_terms({(n - j, j): 1})
            for k in range(n - 1, -1, -1):
                r = _homogeneous_part(_op0(f, p) - p * lam[n], k)
                p = p + r * Fraction(1, lam[n] - lam[k])
            assert _op0(f, p) == p * lam[n]
            entries.append(p)
        cols.append(PolyMatrix.column(entries))
    return cols


@functools.lru_cache(maxsize=None)
def _triangle_columns():
    sys = build_monic(builtin("triangle(1,1,1)"), 5)
    return [sys.p(n) for n in range(6)]


_DISK_DATA = _pearson_family(
    [[parse_poly("1-x^2"), parse_poly("-x*y")], [parse_poly("-x*y"), parse_poly("1-y^2")]],
    parse_poly("-5*x"), parse_poly("-5*y"))


@example(_DISK_DATA)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(pearson_data())
def test_lambda_matches_the_level_m_solve_on_pearson_data(f):
    # eigen-columns of f's level-0 operator where they are easy to build
    # (the reduction then runs at every level), else the triangle's columns
    # (level 0 has no constant solution, so the level-m solve runs)
    cols = _eigen_columns(f, 5)
    sys = OrthoSystem(f, cols or _triangle_columns())
    for n in range(1, 6):
        for m in range(6 - n):
            got = _result(characterize._lambda, sys, n, m)
            assert got == _result(lambda_via_operator, sys, n, m), (n, m)
            if cols is not None:
                assert isinstance(got, PolyMatrix), (n, m)


def test_lambda_keeps_criterion_5s_random_stack_without_an_eigenvalue_matrix():
    f = builtin("product_hermite")
    top = random_rational_matrix(4, 4, random.Random(7)) @ x_vec(3)
    fake = OrthoSystem(f, [*(build_monic(f, 2).p(k) for k in range(3)), top])
    got = _result(characterize._lambda, fake, 2, 1)
    assert got[0] == NoConstantSolution.__name__
    assert got == _result(lambda_via_operator, fake, 2, 1)


def test_each_failing_solve_runs_once(monkeypatch):
    # _lambda keeps a NoConstantSolution as its message, so (d) at n + m
    # reads (c)'s failure at (n, m) instead of solving again; 23 raising
    # solves on these 16 cells when only results were kept
    f = builtin("hermite_laguerre(1)")
    raised = []
    real = characterize.lambda_via_operator

    def spy(sys, n, m):
        try:
            return real(sys, n, m)
        except NoConstantSolution:
            raised.append((n, m))
            raise

    monkeypatch.setattr(characterize, "lambda_via_operator", spy)
    got = verify_all(f, nmax=8, mmax=2, properties=("c", "d"))
    assert len(raised) == len(set(raised)) == 16
    monkeypatch.setattr(characterize, "_lambda", _direct_lambda)
    assert [r.notes for r in got] == [r.notes for r in verify_all(
        f, nmax=8, mmax=2, properties=("c", "d"))]


# ---------------------------------------------------------------------------
# the paper's leading-coefficient formula is _lambda's matrix (check_c)


def _assert_formula_is_lambda(sys, cells) -> list:
    """lambda_via_formula equals _lambda on every cell where _lambda solves; those cells."""
    solved = []
    for n, m in cells:
        got = _result(characterize._lambda, sys, n, m)
        if isinstance(got, PolyMatrix):
            assert lambda_via_formula(sys.family, n, m) == got, (n, m)
            solved.append((n, m))
        else:
            assert got[0] == NoConstantSolution.__name__, (n, m, got)
    return solved


@pytest.mark.parametrize("ref", INSTANCES)
def test_formula_is_lambda_on_every_cell(ref):
    cells = [(n, m) for n in range(1, 7) for m in range(6) if n + m <= 6]
    solved = _assert_formula_is_lambda(build_monic(builtin(ref), 6), cells)
    # level 0 solves on every built-in
    assert {(n, 0) for n in range(1, 7)} <= set(solved)


@example(_DISK_DATA)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(pearson_data())
def test_formula_is_lambda_on_pearson_data(f):
    # on eigen-columns of the level-0 operator, where level 0 solves
    cols = _eigen_columns(f, 5)
    if cols is not None:
        cells = [(n, m) for n in range(1, 6) for m in range(6 - n)]
        assert len(_assert_formula_is_lambda(OrthoSystem(f, cols), cells)) == len(cells)


def test_formula_is_lambda_on_criterion_5s_random_stack():
    # q(3, 0) and q(2, 1), the random column and its gradient, have no
    # eigenvalue matrix; every other cell has one, q(1, 2) a scalar
    f = builtin("product_hermite")
    top = random_rational_matrix(4, 4, random.Random(7)) @ x_vec(3)
    fake = OrthoSystem(f, [*(build_monic(f, 2).p(k) for k in range(3)), top])
    cells = [(n, m) for n in range(1, 4) for m in range(3) if n + m <= 3]
    assert _assert_formula_is_lambda(fake, cells) == [(1, 0), (1, 1), (1, 2), (2, 0)]


# ---------------------------------------------------------------------------
# whole (c) and (d) reports, and the disk


def _c_d_reports(f):
    return verify_all(f, nmax=4, mmax=2, properties=("c", "d"))


@pytest.mark.parametrize("ref", [*INSTANCES, "disk"])
def test_c_and_d_reports_match_the_direct_routes(ref, monkeypatch):
    f = load_family(DISK) if ref == "disk" else builtin(ref)
    got = _c_d_reports(f)
    monkeypatch.setattr(characterize, "_lambda", _direct_lambda)
    monkeypatch.setattr(characterize, "_lifted_pearson", lambda sys, m: False)
    assert got == _c_d_reports(f)


def test_disk_reaches_the_divergence_identity_above_level_0(monkeypatch):
    f = load_family(DISK)
    assert check_pearson(f) and not check_phi_conditions(f)
    calls = []
    real = characterize.cleared_divergence
    monkeypatch.setattr(characterize, "cleared_divergence",
                        lambda *args: calls.append(args) or real(*args))
    reports = _c_d_reports(f)
    assert [r.status for r in reports if r.property == "c"] == ["pass"] * 12
    d = {r.n: r for r in reports if r.property == "d"}
    assert (d[1].status, d[1].notes) == ("pass", "")
    for n in (2, 3, 4):
        assert d[n].status == "fail"
        assert d[n].notes == "; ".join(f"level {k}: divergence identity fails"
                                       for k in range(1, n))
    # one identity per level m >= 1 of n = 2, 3, 4; level 0 is Pearson's corollary
    assert len(calls) == 1 + 2 + 3


def test_b_and_d_read_one_lifted_pearson_verdict_per_level_class(monkeypatch):
    levels = []
    monkeypatch.setattr(characterize, "level_pearson_check",
                        lambda f, m: levels.append(m) or level_pearson_check(f, m))
    reports = verify_all(builtin("triangle(1,1,1)"), nmax=4, mmax=2, properties=("b", "d"))
    assert all(r.status == "pass" for r in reports)
    assert sorted(levels) == [0, 1]


# ---------------------------------------------------------------------------
# (b) and (e): the by-parts operator against the contraction


def _contracted(sys, n, m):
    """The gram_record of gram(n, m) and the cross terms below it, each by a moment contraction."""
    w = sys.weighted_rows(n, m)
    [gram] = integrate_rows([sys.counted_rows(n, m)], w, sys.family)
    cross = integrate_rows([sys.counted_rows(k, m) for k in range(n)], w, sys.family)
    return _gram_record(*gram), cross


def _route(sys, n, m):
    """True where gram(n, m) and its cross terms were read off level 0 by parts."""
    return sys._memo.get(("by parts", n + m, m), False)


def _e_route(sys, n, m):
    """True where check_e's exact cell (n, m) was decided by parts."""
    return sys._memo[("e by parts", n, m)] is not False


def _b_e_reports(sys, nmax, mmax, props="be"):
    return ([check_b(sys, n, m) for n in range(1, nmax + 1) for m in range(1, mmax + 1)
             if "b" in props]
            + [check_e(sys, n, m) for n in range(1, nmax + 1) for m in range(mmax + 1)])


def _contraction_reports(monkeypatch, f, nmax, mmax, props="be"):
    """_b_e_reports on a fresh system with the by-parts guard forced off: the oracle."""
    with monkeypatch.context() as mp:
        mp.setattr(byparts, "_by_parts", lambda *args: False)
        return _b_e_reports(build_monic(f, nmax + mmax + 1), nmax, mmax, props)


def _ratios(rows, d):
    return const_matrix([[Fraction(v, d) for v in row] for row in rows])


@pytest.mark.parametrize("ref", ALL_INSTANCES)
def test_gram_blocks_and_cross_terms_by_parts_match_the_contraction(ref):
    f = builtin(ref)
    sys = build_monic(f, 9)
    for n in range(6):  # (e) reads gram(0, m)
        for m in range(1, 4):
            gram, cross = _contracted(sys, n, m)
            assert sys.gram_record(n, m) == gram, (n, m)
            assert sys.cross_rows(n, m) == cross, (n, m)
            # the guard asks for no scalar zero-order term
            assert _route(sys, n, m), (n, m)
            assert not any(any(map(any, rows)) for rows, _ in cross), (n, m)
    # degree n + m = N is past the construction's own records: integrated
    assert sys.gram_record(6, 3) == _contracted(sys, 6, 3)[0]
    assert not _route(sys, 6, 3)
    # gram(N, 0), which (e)'s corner reads, off the moment table
    assert sys.gram_record(9, 0) == _contracted(sys, 9, 0)[0]


def test_blocks_whose_zero_order_terms_are_not_scalar_are_read_by_parts():
    # the guard that multiplied eigenvalue factors refused 22 of these 60
    # blocks, N = 7, m <= 3, because some C_j below level m is not scalar
    refused = 0
    for ref in ["hermite_laguerre(1)", "product_jacobi(1/2,1/2,1/2,1/2)",
                "product_jacobi(1,2,0,0)", "triangle(1,1,1)"]:
        f = builtin(ref)
        sys = build_monic(f, 7)
        tower = psi_tower(f, 2)
        for m in range(1, 4):
            for k in range(7 - m):
                assert sys.gram_record(k, m) == _contracted(sys, k, m)[0], (ref, k, m)
                assert _route(sys, k, m), (ref, k, m)
                refused += any(tower.level(j).zero_order_scalar() is None for j in range(1, m))
    assert refused == 22


@pytest.mark.parametrize("ref", INSTANCES)
def test_t_block_is_the_eigenvalue_product_where_the_zero_order_terms_are_scalar(ref):
    f = builtin(ref)
    sys = build_monic(f, 8)
    tower = psi_tower(f, 3)
    checked = 0
    for m in range(1, 4):
        cs = [0] + [tower.level(j).zero_order_scalar() for j in range(1, m)]
        if None in cs:
            continue
        for k in range(8 - m):
            rows, d, full = byparts._t_block(sys, k, m)
            lam = characterize._lambda(sys, k + m, 0)
            want = PolyMatrix.identity(lam.rows).scale((-1) ** m)
            for c in cs:
                want = want @ (lam + PolyMatrix.identity(lam.rows).scale(c))
            assert _ratios(rows, d) == want, (k, m)
            assert full == (det_exact(want) != 0), (k, m)
            checked += 1
    assert checked >= 7


@pytest.mark.parametrize("ref", INSTANCES)
def test_the_lowest_projection_is_l_transposed_times_the_level_0_gram_block(ref):
    # N_(n-1) = (-1)^(m+1) L_i^t gram(n + m, 0), half i beside half i of
    # check_e's contraction, [N_top | N_bot]
    f = builtin(ref)
    sys = build_monic(f, 7)
    d = psi_tower(f, 0).level(0).class_sums[1]
    for n in range(1, 6):
        for m in range(6 - n):
            w = hstack(*row_halves(sys.weighted_rows(n - 1, m + 1)))
            [(rows, dn)] = integrate_rows([sys.counted_rows(n - 1, m)], w, f)
            cols = list(zip(*byparts._l_pair(sys, n, m)))  # the columns of [L_1 | L_2]
            c = n + m
            halves = [(_ratios(cols[i * c:(i + 1) * c], d ** (m + 1))
                       @ sys.gram(n + m, 0)).scale((-1) ** (m + 1)) for i in (0, 1)]
            assert _ratios(rows, dn) == hstack(*halves), (n, m)


@pytest.mark.parametrize("ref", INSTANCES)
@pytest.mark.parametrize("nmax, mmax", [(4, 2), (3, 0)])
def test_b_and_e_by_parts_match_the_contraction_on_every_cell(ref, nmax, mmax, monkeypatch):
    f = builtin(ref)
    sys = build_monic(f, nmax + mmax + 1)
    assert _b_e_reports(sys, nmax, mmax) == _contraction_reports(monkeypatch, f, nmax, mmax)
    # every cell reads the operator, the corner (nmax, mmax) too; where
    # deg phi < 2 and mmax >= 1 the corner reads gram(nmax + 1, mmax) off
    # its direct record, not off T_(nmax+1)
    for n in range(1, nmax + 1):
        for m in range(mmax + 1):
            assert _e_route(sys, n, m), (n, m)
    if mmax:
        direct = f.phi.degree < 2
        assert (("gram record", nmax + 1, mmax) in sys._memo) == direct
        assert (("T", nmax + 1, mmax) in sys._memo) == (not direct)


def test_criterion_5s_controls_take_the_contraction(monkeypatch):
    f = builtin("product_hermite")
    pert = dataclasses.replace(f, psi1=f.psi1 + parse_poly("1"))  # Pearson fails
    cubic = dataclasses.replace(f, phi=PolyMatrix.from_rows([
        [parse_poly("1 + x^3"), parse_poly("x*y")],
        [parse_poly("x*y"), parse_poly("1")],
    ]))  # the functional check refuses a cubic weight matrix; (b) raises on it
    for g, props in ((pert, "be"), (cubic, "e")):
        sys = build_monic(g, 6)
        assert _b_e_reports(sys, 3, 2, props) == _contraction_reports(monkeypatch, g, 3, 2, props)
        assert not any(_e_route(sys, n, m) for n in range(1, 4) for m in range(3))
        assert not any(_route(sys, n, m) for n in range(1, 4) for m in range(1, 3))
    rep = check_e(build_monic(cubic, 6), 3, 0)
    assert rep.status == "fail" and "projection on stack" in rep.notes


def test_criterion_5s_hand_built_system_takes_the_contraction(monkeypatch):
    f = builtin("product_hermite")
    built = build_monic(f, 3)
    top = random_rational_matrix(4, 4, random.Random(7)) @ x_vec(3)

    def fake():
        got = OrthoSystem(f, [*(built.p(k) for k in range(3)), top])
        # level-0 records in the memo, as the construction leaves them, are not enough
        got._memo.update((key, rec) for key, rec in built._memo.items()
                         if key[0] == "gram record")
        return got

    sys = fake()
    gram, cross = _contracted(sys, 1, 1)
    assert sys.cross_rows(1, 1) == cross
    assert sys.gram_record(1, 1) == gram
    assert not sys.constructed and not _route(sys, 1, 1)
    got = [check_e(sys, n, m) for n, m in [(1, 0), (1, 1), (2, 0)]]
    assert not any(_e_route(sys, n, m) for n, m in [(1, 0), (1, 1), (2, 0)])
    with monkeypatch.context() as mp:
        mp.setattr(byparts, "_by_parts", lambda *args: False)
        other = fake()
        assert got == [check_e(other, n, m) for n, m in [(1, 0), (1, 1), (2, 0)]]


def test_the_disk_takes_the_contraction_from_level_2(monkeypatch):
    # phi_conditions fails, so the lifted Pearson equation does not hold at
    # level 1: (b) reads level 1 by parts, and (e) level 0, whose one step
    # needs no lifted equation
    f = load_family(DISK)
    sys = build_monic(f, 6)
    assert byparts._functional_pearson(sys)
    for n in range(1, 4):
        for m in range(1, 3):
            gram, cross = _contracted(sys, n, m)
            assert sys.gram_record(n, m) == gram, (n, m)
            assert sys.cross_rows(n, m) == cross, (n, m)
            assert _route(sys, n, m) == (m == 1), (n, m)
    assert psi_tower(f, 1).level(1).zero_order_scalar() is not None
    sys = build_monic(f, 6)
    assert _b_e_reports(sys, 3, 2) == _contraction_reports(monkeypatch, f, 3, 2)
    for n in range(1, 4):
        for m in range(3):
            assert _e_route(sys, n, m) == (m == 0), (n, m)


def _shifted_hermite(degree):
    """The Pearson data of exp(-x^2 + x - y^2) with the moments of exp(-x^2 - y^2)."""
    herm = builtin("product_hermite")
    return load_family({
        "name": "shifted_hermite",
        "phi": [["1", "0"], ["0", "1"]],
        "psi1": "1-2*x",
        "psi2": "-2*y",
        "log_grad_x": {"num": "1-2*x", "den": "1"},
        "log_grad_y": {"num": "-2*y", "den": "1"},
        "domain": {"kind": "plane"},
        "moments": [[i, d - i, str(herm.moment(i, d - i))]
                    for d in range(degree + 1) for i in range(d + 1)],
    })


def test_moments_of_another_weight_take_the_contraction(monkeypatch):
    # Pearson's equation holds pointwise, but these moments do not solve it
    f = _shifted_hermite(13)
    sys = build_monic(f, 6)
    assert check_pearson(f) and not byparts._functional_pearson(sys)
    for n in range(1, 4):
        for m in range(1, 3):
            gram, cross = _contracted(sys, n, m)
            assert sys.gram_record(n, m) == gram, (n, m)
            assert sys.cross_rows(n, m) == cross, (n, m)
            assert not _route(sys, n, m), (n, m)
    sys = build_monic(f, 6)
    assert _b_e_reports(sys, 3, 2) == _contraction_reports(monkeypatch, f, 3, 2)
    assert not any(_e_route(sys, n, m) for n in range(1, 4) for m in range(3))


@pytest.mark.parametrize("ref", INSTANCES)
def test_builtin_moments_solve_the_functional_pearson_equations(ref):
    assert byparts._functional_pearson(build_monic(builtin(ref), 6))


@pytest.mark.parametrize("ref", ["triangle(1,1,1)", "hermite_laguerre(1)"])
@pytest.mark.parametrize("degree", [10, 11, 12])
def test_a_moments_table_changed_at_the_top_takes_the_contraction(ref, degree, monkeypatch):
    # N = nmax + mmax + 1 = 6: the construction reads the moments to
    # degree 2N - 1 = 11, and so does the functional check.  With a moment
    # of degree 10 doubled, gram(n, m) at n + m = 5 is not the by-parts
    # product; with one of degree 11 it still is, but only the check's
    # degree bound knows that.  One of degree 12 = 2N is read by the
    # triangle's corner (3, 2) alone (deg phi = 2): by its contraction,
    # and by the by-parts check there too, which then fails.
    # hermite_laguerre's corner (deg phi = 1) reads no moment past 11 on
    # either route, and takes it by parts
    doc = export_family(builtin(ref), moment_degree=12)
    assert byparts._functional_pearson(build_monic(load_family(doc), 6), 11)
    entry = next(entry for entry in doc["moments"] if entry[:2] == [0, degree])
    entry[2] = str(Fraction(entry[2]) * 2)
    f = load_family(doc)
    sys = build_monic(f, 6)
    assert byparts._functional_pearson(sys) == (degree == 12)
    for n, m in [(4, 1), (3, 2), (2, 3)]:
        gram, cross = _contracted(sys, n, m)
        assert sys.gram_record(n, m) == gram, (n, m)
        assert sys.cross_rows(n, m) == cross, (n, m)
        assert _route(sys, n, m) == (degree == 12), (n, m)
    sys = build_monic(f, 6)
    assert _b_e_reports(sys, 3, 2) == _contraction_reports(monkeypatch, f, 3, 2)
    for n in range(1, 4):
        for m in range(3):
            assert _route(sys, n, m) == (m > 0 and degree == 12), (n, m)
            assert _e_route(sys, n, m) == (degree == 12 and (
                (n, m) != (3, 2) or f.phi.degree < 2)), (n, m)


def test_a_singular_t_block_decides_its_stack_and_sends_higher_cells_to_the_contraction(
        monkeypatch):
    # the curl test needs T_k nonsingular for every k <= n - 2; T_0 forced
    # singular (a repeated row) is "level gram singular at stack 0" at n = 1,
    # on both routes, and sends n = 2, 3 to the contraction, whose reports
    # do not read T_0
    f = builtin("triangle(1,1,1)")
    want = {n: check_e(build_monic(f, 7), n, 1) for n in (2, 3)}
    sys = build_monic(f, 7)
    rows, d, _ = byparts._t_block(sys, 0, 1)
    sys._memo[("T", 0, 1)] = ([rows[0], rows[0], *rows[2:]], d, False)
    assert sys.gram_record(0, 1).inv is None
    for n in (2, 3):
        assert check_e(sys, n, 1) == want[n]
        assert not _e_route(sys, n, 1)
    got = check_e(sys, 1, 1)
    assert (got.status, got.notes) == ("fail", "level gram singular at stack 0")
    assert _e_route(sys, 1, 1)
    with monkeypatch.context() as mp:
        mp.setattr(byparts, "_by_parts", lambda *args: False)
        del sys._memo[("e by parts", 1, 1)]
        assert check_e(sys, 1, 1) == got


def test_a_b_run_on_a_moments_table_that_stops_at_2n_minus_1(tmp_path):
    # N = nmax + mmax + 1 = 8: the construction reads moments to degree 15
    # and the functional check no further, so every cell passes as before
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(export_family(builtin("triangle(1,1,1)"), moment_degree=15)))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(["verify", "--family", str(path), "--properties", "b",
                           "--nmax", "4", "--mmax", "3"])
    assert status == 0
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == \
        "5bde2852a57caba444903f717a540c76ce40e33d6d4563ef4a0f3f49c2fe126e"


def test_a_drift_tower_that_cannot_be_built_takes_the_contraction():
    # a quadratic psi: psi_tower raises inside the guard, which gives False
    f = dataclasses.replace(builtin("product_hermite"), psi1=parse_poly("x^2"))
    sys = build_monic(f, 5)
    for n, m in [(1, 1), (2, 2)]:
        assert sys.gram_record(n, m) == _contracted(sys, n, m)[0]
        assert not _route(sys, n, m)
    check_e(sys, 1, 1)
    assert not _e_route(sys, 1, 1)


# ---------------------------------------------------------------------------
# (e)'s corner where deg phi < 2, and the operator's inputs built once


@pytest.mark.parametrize("ref, nmax, mmax, depth", [("product_laguerre(1,2)", 4, 2, 13),
                                                    ("product_hermite", 3, 3, 13),
                                                    ("hermite_laguerre(1)", 6, 3, 19)])
def test_a_table_cut_at_the_runs_depth_takes_the_corner_by_parts(ref, nmax, mmax, depth):
    # deg phi < 2: the run's table stops at 2N - 1 = depth, the corner's
    # guard reads no moment past it, and the direct record of gram(nmax +
    # 1, mmax) none past 2(nmax + 1) + mmax deg phi
    f = builtin(ref)
    cut = load_family(export_family(f, moment_degree=depth))
    got = verify_all(cut, nmax, mmax)
    assert got == verify_all(f, nmax, mmax)
    assert not [r for r in got if r.notes.startswith("error")]
    sys = build_monic(cut, nmax + mmax + 1)
    check_e(sys, nmax, mmax)
    assert _e_route(sys, nmax, mmax)
    with pytest.raises(OracleUnavailableError):  # depth is the run's own
        verify_all(load_family(export_family(f, moment_degree=depth - 1)), nmax, mmax)


def test_a_singular_direct_record_at_the_corner_is_a_singular_stack(monkeypatch):
    # gram(5, 2) at the corner (4, 2), N = 7, forced singular (a repeated
    # row): the corner reads it, by parts and by the contraction alike
    sys = build_monic(builtin("product_laguerre(1,2)"), 7)
    rec = sys.gram_record(5, 2)
    sys._memo[("gram record", 5, 2)] = _gram_record([rec.rows[0], *rec.rows[1:-1], rec.rows[0]],
                                                    rec.den)
    got = check_e(sys, 4, 2)
    assert (got.status, got.notes) == ("fail", "level gram singular at stack 5")
    assert _e_route(sys, 4, 2)
    with monkeypatch.context() as mp:
        mp.setattr(byparts, "_by_parts", lambda *args: False)
        del sys._memo[("e by parts", 4, 2)]
        assert check_e(sys, 4, 2) == got


def test_lead_blocks_are_built_once_and_check_e_contracts_nothing(monkeypatch):
    built = collections.Counter()

    def spy(real):
        def wrapped(*args):
            built[args[-2:]] += 1
            return real(*args)
        return wrapped

    for name in ("g_lead_rows", "_g_lead_step"):
        monkeypatch.setattr(byparts, name, spy(getattr(byparts, name)))
    verify_all(builtin("triangle(1,1,1)"), 5, 3)
    assert built and set(built.values()) == {1}
    contractions = []
    monkeypatch.setattr(characterize, "integrate_rows",
                        lambda *args: contractions.append(args) or integrate_rows(*args))
    for ref in ("product_hermite", "product_laguerre(1,2)", "hermite_laguerre(1)",
                "product_jacobi(1/2,1/2,1/2,1/2)", "triangle(1,1,1)"):
        verify_all(builtin(ref))
    assert not contractions


# ---------------------------------------------------------------------------
# (b)'s Gram verdict off T_n, and level-0 Lambda off T(n - 1, 1)


@pytest.mark.parametrize("ref", INSTANCES)
def test_b_reads_its_gram_verdict_off_t_n_without_a_level_record(ref, monkeypatch):
    # gram(n, m) = (-1)^m gram(n + m, 0) T_n with gram(n + m, 0) the
    # construction's nonsingular record: the verdicts agree with the
    # contracted block's determinant, and the reports with the guard-off run
    f = builtin(ref)
    sys = build_monic(f, 7)
    cells = [(n, m) for n in range(1, 4) for m in range(1, 4)]
    got = [check_b(sys, n, m) for n, m in cells]
    assert not [key for key in sys._memo if key[0] == "gram record" and key[2]]
    for n, m in cells:
        assert _route(sys, n, m), (n, m)
        assert byparts._t_block(sys, n, m)[2] == (_contracted(sys, n, m)[0].det != 0), (n, m)
    with monkeypatch.context() as mp:
        mp.setattr(byparts, "_by_parts", lambda *args: False)
        other = build_monic(f, 7)
        assert got == [check_b(other, n, m) for n, m in cells]


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(pearson_data())
def test_b_gram_verdict_is_the_blocks_determinant_on_pearson_data(f):
    # with the triangle's moments the functional check refuses, so check_b
    # reads the contracted record, singular on some draws; where the draw
    # has eigen-columns, T_n is nonsingular iff its eigenvalue product is
    # (test_t_block_is_the_eigenvalue_product_where_the_zero_order_terms_are_scalar)
    sys = build_monic(dataclasses.replace(f, moment_fn=builtin("triangle(1,1,1)").moment_fn), 6)
    for n in range(1, 4):
        for m in range(1, 3):
            singular = "level gram singular" in check_b(sys, n, m).notes
            assert singular == (_contracted(sys, n, m)[0].det == 0), (n, m)
            assert not _route(sys, n, m), (n, m)
    cols = _eigen_columns(f, 6)
    if cols is None:
        return
    hand = OrthoSystem(f, cols)
    tower = psi_tower(f, 3)
    for m in range(1, 4):
        cs = [0] + [tower.level(j).zero_order_scalar() for j in range(1, m)]
        assert None not in cs  # phi's quadratic part is c x x^t and the drift d I
        for k in range(6 - m):
            lam = characterize._lambda(hand, k + m, 0)
            want = Fraction(1)
            for c in cs:
                want *= det_exact(lam + PolyMatrix.identity(lam.rows).scale(c))
            assert byparts._t_block(hand, k, m)[2] == (want != 0), (k, m)


def test_a_singular_t_n_is_a_singular_level_gram_block_in_b():
    # T_2 at level 1 forced singular (a repeated row): only check_b(2, 1)
    # reads it, and it builds no record of gram(2, 1) to decide
    sys = build_monic(builtin("triangle(1,1,1)"), 7)
    rows, d, _ = byparts._t_block(sys, 2, 1)
    sys._memo[("T", 2, 1)] = ([rows[0], rows[0], *rows[2:]], d, False)
    got = check_b(sys, 2, 1)
    assert (got.status, got.notes) == ("fail", "level gram singular")
    assert ("gram record", 2, 1) not in sys._memo
    assert [check_b(sys, n, m).status for n, m in [(1, 1), (3, 1), (2, 2)]] == ["pass"] * 3
    # the block read by parts is singular too
    assert sys.gram_record(2, 1).det == 0


def _spy_constant_solves(monkeypatch):
    """Record the row count of every _solve_constant_right_factor call."""
    calls = []
    real = characterize._solve_constant_right_factor

    def spy(q, rhs):
        calls.append(q.rows)
        return real(q, rhs)

    monkeypatch.setattr(characterize, "_solve_constant_right_factor", spy)
    return calls


def _drifted(ref):
    """criterion 5's perturbed drift, psi_1 + x/3: no level-0 cell past n = 1 solves."""
    f = builtin(ref)
    return dataclasses.replace(f, psi1=f.psi1 + parse_poly("1/3*x"))


def _c_branch(sys, n, m) -> str:
    """Which step of lambda_via_operator decided a build_monic system's cell."""
    if isinstance(_result(lambda_via_formula, sys.family, n, m), tuple):
        return "top layer inconsistent"
    return "theorem" if not m and sys._by_parts(n - 1, 1) else "solve"


@pytest.mark.parametrize("ref, drift", [(ref, False) for ref in ALL_INSTANCES]
                         + [(ref, True) for ref in ("product_hermite", "triangle(1,1,1)",
                                                    "product_laguerre(1,2)")])
def test_c_on_a_constructed_system_is_the_coefficient_solve(ref, drift, monkeypatch):
    # lambda_via_operator on the construction's system (the formula, then
    # the theorem or the solve) against the coefficient solve that a
    # hand-built system with the same columns takes, message included, on
    # every cell n <= 8, m <= 4 and at level 0 to n = N = 12; it runs
    # that solve exactly where the top layer solves and the theorem does
    # not apply.  A run, through _lambda, solves at level 0 alone, where
    # OrthoSystem._by_parts(n - 1, 1) fails (n = N, and every n on a
    # drifted family, whose cells past n = 1 have no eigenvalue matrix):
    # above level 0 the top layer solves only where C~_m is scalar, and
    # there _lambda reads level 0, or fails with it on a drifted family
    f = _drifted(ref) if drift else builtin(ref)
    sys = build_monic(f, 12)
    hand = OrthoSystem(f, [sys.p(k) for k in range(13)])
    cells = [(n, m) for n in range(1, 9) for m in range(5)] + [(n, 0) for n in range(9, 13)]
    solves = _spy_constant_solves(monkeypatch)
    branches = collections.defaultdict(list)
    for cell in cells:
        del solves[:]
        got = _result(lambda_via_operator, sys, *cell)
        branch = _c_branch(sys, *cell)
        branches[branch].append(cell)
        assert len(solves) == (branch == "solve"), (cell, branch)
        assert got == _result(lambda_via_operator, hand, *cell), cell
    assert [sys._by_parts(n - 1, 1) for n in range(1, 13)] == [not drift] * 11 + [False]
    level_0 = [(n, 0) for n in range(1, 13)]
    assert sorted(branches["theorem"]) == ([] if drift else level_0[:-1]), branches
    # level 0 has G = I, and above it the top layer solves iff C~_m is scalar
    tower = psi_tower(f, 4)
    assert sorted(branches["top layer inconsistent"]) == [
        (n, m) for n, m in cells if m and tower.level(m).zero_order_scalar() is None]
    run = build_monic(f, 12)
    del solves[:]
    lams = {cell: _result(characterize._lambda, run, *cell) for cell in cells}
    assert solves == [1] * (12 if drift else 1)
    assert drift == all(isinstance(lams[n, 0], tuple) for n in range(2, 13))


def _assert_top_layer_solves_where_the_zero_order_term_is_scalar(f, nmax, mmax):
    # lambda_via_formula's docstring: above level 0 the top layer solves
    # iff C~_m = c I, and then L = Lambda_top(n + m, 0) + c I
    tower = psi_tower(f, mmax)
    for m in range(1, mmax + 1):
        c = tower.level(m).zero_order_scalar()
        for n in range(1, nmax + 1):
            got = _result(lambda_via_formula, f, n, m)
            if c is None:
                assert got == ("InconsistentSystemError", "no constant solution matches every row")
            else:
                low = lambda_via_formula(f, n + m, 0)
                assert got == low + PolyMatrix.identity(low.rows).scale(c), (n, m)


@pytest.mark.parametrize("ref", INSTANCES)
def test_the_top_layer_solves_exactly_where_the_zero_order_term_is_scalar(ref):
    _assert_top_layer_solves_where_the_zero_order_term_is_scalar(builtin(ref), 5, 4)
    _assert_top_layer_solves_where_the_zero_order_term_is_scalar(_drifted(ref), 3, 3)


@example(_LEVEL_TWO_ONLY)
@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(pearson_data())
def test_the_top_layer_solves_exactly_where_the_zero_order_term_is_scalar_on_pearson_data(f):
    _assert_top_layer_solves_where_the_zero_order_term_is_scalar(f, 3, 3)


def test_the_top_layer_reads_a_non_symmetric_phi_as_the_level_operator_does():
    # validate_family rejects such a phi, but a family put in by hand may
    # carry one: op_m's mixed term reads phi[0, 1] alone, and the top layer
    # must too, else the formula misses the coefficient solve on monomial
    # columns, whose images are homogeneous: there the top layer is the
    # whole equation
    f = _pearson_family(
        [[parse_poly("2*x^2"), parse_poly("3*x*y")], [parse_poly("5*x*y"), parse_poly("4*y^2")]],
        parse_poly("-2*x"), parse_poly("-4*y"))
    hand = OrthoSystem(f, [x_vec(k) for k in range(8)])
    solved = 0
    for n in range(1, 5):
        for m in range(4):
            got = _result(lambda_via_formula, f, n, m)
            want = _result(lambda_via_operator, hand, n, m)
            if isinstance(got, tuple):
                got = ("NoConstantSolution", f"inconsistent coefficient system: {got[1]}")
            assert got == want, (n, m)
            solved += isinstance(got, PolyMatrix)
    assert solved >= 4


def test_a_hand_built_system_takes_the_solver_at_level_0(monkeypatch):
    # criterion 5's random degree-3 column is not monic: its top layer is
    # no eigenvalue matrix, and the solver finds none
    f = builtin("product_hermite")
    top = random_rational_matrix(4, 4, random.Random(7)) @ x_vec(3)
    fake = OrthoSystem(f, [*(build_monic(f, 2).p(k) for k in range(3)), top])
    solves = _spy_constant_solves(monkeypatch)
    got = _result(lambda_via_operator, fake, 3, 0)
    assert solves == [1]
    assert got[0] == NoConstantSolution.__name__
    assert got[1].startswith("inconsistent coefficient system")


# ---------------------------------------------------------------------------
# (e)'s reconstruction off phi's curl symbol, against the curl product

def _curl_residual(sys, n, m):
    """The curl residuals r_(i,s), s < m, of check_e's left side as one polynomial matrix.

    Row (i, s) is sum_j (d_y phi_ij d_j S_s - d_x phi_ij d_j S_(s+1)), S
    = q_rows(n, m), read as a product with q_rows(n - 1, m + 1), whose row
    s + j is d_j S_s: the product the symbol test replaced.
    """
    phi = sys.family.phi
    rows = []
    for i in (0, 1):
        for s in range(m):
            row = [ZERO] * (m + 2)
            for j in (0, 1):
                row[s + j] = row[s + j] + phi[i, j].dy()
                row[s + j + 1] = row[s + j + 1] - phi[i, j].dx()
            rows.append(row)
    return PolyMatrix.from_rows(rows) @ sys.q_rows(n - 1, m + 1)


def _assert_symbol_is_the_curl_product(f, nmax, mmax) -> set:
    """Every guarded cell's reconstruction note is the curl product's; the verdicts seen."""
    sys = build_monic(f, nmax + mmax + 1)
    seen = set()
    for n in range(1, nmax + 1):
        for m in range(mmax + 1):
            notes = byparts._e_by_parts(sys, n, m)
            if notes is False or notes and notes[0].startswith("level gram singular"):
                continue
            want = bool(m) and not _curl_residual(sys, n, m).is_zero
            got = "three term reconstruction misses the left side" in notes
            assert got == want, (f.name, n, m, notes)
            seen.add((m > 0, want))
    return seen


def test_the_curl_symbol_is_the_curl_product_on_criterion_2s_instances():
    # constant phi (product_hermite), linear (product_laguerre,
    # hermite_laguerre) and quadratic (triangle, product_jacobi): the
    # reconstruction holds on every cell of the first, and fails on every
    # cell above level 0 of the others
    degrees = set()
    for ref in INSTANCES:
        f = builtin(ref)
        seen = _assert_symbol_is_the_curl_product(f, 4, 3)
        assert seen == {(False, False), (True, f.phi.degree > 0)}, ref
        degrees.add(f.phi.degree)
    assert degrees == {0, 1, 2}


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_admissible_families())
def test_the_curl_symbol_is_the_curl_product_on_drawn_parameters(f):
    # the families test_criterion_02_rule_holds_on_drawn_parameters draws,
    # on its grid
    assert (True, True) in _assert_symbol_is_the_curl_product(f, 3, 2)


def test_a_guarded_run_builds_no_polynomial_stack(monkeypatch):
    # every (e) cell of the triangle is decided by parts, and no other
    # property reads a stack there: no q_rows entry enters the memo
    keys = collections.Counter()
    real = OrthoSystem.cached

    def spy(self, key, make):
        keys[key[0]] += 1
        return real(self, key, make)

    monkeypatch.setattr(OrthoSystem, "cached", spy)
    verify_all(builtin("triangle(1,1,1)"), 6, 3)
    assert keys["e by parts"] == 6 * 4 and not keys["q_rows"]
    # (e) alone: where deg phi < 2 the corner's direct record of gram(5,
    # 2) is contracted, and its stacks are the only ones built
    for ref in INSTANCES:
        f = builtin(ref)
        sys = build_monic(f, 7)
        for n in range(1, 5):
            for m in range(3):
                check_e(sys, n, m)
                assert _e_route(sys, n, m), (ref, n, m)
        stacks = {key for key in sys._memo if key[0] == "q_rows"}
        assert stacks == ({("q_rows", 5, 2), ("q_rows", 6, 1)} if f.phi.degree < 2
                          else set()), ref


# product_hermite's weight with a non-symmetric phi and the psi that
# Pearson's equation gives it: rows c_i (x, y) plus a constant (c_i = 0,
# since on the plane a linear part makes psi quadratic), and a linear phi
# whose quadratic terms in psi cancel
NON_SYMMETRIC = [((("1", "1"), ("0", "1")), ("-2*x", "-2*x-2*y")),
                 ((("1+y", "0"), ("-x", "1")), ("-2*x", "-2*y"))]


@pytest.mark.parametrize("rows, psi", NON_SYMMETRIC, ids=["constant", "linear"])
def test_a_non_symmetric_phi_takes_the_contraction(rows, psi, monkeypatch):
    # validate_family rejects it, but Pearson's equation and the moments'
    # functional check hold; by parts, level-0 (c) and (e) would pass
    # where the solve and the contraction fail, so the guard refuses it
    f = dataclasses.replace(
        builtin("product_hermite"), name="non_symmetric",
        phi=PolyMatrix.from_rows([[parse_poly(p) for p in row] for row in rows]),
        psi1=parse_poly(psi[0]), psi2=parse_poly(psi[1]))
    with pytest.raises(FamilyLoadError, match="symmetric"):
        validate_family(f)
    sys = build_monic(f, 6)
    assert check_pearson(f) and byparts._functional_pearson(sys)
    assert not any(byparts._by_parts(sys, top, steps)
                   for top in range(1, 6) for steps in range(1, 4))
    got = verify_all(f, 3, 2)
    with monkeypatch.context() as mp:
        mp.setattr(byparts, "_by_parts", lambda *args: False)
        assert got == verify_all(f, 3, 2)
    cells = {(r.property, r.n, r.m): r for r in got}
    assert (cells["a", 0, 0].status, cells["a", 0, 0].notes) == ("fail", "phi not symmetric")
    assert cells["c", 2, 0].status == "fail"
    assert cells["e", 1, 1].status == ("fail" if f.phi.degree else "pass")
