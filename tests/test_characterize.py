from __future__ import annotations

import dataclasses
import functools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from conftest import (
    _consts,
    _l_half_at_3,
    _l_swapped_at_1,
    _l_swapped_at_2,
    _n_half_at_3,
    _n_swapped_at_2,
    l_mat,
    n_mat,
)
from hypothesis import assume, example, given, settings, strategies as st
from test_basisops import random_rational_matrix

from copoly2d import basisops, byparts, characterize, matpoly, orthosys
from copoly2d.basisops import x_vec
from copoly2d.byparts import PsiTower, _level_operator, level_pearson_check
from copoly2d.characterize import (
    AUX_PROPERTIES,
    _solve_constant_right_factor,
    NoConstantSolution,
    PROPERTY_ORDER,
    PropertyReport,
    _report,
    check_a,
    check_b,
    check_c,
    check_d,
    check_e,
    interleaved_det_check,
    lambda_via_formula,
    lambda_via_operator,
    psi_tower,
    rodrigues_reconstruct,
    verify_all,
)
from copoly2d.matpoly import (
    InconsistentSystemError,
    PolyMatrix,
    SingularMatrixError,
    const_matrix,
    det_exact,
    hstack,
    kron,
    rank_exact,
    rat_solve,
    solve_columns,
    vstack,
)
from copoly2d.orthosys import (
    OrthoSystem,
    build_monic,
    g_lead_rows,
    inner,
    integrate_matrix,
    integrate_rows,
)
from copoly2d.polycore import ONE, BivariatePoly, RationalFn, parse_poly
from copoly2d.weights import (
    Domain,
    InvalidParameterError,
    OracleUnavailableError,
    WeightFamily,
    builtin,
    check_phi_conditions,
    cleared_divergence,
    export_family,
    grad_cols,
    load_family,
    make_quadrature,
)

ALL_INSTANCES = [
    "product_hermite",
    "product_laguerre(0,0)",
    "product_laguerre(1,2)",
    "hermite_laguerre(0)",
    "product_jacobi(0,0,0,0)",
    "triangle(0,0,0)",
    "triangle(1,1,1)",
]

# every instance a benchmark seed can draw (the pools of bench/workloads.py)
POOL_INSTANCES = [
    "product_hermite",
    "product_laguerre(1,2)",
    "product_laguerre(2,1)",
    "product_laguerre(1,1)",
    "product_laguerre(0,1)",
    "hermite_laguerre(1)",
    "hermite_laguerre(2)",
    "product_jacobi(1/2,1/2,1/2,1/2)",
    "product_jacobi(3/2,3/2,3/2,3/2)",
    "triangle(1,1,1)",
    "triangle(1,2,1)",
]

_SYSTEMS: dict = {}


def get_system(ref, nmax=7):
    """Share one monic system per family across the module; they are pricey."""
    got = _SYSTEMS.get(ref)
    if got is None or got[1].nmax < nmax:
        f = builtin(ref)
        got = (f, build_monic(f, nmax))
        _SYSTEMS[ref] = got
    return got


# ---------------------------------------------------------------------------
# drift tower


def test_psi_tower_level_zero_is_family_drift():
    for ref in ALL_INSTANCES:
        f = builtin(ref)
        lev = psi_tower(f, 0).level(0)
        assert class_sum_view(lev, 0) == PolyMatrix.from_rows([[f.psi1]])
        assert class_sum_view(lev, 1) == PolyMatrix.from_rows([[f.psi2]])


def test_psi_tower_closed_form_all_builtins():
    for ref in ALL_INSTANCES:
        tw = psi_tower(builtin(ref), 3)
        assert tw.depth == 3 and tw.closed_form_ok, ref


def test_psi_tower_hermite_is_scalar_shift():
    # phi = I for product Hermite, so each level only re-nests the drift:
    # psi_i at level m is the Kronecker lift of the level-0 entries and
    # stays diagonal with entries -2x or -2y, so row 2^s - 1 holds its
    # one entry in column 2^s - 1, of popcount s: the class sums are
    # diagonal too
    f = builtin("product_hermite")
    tw = psi_tower(f, 2)
    for m in (1, 2):
        eye = PolyMatrix.identity(m + 1)
        assert class_sum_view(tw.level(m), 0) == eye.scale(f.psi1)
        assert class_sum_view(tw.level(m), 1) == eye.scale(f.psi2)


def test_psi_tower_rejects_quadratic_drift():
    f = builtin("product_hermite")
    bad = dataclasses.replace(f, psi1=parse_poly("x^2"))
    for _ in range(2):  # a build that raises keeps nothing, so a retry raises again
        with pytest.raises(ValueError):
            psi_tower(bad, 1)


def test_psi_tower_is_kept_per_family():
    # a repeated or shallower call returns the kept tower; a deeper one
    # builds the levels a fresh build gives
    f = builtin("triangle(1,1,1)")
    tw = psi_tower(f, 2)
    assert psi_tower(f, 2) is tw and psi_tower(f, 0) is tw
    deep = psi_tower(f, 3)
    assert deep.depth == 3 and psi_tower(f, 1) is deep
    fresh = psi_tower(builtin("triangle(1,1,1)"), 3)
    assert fresh is not deep and fresh.levels == deep.levels
    # a copy is another family, even with the same data
    assert psi_tower(dataclasses.replace(f), 1) is not deep
    other = dataclasses.replace(f, psi1=parse_poly("2*x - 1"))
    assert class_sum_view(psi_tower(other, 1).level(0), 0) == PolyMatrix.from_rows([[other.psi1]])


def test_a_run_converts_each_levels_drift_data_once(monkeypatch):
    # the tower builds each level's class sums once, and every reader
    # takes them from the kept level: no (n, m) cell builds a level or its
    # rows again, and the tower keeps its levels and lemma2 alone
    made, read = [], []
    real_level, real_read = byparts.PsiLevel, PsiTower.level
    monkeypatch.setattr(byparts, "PsiLevel",
                        lambda *args: made.append(real_level(*args)) or made[-1])
    monkeypatch.setattr(PsiTower, "level",
                        lambda self, m: read.append(real_read(self, m)) or read[-1])
    f = builtin("triangle(1,1,1)")
    reports = verify_all(f, nmax=5, mmax=3)
    assert "error" not in {r.status for r in reports}
    tower = psi_tower(f, 0)
    assert tower.depth >= 3
    assert [id(level) for level in made] == [id(level) for level in tower.levels]
    assert read and {id(level) for level in read} <= {id(level) for level in made}
    assert [fld.name for fld in dataclasses.fields(PsiTower)] == \
        ["levels", "quad", "closed_form_ok"]
    for m, level in enumerate(tower.levels):
        ds, d = level.class_sums
        assert [len(rows) for rows in ds] == [3 * (m + 1)] * 2, m


@pytest.mark.parametrize("nmax, mmax, props, built", [
    (1, 11, "b", 11), (4, 6, "e", 7), (5, 3, None, 5)])
def test_each_tower_level_is_built_once_per_family(monkeypatch, nmax, mmax, props, built):
    # a deeper tower extends the kept one from its last level, so a run
    # builds each level it reads once: (b)'s by-parts operator reads
    # levels up to m - 1 and (e)'s up to m, one at a time, above the
    # run's up-front build
    made = []
    real_level = byparts.PsiLevel
    monkeypatch.setattr(byparts, "PsiLevel",
                        lambda *args: made.append(real_level(*args)) or made[-1])
    f = builtin("triangle(1,1,1)")
    verify_all(f, nmax=nmax, mmax=mmax, properties=props)
    assert len(made) == built
    assert [id(level) for level in made] == [id(level) for level in psi_tower(f, 0).levels]
    g = builtin("triangle(1,1,1)")
    shallow = psi_tower(g, 2)
    deep = psi_tower(g, 5)
    assert deep.depth == 5 and deep.closed_form_ok == shallow.closed_form_ok
    assert all(a is b for a, b in zip(shallow.levels, deep.levels[:3]))


def class_sum_view(level, i):
    """The class sums of psi_(i+1) at a drift tower level, an (m+1) x (m+1) polynomial matrix.

    Rows 3s, 3s + 1 and 3s + 2 of the level's class_sums hold the x, y
    and constant coefficients of row s over the tower denominator.
    """
    rows, d = level.class_sums[0][i], level.class_sums[1]
    return PolyMatrix.from_rows(
        [[BivariatePoly.from_terms({(1, 0): Fraction(x, d), (0, 1): Fraction(y, d),
                                    (0, 0): Fraction(c, d)})
          for x, y, c in zip(*rows[r:r + 3])] for r in range(0, len(rows), 3)])


def oracle_class_sums(psi, m):
    """Row 2^s - 1 of a dense level-m drift matrix summed over the columns of each popcount."""
    rows = [[BivariatePoly.zero()] * (m + 1) for _ in range(m + 1)]
    for s in range(m + 1):
        for c, p in enumerate(psi.row_list(2 ** s - 1)):
            rows[s][bin(c).count("1")] += p
    return PolyMatrix.from_rows(rows)


def test_each_tower_level_holds_its_class_sums_only():
    # level m holds (m+1) x (m+1) entries per drift matrix, so a depth-30
    # tower builds; row s of level m sums row 2^s - 1 of psi_i, whose m
    # slots add grad(column i of phi) row 1 at the s y-slots and row 0 at
    # the others
    f = builtin("triangle(1,1,1)")
    tower = psi_tower(f, 30)
    assert tower.depth == 30
    grads = [grad_cols(f.phi[0, i], f.phi[1, i]) for i in (0, 1)]
    for m, level in enumerate(tower.levels):
        ds, d = level.class_sums
        assert [len(rows) for rows in ds] == [3 * (m + 1)] * 2, m
        assert {len(row) for rows in ds for row in rows} == {m + 1}, m
        assert _level_operator(f, level.class_sums, m).shape == (m + 1, 2 * m + 5), m
        for i, (psi, g) in enumerate(zip((f.psi1, f.psi2), grads)):
            sums = class_sum_view(level, i)
            for s in range(m + 1):
                want = psi + (g[0, 0] + g[0, 1]) * (m - s) + (g[1, 0] + g[1, 1]) * s
                assert sum(sums.row_list(s), BivariatePoly.zero()) == want, (m, i, s)


def test_psi_tower_failing_deeper_build_keeps_the_shallower_tower():
    # a cubic weight entry lifts to a quadratic drift at level 1 only
    f = builtin("product_hermite")
    cubic = PolyMatrix.from_rows([[parse_poly("x^3"), 0], [0, 1]])
    bad = dataclasses.replace(f, phi=cubic)
    shallow = psi_tower(bad, 0)
    for _ in range(2):
        with pytest.raises(ValueError, match="degree above one"):
            psi_tower(bad, 1)
    assert psi_tower(bad, 0) is shallow


@pytest.mark.parametrize("field, value", [
    ("phi", PolyMatrix.from_rows([[parse_poly("x^3"), 0], [0, 1]])),
    ("psi1", parse_poly("x^2"))])
def test_a_tower_fails_at_level_one_or_not_at_all(field, value):
    # only level 0 (psi) and level 1 (phi) can raise, so a shallow build
    # raises exactly what a deep one does
    bad = dataclasses.replace(builtin("product_hermite"), **{field: value})
    got = _result(psi_tower, bad, 1)
    assert got == ("ValueError", "drift entry of degree above one")
    assert _result(psi_tower, bad, 6) == got


# ---------------------------------------------------------------------------
# interleaved determinant identity


def test_interleaved_det_base_case():
    d1 = PolyMatrix.column([parse_poly("-1"), parse_poly("0")])
    d2 = PolyMatrix.column([parse_poly("0"), parse_poly("-1")])
    assert interleaved_det_check(d1, d2, 1)


def test_interleaved_det_hand_case():
    # D1 = (1,0), D2 = (0,1), m = 2: the 4x4 interleaving is a
    # permutation matrix with determinant -1 = (-1)^1 * 1^2.
    d1 = PolyMatrix.column([parse_poly("1"), parse_poly("0")])
    d2 = PolyMatrix.column([parse_poly("0"), parse_poly("1")])
    assert interleaved_det_check(d1, d2, 2)


def test_interleaved_det_random_pairs():
    rng = random.Random(20240817)
    for trial in range(50):
        d1 = random_rational_matrix(2, 1, rng)
        d2 = random_rational_matrix(2, 1, rng)
        for m in range(1, 6):
            assert interleaved_det_check(d1, d2, m), (trial, m)


# ---------------------------------------------------------------------------
# eigenvalue matrices


def test_degree_one_anchor_both_routes():
    for ref in ALL_INSTANCES:
        f, sys = get_system(ref)
        want = -f.d_matrix()
        assert lambda_via_operator(sys, 1, 0) == want, ref
        assert lambda_via_formula(f, 1, 0) == want, ref


def test_hermite_degree_two_eigenvalue():
    f, sys = get_system("product_hermite")
    lam = lambda_via_operator(sys, 2, 0)
    assert _consts(lam) == _consts(const_matrix(
        [[4, 0, 0], [0, 4, 0], [0, 0, 4]]
    ))
    assert lambda_via_formula(f, 2, 0) == lam


def test_formula_route_agrees_on_grid():
    # Wherever a constant eigenvalue matrix exists, the leading-coefficient
    # route gives it; above level 0 that is 92 cells of the pool
    # instances, n <= 4, m <= 3.
    solved_above_level_zero = 0
    for ref in dict.fromkeys(ALL_INSTANCES + POOL_INSTANCES):
        f, sys = get_system(ref)
        for n in range(1, 5):
            for m in range(4):
                try:
                    lam = lambda_via_operator(sys, n, m)
                except NoConstantSolution:
                    continue
                solved_above_level_zero += m >= 1 and ref in POOL_INSTANCES
                assert lambda_via_formula(f, n, m) == lam, (ref, n, m)
    assert solved_above_level_zero == 92


def test_statement_layout_differs_where_no_eigenvalue_matrix_exists():
    # The converse of the property test below: the layout of the paper's
    # statement (kept only in oracle_t_matrices) gives a different symbol
    # on the leading block in cells without a constant eigenvalue matrix.
    for ref, cells in [("hermite_laguerre(1)", [(1, 1), (2, 1), (1, 2)]),
                       ("product_jacobi(0,0,0,0)", [(1, 2), (2, 2)])]:
        f, sys = get_system(ref, 4)
        tower = oracle_psi_tower(f, 2)
        for n, m in cells:
            statement = oracle_t_matrices(f, n, m, tower)["statement"]
            proof = t_matrix(f, n, m, tower)
            assert not ((statement - proof) @ oracle_g_lead(n, m)).is_zero, (ref, n, m)
            with pytest.raises(NoConstantSolution):
                lambda_via_operator(sys, n, m)
            rep = check_c(sys, n, m)
            assert rep.status == "fail", (ref, n, m)
            assert rep.notes.startswith("no constant eigenvalue matrix"), rep.notes


# ---------------------------------------------------------------------------
# reference: the symbol and the leading block as lifted polynomial matrices


def oracle_g_lead(n, m):
    """The leading block of q(n, m), all 2^m row blocks, by its PolyMatrix
    recurrence, reading n_mat (conftest)."""
    if m == 0:
        return PolyMatrix.identity(n + 1)
    prev = oracle_g_lead(n + 1, m - 1)
    eye = PolyMatrix.identity(2 ** (m - 1))
    return vstack(*(kron(eye, n_mat(n + 1, h)) @ prev for h in (1, 2)))


def class_blocks(g, n, m):
    """Row blocks 2^s - 1, s = 0 .. m, of a full leading block: what g_lead_rows builds."""
    return PolyMatrix.from_rows([g.row_list((2 ** s - 1) * (n + 1) + i)
                                 for s in range(m + 1) for i in range(n + 1)], g.cols)


def lead_classes(n, m):
    """g_lead_rows(n, m) as a constant matrix."""
    return const_matrix(g_lead_rows(n, m), n + m + 1)


def t_matrix(f, n, m, tower=None):
    """The (c) symbol T with all 2^m row and column blocks, assembled on base-size pieces.

    T = I_{2^m} (x) T1 + sum_{h,h'} C_{h,h'} (x) M_{h,h'}, as in the
    docstring of characterize.lambda_via_formula, with T1 the level-0
    second order part of oracle_second_order and C_{h,h'}[s, s'] =
    d_{h'}[2s + h, s'] read from the dense split of tower,
    oracle_psi_tower(f, m) by default.
    """
    level = (tower or oracle_psi_tower(f, m))[m]
    t = kron(PolyMatrix.identity(2 ** m), oracle_second_order(f, n, 0))
    for hp, split in enumerate((level["d1"], level["d2"])):
        for h in (0, 1):
            c = PolyMatrix.from_rows([split.row_list(2 * s + h) for s in range(2 ** m)])
            t = t + kron(c, l_mat(n - 1, h + 1).transpose() @ n_mat(n, hp + 1))
    return t


def top_layer(f, n, m):
    """byparts._op_top on a system with no columns, as a constant matrix."""
    rows, d = byparts._op_top(OrthoSystem(f, ()), n, m)
    return const_matrix([[Fraction(v, d) for v in row] for row in rows], n + m + 1)


def assert_top_layer_is_t_on_g(f, n, m, t):
    """byparts._op_top is row blocks 2^s - 1 of t @ G, G the full leading block of q(n, m)."""
    assert top_layer(f, n, m) == class_blocks(t @ oracle_g_lead(n, m), n, m), (n, m)


def oracle_d_step(f, n, m, tower):
    """The degree-n layer of D b on all 2^m row blocks, b of leading block oracle_g_lead(n - 1, m + 1).

    b = (I (x) X_(n-1)^t) G_low is the level-(m + 1) vector with halves
    b_1, b_2, and D b = sum_t (Psi_t b_t + sum_i phi_it d_i b_t), Psi_t
    level m of tower: one step of the by-parts operator, taken on the
    polynomials themselves, so a patched n_rows reaches it only through
    G_low, as it reaches byparts._op_top.
    """
    low = oracle_g_lead(n - 1, m + 1)
    b = kron(PolyMatrix.identity(2 ** (m + 1)), x_vec(n - 1).transpose()) @ low
    half = 2 ** m
    image = PolyMatrix.zeros(half, b.cols)
    for t in (0, 1):
        bt = PolyMatrix.from_rows([b.row_list(r) for r in range(t * half, (t + 1) * half)])
        image = image + tower[m][f"psi{t + 1}"] @ bt + bt.dx().scale(f.phi[0, t]) \
            + bt.dy().scale(f.phi[1, t])
    return const_matrix([[image[r, c].coeff(n - a, a) for c in range(b.cols)]
                         for r in range(half) for a in range(n + 1)], b.cols)


def oracle_second_order(f, n, m):
    """L*^t (A3 (x) I) N*, the second order part of the (c) symbol on 2^m row blocks.

    The three-block shift/derivative stacks weighted by A3, phi's
    quadratic coefficients, every factor formed as a polynomial matrix;
    at m = 0 it is T1.  Reads l_mat and n_mat (conftest), built from
    basisops.l_rows and n_rows at call time, so a monkeypatched table
    reaches it.
    """
    if n < 2:  # n = 1 has no second order part
        return PolyMatrix.zeros(2 ** m * (n + 1), 2 ** m * (n + 1))
    a_cols, _ = phi_coefficient_columns(f)
    a3 = hstack(a_cols[0], a_cols[1].scale(2), a_cols[2])
    eye = PolyMatrix.identity(2 ** m)

    def star(mat, k):
        """I (x) mat(k - 1, a) mat(k, b), stacked over (a, b) = (x, x), (y, x), (y, y)."""
        return vstack(*(kron(eye, mat(k - 1, a) @ mat(k, b))
                        for a, b in ((1, 1), (2, 1), (2, 2))))

    mid = kron(a3, PolyMatrix.identity(2 ** m * (n - 1)))
    return star(l_mat, n - 1).transpose() @ mid @ star(n_mat, n)


def oracle_t_matrices(f, n, m, tower):
    """The (c) symbol in both shift-factor layouts, as lifted products.

    L*^t (A3 (x) I) N* + S (D (x) I_n) N_stk, every factor formed as a
    polynomial matrix, D from the dense tower of oracle_psi_tower;
    returns {layout: T}, "proof" being t_matrix and "statement" the
    layout of the paper's theorem, which the library does not build.
    Reads l_mat and n_mat (conftest), as oracle_second_order does.
    """
    eye = PolyMatrix.identity(2 ** m)
    term1 = oracle_second_order(f, n, m)
    lstk = vstack(l_mat(n - 1, 1), l_mat(n - 1, 2))
    shift_t = {
        "proof": kron(eye, lstk.transpose()),
        "statement": vstack(kron(eye, l_mat(n - 1, 1)),
                            kron(eye, l_mat(n - 1, 2))).transpose(),
    }
    dpair = hstack(tower[m]["d1"], tower[m]["d2"])
    nstk = vstack(kron(eye, n_mat(n, 1)), kron(eye, n_mat(n, 2)))
    right = kron(dpair, PolyMatrix.identity(n)) @ nstk
    return {layout: term1 + s @ right for layout, s in shift_t.items()}


def _outcome(fn):
    try:
        return fn()
    except (InconsistentSystemError, SingularMatrixError) as exc:
        return type(exc).__name__


# the table each wrong form is patched in for
_ROWS_OF = {"l_mat": "l_rows", "n_mat": "n_rows"}


def test_t_matrix_and_g_lead_match_the_lifted_assembly():
    for n in range(7):
        for m in range(4):
            assert lead_classes(n, m) == class_blocks(oracle_g_lead(n, m), n, m), (n, m)
    for ref in POOL_INSTANCES:
        f = builtin(ref)
        tower = oracle_psi_tower(f, 3)
        for n in range(1, 7):
            for m in range(4):
                t = oracle_t_matrices(f, n, m, tower)["proof"]
                assert t_matrix(f, n, m, tower) == t, (ref, n, m)
                assert_top_layer_is_t_on_g(f, n, m, t)


def _blocks_repeat_by_popcount(g, n, m):
    blocks = [[g.row_list(r * (n + 1) + i) for i in range(n + 1)] for r in range(2 ** m)]
    return all(blk == blocks[2 ** bin(r).count("1") - 1] for r, blk in enumerate(blocks))


# the cells n <= 5, m <= 3 whose patched leading block does not repeat by
# popcount, and the degree each patch changes
_UNREPEATED = {"_n_swapped_at_2": [(1, 2), (1, 3)],
               "_n_half_at_3": [(1, 2), (1, 3), (2, 2), (2, 3)]}
# the cells whose patched leading block of q(n - 1, m + 1), the block the
# top layer steps on, does not repeat by popcount
_LOW_UNREPEATED = {"_n_swapped_at_2": [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)],
                   "_n_half_at_3": [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                    (3, 3)]}
_PATCHED_AT = {"_l_swapped_at_2": 2, "_l_half_at_3": 3, "_n_swapped_at_2": 2, "_n_half_at_3": 3}


@pytest.mark.parametrize("name, wrong", [
    ("l_mat", _l_swapped_at_2),
    ("l_mat", _l_half_at_3),
    ("n_mat", _n_swapped_at_2),
    ("n_mat", _n_half_at_3),
])
def test_t_matrix_and_g_lead_match_the_lifted_assembly_when_patched(monkeypatch, name,
                                                                    wrong):
    # patched wherever the library or the reference reads them; the
    # library's leading rows are the reference's blocks 2^s - 1, and the
    # assembled symbol is the lifted one.  The formula reads its top layer
    # off the by-parts operator, which reads no shift table, so a wrong
    # l_rows leaves it as it was; a wrong n_rows reaches it only through
    # the leading blocks.  So under every patch the top layer is the true
    # D step on the patched leading block of q(n - 1, m + 1), wherever
    # that block repeats by popcount as the library assumes, and the
    # formula's outcome is the solve on it.  prop1's identity suite flags
    # every patch, and where the blocks do not repeat by popcount the
    # derivative bands no longer commute, which it flags too
    f = builtin("triangle(1,1,1)")
    tower = oracle_psi_tower(f, 3)
    cells = [(n, m) for n in range(1, 6) for m in range(4)]
    real = {(n, m): t_matrix(f, n, m, tower) for n, m in cells}
    real_g = {(n, m): oracle_g_lead(n, m) for n, m in cells}
    real_formula = {(n, m): _outcome(lambda: lambda_via_formula(f, n, m)) for n, m in cells}
    for mod in (basisops, orthosys):
        if hasattr(mod, _ROWS_OF[name]):
            monkeypatch.setattr(mod, _ROWS_OF[name], wrong)
    changed = False
    unrepeated, stepped = [], []
    at = _PATCHED_AT[wrong.__name__]
    flagged = {k for k, ok in basisops.identity_suite(at).items() if not ok}
    assert flagged
    for n, m in cells:
        g = oracle_g_lead(n, m)
        assert lead_classes(n, m) == class_blocks(g, n, m), (n, m)
        changed = changed or g != real_g[n, m]
        t = oracle_t_matrices(f, n, m, tower)["proof"]
        assert t_matrix(f, n, m, tower) == t, (n, m)
        changed = changed or t != real[n, m]
        if name == "l_mat":
            assert _outcome(lambda: lambda_via_formula(f, n, m)) == real_formula[n, m], (n, m)
        if _blocks_repeat_by_popcount(oracle_g_lead(n - 1, m + 1), n - 1, m + 1):
            # the true D step on the patched leading block, and its solve
            top = class_blocks(oracle_d_step(f, n, m, tower), n, m)
            assert top_layer(f, n, m) == top, (n, m)
            want = _outcome(lambda: solve_columns(class_blocks(g, n, m), -top))
            assert _outcome(lambda: lambda_via_formula(f, n, m)) == want, (n, m)
            stepped.append((n, m))
        if not _blocks_repeat_by_popcount(g, n, m):
            unrepeated.append((n, m))
            assert {"deriv1", "deriv_xx"} <= flagged, (n, m, flagged)
    assert changed
    assert unrepeated == _UNREPEATED.get(wrong.__name__, [])
    assert [c for c in cells if c not in stepped] == _LOW_UNREPEATED.get(wrong.__name__, [])


# ---------------------------------------------------------------------------
# one layout: random Pearson data, no moments (the symbol reads none)


_X, _Y = BivariatePoly.x(), BivariatePoly.y()
_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def _pearson_family(phi, psi1, psi2):
    return WeightFamily("pearson_data", PolyMatrix.from_rows(phi), psi1, psi2,
                        RationalFn(psi1), RationalFn(psi2), Domain("plane", ()))


def _quadratic_part(p):
    return BivariatePoly.from_terms({e: c for e, c in p.terms.items() if sum(e) == 2})


def _formula_solves_by_rule(f, m):
    """Whether G L = -T G has a solution, by the rule in lambda_via_formula's docstring.

    m = 1: d_matrix() is d I.  m >= 2: the quadratic part of phi is
    c x x^t - (v x^t + x v^t) / (2(m - 1)), v the linear part of psi.
    """
    b = _consts(f.d_matrix())
    if m == 1:
        return b[0][1] == b[1][0] == 0 and b[0][0] == b[1][1]
    xs = (_X, _Y)
    v = [b[0][a] * _X + b[1][a] * _Y for a in (0, 1)]
    rest = [[_quadratic_part(f.phi[i, j])
             + (v[i] * xs[j] + xs[i] * v[j]) * Fraction(1, 2 * (m - 1))
             for j in (0, 1)] for i in (0, 1)]
    c = rest[0][0].coeff(2, 0)
    return all(rest[i][j] == xs[i] * xs[j] * c for i in (0, 1) for j in (0, 1))


@st.composite
def pearson_data(draw):
    """Quadratic symmetric phi, linear psi with a nonsingular drift matrix.

    Most draws are shaped so that the leading-coefficient route solves
    at some level: a scalar drift matrix (level 1), phi's quadratic part
    c x x^t with a scalar drift matrix (every level), or the level-2 and
    level-3 rule of lambda_via_formula's docstring with any drift matrix.
    """
    shape = draw(st.sampled_from(["free", "scalar", "scalar_xx", "level2", "level3"]))
    if shape.startswith("scalar"):
        d = draw(_SMALL.filter(bool))
        v = [d * _X, d * _Y]
    else:
        coeffs = [[draw(_SMALL) for _ in range(2)] for _ in range(2)]
        assume(coeffs[0][0] * coeffs[1][1] != coeffs[0][1] * coeffs[1][0])
        v = [cx * _X + cy * _Y for cx, cy in coeffs]
    xs = (_X, _Y)
    c = draw(_SMALL)
    if shape == "scalar_xx":
        quad = [[xs[i] * xs[j] * c for j in (0, 1)] for i in (0, 1)]
    elif shape.startswith("level"):
        k = Fraction(1, 2 * (int(shape[-1]) - 1))
        quad = [[xs[i] * xs[j] * c - (v[i] * xs[j] + xs[i] * v[j]) * k
                 for j in (0, 1)] for i in (0, 1)]
    else:
        quad = [[None, None], [None, None]]
        for i, j in ((0, 0), (0, 1), (1, 1)):
            quad[i][j] = _X * _X * draw(_SMALL) + _X * _Y * draw(_SMALL) + _Y * _Y * draw(_SMALL)
        quad[1][0] = quad[0][1]
    low = {(i, j): _X * draw(_SMALL) + _Y * draw(_SMALL) + draw(_SMALL)
           for i, j in ((0, 0), (0, 1), (1, 1))}
    low[1, 0] = low[0, 1]
    phi = [[quad[i][j] + low[i, j] for j in (0, 1)] for i in (0, 1)]
    return _pearson_family(phi, v[0] + draw(_SMALL), v[1] + draw(_SMALL))


# the drift matrix is diag(-2, -4), not scalar: the route solves at m = 2 only
_LEVEL_TWO_ONLY = _pearson_family(
    [[parse_poly("2*x^2"), parse_poly("3*x*y")], [parse_poly("3*x*y"), parse_poly("4*y^2")]],
    parse_poly("-2*x"), parse_poly("-4*y"))


@example(_LEVEL_TWO_ONLY)
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(pearson_data())
def test_statement_layout_agrees_on_g_wherever_the_formula_solves(f):
    tower = oracle_psi_tower(f, 3)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            try:
                lambda_via_formula(f, n, m)
            except InconsistentSystemError:
                continue
            layouts = oracle_t_matrices(f, n, m, tower)
            t = t_matrix(f, n, m, tower)
            assert t == layouts["proof"], (n, m)
            assert_top_layer_is_t_on_g(f, n, m, t)
            g = oracle_g_lead(n, m)
            assert layouts["statement"] @ g == t @ g, (n, m)


@example(_LEVEL_TWO_ONLY)
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(pearson_data())
def test_formula_route_solves_exactly_where_the_symbol_rule_says(f):
    # m = 1 is README's rule: the drift matrix must be d*I
    for m in (1, 2, 3):
        want = _formula_solves_by_rule(f, m)
        for n in (1, 2, 3, 4):
            got = _outcome(lambda: lambda_via_formula(f, n, m))
            assert (got != "InconsistentSystemError") == want, (n, m, got)


def test_level_two_only_family_solves_at_level_two_only():
    assert [_formula_solves_by_rule(_LEVEL_TWO_ONLY, m) for m in (1, 2, 3)] == \
        [False, True, False]
    for n in (1, 2):
        lambda_via_formula(_LEVEL_TWO_ONLY, n, 2)
        for m in (1, 3):
            with pytest.raises(InconsistentSystemError):
                lambda_via_formula(_LEVEL_TWO_ONLY, n, m)


# ---------------------------------------------------------------------------
# reference: the drift tower as lifted polynomial matrices


def phi_coefficient_columns(f):
    """Quadratic and linear coefficient columns of the three entries.

    Returns (a_cols, b_cols) where a_cols[i] is the 3x1 column of the
    x^2, xy, y^2 coefficients and b_cols[i] the 2x1 column of the x, y
    coefficients of entry i in (top left, off diagonal, bottom right).
    """
    a_cols = []
    b_cols = []
    for p in (f.phi[0, 0], f.phi[0, 1], f.phi[1, 1]):
        a_cols.append(const_matrix([[p.coeff(2, 0)], [p.coeff(1, 1)], [p.coeff(0, 2)]]))
        b_cols.append(const_matrix([[p.coeff(1, 0)], [p.coeff(0, 1)]]))
    return tuple(a_cols), tuple(b_cols)


def _linear_split(mat):
    """Interleaved first order coefficients and constants of a degree-one matrix.

    Row 2r of the first holds the x coefficients of row r, row 2r + 1
    its y coefficients: the layout of d1 and d2 in lambda_via_formula's docstring.
    """
    rows, cols = mat.shape
    assert mat.degree <= 1
    d = [[mat[r, c].coeff(*e) for c in range(cols)] for r in range(rows) for e in ((1, 0), (0, 1))]
    e = [[mat[r, c].coeff(0, 0) for c in range(cols)] for r in range(rows)]
    return const_matrix(d, cols), const_matrix(e, cols)


def _oracle_level_operator(f, psi1, psi2, m):
    """byparts._level_operator summed from the polynomial entries of the dense drift matrices."""
    rows = []
    for s in range(m + 1):
        row = [BivariatePoly.zero()] * (2 * m + 5)
        row[s:s + 3] = f.phi[0, 0], f.phi[0, 1] * 2, f.phi[1, 1]
        for shift, psi in enumerate((psi1, psi2)):
            for c, p in enumerate(psi.row_list(2 ** s - 1)):
                col = m + 3 + shift + bin(c).count("1")
                row[col] = row[col] + p
        rows.append(row)
    return PolyMatrix.from_rows(rows)


def oracle_psi_tower(f, depth):
    """The drift tower by its polynomial Kronecker recurrence.

    Returns one dict per level: psi1 and psi2, their splits (d1, e1) and
    (d2, e2) by _linear_split, op_rows, and closed_form_ok, whether the
    level's splits equal lemma2's closed form: the Kronecker-doubled
    split one level down plus, for psi_i, the blocks N(2, h) a and the
    linear coefficients b of column i of the weight matrix, all as
    polynomial Kronecker products.  Reads n_mat (conftest), so a patched
    basisops.n_rows reaches it.
    """
    a_cols, b_cols = phi_coefficient_columns(f)
    grads = [grad_cols(f.phi[0, i], f.phi[1, i]) for i in (0, 1)]
    eye2 = PolyMatrix.identity(2)
    psis = [PolyMatrix.from_rows([[f.psi1]]), PolyMatrix.from_rows([[f.psi2]])]
    splits = [_linear_split(psi) for psi in psis]
    levels = []
    for m in range(depth + 1):
        ok = True
        if m:
            eyeh = PolyMatrix.identity(2 ** (m - 1))
            new = [kron(eye2, psi) + kron(g, eyeh) for psi, g in zip(psis, grads)]
            new_splits = [_linear_split(psi) for psi in new]
            for i, ((dd, ee), (dprev, eprev)) in enumerate(zip(new_splits, splits)):
                a_lo, a_hi, b_lo, b_hi = a_cols[i], a_cols[i + 1], b_cols[i], b_cols[i + 1]
                h_block = vstack(*(hstack(kron(eyeh, n_mat(2, h) @ a_lo),
                                          kron(eyeh, n_mat(2, h) @ a_hi))
                                   for h in (1, 2)))
                k_block = vstack(*(hstack(eyeh.scale(b_lo[k, 0]), eyeh.scale(b_hi[k, 0]))
                                   for k in (0, 1)))
                ok = ok and dd == h_block + kron(eye2, dprev) \
                    and ee == k_block + kron(eye2, eprev)
            psis, splits = new, new_splits
        (d1, e1), (d2, e2) = splits
        levels.append({"psi1": psis[0], "psi2": psis[1], "d1": d1, "e1": e1, "d2": d2,
                       "e2": e2, "op_rows": _oracle_level_operator(f, *psis, m),
                       "closed_form_ok": ok})
    return levels


def _assert_tower_matches_oracle(f, depth):
    tower = psi_tower(f, depth)
    # phi's quadratic ints, kept once per family for D's top layer and lemma2
    d = tower.level(0).class_sums[1]
    assert tower.quad == [[[f.phi[min(i, t), max(i, t)].coeff(*e) * d
                            for e in ((2, 0), (1, 1), (0, 2))] for t in (0, 1)] for i in (0, 1)]
    for m, want in enumerate(oracle_psi_tower(f, depth)):
        level = tower.level(m)
        for i in (0, 1):
            got = class_sum_view(level, i)
            assert got == oracle_class_sums(want[f"psi{i + 1}"], m), (m, i)
        assert _level_operator(f, level.class_sums, m) == want["op_rows"], m
        # the tower's one lemma2 verdict is the oracle's at every level m >= 1
        if m:
            assert tower.closed_form_ok == want["closed_form_ok"], m


@pytest.mark.parametrize("ref", ALL_INSTANCES)
def test_psi_tower_matches_the_polynomial_recurrence(ref):
    _assert_tower_matches_oracle(builtin(ref), 6)


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(pearson_data())
def test_psi_tower_matches_the_polynomial_recurrence_on_pearson_data(f):
    _assert_tower_matches_oracle(f, 6)


def test_lemma2_fails_under_a_swapped_derivative_matrix(monkeypatch):
    # N(2, 1) and N(2, 2) swapped: the closed form of triangle(1,1,1),
    # whose weight entries have quadratic parts, misses the recurrence at
    # every level above 0, as in the oracle; product_hermite's weight
    # matrix is constant, so its closed form still holds.  A run reports
    # the lemma2 cells as failed, not as errors.
    for mod in (basisops, byparts, orthosys):
        if hasattr(mod, "n_rows"):
            monkeypatch.setattr(mod, "n_rows", _n_swapped_at_2)
    tri = builtin("triangle(1,1,1)")
    assert not psi_tower(tri, 1).closed_form_ok
    assert [level["closed_form_ok"] for level in oracle_psi_tower(tri, 5)] == \
        [True] + [False] * 5
    _assert_tower_matches_oracle(tri, 5)
    assert psi_tower(builtin("product_hermite"), 3).closed_form_ok
    reports = verify_all(builtin("triangle(1,1,1)"), nmax=4, mmax=1, properties=("lemma2",))
    assert [(r.property, r.m, r.status) for r in reports] == \
        [("lemma2", m, "fail") for m in (1, 2, 3)]


def test_system_memo_grams_eigenvalues_and_bounds():
    f, sys = get_system("product_hermite")
    first = sys.gram(2, 1)
    assert sys.gram(2, 1) is first
    assert first == inner(sys.q(2, 1), sys.q(2, 1), 1, f)
    for n in range(5):
        assert sys.gram(n, 0) == integrate_matrix(x_vec(n) @ sys.p(n).transpose(), f), n
        assert sys.gram(n, 0) == inner(sys.q(n, 0), sys.q(n, 0), 0, f), n
    # check_c stores the eigenvalue matrix in the system memo; a second
    # lookup must hit it (pytest.fail as the fallback proves no recompute)
    assert check_c(sys, 2, 1).status == "pass"
    lam = sys.cached(("lambda", 2, 1), pytest.fail)
    assert sys.cached(("lambda", 2, 1), pytest.fail) is lam
    assert lam == lambda_via_operator(sys, 2, 1)
    assert lam.shape == (4, 4)
    with pytest.raises(ValueError):
        lambda_via_operator(sys, 0, 2)
    with pytest.raises(ValueError):
        lambda_via_operator(sys, 3, -1)


def test_random_stack_has_no_constant_eigenvalue():
    # a system whose degree-3 column is random cubics: its stack q(2, 1)
    # is no gradient stack of the weight
    f, sys = get_system("product_hermite")
    top = random_rational_matrix(4, 4, random.Random(7)) @ x_vec(3)
    fake = OrthoSystem(f, [*(sys.p(k) for k in range(3)), top])
    with pytest.raises(NoConstantSolution):
        lambda_via_operator(fake, 2, 1)


# ---------------------------------------------------------------------------
# property (a)


def test_check_a_passes_builtins():
    for ref in ALL_INSTANCES:
        rep = check_a(builtin(ref))
        assert rep.status == "pass", ref
        assert rep.residual == 0.0


def test_check_a_rejects_perturbed_drift():
    f = builtin("product_hermite")
    pert = dataclasses.replace(f, psi1=f.psi1 + parse_poly("1"))
    rep = check_a(pert)
    assert rep.status == "fail"
    assert "pearson identity fails" in rep.notes


def test_check_a_flags_quadratic_drift():
    f = builtin("product_hermite")
    bad = dataclasses.replace(f, psi1=parse_poly("x^2 - 1"))
    rep = check_a(bad)
    assert rep.status == "fail"
    assert "psi degree above one" in rep.notes


def test_check_a_flags_singular_drift():
    f = builtin("product_hermite")
    bad = dataclasses.replace(f, psi2=f.psi1)
    rep = check_a(bad)
    assert rep.status == "fail"
    assert "drift matrix singular" in rep.notes


# ---------------------------------------------------------------------------
# property (b)


def oracle_level_pearson_check(f, m, phi_power=None):
    """The lifted Pearson statement on the full Kronecker powers of phi.

    cleared_divergence(f, phi^(x)(m+1)) == delta phi^(x)m [psi_1 | psi_2]
    with psi_i the drift tower's level m; phi_power(k) gives the k-th
    Kronecker power of f.phi, such as a system's OrthoSystem.phi_power.
    """
    if phi_power is None:
        phi_power = functools.partial(matpoly.kron_power, f.phi)
    psi_tower(f, m)  # raises where the library's tower cannot be built
    lev = oracle_psi_tower(f, m)[m]
    drift = phi_power(m) @ hstack(lev["psi1"], lev["psi2"])
    delta = f.log_grad_x.den * f.log_grad_y.den
    return cleared_divergence(f, phi_power(m + 1)) == drift.scale(delta)


def _assert_pearson_matches_oracle(f):
    """level_pearson_check for m <= 3 equals the oracle's verdict, or raises as it does."""
    got = [_result(level_pearson_check, f, m) for m in range(4)]
    assert got == [_result(oracle_level_pearson_check, f, m) for m in range(4)]
    return got


def test_level_pearson_identity_all_builtins():
    for ref in sorted({*ALL_INSTANCES, *POOL_INSTANCES, "triangle(-1/2,1/3,2)"}):
        assert _assert_pearson_matches_oracle(builtin(ref)) == [True] * 4, ref


def _solved_family(phi, gx, gy):
    """The plane family of weight matrix phi and log-gradient (gx, gy), with
    psi := cleared_divergence(f, phi), so that its Pearson identity holds."""
    f = WeightFamily("pearson_solved", PolyMatrix.from_rows(phi), gx, gy,
                     RationalFn(gx), RationalFn(gy), Domain("plane", ()))
    c = cleared_divergence(f, f.phi)
    return dataclasses.replace(f, psi1=c[0, 0], psi2=c[0, 1])


@st.composite
def pearson_solved_data(draw):
    """Symmetric phi of degree <= 2 with psi := c, so Pearson holds.

    The logarithmic gradient is linear or constant for a constant phi,
    constant for a linear one, and zero or constant for a quadratic one,
    so psi has degree <= 1, and (a)'s Pearson identity holds, except for
    a quadratic phi with a nonzero gradient: its quadratic psi is no
    drift tower.  phi_conditions mostly fails for phi of degree one.
    """
    degree = draw(st.sampled_from([0, 1, 1, 1, 2, 2]))

    def poly(deg):
        return BivariatePoly.from_terms({(a, d - a): draw(_SMALL) for d in range(deg + 1)
                                         for a in range(d + 1)})

    p11, p12, p22 = (poly(degree) for _ in range(3))
    grad = {0: draw(st.sampled_from([0, 1])), 1: 0, 2: draw(st.sampled_from([-1, 0]))}[degree]
    gx, gy = poly(grad), poly(grad)
    return _solved_family([[p11, p12], [p12, p22]], gx, gy)


# (phi, gx, gy): phi_conditions holds for the first two and fails for the
# third (whose phi is the disk's), so its lifted identity fails at m >= 1
_SOLVED_EXAMPLES = [
    ([["2", "1"], ["1", "3"]], "-x", "-y"),
    ([["x", "0"], ["0", "y"]], "-1", "-1"),
    ([["1 - x^2", "-x*y"], ["-x*y", "1 - y^2"]], "0", "0"),
]


def test_level_pearson_check_on_pearson_solved_examples():
    # (a) passes on all three; the lifted identity holds at every level
    # exactly where phi_conditions does
    verdicts = []
    for phi, gx, gy in _SOLVED_EXAMPLES:
        f = _solved_family([[parse_poly(p) for p in row] for row in phi],
                           parse_poly(gx), parse_poly(gy))
        assert check_a(f).status == "pass", phi
        verdicts.append(check_phi_conditions(f))
        assert _assert_pearson_matches_oracle(f) == [True] + [verdicts[-1]] * 3, phi
    assert verdicts == [True, True, False]


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(st.one_of(pearson_data(), pearson_solved_data()))
def test_level_pearson_check_matches_the_full_tensor_oracle_on_pearson_data(f):
    _assert_pearson_matches_oracle(f)


def pearson_residual(f):
    """check_pearson's 1x2 residual: cleared_divergence(f, phi) - delta (psi1, psi2)."""
    delta = f.log_grad_x.den * f.log_grad_y.den
    return cleared_divergence(f, f.phi) - PolyMatrix.row([f.psi1, f.psi2]).scale(delta)


def phi_residual(f, i):
    """check_phi_conditions' 2x2 residual for column i: phi_1i dx phi + phi_2i dy phi - phi G_i."""
    p, q = f.phi[0, i], f.phi[1, i]
    return f.phi.dx().scale(p) + f.phi.dy().scale(q) - f.phi @ grad_cols(p, q)


def two_by_two_level_pearson_check(f, m):
    """The lifted equation at level m >= 1 as m delta P_i + E_i phi = 0, i = 1, 2."""
    e = pearson_residual(f)
    m_delta = m * f.log_grad_x.den * f.log_grad_y.den
    return all((phi_residual(f, i).scale(m_delta) + f.phi.scale(e[0, i])).is_zero
               for i in (0, 1))


@st.composite
def symmetric_phi_data(draw):
    """A plane family with a random symmetric phi of degree <= 2 and linear psi."""
    def poly(deg):
        return BivariatePoly.from_terms({(a, d - a): draw(_SMALL) for d in range(deg + 1)
                                         for a in range(d + 1)})

    p11, p12, p22 = (poly(draw(st.integers(0, 2))) for _ in range(3))
    return _pearson_family([[p11, p12], [p12, p22]], poly(1), poly(1))


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(st.one_of(symmetric_phi_data(), pearson_solved_data()))
def test_row_i_of_the_phi_residual_vanishes_so_the_lifted_check_is_level_free(f):
    # row i of P_i is zero for every symmetric phi, so the 2x2 form of the
    # lifted equation is the same boolean at every level m >= 1
    for i in (0, 1):
        assert PolyMatrix.row(phi_residual(f, i).row_list(i)).is_zero, i
    assert check_phi_conditions(f) == all(phi_residual(f, i).is_zero for i in (0, 1))
    family_verdict = f.phi.is_zero or (pearson_residual(f).is_zero and check_phi_conditions(f))
    assert [two_by_two_level_pearson_check(f, m) for m in (1, 2, 3)] == [family_verdict] * 3


def _plane_family(phi, psi1, psi2, gx="-x", gy="-y"):
    return WeightFamily("pinned", PolyMatrix.from_rows([[parse_poly(p) for p in row]
                                                       for row in phi]),
                        parse_poly(psi1), parse_poly(psi2), RationalFn(parse_poly(gx)),
                        RationalFn(parse_poly(gy)), Domain("plane", ()))


_PINNED_LEVEL_VERDICTS = [
    # the disk solves Pearson and fails phi_conditions
    (_plane_family([["1 - x^2", "-x*y"], ["-x*y", "1 - y^2"]], "-3*x", "-3*y", "0", "0"),
     [True, False, False, False]),
    # phi = 0 fails Pearson (E = -delta psi) yet solves every lifted level
    (_plane_family([["0", "0"], ["0", "0"]], "-x", "-y"), [False, True, True, True]),
    # a zero first column with E_1 != 0 fails everywhere; with E = 0 it passes
    (_plane_family([["0", "0"], ["0", "1"]], "-x", "-y"), [False] * 4),
    (_plane_family([["0", "0"], ["0", "1"]], "0", "-y"), [True] * 4),
]


@pytest.mark.parametrize("f, want", _PINNED_LEVEL_VERDICTS)
def test_level_pearson_check_pins(f, want):
    assert _assert_pearson_matches_oracle(f) == want


def test_level_pearson_check_fails_every_level_under_a_perturbed_drift():
    tri = builtin("triangle(1,1,1)")
    pert = dataclasses.replace(tri, psi1=tri.psi1 + parse_poly("1"))
    assert _assert_pearson_matches_oracle(pert) == [False] * 4


def test_quadratic_drift_b_cells_are_unchanged():
    # a quadratic psi is no drift tower: the lifted check raises where the
    # oracle does, a direct (b) cell raises the same, and a run reports
    # every (b) cell blocked by the tower with the same note
    f = builtin("product_hermite")
    bad = dataclasses.replace(f, psi1=parse_poly("x^2"))
    want = ("ValueError", "drift entry of degree above one")
    for m in range(3):
        assert _result(level_pearson_check, bad, m) == want, m
        assert _result(oracle_level_pearson_check, bad, m) == want, m
    sys = build_monic(bad, 4)
    for n, m in ((1, 1), (2, 1), (1, 2)):
        assert _result(check_b, sys, n, m) == _result(oracle_check_b, sys, n, m) == want
    note = "drift tower construction failed: ValueError: drift entry of degree above one"
    reports = verify_all(bad, nmax=2, mmax=2, properties="b")
    assert [(r.n, r.m, r.status, r.notes) for r in reports] == \
        [(n, m, "fail", note) for n in (1, 2) for m in (1, 2)]


def test_kronecker_powers_are_built_once_per_system(monkeypatch):
    # phi_power(m) is kron(phi, phi_power(m - 1)): the entries and term
    # order of kron_power, with the lower powers read from the memo.  Only
    # numeric mode reads a power, and it builds each once; an exact run,
    # (b)'s lifted Pearson check included, builds none
    f = builtin("triangle(1,1,1)")
    sys = build_monic(f, 4)
    for m in range(4):
        got, want = sys.phi_power(m), matpoly.kron_power(f.phi, m)
        assert got == want
        assert [list(p.terms) for p in got._e] == [list(p.terms) for p in want._e]
    for m in range(3):
        assert oracle_level_pearson_check(f, m, sys.phi_power)
    calls = []
    for owner in (matpoly, orthosys):
        monkeypatch.setattr(owner, "kron_power",
                            lambda a, m, _fn=matpoly.kron_power: calls.append(m) or _fn(a, m))
    built = []  # the row count of phi_power(m - 1) for each power m built
    monkeypatch.setattr(orthosys, "kron",
                        lambda a, b, _fn=kron: built.append(b.rows) or _fn(a, b))
    asked = []
    real_power = OrthoSystem.phi_power
    monkeypatch.setattr(OrthoSystem, "phi_power",
                        lambda self, m: asked.append(m) or real_power(self, m))
    for mode in ("exact", "numeric"):
        built.clear()
        asked.clear()
        verify_all(builtin("triangle(1,1,1)"), nmax=4, mmax=2, mode=mode, quad_order=12)
        assert calls == []
        if mode == "exact":
            assert built == asked == []
        else:
            assert built and sorted(built) == [2 ** k for k in range(len(built))]


def test_check_b_exact_cells():
    for ref in ALL_INSTANCES:
        f, sys = get_system(ref)
        for n, m in ((1, 1), (2, 1), (3, 2)):
            rep = check_b(sys, n, m)
            assert rep.status == "pass", (ref, n, m)
            assert rep.residual == 0.0


def test_check_b_numeric_matches_exact():
    f, sys = get_system("product_jacobi(0,0,0,0)")
    rule = make_quadrature(f, 20)
    for n, m in ((1, 1), (2, 1)):
        rep = check_b(sys, n, m, rule)
        assert rep.status == "pass", (n, m)
        assert rep.residual <= rep.tolerance


# ---------------------------------------------------------------------------
# property (c): where it holds and where no constant matrix exists


def test_check_c_product_hermite_all_cells(monkeypatch):
    real = characterize.lambda_via_formula
    calls = []

    def counted(f, n, m):
        calls.append((n, m))
        return real(f, n, m)

    monkeypatch.setattr(characterize, "lambda_via_formula", counted)
    sys = build_monic(builtin("product_hermite"), 7)  # a fresh memo
    cells = [(n, m) for n in range(1, 5) for m in range(3)]
    for n, m in cells:
        rep = check_c(sys, n, m)
        assert rep.status == "pass", (n, m)
    # C~_m is scalar at every level, so the formula decides level 0 alone,
    # once per degree n + m
    assert sorted(calls) == [(k, 0) for k in range(1, 7)]


def test_check_c_laguerre_and_triangle_fold_at_every_level():
    for ref in ("product_laguerre(0,0)", "product_laguerre(1,2)",
                "triangle(0,0,0)", "triangle(1,1,1)"):
        f, sys = get_system(ref)
        for n in range(1, 5):
            for m in range(3):
                rep = check_c(sys, n, m)
                assert rep.status == "pass", (ref, n, m)


def test_check_c_hermite_laguerre_fails_above_level_zero():
    # Mixed-order derivative rows of this family carry different
    # one-dimensional eigenvalue sums, so no constant right factor can
    # exist once two derivative directions mix.  The failure is real
    # mathematics, not a tolerance artifact.
    f, sys = get_system("hermite_laguerre(0)")
    for n in range(1, 5):
        rep = check_c(sys, n, 0)
        assert rep.status == "pass", n
        for m in (1, 2):
            rep = check_c(sys, n, m)
            assert rep.status == "fail", (n, m)
            assert "no constant eigenvalue matrix" in rep.notes


def test_check_c_jacobi_breaks_at_level_two():
    # Jacobi derivative eigenvalues are quadratic in the derivative
    # count, so the row sums first disagree when two derivative
    # directions mix twice.
    f, sys = get_system("product_jacobi(0,0,0,0)")
    for n in range(1, 5):
        for m in (0, 1):
            assert check_c(sys, n, m).status == "pass", (n, m)
        rep = check_c(sys, n, 2)
        assert rep.status == "fail", n
        assert "no constant eigenvalue matrix" in rep.notes


def test_check_c_anchor_note():
    f, sys = get_system("product_laguerre(0,0)")
    rep = check_c(sys, 1, 0)
    assert rep.status == "pass"
    assert "degree-one anchor" in rep.notes


def test_check_c_inconsistent_formula_route_is_a_fail_not_an_error(monkeypatch):
    # a wrong l_rows does not reach (c): the formula that decides it reads
    # its top layer off the by-parts operator, not off the shift tables
    # (check_c's docstring), so its cells keep passing; the wrong table is
    # prop1's fail, not an error
    f = builtin("triangle(1,1,1)")
    sys = build_monic(f, 6)
    monkeypatch.setattr(basisops, "l_rows", _l_swapped_at_1)
    for n, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        rep = check_c(sys, n, m)
        assert (rep.status, rep.notes) == ("pass", ""), (n, m)
    reports = verify_all(f, nmax=3, mmax=2, properties=("c", "prop1"))
    assert {r.status for r in reports if r.property == "c"} == {"pass"}
    shifts = ["shift_xx fails", "shift_xy fails", "shift_yy fails"]
    flagged = {0: "; ".join(shifts),
               1: "; ".join(["linear_sandwich fails", "shift1 fails", *shifts])}
    for r in reports:
        if r.property == "prop1":
            want = ("fail", flagged[r.n]) if r.n in flagged else ("pass", "")
            assert (r.status, r.notes) == want, (r.n, r.m)


def test_check_c_singular_leading_block_stays_an_error(monkeypatch):
    # a crash in the eigenvalue solve is an error cell, not a fail
    def singular(sys, n, m):
        raise SingularMatrixError("injected")

    monkeypatch.setattr(characterize, "lambda_via_operator", singular)
    reports = verify_all(builtin("product_hermite"), nmax=2, mmax=1, properties=("c",))
    assert [(r.status, r.notes) for r in reports] == \
        [("error", "error: SingularMatrixError: injected")] * 4


# ---------------------------------------------------------------------------
# property (d)


def test_check_d_passes_where_every_level_folds():
    for ref in ("product_hermite", "product_laguerre(0,0)",
                "product_laguerre(1,2)", "triangle(1,1,1)"):
        f, sys = get_system(ref)
        for n in (1, 2, 3, 4):
            rep = check_d(sys, n)
            assert rep.status == "pass", (ref, n)
            assert rep.residual == 0.0


def test_check_d_inherits_eigenvalue_obstructions():
    f, sys = get_system("hermite_laguerre(0)")
    assert check_d(sys, 1).status == "pass"
    for n in (2, 3):
        rep = check_d(sys, n)
        assert rep.status == "fail", n
        assert "level 1" in rep.notes

    f, sys = get_system("product_jacobi(0,0,0,0)")
    for n in (1, 2):
        assert check_d(sys, n).status == "pass", n
    rep = check_d(sys, 3)
    assert rep.status == "fail"
    assert "level 2" in rep.notes


# ---------------------------------------------------------------------------
# Rodrigues reconstruction


def test_rodrigues_degree_two_exact():
    signs = {}
    for ref in ("product_hermite", "product_laguerre(0,0)"):
        f, sys = get_system(ref)
        out = rodrigues_reconstruct(sys, 2)
        assert out["reconstruction_exact"], ref
        assert out["alternating_sign"], ref
        assert all(out["level_sign_ok"]), ref
        signs[ref] = out["final_sign"]
    # the realized sign convention is the same for both families
    assert len(set(signs.values())) == 1
    assert signs["product_hermite"] == 1


def test_rodrigues_order_sensitivity_is_reported():
    # Scalar eigenvalue matrices commute, so for product Hermite the
    # reversed product agrees; the field documents the convention.
    f, sys = get_system("product_hermite")
    out = rodrigues_reconstruct(sys, 3)
    assert out["reconstruction_exact"]
    assert out["reversed_product_matches"]


def test_rodrigues_degree_three_laguerre():
    f, sys = get_system("product_laguerre(0,0)")
    out = rodrigues_reconstruct(sys, 3)
    assert out["reconstruction_exact"]
    assert all(out["level_sign_ok"])


def test_rodrigues_all_builtins_up_to_degree_three():
    # the tower has a constant eigenvalue matrix at every level exactly
    # where (d) finds one, and then reconstructs the column with sign (-1)^n
    for ref in ALL_INSTANCES:
        f, sys = get_system(ref)
        for n in (1, 2, 3):
            if "no constant eigenvalue matrix" in check_d(sys, n).notes:
                with pytest.raises(NoConstantSolution):
                    rodrigues_reconstruct(sys, n)
                continue
            out = rodrigues_reconstruct(sys, n)
            assert out["level_sign_ok"] == [True] * n, (ref, n)
            assert out["reconstruction_exact"], (ref, n)
            assert out["final_sign"] == (-1) ** n, (ref, n)


def test_rodrigues_flags_a_wrong_eigenvalue_matrix(monkeypatch):
    # doubling the level-L eigenvalue matrix spoils every step that uses
    # it: step k multiplies in level n - k, so steps n - L .. n fail
    f, sys = get_system("product_laguerre(1,2)")
    real = characterize._lambda
    n = 3
    for bad in range(n):
        def doubled(sys, k, m, bad=bad):
            lam = real(sys, k, m)
            return lam.scale(2) if m == bad else lam

        monkeypatch.setattr(characterize, "_lambda", doubled)
        out = rodrigues_reconstruct(sys, n)
        assert out["level_sign_ok"] == [True] * (n - bad - 1) + [False] * (bad + 1), bad
        assert out["final_sign"] == 0
        assert not out["reconstruction_exact"]


# ---------------------------------------------------------------------------
# property (e)


def test_check_e_level_zero_all_builtins():
    for ref in ALL_INSTANCES:
        f, sys = get_system(ref)
        for n in (1, 2, 3, 4):
            rep = check_e(sys, n, 0)
            assert rep.status == "pass", (ref, n)


def test_check_e_hermite_all_levels():
    f, sys = get_system("product_hermite")
    for n in (1, 2, 3, 4):
        for m in (1, 2):
            rep = check_e(sys, n, m)
            assert rep.status == "pass", (n, m)


def test_check_e_reconstruction_fails_above_level_zero():
    # With a non-identity weight matrix the projected three-term window
    # cannot rebuild the weighted finer stack once m >= 1: the left side
    # falls outside the span of the coarser stacks entirely.  The
    # orthogonality tail and the rank of the lowest coefficient still
    # behave, which the notes make visible.
    for ref in ("product_laguerre(0,0)", "triangle(0,0,0)",
                "product_jacobi(0,0,0,0)"):
        f, sys = get_system(ref)
        for n, m in ((2, 1), (1, 1), (2, 2)):
            rep = check_e(sys, n, m)
            assert rep.status == "fail", (ref, n, m)
            assert "three term reconstruction misses" in rep.notes
            assert "projection on stack" not in rep.notes
            assert "rank" not in rep.notes


def test_check_e_degree_three_weight_matrix_leaks_low_projections():
    f = builtin("product_hermite")
    bad = dataclasses.replace(f, phi=PolyMatrix.from_rows([
        [parse_poly("1 + x^3"), parse_poly("x*y")],
        [parse_poly("x*y"), parse_poly("1")],
    ]))
    sys = build_monic(bad, 6)
    rep = check_e(sys, 3, 0)
    assert rep.status == "fail"
    assert "projection on stack" in rep.notes


def test_check_b_and_e_are_exact_without_a_rule_and_numeric_with_one():
    # product_laguerre(1,2) has numeric (e) cells that fail where exact ones pass
    f = builtin("product_laguerre(1,2)")
    sys = build_monic(f, 7)
    checks = {"b": check_b, "e": check_e}
    for mode, rule in (("exact", None), ("numeric", make_quadrature(f, 20))):
        want = verify_all(f, nmax=4, mmax=2, mode=mode, properties=("b", "e"))
        got = [checks[r.property](sys, r.n, r.m, rule) for r in want]
        assert got == want, mode
        assert {r.mode for r in got} == {mode}
    assert {r.status for r in want} == {"pass", "fail"}


def test_check_e_numeric_agrees_with_exact():
    f, sys = get_system("product_jacobi(0,0,0,0)")
    rule = make_quadrature(f, 20)
    for n, m in ((1, 0), (2, 0), (3, 0), (2, 1)):
        exact = check_e(sys, n, m)
        numeric = check_e(sys, n, m, rule)
        assert numeric.status == exact.status, (n, m)


# ---------------------------------------------------------------------------
# the full-tensor exact checkers, kept as the verdict oracle of the library's
# distinct-row ones: every integral and identity on all 2^m rows of q(n, m)
# under kron_power(phi, m)


def _integral(a, w, f):
    """integral(a^t w rho) / mu_00 as a constant matrix, through one-factor integrate_rows."""
    [(rows, d)] = integrate_rows([a], w, f)
    return const_matrix([[Fraction(v, d) for v in row] for row in rows], w.cols)


def _full_gram(sys, n, m):
    return _integral(sys.q(n, m), sys.weighted(n, m), sys.family)


def oracle_check_b(sys, n, m):
    f = sys.family
    pearson_ok = oracle_level_pearson_check(f, m, sys.phi_power)
    notes = [] if pearson_ok else ["lifted pearson identity fails"]
    crosses = [_integral(sys.q(k, m), sys.weighted(n, m), f) for k in range(n)]
    ortho_ok = all(c.is_zero for c in crosses)
    if not ortho_ok:
        notes.append("cross terms with a lower stack survive")
    gram_ok = det_exact(_full_gram(sys, n, m)) != 0
    if not gram_ok:
        notes.append("level gram singular")
    return _report("b", f.name, n, m, pearson_ok and ortho_ok and gram_ok,
                   notes="; ".join(notes))


def _full_divergence_identity(sys, n, m, lam):
    f = sys.family
    delta = f.log_grad_x.den * f.log_grad_y.den
    lhs = cleared_divergence(f, sys.weighted(n - m - 1, m + 1))
    return lhs == (sys.weighted(n - m, m) @ lam).scale(-delta)


def oracle_check_d(sys, n):
    f = sys.family
    notes = []
    ok = True
    for m in range(n):
        try:
            lam = oracle_lambda_via_operator(sys, n - m, m)
        except NoConstantSolution as exc:
            return _report("d", f.name, n, 0, False,
                           notes=f"level {m}: no constant eigenvalue matrix: {exc}")
        if det_exact(lam) == 0:
            ok = False
            notes.append(f"level {m}: singular eigenvalue matrix")
        elif not _full_divergence_identity(sys, n, m, lam):
            ok = False
            notes.append(f"level {m}: divergence identity fails")
    return _report("d", f.name, n, 0, ok, notes="; ".join(notes))


def oracle_rodrigues_levels(sys, n):
    """rodrigues_reconstruct's per-level verdicts and its last tower value."""
    f = sys.family
    lams = [oracle_lambda_via_operator(sys, n - m, m) for m in range(n)]
    delta = f.log_grad_x.den * f.log_grad_y.den
    num, power, suffix, signs = sys.weighted(0, n), ONE, PolyMatrix.identity(n + 1), []
    for k in range(1, n + 1):
        num = cleared_divergence(f, num, k - 1)
        power = power * delta
        suffix = lams[n - k] @ suffix
        signs.append(num == (sys.weighted(k, n - k) @ suffix).scale(power * (-1) ** k))
    p_t = sys.p(n).transpose()
    return signs, [s for s in (1, -1) if num == (p_t @ suffix).scale(power * s)]


def oracle_check_e(sys, n, m):
    f = sys.family
    qprime = sys.q(n - 1, m + 1)
    mid = sys.weighted(n - 1, m + 1)
    w = hstack(mid.top_half(), mid.bottom_half())
    lhs = kron(f.phi, PolyMatrix.identity(2 ** m)) @ qprime
    qs = [sys.q(k, m) for k in range(n + 2)]
    ok, recon, notes = True, None, []
    for k, qk in enumerate(qs):
        nk = _integral(qk, w, f)
        if k < n - 1:
            if not nk.is_zero:
                ok = False
                notes.append(f"projection on stack {k} survives")
            continue
        try:
            ak = rat_solve(_full_gram(sys, k, m), nk)
        except SingularMatrixError:
            return _report("e", f.name, n, m, False,
                           notes=f"level gram singular at stack {k}")
        recon = qk @ ak if recon is None else recon + qk @ ak
        if k == n - 1:
            a_low = ak
    if hstack(lhs.top_half(), lhs.bottom_half()) != recon:
        ok = False
        notes.append("three term reconstruction misses the left side")
    want = n + m + 1
    got = rank_exact(vstack(*(PolyMatrix.from_rows([a_low.row_list(i)[h:h + want]
                                                    for i in range(a_low.rows)])
                              for h in (0, want))))
    if got != want:
        ok = False
        notes.append(f"lowest coefficient rank {got}, want {want}")
    return _report("e", f.name, n, m, ok, notes="; ".join(notes))


def _result(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


# the eigenvalue routes on all 2^m rows of q(n, m), of oracle_g_lead and of
# t_matrix: the oracles of the library's popcount-row solves


def full_second_order_image(f, level, q):
    """phi11 q_xx + 2 phi12 q_xy + phi22 q_yy + psi1 q_x + psi2 q_y, on every row.

    level is one dense level of oracle_psi_tower.
    """
    qx, qy = q.dx(), q.dy()
    out = qx.dx().scale(f.phi[0, 0]) + qx.dy().scale(f.phi[0, 1] * 2)
    return out + qy.dy().scale(f.phi[1, 1]) + level["psi1"] @ qx + level["psi2"] @ qy


def oracle_lambda_via_operator(sys, n, m):
    if n < 1 or m < 0:
        raise ValueError("need gradient index n >= 1 and level m >= 0")
    q = sys.q(n, m)
    return _solve_constant_right_factor(
        q, -full_second_order_image(sys.family, oracle_psi_tower(sys.family, m)[m], q))


def oracle_lambda_via_formula(f, n, m):
    g = oracle_g_lead(n, m)
    return solve_columns(g, -(t_matrix(f, n, m) @ g))


def _random_poly(rng, degree):
    return BivariatePoly.from_terms({(i, d - i): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                     for d in range(degree + 1) for i in range(d + 1)})


def random_pearson_system(seed, nmax):
    """Seeded Pearson data (symmetric quadratic phi, linear psi with a
    nonsingular drift matrix) over random columns P_0 .. P_nmax, neither
    monic nor orthogonal: an OrthoSystem no weight builds."""
    rng = random.Random(seed)
    while True:
        p11, p12, p22 = (_random_poly(rng, 2) for _ in range(3))
        f = _pearson_family([[p11, p12], [p12, p22]], _random_poly(rng, 1),
                            _random_poly(rng, 1))
        if det_exact(f.d_matrix()) != 0:
            break
    cols = [PolyMatrix.column([_random_poly(rng, k) for _ in range(k + 1)])
            for k in range(nmax + 1)]
    return f, OrthoSystem(f, cols)


_ROUTE_CASES = ["product_hermite", "product_laguerre(1,2)", "hermite_laguerre(1)",
                "product_jacobi(1/2,1/2,1/2,1/2)", "triangle(1,1,1)", "triangle(-1/2,1/3,2)",
                *(f"random Pearson data {seed}" for seed in range(4))]


def _route_system(case, nmax):
    if case.startswith("random"):
        return random_pearson_system(int(case.split()[-1]), nmax)
    f = builtin(case)
    return f, build_monic(f, nmax)


@pytest.mark.parametrize("case", _ROUTE_CASES)
def test_popcount_row_routes_match_their_full_row_oracles(case):
    # equal eigenvalue matrices, or the same exception with the same message
    f, sys = _route_system(case, 8)
    outcomes = set()
    for n in range(1, 9):
        for m in range(min(4, 8 - n) + 1):
            got = _result(lambda_via_operator, sys, n, m)
            assert got == _result(oracle_lambda_via_operator, sys, n, m), (n, m)
            outcomes.add(type(got).__name__)
            got = _result(lambda_via_formula, f, n, m)
            assert got == _result(oracle_lambda_via_formula, f, n, m), (n, m)
            outcomes.add(type(got).__name__)
    if case.startswith("random"):
        assert "tuple" in outcomes  # the random columns give no eigenvalue matrix


@pytest.mark.parametrize("case", _ROUTE_CASES)
def test_level_image_and_symbol_rows_depend_only_on_popcount(case):
    f, sys = _route_system(case, 6)
    tower = oracle_psi_tower(f, 4)
    for n in range(1, 5):
        for m in range(min(4, 6 - n) + 1):
            image = full_second_order_image(f, tower[m], sys.q(n, m))
            reps = [2 ** bin(r).count("1") - 1 for r in range(2 ** m)]
            assert all(image.row_list(r) == image.row_list(reps[r])
                       for r in range(2 ** m)), (n, m)
            second = sys.q_rows(n - 2, m + 2) if n >= 2 else \
                PolyMatrix.zeros(m + 3, n + m + 1)
            op = _level_operator(f, psi_tower(f, m).level(m).class_sums, m)
            rows = op @ vstack(second, sys.q_rows(n - 1, m + 1))
            assert rows == PolyMatrix.from_rows([image.row_list(2 ** s - 1)
                                                 for s in range(m + 1)]), (n, m)
            g = oracle_g_lead(n, m)
            tg = t_matrix(f, n, m, tower) @ g
            b = n + 1
            for mat in (g, tg):
                blocks = [[mat.row_list(r * b + i) for i in range(b)] for r in range(2 ** m)]
                assert all(blocks[r] == blocks[reps[r]] for r in range(2 ** m)), (n, m)


def test_exact_run_forms_no_full_gradient_stack(monkeypatch):
    # every exact (b)-(e) cell, (d) and its eigenvalue solves included,
    # reads the distinct rows only: q(n, m) is formed at level 0 alone
    built = []
    real = characterize.build_monic
    monkeypatch.setattr(characterize, "build_monic",
                        lambda f, nmax: built.append(real(f, nmax)) or built[-1])
    reports = verify_all(builtin("triangle(1,1,1)"), nmax=5, mmax=3)
    assert "error" not in {r.status for r in reports}
    [sys] = built
    assert ("lambda", 2, 3) in sys._memo
    assert [k for k in sys._memo if k[0] == "q" and k[2] >= 1] == []


# product_hermite's weight matrix replaced: "cubic" fails the lifted
# Pearson identity (its drift tower has quadratic entries), leaks low (e)
# projections and has no constant eigenvalue matrix above level zero;
# "quadratic" also keeps (b) cross terms with lower stacks
_CONTROL_PHI = {
    name: PolyMatrix.from_rows([[parse_poly(p11), parse_poly("x*y")],
                                [parse_poly("x*y"), parse_poly("1")]])
    for name, p11 in (("cubic", "1 + x^3"), ("quadratic", "1 + x^2"))}


@pytest.mark.parametrize("ref", ["product_hermite", "product_laguerre(1,2)",
                                 "hermite_laguerre(1)", "product_jacobi(1/2,1/2,1/2,1/2)",
                                 "triangle(1,1,1)", "hermite_laguerre(0)",
                                 "product_jacobi(0,0,0,0)", *_CONTROL_PHI])
def test_distinct_row_checkers_match_the_full_tensor_oracle(ref):
    if ref in _CONTROL_PHI:
        f = dataclasses.replace(builtin("product_hermite"), phi=_CONTROL_PHI[ref])
    else:
        f = builtin(ref)
    nmax, mmax = 4, 3
    sys = build_monic(f, nmax + mmax + 1)

    def same(check, oracle, *cell):
        got, want = (_result(fn, sys, *cell) for fn in (check, oracle))
        assert got == want, cell
        return got

    for n in range(1, nmax + 1):
        for m in range(mmax + 1):
            if m:
                same(check_b, oracle_check_b, n, m)
            same(check_e, oracle_check_e, n, m)
        same(check_d, oracle_check_d, n)
        out = _result(rodrigues_reconstruct, sys, n)
        if isinstance(out, dict):
            signs, finals = oracle_rodrigues_levels(sys, n)
            assert out["level_sign_ok"] == signs, n
            assert [out["final_sign"]] == (finals[:1] or [0]), n
    for n in range(nmax + 1):
        for m in range(mmax + 1):
            assert sys.gram(n, m) == _full_gram(sys, n, m), (n, m)


def _primitive(rows, cols):
    """The first cols entries of each row over their gcd, sign fixed: blind to row scaling."""
    out = []
    for row in rows:
        row = row[:cols]
        g = gcd(*row)
        if g:
            g = g if next(v for v in row if v) > 0 else -g
            row = [v // g for v in row]
        out.append(tuple(row))
    return tuple(out)


def _record_square_eliminations(monkeypatch, calls, inside=None):
    """Append _primitive of the pivot block of every square solve to calls.

    A square solve (or inverse) is an _echelon call on ncols rows with
    more than ncols columns; rank and determinant calls have none to
    spare.  With inside, a list, only the calls made while it is
    nonempty are kept.
    """
    real = matpoly._echelon

    def recording(w, ncols):
        if len(w) == ncols and len(w[0]) > ncols and (inside is None or inside):
            calls.append(_primitive(w, ncols))
        return real(w, ncols)

    for mod in (matpoly, orthosys, characterize):
        if hasattr(mod, "_echelon"):
            monkeypatch.setattr(mod, "_echelon", recording)


def _gram_key(rec):
    return _primitive(rec.rows, len(rec.rows))


def _gram_records_eliminated_once(mp, f, nmax, mmax):
    """The (n, m) of every gram record of verify_all(f, nmax, mmax), each eliminated once.

    Every square elimination of the run is recorded, construction
    included; build_monic eliminates the level-0 blocks it builds and
    keeps their records, and every cell that reads a block shares its
    one elimination.  Inside the construction and the (b) and (e) cells,
    the readers of the blocks, every square solve is one against a
    block.  The other checks eliminate matrices that are no Gram block;
    some blocks are proportional to others, so they are counted by key.
    """
    calls, inside, built, inside_calls = [], [], [], []
    _record_square_eliminations(mp, calls)
    _record_square_eliminations(mp, inside_calls, inside)

    def counted(*args, _real):
        inside.append(1)
        try:
            return _real(*args)
        finally:
            inside.pop()

    for name in ("check_b", "check_e"):
        mp.setattr(characterize, name,
                   functools.partial(counted, _real=getattr(characterize, name)))
    real_build = characterize.build_monic
    mp.setattr(characterize, "build_monic",
               lambda f, nmax: built.append(counted(f, nmax, _real=real_build)) or built[-1])
    reports = verify_all(f, nmax=nmax, mmax=mmax)
    assert "error" not in {r.status for r in reports}
    [sys] = built
    records = {key[1:]: rec for key, rec in sys._memo.items() if key[0] == "gram record"}
    keys = Counter(map(_gram_key, records.values()))
    assert Counter(inside_calls) == keys
    assert Counter(c for c in calls if c in keys) == keys
    return set(records)


def test_each_exact_gram_block_is_eliminated_once_per_system(monkeypatch):
    f = builtin("triangle(1,1,1)")
    # by parts, (b) reads T_n and (e) T_k, so no level-m record is built:
    # the construction's level-0 blocks and, at the corner of (e), gram(N, 0)
    with monkeypatch.context() as mp:
        assert _gram_records_eliminated_once(mp, f, 5, 3) == {(k, 0) for k in range(10)}
    # with the guard off, (b) and the three (e) cells that read a level
    # block share one elimination
    with monkeypatch.context() as mp:
        mp.setattr(byparts, "_by_parts", lambda *args: False)
        got = _gram_records_eliminated_once(mp, f, 5, 3)
    assert got == {(k, 0) for k in range(9)} | {(k, m) for k in range(7) for m in range(1, 4)}


def test_a_singular_gram_block_is_recorded_and_gives_the_oracle_notes(monkeypatch):
    f = builtin("triangle(1,1,1)")
    sys = build_monic(f, 6)
    real = _full_gram(sys, 2, 1)
    # row 1 repeats row 0; the oracles read the same block
    singular = PolyMatrix.from_rows([real.row_list(0), real.row_list(0),
                                     *(real.row_list(i) for i in range(2, real.rows))])
    frs = _consts(singular)
    d = lcm(*(v.denominator for row in frs for v in row))
    rows = [[int(v * d) for v in row] for row in frs]
    sys._memo[("gram record", 2, 1)] = orthosys._gram_record(rows, d)
    # the contraction reads the injected record; the by-parts route
    # would read T_2 (test_reductions covers a singular T_k)
    monkeypatch.setattr(byparts, "_by_parts", lambda *args: False)
    full_gram = _full_gram
    monkeypatch.setitem(globals(), "_full_gram",
                        lambda s, n, m: singular if (n, m) == (2, 1) else full_gram(s, n, m))
    calls, inside = [], []
    _record_square_eliminations(monkeypatch, calls, inside)
    # every cell reads the injected record, so none eliminates the block
    for check, oracle, n, note in [
            (check_e, oracle_check_e, 1, "level gram singular at stack 2"),
            (check_b, oracle_check_b, 2, "level gram singular"),
            (check_e, oracle_check_e, 2, "level gram singular at stack 2"),
            (check_e, oracle_check_e, 3, "level gram singular at stack 2")]:
        inside.append(1)
        got = check(sys, n, 1)
        inside.pop()
        assert got == oracle(sys, n, 1), (check.__name__, n)
        assert got.status == "fail" and note in got.notes.split("; "), (check.__name__, n)
    record = sys.gram_record(2, 1)
    assert record.det == 0 and record.inv is None
    assert calls.count(_gram_key(record)) == 0
    # the exact gram is a view of the record
    assert sys.gram(2, 1) == singular


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(pearson_data())
def test_exact_check_e_matches_its_oracle_on_random_pearson_data(f):
    # any moment functional will do: the checks read phi and the moments
    f = dataclasses.replace(f, moment_fn=builtin("triangle(1,1,1)").moment_fn)
    sys = build_monic(f, 6)
    for n in range(1, 4):
        for m in range(3):
            assert _result(check_e, sys, n, m) == _result(oracle_check_e, sys, n, m), (n, m)


# ---------------------------------------------------------------------------
# the grid runner


def test_verify_all_report_order_and_modes():
    f = builtin("product_hermite")
    reports = verify_all(f, nmax=2, mmax=1)
    keys = [(r.property, r.n, r.m) for r in reports]
    order = {p: i for i, p in enumerate(PROPERTY_ORDER)}
    assert keys == sorted(keys, key=lambda k: (order[k[0]], k[1], k[2]))
    assert all(r.mode == "exact" for r in reports)
    assert all(r.status == "pass" for r in reports)


def test_verify_all_property_filter():
    f = builtin("product_laguerre(0,0)")
    reports = verify_all(f, nmax=2, mmax=1, properties=("a", "lemma1"))
    assert {r.property for r in reports} == {"a", "lemma1"}
    reports = verify_all(f, nmax=2, mmax=1, properties=("aux",))
    assert {r.property for r in reports} == set(AUX_PROPERTIES)


def test_verify_all_argument_validation():
    f = builtin("product_hermite")
    with pytest.raises(ValueError):
        verify_all(f, nmax=0)
    with pytest.raises(ValueError):
        verify_all(f, mmax=-1)
    with pytest.raises(ValueError):
        verify_all(f, mode="sideways")
    with pytest.raises(ValueError):
        verify_all(f, properties=("f",))


def test_verify_all_rejects_an_empty_property_selection(monkeypatch):
    # an empty selection would pass vacuously; it is refused before any build
    monkeypatch.setattr(characterize, "build_monic", None)
    f = builtin("product_hermite")
    for props in ((), []):
        with pytest.raises(ValueError, match="^no property selected$"):
            verify_all(f, nmax=2, mmax=1, properties=props)


def test_verify_all_rejects_a_selection_with_no_cell_on_the_grid(monkeypatch):
    # (b) has no cell at m = 0, so b alone at mmax = 0 would check nothing
    # and pass; it is refused before any build, and a row with cells keeps
    # the run going
    f = builtin("product_hermite")
    reports = verify_all(f, nmax=2, mmax=0, properties=("b", "c"))
    assert [(r.property, r.n, r.m) for r in reports] == [("c", 1, 0), ("c", 2, 0)]
    monkeypatch.setattr(characterize, "build_monic", None)
    for props in ("b", ("b",), ["b", "b"]):
        with pytest.raises(ValueError, match=r"^no chosen property has a cell on the grid "
                                             r"n<=2 m<=0$"):
            verify_all(f, nmax=2, mmax=0, properties=props)


def _structural_grid(reports):
    """(property, n, m) -> (status, mode, notes) for the b/c/d/e cells."""
    return {(r.property, r.n, r.m): (r.status, r.mode, r.notes)
            for r in reports if r.property in ("b", "c", "d", "e")}


def _cells(props, nmax, mmax):
    grid = {
        "b": [(n, m) for n in range(1, nmax + 1) for m in range(1, mmax + 1)],
        "c": [(n, m) for n in range(1, nmax + 1) for m in range(mmax + 1)],
        "d": [(n, 0) for n in range(1, nmax + 1)],
        "e": [(n, m) for n in range(1, nmax + 1) for m in range(mmax + 1)],
    }
    return [(p, n, m) for p in props for n, m in grid[p]]


def test_verify_all_never_raises_without_oracle():
    f = builtin("product_hermite")
    blind = dataclasses.replace(f, moment_fn=None)
    reports = verify_all(blind, nmax=2, mmax=1)
    by_prop = {}
    for r in reports:
        by_prop.setdefault(r.property, []).append(r)
    # data-only checks still run and pass
    assert all(r.status == "pass" for r in by_prop["a"])
    assert all(r.status == "pass" for r in by_prop["lemma1"])
    # every structural cell reports the missing construction instead of
    # raising, each in its property's own mode: b and e in the resolved
    # (numeric) one, c and d always exact
    note = ("system construction failed: OracleUnavailableError: "
            "product_hermite: no exact moment oracle")
    want = {cell: ("fail", "numeric", note) for cell in _cells("be", 2, 1)}
    want.update({cell: ("fail", "exact", note) for cell in _cells("cd", 2, 1)})
    assert _structural_grid(reports) == want


def _counting_quadrature(monkeypatch):
    orders = []
    real = characterize.make_quadrature

    def counted(f, order):
        orders.append(order)
        return real(f, order)

    monkeypatch.setattr(characterize, "make_quadrature", counted)
    return orders


@pytest.mark.parametrize("order", [0, -3])
def test_verify_all_rejects_a_bad_quadrature_order(monkeypatch, order):
    orders = _counting_quadrature(monkeypatch)
    f = builtin("product_hermite")
    with pytest.raises(InvalidParameterError):
        verify_all(f, nmax=2, mmax=1, mode="numeric", quad_order=order)
    # exact runs and numeric runs of c and d alone read no rule
    assert verify_all(f, nmax=2, mmax=1, mode="exact", quad_order=order)
    assert verify_all(f, nmax=2, mmax=1, mode="numeric", quad_order=order,
                      properties=("c", "d"))
    # the grid floor is checked first, so no rule is built for any order
    assert orders == []


def test_verify_all_enforces_the_quadrature_floor_before_any_work(monkeypatch):
    # the CLI's floor nmax + mmax + 2: a lower rule under-resolves (e) at (2, 0)
    f = builtin("triangle(1,1,1)")
    floor = 2 + 1 + 2
    orders = _counting_quadrature(monkeypatch)
    builds = []
    real = characterize.build_monic

    def counted(fam, nmax):
        builds.append(nmax)
        return real(fam, nmax)

    monkeypatch.setattr(characterize, "build_monic", counted)
    for props in (None, ("b",), ("e",)):
        with pytest.raises(InvalidParameterError, match="grid floor"):
            verify_all(f, nmax=2, mmax=1, mode="numeric", quad_order=floor - 1,
                       properties=props)
    assert builds == [] and orders == []
    # exact runs and numeric runs of c and d alone read no rule
    exact = verify_all(f, nmax=2, mmax=1, mode="exact", quad_order=floor - 1)
    assert verify_all(f, nmax=2, mmax=1, mode="numeric", quad_order=floor - 1,
                      properties=("c", "d"))
    assert orders == []
    at_floor = verify_all(f, nmax=2, mmax=1, mode="numeric", quad_order=floor,
                          properties=("e",))
    assert orders == [floor] and builds == [4, 4, 4]
    e20 = [r.status for r in exact + at_floor if (r.property, r.n, r.m) == ("e", 2, 0)]
    assert e20 == ["pass", "pass"]


def test_verify_all_rejects_a_shallow_moments_table_before_any_work(monkeypatch):
    # exact (4, 2) reads gram(5, 2) of degree 2 * 5 + 2 * 2 = 14
    f = load_family(export_family(builtin("triangle(1,1,1)"), moment_degree=8))
    builds = []
    real = characterize.build_monic

    def counted(fam, nmax):
        builds.append(nmax)
        return real(fam, nmax)

    monkeypatch.setattr(characterize, "build_monic", counted)
    with pytest.raises(OracleUnavailableError) as info:
        verify_all(f, nmax=4, mmax=2)
    assert str(info.value) == ("moment (0,9) unavailable; the grid n<=4 m<=2 "
                               "needs every moment up to degree 14")
    assert builds == []


def _triangle_without_3_2():
    """triangle(1,1,1) tabulated to degree 8 with moment (3,2) left out."""
    doc = export_family(builtin("triangle(1,1,1)"), moment_degree=8)
    doc["moments"] = [e for e in doc["moments"] if e[:2] != [3, 2]]
    return load_family(doc)


def test_verify_all_names_the_first_hole_in_a_moments_table(monkeypatch):
    # the table build reads by ascending total degree, then ascending x
    # power, so it meets (3,2) first, though degrees 6 to 8 are complete
    f = _triangle_without_3_2()
    builds = []
    monkeypatch.setattr(characterize, "build_monic",
                        lambda *args: builds.append(args))
    with pytest.raises(OracleUnavailableError) as info:
        verify_all(f, nmax=2, mmax=0)
    assert str(info.value) == ("moment (3,2) unavailable; the grid n<=2 m<=0 "
                               "needs every moment up to degree 6")
    assert builds == []


def test_moment_names_the_index_its_oracle_could_not_give():
    f = _triangle_without_3_2()
    with pytest.raises(OracleUnavailableError) as info:
        f.moment(3, 2)
    assert info.value.moment == (3, 2)
    assert str(info.value) == "moment (3,2) beyond the tabulated degree"
    blind = dataclasses.replace(builtin("triangle(1,1,1)"), moment_fn=None)
    with pytest.raises(OracleUnavailableError, match="no exact moment oracle") as info:
        blind.moment(0, 0)
    assert info.value.moment is None



def test_verify_all_builds_and_probes_only_what_the_chosen_rows_read(monkeypatch):
    # a degree-4 table is too shallow for any system on (2, 1), which needs
    # degree 7; (a) reads the Pearson data alone and lemma2 the drift tower
    f = load_family(export_family(builtin("triangle(1,1,1)"), moment_degree=4))
    calls = []
    for name in ("build_monic", "psi_tower"):
        real = getattr(characterize, name)
        monkeypatch.setattr(characterize, name,
                            lambda *args, _name=name, _real=real:
                            calls.append(_name) or _real(*args))
    reports = verify_all(f, nmax=2, mmax=1, properties=("a", "aux"))
    assert {r.property for r in reports} == {"a", *AUX_PROPERTIES}
    assert all(r.status == "pass" for r in reports)
    assert calls == ["psi_tower"]
    calls.clear()
    assert [r.status for r in verify_all(f, nmax=2, mmax=1, properties=("a",))] == ["pass"]
    assert calls == []
    with pytest.raises(OracleUnavailableError, match="up to degree 8"):
        verify_all(f, nmax=2, mmax=1, properties=("e",))
    assert calls == []

def test_verify_all_reads_a_bare_string_as_one_property_token():
    f = builtin("product_hermite")
    assert verify_all(f, nmax=2, mmax=1, properties="aux") == \
        verify_all(f, nmax=2, mmax=1, properties=("aux",))
    assert verify_all(f, nmax=2, mmax=1, properties="a") == \
        verify_all(f, nmax=2, mmax=1, properties=["a"])
    with pytest.raises(ValueError, match="^unknown property token 'bc'; "):
        verify_all(f, nmax=2, mmax=1, properties="bc")


def test_verify_all_builds_the_drift_tower_only_as_deep_as_it_is_read(monkeypatch):
    asked = []
    real = characterize.psi_tower
    # characterize's checkers and byparts' by-parts readers each look the
    # tower up through their own module global
    for mod in (characterize, byparts):
        monkeypatch.setattr(mod, "psi_tower",
                            lambda f, mmax: asked.append(mmax) or real(f, mmax))
    b_only = verify_all(builtin("triangle(1,1,1)"), nmax=10, mmax=2, properties=("b",))
    assert [(r.n, r.m) for r in b_only] == [(n, m) for n in range(1, 11) for m in (1, 2)]
    assert asked and max(asked) == 1
    # (c) reads levels up to mmax and (d) up to nmax - 1; (b) and lemma2
    # decide their level-free verdicts at level 1, lemma2 keeping its cells
    # m = 1 .. max(1, mmax, nmax - 1); the depth changes no b cell
    for props, depth in [(("b",), 1), (("c",), 2), (("d",), 5), (("lemma2",), 1),
                         (("aux",), 1), (("b", "d"), 5), (None, 5)]:
        asked.clear()
        reports = verify_all(builtin("triangle(1,1,1)"), nmax=6, mmax=2, properties=props)
        assert asked[0] == depth and max(asked) == depth, props
        if props is None:
            assert [r for r in reports if r.property == "b"] == \
                [r for r in b_only if r.n <= 6]
    # at mmax = 0 (b) has no cell, so it asks for no level a (c) cell does not
    asked.clear()
    verify_all(builtin("triangle(1,1,1)"), nmax=2, mmax=0, properties=("b", "c"))
    assert asked[0] == 0


def test_prop1_runs_the_identity_suite_once_per_n(monkeypatch):
    f = builtin("product_hermite")
    real = basisops.identity_suite
    calls = []

    def counted(n, *args, **kwargs):
        calls.append((n, args, kwargs))
        got = real(n, *args, **kwargs)
        return {k: ok and not (n == 2 and k == "deriv1") for k, ok in got.items()}

    monkeypatch.setattr(characterize, "identity_suite", counted)
    reports = verify_all(f, nmax=3, mmax=2, properties=("prop1",))
    assert [(r.n, r.m, r.status, r.notes) for r in reports] == [
        (n, m, "fail" if n == 2 else "pass", "deriv1 fails" if n == 2 else "")
        for n in range(4) for m in range(3)]
    assert calls == [(n, (), {}) for n in range(4)]


def test_verify_all_builds_one_rule_and_only_when_it_is_read(monkeypatch):
    orders = _counting_quadrature(monkeypatch)
    f = builtin("product_hermite")
    verify_all(f, nmax=2, mmax=1, mode="numeric", quad_order=12)
    assert orders == [12]
    orders.clear()
    # auto mode without an oracle resolves to numeric, but no system is built
    verify_all(dataclasses.replace(f, moment_fn=None), nmax=2, mmax=1)
    assert orders == []


def test_verify_all_rejects_a_domain_without_a_rule_before_construction(monkeypatch):
    # quadrant(-2, 2): no Gauss-Laguerre rule for an exponent <= -1
    f = dataclasses.replace(builtin("product_laguerre(1,2)"),
                            domain=Domain("quadrant", (Fraction(-2), Fraction(2))))
    orders = _counting_quadrature(monkeypatch)
    builds = []
    real = characterize.build_monic

    def counted(fam, nmax):
        builds.append(nmax)
        return real(fam, nmax)

    monkeypatch.setattr(characterize, "build_monic", counted)
    for props in (None, ("b",), ("e",)):
        with pytest.raises(InvalidParameterError,
                           match="quadrant quadrature parameters must exceed -1"):
            verify_all(f, nmax=2, mmax=1, mode="numeric", properties=props)
    assert builds == [] and orders == []
    # exact runs and numeric runs of c and d alone read no rule
    assert verify_all(f, nmax=2, mmax=1, mode="exact")
    assert verify_all(f, nmax=2, mmax=1, mode="numeric", properties=("c", "d"))
    assert orders == [] and len(builds) == 2


def test_verify_all_quadratic_drift_never_raises():
    f = builtin("product_hermite")
    bad = dataclasses.replace(f, psi1=parse_poly("x^2"))
    reports = verify_all(bad, nmax=2, mmax=1)
    a = [r for r in reports if r.property == "a"]
    assert a and a[0].status == "fail"
    # b, c and d need the drift tower and report its failure in exact mode;
    # e does not read the tower, and the moments are those of the hermite
    # weight, so its cells run and pass
    note = "drift tower construction failed: ValueError: drift entry of degree above one"
    want = {cell: ("fail", "exact", note) for cell in _cells("bcd", 2, 1)}
    want.update({cell: ("pass", "exact", "") for cell in _cells("e", 2, 1)})
    assert _structural_grid(reports) == want
    # in a numeric run the blocked b cells keep b's numeric mode
    numeric = _structural_grid(verify_all(bad, nmax=2, mmax=1, mode="numeric"))
    want = {cell: ("fail", "exact", note) for cell in _cells("cd", 2, 1)}
    want.update({cell: ("fail", "numeric", note) for cell in _cells("b", 2, 1)})
    want.update({cell: ("pass", "numeric", "") for cell in _cells("e", 2, 1)})
    assert numeric == want


def test_verify_all_deterministic():
    f = builtin("product_laguerre(1,2)")
    base = verify_all(f, nmax=3, mmax=1)
    again = verify_all(f, nmax=3, mmax=1)
    assert base == again


def test_verify_all_numeric_verdicts_match_exact_on_jacobi():
    f = builtin("product_jacobi(1/2,1/2,1/2,1/2)")
    props = ("a", "b", "c", "d", "e")
    exact = verify_all(f, nmax=3, mmax=1, mode="exact", properties=props)
    numeric = verify_all(f, nmax=3, mmax=1, mode="numeric", properties=props,
                         quad_order=20)
    key = lambda r: (r.property, r.n, r.m)
    verdict_e = {key(r): r.status for r in exact}
    verdict_n = {key(r): r.status for r in numeric}
    assert verdict_e == verdict_n


def test_report_dict_round_trip():
    rep = PropertyReport("c", "demo", 2, 1, "pass", 0.0, 0.0, "exact", "")
    d = rep.to_dict()
    assert d["property"] == "c"
    assert PropertyReport(**d) == rep
