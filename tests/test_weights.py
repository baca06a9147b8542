from __future__ import annotations

import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copoly2d.matpoly import PolyMatrix, det_exact
from copoly2d.polycore import BivariatePoly as P, parse_poly
from copoly2d.weights import (
    FamilyLoadError,
    InvalidParameterError,
    OracleUnavailableError,
    UnknownFamilyError,
    builtin,
    check_pearson,
    check_phi_conditions,
    cleared_divergence,
    export_family,
    list_builtins,
    load_family,
    make_quadrature,
    parse_family_ref,
    validate_family,
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


def test_registry():
    names = [n for n, _, _ in list_builtins()]
    assert names == sorted(
        ["product_hermite", "product_laguerre", "hermite_laguerre", "product_jacobi", "triangle"]
    )
    with pytest.raises(UnknownFamilyError):
        builtin("hermite_cubed")


def test_parse_family_ref():
    assert parse_family_ref("triangle(1, 1/2, 0)") == ("triangle", ("1", "1/2", "0"))
    assert parse_family_ref("product_hermite") == ("product_hermite", ())
    with pytest.raises(UnknownFamilyError):
        parse_family_ref("triangle(1,")
    assert parse_family_ref("product_hermite()") == ("product_hermite", ())


@pytest.mark.parametrize("ref", ["triangle(1,,1,1)", "triangle(1,1,1,)", "triangle(,1,1,1)",
                                 "triangle(1, ,1)"])
def test_an_empty_parameter_slot_is_rejected(ref):
    with pytest.raises(InvalidParameterError, match="^empty parameter slot in "):
        parse_family_ref(ref)
    with pytest.raises(InvalidParameterError, match="^empty parameter slot in "):
        builtin(ref)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        builtin("product_laguerre", ("-1", "0"))
    with pytest.raises(InvalidParameterError):
        builtin("triangle", ("0", "0"))
    with pytest.raises(InvalidParameterError):
        builtin("product_hermite", ("1",))
    with pytest.raises(InvalidParameterError):
        builtin("product_laguerre(0,0)", ("0", "0"))


@pytest.mark.parametrize("params", ["12", [True, 2], ("1", False), {"1": 0, "2": 0}, {"1", "2"}])
def test_parameters_are_a_sequence_of_numbers(params):
    # a string is not read one character at a time, a dict by its keys,
    # a set in no fixed order, nor a bool as 0 or 1
    with pytest.raises(InvalidParameterError, match="^unparseable parameters "):
        builtin("product_laguerre", params)
    doc = export_family(builtin("product_laguerre(1,2)"), moment_degree=4)
    doc["domain"]["params"] = params
    with pytest.raises(FamilyLoadError, match="^bad domain parameters: "):
        load_family(doc)


def test_parameters_may_mix_numbers_and_number_strings():
    want = builtin("product_laguerre(1,2)").domain
    assert builtin("product_laguerre", ["1", 2]).domain == want
    assert builtin("product_laguerre", (Fraction(1), "2")).domain == want
    assert builtin("hermite_laguerre", [Fraction(1, 2)]).domain.params == (Fraction(1, 2),)


def test_pearson_all_builtins():
    for ref in ALL_INSTANCES:
        f = builtin(ref)
        assert check_pearson(f), ref
        assert check_phi_conditions(f), ref
        assert det_exact(f.d_matrix()) != 0, ref


def test_pearson_rejects_perturbation():
    f = builtin("product_hermite")
    bad = dataclasses.replace(f, psi1=f.psi1 + 1)
    assert not check_pearson(bad)


_CLEARED = settings(derandomize=True, deadline=None, database=None, max_examples=40)
# families whose logarithmic gradients have nonconstant denominators, and
# one (hermite_laguerre) where only the y gradient has one
_DIVIDED_FAMILIES = [builtin(ref) for ref in (
    "triangle(1,1,1)", "product_jacobi(1/2,3/2,1/2,1/2)",
    "product_laguerre(1,2)", "hermite_laguerre(1)")]
_TERM = st.tuples(st.integers(0, 3), st.integers(0, 3),
                  st.fractions(min_value=-4, max_value=4, max_denominator=5))


@st.composite
def _even_matrices(draw):
    rows, cols = 2 * draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return PolyMatrix(rows, cols, [
        P.from_terms({(i, j): c for i, j, c in draw(st.lists(_TERM, max_size=4))})
        for _ in range(rows * cols)])


@_CLEARED
@given(_even_matrices(), st.sampled_from(_DIVIDED_FAMILIES))
def test_cleared_divergence_at_zero_is_the_cleared_pearson_form(w, f):
    gxn, gxd = f.log_grad_x.num, f.log_grad_x.den
    gyn, gyd = f.log_grad_y.num, f.log_grad_y.den
    h = w.rows // 2
    want = [[gxd * gyd * (w[r, c].dx() + w[h + r, c].dy())
             + gxn * gyd * w[r, c] + gyn * gxd * w[h + r, c]
             for c in range(w.cols)] for r in range(h)]
    assert cleared_divergence(f, w) == PolyMatrix.from_rows(want, w.cols)


@_CLEARED
@given(_even_matrices(), st.sampled_from(_DIVIDED_FAMILIES), st.integers(0, 3))
def test_cleared_divergence_ignores_the_representation(w, f, e):
    # w / delta^e and (delta w) / delta^(e+1) are one matrix, so their
    # cleared divergences differ only by the extra power of delta
    delta = f.log_grad_x.den * f.log_grad_y.den
    got = cleared_divergence(f, w.scale(delta), e + 1)
    assert got == cleared_divergence(f, w, e).scale(delta)


def test_jacobi_zero_params_data():
    f = builtin("product_jacobi(0,0,0,0)")
    assert f.phi[0, 0] == parse_poly("1 - x^2")
    assert f.phi[1, 1] == parse_poly("1 - y^2")
    assert f.psi1 == parse_poly("-2*x")
    assert f.psi2 == parse_poly("-2*y")
    assert det_exact(f.d_matrix()) == 4


def test_phi_conditions_counterexample():
    f = builtin("product_hermite")
    bad_phi = PolyMatrix.from_rows([[1, parse_poly("x")], [parse_poly("x"), 1]])
    bad = dataclasses.replace(f, phi=bad_phi)
    assert not check_phi_conditions(bad)


def test_hermite_moments():
    f = builtin("product_hermite")
    assert f.moment(0, 0) == 1
    assert f.moment(1, 0) == 0
    assert f.moment(2, 0) == Fraction(1, 2)
    assert f.moment(4, 0) == Fraction(3, 4)
    assert f.moment(2, 2) == Fraction(1, 4)
    assert f.moment(0, 6) == Fraction(15, 8)


def test_laguerre_moments():
    f = builtin("product_laguerre(1,2)")
    # rising factorials (2)_i and (3)_j
    assert f.moment(1, 0) == 2
    assert f.moment(2, 0) == 6
    assert f.moment(0, 2) == 12
    assert f.moment(1, 1) == 6


def _poch(a, k):
    out = Fraction(1)
    for t in range(k):
        out *= a + t
    return out


def _hermite_m(k):
    # integral x^k exp(-x^2) / integral exp(-x^2): odd vanish, (2j-1)!!/2^j
    if k % 2:
        return Fraction(0)
    out = Fraction(1)
    for t in range(1, k // 2 + 1):
        out *= Fraction(2 * t - 1, 2)
    return out


# the closed forms each tabled oracle reads, recomputed on every call
_PER_CALL = {
    "product_hermite": lambda i, j: _hermite_m(i) * _hermite_m(j),
    "product_laguerre": lambda i, j, a, b: _poch(a + 1, i) * _poch(b + 1, j),
    "hermite_laguerre": lambda i, j, a: _hermite_m(i) * _poch(a + 1, j),
    "triangle": lambda i, j, a, b, c: (_poch(a + 1, i) * _poch(b + 1, j)
                                       / _poch(a + b + c + 3, i + j)),
}


@pytest.mark.parametrize("ref", [
    "product_hermite", "product_laguerre(1,2)", "product_laguerre(-1/2,3)",
    "hermite_laguerre(0)", "hermite_laguerre(1/3)",
    "triangle(0,0,0)", "triangle(1,1,1)", "triangle(-1/2,1/3,2)"])
def test_tabled_oracles_match_the_per_call_closed_forms(ref):
    f, g = builtin(ref), builtin(ref)
    want = {(i, d - i): _PER_CALL[f.name](i, d - i, *f.domain.params)
            for d in range(25) for i in range(d + 1)}
    # one family fills its tables from the top degree down, the other
    # from the bottom up; each holds its own tables
    for fam, keys in ((f, sorted(want, key=sum, reverse=True)), (g, list(want))):
        for i, j in keys:
            got = fam.moment_fn(i, j)
            assert type(got) is Fraction and got == want[i, j], (i, j)


def test_jacobi_moments():
    f = builtin("product_jacobi(0,0,0,0)")
    assert f.moment(1, 0) == 0
    assert f.moment(2, 0) == Fraction(1, 3)
    assert f.moment(2, 4) == Fraction(1, 15)
    g = builtin("product_jacobi(1/2,1/2,1/2,1/2)")
    # semicircle moments: mu_2 = 1/4, mu_4 = 1/8
    assert g.moment(2, 0) == Fraction(1, 4)
    assert g.moment(4, 0) == Fraction(1, 8)
    assert g.moment(1, 0) == 0


def _jacobi_beta_expansion(k, a, b):
    # moment k of (1-x)^a (1+x)^b on (-1,1): substitute x = 2t - 1 and
    # expand (2t - 1)^k against the Beta moments of t
    def poch(v, r):
        out = Fraction(1)
        for s in range(r):
            out *= v + s
        return out
    return sum(Fraction(math.comb(k, r) * 2**r * (-1) ** (k - r))
               * poch(b + 1, r) / poch(a + b + 2, r) for r in range(k + 1))


@pytest.mark.parametrize("params", [(0, 0, 0, 0), ("1/2", "1/2", "1/2", "1/2"),
                                    ("-1/2", "3/2", 2, "-2/3"), ("5/7", "1/3", "7/2", 0)])
def test_jacobi_recurrence_matches_beta_expansion(params):
    a, b, c, d = (Fraction(v) for v in params)
    f = builtin("product_jacobi", tuple(str(v) for v in params))
    for i in range(13):
        for j in range(13 - i):
            assert f.moment(i, j) == (_jacobi_beta_expansion(i, a, b)
                                      * _jacobi_beta_expansion(j, c, d)), (i, j)


def test_triangle_moments():
    f = builtin("triangle(0,0,0)")
    assert f.moment(1, 0) == Fraction(1, 3)
    assert f.moment(1, 1) == Fraction(1, 12)
    assert f.moment(2, 0) == Fraction(1, 6)
    g = builtin("triangle(1,1,1)")
    assert g.moment(1, 0) == Fraction(2, 6)
    assert g.moment(0, 1) == Fraction(2, 6)


def test_quadrature_matches_oracle():
    for ref in ALL_INSTANCES:
        f = builtin(ref)
        order = 8
        rule = make_quadrature(f, order)
        assert rule.weights.shape == (order * order,)
        assert np.all(rule.weights > 0)
        assert abs(float(np.sum(rule.weights)) - 1.0) < 1e-12
        for i in range(0, 2 * order - 1, 3):
            for j in range(0, 2 * order - 1 - i, 4):
                exact = float(f.moment(i, j))
                vals = rule.nodes_x**i * rule.nodes_y**j
                got = float(np.sum(rule.weights * vals))
                # zero moments on unbounded domains cancel across huge
                # node values, so fidelity is relative to the rule's mass
                mass = float(np.sum(rule.weights * np.abs(vals)))
                scale = max(1.0, abs(exact), mass)
                assert abs(got - exact) <= 1e-12 * scale, (ref, i, j)


def test_rule_keeps_its_node_powers():
    rule = make_quadrature(builtin("hermite_laguerre(1)"), 6)
    xpow, ypow = rule.powers(3)
    assert xpow.shape == ypow.shape == (4, 36)
    for i in range(4):
        assert np.array_equal(xpow[i], rule.nodes_x**i)
        assert np.array_equal(ypow[i], rule.nodes_y**i)
    # a lower degree reuses the tables, a higher one rebuilds them
    assert rule.powers(2)[0] is xpow
    bigger = rule.powers(7)[0]
    assert bigger.shape == (8, 36) and np.array_equal(bigger[:4], xpow)
    assert rule.powers(5)[0] is bigger
    other = make_quadrature(builtin("hermite_laguerre(1)"), 6)
    assert other.powers(2)[0] is not bigger


def test_quadrature_order_guard():
    with pytest.raises(InvalidParameterError):
        make_quadrature(builtin("product_hermite"), 0)


def test_quadrature_needs_domain_parameters_above_minus_one():
    doc = export_family(builtin("triangle(1,1,1)"), moment_degree=2)
    for params in (["-1", "0", "0"], ["0", "0", "-3/2"]):
        doc["domain"]["params"] = params
        with pytest.raises(InvalidParameterError, match="triangle quadrature"):
            make_quadrature(load_family(doc), 4)


def test_export_load_round_trip():
    for ref in ALL_INSTANCES:
        f = builtin(ref)
        doc = export_family(f, moment_degree=10)
        g = load_family(doc)
        assert g.phi == f.phi
        assert g.psi1 == f.psi1 and g.psi2 == f.psi2
        assert g.log_grad_x == f.log_grad_x
        assert g.log_grad_y == f.log_grad_y
        assert g.domain == f.domain
        for i, j in ((0, 0), (3, 2), (5, 5)):
            assert g.moment(i, j) == f.moment(i, j)
        with pytest.raises(OracleUnavailableError):
            g.moment(11, 0)


def test_load_from_json_text_and_file(tmp_path):
    doc = export_family(builtin("product_laguerre(0,0)"), moment_degree=4)
    g = load_family(json.dumps(doc))
    assert g.name == "product_laguerre"
    p = tmp_path / "fam.json"
    p.write_text(json.dumps(doc))
    h = load_family(str(p))
    assert h.psi1 == g.psi1


@pytest.mark.parametrize("source, shown", [(5, "5"), ("[1, 2]", "[1, 2]"),
                                           (" null", "null")])
def test_loader_rejects_a_source_that_is_no_object_and_no_file(tmp_path, monkeypatch,
                                                               source, shown):
    # none of these names a file, even where a file of that name exists
    monkeypatch.chdir(tmp_path)
    (tmp_path / str(source).strip()).write_text("{}")
    with pytest.raises(FamilyLoadError,
                       match=rf"^bad family document: want a JSON object, got {re.escape(shown)}$"):
        load_family(source)


def test_loader_reads_paths_and_object_strings(tmp_path):
    doc = export_family(builtin("product_hermite"), moment_degree=4)
    p = tmp_path / "fam"
    p.write_text(json.dumps(doc))
    loaded = [load_family(src) for src in (str(p), p, "  " + json.dumps(doc), doc)]
    assert {g.name for g in loaded} == {"product_hermite"}
    assert all(g.moment(2, 2) == loaded[0].moment(2, 2) for g in loaded)
    with pytest.raises(FileNotFoundError):
        load_family(str(tmp_path / "missing.json"))
    with pytest.raises(json.JSONDecodeError):
        load_family("{ not json")


def test_loader_takes_moments_as_strings_or_ints_only():
    doc = export_family(builtin("triangle(1,1,1)"), moment_degree=4)
    i, j, v = doc["moments"][1]
    assert isinstance(v, str) and Fraction(v).denominator > 1
    for good in (0, 7, v):
        doc["moments"][1] = [i, j, good]
        assert load_family(doc).moment(i, j) == Fraction(good)
    # 1/3 written as a JSON number is 6004799503160661/18014398509481984
    for bad in (float(Fraction(v)), True, None, [1, 3]):
        doc["moments"][1] = [i, j, bad]
        with pytest.raises(FamilyLoadError, match=rf"moment \({i},{j}\)"):
            load_family(doc)


@pytest.mark.parametrize("entry, text", [
    ([1.5, True, "0"], "entry [1.5, True, '0'] needs nonnegative int indices"),
    ([1, False, "0"], "entry [1, False, '0'] needs nonnegative int indices"),
    (["1", 0, "0"], "entry ['1', 0, '0'] needs nonnegative int indices"),
    ([-1, 2, "0"], "entry [-1, 2, '0'] needs nonnegative int indices"),
    ([2, 0, "7"], "entry [2, 0, '7'] repeats moment (2,0)"),
    ([5, 0, "1/0"], "moment (5,0) is '1/0', not a rational number"),
    ([5, 0, "abc"], "moment (5,0) is 'abc', not a rational number"),
])
def test_loader_rejects_bad_and_repeated_moment_indices(entry, text):
    doc = export_family(builtin("product_hermite"), moment_degree=4)
    doc["moments"].append(entry)
    with pytest.raises(FamilyLoadError) as err:
        load_family(doc)
    assert str(err.value) == f"bad moments table: {text}"


def test_loader_rejects_asymmetric_phi():
    doc = export_family(builtin("product_hermite"), moment_degree=2)
    doc["phi"] = [["1", "x"], ["0", "1"]]
    with pytest.raises(FamilyLoadError):
        load_family(doc)


def test_loader_rejects_degree_violations():
    base = export_family(builtin("product_hermite"), moment_degree=2)
    cubic = dict(base)
    cubic["phi"] = [["1 + x^3", "0"], ["0", "1"]]
    with pytest.raises(FamilyLoadError):
        load_family(cubic)
    steep = dict(base)
    steep["psi1"] = "-2*x^2"
    with pytest.raises(FamilyLoadError):
        load_family(steep)


def test_loader_rejects_singular_drift():
    doc = export_family(builtin("product_hermite"), moment_degree=2)
    doc["psi2"] = "-2*x"  # same direction as psi1
    with pytest.raises(FamilyLoadError):
        load_family(doc)


def test_loader_rejects_missing_fields_and_bad_domain():
    doc = export_family(builtin("product_hermite"), moment_degree=2)
    del doc["psi1"]
    with pytest.raises(FamilyLoadError):
        load_family(doc)
    doc2 = export_family(builtin("product_hermite"), moment_degree=2)
    doc2["domain"] = {"kind": "disk", "params": []}
    with pytest.raises(FamilyLoadError):
        load_family(doc2)
    doc3 = export_family(builtin("triangle(0,0,0)"), moment_degree=2)
    doc3["domain"]["params"] = ["0", "0"]
    with pytest.raises(FamilyLoadError):
        load_family(doc3)


def test_validate_family_runs_on_builtins():
    for ref in ALL_INSTANCES:
        validate_family(builtin(ref))
