from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest
from conftest import count_table_builds

from copoly2d.cli import (
    ConfigError,
    RunConfig,
    build_parser,
    list_families,
    main,
    render_json,
    resolve_family,
    run,
)
from copoly2d import characterize
from copoly2d.characterize import verify_all
from copoly2d.weights import (
    FamilyLoadError,
    WeightFamily,
    builtin,
    export_family,
    load_family,
    parse_family_ref,
)


def test_config_validation(capsys):
    # the grid, the mode, the property tokens and the quadrature floor are
    # verify_all's to check; the CLI passes them on and checks only the format
    for cfg, message in ((RunConfig("product_hermite", nmax=0), "nmax must be at least 1"),
                         (RunConfig("product_hermite", mmax=-1), "mmax must be nonnegative"),
                         (RunConfig("product_hermite", mode="guess"), "unknown mode 'guess'")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(cfg)
    tokens = "a, b, c, d, e, aux, phi_conditions, lemma1, lemma2, prop1"
    for flags, message in (
            (["--nmax", "0"], "nmax must be at least 1"),
            (["--mmax", "-1"], "mmax must be nonnegative"),
            (["--mode", "numeric", "--quad-order", "7"], "quad_order 7 below the grid floor 8"),
            (["--properties", "a,f"], f"unknown property token 'f'; choose from {tokens}")):
        assert main(["verify", "--family", "product_hermite", *flags]) == 2
        assert capsys.readouterr().err == f"copoly2d: {message}\n"
    with pytest.raises(ConfigError, match="^unknown format 'yaml'$"):
        run(RunConfig("product_hermite", format="yaml"))
    # only numeric mode reads quadrature, so only it has a floor
    for mode in ("exact", "auto"):
        assert main(["verify", "--family", "product_hermite", "--nmax", "2", "--mmax", "1",
                     "--mode", mode, "--quad-order", "4"]) == 0
        capsys.readouterr()


def test_resolve_family_builtin_and_path(tmp_path):
    f = resolve_family(RunConfig("product_laguerre", params=("1", "2")))
    assert f.name == "product_laguerre"
    doc = export_family(builtin("product_hermite"), moment_degree=8)
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    g = resolve_family(RunConfig(str(path)))
    assert g.name == "product_hermite"
    with pytest.raises(ConfigError):
        resolve_family(RunConfig(str(path), params=("1",)))


def test_exit_codes(tmp_path, capsys):
    assert main(["verify", "--family", "product_hermite",
                 "--nmax", "2", "--mmax", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", "--family", "hermite_laguerre(0)",
                 "--nmax", "2", "--mmax", "1", "--properties", "c"]) == 1
    capsys.readouterr()
    assert main(["verify", "--family", "does_not_exist"]) == 2
    err = capsys.readouterr().err
    assert "unknown family" in err
    bad = tmp_path / "bad_phi.json"
    doc = export_family(builtin("product_hermite"), moment_degree=6)
    doc["phi"][0][1] = "x"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--family", str(bad)]) == 2
    assert "symmetric" in capsys.readouterr().err


def test_quad_order_floor_is_exit_two(capsys):
    code = main(["verify", "--family", "product_hermite", "--mode", "numeric",
                 "--nmax", "4", "--quad-order", "5"])
    assert code == 2
    assert "grid floor" in capsys.readouterr().err
    code = main(["verify", "--family", "product_hermite", "--mode", "exact",
                 "--nmax", "2", "--mmax", "1", "--quad-order", "1"])
    assert code == 0


def test_quad_order_floor_leaves_a_numeric_run_without_b_or_e_alone(capsys):
    # c and d read no rule, so a numeric run of them alone builds none
    code = main(["verify", "--family", "product_hermite", "--mode", "numeric",
                 "--properties", "c,d", "--quad-order", "3", "--nmax", "2", "--mmax", "1"])
    assert code == 0
    assert capsys.readouterr().out.endswith("summary: 6 pass, 0 fail\n")


def test_quad_order_floor_leaves_an_oracle_less_auto_run_alone(tmp_path, capsys):
    # auto mode resolves to numeric, but with no oracle no system reads a rule
    doc = export_family(builtin("product_hermite"), moment_degree=4)
    del doc["moments"]
    path = tmp_path / "blind.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--family", str(path), "--nmax", "2", "--mmax", "1",
                 "--quad-order", "3"])
    assert code == 1
    assert "grid floor" not in capsys.readouterr().err


def test_json_report_shape(capsys):
    code = main(["verify", "--family", "product_hermite", "--nmax", "2",
                 "--mmax", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"family", "config", "assumed_boundary_condition", "reports"}
    assert doc["family"] == "product_hermite"
    assert doc["config"]["nmax"] == 2
    # no run draws at random, but the report keeps its seed key
    assert doc["config"]["seed"] == 0
    assert doc["assumed_boundary_condition"] is True
    assert all(r["status"] == "pass" for r in doc["reports"])
    props = {r["property"] for r in doc["reports"]}
    assert {"a", "b", "c", "d", "e"} <= props


def test_json_byte_determinism(capsys):
    argv = ["verify", "--family", "product_hermite", "--nmax", "2",
            "--mmax", "1", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_output_file_atomic(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--family", "product_hermite", "--nmax", "2",
                 "--mmax", "1", "--format", "json", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["family"] == "product_hermite"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".copoly2d-")]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_output_file_mode_follows_the_umask(tmp_path, capsys, umask):
    # as a plain open() would create it, not mkstemp's 0600
    out = tmp_path / "report.txt"
    old = os.umask(umask)
    try:
        code = main(["verify", "--family", "product_hermite", "--nmax", "1",
                     "--mmax", "0", "--properties", "a", "--output", str(out)])
    finally:
        os.umask(old)
    assert code == 0
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_float_moments_in_a_family_file_are_exit_two(tmp_path, capsys):
    doc = export_family(builtin("triangle(1,1,1)"), moment_degree=8)
    doc["moments"][3][2] = float(Fraction(doc["moments"][3][2]))
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--family", str(path), "--nmax", "1", "--mmax", "0"]) == 2
    err = capsys.readouterr().err
    assert "bad moments table" in err and "moment (" in err


@pytest.mark.parametrize("edit", ["float index", "repeated index"])
def test_bad_moment_indices_in_a_family_file_are_exit_two(tmp_path, capsys, edit):
    doc = export_family(builtin("triangle(1,1,1)"), moment_degree=8)
    if edit == "float index":
        doc["moments"][1][0] = 1.5
    else:
        doc["moments"].append([2, 0, "7"])
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--family", str(path), "--nmax", "1", "--mmax", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("copoly2d: bad moments table: entry [")


# id -> (path of the field in the family document, bad value, message start)
MALFORMED = {
    "zero-denominator moment": (("moments", 1, 2), "1/0", "bad moments table"),
    "unparseable moment": (("moments", 1, 2), "abc", "bad moments table"),
    "zero-denominator phi entry": (("phi", 0, 0), "1/0", "bad polynomial field"),
    "zero-denominator psi1": (("psi1",), "1/0", "bad polynomial field"),
    "int psi1": (("psi1",), 5, "bad polynomial field"),
    "int log_grad_x numerator": (("log_grad_x", "num"), 5, "bad log_grad_x"),
    "int domain params": (("domain", "params"), 5, "bad domain parameters"),
    "null document": ((), None, "bad family document"),
    "int document": ((), 5, "bad family document"),
}


@pytest.mark.parametrize("field, value, message", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_family_file_is_a_load_error_and_exit_two(tmp_path, capsys, field,
                                                            value, message):
    doc = export_family(builtin("product_hermite"), moment_degree=6)
    if field:
        *outer, last = field
        target = doc
        for key in outer:
            target = target[key]
        target[last] = value
    else:
        doc = value
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FamilyLoadError, match=message):
        load_family(str(path))
    assert main(["verify", "--family", str(path), "--nmax", "1", "--mmax", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"copoly2d: {message}: ") and "Traceback" not in err


@pytest.mark.parametrize("phi", [
    {"0": ["1", "0"], "1": ["0", "1"]},
    [["1", "0"], ["0", "1"], ["0", "0"]],
    [["1", "0", "0"], ["0", "1", "0"]],
    [["1", "0"], "01"],
    "1",
], ids=["object", "third row", "third column", "string row", "string"])
def test_a_phi_that_is_no_2x2_list_is_exit_two_with_no_report(tmp_path, capsys, phi):
    doc = export_family(builtin("product_hermite"), moment_degree=6)
    doc["phi"] = phi
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    message = "phi must be a 2x2 list of polynomial strings"
    with pytest.raises(FamilyLoadError, match=f"^{message}$"):
        load_family(str(path))
    out = tmp_path / "report.json"
    assert main(["verify", "--family", str(path), "--nmax", "1", "--mmax", "0",
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"copoly2d: {message}\n"
    assert not out.exists()


def test_unreadable_family_file_is_exit_two(tmp_path, capsys):
    for ref in (str(tmp_path / "missing.json"), str(tmp_path / "no" / "fam"),
                str(tmp_path)):
        assert main(["verify", "--family", ref, "--nmax", "1", "--mmax", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("copoly2d: [Errno ") and err.endswith(f"{ref!r}\n"), ref


def test_a_directory_named_after_a_builtin_leaves_the_builtin(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "product_hermite").mkdir()
    assert main(["verify", "--family", "product_hermite", "--nmax", "1", "--mmax", "0"]) == 0
    capsys.readouterr()
    # with a separator the ref is a path, and a directory is no family file
    ref = os.path.join(".", "product_hermite")
    assert main(["verify", "--family", ref, "--nmax", "1", "--mmax", "0"]) == 2
    assert capsys.readouterr().err.startswith("copoly2d: [Errno ")


def test_unwritable_output_is_exit_two(tmp_path, capsys):
    out = tmp_path / "no" / "report.json"
    assert main(["verify", "--family", "product_hermite", "--nmax", "1", "--mmax", "0",
                 "--properties", "a", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("copoly2d: [Errno ")


def test_domain_without_a_gauss_rule_is_exit_two(tmp_path, capsys):
    doc = export_family(builtin("product_laguerre(1,2)"), moment_degree=8)
    doc["domain"]["params"] = ["-2", "2"]
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", "--family", str(path), "--nmax", "1", "--mmax", "1"]
    assert main(argv + ["--mode", "numeric"]) == 2
    err = capsys.readouterr().err
    assert err == "copoly2d: quadrant quadrature parameters must exceed -1, got -2\n"
    # exact mode reads no rule
    assert main(argv + ["--mode", "exact"]) in (0, 1)


@pytest.mark.parametrize("params, why", [("12", "parameters '12' are no list or tuple"),
                                         ({"1": 0, "2": 0}, "parameters {'1': 0, '2': 0} are no list or tuple"),
                                         ([True, 2], "parameter True is a bool, not a number")])
def test_domain_params_that_are_no_list_of_numbers_are_exit_two(tmp_path, capsys, params, why):
    doc = export_family(builtin("product_laguerre(1,2)"), moment_degree=8)
    doc["domain"]["params"] = params
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--family", str(path), "--nmax", "1", "--mmax", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"copoly2d: bad domain parameters: {why}\n"


def test_seed_is_no_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "product_hermite", "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_singular_moment_table_is_a_construction_note(tmp_path, capsys):
    doc = export_family(builtin("product_hermite"), moment_degree=0)
    doc["moments"] = [[i, j, "1"] for i in range(9) for j in range(9)]
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--family", str(path), "--nmax", "1", "--mmax", "0",
                 "--format", "json"]) == 1
    notes = {r["notes"] for r in json.loads(capsys.readouterr().out)["reports"]
             if r["property"] in ("b", "c", "d", "e")}
    assert notes == {"system construction failed: SingularGramError: "
                     "degree 2: singular pivot at column 1"}


def test_inline_rational_params_name_the_builtin(capsys):
    def report(argv):
        code = main(["verify", *argv, "--nmax", "2", "--mmax", "1", "--format", "json"])
        return code, json.loads(capsys.readouterr().out)["reports"]

    inline = report(["--family", "product_jacobi(1/2,1/2,1/2,1/2)"])
    split = report(["--family", "product_jacobi", "--params", "1/2,1/2,1/2,1/2"])
    assert inline == split


def test_leading_minus_params_attach_with_an_equals_sign_or_go_inline(capsys):
    # `--params -1/2,...` reads the value as an option; both spellings here
    # work, and their reports differ only where the config echoes the spelling
    def report(argv):
        code = main(["verify", *argv, "--nmax", "2", "--mmax", "1", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        spelling = doc["config"].pop("family_ref"), doc["config"].pop("params")
        return code, json.dumps(doc, sort_keys=True, indent=2), spelling

    attached = report(["--family", "triangle", "--params=-1/2,1/3,2"])
    inline = report(["--family", "triangle(-1/2,1/3,2)"])
    assert attached[:2] == inline[:2]
    assert attached[2] == ("triangle", ["-1/2", "1/3", "2"])
    assert inline[2] == ("triangle(-1/2,1/3,2)", [])
    with pytest.raises(SystemExit) as info:
        main(["verify", "--family", "triangle", "--params", "-1/2,1/3,2"])
    assert info.value.code == 2
    assert "--params: expected one argument" in capsys.readouterr().err


def test_an_empty_parameter_slot_exits_2(capsys):
    # an empty slot is not dropped: triangle(1,,1,1) is no spelling of triangle(1,1,1)
    for argv, text in ((["--family", "triangle(1,1,1,)"], "1,1,1,"),
                       (["--family", "triangle(1,,1,1)"], "1,,1,1"),
                       (["--family", "triangle", "--params", "1,,1,1"], "1,,1,1"),
                       (["--family", "triangle", "--params", "1,1,1,"], "1,1,1,")):
        assert main(["verify", *argv, "--nmax", "1", "--mmax", "0"]) == 2, argv
        assert capsys.readouterr().err == f"copoly2d: empty parameter slot in {text!r}\n"
    # no parentheses' contents and no --params still mean no parameters
    for argv in (["--family", "product_hermite()"], ["--family", "product_hermite"],
                 ["--family", "product_hermite", "--params", ""]):
        assert main(["verify", *argv, "--nmax", "1", "--mmax", "0",
                     "--properties", "a"]) == 0, argv
    capsys.readouterr()


def test_an_empty_property_token_exits_2(capsys):
    # an empty token is not dropped: "," is no spelling of every property,
    # and a,,lemma1 is no spelling of a,lemma1
    tokens = "a, b, c, d, e, aux, phi_conditions, lemma1, lemma2, prop1"
    for text in (",", "a,,lemma1", "a,", " , a"):
        assert main(["verify", "--family", "product_hermite", "--nmax", "1", "--mmax", "0",
                     "--properties", text]) == 2, text
        assert capsys.readouterr().err == \
            f"copoly2d: unknown property token ''; choose from {tokens}\n", text
    # a blank list still means every property
    want = {r.property for r in verify_all(builtin("product_hermite"), nmax=1, mmax=0)}
    for text in ("", "  "):
        assert main(["verify", "--family", "product_hermite", "--nmax", "1", "--mmax", "0",
                     "--properties", text, "--format", "json"]) == 0, text
        doc = json.loads(capsys.readouterr().out)
        assert {r["property"] for r in doc["reports"]} == want, text
    assert main(["verify", "--family", "product_hermite", "--nmax", "1", "--mmax", "0",
                 "--properties", " a , lemma1 ", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {r["property"] for r in doc["reports"]} == {"a", "lemma1"}


def test_a_selection_with_no_cell_on_the_grid_exits_2_with_no_report(tmp_path, capsys):
    # (b) has no cell at m = 0: an empty report would exit 0 having checked nothing
    out = tmp_path / "report.json"
    assert main(["verify", "--family", "product_hermite", "--nmax", "2", "--mmax", "0",
                 "--properties", "b", "--format", "json", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", "copoly2d: no chosen property has a cell on the grid n<=2 m<=0\n")
    assert not out.exists()


def test_decimal_params_are_exact(capsys):
    code = main(["verify", "--family", "product_jacobi",
                 "--params", "0.5,0.5,0.5,0.5", "--nmax", "2", "--mmax", "1",
                 "--properties", "a,b", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["params"] == ["0.5", "0.5", "0.5", "0.5"]
    assert all(r["mode"] == "exact" for r in doc["reports"])


def test_checker_crash_is_an_error_cell_and_exit_three(capsys, monkeypatch):
    real_check_c = characterize.check_c

    def crashing_check_c(system, n, m, *rest):
        if (n, m) == (3, 0):
            raise TypeError("injected")
        return real_check_c(system, n, m, *rest)

    monkeypatch.setattr(characterize, "check_c", crashing_check_c)
    reports = verify_all(builtin("product_hermite"), nmax=3, mmax=1,
                         properties=("c",))
    assert [(r.n, r.m, r.status, r.notes) for r in reports if r.status != "pass"] == [
        (3, 0, "error", "error: TypeError: injected")]
    assert main(["verify", "--family", "product_hermite", "--nmax", "3",
                 "--mmax", "1", "--properties", "c"]) == 3
    assert capsys.readouterr().out.endswith("summary: 5 pass, 0 fail, 1 error\n")


def test_identity_suite_crash_is_a_prop1_error_cell_and_exit_three(capsys, monkeypatch):
    def crashing_suite(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(characterize, "identity_suite", crashing_suite)
    reports = verify_all(builtin("product_hermite"), nmax=1, mmax=0, properties=("aux",))
    prop1 = [(r.n, r.m, r.status, r.mode, r.notes) for r in reports if r.property == "prop1"]
    assert prop1 == [(n, 0, "error", "exact", "error: RuntimeError: injected")
                     for n in (0, 1)]
    assert all(r.status == "pass" for r in reports if r.property != "prop1")
    assert main(["verify", "--family", "product_hermite", "--nmax", "1",
                 "--mmax", "0", "--properties", "aux"]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("ref, mode, depth", [
    ("triangle(1,1,1)", "exact", 8),            # quadratic phi: 2N, N = 4
    ("triangle(1,1,1)", "numeric", 7),          # building P_0 .. P_4: 2N - 1
    ("product_laguerre(1,2)", "exact", 7),      # linear phi: 2N - 1
])
def test_moment_table_depth_is_checked_up_front(tmp_path, capsys, ref, mode, depth):
    def verdicts(reports):
        # float residuals depend on the term order of the parsed polynomials
        return [(r["property"], r["n"], r["m"], r["mode"], r["status"], r["notes"])
                for r in reports]

    f = builtin(*parse_family_ref(ref))
    reports = [r.to_dict() for r in verify_all(f, nmax=2, mmax=1, mode=mode)]
    want_exit = 0 if all(r["status"] == "pass" for r in reports) else 1
    for degree in (depth, depth - 1):
        fam = tmp_path / f"fam{degree}.json"
        fam.write_text(json.dumps(export_family(f, moment_degree=degree)))
        out = tmp_path / f"report{degree}.json"
        status = main(["verify", "--family", str(fam), "--nmax", "2", "--mmax", "1",
                       "--mode", mode, "--format", "json", "--output", str(out)])
        err = capsys.readouterr().err
        if degree == depth:
            assert status == want_exit
            assert verdicts(json.loads(out.read_text())["reports"]) == verdicts(reports)
        else:
            assert status == 2
            assert not out.exists()
            assert f"moment (0,{depth}) unavailable" in err
            assert f"up to degree {depth}" in err


@pytest.mark.parametrize("nmax, mmax", [(2, 1), (3, 0), (3, 2), (4, 2), (2, 3), (4, 1),
                                        (5, 3), (5, 4)])
@pytest.mark.parametrize("ref", ["product_hermite", "product_laguerre(1,2)",
                                 "hermite_laguerre(1)", "product_jacobi(1/2,1/2,1/2,1/2)",
                                 "triangle(1,1,1)"])
def test_exact_run_reads_no_moment_beyond_the_probed_depth(monkeypatch, ref, nmax, mmax):
    # the exact integrals read mu_(alpha+beta) for every monomial pair,
    # also where the product's terms cancel; the one moment table the run
    # builds up front, its depth check, must cover all of them, or a
    # family file that passes the check can still fail
    degrees = []
    moment = WeightFamily.moment

    def recording(family, i, j):
        degrees.append(i + j)
        return moment(family, i, j)

    monkeypatch.setattr(WeightFamily, "moment", recording)
    builds = count_table_builds(monkeypatch)
    # the auxiliary properties read no moments; without (e) the run reads
    # no level Gram block beyond the grid, so building P_0 .. P_N is deepest
    for props in (("a", "b", "c", "d", "e"), ("b", "c", "d")):
        f = builtin(*parse_family_ref(ref))
        builds.clear()
        degrees.clear()
        verify_all(f, nmax=nmax, mmax=mmax, mode="exact", properties=props)
        assert len(builds) == 1 and max(degrees) == builds[0] - 1
    assert builds == [2 * (nmax + mmax + 1)]


def test_exact_run_without_e_reads_the_table_only_to_degree_2n_minus_1(tmp_path, capsys):
    # triangle at (2, 1): building P_0 .. P_4 reads degree 7, and exact (e)
    # alone also integrates gram(3, 1), of degree 8
    f = builtin("triangle(1,1,1)")
    reports = verify_all(f, nmax=2, mmax=1, mode="exact",
                         properties=("a", "b", "c", "d", "aux"))
    want_exit = 0 if all(r.status == "pass" for r in reports) else 1
    fam = tmp_path / "fam7.json"
    fam.write_text(json.dumps(export_family(f, moment_degree=7)))
    argv = ["verify", "--family", str(fam), "--nmax", "2", "--mmax", "1", "--mode", "exact"]
    assert main(argv + ["--properties", "a,b,c,d,aux"]) == want_exit
    capsys.readouterr()
    assert main(argv + ["--properties", "e"]) == 2
    assert "moment (0,8) unavailable" in capsys.readouterr().err


def test_list_families_text(capsys):
    assert main(["list-families"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 5
    assert "triangle(p1,p2,p3)" in out
    assert "domain: triangle" in out
    assert "product_hermite" in out


def test_list_families_json_round_trips():
    text = list_families("json")
    docs = json.loads(text)
    assert len(docs) == 5
    for doc in docs:
        fam = load_family(doc)
        assert fam.name == doc["name"]
        assert fam.has_oracle()


def test_builtin_export_reload_verifies_identically(tmp_path):
    f = builtin("product_laguerre(1,2)")
    doc = export_family(f, moment_degree=16)
    path = tmp_path / "lag.json"
    path.write_text(json.dumps(doc))
    g = load_family(str(path))
    props = ("a", "b", "c", "d", "e")
    orig = verify_all(f, nmax=2, mmax=1, properties=props)
    loaded = verify_all(g, nmax=2, mmax=1, properties=props)
    assert [r.to_dict() for r in orig] == [r.to_dict() for r in loaded]


def test_parser_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_render_json_sorted_keys():
    f = builtin("product_hermite")
    cfg = RunConfig("product_hermite", nmax=1, mmax=0)
    reports = verify_all(f, nmax=1, mmax=0, properties=("a",))
    text = render_json(f, cfg, reports)
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert text.endswith("\n")
    assert run(cfg) in (0, 1)
