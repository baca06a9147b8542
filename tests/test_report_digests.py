"""Byte identity of the exact construction and of the CLI reports.

bench/refs.json pins, for the seed-0 instances, the sha256 of every
P_n of the degree-12 construction and of the `--format json` report on
the default grid.  This test reads those pins (bench/ is only read) and
recomputes them through the library, so a change to how polynomials are
stored or multiplied that moves one coefficient, one term's order in
the report, or one byte of text fails here and not only in the
benchmark.  refs.json has no numeric digest, so the sha256 of the five
seed-0 `--mode numeric` reports is pinned below; numeric mode sums each
polynomial's terms in stored order, so these also pin the key order.
Three more numeric reports cover what those five miss: triangle(1,1,1)
at `--nmax 5 --mmax 3` evaluates level-4 stacks, hermite_laguerre(2) on
the default grid is an instance the benchmark draws at other seeds, and
product_jacobi(3/2,3/2,3/2,3/2) at `--quad-order 13` evaluates on 169
nodes, so the evaluation kernel splits its rows into other blocks.
The default grid stops at level 2, so the exact reports of the five
seed-0 instances at `--nmax 5 --mmax 3`, and of triangle(1,1,1) at
`--nmax 5 --mmax 4`, are pinned too: (e) there reads level-4 and
level-5 stacks.  The five seed-0 reports at `--nmax 8 --mmax 2` pin the
(d) tower, which there solves (c) at every level up to 7, and the whole
triangle(1,1,1) report at `--nmax 10 --mmax 2` pins a deeper grid of
every property.  Four
single-property reports pin deep drift-tower levels: (d) alone on
triangle(1,1,1) at `--nmax 12` reads level 11, and (c) alone at
`--nmax 2 --mmax 9` (triangle(1,1,1)) or `--mmax 8` (two families whose
(c) fails) reads levels 8 and 9.  A fifth, (c) alone on triangle(1,1,1)
at `--nmax 1 --mmax 14`, pins the leading-coefficient route at level 14.
A sixth, prop1 alone on product_hermite at `--nmax 6 --mmax 9`, pins the
identity suite's verdicts on 70 cells up to level 9.  A seventh, (c)
alone on triangle(1,1,1) at `--nmax 12 --mmax 3`, pins 48 eigenvalue
matrices up to degree 15.  Three more pin (b)'s level Gram blocks and
cross terms on both routes, read off level 0 by parts and integrated:
(b) alone on hermite_laguerre(1) at `--nmax 4 --mmax 4` (integrated
from level 2, where its zero-order term is not scalar) and on
product_jacobi(1/2,1/2,1/2,1/2) at `--nmax 4 --mmax 5` (from level 3),
and (b) with (e) on triangle(1,1,1) at `--nmax 8 --mmax 4`, whose next
Gram block (e) alone reads is integrated.  Four more, (b) alone and (e)
alone at `--nmax 6 --mmax 3` on hermite_laguerre(1) and on
product_jacobi(1,2,0,0), pin cells where the by-parts route refuses and
(b)'s and (e)'s Gram blocks are integrated.  Two more, (e) alone at
`--nmax 8 --mmax 4` on product_laguerre(1,2) (linear phi, so the
reconstruction fails on every cell above level 0) and on product_hermite
(constant phi, so it holds), pin (e)'s reconstruction verdict both ways,
and (c) with (d) at `--nmax 10 --mmax 4` on hermite_laguerre(1) and on
product_jacobi(1,2,0,0) pin level-m eigenvalue solves whose zero-order
term is not scalar.  The default-grid report of
product_jacobi(1,2,0,0) is pinned as well: it is the one instance of
criterion 2 with a + b != c + d, and its moments have denominators no
other pin reads.  Last, the (c) and (d) reports at `--nmax 4 --mmax 2`
of product_hermite, triangle(1,1,1) and product_laguerre(1,2) with
psi_1 + x/3, criterion 5's perturbed drift, are pinned: their level-0
systems have no constant solution, so these pin the solver's
"inconsistent coefficient system" notes; the by-parts guard refuses
those cells, so the pass builds no T block.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import pytest

from copoly2d import characterize, cli, orthosys, weights
from copoly2d.characterize import verify_all
from copoly2d.polycore import parse_poly

REFS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "refs.json")
                  .read_text(encoding="utf-8"))

SEED0 = [("product_hermite", ()), ("product_laguerre", ("1", "2")),
         ("hermite_laguerre", ("1",)), ("product_jacobi", ("1/2", "1/2", "1/2", "1/2")),
         ("triangle", ("1", "1", "1"))]
# criterion 2's instance with a + b != c + d
PJ1200 = ("product_jacobi", ("1", "2", "0", "0"))

NUMERIC_SHA256 = {
    "product_hermite": "f1e90f5e4ffc82f17f1bd057b5d8006902a4bf413d5af1778b373436565813c5",
    "product_laguerre(1,2)":
        "91c93d3ceb2d045aa3816a0399df3ec9ed0cf0bc26d2cfd8da7d8cb5912ed29c",
    "hermite_laguerre(1)":
        "478d7aa5e58490662a1c860f39051c75e9436311ca825811d34fd97de4699555",
    "product_jacobi(1/2,1/2,1/2,1/2)":
        "8cdc6691a3507796ea25d50a298a64cb647ed8d99023bcdb768e2fcb8a3b57ca",
    "triangle(1,1,1)": "13288f52485403750cc6a75c3e79a1a6e116e1af98a31594c1126dbe013b7461",
}

# (name, params, extra CLI arguments, sha256 of the `--mode numeric` report; each exits 1)
NUMERIC_MORE = [
    (*SEED0[4], ("--nmax", "5", "--mmax", "3"),
     "6a9b85ea904852cb35621d295eb6eb4c436dadd1ea188b9f063f7cd8d2864d20"),
    ("hermite_laguerre", ("2",), (),
     "431039901d4c1202708a58f40e46f1e95cc23625f247e487682a7aad40294146"),
    ("product_jacobi", ("3/2",) * 4, ("--quad-order", "13"),
     "b6ac1d5c77cf0a49ab12d2420019e324e0d61bef5364fe4695826fae01b21098"),
]

# (name, params, nmax, mmax, exit status, sha256 of the exact `--format json` report)
DEEP = [
    (*SEED0[0], 5, 3, 0, "8f6edab1b69a9d53349698107137492d7e3179465036dad0529f185729df5897"),
    (*SEED0[1], 5, 3, 1, "011fcd1e46c2012afcecb2e31922bfbd4a8a42269a4eb86a447dec09a01d6ddc"),
    (*SEED0[2], 5, 3, 1, "5cd105dca73f9cf728ac52ce1ec4ee5fafae7c440e03fbf6888a110f412d28f1"),
    (*SEED0[3], 5, 3, 1, "c2aacc421d5d39c70d1e95c863ef35a2bfb6cb35225b1cc68d609c6adff92306"),
    (*SEED0[4], 5, 3, 1, "66f1253a41937d7fe58a3993f9a6478bf9c448a246ddf95c66ba2dc744d83d28"),
    (*SEED0[4], 5, 4, 1, "0a245809ae134d943fbd74382e5960a0d24c7dcb99f200444dbd7ba2c7dc04a1"),
    (*SEED0[0], 8, 2, 0, "1b82fd8440d961003ae8ded000b8a5afd555318d22e8108d894e62cefaecd8df"),
    (*SEED0[1], 8, 2, 1, "4a979a33876325f3708f7f6e6a42a8bcb365a1bd00a567b2f650d2284a1cb07f"),
    (*SEED0[2], 8, 2, 1, "61fe195ee6e1d4a0a27639c00217e46352df625640b2671e33f51438460b1c0a"),
    (*SEED0[3], 8, 2, 1, "d2db2b5a90a35ab6364c57abee9125fdbe2f7a8cee61af61b79bfb914146e3e8"),
    (*SEED0[4], 8, 2, 1, "04c2ea792ee4bbba90a5d680164b79f6540491e06725ff93cb0cedfdffed2039"),
    (*SEED0[4], 10, 2, 1, "c4fe5dcfa39acca40bb3ca0d0db602eeacff0e395d34bd102f276853abb279a5"),
]


def _key(name, params):
    return f"{name}({','.join(params)})" if params else name


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verify_json(name, params, *extra):
    argv = ["verify", "--family", name, "--format", "json", *extra]
    if params:
        argv += ["--params", ",".join(params)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def _poly_text(p) -> str:
    # the digest text of the benchmark's P_n pins: sorted exponent, Fraction str
    return ";".join(f"{i},{j}:{c}" for (i, j), c in sorted(p.terms.items()))


@pytest.mark.parametrize("name, params", [("triangle", ("1", "1", "1")),
                                          ("product_jacobi", ("1/2",) * 4)])
def test_deep_construction_matches_pinned_digests(name, params):
    want = REFS["construct"][_key(name, params)]["degrees"]
    system = orthosys.build_monic(weights.builtin(name, params), len(want))
    got = []
    for n in range(1, system.nmax + 1):
        col = system.p(n)
        got.append(_sha("|".join(_poly_text(col[r, 0]) for r in range(col.rows))))
    assert got == want


@pytest.mark.parametrize("name, params", SEED0, ids=[_key(*c) for c in SEED0])
def test_exact_report_matches_pinned_digest(name, params):
    want = REFS["verify"][_key(name, params)]
    status, text = _verify_json(name, params)
    assert status == want["exit"]
    assert _sha(text) == want["report_sha256"]


@pytest.mark.parametrize("name, params", SEED0, ids=[_key(*c) for c in SEED0])
def test_numeric_report_matches_pinned_digest(name, params):
    _, text = _verify_json(name, params, "--mode", "numeric")
    assert _sha(text) == NUMERIC_SHA256[_key(name, params)]


@pytest.mark.parametrize("name, params, extra, sha", NUMERIC_MORE,
                         ids=[f"{_key(*c[:2])}{''.join(c[2])}" for c in NUMERIC_MORE])
def test_more_numeric_reports_match_pinned_digests(name, params, extra, sha):
    status, text = _verify_json(name, params, "--mode", "numeric", *extra)
    assert status == 1
    assert _sha(text) == sha


@pytest.mark.parametrize("name, params, nmax, mmax, status, sha", DEEP,
                         ids=[f"{_key(*c[:2])}-{c[2]},{c[3]}" for c in DEEP])
def test_deep_exact_report_matches_pinned_digest(name, params, nmax, mmax, status, sha):
    got, text = _verify_json(name, params, "--nmax", str(nmax), "--mmax", str(mmax))
    assert got == status
    assert _sha(text) == sha


# (name, params, property, nmax, mmax, exit status, sha256 of the exact report)
ONE_PROPERTY = [
    (*SEED0[4], "d", 12, 0, 0, "17cc569d1fb4a8d5d4edc17db7a749cc6b1af3205637932e74c013f4fd3fbdcf"),
    (*SEED0[4], "c", 2, 9, 0, "7a03851c5035e81c7594e899c1ba0b22d0f3d1189565f43913bbbcb514a846aa"),
    (*SEED0[2], "c", 2, 8, 1, "b9908d32166ead4362262af8f75ce14ce3154122691672530d17153d74b81118"),
    (*SEED0[3], "c", 2, 8, 1, "42cd174c318aa636048e97e11dc30cc56fcf8f12651b197a8b61eb649fd24170"),
    (*SEED0[4], "c", 1, 14, 0, "5dba845999e53fc4145ca1ce1ce6329daedaf97bad46a7b471b9c2b17186a12b"),
    (*SEED0[0], "prop1", 6, 9, 0,
     "eac3566f52016b8fdc8697a114972a5bdd01ece279fa17a50c0c1339d7b8ba12"),
    (*SEED0[4], "c", 12, 3, 0, "3b61928c2d6f2cd4d9572b99e9772106eb85666eeeaa9adba68c833defa218f9"),
    (*SEED0[2], "b", 4, 4, 0, "076d948f5f4cc859a74c0f0e55df3dfd9e9fb2f75ad8e9b6abf6ba40112cf709"),
    (*SEED0[3], "b", 4, 5, 0, "32d0e988e9203b69b95e5da1eeb61a66fd99f96c3802ac4d338e65c1f062f695"),
    (*SEED0[4], "b,e", 8, 4, 1, "617758ed07efd3e1619cd5fcb234e539c1b06f503296149c287b4d785d19ee3f"),
    (*SEED0[2], "b", 6, 3, 0, "ed5d3b21bfb55b539e5614a50a4fa36737b2800a02d9bab74e71d92cde6413bf"),
    (*SEED0[2], "e", 6, 3, 1, "c54dab1846fa7db518a577686cc9ab222189c8a196472639d5ce2c6407a26811"),
    (*PJ1200, "b", 6, 3, 0, "691e021f60d43a60127c04bbb58ceba522c959f8b391dbd600ceb6edfd9321d0"),
    (*PJ1200, "e", 6, 3, 1, "66485db84f1776bc8178ef6207b9811fee9be50047aba26e25feeea254c6d675"),
    (*SEED0[1], "e", 8, 4, 1, "d6258c29afdedacc55421254e56f0bac38e8173b2375989740c49380fc351e27"),
    (*SEED0[0], "e", 8, 4, 0, "5cbb7814285e71c780c1bf04c4d66de9df10ca0c17b97b35087f6cf5b2bf87b2"),
    (*SEED0[2], "c,d", 10, 4, 1,
     "f9f2060bb93c6b6365eb52afe41b343b1e774a1316813f3baf1ee078055873ec"),
    (*PJ1200, "c,d", 10, 4, 1,
     "c0bb85652e697026b06b792101a44e7b7e3214c221bbcb00d885dd62614e809b"),
]


@pytest.mark.parametrize("name, params, prop, nmax, mmax, status, sha", ONE_PROPERTY,
                         ids=[f"{_key(*c[:2])}-{c[2]}-{c[3]},{c[4]}" for c in ONE_PROPERTY])
def test_one_property_deep_report_matches_pinned_digest(name, params, prop, nmax, mmax,
                                                         status, sha):
    got, text = _verify_json(name, params, "--properties", prop,
                             "--nmax", str(nmax), "--mmax", str(mmax))
    assert got == status
    assert _sha(text) == sha


def test_default_grid_report_with_a_plus_b_unequal_to_c_plus_d_matches_pinned_digest():
    # criterion 2's one instance with a + b != c + d, named in the family
    # string; its moment denominators differ from every other pin's
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(["verify", "--family", "product_jacobi(1,2,0,0)", "--format", "json"])
    assert status == 1
    assert _sha(buf.getvalue()) == "ed2ee6bd5f1aca98f18d258672fcfca5993024ec1886cf8b86ed6cc769896e76"


# (built-in family, sha256 of the JSON (c),(d) report at (4,2) with psi_1 + x/3)
PERTURBED = [
    ("product_hermite", "a77ca7c4a8c0a65ef3931da4fb80e34ed2044d0df9548c573b0abcee3d384b1e"),
    ("triangle(1,1,1)", "d7c331a8fa1bff4890e03cf548dbddaa308be1338801d80aba4f0706ee5d523e"),
    ("product_laguerre(1,2)", "1b5d9f89c5fbba58193c77728868d0b5e1264db2e1c90c4aa4fd55178b9794f2"),
]


@pytest.mark.parametrize("ref, sha", PERTURBED, ids=[c[0] for c in PERTURBED])
def test_perturbed_drift_c_and_d_report_matches_pinned_digest(ref, sha, monkeypatch):
    f = weights.builtin(ref)
    pert = dataclasses.replace(f, psi1=f.psi1 + parse_poly("1/3*x"))
    cfg = cli.RunConfig(ref, nmax=4, mmax=2, properties=("c", "d"), format="json")
    built = []
    real = characterize.build_monic
    monkeypatch.setattr(characterize, "build_monic",
                        lambda f, nmax: built.append(real(f, nmax)) or built[-1])
    reports = verify_all(pert, nmax=4, mmax=2, properties=("c", "d"))
    assert any("inconsistent coefficient system" in r.notes for r in reports)
    assert _sha(cli.render_json(pert, cfg, reports)) == sha
    # the by-parts guard refuses every level-0 cell (Pearson fails), and
    # (c) reads it before the formula, so no T(n - 1, 1) is built
    [sys] = built
    assert not [key for key in sys._memo if key[0] == "T"]
