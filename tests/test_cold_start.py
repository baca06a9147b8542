"""A fresh interpreter runs the exact path without numpy.

numpy is imported only where quadrature and numeric mode use it, so an
exact `copoly2d verify`, `list-families` and a family file round trip
never load it.  Each test starts `sys.executable` in a new process,
with PYTHONPATH=src and the repository root as working directory, so
no module that pytest has already imported (numpy among
them) hides a top-level import.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_report_digests import NUMERIC_SHA256

ROOT = Path(__file__).resolve().parents[1]
REFS = json.loads((ROOT / "bench" / "refs.json").read_text(encoding="utf-8"))

# list the catalogue, round-trip a family file, then run an exact grid
EXACT_SCRIPT = """
import contextlib, io, json, sys
from copoly2d import builtin, export_family, load_family, verify_all
from copoly2d.cli import main

with contextlib.redirect_stdout(io.StringIO()) as out:
    status = main(["list-families", "--format", "json"])
assert status == 0 and json.loads(out.getvalue())
path = sys.argv[1]
with open(path, "w", encoding="utf-8") as fh:
    json.dump(export_family(builtin("triangle(1,1,1)"), moment_degree=12), fh)
reports = verify_all(load_family(path), nmax=2, mmax=1, mode="exact")
print(json.dumps({"cells": len(reports), "numpy": "numpy" in sys.modules}))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_exact_cli_run_reproduces_its_pinned_report():
    got = _python("-m", "copoly2d.cli", "verify", "--family", "product_hermite",
                  "--format", "json")
    want = REFS["verify"]["product_hermite"]
    assert got.returncode == want["exit"], got.stderr
    assert _sha(got.stdout) == want["report_sha256"]


def test_exact_paths_leave_numpy_unloaded(tmp_path):
    got = _python("-c", EXACT_SCRIPT, str(tmp_path / "triangle.json"))
    assert got.returncode == 0, got.stderr
    assert json.loads(got.stdout) == {"cells": 26, "numpy": False}


def test_numeric_cli_run_imports_numpy_on_demand():
    got = _python("-m", "copoly2d.cli", "verify", "--family", "product_hermite",
                  "--format", "json", "--mode", "numeric")
    assert got.returncode == 0, got.stderr
    assert _sha(got.stdout) == NUMERIC_SHA256["product_hermite"]
