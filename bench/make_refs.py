"""Pin the benchmark's reference outputs: writes bench/refs.json.

Usage, from the repository root:

    python3 bench/make_refs.py

Runs every family instance that a seed can draw (workloads.POOLS) once,
exactly, and stores its verdict vector (property, n, m, status, notes)
per cell, the CLI exit status and JSON report digest on the default
grid, the verdicts on the stretch grid, and per-degree digests of the
degree-12 construction.  The numeric workload is judged against the
exact default-grid verdicts.  Rerun only when the mathematics changes.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    refs = {"verify": {}, "stretch": {}, "construct": {}}
    for kind, jobs_fn, families in (
        ("verify", workloads.jobs_verify_default, workloads.FIVE),
        ("stretch", workloads.jobs_verify_stretch, ("triangle",)),
        ("construct", workloads.jobs_construct_deep, ("triangle", "product_jacobi")),
    ):
        for name in families:
            for params in workloads.POOLS[name]:
                drawn = {**workloads.draw_params(0), name: params}
                for key, job in jobs_fn(drawn):
                    if key == workloads.instance_key(name, params):
                        refs[kind][key] = workloads.reference_of(kind, job())
                        print(f"{kind} {key}", flush=True)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
