"""copoly2d benchmark runner.

Usage, from the repository root:

    python3 bench/run.py --workload verify-default --seed 0 --seconds 20 --trace 0

Runs passes of one workload (see workloads.py) in this single process
until --seconds have elapsed, at least one pass, and checks every pass's
output against the pinned references in refs.json.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced
and traced passes and reports the per-layer metrics of tracing.py.
Times are reported at a reference CPU speed (see speed.py); the raw
wall and CPU times are printed beside them and kept in the record.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Lines before it, starting with "#", give the environment, the drawn
parameters, every end-to-end metric, failed_share and the failed cells.
A record of the run (and, when traced, its spans) goes to bench/out/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, 'src')\n"
    "import copoly2d.cli\n"
    "for name, params in json.loads(sys.argv[1]):\n"
    "    copoly2d.builtin(name, tuple(params))\n"
)


def single_threaded_env() -> dict:
    """This process's environment without the pool variable, BLAS at 1 thread."""
    env = dict(os.environ)
    env.pop("COPOLY2D_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_sha(root: Path):
    try:
        got = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = got.stdout.split()
    if got.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup(root: Path, env: dict, families: list) -> list:
    """(raw, scaled) seconds for fresh interpreters to import copoly2d and
    build the families, each scaled by bare interpreter starts around it."""
    arg = json.dumps(families)
    out = []
    for _ in range(SETUP_REPEATS):
        bare = [speed.bare_start_seconds(env) for _ in range(2)]
        # no timeout: with one, subprocess polls the child in sleeps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, arg], cwd=root, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        raw = time.perf_counter() - t0
        bare += [speed.bare_start_seconds(env) for _ in range(2)]
        out.append((raw, raw * speed.BARE_REF / statistics.median(bare)))
    return out


class Timing:
    """Raw wall and CPU seconds of one pass, and the same at reference speed."""

    def __init__(self, wall: float, cpu: float, sampler: speed.Sampler):
        self.wall = wall
        self.cpu = cpu
        self.factor = sampler.factor()
        self.ref_wall = (wall - sampler.spent()) * self.factor
        self.ref_cpu = (cpu - sampler.spent()) * self.factor


def timed_pass(workload, params, tracer=None):
    """One pass under the speed sampler; returns (output, Timing)."""
    jobs = workload.jobs(params)
    gc.collect()
    with speed.Sampler() as sampler:
        c0 = time.process_time()
        if tracer is None:
            w0 = time.perf_counter()
            out = workloads.run_pass(jobs)
            wall = time.perf_counter() - w0
        else:
            with tracer:
                out = workloads.run_pass(jobs, tracer.job_span)
            wall = tracer.pass_seconds()
        cpu = time.process_time() - c0
    return out, Timing(wall, cpu, sampler)


def _spread(values) -> str:
    return f"min {min(values):.4f} max {max(values):.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="copoly2d benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "copoly2d" / "__init__.py").is_file():
        print("bench: src/copoly2d not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = single_threaded_env()
    os.environ.clear()
    os.environ.update(env)  # before numpy loads its BLAS
    sys.path.insert(0, str(src))
    import copoly2d
    if not Path(copoly2d.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: copoly2d imported from {copoly2d.__file__}, not {src}",
              file=sys.stderr)
        return 2

    record = {
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(root),
            "src_sha256": src_digest(src),
            "loadavg_start": os.getloadavg(),
            "threads": {v: env[v] for v in THREAD_VARS},
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    workload = workloads.WORKLOADS[args.workload]
    params = workloads.draw_params(args.seed)
    record["params"] = {n: list(params[n]) for n in workload.families}
    print("# environment " + json.dumps(record["environment"]))
    print(f"# workload {args.workload} seed {args.seed} params "
          + json.dumps(record["params"]))
    refs = json.loads((HERE / "refs.json").read_text())

    setup = measure_setup(root, env, [[n, list(params[n])] for n in workload.families])
    tally = workloads.Check()
    plain, traced, per_pass = [], [], []
    tracer = None
    start = time.perf_counter()
    while True:
        out, timing = timed_pass(workload, params)
        plain.append(timing)
        tally.add(workload.check(out, refs))
        del out
        if args.trace:
            tracer = tracing.Tracer()
            out, timing = timed_pass(workload, params, tracer)
            traced.append(timing)
            per_pass.append(tracer.metrics(timing.factor))
            tally.add(workload.check(out, refs))
            del out
        if time.perf_counter() - start >= args.seconds:
            break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {
        "pass_s": statistics.median(t.ref_wall for t in plain),
        "pass_cpu_s": statistics.median(t.ref_cpu for t in plain),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(ref for _raw, ref in setup),
    }
    units = {"pass_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    n = len(plain)
    print(f"# pass_s {e2e['pass_s']:.4f} s at reference speed, median of {n} passes "
          f"({_spread([t.ref_wall for t in plain])}); raw wall "
          f"{statistics.median(t.wall for t in plain):.4f} s ({_spread([t.wall for t in plain])})")
    print(f"# pass_cpu_s {e2e['pass_cpu_s']:.4f} s at reference speed, median of {n} passes "
          f"({_spread([t.ref_cpu for t in plain])}); raw CPU "
          f"{statistics.median(t.cpu for t in plain):.4f} s ({_spread([t.cpu for t in plain])})")
    print(f"# peak_rss_mb {rss_mb:.1f} MB")
    print(f"# setup_s {e2e['setup_s']:.4f} s at reference speed, median of {len(setup)} "
          f"interpreters ({_spread([r for _w, r in setup])}); raw "
          f"{statistics.median(w for w, _r in setup):.4f} s ({_spread([w for w, _r in setup])})")
    print(f"# failed_share {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6f}")
    for line in dict.fromkeys(tally.failed_ops):
        print(f"# failed: {line}")
    for line in dict.fromkeys(tally.problems):
        print(f"# PROBLEM: {line}")
    if tally.unpinned:
        print("# no pinned reference, invariants only: "
              + ", ".join(sorted(set(tally.unpinned))))

    if args.trace:
        print(f"# trace: self times sum to {sum(tracer.self_times().values()):.6f} s, "
              f"last traced pass {tracer.pass_seconds():.6f} s (raw)")
        overhead = (statistics.median(t.ref_wall for t in traced)
                    / statistics.median(t.ref_wall for t in plain) - 1)
        metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k]}
                   for k, v in tracing.combine(per_pass, overhead).items()}
        record["traced_passes"] = [vars(t) for t in traced]
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    record.update({
        "passes": [vars(t) for t in plain],
        "setup_s": [{"wall": w, "ref": r} for w, r in setup],
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ops": list(dict.fromkeys(tally.failed_ops)),
        "problems": list(dict.fromkeys(tally.problems)),
        "unpinned": sorted(set(tally.unpinned)),
    })
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
