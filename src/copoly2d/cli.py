"""Command line front end.

Two subcommands: `verify` runs the property grid for one family and
emits a text or JSON report; `list-families` prints the built-in
catalogue.  Exit status is 0 when every selected check passes, 1 when
at least one fails, 2 for configuration, load or file problems, and 3
when a checker crashed (a cell with status "error").
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .characterize import SELECTABLE_PROPERTIES as VALID_PROPERTIES, verify_all
from .weights import (
    FamilyLoadError,
    InvalidParameterError,
    OracleUnavailableError,
    UnknownFamilyError,
    builtin,
    export_family,
    list_builtins,
    load_family,
    split_params,
)


class ConfigError(ValueError):
    """Bad run configuration; maps to exit status 2."""


@dataclass
class RunConfig:
    family_ref: str
    params: tuple = ()
    nmax: int = 4
    mmax: int = 2
    mode: str = "auto"
    quad_order: int = 20
    properties: tuple | None = None
    output: str | None = None
    format: str = "text"

    def to_dict(self) -> dict:
        return {
            "family_ref": self.family_ref,
            "params": [str(p) for p in self.params],
            "nmax": self.nmax,
            "mmax": self.mmax,
            "mode": self.mode,
            "quad_order": self.quad_order,
            # no run draws at random; the constant key keeps report bytes
            # pinned, and dropping it is a report-format change
            "seed": 0,
            "properties": (
                list(VALID_PROPERTIES)
                if self.properties is None
                else list(self.properties)
            ),
            "format": self.format,
        }


def _looks_like_path(ref: str) -> bool:
    # a built-in name keeps a ref with a separator, as in product_jacobi(1/2,...)
    if ref.endswith(".json") or os.path.isfile(ref):
        return True
    return os.sep in ref and ref.split("(")[0].strip() not in {b[0] for b in list_builtins()}


def resolve_family(cfg: RunConfig):
    if _looks_like_path(cfg.family_ref):
        if cfg.params:
            raise ConfigError("--params only applies to built-in families")
        return load_family(cfg.family_ref)
    return builtin(cfg.family_ref, cfg.params)


def _write_atomic(path: str, text: str) -> None:
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".copoly2d-")
    os.umask(mask := os.umask(0))
    try:
        os.fchmod(fd, 0o666 & ~mask)  # what open() would give, not mkstemp's 0600
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_json(family, cfg: RunConfig, reports) -> str:
    doc = {
        "family": family.name,
        "config": cfg.to_dict(),
        "assumed_boundary_condition": family.boundary_assumed,
        "reports": [r.to_dict() for r in reports],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_text(family, cfg: RunConfig, reports) -> str:
    lines = [
        f"family {family.name}  grid n<={cfg.nmax} m<={cfg.mmax}  mode {cfg.mode}"
    ]
    for r in reports:
        line = f"{r.status:4s}  {r.property:14s} n={r.n} m={r.m}  {r.mode}"
        if r.mode == "numeric":
            line += f"  residual={r.residual:.3e}"
        if r.notes:
            line += f"  [{r.notes}]"
        lines.append(line)
    errors = sum(1 for r in reports if r.status == "error")
    failed = sum(1 for r in reports if r.status == "fail")
    summary = f"summary: {len(reports) - failed - errors} pass, {failed} fail"
    lines.append(summary + (f", {errors} error" if errors else ""))
    return "\n".join(lines) + "\n"


def run(cfg: RunConfig) -> int:
    """Verify one family as cfg says; verify_all checks every other argument."""
    if cfg.format not in ("json", "text"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    family = resolve_family(cfg)
    reports = verify_all(
        family,
        nmax=cfg.nmax,
        mmax=cfg.mmax,
        mode=cfg.mode,
        properties=cfg.properties,
        quad_order=cfg.quad_order,
    )
    render = render_json if cfg.format == "json" else render_text
    text = render(family, cfg, reports)
    if cfg.output in (None, "-"):
        sys.stdout.write(text)
    else:
        _write_atomic(cfg.output, text)
    if any(r.status == "error" for r in reports):
        return 3
    return 0 if all(r.status == "pass" for r in reports) else 1


def list_families(fmt: str = "text") -> str:
    if fmt == "json":
        skeletons = []
        for name, nparams, _kind in list_builtins():
            ref = f"{name}({','.join(['0'] * nparams)})" if nparams else name
            skeletons.append(export_family(builtin(ref), moment_degree=4))
        return json.dumps(skeletons, sort_keys=True, indent=2) + "\n"
    lines = []
    for name, nparams, kind in list_builtins():
        sig = name if nparams == 0 else f"{name}({','.join('p' + str(i + 1) for i in range(nparams))})"
        lines.append(f"{sig:30s} domain: {kind}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copoly2d",
        description="Construct and verify bivariate vector orthogonal polynomial systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run the property grid for one family")
    ver.add_argument("--family", required=True,
                     help="built-in name (optionally with inline parameters) or a family JSON path")
    ver.add_argument("--params", default="",
                     help="comma separated rational parameters for a built-in family; a leading "
                          "minus needs --params=-1/2,1/3,2 or --family 'triangle(-1/2,1/3,2)'")
    ver.add_argument("--nmax", type=int, default=4)
    ver.add_argument("--mmax", type=int, default=2)
    ver.add_argument("--mode", choices=("exact", "numeric", "auto"), default="auto")
    ver.add_argument("--quad-order", type=int, default=20, dest="quad_order")
    ver.add_argument("--properties", default="",
                     help="comma separated subset of a,b,c,d,e,aux (default: all)")
    ver.add_argument("--output", default=None, help="report path (default: stdout)")
    ver.add_argument("--format", choices=("json", "text"), default="text")

    lst = sub.add_parser("list-families", help="print the built-in family catalogue")
    lst.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-families":
            sys.stdout.write(list_families(args.format))
            return 0
        params = split_params(args.params)
        # a blank list means every property; an empty token is the library's to reject
        props = tuple(t.strip() for t in args.properties.split(","))
        cfg = RunConfig(
            family_ref=args.family,
            params=params,
            nmax=args.nmax,
            mmax=args.mmax,
            mode=args.mode,
            quad_order=args.quad_order,
            properties=props if args.properties.strip() else None,
            output=args.output,
            format=args.format,
        )
        return run(cfg)
    except (ConfigError, FamilyLoadError, UnknownFamilyError, InvalidParameterError,
            OracleUnavailableError, ValueError, OSError) as exc:
        # KeyError subclasses repr their argument; report the raw text.
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"copoly2d: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
