"""Command-line front end.

Subcommands: gen, color, exact, verify, discharge, audit. Exit codes:
0 success, 1 invariant violation (failed coloring, broken conservation,
missing reducible witness, failed verify), 2 input error (an input too
large to hold in memory included), 3 size refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .conditions import (
    CONDITION_ORDER,
    check_condition,
    exact_size_ok,
    require_in_scope,
)
from .coloring import format_coloring, parse_coloring, verify
from .discharging import discharge
from .embedding import Drawing, format_drawing, parse_drawing, planarize
from .errors import EmbeddingError, ParseError, SizeRefusal
from .generate import FAMILIES, CorpusSpec, generate_corpus
from .graph import Graph, parse_graph
from .solver import DEFAULT_SLACK, RESTARTS, exact_acyclic_index, heuristic_color

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_SIZE = 3


def _is_drawing_text(text: str) -> bool:
    return any(ln.split()[:1] in (["x"], ["rot"]) for ln in text.splitlines() if ln.strip())


def _load_instance(path: str) -> tuple[Graph, Drawing | None]:
    text = Path(path).read_text()
    if _is_drawing_text(text):
        d = parse_drawing(text)
        return d.base, d
    return parse_graph(text), None


def _write_file(target: Path, text: str) -> None:
    """Write text to target through a temporary file and a rename, so that
    no reader sees a half-written file."""
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, target)


def _write_report(payload: str, args, default_name: str, multi: bool) -> None:
    if not args.out:
        sys.stdout.write(payload)
        return
    target = Path(args.out)
    # directory mode: trailing separator, existing directory, or batch run
    if str(args.out).endswith(os.sep) or target.is_dir() or multi:
        target.mkdir(parents=True, exist_ok=True)
        target = target / default_name
    _write_file(target, payload)


def _emit(report: dict, args, default_name: str, multi: bool = False) -> None:
    if args.format == "json":
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        payload = "".join(f"{k}={v}\n" for k, v in report.items())
    _write_report(payload, args, default_name, multi)


def _palette(args, g: Graph) -> int:
    """--kappa when given (even 0), else the default palette: max degree
    (0 without vertices) plus DEFAULT_SLACK."""
    if args.kappa is not None:
        return args.kappa
    return g.delta + DEFAULT_SLACK


def cmd_color(args) -> int:
    if args.coloring_out and len(args.instance) > 1:
        # one file per run: a second instance would overwrite the first
        raise ValueError(f"--coloring-out takes one instance, got {len(args.instance)}")
    status = EXIT_OK
    for path in args.instance:
        g, _ = _load_instance(path)
        kappa = _palette(args, g)
        triangle_free, witness = g.is_triangle_free()
        t0 = time.perf_counter()
        outcome = heuristic_color(g, kappa, seed=args.seed, restarts=args.restarts)
        ms = (time.perf_counter() - t0) * 1000.0
        report = {
            "instance": Path(path).stem,
            "n": g.n,
            "m": g.m,
            "delta": g.delta,
            "kappa": kappa,
            "triangle_free": triangle_free,
        }
        if not triangle_free:
            report["warning"] = f"triangle {witness}: graph is not triangle-free"
        if outcome is None:
            report.update({"status": "failure", "time_ms": round(ms, 3)})
            status = EXIT_INVARIANT
        else:
            rep = verify(outcome.coloring)
            report.update(
                {
                    "status": "ok" if rep.ok else "verify-failed",
                    "colors_used": outcome.colors_used,
                    "restarts": outcome.restarts_used,
                    "time_ms": round(ms, 3),
                    "verify": "pass" if rep.ok else "fail",
                }
            )
            if not rep.ok:
                status = EXIT_INVARIANT
            elif args.coloring_out:
                _write_file(Path(args.coloring_out), format_coloring(outcome.coloring))
        _emit(report, args, f"{Path(path).stem}.color.txt", multi=len(args.instance) > 1)
    return status


def cmd_exact(args) -> int:
    status = EXIT_OK
    for path in args.instance:
        g, _ = _load_instance(path)
        if not exact_size_ok(g):
            raise SizeRefusal(f"{path}: n={g.n}, m={g.m} beyond exact-solver limits")
        bound = _palette(args, g)
        result = exact_acyclic_index(g, bound)
        report = {"instance": Path(path).stem, "n": g.n, "m": g.m, "bound": bound}
        if result is None:
            report["status"] = "unsat-below-bound"
            status = EXIT_INVARIANT
        else:
            ok = verify(result.coloring).ok
            report.update(
                {
                    "status": "ok" if ok else "verify-failed",
                    "acyclic_index": result.min_colors,
                    "verify": "pass" if ok else "fail",
                }
            )
            if not ok:
                status = EXIT_INVARIANT
        _emit(report, args, f"{Path(path).stem}.exact.txt", multi=len(args.instance) > 1)
    return status


def cmd_verify(args) -> int:
    g, _ = _load_instance(args.instance[0])
    coloring = parse_coloring(Path(args.coloring).read_text(), g)
    rep = verify(coloring)
    report = {
        "instance": Path(args.instance[0]).stem,
        "proper": rep.proper,
        "acyclic": rep.acyclic,
        "colored_edges": coloring.colored_count,
        "total": coloring.is_total(),
    }
    if rep.conflict:
        report["conflict"] = str(rep.conflict)
    if rep.cycle:
        report["cycle"] = str(list(rep.cycle))
    _emit(report, args, f"{Path(args.instance[0]).stem}.verify.txt")
    return EXIT_OK if rep.ok else EXIT_INVARIANT


def cmd_discharge(args) -> int:
    status = EXIT_OK
    for path in args.instance:
        g, d = _load_instance(path)
        if d is None:
            raise ParseError(f"{path}: discharge requires a drawing file "
                             "(crossing and rotation lines), got a bare graph")
        p = planarize(d)
        kappa = _palette(args, g)
        rep = discharge(p, g, kappa)
        blamed = all(ne.violated for ne in rep.negative_elements)
        if not rep.conserved or not rep.negative_elements or not blamed:
            status = EXIT_INVARIANT
        if args.format == "json":
            doc = rep.to_json()
            doc["instance"] = Path(path).stem
            payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        else:
            payload = f"instance={Path(path).stem}\n" + rep.to_text()
        _write_report(payload, args, f"{Path(path).stem}.discharge.txt",
                      multi=len(args.instance) > 1)
    return status


def cmd_audit(args) -> int:
    status = EXIT_OK
    for path in args.instance:
        g, d = _load_instance(path)
        if d is None:
            raise ParseError(f"{path}: audit requires a drawing file "
                             "(crossing and rotation lines), got a bare graph")
        kappa = _palette(args, g)
        plane = planarize(d)
        require_in_scope(g, kappa)
        report = {"instance": Path(path).stem, "kappa": kappa}
        # the witness is the first entry of the first failing condition in
        # CONDITION_ORDER, as find_reducible_configuration picks it
        found = None
        for cond in CONDITION_ORDER:
            witnesses = check_condition(g, plane, kappa, cond)
            report[f"condition.{cond.value}"] = (
                "pass" if not witnesses else f"fail({len(witnesses)})"
            )
            if found is None and witnesses:
                found = witnesses[0]
        if found is None:
            report["reducible"] = "none"
            status = EXIT_INVARIANT
        else:
            report["reducible"] = found.condition.value
            report["witness_vertices"] = str(list(found.vertices))
            report["witness_detail"] = found.detail
        _emit(report, args, f"{Path(path).stem}.audit.txt", multi=len(args.instance) > 1)
    return status


def cmd_gen(args) -> int:
    families = tuple(args.family) if args.family else FAMILIES
    for fam in families:
        if fam not in FAMILIES:
            raise ParseError(f"unknown family {fam!r}; choose from {FAMILIES}")
    spec = CorpusSpec(
        count=args.count,
        n_min=args.nmin,
        n_max=args.nmax,
        families=families,
        seed=args.seed,
    )
    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, drawing in generate_corpus(spec):
        target = outdir / f"{name}.txt"
        _write_file(target, format_drawing(drawing))
        sys.stdout.write(f"{target}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acecolor",
        description="Acyclic edge coloring of triangle-free 1-planar graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kappa=True, instances="+"):
        p.add_argument("instance", nargs=instances, help="instance file(s)")
        if kappa:
            p.add_argument("--kappa", type=int, default=None,
                           help="palette size (default: max degree + 16)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write report(s) here")

    p = sub.add_parser("color", help="run the heuristic colorer")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seeds the order of the later roots")
    p.add_argument("--restarts", type=int, default=RESTARTS,
                   help="rooted searches beyond the first, run only after the search "
                        f"on the peeling order spends its node budget (default {RESTARTS})")
    p.add_argument("--coloring-out", default=None,
                   help="save the coloring (one instance only)")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("exact", help="exact acyclic chromatic index (small graphs)")
    common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="check a serialized coloring of one instance")
    common(p, kappa=False, instances=1)
    p.add_argument("--coloring", required=True, help="coloring file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("discharge", help="run the discharging audit (palette >= max degree + 16)")
    common(p)
    p.set_defaults(func=cmd_discharge)

    p = sub.add_parser("audit", help="check all structural conditions")
    common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gen", help="generate corpus instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write instances here")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--nmin", type=int, default=10)
    p.add_argument("--nmax", type=int, default=60)
    p.add_argument("--family", action="append", default=None,
                   help=f"one of {', '.join(FAMILIES)} (repeatable)")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # ParseError and EmbeddingError are ValueErrors; so are bad
        # parameters like a palette below the max degree. An OSError is a
        # missing instance or an --out path that cannot be written, and a
        # MemoryError an input too large to hold, such as a vertex count
        # beyond the kernel's int ids, refused before it is allocated
        print(f"error: {str(exc) or 'input too large to hold in memory'}", file=sys.stderr)
        return EXIT_INPUT
    except SizeRefusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE


if __name__ == "__main__":
    sys.exit(main())
