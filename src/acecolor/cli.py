"""Command-line front end.

Subcommands: gen, color, exact, verify, discharge, audit. Exit codes:
0 success, 1 invariant violation (failed coloring, broken conservation,
missing reducible witness, failed verify), 2 input error (an input too
large to hold in memory included), 3 size refusal. A batch reports every
instance it can and exits with the largest code met.
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
from .discharging import DischargeReport, discharge
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


def _load_drawing(path: str, command: str) -> Drawing:
    d = _load_instance(path)[1]
    if d is None:
        raise ParseError(f"{path}: {command} requires a drawing file "
                         "(crossing and rotation lines), got a bare graph")
    return d


def _palette(args, g: Graph) -> int:
    """--kappa when given (even 0), else the default palette: max degree
    (0 without vertices) plus DEFAULT_SLACK."""
    if args.kappa is not None:
        return args.kappa
    return g.delta + DEFAULT_SLACK


def _key_values(report: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in report.items())


# ParseError and EmbeddingError are ValueErrors; so are bad parameters
# like a palette below the max degree. An OSError is a missing instance or
# an --out path that cannot be written, and a MemoryError an input too
# large to hold, such as a vertex count beyond the kernel's int ids,
# refused before it is allocated
REFUSALS = (ValueError, OSError, MemoryError, SizeRefusal)


def _refused(exc: Exception) -> int:
    """Print the error line of a refusal in REFUSALS; return its exit code."""
    print(f"error: {str(exc) or 'input too large to hold in memory'}", file=sys.stderr)
    return EXIT_SIZE if isinstance(exc, SizeRefusal) else EXIT_INPUT


def _each_instance(args) -> int:
    """Run the command's report function on each instance in turn, and
    write each report before the next instance is read: to stdout, to the
    --out file, or to {stem}.{command}.txt in the --out directory, which a
    batch run always takes. A report function returns the report and
    whether the instance passed; the command's to_text or to_json renders
    the report. A refused instance prints its error line and the batch
    goes on. The exit status is the largest code met: 1 for an instance
    that did not pass, 2 or 3 for a refused one."""
    if getattr(args, "coloring_out", None) and len(args.instance) > 1:
        # one file per run: a second instance would overwrite the first
        raise ValueError(f"--coloring-out takes one instance, got {len(args.instance)}")
    status = EXIT_OK
    for path in args.instance:
        stem = Path(path).stem
        try:
            report, ok = args.report(args, path)
            if args.format == "json":
                payload = json.dumps({"instance": stem, **args.to_json(report)}, indent=2, sort_keys=True) + "\n"
            else:
                payload = f"instance={stem}\n{args.to_text(report)}"
            if not ok:
                status = max(status, EXIT_INVARIANT)
            if not args.out:
                sys.stdout.write(payload)
                continue
            target = Path(args.out)
            # directory mode: trailing separator, existing directory, or batch run
            if args.out.endswith(os.sep) or target.is_dir() or len(args.instance) > 1:
                target.mkdir(parents=True, exist_ok=True)
                target = target / f"{stem}.{args.command}.txt"
            _write_file(target, payload)
        except REFUSALS as exc:
            status = max(status, _refused(exc))
    return status


def _color(args, path: str) -> tuple[dict, bool]:
    g, _ = _load_instance(path)
    kappa = _palette(args, g)
    triangle_free, witness = g.is_triangle_free()
    t0 = time.perf_counter()
    outcome = heuristic_color(g, kappa, seed=args.seed, restarts=args.restarts)
    ms = (time.perf_counter() - t0) * 1000.0
    report = {
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
        return report, False
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
    if rep.ok and args.coloring_out:
        _write_file(Path(args.coloring_out), format_coloring(outcome.coloring))
    return report, rep.ok


def _exact(args, path: str) -> tuple[dict, bool]:
    g, _ = _load_instance(path)
    if not exact_size_ok(g):
        raise SizeRefusal(f"{path}: n={g.n}, m={g.m} beyond exact-solver limits")
    bound = _palette(args, g)
    result = exact_acyclic_index(g, bound)
    report = {"n": g.n, "m": g.m, "bound": bound}
    if result is None:
        report["status"] = "unsat-below-bound"
        return report, False
    ok = verify(result.coloring).ok
    report.update(
        {
            "status": "ok" if ok else "verify-failed",
            "acyclic_index": result.min_colors,
            "verify": "pass" if ok else "fail",
        }
    )
    return report, ok


def _verify(args, path: str) -> tuple[dict, bool]:
    g, _ = _load_instance(path)
    coloring = parse_coloring(Path(args.coloring).read_text(), g)
    rep = verify(coloring)
    report = {
        "proper": rep.proper,
        "acyclic": rep.acyclic,
        "colored_edges": coloring.colored_count,
        "total": coloring.is_total(),
    }
    if rep.conflict:
        report["conflict"] = str(rep.conflict)
    if rep.cycle:
        report["cycle"] = str(list(rep.cycle))
    return report, rep.ok


def _discharge(args, path: str) -> tuple[DischargeReport, bool]:
    d = _load_drawing(path, "discharge")
    p = planarize(d)
    kappa = _palette(args, d.base)
    rep = discharge(p, d.base, kappa)
    blamed = all(ne.violated for ne in rep.negative_elements)
    ok = rep.conserved and bool(rep.negative_elements) and blamed
    return rep, ok


def _audit(args, path: str) -> tuple[dict, bool]:
    d = _load_drawing(path, "audit")
    g = d.base
    kappa = _palette(args, g)
    plane = planarize(d)
    require_in_scope(g, kappa)
    report = {"kappa": kappa}
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
        return report, False
    report["reducible"] = found.condition.value
    report["witness_vertices"] = str(list(found.vertices))
    report["witness_detail"] = found.detail
    return report, True


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

    def common(p, report, kappa=True, instances="+", to_text=_key_values, to_json=dict):
        p.set_defaults(func=_each_instance, report=report, to_text=to_text, to_json=to_json)
        p.add_argument("instance", nargs=instances, help="instance file(s)")
        if kappa:
            p.add_argument("--kappa", type=int, default=None,
                           help="palette size (default: max degree + 16)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write report(s) here")

    p = sub.add_parser("color", help="run the heuristic colorer")
    common(p, _color)
    p.add_argument("--seed", type=int, default=0, help="seeds the order of the later roots")
    p.add_argument("--restarts", type=int, default=RESTARTS,
                   help="rooted searches beyond the first, run only after the search "
                        f"on the peeling order spends its node budget (default {RESTARTS})")
    p.add_argument("--coloring-out", default=None,
                   help="save the coloring (one instance only)")

    p = sub.add_parser("exact", help="exact acyclic chromatic index (small graphs)")
    common(p, _exact)

    p = sub.add_parser("verify", help="check a serialized coloring of one instance")
    common(p, _verify, kappa=False, instances=1)
    p.add_argument("--coloring", required=True, help="coloring file")

    p = sub.add_parser("discharge", help="run the discharging audit (palette >= max degree + 16)")
    common(p, _discharge, to_text=DischargeReport.to_text, to_json=DischargeReport.to_json)

    p = sub.add_parser("audit", help="check all structural conditions")
    common(p, _audit)

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
    except REFUSALS as exc:
        return _refused(exc)


if __name__ == "__main__":
    sys.exit(main())
