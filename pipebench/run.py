#!/usr/bin/env python3
"""Seeded, closed-loop pipeline benchmark for acecolor.

One process, one thread, one instance at a time. Run from the root of a
checkout:

    python3 pipebench/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 pipebench/run.py --workload all --seed 1 --seconds 10

Workloads (see pipebench/workloads.py): corpus, tight, scaling, exact.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports per-layer metrics from
the traced ones, plus the tracing overhead. An instance's time is the
best of its times over the run's passes, each taken with the cyclic
collector's state reset before the instance. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. A fuller
record (environment, output digest, tail percentile) is written to
.bench_out/, and the spans of the last traced pass next to it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
KERNEL_BENCH = ROOT / "benchmarks"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7  # fresh set-ups per run, spread over its timed passes
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it

import workloads as wl  # this script's directory leads sys.path
from spans import Tracer

LIB_MODULES = ("generate", "embedding", "solver", "coloring", "kernel", "discharging", "conditions")


class Lib:
    """The freshly imported library modules, reached by attribute."""

    def __init__(self) -> None:
        self.acecolor = importlib.import_module("acecolor")
        for name in LIB_MODULES:
            setattr(self, name, importlib.import_module(f"acecolor.{name}"))
        self.bench_kernel = importlib.import_module("bench_kernel")


def fail_setup(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def build() -> None:
    """Build the package's optional extension in place from source. The
    build script falls back to the pure-Python kernel by itself when no
    compiler toolchain for the extension is present."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail_setup("building the package failed")


def _lib_modules() -> dict:
    return {
        name: mod for name, mod in sys.modules.items()
        if name == "acecolor" or name.startswith("acecolor.") or name == "bench_kernel"
    }


def setup_once(workload: str, seed: int) -> tuple[float, Lib, list]:
    """Fresh import of acecolor (kernel backend selection included), then
    the workload's inputs, generated and serialized. Returns the time.
    Modules imported before are put back afterwards, so that a set-up
    between passes leaves the passes' library as it was."""
    before = _lib_modules()
    for name in before:
        del sys.modules[name]
    t0 = time.perf_counter()
    lib = Lib()
    items = wl.build_inputs(lib, workload, seed)
    t = time.perf_counter() - t0
    if not Path(lib.acecolor.__file__).resolve().is_relative_to(SRC):
        fail_setup(f"imported acecolor from {lib.acecolor.__file__}, not from {SRC}")
    if before:
        for name in _lib_modules():
            del sys.modules[name]
        sys.modules.update(before)
    return t, lib, items


def nearest_rank(sorted_vals: list[float], q: float) -> float:
    r = max(1, math.ceil(q / 100.0 * len(sorted_vals)))
    return sorted_vals[r - 1]


def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least TAIL_BEYOND samples beyond
    its nearest-rank value. With too few samples for any, the maximum."""
    return (100 * (n - TAIL_BEYOND)) // n if n > TAIL_BEYOND else 100


# -- one pass over the instances ---------------------------------------------------


class PassResult:
    def __init__(self) -> None:
        self.wall = 0.0
        self.times: list[float] = []  # seconds per instance, in item order
        self.results: list = []
        self.fatal: list[str] = []
        self.digest = ""


def run_pass(lib: Lib, items: list, workload: str, tracer: Tracer | None) -> PassResult:
    """One pass over the items. Every instance starts from the same heap
    state: what the benchmark itself holds is frozen out of the cyclic
    collector (and stays frozen), and a collection before each instance
    (untimed) clears what the previous one left, so that when the
    collector runs inside an instance depends on that instance alone. A
    pass's wall time is the sum of its instances' times."""
    pr = PassResult()
    h = hashlib.sha256()
    gc.collect()
    gc.freeze()
    for it in items:
        gc.collect()
        t0 = time.perf_counter()
        span = tracer.open("pipeline") if tracer else None
        try:
            res = wl.run_item(lib, it, workload)
        except wl.Fatal as exc:
            res = wl.Result(m=0, ops=1, failed=1, failures=[str(exc)], outputs=[it.name, "fatal"])
            pr.fatal.append(str(exc))
        except Exception:  # an instance must not end the run unreported
            msg = f"{it.name}: " + traceback.format_exc(limit=3)
            res = wl.Result(m=0, ops=1, failed=1, failures=[msg], outputs=[it.name, "error"])
            pr.fatal.append(msg)
        finally:
            if span is not None:
                tracer.close(span)
        pr.times.append(time.perf_counter() - t0)
        h.update(res.digest_text().encode() + b"\n")
        res.outputs = []  # keep no instance's outputs beyond the digest
        pr.results.append(res)
    pr.wall = math.fsum(pr.times)
    pr.digest = h.hexdigest()
    return pr


# -- tracing -----------------------------------------------------------------------


def _accepted(key):
    def on_result(tracer, out):
        if out.accepted:
            tracer.counts[key] += 1
    return on_result


def _shift_verify(tracer, out):
    # the verify calls made by heuristic_color itself gate uncolor-shift
    if tracer.open_name(1) == "solver.heuristic_color":
        tracer.counts["shift.trials"] += 1
        tracer.counts["shift.accepted"] += out.ok


def _refutation(tracer, out):
    tracer.counts["kernel.refutations"] += out is None


def install_generate(tr: Tracer, lib: Lib) -> None:
    gen = lib.generate
    tr.wrap(gen, "generate_instance", "generate.generate_instance")
    tr.wrap(gen.DrawingBuilder, "subdivide", "generate.subdivide")
    tr.wrap(gen.DrawingBuilder, "can_insert_crossing", "generate.can_insert_crossing")
    tr.wrap(gen.DrawingBuilder, "insert_crossing", "generate.insert_crossing")
    tr.wrap(lib.embedding, "format_drawing", "embedding.format_drawing")


def install_pipeline(tr: Tracer, lib: Lib) -> None:
    """Wrap the public functions at the attributes their callers use."""
    emb, sol, col, ker = lib.embedding, lib.solver, lib.coloring, lib.kernel
    dis, cond = lib.discharging, lib.conditions
    tr.wrap(emb, "parse_drawing", "embedding.parse_drawing")
    tr.wrap(emb, "planarize", "embedding.planarize")
    tr.wrap(sol, "heuristic_color", "solver.heuristic_color")
    tr.wrap(sol, "edge_insertion_order", "solver.edge_insertion_order")
    tr.wrap(sol, "verify", "solver.verify", _shift_verify)
    tr.wrap(sol, "repair_recolor_single", "solver.repair_recolor_single", _accepted("recolor.accepted"))
    tr.wrap(sol, "repair_exchange_pair", "solver.repair_exchange_pair", _accepted("exchange.accepted"))
    tr.wrap(sol, "exact_acyclic_index", "solver.exact_acyclic_index")
    tr.wrap(sol, "has_acyclic_coloring", "solver.has_acyclic_coloring")
    tr.wrap(cond, "has_acyclic_coloring", "solver.has_acyclic_coloring")
    tr.wrap(col.EdgeColoring, "valid_colors", "coloring.valid_colors")
    tr.wrap(col.EdgeColoring, "copy", "coloring.copy")
    tr.wrap(col, "verify", "coloring.verify")
    tr.wrap(ker, "find_coloring", "kernel.find_coloring", _refutation)
    tr.wrap(dis, "discharge", "discharging.discharge")
    tr.wrap(dis, "apply_rules", "discharging.apply_rules")
    tr.wrap(dis, "audit_final_charges", "discharging.audit_final_charges")
    tr.wrap(dis, "element_hypothesis_failures", "discharging.element_hypothesis_failures")
    tr.wrap(dis, "check_condition", "conditions.check_condition")
    tr.wrap(cond, "check_condition", "conditions.check_condition")
    tr.wrap(cond, "find_reducible_configuration", "conditions.find_reducible_configuration")
    tr.wrap(cond, "recheck_witness", "conditions.recheck_witness")
    tr.wrap(cond, "deletion_minimal_probe", "conditions.deletion_minimal_probe")


def generate_layer(tr: Tracer) -> dict[str, float]:
    self_ns = tr.self_times()
    by_name, by_pair = tr.summary(self_ns)
    inserts = by_name.get("generate.insert_crossing", {}).get("calls", 0)
    # insert_crossing re-checks its own edge; count the generator's checks only
    checks = by_name.get("generate.can_insert_crossing", {}).get("calls", 0)
    checks -= by_pair.get(("generate.can_insert_crossing", "generate.insert_crossing"), [0])[0]
    return {
        "generate.s": by_name["setup"]["s"],
        "generate.crossing_accept_ratio": inserts / checks if checks else 0.0,
        "generate.subdivisions": by_name.get("generate.subdivide", {}).get("calls", 0),
    }


def pipeline_layers(tr: Tracer, pr: PassResult) -> tuple[dict[str, float], int]:
    """Per-layer metrics of one traced pass, and the largest gap between
    an instance's pipeline time and the sum of self times under it."""
    self_ns = tr.self_times()
    by_name, by_pair = tr.summary(self_ns)
    gaps = tr.root_gaps("pipeline", self_ns)

    def calls(n):
        return by_name.get(n, {}).get("calls", 0)

    def secs(n):
        return by_name.get(n, {}).get("s", 0.0)

    def top(n):  # calls made by the pipeline itself, not nested in another layer
        return by_pair.get((n, "pipeline"), [0, 0.0])[1]

    c = tr.counts
    results = pr.results
    pipeline_s = secs("pipeline")
    trials = calls("solver.repair_recolor_single") + calls("solver.repair_exchange_pair") + c["shift.trials"]
    accepted = c["recolor.accepted"] + c["exchange.accepted"] + c["shift.accepted"]
    moves = {k: sum(r.moves[k] for r in results) for k in ("recolor", "exchange", "uncolor-shift")}
    colored = [r for r in results if r.colors is not None]
    out = {
        "embedding.parse_s": secs("embedding.parse_drawing"),
        "embedding.planarize_s": secs("embedding.planarize"),
        "embedding.faces": sum(r.faces for r in results),
        "solver.order_s": secs("solver.edge_insertion_order"),
        "solver.order_share": secs("solver.edge_insertion_order") / pipeline_s,
        "solver.color_s": secs("solver.heuristic_color"),
        "solver.color_self_s": by_name.get("solver.heuristic_color", {}).get("self_s", 0.0),
        "coloring.valid_colors_calls": calls("coloring.valid_colors"),
        "coloring.valid_colors_s": secs("coloring.valid_colors"),
        "coloring.copy_calls": calls("coloring.copy"),
        "solver.repair_trials": trials,
        "solver.repair_accept_ratio": accepted / trials if trials else 0.0,
        "solver.repairs.recolor": moves["recolor"],
        "solver.repairs.exchange": moves["exchange"],
        "solver.repairs.uncolor-shift": moves["uncolor-shift"],
        "solver.restarts": sum(r.restarts for r in results),
        "solver.delta_misses": sum(r.delta_miss for r in results),
        "solver.verify_calls": calls("solver.verify"),
        "solver.verify_s": secs("solver.verify"),
        "coloring.verify_s": secs("coloring.verify"),
        "kernel.calls": calls("kernel.find_coloring"),
        "kernel.refutations": c["kernel.refutations"],
        "kernel.s": secs("kernel.find_coloring"),
        "solver.exact_s": top("solver.exact_acyclic_index") + top("solver.has_acyclic_coloring"),
        "conditions.probe_s": secs("conditions.deletion_minimal_probe"),
        "discharging.rules_s": secs("discharging.apply_rules"),
        "discharging.audit_s": secs("discharging.audit_final_charges"),
        "discharging.transfers": sum(r.transfers for r in results),
        "discharging.negative_elements": sum(r.negatives for r in results),
        "discharging.blame_calls": calls("discharging.element_hypothesis_failures"),
        "conditions.check_calls": calls("conditions.check_condition"),
        "conditions.check_s": secs("conditions.check_condition"),
        "conditions.reducible_s": secs("conditions.find_reducible_configuration"),
        "quality.colors_over_delta": (
            statistics.fmean(r.colors - r.delta for r in colored) if colored else 0.0
        ),
        "trace.pipeline_s": pipeline_s,
        "trace.glue_share": by_name["pipeline"]["self_s"] / pipeline_s,
        "trace.spans": len(tr),
    }
    return out, max((abs(g) for g in gaps), default=0)


# -- the run ------------------------------------------------------------------------


def environment(args, lib: Lib) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": lib.acecolor.KERNEL_BACKEND,
        "acecolor_pure": bool(os.environ.get("ACECOLOR_PURE")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(args) -> dict:
    build()
    setups = []
    digests_in = set()
    t, lib, items = setup_once(args.workload, args.seed)
    digests_in.add(wl.input_digest(items))
    setups.append(t)

    record = {"env": environment(args, lib), "input_digest": wl.input_digest(items)}
    passes: list[PassResult] = []
    traced: list[tuple[PassResult, dict]] = []
    gap_max = 0
    elapsed = 0.0
    if args.trace:
        tr = Tracer()
        install_generate(tr, lib)
        span = tr.open("setup")
        try:
            traced_items = wl.build_inputs(lib, args.workload, args.seed)
        finally:
            tr.close(span)
            tr.uninstall()
        digests_in.add(wl.input_digest(traced_items))
        gen_layer = generate_layer(tr)
        while True:  # alternate untraced and traced passes
            pr = run_pass(lib, items, args.workload, None)
            passes.append(pr)
            tr.reset()
            install_pipeline(tr, lib)
            try:
                tp = run_pass(lib, items, args.workload, tr)
            finally:
                tr.uninstall()
            layers, gap = pipeline_layers(tr, tp)
            gap_max = max(gap_max, gap)
            traced.append((tp, layers))
            elapsed += pr.wall + tp.wall
            if elapsed >= args.seconds:
                break
        OUT.mkdir(exist_ok=True)
        tr.write_tsv(OUT / f"{args.workload}-seed{args.seed}.spans.tsv")
    else:
        # whole passes, stopping at the pass boundary nearest to --seconds
        while not passes or elapsed + statistics.median(p.wall for p in passes) / 2 < args.seconds:
            pr = run_pass(lib, items, args.workload, None)
            passes.append(pr)
            elapsed += pr.wall
            # more set-ups between passes, spread over the run, so that the
            # median set-up time does not rest on the host's speed at its
            # start alone
            while len(setups) < SETUP_SAMPLES and elapsed >= args.seconds * len(setups) / SETUP_SAMPLES:
                t, _, again = setup_once(args.workload, args.seed)
                digests_in.add(wl.input_digest(again))
                setups.append(t)
        while len(setups) < SETUP_SAMPLES:  # a run of a few long passes
            t, _, again = setup_once(args.workload, args.seed)
            digests_in.add(wl.input_digest(again))
            setups.append(t)

    fatal: list[str] = ["set-ups of one seed built different inputs"] if len(digests_in) > 1 else []
    every = passes + [tp for tp, _ in traced]
    digests = {p.digest for p in every}
    for p in every:
        fatal.extend(p.fatal)
    if len(digests) > 1:
        fatal.append("outputs differ between passes over the same inputs")
    attempted = sum(r.ops for p in every for r in p.results)
    failed = sum(r.failed for p in every for r in p.results)
    failures = sorted({f for p in every for r in p.results for f in r.failures})
    record.update(
        output_digest=sorted(digests)[0],
        passes=len(passes),
        traced_passes=len(traced),
        instances_per_pass=len(items),
        failures=failures[:50],
    )

    if args.trace:
        walls_u = [p.wall for p in passes]
        walls_t = [tp.wall for tp, _ in traced]
        overhead = statistics.median(walls_t) - statistics.median(walls_u)
        metrics = dict(gen_layer)
        for key in traced[0][1]:
            metrics[key] = statistics.median(layers[key] for _, layers in traced)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / statistics.median(walls_u)
        metrics["trace.selftime_gap_ns"] = gap_max
        record.update(pass_walls_s=walls_u, traced_walls_s=walls_t)
        if gap_max:
            fatal.append(f"self times miss {gap_max} ns of an instance's pipeline time")
    else:
        # each instance's time is its best over the run's passes: the shared
        # host runs at about half speed for stretches of tens of seconds,
        # and the best of many passes is what such a stretch moves least
        best = [min(p.times[i] for p in passes) for i in range(len(items))]
        wall = math.fsum(best)
        per_item = sorted(best)
        q = tail_percentile(len(per_item))
        colored = [r for p in passes for r in p.results if r.colors is not None]
        metrics = {
            "setup_s": statistics.median(setups),
            "instances_per_s": len(items) / wall,
            "instance_p50_ms": 1e3 * statistics.median(per_item),
            "instance_tail_ms": 1e3 * nearest_rank(per_item, q),
            "edges_per_s": sum(r.m for r in passes[0].results) / wall,
            "ok_ratio": (attempted - failed) / attempted,
            "colors_per_delta": statistics.fmean(r.colors / r.delta for r in colored),
        }
        record.update(
            setup_runs_s=setups,
            pass_walls_s=[p.wall for p in passes],
            instance_times_s=[p.times for p in passes],
            tail_percentile=q,
            tail_samples=len(per_item),
            best_pass_s=wall,
        )
    record["metrics"] = metrics
    record["fatal"] = fatal[:20]
    return {
        "correct": not fatal,
        "attempted": attempted,
        "failed": failed,
        "record": record,
    }


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    out = measure(args)
    rec = out["record"]
    if set(rec["metrics"]) != {m["name"] for m in declared}:
        raise SystemExit(f"error: metrics {sorted(rec['metrics'])} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": rec["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**rec, "correct": out["correct"], "attempted": out["attempted"],
                                "failed": out["failed"]}, indent=2, sort_keys=True) + "\n")
    env = rec["env"]
    print(f"# {args.workload} seed={args.seed} backend={env['kernel_backend']} "
          f"python={env['python']} nproc={env['nproc']} pure={env['acecolor_pure']}")
    print(f"# output digest {rec['output_digest']}  ({path.relative_to(ROOT)})")
    if "tail_percentile" in rec:
        print(f"# tail = p{rec['tail_percentile']} of {rec['tail_samples']} per-instance best times"
              f" over {rec['passes']} passes")
    for f in rec["fatal"]:
        print(f"# INCORRECT: {f}")
    for k, v in metrics.items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed wall time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        fail_setup(f"no {ROOT / 'BENCHMARK.json'}; run from a checkout of the repository")
    if not (SRC / "acecolor" / "__init__.py").is_file():
        fail_setup(f"no acecolor sources under {SRC}; run from a checkout of the repository")
    if not (KERNEL_BENCH / "bench_kernel.py").is_file():
        fail_setup(f"no {KERNEL_BENCH / 'bench_kernel.py'}; run from a checkout of the repository")
    sys.path.insert(0, str(KERNEL_BENCH))
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
