import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from acecolor.cli import main
from acecolor.coloring import parse_coloring
from acecolor.conditions import exact_size_ok, find_reducible_configuration
from acecolor import cli, kernel
from acecolor.embedding import format_drawing, parse_drawing, planarize
from acecolor.generate import CorpusSpec, cycle_builder, generate_corpus, grid_builder
from acecolor.graph import Graph, format_graph

from fixtures import pendant_cycle_fixture
from graphlib import cycle, grid, star


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(format_graph(cycle(5)))
    return path


@pytest.fixture
def drawing_file(tmp_path):
    b = grid_builder(3, 4)
    b.insert_crossing(5, 6)
    path = tmp_path / "crossed.txt"
    path.write_text(format_drawing(b.to_drawing()))
    return path


def test_gen_writes_valid_instances(tmp_path, capsys):
    rc = main(["gen", "--count", "6", "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    files = sorted(tmp_path.glob("*.txt"))
    assert len(files) == 6
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 6
    # every emitted file parses, is triangle-free, and colors
    for f in files:
        assert main(["color", str(f)]) == 0


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["gen", "--count", "4", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen", "--count", "4", "--seed", "9", "--out", str(b)]) == 0
    fa = sorted(p.name for p in a.glob("*.txt"))
    fb = sorted(p.name for p in b.glob("*.txt"))
    assert fa == fb
    for name in fa:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_rejects_unknown_family(tmp_path):
    assert main(["gen", "--family", "mystery", "--out", str(tmp_path)]) == 2


def test_color_c5(c5_file, capsys):
    rc = main(["color", str(c5_file), "--kappa", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status=ok" in out
    assert "colors_used=3" in out


def test_color_writes_coloring(c5_file, tmp_path, capsys):
    colpath = tmp_path / "c5.coloring"
    rc = main(["color", str(c5_file), "--coloring-out", str(colpath)])
    assert rc == 0
    col = parse_coloring(colpath.read_text(), cycle(5))
    assert col.is_total()


def test_every_written_file_is_renamed_into_place(c5_file, tmp_path, monkeypatch):
    # the coloring, the reports and the generated drawings are each written
    # to a temporary file first and renamed over their target
    renamed = []
    replace = cli.os.replace
    monkeypatch.setattr(cli.os, "replace", lambda a, b: renamed.append(Path(b).name) or replace(a, b))
    assert main(["color", str(c5_file), "--coloring-out", str(tmp_path / "c5.coloring"),
                 "--out", str(tmp_path / "c5.report")]) == 0
    assert main(["gen", "--count", "1", "--out", str(tmp_path / "gen")]) == 0
    assert renamed[:2] == ["c5.coloring", "c5.report"] and len(renamed) == 3
    assert renamed[2] in {p.name for p in (tmp_path / "gen").iterdir()}
    assert not list(tmp_path.rglob("*.tmp"))


def test_color_json_format(c5_file, capsys):
    rc = main(["color", str(c5_file), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"
    assert doc["triangle_free"] is True


def test_color_triangle_warns_but_runs(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    rc = main(["color", str(path)])
    assert rc == 0
    assert "warning" in capsys.readouterr().out


def test_color_impossible_palette_fails(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text(format_graph(cycle(4)))
    # kappa=2 below the acyclic index: heuristic must report failure
    rc = main(["color", str(path), "--kappa", "2"])
    assert rc == 1
    assert "status=failure" in capsys.readouterr().out


def test_zero_vertex_graph_uses_default_palette(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    for cmd, palette in (("color", "kappa"), ("exact", "bound")):
        assert main([cmd, str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["status"], doc[palette]) == ("ok", 16)


def test_kappa_zero_is_a_palette_not_the_default(c5_file, capsys):
    # a palette below the max degree is an input error, 0 included
    assert main(["color", str(c5_file), "--kappa", "0"]) == 2
    assert "below max degree" in capsys.readouterr().err


def test_negative_restarts_is_an_input_error(c5_file, capsys):
    # refused although the search would color C5 without a restart
    assert main(["color", str(c5_file), "--restarts", "-1"]) == 2
    assert "restarts must be non-negative" in capsys.readouterr().err
    assert main(["color", str(c5_file), "--restarts", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["status"], doc["restarts"]) == ("ok", 0)
    assert "repairs" not in doc


def test_exact_c5(c5_file, capsys):
    rc = main(["exact", str(c5_file)])
    assert rc == 0
    assert "acyclic_index=3" in capsys.readouterr().out


def test_exact_star(tmp_path, capsys):
    path = tmp_path / "k14.txt"
    path.write_text(format_graph(star(4)))
    assert main(["exact", str(path)]) == 0
    assert "acyclic_index=4" in capsys.readouterr().out


def test_exact_size_refusal(tmp_path):
    path = tmp_path / "grid44.txt"
    path.write_text(format_graph(grid(4, 4)))
    assert main(["exact", str(path)]) == 3


def test_exact_unsat_bound(c5_file):
    assert main(["exact", str(c5_file), "--kappa", "2"]) == 1


def test_exact_edgeless_graph_below_bound(tmp_path, capsys):
    path = tmp_path / "e3.txt"
    path.write_text("3 0\n")
    assert main(["exact", str(path), "--kappa", "-1"]) == 1
    out = capsys.readouterr().out
    assert "status=unsat-below-bound" in out and "acyclic_index" not in out
    assert main(["exact", str(path), "--kappa", "0"]) == 0
    assert "acyclic_index=0" in capsys.readouterr().out


def test_color_agrees_with_exact_on_an_edgeless_graph(tmp_path, capsys):
    # a graph without edges is colored with no colors at palette 0, as exact
    # finds its index 0 there; a negative palette is still refused
    path = tmp_path / "e3.txt"
    path.write_text("3 0\n")
    assert main(["color", str(path), "--kappa", "0"]) == 0
    out = capsys.readouterr().out
    assert "colors_used=0" in out and "verify=pass" in out
    assert main(["color", str(path), "--kappa", "-1"]) == 2
    assert "below max degree" in capsys.readouterr().err


def test_verify_roundtrip(c5_file, tmp_path, capsys):
    colpath = tmp_path / "c5.coloring"
    assert main(["color", str(c5_file), "--coloring-out", str(colpath)]) == 0
    capsys.readouterr()
    rc = main(["verify", str(c5_file), "--coloring", str(colpath)])
    assert rc == 0
    assert "acyclic=True" in capsys.readouterr().out


def test_verify_takes_exactly_one_instance(c5_file, tmp_path, capsys):
    colpath = tmp_path / "c5.coloring"
    assert main(["color", str(c5_file), "--coloring-out", str(colpath)]) == 0
    capsys.readouterr()
    for instances in ([str(c5_file), str(tmp_path / "nonexistent.txt")], [str(c5_file)] * 2, []):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *instances, "--coloring", str(colpath)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_color_refuses_coloring_out_for_several_instances(c5_file, tmp_path, capsys):
    other = tmp_path / "c4.txt"
    other.write_text(format_graph(cycle(4)))
    colpath = tmp_path / "c.coloring"
    rc = main(["color", str(c5_file), str(other), "--coloring-out", str(colpath)])
    assert rc == 2
    assert not colpath.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "--coloring-out takes one instance, got 2" in captured.err


@pytest.mark.parametrize("kappa", [0, -2])
def test_verify_names_a_palette_below_one_as_a_coloring_error(tmp_path, capsys, kappa):
    # the palette check of the coloring's header carries the prefix of
    # every other coloring parse error
    graph, col = tmp_path / "c4.txt", tmp_path / "k.col"
    graph.write_text(format_graph(cycle(4)))
    col.write_text(f"kappa {kappa}\n")
    assert main(["verify", str(graph), "--coloring", str(col)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: coloring: palette size must be >= 1, got {kappa}\n"
    assert captured.out == ""


def test_verify_takes_palette_zero_on_an_edgeless_graph(tmp_path, capsys):
    graph, col = tmp_path / "empty.txt", tmp_path / "k0.col"
    graph.write_text(format_graph(Graph(3, [])))
    col.write_text("kappa 0\n")
    assert main(["verify", str(graph), "--coloring", str(col)]) == 0
    assert "acyclic=True" in capsys.readouterr().out


def test_verify_detects_tampering(c5_file, tmp_path, capsys):
    g = cycle(5)
    # alternating 2-coloring of an even subcycle is improper on C5; build
    # a bichromatic cycle on C4 instead for a clean failure
    path = tmp_path / "c4.txt"
    path.write_text(format_graph(cycle(4)))
    bad = tmp_path / "bad.coloring"
    bad.write_text("kappa 3\n0 1 1\n1 2 2\n2 3 1\n0 3 2\n")
    rc = main(["verify", str(path), "--coloring", str(bad)])
    assert rc == 1
    assert "cycle=" in capsys.readouterr().out


def test_discharge_reports_conservation(drawing_file, capsys):
    rc = main(["discharge", str(drawing_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total=-8/1" in out
    assert "conserved=yes" in out


def test_discharge_blames_pendant_vertex(tmp_path, capsys):
    path = tmp_path / "pendant.txt"
    path.write_text(format_drawing(pendant_cycle_fixture()))
    assert main(["discharge", str(path)]) == 0
    assert "elem=v:4 charge=-3/1 violated=min-degree-2connected" in capsys.readouterr().out


def test_discharge_requires_drawing(c5_file, capsys):
    rc = main(["discharge", str(c5_file)])
    assert rc == 2
    assert "requires a drawing" in capsys.readouterr().err


def test_discharge_refuses_a_drawing_without_edges(tmp_path, capsys):
    # one vertex has no face walk to carry the -4 of its face, so its total
    # would be -4; the audit still finds its witness
    path = tmp_path / "one.txt"
    path.write_text("1 0\nrot 0:\n")
    assert main(["discharge", str(path)]) == 2
    captured = capsys.readouterr()
    assert "with at least two edges" in captured.err and captured.out == ""
    assert main(["audit", str(path)]) == 0
    assert "witness_detail=vertex 0 has degree 0 < 2" in capsys.readouterr().out


def test_discharge_json(drawing_file, capsys):
    rc = main(["discharge", str(drawing_file), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == "-8/1"
    assert doc["negative_elements"]


def test_audit_finds_witness(drawing_file, capsys):
    rc = main(["audit", str(drawing_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "reducible=" in out
    assert "witness_vertices=" in out


@pytest.mark.parametrize("slack", [2, 16])
def test_audit_witness_is_the_one_find_reducible_configuration_picks(tmp_path, capsys, slack):
    # the audit takes the first entry of the first failing condition from
    # the lists it reports, instead of searching a second time
    for name, d in generate_corpus(CorpusSpec(count=210, seed=1000)):
        path = tmp_path / f"{name}.txt"
        path.write_text(format_drawing(d))
        kappa = d.base.delta + slack
        rc = main(["audit", str(path), "--kappa", str(kappa), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        w = find_reducible_configuration(d.base, planarize(d), kappa)
        assert rc == 0 and w is not None
        got = (doc["reducible"], doc["witness_vertices"], doc["witness_detail"])
        assert got == (w.condition.value, str(list(w.vertices)), w.detail), name


def test_audit_refuses_a_triangle(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text(format_drawing(cycle_builder(3).to_drawing()))
    assert main(["audit", str(path)]) == 2
    captured = capsys.readouterr()
    assert "outside the scope" in captured.err and captured.out == ""


def test_audit_requires_drawing(c5_file):
    assert main(["audit", str(c5_file)]) == 2


@pytest.mark.parametrize(
    "kappa,command",
    [
        ("0", "audit"),
        ("0", "discharge"),
        ("1", "audit"),
        ("1", "discharge"),
        ("4", "discharge"),
        ("19", "discharge"),
    ],
)
def test_palette_below_max_degree_is_refused(drawing_file, capsys, command, kappa):
    # the crossed 3x4 grid has max degree 4; `color` refuses such a palette
    # too, and `discharge` refuses one below its floor, max degree + 16
    rc = main([command, str(drawing_file), "--kappa", kappa])
    assert rc == 2
    captured = capsys.readouterr()
    assert "below max degree" in captured.err
    if command == "discharge":
        assert "max degree + 16 = 20" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["audit"])
def test_palette_at_max_degree_is_accepted(drawing_file, command):
    assert main([command, str(drawing_file), "--kappa", "4"]) in (0, 1)
    # `discharge` accepts its floor, max degree + 16
    assert main(["discharge", str(drawing_file), "--kappa", "20"]) == 0


def test_missing_file_is_input_error(tmp_path):
    assert main(["color", str(tmp_path / "nope.txt")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--count", "1", "--out", "{file}"],  # --out names a file
        ["audit", "{d}", "{d}", "--out", "{file}"],  # batch --out names a file
        ["audit", "{d}", "--out", "{file}/x.txt"],  # a file as a directory
    ],
)
def test_unwritable_out_path_is_input_error(tmp_path, drawing_file, capsys, argv):
    existing = tmp_path / "taken.txt"
    existing.write_text("")
    argv = [a.format(file=existing, d=drawing_file) for a in argv]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_file_is_input_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a graph\n")
    assert main(["color", str(path)]) == 2


def test_negative_edge_count_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "negative.txt"
    path.write_text("3 -1\n")
    assert main(["color", str(path)]) == 2
    assert "graph: negative edge count in header '3 -1'" in capsys.readouterr().err


def test_vertex_count_beyond_the_kernel_is_an_input_error(tmp_path, capsys, monkeypatch, backend):
    # both kernels refuse 2**31 vertices before they allocate a row for each
    monkeypatch.setattr(kernel, "index_edges", backend.index_edges)
    path = tmp_path / "big.txt"
    path.write_text("2147483648 0\n")
    assert main(["color", str(path)]) == 2
    assert capsys.readouterr().err == "error: input too large to hold in memory\n"


def test_drawing_header_beyond_its_rotation_lines_is_an_input_error(tmp_path, capsys):
    # a drawing needs a rotation line per vertex, so 2**31 - 2 vertices with
    # one line are refused before a row is allocated for each; a graph text
    # needs no line for an isolated vertex, so its header stays open
    path = tmp_path / "big.txt"
    path.write_text("2147483646 0\nrot 0: \n")
    assert main(["color", str(path)]) == 2
    assert "2147483646 + 0 planarized vertices need as many rotation lines, found 1" in capsys.readouterr().err
    path.write_text("100000 0\n")
    assert main(["color", str(path)]) == 0


CLI = ("-m", "acecolor.cli")


def _python_run(cwd, pure, *args):
    """Exit code, stdout without its time_ms lines, and stderr of
    ``python *args`` in a subprocess on one kernel."""
    env = {k: v for k, v in os.environ.items() if k != "ACECOLOR_PURE"}
    env["PYTHONPATH"] = str(cwd.parent / "pkg")
    if pure:
        env["ACECOLOR_PURE"] = "1"
    run = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    return run.returncode, re.sub(r"(?m)^time_ms=.*\n", "", run.stdout), run.stderr


def test_the_cli_answers_the_same_on_both_kernels(tmp_path, c_kernel):
    # each command end to end, in a copy of the package that holds the C
    # kernel, once with it and once with ACECOLOR_PURE=1
    pkg = tmp_path / "pkg" / "acecolor"
    shutil.copytree(Path(cli.__file__).parent, pkg, ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    shutil.copy(c_kernel.__file__, pkg)
    sides = {}
    for pure in (False, True):
        cwd = tmp_path / ("python" if pure else "c")
        cwd.mkdir()
        (cwd / "bad.txt").write_text("3 1\n0 5\n")
        (cwd / "c4.txt").write_text(format_graph(cycle(4)))
        # degenerate rotations: one vertex without a dart, one edge whose two
        # darts make one face
        (cwd / "one.txt").write_text("1 0\nrot 0:\n")
        (cwd / "edge.txt").write_text("2 1\n0 1\nrot 0: 1\nrot 1: 0\n")
        runs = [
            _python_run(cwd, pure, "-c", "from acecolor import kernel; print(kernel.BACKEND)"),
            _python_run(cwd, pure, *CLI, "gen", "--count", "6", "--nmin", "8", "--nmax", "14",
                        "--seed", "3", "--out", "corpus"),
        ]
        files = sorted(str(f.relative_to(cwd)) for f in (cwd / "corpus").glob("*.txt"))
        small = [f for f in files if exact_size_ok(parse_drawing((cwd / f).read_text()).base)]
        assert len(files) == 6 and small
        runs += [_python_run(cwd, pure, *CLI, cmd, *files) for cmd in ("color", "audit", "discharge")]
        runs += [_python_run(cwd, pure, *CLI, "exact", *small), _python_run(cwd, pure, *CLI, "color", "bad.txt")]
        runs += [_python_run(cwd, pure, *CLI, cmd, f) for cmd in ("audit", "discharge") for f in ("one.txt", "edge.txt")]
        # a palette far above m acts as m on both kernels
        runs.append(_python_run(cwd, pure, *CLI, "color", "--kappa", str(2**62), "c4.txt"))
        sides[pure] = runs, [(cwd / f).read_bytes() for f in files]
    (c_runs, c_files), (py_runs, py_files) = sides[False], sides[True]
    assert [r[1] for r in (c_runs[0], py_runs[0])] == ["c\n", "python\n"]
    assert c_runs[1:] == py_runs[1:] and c_files == py_files
    assert [r[0] for r in c_runs] == [0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 2, 0]


def test_report_written_to_out_dir(c5_file, tmp_path):
    outdir = tmp_path / "reports"
    outdir.mkdir()
    rc = main(["color", str(c5_file), "--out", str(outdir)])
    assert rc == 0
    assert (outdir / "c5.color.txt").exists()


def test_batch_out_creates_directory(tmp_path, drawing_file, c5_file):
    # multiple instances: --out is a directory even if it does not exist yet
    outdir = tmp_path / "fresh"
    rc = main(["color", str(c5_file), str(drawing_file), "--out", str(outdir)])
    assert rc == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "c5.color.txt",
        "crossed.color.txt",
    ]
    # batch discharge goes through the same path
    rc = main(["discharge", str(drawing_file), "--out", str(outdir) + "/"])
    assert rc == 0
    assert (outdir / "crossed.discharge.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "g.txt", "--seed", "1"],
        ["verify", "g.txt", "--coloring", "c.txt", "--seed", "1"],
        ["discharge", "d.txt", "--seed", "1"],
        ["audit", "d.txt", "--seed", "1"],
        ["verify", "g.txt", "--coloring", "c.txt", "--kappa", "5"],
        ["gen", "--kappa", "5"],
        ["gen", "--format", "json"],
        ["color", "g.txt", "--budget", "5"],
    ],
)
def test_options_a_subcommand_would_ignore_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# sha256 of the stdout of audit and discharge, in each format, over the
# drawings of `gen --count 12 --seed 3`: the reports of the audit command (its
# witness_detail included) and the CLI's JSON path, which the library
# goldens do not cover
REPORT_GOLDEN = {
    ("audit", "json"):
        "aa35131c3591faa1cf6c40b8eca64bac75abd97e42863cf0830288a688b63d04",
    ("audit", "text"):
        "67a35991775fc142df2eb1b42b8bfddb8b365f1f4a0d1daf09c526e4ec4679bc",
    ("discharge", "json"):
        "ac4fc676fa13f9413a942eaf70a51e632ae7380081dc12c709c2481c2e8ef2c2",
    ("discharge", "text"):
        "8013769d6ac52467625d0be4c24dbfd3ddfdff8009fa2153dceaa8832b845ad0",
}


def test_audit_and_discharge_reports_golden(tmp_path, capsys):
    assert main(["gen", "--count", "12", "--seed", "3", "--out", str(tmp_path)]) == 0
    files = [str(p) for p in sorted(tmp_path.glob("*.txt"))]
    capsys.readouterr()
    assert len(files) == 12
    got = {}
    for command, fmt in REPORT_GOLDEN:
        assert main([command, "--format", fmt, *files]) == 0
        got[command, fmt] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == REPORT_GOLDEN


def test_audit_words_one_text_per_drawing(tmp_path, capsys, worded):
    # the conditions word no witness; the report words the one it shows
    files = []
    for name, d in generate_corpus(CorpusSpec(count=20, seed=1000)):
        path = tmp_path / f"{name}.txt"
        path.write_text(format_drawing(d))
        files.append(str(path))
    for fmt in ("text", "json"):
        worded.clear()
        assert main(["audit", "--format", fmt, *files]) == 0
        assert capsys.readouterr().out.count("witness_detail") == len(files)
        assert len(worded) == len(files)


def _cli_runs(capsys):
    """Each instance command's runs in the current directory: the argv,
    exit code, stdout and stderr of each, then the path and contents of
    every file its --out runs wrote, with the time_ms entries of `color`
    taken out. Single, batch and directory runs, in each format, with
    failing instances and a refusal part way through a batch."""
    assert main(["gen", "--count", "3", "--nmin", "8", "--nmax", "12", "--seed", "3", "--out", "d"]) == 0
    drawings = sorted(str(p) for p in Path("d").glob("*.txt"))
    graphs = {"c4.txt": cycle(4), "c5.txt": cycle(5), "k14.txt": star(4), "grid44.txt": grid(4, 4)}
    for name, g in graphs.items():
        Path(name).write_text(format_graph(g))
    Path("k3.txt").write_text("3 3\n0 1\n1 2\n0 2\n")
    Path("e3.txt").write_text("3 0\n")
    Path("bad.col").write_text("kappa 3\n0 1 1\n1 2 2\n2 3 1\n0 3 2\n")
    assert main(["color", "c5.txt", "--coloring-out", "c5.col"]) == 0
    capsys.readouterr()
    batches = {
        "color": [*drawings, "c4.txt", "k3.txt", "e3.txt"],
        "exact": ["c5.txt", "k14.txt", "e3.txt", "grid44.txt", "c4.txt"],
        "discharge": drawings,
        "audit": drawings,
    }
    runs = {}
    for cmd, batch in batches.items():
        argvs = []
        for fmt in ("text", "json"):
            out = ("--format", fmt, "--out")
            argvs += [
                [cmd, batch[0], "--format", fmt],
                [cmd, batch[0], *out, f"{cmd}-{fmt}.txt"],
                [cmd, batch[0], *out, f"{cmd}-{fmt}-dir/"],
                [cmd, *batch, "--format", fmt],
                [cmd, *batch, *out, f"{cmd}-{fmt}-batch"],
            ]
        runs[cmd] = argvs
    runs["verify"] = [
        ["verify", graph, "--coloring", col, "--format", fmt, *out]
        for graph, col in (("c5.txt", "c5.col"), ("c4.txt", "bad.col"))
        for fmt in ("text", "json")
        for out in ((), ("--out", f"verify-{fmt}-{col}.txt"), ("--out", f"verify-{fmt}-dir/"))
    ]
    # a palette with no coloring, and a bare graph where a drawing is needed
    runs["color"].append(["color", "c4.txt", "--kappa", "2"])
    runs["exact"].append(["exact", "c5.txt", "--kappa", "2"])
    runs["discharge"].append(["discharge", "c5.txt"])
    runs["audit"].append(["audit", "c5.txt"])
    untimed = re.compile(r'(?m)^(time_ms=.*|  "time_ms": .*)\n')
    for cmd, argvs in runs.items():
        lines = []
        for argv in argvs:
            rc = main(argv)
            captured = capsys.readouterr()
            lines.append(repr((argv, rc, untimed.sub("", captured.out), captured.err)))
        for path in sorted(Path(".").rglob("*")):
            if path.is_file() and path.parts[0].startswith(f"{cmd}-"):
                lines.append(repr((str(path), untimed.sub("", path.read_text()))))
        yield cmd, "\n".join(lines)


# sha256 of each instance command's runs in _cli_runs: their exit codes,
# stdout and stderr, and every report file they wrote
CLI_GOLDEN = {
    "color": "df87c42b721421ccd9b5555b58874b6ae4cedf93d5ed1f49f3a612684faa6d1b",
    "exact": "a1429f3cbefa59bb2da29f9f6462e6da2fb19947e7a70f75e0385158ae2c85dd",
    "discharge": "e39c9129b1fabef06673d296601c95933f32661bc34e25d0fb82b74329a81be9",
    "audit": "c1914cde8b7885b3af86b2c1da8ed5431161ef456ca33fa696ff72c0154a515f",
    "verify": "0871e3f760bf3a17a085c27ba2e52ec8265a29299a2e02cf442606cd1cdd64fd",
}


def test_cli_runs_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = {cmd: hashlib.sha256(text.encode()).hexdigest() for cmd, text in _cli_runs(capsys)}
    assert got == CLI_GOLDEN
