import json

import pytest

from acecolor.cli import main
from acecolor.coloring import parse_coloring
from acecolor.conditions import find_reducible_configuration
from acecolor.embedding import format_drawing
from acecolor.generate import CorpusSpec, cycle_builder, generate_corpus, grid_builder
from acecolor.graph import format_graph

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


def test_verify_roundtrip(c5_file, tmp_path, capsys):
    colpath = tmp_path / "c5.coloring"
    assert main(["color", str(c5_file), "--coloring-out", str(colpath)]) == 0
    capsys.readouterr()
    rc = main(["verify", str(c5_file), "--coloring", str(colpath)])
    assert rc == 0
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
        w = find_reducible_configuration(d.base, d, kappa)
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


@pytest.mark.parametrize("command", ["discharge", "audit"])
@pytest.mark.parametrize("kappa", ["0", "1"])
def test_palette_below_max_degree_is_refused(drawing_file, capsys, command, kappa):
    # the crossed 3x4 grid has max degree 4; `color` refuses such a palette too
    rc = main([command, str(drawing_file), "--kappa", kappa])
    assert rc == 2
    captured = capsys.readouterr()
    assert "below max degree" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["discharge", "audit"])
def test_palette_at_max_degree_is_accepted(drawing_file, command):
    assert main([command, str(drawing_file), "--kappa", "4"]) in (0, 1)


def test_missing_file_is_input_error(tmp_path):
    assert main(["color", str(tmp_path / "nope.txt")]) == 2


def test_malformed_file_is_input_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a graph\n")
    assert main(["color", str(path)]) == 2


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
