import json
import shlex
import tracemalloc
from pathlib import Path

import pytest

from kheights import __version__, cli, coupling
from kheights.cli import _ramp, main, parse_case, parse_graph
from kheights.graphs import make_toroidal_rect


def test_parse_graph_specs(tmp_path):
    assert parse_graph("rect:3x4").n == 12
    assert parse_graph("hex:3x3").n == 18
    assert parse_graph("complete:5").n == 5
    assert parse_graph("path:4").n == 4
    assert parse_graph("cycle:5").n == 5
    g = make_toroidal_rect(3, 3)
    f = tmp_path / "g.json"
    f.write_text(json.dumps(g.to_json_dict()))
    assert parse_graph(str(f)).edges == g.edges


def test_parse_case_names():
    t = parse_case("1_10[1,3,7]")
    assert (t.kind, t.d, t.neighbor_labels) == ("type1", 10, (1, 3, 7))
    t2 = parse_case("2[1,8]")
    assert (t2.kind, t2.neighbor_labels) == ("type2", (1, 8))
    with pytest.raises(ValueError):
        parse_case("3[1]")


def test_tables_hex_golden(capsys):
    assert main(["tables", "--id", "hex", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "2,hex,199,729,0.798658" in out


def test_tables_rect_k0(capsys):
    assert main(["tables", "--id", "rect", "--k", "0"]) == 0
    assert "0,rect,1,1,0.000000" in capsys.readouterr().out


def test_tables_single_case(capsys):
    assert main(["tables", "--id", "type1", "--k", "3",
                 "--case", "1_3[1,2,3]"]) == 0
    assert "3.000000" in capsys.readouterr().out


def test_tables_case_table_mismatch():
    assert main(["tables", "--id", "type2", "--k", "2",
                 "--case", "1_3[1]"]) == 3


def test_tables_cap_exit():
    assert main(["tables", "--id", "hex", "--k", "99"]) == 4
    # hex k=20 carries a 21^6-entry frontier per first value, just past
    # ENUMERATION_CAP
    assert main(["tables", "--id", "hex", "--k", "20"]) == 4
    # one rect slice at k=7 has 176^3 entries, past RECT_SLICE_CAP:
    # refused before any slice is computed
    assert main(["tables", "--id", "rect", "--k", "7"]) == 4


def test_tables_work_cap_exit_before_allocating():
    # 1_3[1,2] at k=7401 passes the entry cap and the 2^53 bound, but its
    # 7402 passes would take ~1.8e16 multiply-adds; it is refused before
    # the 7402 x 7402 step matrix (~440 MB a temporary) is built
    tracemalloc.start()
    try:
        code = main(["tables", "--id", "type1", "--k", "7401",
                     "--case", "1_3[1,2]"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 16 * 2 ** 20


def test_sample_slot_cap_exits_4(monkeypatch):
    # the bottom and top states of rect:4x4 at k=2 lie n*k = 32 apart in
    # L1 and a time slot narrows that by at most 2: 8 slots cannot coalesce
    monkeypatch.setattr(coupling, "CFTP_MAX_SLOTS", 8)
    assert main(["sample", "--graph", "rect:4x4", "--k", "2", "--n", "1",
                 "--seed", "0"]) == 4


def test_couple_time_step_cap_exits_4(monkeypatch):
    # likewise no coupled step narrows the gap by more than 2
    monkeypatch.setattr(coupling, "COALESCENCE_MAX_STEPS", 8)
    assert main(["couple-time", "--graph", "rect:4x4", "--k", "2",
                 "--trials", "1", "--seed", "0"]) == 4


def test_bad_flag_exits_3():
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--id", "bogus", "--k", "2"])
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["couple-time", "--graph", "path:3", "--k", "2", "--trials", "0"],
    ["run", "--chain", "updown", "--graph", "path:3", "--k", "2",
     "--steps", "-1", "--seed", "0"],
    ["run", "--chain", "updown", "--graph", "path:3", "--k", "2",
     "--steps", "5", "--seed", "0", "--emit-every", "-5"],
    ["sample", "--graph", "path:3", "--k", "1", "--n", "-3", "--seed", "0"],
    ["heatmap", "--height", "height.json", "--out", "x.ppm",
     "--scale", "0"],
    ["bound", "--family", "hex", "--k", "2", "--n", "32", "--eps", "0"],
    ["bound", "--family", "hex", "--k", "2", "--n", "32", "--eps", "0.5"],
    ["bound", "--family", "hex", "--k", "2", "--n", "32", "--eps", "nan"],
    ["bound", "--family", "hex", "--k", "2", "--n", "0", "--eps", "0.1"],
    ["bound", "--family", "rect", "--k", "2", "--n", "0"],
])
def test_out_of_range_count_flag_exits_3(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3


def test_divergence_json_round_trip(capsys):
    assert main(["divergence", "--case", "1_6[1]", "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega_block"] == 199
    assert doc["e_max_exact"] == "119/149"
    assert doc["e_max"] == 0.798658
    assert doc["provenance"]["version"]


def test_bound_report(capsys):
    assert main(["bound", "--family", "hex", "--k", "2",
                 "--n", "32", "--eps", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"] is True
    assert doc["beta"] is not None and doc["beta"] < 1
    assert doc["tau"] > 0
    assert doc["published"]["c"] == 1.165099e5


def test_bound_benchmark_flags_give_tau_and_beta(capsys):
    assert main(["bound", "--family", "hex", "--k", "2",
                 "--n", "1024", "--eps", "0.125"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau"] > 0 and 0 < doc["beta"] < 1


def test_main_calls_in_a_row_share_one_parser(capsys, monkeypatch):
    """main() builds its parser once per process; each call still acts
    as on a fresh one, and runs the cmd_* function bound at call time."""
    assert main(["tables", "--id", "hex", "--k", "2"]) == 0
    assert "2,hex,199,729,0.798658" in capsys.readouterr().out
    argv = ["couple-time", "--graph", "path:3", "--k", "1", "--trials", "2"]
    assert main(argv + ["--seed", "5"]) == 0
    seeded = capsys.readouterr().out.splitlines()[2:]
    assert main(argv) == 0  # --seed falls back to its default, 0
    unseeded = capsys.readouterr().out.splitlines()[2:]
    assert main(argv + ["--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == unseeded != seeded
    with pytest.raises(SystemExit) as exc:
        main(["run", "--chain", "sideways", "--graph", "path:3", "--k", "1",
              "--steps", "1", "--seed", "0"])
    assert exc.value.code == 3
    assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == __version__ + "\n"
    monkeypatch.setattr(cli, "cmd_bound", lambda args: 7)
    assert main(["bound", "--family", "hex", "--k", "2"]) == 7
    assert cli.build_parser() is cli.build_parser()


def test_run_command_jsonl(tmp_path):
    out = tmp_path / "traj.jsonl"
    assert main(["run", "--chain", "updown", "--graph", "path:4", "--k", "2",
                 "--steps", "30", "--seed", "5", "--emit-every", "10",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["provenance"]["seed"] == 5
    assert "graph_hash" in header["provenance"]
    steps = [json.loads(ln) for ln in lines[1:]]
    assert [s["step"] for s in steps] == [10, 20, 30]


def test_run_reproducible(tmp_path):
    outs = []
    for name in ("a", "b"):
        f = tmp_path / name
        main(["run", "--chain", "block", "--graph", "hex:4x4", "--k", "2",
              "--steps", "20", "--seed", "3", "--out", str(f)])
        outs.append(f.read_text().splitlines()[1:])
    assert outs[0] == outs[1]


def test_sample_command(tmp_path):
    out = tmp_path / "samples.jsonl"
    assert main(["sample", "--graph", "cycle:4", "--k", "1", "--n", "4",
                 "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    for ln in lines[1:]:
        doc = json.loads(ln)
        assert all(v in (0, 1) for v in doc["values"])


def test_sample_height_out_feeds_heatmap(tmp_path):
    argv = ["sample", "--graph", "rect:4x4", "--k", "2", "--n", "2",
            "--seed", "13"]
    plain, with_height = tmp_path / "plain.jsonl", tmp_path / "s.jsonl"
    height = tmp_path / "height.json"
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--out", str(with_height),
                        "--height-out", str(height)]) == 0
    samples = with_height.read_text().splitlines()[1:]
    assert samples == plain.read_text().splitlines()[1:]
    doc = json.loads(height.read_text())
    assert doc["k"] == 2
    assert doc["values"] == json.loads(samples[0])["values"]
    out = tmp_path / "x.ppm"
    assert main(["heatmap", "--height", str(height), "--out", str(out),
                 "--scale", "3"]) == 0
    header = b"P6\n12 12\n255\n"
    data = out.read_bytes()
    assert data.startswith(header)
    assert len(data) == len(header) + 12 * 12 * 3
    assert main(["sample", "--graph", "rect:4x4", "--k", "2", "--n", "0",
                 "--seed", "13", "--height-out", str(height)]) == 3
    # hex:4x4 has two vertices per grid point: 8 columns, 4 rows, every
    # value drawn once in vertex order
    assert main(["sample", "--graph", "hex:4x4", "--k", "2", "--n", "1",
                 "--seed", "13", "--out", str(plain),
                 "--height-out", str(height)]) == 0
    assert main(["heatmap", "--height", str(height), "--out", str(out),
                 "--scale", "1"]) == 0
    header = b"P6\n8 4\n255\n"
    data = out.read_bytes()
    assert data.startswith(header)
    values = json.loads(height.read_text())["values"]
    assert len(values) == 32
    assert data[len(header):] == b"".join(bytes(_ramp(v, 2)) for v in values)


def test_couple_time_csv(tmp_path):
    out = tmp_path / "times.csv"
    assert main(["couple-time", "--graph", "path:3", "--k", "2",
                 "--trials", "5", "--seed", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "trial,steps"
    assert len([ln for ln in lines if ln and not ln.startswith("#")]) == 6


def _write_height(tmp_path, g, dims, k, values):
    f = tmp_path / "height.json"
    doc = {"graph": {**g.to_json_dict(), "dims": dims}, "k": k,
           "values": values}
    f.write_text(json.dumps(doc))
    return f


def test_heatmap_ppm_monochrome(tmp_path):
    g = make_toroidal_rect(3, 3)
    f = _write_height(tmp_path, g, [3, 3], 2, [0] * 9)
    out = tmp_path / "img.ppm"
    assert main(["heatmap", "--height", str(f), "--out", str(out),
                 "--scale", "2"]) == 0
    data = out.read_bytes()
    assert data.startswith(b"P6\n6 6\n255\n")
    pixels = data.split(b"255\n", 1)[1]
    assert pixels == bytes([0, 0, 255]) * 36  # all cells at ramp bottom


def test_heatmap_full_value_opposite_end(tmp_path):
    g = make_toroidal_rect(3, 3)
    f = _write_height(tmp_path, g, [3, 3], 2, [2] * 9)
    out = tmp_path / "img.ppm"
    main(["heatmap", "--height", str(f), "--out", str(out), "--scale", "1"])
    pixels = out.read_bytes().split(b"255\n", 1)[1]
    assert pixels == bytes([255, 0, 0]) * 9


def test_heatmap_byte_identical(tmp_path):
    g = make_toroidal_rect(3, 3)
    f = _write_height(tmp_path, g, [3, 3], 2, [0, 1, 1, 1, 2, 1, 1, 1, 1])
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    main(["heatmap", "--height", str(f), "--out", str(a)])
    main(["heatmap", "--height", str(f), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_heatmap_pixel_cap_exit_before_allocating(tmp_path):
    # a 4x4 grid at scale 1024 is 2^24 pixels, the cap; 1025 is refused
    # before its ~50 MB image is built
    g = make_toroidal_rect(4, 4)
    f = _write_height(tmp_path, g, [4, 4], 2, [0] * 16)
    out = tmp_path / "img.ppm"
    tracemalloc.start()
    try:
        code = main(["heatmap", "--height", str(f), "--out", str(out),
                     "--scale", "1025"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 2 ** 20
    assert not out.exists()


def test_heatmap_svg_fallback(tmp_path):
    g = parse_graph("cycle:5")
    f = _write_height(tmp_path, g, None, 1, [0, 1, 0, 1, 0])
    out = tmp_path / "img.svg"
    assert main(["heatmap", "--height", str(f), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg") and text.count("<circle") == 5


def test_missing_file_exits_3(tmp_path):
    assert main(["run", "--chain", "updown", "--graph",
                 str(tmp_path / "nope.json"), "--k", "1", "--steps", "1",
                 "--seed", "0"]) == 3


@pytest.mark.parametrize("graph", [
    {"n": 2, "edges": [["0", "1"]]},
    {"n": 3.5, "edges": []},
    [[0, 1]],
])
def test_malformed_graph_json_exits_3(tmp_path, graph):
    f = tmp_path / "g.json"
    f.write_text(json.dumps(graph))
    assert main(["run", "--chain", "updown", "--graph", str(f), "--k", "1",
                 "--steps", "1", "--seed", "0"]) == 3


_RECT3 = make_toroidal_rect(3, 3).to_json_dict()


@pytest.mark.parametrize("doc", [
    {"graph": _RECT3, "k": 2, "values": [0] * 4},  # shorter than the graph
    {"graph": _RECT3, "k": 2, "values": [2] + [0] * 8},  # not a k-height
    {"graph": _RECT3, "k": "2", "values": [0] * 9},
    {"graph": {**_RECT3, "dims": [3, 0]}, "k": 2, "values": [0] * 9},
    {"graph": {"n": 2, "edges": [["0", "1"]]}, "k": 1, "values": [0, 0]},
    [0] * 9,
])
def test_malformed_height_json_exits_3(tmp_path, doc):
    f = tmp_path / "height.json"
    f.write_text(json.dumps(doc))
    assert main(["heatmap", "--height", str(f),
                 "--out", str(tmp_path / "x.ppm")]) == 3


def test_readme_commands_exit_0(tmp_path, monkeypatch):
    """Every kheights line of README's "Command line" block runs, in
    order, in one fresh directory: heatmap reads what sample writes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("kheights ")]
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line


def test_verify_command(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert {c["id"] for c in doc["checks"]} >= {
        "lattice_laws", "trace_counts", "dominance_flow_identity"}
