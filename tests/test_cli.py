import json
import shlex
import tracemalloc
from pathlib import Path

import pytest

from kheights import __version__, chains, cli, coupling, graphs, tables
from kheights.cli import _ramp, main, parse_case, parse_graph
from kheights.enumeration import ENUMERATION_CAP
from kheights.graphs import CaseTag, make_toroidal_rect


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
    # the row carries the block's own id, as at every other k
    assert main(["tables", "--id", "rect", "--k", "0"]) == 0
    assert "0,rect4x4,1,1,0.000000" in capsys.readouterr().out


def test_tables_type1_k0_one_row_per_case(capsys):
    assert main(["tables", "--id", "type1", "--k", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows == [f"0,{CaseTag('type1', labels, d)},1,1,0.000000"
                    for d, labels in tables.type1_cases()]


def test_divergence_case_k0_is_zero_without_witness(capsys):
    # hex is the case 1_6[1]: both entry points agree at k=0
    for argv in (["--case", "1_6[1]"], ["--family", "hex"]):
        assert main(["divergence", *argv, "--k", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["e_max_exact"], doc["omega_block"],
                doc["omega_boundary"]) == ("0", 1, 1)
        assert "witness" not in doc


def test_tables_single_case(capsys):
    assert main(["tables", "--id", "type1", "--k", "3",
                 "--case", "1_3[1,2,3]"]) == 0
    assert "3.000000" in capsys.readouterr().out


def test_tables_case_table_mismatch():
    assert main(["tables", "--id", "type2", "--k", "2",
                 "--case", "1_3[1]"]) == 3


def test_tables_cap_exit():
    assert main(["tables", "--id", "hex", "--k", "99"]) == 4
    # hex k=20 carries a 21^6-entry frontier per first value, past
    # ENUMERATION_CAP even as one tensor
    assert main(["tables", "--id", "hex", "--k", "20"]) == 4
    # the rect slices at k=7 have 176^3 entries, charged
    # FRONTIER_LIVE_TENSORS["rect"] times by _check_frontier: refused
    # before any row is listed
    assert main(["tables", "--id", "rect", "--k", "7"]) == 4


def test_rect_live_tensor_charge(capsys):
    # rect_max peaks at ~8.2 tensors of t^3 entries and is charged 16:
    # k=6 (t=149) runs and k=7 (t=176) is the first refused k
    live = tables.FRONTIER_LIVE_TENSORS["rect"]
    assert live * 149 ** 3 <= ENUMERATION_CAP < live * 176 ** 3
    assert main(["divergence", "--family", "rect", "--k", "7"]) == 4
    assert f"{live} frontier tensors of {176 ** 3} entries" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["tables", "--id", "rect"],
                                  ["bound", "--family", "rect"],
                                  ["divergence", "--family", "rect"]])
def test_rect_cap_exit_before_listing_rows(argv):
    # k=3,000,000 has 8.1e7 valid 4-rows; their slices are refused from
    # the closed-form row count before one row is listed
    tracemalloc.start()
    try:
        code = main(argv + ["--k", "3000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 2 ** 20


def test_tables_work_cap_exit_before_allocating():
    # 1_3[1,2] at k=2000 passes the entry cap and the 2^53 bound, but its
    # 2001 passes would take ~9.6e13 multiply-adds; it is refused before
    # the 2001 x 2001 step matrix (32 MB) is built
    tracemalloc.start()
    try:
        code = main(["tables", "--id", "type1", "--k", "2000",
                     "--case", "1_3[1,2]"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 16 * 2 ** 20


def test_tables_live_tensor_cap_exit_before_allocating():
    # hex k=14 is the first k whose 15^6-entry frontier, charged
    # FRONTIER_LIVE_TENSORS times (its traced peak is ~5 such tensors),
    # passes ENUMERATION_CAP; it is refused before anything is built
    live = tables.FRONTIER_LIVE_TENSORS["type1"]
    assert live * 14 ** 6 <= ENUMERATION_CAP < live * 15 ** 6
    tracemalloc.start()
    try:
        code = main(["tables", "--id", "hex", "--k", "14"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 2 ** 20


def test_tables_type2_live_tensor_cap_exit_before_allocating(capsys):
    # type-2 cases peak at ~3 tensors of their largest size and are
    # charged 4: the table's largest, 2[1], has 5^10 entries at k=4 (it
    # runs, ~270 MB) and 6^10 at k=5, the first refused k; it is refused
    # before anything is built
    live = tables.FRONTIER_LIVE_TENSORS["type2"]
    assert live * 5 ** 10 <= ENUMERATION_CAP < live * 6 ** 10
    tracemalloc.start()
    try:
        code = main(["tables", "--id", "type2", "--k", "5"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 2 ** 20
    assert f"{live} frontier tensors of {6 ** 10} entries" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("spec", ["complete:724", "rect:296x296",
                                  "hex:229x229", "path:131073",
                                  "cycle:131073"])
def test_graph_spec_cap_exit_before_building(spec):
    # the first refused size of each spec: n + edges passes
    # GRAPH_MAX_SIZE = 2^18 (complete:723 has 261,726, rect:295x296
    # 261,960 and hex:229x228 261,060, path:131072 and cycle:131072
    # 262,143 and 262,144); the refused graph is never built
    tracemalloc.start()
    try:
        code = main(["run", "--chain", "updown", "--graph", spec, "--k", "1",
                     "--steps", "1", "--seed", "0"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 2 ** 20


def test_graph_json_cap_exit_before_building(tmp_path):
    n = graphs.GRAPH_MAX_SIZE - 2
    ok, big = tmp_path / "ok.json", tmp_path / "big.json"
    ok.write_text(json.dumps({"n": n, "edges": [[0, 1], [1, 2]]}))
    big.write_text(json.dumps({"n": n + 1, "edges": [[0, 1], [1, 2]]}))
    assert parse_graph(str(ok)).n == n
    tracemalloc.start()
    try:
        code = main(["run", "--chain", "updown", "--graph", str(big),
                     "--k", "1", "--steps", "1", "--seed", "0"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 2 ** 20


def test_graph_cap_sizes_around_the_first_refused_spec():
    cap = graphs.GRAPH_MAX_SIZE
    assert 723 + 723 * 722 // 2 <= cap < 724 + 724 * 723 // 2
    assert 3 * 295 * 296 <= cap < 3 * 296 * 296
    assert 5 * 229 * 228 <= cap < 5 * 229 * 229
    assert parse_graph("rect:128x128").n == 16384


def test_block_coupling_refused_from_counts_before_listing(monkeypatch):
    # the 4x4 blocks of rect:8x8 at k=2 have ~75k fillings a link: the
    # ranker counts refuse the joint before any filling list is built
    def listed(*args, **kwargs):
        raise AssertionError("fillings listed")

    monkeypatch.setattr(chains, "enumerate_fillings", listed)
    assert main(["couple-time", "--chain", "block", "--graph", "rect:8x8",
                 "--k", "2", "--trials", "1"]) == 4


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
    # c = 8bmk(k+1)^b / denominator is 0 at k=0
    ["bound", "--family", "rect", "--k", "0"],
    ["bound", "--family", "hex", "--k", "0"],
])
def test_out_of_range_count_flag_exits_3(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["tables", "--id", "hex", "--k", "-1"],
    ["divergence", "--case", "1_6[1]", "--k", "-1"],
    ["divergence", "--family", "rect", "--k", "-1"],
    ["bound", "--family", "hex", "--k", "-1"],
    ["run", "--chain", "updown", "--graph", "path:3", "--k", "-1",
     "--steps", "1", "--seed", "0"],
    ["couple-time", "--graph", "path:3", "--k", "-1", "--trials", "1"],
])
def test_negative_k_exits_3(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3


def test_sample_negative_k_exits_3_before_drawing():
    # CFTP at k = -1 never coalesces: it drew epochs up to CFTP_MAX_SLOTS
    # and then exited 4
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--graph", "rect:4x4", "--k", "-1", "--n", "1",
                  "--seed", "0"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.code == 3
    assert peak < 2 ** 20
    assert main(["sample", "--graph", "rect:4x4", "--k", "0", "--n", "1",
                 "--seed", "0"]) == 0


@pytest.mark.parametrize("argv", [
    ["divergence", "--k", "2"],
    ["divergence", "--case", "1_6[1]", "--family", "hex", "--k", "2"],
])
def test_divergence_needs_exactly_one_of_case_and_family(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "--case" in capsys.readouterr().err


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


# each family at the k of its published constants (rect, hex, regular3
# and dual4 at k=2, 3; regular2 at k=2), with and without the flags that
# give beta and tau: the whole document as recorded, provenance left out
BOUND_DOCUMENTS = json.loads(
    (Path(__file__).parent / "bound_documents.json").read_text())


@pytest.mark.parametrize("argv", list(BOUND_DOCUMENTS))
def test_bound_document_is_unchanged(argv, capsys):
    assert main(argv.split()) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["provenance"]
    assert json.dumps(doc, indent=2) == json.dumps(BOUND_DOCUMENTS[argv],
                                                   indent=2)


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


def test_run_streams_its_lines(tmp_path):
    # each snapshot is written as it is made, so the traced peak of a
    # run does not grow with its step count
    peaks = []
    for steps in (400, 3200):
        out = tmp_path / f"{steps}.jsonl"
        tracemalloc.start()
        try:
            code = main(["run", "--chain", "updown", "--graph", "rect:8x8",
                         "--k", "3", "--steps", str(steps), "--seed", "0",
                         "--emit-every", "1", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(out.read_text().splitlines()) == steps + 1
        peaks.append(peak)
    assert peaks[1] < peaks[0] + 2 ** 16


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


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "1"],
    ["run", "--chain", "updown", "--steps", "5"],
    ["run", "--chain", "block", "--steps", "5"],
    ["couple-time", "--chain", "updown", "--trials", "1"],
    ["couple-time", "--chain", "block", "--trials", "1"],
], ids=["sample", "run-updown", "run-block", "couple-time-updown",
        "couple-time-block"])
@pytest.mark.parametrize("source", ["path", "complete", "json"])
def test_graph_without_vertices_exits_3(tmp_path, capsys, argv, source):
    spec = f"{source}:0"
    if source == "json":
        spec = str(tmp_path / "g.json")
        Path(spec).write_text(json.dumps({"n": 0, "edges": []}))
    assert main(argv + ["--graph", spec, "--k", "2", "--seed", "0"]) == 3
    err = capsys.readouterr().err
    assert "a graph needs at least one vertex" in err
    assert "high <" not in err


def test_heatmap_of_a_graph_without_vertices_exits_3(tmp_path, capsys):
    f = tmp_path / "height.json"
    f.write_text(json.dumps({"graph": {"n": 0, "edges": []}, "k": 2,
                             "values": []}))
    assert main(["heatmap", "--height", str(f),
                 "--out", str(tmp_path / "x.svg")]) == 3
    assert "a graph needs at least one vertex" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


_RECT3 = make_toroidal_rect(3, 3).to_json_dict()


@pytest.mark.parametrize("graph", [
    {"n": 64, "edges": [], "kind": "rect"},  # a grid without dims
    {"n": 64, "edges": [], "kind": "rect", "dims": [8, 8]},  # no edges
    {"n": 4, "edges": [], "kind": "rect", "dims": [1, 10 ** 9]},
    {"n": 4, "edges": [], "dims": [1, 10 ** 9]},  # dims without a grid
    {**make_toroidal_rect(8, 8).to_json_dict(), "kind": "hex"},
])
@pytest.mark.parametrize("argv", [
    ["run", "--chain", "block", "--k", "2", "--steps", "5", "--seed", "0"],
    ["couple-time", "--chain", "block", "--k", "2", "--trials", "1"],
    ["heatmap"],
], ids=["run", "couple-time", "heatmap"])
def test_graph_kind_and_dims_checked_against_edges(tmp_path, capsys, argv,
                                                   graph):
    f = tmp_path / "in.json"
    if argv == ["heatmap"]:
        f.write_text(json.dumps({"graph": graph, "k": 1,
                                 "values": [0] * graph["n"]}))
        argv = ["heatmap", "--height", str(f),
                "--out", str(tmp_path / "x.ppm")]
    else:
        f.write_text(json.dumps(graph))
        argv = argv + ["--graph", str(f)]
    assert main(argv) == 3
    assert "Traceback" not in capsys.readouterr().err


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
