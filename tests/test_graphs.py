import json

import pytest

from kheights.graphs import (
    Block,
    CaseTag,
    Graph,
    GraphError,
    boundary,
    case_slots,
    hex_block_family,
    make_case_graph,
    make_complete,
    make_toroidal_hex,
    make_toroidal_rect,
    rect_block_family,
    singleton_family,
)


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(2, frozenset({(0, 0)}))
    with pytest.raises(GraphError):
        Graph(2, frozenset({(1, 0)}))
    with pytest.raises(GraphError):
        Graph(2, frozenset({(0, 5)}))


def test_from_edges_accepts_a_generator():
    g = Graph.from_edges(3, ((i, i + 1) for i in range(2)))
    assert g.edges == {(0, 1), (1, 2)}
    with pytest.raises(GraphError, match="duplicate"):
        Graph.from_edges(3, (e for e in [(0, 1), (1, 0)]))


def test_toroidal_rect_regularity():
    g = make_toroidal_rect(5, 4)
    assert g.n == 20
    assert len(g.edges) == 40
    assert all(g.degree(v) == 4 for v in range(g.n))


def test_toroidal_hex_regularity():
    g = make_toroidal_hex(4, 3)
    assert g.n == 24
    assert all(g.degree(v) == 3 for v in range(g.n))
    # triangle duals are bipartite between lower and upper triangles
    assert all((u + v) % 2 == 1 for u, v in g.edges)


def test_complete_graph():
    g = make_complete(4)
    assert len(g.edges) == 6


def test_json_round_trip():
    g = make_toroidal_rect(3, 3)
    d = json.loads(json.dumps(g.to_json_dict()))
    g2 = Graph.from_json_dict(d)
    assert g2.n == g.n and g2.edges == g.edges
    assert g2.content_hash() == Graph.from_json_dict(d).content_hash()
    # kind and dims survive, so a loaded grid keeps its block family
    for g, family in [(make_toroidal_rect(8, 8), rect_block_family),
                      (make_toroidal_hex(4, 4), hex_block_family)]:
        g2 = Graph.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
        assert g2 == g
        assert family(g2) == family(g)
    # the hash covers n and the edges only, as it did before kind and
    # dims were written out, so recorded graph_hash values still match
    assert make_toroidal_rect(8, 8).content_hash() == "7aeac638d07dccc9"
    assert make_toroidal_hex(4, 4).content_hash() == "5aeda2a80720d2d9"


def test_content_hash_distinguishes():
    assert (make_toroidal_rect(3, 3).content_hash()
            != make_toroidal_rect(3, 4).content_hash())


def test_boundary_of_rect_block():
    g = make_toroidal_rect(8, 8)
    fam = rect_block_family(g)
    assert fam.total_count == 64
    b = fam.blocks[0]
    assert len(b.vertices) == 16
    assert len(boundary(g, b)) == 16


def _edge_scan_boundary(graph, block):
    inside = set(block.vertices)
    return {v if u in inside else u for u, v in graph.edges
            if (u in inside) != (v in inside)}


def test_boundary_matches_edge_scan():
    rect, hex4, hex8 = (make_toroidal_rect(8, 8), make_toroidal_hex(4, 4),
                        make_toroidal_hex(8, 8))
    cases = [(rect, rect_block_family(rect)), (hex4, hex_block_family(hex4)),
             (hex8, hex_block_family(hex8)), (hex4, singleton_family(hex4))]
    for g, fam in cases:
        for b in fam.blocks:
            assert boundary(g, b) == _edge_scan_boundary(g, b)


def test_rect_family_needs_room():
    with pytest.raises(GraphError):
        rect_block_family(make_toroidal_rect(7, 8))


def test_hex_family_blocks_are_6_cycles():
    g = make_toroidal_hex(4, 4)
    fam = hex_block_family(g)
    assert fam.total_count == 16
    for b in fam.blocks[:4]:
        vs = b.vertices
        assert len(vs) == 6
        for i in range(6):
            assert g.has_edge(vs[i], vs[(i + 1) % 6])
        assert len(boundary(g, b)) == 6


def test_singleton_family_covers(path3):
    fam = singleton_family(path3)
    fam.check_cover(path3)
    assert fam.total_count == 3


def test_block_rejects_duplicates():
    with pytest.raises(GraphError):
        Block(vertices=(1, 1))


def test_case_tag_validation():
    with pytest.raises(GraphError):
        CaseTag("type1", (1,), 11)
    with pytest.raises(GraphError):
        CaseTag("type2", (1,), 7)
    with pytest.raises(GraphError):
        CaseTag("type1", (1, 1), 6)
    assert str(CaseTag("type1", (3, 1), 6)) == "1_6[1,3]"
    assert str(CaseTag("type2", (8, 1))) == "2[1,8]"


def test_case_slots_counts():
    # type-1 d-cycle: one slot per vertex minus the pivot's labels
    assert len(case_slots(CaseTag("type1", (1,), 6))) == 5
    assert len(case_slots(CaseTag("type1", (1, 2, 3), 6))) == 3
    # type-2 8-path: endpoints carry two slots
    assert len(case_slots(CaseTag("type2", (1,)))) == 9
    assert len(case_slots(CaseTag("type2", (4, 5)))) == 8


def test_make_case_graph_structure():
    g, block, v = make_case_graph(CaseTag("type1", (1,), 6))
    assert v == 6
    assert block.shape == "cycle"
    # pivot adjacent to block vertex 0 only
    assert g.has_edge(0, v)
    assert g.degree(v) == 1
    bdry = boundary(g, block)
    assert v in bdry
    assert len(bdry) == 6
    # boundary vertices form an independent set (degree 1 each)
    assert all(g.degree(u) == 1 for u in bdry)


def test_make_case_graph_type2():
    g, block, v = make_case_graph(CaseTag("type2", (1, 8)))
    assert block.shape == "path"
    assert g.has_edge(0, v) and g.has_edge(7, v)
    assert len(boundary(g, block)) == 9
