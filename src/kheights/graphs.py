"""Graph and block-family constructors.

Vertex layout conventions (fixed so that golden tests are reproducible):

* toroidal rectangular grid of size g x h: vertex (x, y) has index
  ``y * g + x``, with x taken mod g and y mod h.
* toroidal hexagonal grid (dual of the triangular grid): the triangular
  grid on (Z/g) x (Z/h) has horizontal, vertical and diagonal edges
  {(x,y),(x+1,y+1)}.  Each unit square splits into a lower triangle
  L(x,y) = {(x,y),(x+1,y),(x+1,y+1)} and an upper triangle
  U(x,y) = {(x,y),(x,y+1),(x+1,y+1)}.  L(x,y) has index ``2*(y*g+x)``
  and U(x,y) index ``2*(y*g+x)+1``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate


class GraphError(ValueError):
    """Raised for invalid graph or block-family constructions."""


class EnumerationCapError(RuntimeError):
    """Raised before a computation would exceed a size cap (exit 4)."""


#: vertices plus edges of the largest graph that parse specs and JSON
#: records build: ~45 MiB and ~1.5 s at the cap (complete:700 has
#: 245,350); rect:256x256 has 196,608 and rect:128x128 49,152
GRAPH_MAX_SIZE = 1 << 18


def check_graph_size(n: int, edges: int) -> None:
    """Raise EnumerationCapError, before a graph of n vertices and
    `edges` edges is built, when n + edges passes GRAPH_MAX_SIZE."""
    if n + edges > GRAPH_MAX_SIZE:
        raise EnumerationCapError(
            f"a graph of {n} vertices and {edges} edges exceeds "
            f"{GRAPH_MAX_SIZE} vertices plus edges")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    kind: str | None = None
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("a graph needs at least one vertex")
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise GraphError(f"bad edge ({u}, {v}) for n={self.n}")

    @classmethod
    def from_edges(cls, n, edge_list, **kw) -> "Graph":
        edge_list = list(edge_list)
        edges = frozenset((min(u, v), max(u, v)) for u, v in edge_list)
        if len(edges) != len(edge_list):
            raise GraphError("duplicate edges")
        return cls(n=n, edges=edges, **kw)

    def adjacency(self) -> list[list[int]]:
        cached = getattr(self, "_adjacency", None)
        if cached is None:
            cached = [[] for _ in range(self.n)]
            for u, v in sorted(self.edges):
                cached[u].append(v)
                cached[v].append(u)
            object.__setattr__(self, "_adjacency", cached)
        return cached

    def has_edge(self, u, v) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def degree(self, v) -> int:
        return sum(1 for e in self.edges if v in e)

    def to_json_dict(self) -> dict:
        d = {"n": self.n, "edges": sorted(map(list, self.edges))}
        if self.kind is not None:
            d["kind"] = self.kind
        if self.dims is not None:
            d["dims"] = list(self.dims)
        return d

    @classmethod
    def from_json_dict(cls, d) -> "Graph":
        """The graph of a to_json_dict record.  GraphError unless n is a
        non-negative integer, the edges integer pairs and kind, if
        given, a string; a record of kind rect or hex must give dims, a
        pair of integers, and equal the make_toroidal_rect or
        make_toroidal_hex grid of those dims in n and edges, and no
        other record may give dims.  EnumerationCapError, before
        building it, past GRAPH_MAX_SIZE."""
        if not isinstance(d, dict):
            raise GraphError("a graph record must be a JSON object")
        for field in ("n", "edges"):
            if field not in d:
                raise GraphError(f"graph record: missing field {field!r}")
        n, edges, dims = d["n"], d["edges"], d.get("dims")
        kind = d.get("kind")
        if not (type(n) is int and n >= 0):
            raise GraphError(f"n must be a non-negative integer, got {n!r}")
        if not (isinstance(edges, list) and all(
                isinstance(e, list) and len(e) == 2
                and all(type(u) is int for u in e) for e in edges)):
            raise GraphError("edges must be a list of integer pairs")
        if not (kind is None or isinstance(kind, str)):
            raise GraphError(f"kind must be a string, got {kind!r}")
        grid = {"rect": make_toroidal_rect, "hex": make_toroidal_hex}.get(kind)
        if grid is None and dims:
            raise GraphError(f"dims go with kind rect or hex, not {kind!r}")
        if grid and not (isinstance(dims, list) and len(dims) == 2
                         and all(type(x) is int for x in dims)):
            raise GraphError(f"a {kind} grid needs dims, two integers, "
                             f"got {dims!r}")
        check_graph_size(n, len(edges))
        graph = cls.from_edges(n, [tuple(e) for e in edges], kind=kind,
                               dims=tuple(dims) if grid else None)
        if grid:
            g, h = dims
            # n first: it bounds the grid that is built to compare with
            if n != g * h * (2 if kind == "hex" else 1) or grid(g, h) != graph:
                raise GraphError(f"the record is not the {kind} grid {g}x{h}")
        return graph

    def content_hash(self) -> str:
        """Hash of n and the edges only (kind and dims are left out)."""
        payload = json.dumps({"n": self.n,
                              "edges": sorted(map(list, self.edges))},
                             sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class Block:
    """Ordered vertex subset; the order is the DP sweep order.

    shape declares the DP decomposition: "path", "cycle", "grid" (row-major
    rows of width 4), or None for brute force.
    """

    vertices: tuple[int, ...]
    multiplicity: int = 1
    shape: str | None = None

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("block vertices must be distinct")
        if self.multiplicity < 1:
            raise GraphError("multiplicity must be >= 1")


@dataclass(frozen=True)
class BlockFamily:
    blocks: tuple[Block, ...]

    @cached_property
    def total_count(self) -> int:
        return sum(b.multiplicity for b in self.blocks)

    @cached_property
    def cum(self) -> tuple[int, ...]:
        """The running sums of the multiplicities: a block draw r picks
        the first block i with r < cum[i]."""
        return tuple(accumulate(b.multiplicity for b in self.blocks))

    def check_cover(self, graph: Graph) -> None:
        covered = set()
        for b in self.blocks:
            covered.update(b.vertices)
        if covered != set(range(graph.n)):
            raise GraphError("block family does not cover all vertices")


@dataclass(frozen=True)
class CaseTag:
    """Identifies one of the local boundary-vertex cases for 3-regular blocks.

    kind is "type1" (face block on a d-cycle, 3 <= d <= 10) or "type2"
    (8 successive vertices of a large face).  neighbor_labels are the
    1-based block-vertex labels adjacent to the external vertex.
    """

    kind: str
    neighbor_labels: tuple[int, ...]
    d: int = field(default=8)

    def __post_init__(self):
        labels = tuple(sorted(self.neighbor_labels))
        object.__setattr__(self, "neighbor_labels", labels)
        if self.kind == "type1":
            if not 3 <= self.d <= 10:
                raise GraphError("type-1 face degree must be in 3..10")
        elif self.kind == "type2":
            if self.d != 8:
                raise GraphError("type-2 blocks have exactly 8 vertices")
        else:
            raise GraphError(f"unknown case kind {self.kind!r}")
        if not 1 <= len(labels) <= 3:
            raise GraphError("external vertex has 1..3 neighbors in the block")
        if any(not 1 <= l <= self.d for l in labels):
            raise GraphError("neighbor label out of range")
        if len(set(labels)) != len(labels):
            raise GraphError("duplicate neighbor labels")

    def __str__(self):
        lbl = ",".join(map(str, self.neighbor_labels))
        if self.kind == "type1":
            return f"1_{self.d}[{lbl}]"
        return f"2[{lbl}]"


def make_toroidal_rect(g: int, h: int) -> Graph:
    """Toroidal rectangular grid graph on g*h vertices (4-regular)."""
    if g < 3 or h < 3:
        raise GraphError("toroidal grid needs g, h >= 3 to stay simple")
    idx = lambda x, y: (y % h) * g + (x % g)
    edges = []
    for y in range(h):
        for x in range(g):
            edges.append((idx(x, y), idx(x + 1, y)))
            edges.append((idx(x, y), idx(x, y + 1)))
    return Graph.from_edges(g * h, edges, kind="rect", dims=(g, h))


def make_toroidal_hex(g: int, h: int) -> Graph:
    """Dual of the toroidal triangular grid: 2*g*h vertices, 3-regular."""
    if g < 3 or h < 3:
        raise GraphError("toroidal grid needs g, h >= 3 to stay simple")
    lo = lambda x, y: 2 * ((y % h) * g + (x % g))
    up = lambda x, y: 2 * ((y % h) * g + (x % g)) + 1
    edges = []
    for y in range(h):
        for x in range(g):
            # L(x,y) shares its diagonal with U(x,y), its vertical side
            # with U(x+1,y) and its horizontal side with U(x,y-1).
            edges.append((lo(x, y), up(x, y)))
            edges.append((lo(x, y), up(x + 1, y)))
            edges.append((lo(x, y), up(x, y - 1)))
    return Graph.from_edges(2 * g * h, edges, kind="hex", dims=(g, h))


def make_complete(n: int) -> Graph:
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)], kind="complete"
    )


def boundary(graph: Graph, block: Block) -> frozenset[int]:
    """External neighbors of the block."""
    inside = set(block.vertices)
    adj = graph.adjacency()
    return frozenset(u for v in block.vertices for u in adj[v]
                     if u not in inside)


def rect_block_family(graph: Graph) -> BlockFamily:
    """All contiguous 4x4 blocks of a toroidal rectangular grid.

    Requires g, h >= 8 so that no block or block boundary wraps onto
    itself.
    """
    if graph.kind != "rect":
        raise GraphError("rect_block_family needs a toroidal rectangular grid")
    g, h = graph.dims
    if g < 8 or h < 8:
        raise GraphError("need g, h >= 8 so blocks and boundaries embed")
    idx = lambda x, y: (y % h) * g + (x % g)
    blocks = []
    for y in range(h):
        for x in range(g):
            verts = tuple(idx(x + i, y + j) for j in range(4) for i in range(4))
            blocks.append(Block(vertices=verts, shape="grid"))
    fam = BlockFamily(blocks=tuple(blocks))
    fam.check_cover(graph)
    return fam


def hex_block_family(graph: Graph) -> BlockFamily:
    """One 6-vertex block per triangular-grid point; blocks induce 6-cycles."""
    if graph.kind != "hex":
        raise GraphError("hex_block_family needs a toroidal hexagonal grid")
    g, h = graph.dims
    if g < 4 or h < 4:
        raise GraphError("need g, h >= 4 so blocks and boundaries embed")
    lo = lambda x, y: 2 * ((y % h) * g + (x % g))
    up = lambda x, y: 2 * ((y % h) * g + (x % g)) + 1
    blocks = []
    for y in range(h):
        for x in range(g):
            # the 6 triangles incident to grid point (x, y), in cyclic order
            verts = (
                lo(x, y),
                up(x, y),
                lo(x - 1, y),
                up(x - 1, y - 1),
                lo(x - 1, y - 1),
                up(x, y - 1),
            )
            blocks.append(Block(vertices=verts, shape="cycle"))
    fam = BlockFamily(blocks=tuple(blocks))
    fam.check_cover(graph)
    return fam


def singleton_family(graph: Graph) -> BlockFamily:
    """One block per vertex; block dynamics on it is heat-bath dynamics."""
    return BlockFamily(
        blocks=tuple(Block(vertices=(v,), shape="path") for v in range(graph.n))
    )


def case_slots(tag: CaseTag) -> list[int]:
    """Free boundary slots of a case graph as a list of 0-based block
    vertices, one entry per distinct boundary vertex other than v.

    Type-1 blocks are d-cycles with one outward edge per vertex; type-2
    blocks are 8-paths whose two endpoints have two outward edges each.
    The external vertex v takes over one slot of each labeled vertex;
    all remaining slots go to pairwise distinct boundary vertices (the
    divergence-maximizing variant).
    """
    labels0 = {l - 1 for l in tag.neighbor_labels}
    slots = []
    for i in range(tag.d):
        count = 1
        if tag.kind == "type2" and i in (0, tag.d - 1):
            count = 2
        if i in labels0:
            count -= 1
        slots.extend([i] * count)
    return slots


def make_case_graph(tag: CaseTag) -> tuple[Graph, Block, int]:
    """Minimal local graph for a divergence case.

    Returns (graph, block, v) where v is the external pivot vertex.
    Vertices 0..d-1 are the block, vertex d is v, and the remaining
    vertices are the other boundary slots in block order.
    """
    d = tag.d
    if tag.kind == "type1":
        edges = [(i, (i + 1) % d) for i in range(d)]
        shape = "cycle"
    else:
        edges = [(i, i + 1) for i in range(d - 1)]
        shape = "path"
    v = d
    for l in tag.neighbor_labels:
        edges.append((l - 1, v))
    slots = case_slots(tag)
    for j, blockvert in enumerate(slots):
        edges.append((blockvert, d + 1 + j))
    graph = Graph.from_edges(d + 1 + len(slots), edges, kind="case")
    return graph, Block(vertices=tuple(range(d)), shape=shape), v
