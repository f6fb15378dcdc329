"""Core combinatorial structures and their JSON wire formats.

Sides of a tripartite hypergraph are always ordered (A, B, C).  For
hypergraphs built from Latin squares the convention is (symbols, columns,
rows); for hypergraphs built from matching families it is (left host
vertices, right host vertices, family members).  All indices are 0-based.

Every type here is immutable after construction, so callers may share one
value (a sweep and its re-check judge the same instance) without copying it.
The public constructors check every input.  A builder whose output is valid
by construction (a generator's own loop, not anything read from outside)
may make its objects through `_built`, which skips the second check; it
then checks its own scalar arguments wherever the constructor would have
caught a bad one.  These do: `family_to_hypergraph` and `graph_from_masks`
here, `homology.independence_complex`, `game.line_graph`, the exhaustive
square streams and `gen_accommodating_counterexample` in `constructions`,
and every draw of a shipped randomized scope there (`random_matching`,
`random_family`, `gen_theorem19_instance`, `random_graph`,
`random_partition_system` and `random_lemma31_graph`).
"""

from collections import Counter
from dataclasses import dataclass, field

INFINITY = float("inf")

SIDES = ("A", "B", "C")
SIDE_PAIRS = (("A", "B"), ("A", "C"), ("B", "C"))


def _built(cls, **fields):
    """An instance of the frozen dataclass `cls` with its fields set as given,
    without running `__post_init__`.

    Contract: `fields` names every field of `cls`, `init=False` ones such as
    `Graph.adj` included, and each value is exactly what `__post_init__`
    would leave from the same input: the same types, order and
    normalisation, so the object equals, field by field, the one the public
    constructor makes.  Only a builder whose output is valid by construction
    may call it; outside input always goes through the public constructor.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def side_index(side):
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}, expected one of {SIDES}")
    return SIDES.index(side)


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple bipartite graph; edges are (left, right) index pairs."""

    left_size: int
    right_size: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        left, right = int(self.left_size), int(self.right_size)
        if left < 0 or right < 0:
            raise ValueError("side sizes must be non-negative")
        edges = frozenset((int(u), int(w)) for u, w in self.edges)
        for u, w in edges:
            if not (0 <= u < left and 0 <= w < right):
                raise ValueError(f"edge ({u}, {w}) out of bounds")
        object.__setattr__(self, "left_size", left)
        object.__setattr__(self, "right_size", right)
        object.__setattr__(self, "edges", edges)

    def sorted_edges(self):
        return sorted(self.edges)

    def left_degrees(self):
        degs = [0] * self.left_size
        for u, _ in self.edges:
            degs[u] += 1
        return degs


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 (not necessarily bipartite).

    `adj` holds its adjacency bitmasks, built here once: bit v of adj[u] is
    set iff u and v are joined.  Every solver that searches a graph reads
    its masks from here.
    """

    n: int
    edges: frozenset = frozenset()
    adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        adj = [0] * self.n
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of bounds")
            norm.add((min(u, v), max(u, v)))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "adj", tuple(adj))

    def sorted_edges(self):
        return sorted(self.edges)

    def degrees(self):
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs


@dataclass(frozen=True)
class PartitionedGraph:
    """A graph together with vertex sets V_1..V_m (not necessarily disjoint).

    `part_masks` holds one vertex mask per part, built here once."""

    graph: Graph
    parts: tuple = ()
    part_masks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = tuple(frozenset(int(v) for v in p) for p in self.parts)
        masks = []
        for p in parts:
            mask = 0
            for v in p:
                if not (0 <= v < self.graph.n):
                    raise ValueError(f"part vertex {v} out of range")
                mask |= 1 << v
            masks.append(mask)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "part_masks", tuple(masks))


@dataclass(frozen=True)
class TriHypergraph:
    """3-partite 3-uniform hypergraph; the edge list is a multiset."""

    side_sizes: tuple
    edges: tuple = ()

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.side_sizes)
        if len(sizes) != 3 or any(s < 0 for s in sizes):
            raise ValueError("side_sizes must be three non-negative counts")
        edges = tuple(sorted(tuple(int(x) for x in e) for e in self.edges))
        for e in edges:
            if len(e) != 3:
                raise ValueError(f"edge {e} is not a triple")
            for x, bound in zip(e, sizes):
                if not (0 <= x < bound):
                    raise ValueError(f"edge {e} out of bounds for sides {sizes}")
        object.__setattr__(self, "side_sizes", sizes)
        object.__setattr__(self, "edges", edges)

    @property
    def n_edges(self):
        return len(self.edges)

    def multiplicities(self):
        return Counter(self.edges)

    def is_simple(self):
        """True iff no edge repeats."""
        return all(m == 1 for m in self.multiplicities().values())

    def support(self):
        """Distinct edges, sorted."""
        return sorted(set(self.edges))


@dataclass(frozen=True)
class Matching:
    """Set of pairwise-disjoint edges (u, w) of a bipartite graph: one
    member of a `MatchingFamily`.  Solvers return their matchings as plain
    tuples, never as a `Matching`."""

    edges: frozenset = frozenset()

    def __post_init__(self):
        edges = frozenset(tuple(int(x) for x in e) for e in self.edges)
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"matching edge {e} is not a pair")
        if any(len(set(side)) != len(edges) for side in zip(*edges)):
            raise ValueError("edges share a vertex in one side")
        object.__setattr__(self, "edges", edges)

    def __len__(self):
        return len(self.edges)

    def sorted_edges(self):
        return sorted(self.edges)


@dataclass(frozen=True)
class MatchingFamily:
    """Ordered family F_1..F_m of matchings in a bipartite host graph.

    Members may repeat; the family is a multiset.
    """

    host: BipartiteGraph
    members: tuple = ()

    def __post_init__(self):
        members = tuple(
            m if isinstance(m, Matching) else Matching(frozenset(m))
            for m in self.members
        )
        for i, member in enumerate(members):
            for e in member.edges:
                if e not in self.host.edges:
                    raise ValueError(f"member {i} uses edge {e} outside the host")
        object.__setattr__(self, "members", members)

    def sizes(self):
        return [len(m) for m in self.members]


@dataclass(frozen=True)
class LatinSquare:
    """n x n grid of symbol indices in [0, n)."""

    order: int
    cells: tuple = ()

    def __post_init__(self):
        n = self.order
        if n < 0:
            raise ValueError("order must be non-negative")
        cells = tuple(tuple(map(int, row)) for row in self.cells)
        if len(cells) != n or any(len(row) != n for row in cells):
            raise ValueError("cells must form an n x n grid")
        for row in cells:
            for x in row:
                if not (0 <= x < n):
                    raise ValueError(f"symbol {x} out of range [0, {n})")
        object.__setattr__(self, "cells", cells)

    def is_row_latin(self):
        """No symbol twice in any row."""
        return all(len(set(row)) == self.order for row in self.cells)

    def is_column_latin(self):
        """No symbol twice in any column."""
        n = self.order
        return all(len({self.cells[i][j] for i in range(n)}) == n for j in range(n))

    def is_latin(self):
        return self.is_row_latin() and self.is_column_latin()


# ---------------------------------------------------------------------------
# Graph masks: vertex v is bit v, adj[v] its neighbour mask (as in Graph.adj)


def vertices_of(mask):
    """The vertices of a mask, lowest first."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def component(adj, mask):
    """The component of the lowest vertex of a nonzero mask, in the graph
    induced on the mask, as a mask (a flood fill)."""
    comp = frontier = mask & -mask
    while frontier:
        b = frontier & -frontier
        frontier ^= b
        grown = adj[b.bit_length() - 1] & mask & ~comp
        comp |= grown
        frontier |= grown
    return comp


def induced_masks(adj, mask):
    """The masks of the graph induced on a mask, its vertices renumbered
    0..k-1 in order."""
    verts = vertices_of(mask)
    bit = {1 << v: 1 << i for i, v in enumerate(verts)}
    packed = []
    for v in verts:
        row, a = 0, adj[v] & mask
        while a:
            b = a & -a
            a ^= b
            row |= bit[b]
        packed.append(row)
    return packed


def graph_from_masks(adj):
    """The `Graph` on vertices 0..len(adj)-1 whose adjacency masks are adj.

    One pass over the masks checks them and reads the edges off the bits
    below the diagonal.  A mask may not be negative, hold a bit at or above
    len(adj) or hold its own bit (a loop).  The masks are symmetric exactly
    when every bit below the diagonal has its mirror above it and the masks
    hold twice as many bits as there are edges: the mirrors are then all
    the bits above the diagonal.  The checked masks are `Graph.adj` as
    given, and the edges are the normalised pairs the constructor would
    keep.  Raises ValueError naming the first vertex with a bad bit, else
    the first bit without its mirror.
    """
    adj = tuple(adj)
    n = len(adj)
    edges = []
    bits = mirrored = 0
    for v, a in enumerate(adj):
        if a >> n:  # a negative mask too
            raise ValueError(f"mask of vertex {v} has a bit outside 0..{n - 1}")
        if a >> v & 1:
            raise ValueError(f"loop at vertex {v}")
        bits += a.bit_count()
        for u in vertices_of(a & ((1 << v) - 1)):
            edges.append((u, v))
            mirrored += adj[u] >> v & 1
    if mirrored != len(edges) or bits != 2 * len(edges):
        for v, a in enumerate(adj):
            for u in vertices_of(a):
                if not adj[u] >> v & 1:
                    raise ValueError(f"vertex {v} neighbours {u}, but vertex {u} not {v}")
    return _built(Graph, n=n, edges=frozenset(edges), adj=adj)


# ---------------------------------------------------------------------------
# Operations


def degree(H, side, v):
    """Number of edges of H (with multiplicity) containing vertex v of a side."""
    pos = side_index(side)
    if not (0 <= v < H.side_sizes[pos]):
        raise IndexError(f"vertex {v} out of range for side {side}")
    return sum(1 for e in H.edges if e[pos] == v)


def min_degree(H, side):
    """Smallest degree over a side; 0 for an empty side."""
    pos = side_index(side)
    if H.side_sizes[pos] == 0:
        return 0
    counts = Counter(e[pos] for e in H.edges)
    return min(counts.get(v, 0) for v in range(H.side_sizes[pos]))


def max_degree(H, side):
    """Largest degree over a side; 0 for an empty side."""
    pos = side_index(side)
    counts = Counter(e[pos] for e in H.edges)
    return max(counts.values(), default=0)


def is_p_simple(H, pair, p):
    """True iff no cross-pair of the two given sides lies in more than p edges."""
    if p < 1:
        raise ValueError("p must be at least 1")
    pair = tuple(pair)
    if pair not in SIDE_PAIRS:
        raise ValueError(f"pair must be one of {SIDE_PAIRS}")
    i, j = side_index(pair[0]), side_index(pair[1])
    counts = Counter((e[i], e[j]) for e in H.edges)
    return all(m <= p for m in counts.values())


def is_regular(H, d):
    """True iff every vertex of every side has degree exactly d."""
    for side in SIDES:
        pos = side_index(side)
        counts = Counter(e[pos] for e in H.edges)
        if any(counts.get(v, 0) != d for v in range(H.side_sizes[pos])):
            return False
    return True


def latin_to_hypergraph(L):
    """One edge (symbol, column, row) per cell of the grid.

    Works for arbitrary grids; the (B, C) pair is always simple because a
    cell holds one symbol.
    """
    n = L.order
    edges = [(L.cells[r][c], c, r) for r in range(n) for c in range(n)]
    return TriHypergraph((n, n, n), tuple(edges))


def family_to_hypergraph(F):
    """Third side indexes the family members; edge (u, w, i) for (u, w) in F_i.

    A family's member edges are int pairs of its host, so every triple is
    in bounds, and the hypergraph is built without the constructor's check.
    """
    edges = []
    for i, member in enumerate(F.members):
        for u, w in member.edges:
            edges.append((u, w, i))
    edges.sort()
    return _built(TriHypergraph, side_sizes=(F.host.left_size, F.host.right_size, len(F.members)),
                  edges=tuple(edges))


# ---------------------------------------------------------------------------
# JSON wire formats (the contract for every CLI command)
#
# The decoders are the boundary for outside input.  Each accepts exactly the
# keys its writer writes, nested objects included, through `_fields`, and
# every count and index in a payload must be a JSON integer: the
# constructors' int() would truncate 1.9 to 1 and read true as 1, so a float
# or a bool is rejected here first.


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _int(x, name):
    if not _is_int(x):
        raise ValueError(f"field {name!r}: {x!r} is not an integer")
    return x


def _ints(values, name):
    return tuple(_int(x, name) for x in values)


def _fields(data, keys, what, noun="field"):
    """The values of `keys` in `data`, a JSON object that must hold exactly
    those keys: the one check of an object's keys.  The ValueError raised
    otherwise names the object by `what`, and names an unknown key with the
    accepted ones, or the first key missing."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} is not an object: {data!r}")
    unknown = sorted(set(data).difference(keys))
    if unknown:
        raise ValueError(f"{what} has unknown {noun} {', '.join(map(repr, unknown))}; "
                         f"accepted: {', '.join(keys)}")
    for key in keys:
        if key not in data:
            raise ValueError(f"missing {noun} {key!r} in {what}")
    return [data[key] for key in keys]


def bipartite_graph_to_json(G):
    return {"left": G.left_size, "right": G.right_size, "edges": [list(e) for e in G.sorted_edges()]}


def bipartite_graph_from_json(data):
    left, right, edges = _fields(data, ("left", "right", "edges"), "bipartite graph")
    return BipartiteGraph(_int(left, "left"), _int(right, "right"),
                          frozenset(_ints(e, "edges") for e in edges))


def graph_to_json(G):
    return {"vertices": G.n, "edges": [list(e) for e in G.sorted_edges()]}


def graph_from_json(data):
    vertices, edges = _fields(data, ("vertices", "edges"), "graph")
    return Graph(_int(vertices, "vertices"), frozenset(_ints(e, "edges") for e in edges))


def partitioned_graph_to_json(P):
    return {"graph": graph_to_json(P.graph), "parts": [sorted(p) for p in P.parts]}


def partitioned_graph_from_json(data):
    graph, parts = _fields(data, ("graph", "parts"), "partitioned graph")
    return PartitionedGraph(graph_from_json(graph),
                            tuple(frozenset(_ints(p, "parts")) for p in parts))


def hypergraph_to_json(H):
    return {"sides": list(H.side_sizes), "edges": [list(e) for e in H.edges]}


def hypergraph_from_json(data):
    sides, edges = _fields(data, ("sides", "edges"), "hypergraph")
    return TriHypergraph(_ints(sides, "sides"), tuple(_ints(e, "edges") for e in edges))


def family_to_json(F):
    return {
        "graph": bipartite_graph_to_json(F.host),
        "members": [[list(e) for e in m.sorted_edges()] for m in F.members],
    }


def family_from_json(data):
    graph, members = _fields(data, ("graph", "members"), "family")
    return MatchingFamily(bipartite_graph_from_json(graph), tuple(
        Matching(frozenset(_ints(e, "members") for e in m)) for m in members))


def square_to_json(L):
    return {"n": L.order, "cells": [list(row) for row in L.cells]}


def square_from_json(data):
    n, cells = _fields(data, ("n", "cells"), "square")
    return LatinSquare(_int(n, "n"), tuple(_ints(row, "cells") for row in cells))
