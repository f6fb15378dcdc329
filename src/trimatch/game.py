"""Exact value of the deletion/explosion game on graphs.

One player repeatedly offers an edge of the current graph; the other either
deletes the edge or explodes it, removing both endpoints together with all
their neighbours and incident edges.  If an isolated vertex ever appears the
offering player scores INFINITY; otherwise the score is the number of
explosions.  psi(G) is the value under optimal play, given by

    psi(G) = max over edges e of min(psi(G - e), psi(G * e) + 1)

with psi(empty) = 0 and psi = INFINITY as soon as some vertex is isolated.

`psi(G, cap=c)` is the one entry point, and it answers both questions
asked of psi, the full value and a threshold psi >= k.  It computes
min(psi, c) for a cap c by the same recursion with every branch capped:

    min(psi(G), c) = max over edges e of min(psi(G - e), x_e),
    where x_e = min(psi(G * e), c - 1) + 1

so the explosion branch is the search with cap c - 1, and the delete branch
the search with cap x_e, the explosion's score.  psi(G) is the search with
c = INFINITY, and psi(G) >= k iff the search with c = k returns k.  The
search splits a state into connected components (the value is additive over
them, by induction on the recursion) and sums them, stopping once the sum
reaches the cap.  A nonempty graph without isolated vertices has psi >= 1,
since vertices only disappear through explosions, so a cap of 1 is met at
once, and an edge whose explosion cannot beat the running max is skipped.

The search holds a state as a vertex mask and one neighbour mask per vertex
of the root graph (vertex i on bit i, as in `Graph.adj`), 0 for each
inactive vertex.
Exploding (u, v) ANDs the masks with ~(bit u | bit v | adj[u] | adj[v]) and
zeroes those it removes; deleting (u, v) is two XORs.  A vertex is isolated
iff it lies outside the OR of the masks.  Components come lowest vertex
first, from `structures.component`.  Edges u < v are tried in lexicographic
order, stably sorted by the vertices their explosion leaves, most first.

A connected state at cap 2 needs no search.  Call an edge uv of a graph on
V deletable when its explosion leaves a vertex, i.e. N[u] | N[v] != V.
Then psi >= 2 iff deleting deletable edges, one at a time in any order
until none is left, isolates a vertex.  Deleting edges only shrinks
neighbourhoods, so an edge that is deletable stays deletable: the edges
deleted are the same in every order, and the graph H left at the end is
contained in every graph a run of deletions passes through.  If a vertex
gets isolated, offer the deleted edges in turn: exploding one leaves a
nonempty graph, which scores psi >= 1 more, so the explosion scores >= 2,
and deleting them all isolates a vertex.  If none does, H has no isolated
vertex and each of its edges explodes every vertex, in H and so in every
graph containing H.  Answer an offered edge by deleting it while it is
deletable: it is then not an edge of H, so the graph stays a superset of
H, hence free of isolated vertices.  The first edge offered that is not
deletable is exploded, which empties the graph and ends the game at 1.
`_closure_isolates` runs these deletions, and the search answers each
cap-2 component from it, with no canonical key and no memo entry.

Every connected state searched at a cap of 3 or more is memoized on its
canonical key (`canonical_graph_key`, from the labeller in
`trimatch.canonical`), so isomorphic states share one entry whatever their
size or labels; a key is
the vertex count and one int, the adjacency matrix in canonical order.  A
memo entry is (value, exact).  A result below the cap is the exact value:
(value, True).  A result that reaches the cap only shows psi >= cap,
because the search stopped there: it is stored as the lower bound (cap,
False).  A later search with a cap at or below the bound answers from it;
one with a higher cap searches again, from the bound as its running max.

A memo table holds entries of canonical states only, so one table may be
shared by any number of calls, whatever their caps (a sweep over many
graphs passes the same dict to each), without changing a value.  The
budget is per call: `MEMO_LIMIT`, read when the call starts, bounds the
entries one call adds, not the size of the table it was given, so a shared
table never makes a call fail that would succeed alone.  Bounding the table
itself is up to whoever shares it.  Within one call the search also caches
the key of each component's mask tuple; the cache is emptied whenever it
reaches `MEMO_LIMIT` entries, so it is bounded as well without ever failing
a call.  A cap-2 answer is recomputed each time it is asked: a cache of
them did not pay for itself on the benchmark.
"""

from .canonical import canonical_labelling
from .errors import BudgetExceededError
from .structures import Graph, INFINITY, _built, component, induced_masks, vertices_of

MEMO_LIMIT = 2_000_000


def _restrict(adj, keep):
    """The masks of the vertices in keep ANDed with keep, 0 for the rest."""
    return tuple([a & keep if keep >> i & 1 else 0 for i, a in enumerate(adj)])


def _delete(adj, u, v):
    out = list(adj)
    out[u] ^= 1 << v
    out[v] ^= 1 << u
    return tuple(out)


def _closure_isolates(vmask, adj):
    """psi >= 2 for a graph on vmask without isolated vertices: delete edges
    whose explosion leaves a vertex until none is left, and report whether
    a vertex was isolated (the module docstring has the proof)."""
    adj = list(adj)
    edges = [(u, v) for u in vertices_of(vmask) for v in vertices_of(adj[u] >> u + 1 << u + 1)]
    while True:
        kept = []
        for u, v in edges:
            # adj[u] | adj[v] is N[u] | N[v], as u and v are neighbours
            if adj[u] | adj[v] == vmask:
                kept.append((u, v))
                continue
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            if not adj[u] or not adj[v]:
                return True
        if len(kept) == len(edges):
            return False
        edges = kept


# ---------------------------------------------------------------------------
# Canonical keys


def canonical_graph_key(adj):
    """Exact canonical form of a graph given as adjacency bitmasks.

    Vertex i is bit i; a `Graph` holds its masks as `Graph.adj`.  Two graphs
    get equal keys iff they are isomorphic; the key is the first item of
    `canonical_labelling`.
    """
    return canonical_labelling(adj)[0]


# ---------------------------------------------------------------------------
# Game value


class _PsiEngine:
    """min(psi, cap) by the capped recursion of the module docstring."""

    def __init__(self, memo):
        self.memo = memo
        self.limit = MEMO_LIMIT
        self.added = 0
        # key per labelled component: different deletion orders reach the
        # same masks, and this skips canonical_graph_key then
        self.keys = {}

    def value(self, vmask, adj, cap):
        if vmask == 0:
            return min(0, cap)
        covered = 0
        for a in adj:
            covered |= a
        if vmask & ~covered or cap <= 1:
            # an isolated vertex makes psi INFINITY; without one, a
            # nonempty graph scores psi >= 1
            return cap
        total, rest = 0, vmask
        while rest:
            comp = component(adj, rest)
            rest ^= comp
            cadj = adj if comp == vmask else _restrict(adj, comp)
            total += self.component_value(comp, cadj, cap - total)
            if total >= cap:
                break
        return total

    def component_value(self, vmask, adj, cap):
        if cap <= 1:
            return cap
        if cap == 2:
            return 2 if _closure_isolates(vmask, adj) else 1
        key = self.keys.get(adj)
        if key is None:
            if len(self.keys) >= self.limit:
                self.keys.clear()
            key = self.keys[adj] = canonical_graph_key(induced_masks(adj, vmask))
        best = 0
        entry = self.memo.get(key)
        if entry is not None:
            value, exact = entry
            if exact or value >= cap:
                return min(value, cap)
            best = value  # a lower bound below this cap: search on from it

        # explosions that keep the graph large first: their branch has
        # material left to score with
        ordered = []
        for u in vertices_of(vmask):
            later = adj[u] >> u + 1 << u + 1
            while later:
                b = later & -later
                later ^= b
                v = b.bit_length() - 1
                keep = vmask & ~((1 << u) | b | adj[u] | adj[v])
                ordered.append((-keep.bit_count(), u, v, keep))
        ordered.sort()

        for _, u, v, keep in ordered:
            # min(psi(G*e) + 1, cap), then min(psi(G-e), that): the delete
            # branch need not be searched beyond what the explosion allows
            explode_score = self.value(keep, _restrict(adj, keep), cap - 1) + 1
            if explode_score <= best:
                continue
            score = self.value(vmask, _delete(adj, u, v), explode_score)
            if score > best:
                best = score
                if best >= cap:
                    break

        if entry is None:
            if self.added >= self.limit:
                raise BudgetExceededError(
                    f"memo table exceeded {self.limit} entries", nodes=self.added)
            self.added += 1
        self.memo[key] = (best, best < cap)
        return best


def psi(graph, *, cap=INFINITY, memo=None):
    """min(psi, cap) for a Graph; psi is 0 for the empty graph.

    With the default cap this is the exact game value; psi >= k is
    `psi(graph, cap=k) >= k`, and the game on the line graph of a bipartite
    graph G is `psi(line_graph(G))`.  An explicit memo
    dict may be passed to share work across many calls, whatever their
    caps; sharing never changes a value.  BudgetExceededError is raised once
    this call would add more than `MEMO_LIMIT` entries to the table.
    """
    engine = _PsiEngine({} if memo is None else memo)
    return engine.value((1 << graph.n) - 1, graph.adj, cap)


def line_graph(G):
    """One vertex per edge of a bipartite graph; adjacency iff the edges meet.

    Its pairs (i, j) with i < j and its masks are made in one loop, so the
    graph is built without the constructor's check."""
    edges = G.sorted_edges()
    n = len(edges)
    pairs = []
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if edges[i][0] == edges[j][0] or edges[i][1] == edges[j][1]:
                pairs.append((i, j))
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return _built(Graph, n=n, edges=frozenset(pairs), adj=tuple(adj))
