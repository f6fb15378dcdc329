"""Exact value of the deletion/explosion game on graphs.

One player repeatedly offers an edge of the current graph; the other either
deletes the edge or explodes it, removing both endpoints together with all
their neighbours and incident edges.  If an isolated vertex ever appears the
offering player scores INFINITY; otherwise the score is the number of
explosions.  psi(G) is the value under optimal play, computed here by the
equivalent recursion

    psi(G) = max over edges e of min(psi(G - e), psi(G * e) + 1)

with psi(empty) = 0 and psi = INFINITY as soon as some vertex is isolated.

The implementation memoizes on canonical forms (exact isomorphism classes)
for states with at most CANONICAL_EXACT_THRESHOLD vertices and on exact
labelled keys above that, splits states into connected components (the value
is additive over components, by induction on the recursion), and skips the
deletion branch of an edge whenever the explosion branch already caps the
min below the running max.  All three devices preserve the exact value.

A memo table holds values of canonical states only, so one table may be
shared by any number of calls (a sweep over many graphs passes the same
dict to each) without changing a value.  The budget is per call: `memo_limit`
bounds the entries one call adds, not the size of the table it was given,
so a shared table never makes a call fail that would succeed alone.  Bounding
the table itself is up to whoever shares it.  Within one call psi also
caches the key of each labelled state it meets; that cache is emptied
whenever it reaches `memo_limit` entries, so it is bounded as well without
ever failing a call.
"""

from dataclasses import dataclass

from .errors import BudgetExceededError
from .structures import Graph, INFINITY

CANONICAL_EXACT_THRESHOLD = 10
DEFAULT_MEMO_LIMIT = 2_000_000


@dataclass(frozen=True)
class GameState:
    """A graph position: active vertices and the edges still joining them."""

    vertices: frozenset
    edges: frozenset

    def __post_init__(self):
        vertices = frozenset(int(v) for v in self.vertices)
        if any(v < 0 for v in vertices):
            # the engines hold vertex sets as bitmasks
            raise ValueError(f"negative vertex {min(vertices)}")
        edges = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge ({u}, {v}) joins inactive vertices")
            edges.add((min(u, v), max(u, v)))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", frozenset(edges))

    @classmethod
    def from_graph(cls, G):
        return cls(frozenset(range(G.n)), G.edges)


def _normalize_edge(e):
    u, v = int(e[0]), int(e[1])
    return (min(u, v), max(u, v))


def delete_edge(state, e):
    """Remove edge e; both endpoints stay (possibly now isolated)."""
    e = _normalize_edge(e)
    if e not in state.edges:
        raise ValueError(f"edge {e} is not active")
    return GameState(state.vertices, state.edges - {e})


def explode(state, e):
    """Remove both endpoints of e, all their neighbours and incident edges."""
    e = _normalize_edge(e)
    if e not in state.edges:
        raise ValueError(f"edge {e} is not active")
    after_v, after_e = _explode(_vertex_mask(state.vertices), state.edges, e)
    return GameState(_mask_vertices(after_v), after_e)


def _vertex_mask(vertices):
    vmask = 0
    for v in vertices:
        vmask |= 1 << v
    return vmask


def _mask_vertices(vmask):
    verts = []
    while vmask:
        b = vmask & -vmask
        verts.append(b.bit_length() - 1)
        vmask ^= b
    return verts


def _explode(vmask, edges, e):
    """Bitmask form of explode: (vertex mask, edges in their given order)."""
    u, v = e
    removed = (1 << u) | (1 << v)
    for x, y in edges:
        if x == u or x == v or y == u or y == v:
            removed |= (1 << x) | (1 << y)
    after_v = vmask & ~removed
    after_e = tuple((x, y) for x, y in edges if not (removed >> x & 1 or removed >> y & 1))
    return after_v, after_e


# ---------------------------------------------------------------------------
# Canonical labelling for small graphs


def _wl_colors(n, adj):
    """Stable 1-dimensional color refinement with canonical color ids."""
    colors = [bin(adj[v]).count("1") for v in range(n)]
    while True:
        sigs = []
        for v in range(n):
            nbr = sorted(colors[u] for u in range(n) if adj[v] >> u & 1)
            sigs.append((colors[v], tuple(nbr)))
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def canonical_graph_key(n, edges):
    """Exact canonical form of a labelled graph on vertices 0..n-1.

    Two graphs get equal keys iff they are isomorphic.  The key is the
    color-sorted vertex sequence plus the lexicographically smallest
    adjacency encoding over all orderings compatible with the refinement.
    Equivalent vertices (twins) are collapsed before branching, which keeps
    complete and complete-multipartite graphs linear instead of factorial.
    """
    if n == 0:
        return ("C", 0, (), ())
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    colors = _wl_colors(n, adj)
    target = sorted(colors)

    best = None
    placed = []
    placed_mask = 0
    chunks = []

    def rec(pos, equal_so_far):
        nonlocal best, placed_mask
        if pos == n:
            cand = tuple(chunks)
            if best is None or cand < best:
                best = cand
            return
        want = target[pos]
        cands = [v for v in range(n) if not placed_mask >> v & 1 and colors[v] == want]
        chunk_of = {}
        for v in cands:
            bits = 0
            av = adj[v]
            for j, p in enumerate(placed):
                if av >> p & 1:
                    bits |= 1 << j
            chunk_of[v] = bits
        m = min(chunk_of.values())
        if equal_so_far and best is not None:
            if m > best[pos]:
                return
            equal_next = m == best[pos]
        else:
            equal_next = equal_so_far
        # collapse twins: u, v interchangeable when their neighbourhoods
        # agree outside {u, v}
        reps = []
        for v in sorted(c for c in cands if chunk_of[c] == m):
            dup = False
            for r in reps:
                if adj[v] & ~(1 << r) == adj[r] & ~(1 << v):
                    dup = True
                    break
            if not dup:
                reps.append(v)
        for v in reps:
            placed.append(v)
            chunks.append(m)
            placed_mask |= 1 << v
            rec(pos + 1, equal_next)
            placed_mask ^= 1 << v
            placed.pop()
            chunks.pop()

    rec(0, True)
    return ("C", n, tuple(target), best)


# ---------------------------------------------------------------------------
# Game value


def _state_key(vmask, edges):
    verts = _mask_vertices(vmask)
    relabel = {v: i for i, v in enumerate(verts)}
    rel_edges = tuple(sorted((relabel[u], relabel[v]) for u, v in edges))
    k = len(verts)
    if k <= CANONICAL_EXACT_THRESHOLD:
        return canonical_graph_key(k, rel_edges)
    return ("L", k, rel_edges)


def _components(vmask, edges):
    """Split an isolated-vertex-free state into connected pieces."""
    nbr = {}
    for u, v in edges:
        nbr.setdefault(u, set()).add(v)
        nbr.setdefault(v, set()).add(u)
    seen = set()
    comps = []
    for start in sorted(nbr):
        if start in seen:
            continue
        stack = [start]
        verts = set()
        while stack:
            v = stack.pop()
            if v in verts:
                continue
            verts.add(v)
            stack.extend(nbr[v] - verts)
        seen |= verts
        cmask = 0
        for v in verts:
            cmask |= 1 << v
        cedges = tuple(sorted((u, v) for u, v in edges if u in verts))
        comps.append((cmask, cedges))
    return comps


def _check_budget(added, memo_limit):
    if added >= memo_limit:
        raise BudgetExceededError(
            f"memo table exceeded {memo_limit} entries", nodes=added)


class _PsiEngine:
    def __init__(self, memo, memo_limit):
        self.memo = memo
        self.memo_limit = memo_limit
        self.added = 0
        # key per labelled state: different deletion orders reach the same
        # labelled state, and this skips canonical_graph_key then
        self.keys = {}

    def value(self, vmask, edges):
        if vmask == 0:
            return 0
        covered = 0
        for u, v in edges:
            covered |= (1 << u) | (1 << v)
        if vmask & ~covered:
            return INFINITY
        comps = _components(vmask, edges)
        if len(comps) == 1:
            return self.component_value(*comps[0])
        total = 0
        for cmask, cedges in comps:
            total += self.component_value(cmask, cedges)
            if total == INFINITY:
                return INFINITY
        return total

    def component_value(self, vmask, edges):
        key = self.keys.get((vmask, edges))
        if key is None:
            if len(self.keys) >= self.memo_limit:
                self.keys.clear()
            key = self.keys[vmask, edges] = _state_key(vmask, edges)
        cached = self.memo.get(key)
        if cached is not None:
            return cached

        # order edges by how much an explosion removes, largest first
        ordered = []
        for e in edges:
            after_v, after_e = _explode(vmask, edges, e)
            removed = bin(vmask).count("1") - bin(after_v).count("1")
            ordered.append((-removed, e, after_v, after_e))
        ordered.sort(key=lambda t: (t[0], t[1]))

        best = 0
        for _, e, after_v, after_e in ordered:
            ev = self.value(after_v, after_e)
            if ev + 1 <= best:
                continue  # min(delete, ev + 1) cannot beat best
            dv = self.value(vmask, tuple(x for x in edges if x != e))
            cand = dv if dv < ev + 1 else ev + 1
            if cand > best:
                best = cand
            if best == INFINITY:
                break

        _check_budget(self.added, self.memo_limit)
        self.added += 1
        self.memo[key] = best
        return best


def psi(graph, *, memo=None, memo_limit=DEFAULT_MEMO_LIMIT):
    """Exact game value of a Graph or GameState; 0 for the empty graph.

    An explicit memo dict may be passed to share work across many calls;
    sharing never changes the value.  BudgetExceededError is raised once
    this call would add more than `memo_limit` entries to the table.
    """
    if isinstance(graph, Graph):
        state = GameState.from_graph(graph)
    else:
        state = graph
    engine = _PsiEngine({} if memo is None else memo, memo_limit)
    return engine.value(_vertex_mask(state.vertices), tuple(sorted(state.edges)))


class _PsiDecisionEngine:
    """Exact decision procedure for psi(G) >= k, unfolded from the recursion.

    psi(G) >= k iff some edge e has psi(G*e) >= k-1 and psi(G-e) >= k.  Two
    provable shortcuts keep this tractable far beyond the full-value search:
    psi >= 1 holds for every nonempty graph (vertices can only disappear
    through explosions, by induction over the recursion), and the value is
    additive over connected components, so a decision about a disconnected
    state greedily allocates the threshold over its components.
    """

    def __init__(self, memo, memo_limit, node_budget):
        self.memo = memo
        self.memo_limit = memo_limit
        self.node_budget = node_budget
        self.nodes = 0
        self.added = 0

    def decide(self, vmask, edges, k):
        if k <= 0:
            return True
        if vmask == 0:
            return False
        covered = 0
        for u, v in edges:
            covered |= (1 << u) | (1 << v)
        if vmask & ~covered:
            return True  # isolated vertex, value INFINITY
        if k == 1:
            return True  # nonempty without isolated vertices still scores >= 1
        comps = _components(vmask, edges)
        if len(comps) == 1:
            return self.component_decide(*comps[0], k)
        remaining = k
        for cmask, cedges in comps[:-1]:
            # largest threshold this component certainly meets
            got = 0
            while got < remaining and self.component_decide(cmask, cedges, got + 1):
                got += 1
            remaining -= got
            if remaining == 0:
                return True
        last_mask, last_edges = comps[-1]
        return self.component_decide(last_mask, last_edges, remaining)

    def component_decide(self, vmask, edges, k):
        if k <= 0:
            return True
        if k == 1:
            return vmask != 0
        key = (_state_key(vmask, edges), k)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceededError(
                f"decision search exceeded {self.node_budget} nodes", nodes=self.nodes
            )

        # favour explosions that keep the graph large: the k-1 branch then
        # has material left to work with
        ordered = []
        for e in edges:
            after_v, after_e = _explode(vmask, edges, e)
            ordered.append((-bin(after_v).count("1"), e, after_v, after_e))
        ordered.sort(key=lambda t: (t[0], t[1]))

        answer = False
        for _, e, after_v, after_e in ordered:
            if not self.decide(after_v, after_e, k - 1):
                continue
            if self.decide(vmask, tuple(x for x in edges if x != e), k):
                answer = True
                break
        _check_budget(self.added, self.memo_limit)
        self.added += 1
        self.memo[key] = answer
        return answer


def psi_at_least(graph, k, *, memo=None, memo_limit=DEFAULT_MEMO_LIMIT,
                 node_budget=10_000_000):
    """Exact test of psi(graph) >= k without computing the full value.

    The memo and its per-call budget work as in psi; its entries are keyed
    by (state, threshold).
    """
    if isinstance(graph, Graph):
        state = GameState.from_graph(graph)
    else:
        state = graph
    engine = _PsiDecisionEngine({} if memo is None else memo, memo_limit, node_budget)
    return engine.decide(_vertex_mask(state.vertices), tuple(sorted(state.edges)), k)


def line_graph(G):
    """One vertex per edge of a bipartite graph; adjacency iff the edges meet."""
    edges = G.sorted_edges()
    n = len(edges)
    adj = set()
    for i in range(n):
        for j in range(i + 1, n):
            if edges[i][0] == edges[j][0] or edges[i][1] == edges[j][1]:
                adj.add((i, j))
    return Graph(n, frozenset(adj))


def psi_line(G, *, memo=None, memo_limit=DEFAULT_MEMO_LIMIT):
    """Game value played on the line graph of a bipartite graph."""
    return psi(line_graph(G), memo=memo, memo_limit=memo_limit)
