"""Exact solvers: hypergraph matching number, rainbow matchings, bounded
diagonals and partial independent transversals.

All solvers are branch-and-bound searches that return the true optimum
together with a witness: a plain sorted tuple, checked once by an
independent validator and returned as checked.  Hitting the node budget
raises BudgetExceededError instead of returning a possibly wrong answer.

The hypergraph matching search, which also serves rainbow matchings, groups
the vertices of each side into twin classes: vertices with equal links.
Identical family members are C-side twins.  Only the lowest remaining
member of a class may be matched, and giving it up gives up its class, so
k copies of a member cost one branch instead of k; the bound counts every
remaining member of a class that still has a usable edge.  Twins can be
permuted within their class without changing any matching's size, which
is why this stays exact (see `max_matching_size`).

At the root and one level below it the search also uses the hypergraph's
wider symmetry, by orbital branching (Ostrowski, Linderoth, Rossi &
Smriglio, "Orbital branching", Math. Program. 2011; Margot, "Symmetry in
integer linear programming", 2010).  Of the root's children that use an
edge it searches one per orbit of the automorphism group G of the twin
quotient, and of those of the root's first use-child, `use e0`, one per
orbit of the stabiliser of e0 in G.  One automorphism search of
`trimatch.canonical`, with its base at e0, yields both groups; it runs at
most once per call, and only when a second use-child of either node would
be searched before the bound is reached.  The cyclic Latin square of order
10, whose symmetries are transitive on its cells, takes 40 896 nodes with
no orbits, 4 102 with root orbits and 1 555 with both levels.

The partial-transversal search branches over the parts, not the vertices:
one chosen vertex per part, or the part left unmet.
"""

from dataclasses import dataclass

from .canonical import automorphism_generators, orbit_mask
from .errors import BudgetExceededError
from .structures import family_to_hypergraph, vertices_of

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class SolveResult:
    optimum: int
    witness: object
    nodes_explored: int


# ---------------------------------------------------------------------------
# Maximum matching in a tripartite hypergraph


def _twin_classes(H):
    """The distinct edges, and each side's vertices grouped by equal link.

    The link of a vertex is the sorted list of the other two coordinates of
    its edges; the support is sorted, so appending in edge order keeps every
    link sorted.  Vertices without edges are left out.  Returns the edges,
    per side the classes as lists of (vertex, incidence mask) pairs, highest
    vertex first, and per side a dict from vertex to the index of its class.
    """
    edges = H.support()
    inc = [[0] * n for n in H.side_sizes]
    links = [[[] for _ in range(n)] for n in H.side_sizes]
    inc_a, inc_b, inc_c = inc
    link_a, link_b, link_c = links
    bit = 1
    for a, b, c in edges:
        inc_a[a] |= bit
        inc_b[b] |= bit
        inc_c[c] |= bit
        link_a[a].append((b, c))
        link_b[b].append((a, c))
        link_c[c].append((a, b))
        bit <<= 1
    classes, slot = [], []
    for s in range(3):
        groups = {}
        for v in reversed(range(len(links[s]))):
            if links[s][v]:
                groups.setdefault(tuple(links[s][v]), []).append((v, inc[s][v]))
        classes.append(list(groups.values()))
        slot.append({v: k for k, members in enumerate(classes[s]) for v, _ in members})
    return edges, classes, slot


def _quotient_automorphisms(edges, classes, slot, first):
    """Automorphisms of the twin quotient of a hypergraph, and those that
    fix one class triple.

    The quotient is a graph with one node per twin class and one node per
    distinct class triple (the classes of an edge's three vertices), each
    triple joined to its three classes.  Its initial cells are the triple
    nodes, then the class nodes grouped by class size, smallest first, with
    the classes of all three sides pooled.  Returns a dict from class triple
    to its node and, from `automorphism_generators` with its base at the
    node of the class triple `first`, generators of the group G of
    automorphisms that keep every cell and of the stabiliser of `first` in
    G.  The triple nodes come first, as they did for the labeller, which
    took 0.03 s on the order-10 cyclic Latin square this way and over 60 s
    with the class nodes first.  The search, which individualises `first`
    before any class node, is not sensitive to that order (0.013 s against
    0.007 s); the labeller's quotient pins in tests/test_canonical.py read
    these cells.
    """
    node = {}
    for a, b, c in edges:
        node.setdefault((slot[0][a], slot[1][b], slot[2][c]), len(node))
    offsets = [len(node)]
    for cls in classes:
        offsets.append(offsets[-1] + len(cls))
    adj = [0] * offsets[3]
    by_size = {}
    for s in range(3):
        for k, members in enumerate(classes[s]):
            by_size[len(members)] = by_size.get(len(members), 0) | 1 << (offsets[s] + k)
    for triple, t in node.items():
        for s in range(3):
            k = offsets[s] + triple[s]
            adj[t] |= 1 << k
            adj[k] |= 1 << t
    cells = [(1 << len(node)) - 1] + [by_size[size] for size in sorted(by_size)]
    return (node, *automorphism_generators(adj, cells, node[first]))


def max_matching_size(H, *, target=None, node_budget=DEFAULT_NODE_BUDGET):
    """Exact maximum matching of a tripartite hypergraph.

    One search over int bitmasks of the distinct edges.  Each (side, vertex)
    has an incidence mask.  The vertices of each side are grouped into twin
    classes: vertices with equal links, where a link is the sorted list of
    the other two coordinates of the vertex's edges (repeated family members
    are C-side twins).  Only the front of a class, its lowest member not yet
    used or given up, may be matched.  Each side keeps a front mask, the
    union of the incidence masks of its fronts, and the AND of the three
    front masks is the set of usable edges.

    Branches on the front with the fewest usable edges (ties by lowest
    (side, index)); each branch either uses one of those edges, which
    advances the front of all three classes it meets, or gives the front
    up, which gives up the rest of its class too.  The admissible bound is
    the current size plus, minimised over the sides, the number of remaining
    members of the classes whose front has a usable edge.  With `target` set,
    the search stops as soon as a matching of that size is found; the
    reported optimum is then at least `target`, and exact whenever the
    target was unreachable.

    Why the twin rules are exact.  Permuting the members of one twin class
    maps edges to edges, since twins have equal links; doing so on every
    side maps matchings to matchings of the same size.  The members used so
    far form a prefix of each class, so any matching of the remaining
    vertices can be permuted within the remaining members of each class
    until it uses a prefix of them.  Hence a best completion exists that
    matches only fronts, and one that avoids a front avoids its whole
    class.  The bound is admissible because a remaining member has an edge
    whose other two vertices remain iff the front of its class has a usable
    edge: swap each vertex of such an edge for the front of its class.
    Without twins every class is one vertex, and the tree is the plain
    most-constrained-vertex tree.

    Orbits.  The twin quotient (see `_quotient_automorphisms`) is a graph
    with a node per twin class and a node per distinct class triple, and G
    is the group of its automorphisms that keep triples apart from classes
    and keep class sizes.  At the root, a child that uses an edge is skipped
    when an element of G maps its edge's class triple onto that of a
    use-child already searched there.  At the root's first use-child, `use
    e0`, a use-child is skipped likewise under G_e0, the elements of G that
    fix e0's triple.  Both groups come from one search,
    `automorphism_generators` with its base at e0's triple, run at most
    once per call and lazily: the first time a second use-child of either
    node is about to be searched while `best` is still below that node's
    bound.  So the first subtree of each never waits
    for it, and a call that reaches its target or the bound there searches
    the same tree as without orbits.  Every other node, including those
    below the give-up branches of the child of e0 whose matching is still
    [e0], is searched in full: G_e0 need not keep the classes given up
    there.

    Why the orbits are exact.  The edges of H are exactly the vertex
    triples whose classes form a class triple, so an element of G lifts to
    an automorphism of H (sides may be permuted: a matching is a set of
    disjoint vertex triples, whatever their sides); take the lift that maps
    the i-th member of each class to the i-th member of its image class.
    At the root every usable edge is made of fronts, and the child "use e"
    is worth 1 + nu(H - V(e)).  If g in G maps e's triple onto that of e',
    the lift maps e onto e' and H - V(e) onto H - V(e'), so the two children
    have equal value.  At the child of e0, the used members are the first
    member of each of e0's three classes.  An element of G_e0 permutes
    those three classes among themselves, so its lift maps V(e0) onto
    itself and the fronts of the remaining members onto fronts: it maps
    "use e0, then use e" onto "use e0, then use e'", with equal value.  In
    both cases, when the child of e' would be searched, the child of e has
    been, so `best` is already at least that value: skipping e' loses no
    better matching, and the optimum, the witness and the target test are
    unchanged; only the node count falls.  Give-up children are always
    searched.  Doing the same at every node, with the group that keeps the
    state of the node, needs one labelling per node: on the cyclic Latin
    square of order 12 that took 36 653 nodes instead of 77 354 with root
    orbits alone, but 38.5 s instead of 0.64 s; the two levels here take
    38 659 nodes and about 0.4 s.
    """
    edges, classes, slot = _twin_classes(H)
    # left[s][k]: remaining members of class k on side s; a class lists its
    # highest member first, so its front is classes[s][k][left[s][k] - 1]
    left = [[len(members) for members in cls] for cls in classes]
    # distinct vertices of one side have disjoint incidence masks
    fronts = [sum(members[-1][1] for members in cls) for cls in classes]
    nodes = 0
    best = 0
    best_edges = []
    cur = []
    done = False
    # per pruned node, the root (0) and the child of the first root
    # use-child e0 (1): the class triples of its use-children searched so
    # far, and once the group is known, the quotient nodes of their orbits
    tried = ([], [])
    seen = [None, None]
    node = groups = None  # quotient node of each class triple, and (G, G_e0)

    def new_child(level, e, bound):
        """Whether no use-child searched so far at the pruned node `level`
        maps onto `use e` under its group: G at the root, G_e0 below it."""
        nonlocal node, groups
        triple = (slot[0][e[0]], slot[1][e[1]], slot[2][e[2]])
        if seen[level] is None:
            if groups is None:
                if not tried[level] or best >= len(cur) + bound:
                    tried[level].append(triple)
                    return True
                node, *groups = _quotient_automorphisms(edges, classes, slot, tried[0][0])
            seen[level] = orbit_mask(sum(1 << node[t] for t in tried[level]), groups[level])
        bit = 1 << node[triple]
        if seen[level] & bit:
            return False
        seen[level] = orbit_mask(seen[level] | bit, groups[level])
        return True

    def rec(f0, f1, f2):
        nonlocal nodes, best, best_edges, done
        nodes += 1
        # 0 at the root, 1 at its first child, which is always `use e0`
        level = nodes - 1
        if nodes > node_budget:
            raise BudgetExceededError(f"matching search exceeded {node_budget} nodes", nodes=nodes)
        if len(cur) > best:
            best = len(cur)
            best_edges = list(cur)
            if target is not None and best >= target:
                done = True
                return
        usable = f0 & f1 & f2
        if not usable:
            return
        bound = len(edges)
        pick_count = len(edges) + 1  # above every count
        pick_side = pick_vertex = pick_class = None
        for s in range(3):
            cover = 0
            for k, r in enumerate(left[s]):
                if not r:
                    continue
                v, mask = classes[s][k][r - 1]
                count = (mask & usable).bit_count()
                if not count:
                    continue
                cover += r
                if count < pick_count or (
                        count == pick_count and s == pick_side and v < pick_vertex):
                    pick_count, pick_side, pick_vertex, pick_class = count, s, v, k
            bound = min(bound, cover)
        if len(cur) + bound <= best:
            return
        f = [f0, f1, f2]
        members = classes[pick_side][pick_class]
        r = left[pick_side][pick_class]
        branch = members[r - 1][1] & usable
        while branch:
            low = branch & -branch
            branch ^= low
            e = edges[low.bit_length() - 1]
            if level < 2 and not new_child(level, e, bound):
                continue
            g = list(f)
            for s in range(3):
                k = slot[s][e[s]]
                twins = classes[s][k]
                t = left[s][k]
                left[s][k] = t - 1
                g[s] ^= twins[t - 1][1]
                if t > 1:
                    g[s] |= twins[t - 2][1]
            cur.append(e)
            rec(*g)
            cur.pop()
            for s in range(3):
                left[s][slot[s][e[s]]] += 1
            if done:
                return
        left[pick_side][pick_class] = 0
        f[pick_side] ^= members[r - 1][1]
        rec(*f)
        left[pick_side][pick_class] = r

    rec(*fronts)
    witness = tuple(sorted(best_edges))
    _validate_hyper_matching(H, witness, best)
    return SolveResult(optimum=best, witness=witness, nodes_explored=nodes)


def _disjoint(edges):
    """True iff no two of the listed edges, a repeated edge included, share
    a vertex in one side."""
    return all(len(set(side)) == len(edges) for side in zip(*edges))


def _validate_hyper_matching(H, edges, claimed):
    if len(edges) != claimed:
        raise AssertionError("witness size does not match the reported optimum")
    support = set(H.support())
    for e in edges:
        if e not in support:
            raise AssertionError(f"witness edge {e} is not in the hypergraph")
    if not _disjoint(edges):
        raise AssertionError("witness edges share a vertex")


# ---------------------------------------------------------------------------
# Rainbow matchings


def find_rainbow_matching(F, target=None, *, node_budget=DEFAULT_NODE_BUDGET):
    """Largest set of disjoint edges using pairwise distinct family members.

    Reduces to maximum matching of the member-indexed hypergraph: a rainbow
    matching of size t exists iff that hypergraph has a matching of size t.
    The witness is the tuple of (member index, edge) choices, sorted by
    member, read off the matching's edge triples.
    """
    if target is not None and target > len(F.members):
        raise ValueError("target exceeds the number of family members")
    H = family_to_hypergraph(F)
    result = max_matching_size(H, target=target, node_budget=node_budget)
    witness = tuple(sorted((c, (a, b)) for a, b, c in result.witness))
    _validate_rainbow(F, witness, result.optimum)
    return SolveResult(optimum=result.optimum, witness=witness, nodes_explored=result.nodes_explored)


def _validate_rainbow(F, witness, claimed):
    if len(witness) != claimed:
        raise AssertionError("rainbow witness size mismatch")
    members = [i for i, _ in witness]
    if len(set(members)) != len(members):
        raise AssertionError("rainbow witness repeats a family member")
    for i, edge in witness:
        if edge not in F.members[i].edges:
            raise AssertionError(f"edge {edge} not in member {i}")
    if not _disjoint([edge for _, edge in witness]):
        raise AssertionError("rainbow witness edges share a vertex")


# ---------------------------------------------------------------------------
# Bounded-multiplicity diagonals


def find_bounded_diagonal(L, bound, *, node_budget=DEFAULT_NODE_BUDGET):
    """Largest partial diagonal whose symbols each appear at most `bound` times.

    The witness is the tuple of the chosen (row, col) cells in row order,
    full or partial.  A full diagonal exists exactly when `optimum ==
    L.order`, and its columns in row order are then a permutation.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    n = L.order
    used_col = bytearray(n)
    sym_count = [0] * n
    nodes = 0
    best = 0
    best_cells = ()  # (row, col) cells, rows filled in increasing order
    cur = []

    def rec(row):
        nonlocal nodes, best, best_cells
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"diagonal search exceeded {node_budget} nodes", nodes=nodes)
        if len(cur) > best:
            best = len(cur)
            best_cells = tuple(cur)
        if row == n or best == n:
            return
        if len(cur) + (n - row) <= best:
            return
        for col in range(n):
            if used_col[col]:
                continue
            sym = L.cells[row][col]
            if sym_count[sym] >= bound:
                continue
            used_col[col] = 1
            sym_count[sym] += 1
            cur.append((row, col))
            rec(row + 1)
            cur.pop()
            sym_count[sym] -= 1
            used_col[col] = 0
            if best == n:
                return
        rec(row + 1)  # leave this row unused

    rec(0)
    _validate_diagonal(L, best_cells, bound, best)
    return SolveResult(optimum=best, witness=best_cells, nodes_explored=nodes)


def _validate_diagonal(L, cells, bound, claimed):
    if len(cells) != claimed:
        raise AssertionError("diagonal witness size mismatch")
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise AssertionError("diagonal witness repeats a row or column")
    counts = {}
    for r, c in cells:
        s = L.cells[r][c]
        counts[s] = counts.get(s, 0) + 1
        if counts[s] > bound:
            raise AssertionError("diagonal witness exceeds the symbol bound")


# ---------------------------------------------------------------------------
# Partial independent transversals


def find_independent_transversal(P, deficiency=0, *, node_budget=DEFAULT_NODE_BUDGET):
    """Maximum number of parts an independent set can meet.

    A branch-and-bound over the parts, in order, that holds the chosen
    vertices, the mask of their neighbours (`blocked`) and `met`, the parts
    met so far.  A part that a chosen vertex meets counts at once; otherwise
    each of its vertices not in `blocked` is tried, lowest first, and then
    the part is left unmet.  A branch is pruned when `met` plus the parts
    left cannot beat the best count, and the search stops once every part
    is met; vertices in no part are never branched on.  Feasibility for a
    deficiency d means optimum >= (number of parts) - d.

    Why it is exact.  Every independent set S is reached with `met` equal
    to its coverage: at each part not yet met, choose the lowest vertex of S
    in it (unblocked, as S is independent), or leave the part unmet when S
    misses it.  And `met` never exceeds the coverage of the vertices chosen,
    since each count is a distinct part they meet.  A pruned branch cannot
    end above `met` plus the parts left, so the best count is the optimum.
    """
    if deficiency < 0:
        raise ValueError("deficiency must be non-negative")
    if deficiency > len(P.parts):
        raise ValueError("deficiency exceeds the number of parts")
    adj = P.graph.adj
    part_masks = P.part_masks
    m = len(part_masks)
    nodes = 0
    best = 0
    best_set = 0

    def rec(i, chosen, blocked, met):
        nonlocal nodes, best, best_set
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"transversal search exceeded {node_budget} nodes", nodes=nodes)
        while i < m and part_masks[i] & chosen:
            met += 1
            i += 1
        if met > best:
            best = met
            best_set = chosen
        if i == m or met + (m - i) <= best:
            return
        free = part_masks[i] & ~blocked
        while free:
            b = free & -free
            free ^= b
            rec(i + 1, chosen | b, blocked | adj[b.bit_length() - 1], met + 1)
            if best == m:
                return
        rec(i + 1, chosen, blocked, met)

    rec(0, 0, 0, 0)
    witness = tuple(vertices_of(best_set))
    _validate_transversal(P, witness, best)
    return SolveResult(optimum=best, witness=witness, nodes_explored=nodes)


def _validate_transversal(P, vertices, claimed):
    chosen = set(vertices)
    for u, v in P.graph.edges:
        if u in chosen and v in chosen:
            raise AssertionError("transversal witness is not independent")
    covered = sum(1 for p in P.parts if chosen & p)
    if covered != claimed:
        raise AssertionError("transversal witness coverage mismatch")
