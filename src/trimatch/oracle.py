"""Independent brute-force oracles used to cross-check the exact solvers.

Everything here is deliberately naive: plain exhaustive enumeration straight
from the definitions, with none of the ordering heuristics, bounds,
canonicalization or memoization the production solvers use.  Tests and the
verification harness compare solver answers against these.  Like the
solvers, each recursive search unbinds itself when it ends, so an oracle
call leaves no reference cycle behind.
"""

import itertools
from fractions import Fraction

from .structures import Graph, INFINITY

ORACLE_EDGE_LIMIT = 22
ORACLE_VERTEX_LIMIT = 22
PSI_ORACLE_VERTEX_LIMIT = 12


def matching_number_oracle(H):
    """Maximum matching size by enumerating every conflict-free edge subset."""
    edges = H.support()
    if len(edges) > ORACLE_EDGE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_EDGE_LIMIT} distinct edges")
    sa, sb, sc = H.side_sizes
    masks = [
        (1 << a) | (1 << (sa + b)) | (1 << (sa + sb + c)) for a, b, c in edges
    ]
    best = 0

    def rec(i, used, size):
        nonlocal best
        if size > best:
            best = size
        for j in range(i, len(masks)):
            if masks[j] & used:
                continue
            rec(j + 1, used | masks[j], size + 1)

    try:
        rec(0, 0, 0)
    finally:
        rec = None
    return best


def rainbow_oracle(F):
    """Maximum rainbow matching size by trying every member/edge choice."""
    members = [sorted(m.edges) for m in F.members]
    best = 0

    def rec(i, used_left, used_right, size):
        nonlocal best
        if size > best:
            best = size
        if i == len(members):
            return
        if size + (len(members) - i) <= best:
            return
        rec(i + 1, used_left, used_right, size)
        for u, w in members[i]:
            if u in used_left or w in used_right:
                continue
            rec(i + 1, used_left | {u}, used_right | {w}, size + 1)

    try:
        rec(0, frozenset(), frozenset(), 0)
    finally:
        rec = None
    return best


def psi_oracle(graph):
    """Game value by unmemoized recursion straight from the definition."""
    if graph.n > PSI_ORACLE_VERTEX_LIMIT:
        raise ValueError(f"oracle limited to {PSI_ORACLE_VERTEX_LIMIT} vertices")
    edge_items = []
    for u, v in sorted(graph.edges):
        edge_items.append((u, v, (1 << u) | (1 << v)))

    def val(vmask, edges):
        if vmask == 0:
            return 0
        covered = 0
        for _, _, m in edges:
            covered |= m
        if vmask & ~covered:
            return INFINITY
        best = 0
        for i, (u, v, m) in enumerate(edges):
            deleted = val(vmask, edges[:i] + edges[i + 1 :])
            removed = m
            for _, _, m2 in edges:
                if m2 & m:
                    removed |= m2
            exploded = val(
                vmask & ~removed,
                tuple(e for e in edges if not e[2] & removed),
            )
            cand = min(deleted, exploded + 1)
            if cand > best:
                best = cand
        return best

    try:
        return val((1 << graph.n) - 1, tuple(edge_items))
    finally:
        val = None


def canonical_key_oracle(n, edges, colours=None):
    """The smallest (sorted edge list, colour of each vertex) over all n!
    relabellings of a graph, all vertices of colour 0 if `colours` is None.

    Two graphs on vertices 0..n-1 get equal keys iff some isomorphism maps
    every vertex to one of the same colour.
    """
    if n > 7:
        raise ValueError("oracle limited to 7 vertices")
    edges = [(int(u), int(v)) for u, v in edges]
    colours = [0] * n if colours is None else list(colours)
    return min(
        (tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges)),
         tuple(c for _, c in sorted(zip(p, colours))))
        for p in itertools.permutations(range(n))
    )


def automorphism_group_oracle(adj, cells):
    """Every permutation of the vertices of `adj` (adjacency bitmasks) that
    maps each cell of `cells` (vertex bitmasks) onto itself and keeps every
    adjacency, as a set of tuples with perm[v] the image of v."""
    n = len(adj)
    if n > 7:
        raise ValueError("oracle limited to 7 vertices")
    cell_of = [next(i for i, cell in enumerate(cells) if cell >> v & 1) for v in range(n)]
    return {
        perm for perm in itertools.permutations(range(n))
        if all(cell_of[perm[v]] == cell_of[v] for v in range(n))
        and all(sum(1 << perm[u] for u in range(n) if adj[v] >> u & 1) == adj[perm[v]]
                for v in range(n))
    }


def equitable_refinement_oracle(adj, cells):
    """The coarsest equitable refinement of the vertex partition `cells`
    (bitmasks over the vertices of `adj`), as a set of frozensets.

    Each round splits every part by the tuple of neighbour counts of its
    vertices into every part, until a round splits nothing.  Only splits
    that every equitable refinement must make are made, so the result is
    the coarsest one; it is unique as a set partition.
    """
    n = len(adj)
    nbrs = [[u for u in range(n) if adj[v] >> u & 1] for v in range(n)]
    parts = [frozenset(v for v in range(n) if cell >> v & 1) for cell in cells]
    while True:
        part_of = {v: i for i, part in enumerate(parts) for v in part}
        split = []
        for part in parts:
            by_counts = {}
            for v in part:
                counts = [0] * len(parts)
                for u in nbrs[v]:
                    counts[part_of[u]] += 1
                by_counts.setdefault(tuple(counts), set()).add(v)
            split.extend(frozenset(group) for group in by_counts.values())
        if len(split) == len(parts):
            return set(parts)
        parts = split


def diagonal_oracle(L, bound):
    """Largest bounded partial diagonal by unpruned row-by-row search."""
    n = L.order
    if n > 8:
        raise ValueError("oracle limited to order 8")
    best = 0

    def rec(row, used_cols, counts, size):
        nonlocal best
        if size > best:
            best = size
        if row == n:
            return
        rec(row + 1, used_cols, counts, size)
        for col in range(n):
            if col in used_cols:
                continue
            sym = L.cells[row][col]
            if counts.get(sym, 0) >= bound:
                continue
            nxt = dict(counts)
            nxt[sym] = nxt.get(sym, 0) + 1
            rec(row + 1, used_cols | {col}, nxt, size + 1)

    try:
        rec(0, frozenset(), {}, 0)
    finally:
        rec = None
    return best


def transversal_oracle(P):
    """Maximum part coverage by checking every vertex subset."""
    n = P.graph.n
    if n > ORACLE_VERTEX_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_VERTEX_LIMIT} vertices")
    adj = [0] * n
    for u, v in P.graph.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    part_masks = []
    for p in P.parts:
        m = 0
        for v in p:
            m |= 1 << v
        part_masks.append(m)
    best = 0
    for subset in range(1 << n):
        ok = True
        mm = subset
        while mm:
            b = mm & -mm
            v = b.bit_length() - 1
            mm ^= b
            if adj[v] & subset:
                ok = False
                break
        if not ok:
            continue
        cov = sum(1 for pm in part_masks if pm & subset)
        if cov > best:
            best = cov
    return best


def rational_rank_oracle(rows):
    """Matrix rank over the rationals by plain Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col]
        for r in range(row + 1, n_rows):
            if m[r][col] == 0:
                continue
            factor = m[r][col] / inv
            m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def bareiss_rank_oracle(rows):
    """Matrix rank by dense one-step fraction-free (Bareiss) elimination.

    The fast twin of rational_rank_oracle: integer arithmetic only, but still
    dense, so it touches every cell of the matrix.
    """
    m = [row[:] for row in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(row + 1, n_rows):
            factor = m[r][col]
            if factor == 0 and prev == 1:
                continue
            mr, mp = m[r], m[row]
            for c in range(col, n_cols):
                mr[c] = (mr[c] * pv - factor * mp[c]) // prev
        prev = pv
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank
