"""Independent brute-force oracles used to cross-check the exact solvers.

Everything here is deliberately naive: plain exhaustive enumeration straight
from the definitions, with none of the ordering heuristics, bounds,
canonicalization or memoization the production solvers use.  Tests and the
verification harness compare solver answers against these.
"""

from fractions import Fraction

from .structures import Graph, INFINITY

ORACLE_EDGE_LIMIT = 22
ORACLE_VERTEX_LIMIT = 22


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

    rec(0, 0, 0)
    return best


def rainbow_oracle(F, limit=None):
    """Maximum rainbow matching size by trying every member/edge choice."""
    members = [sorted(m.edges) for m in F.members]
    cap = len(members) if limit is None else limit
    best = 0

    def rec(i, used_left, used_right, size):
        nonlocal best
        if size > best:
            best = size
        if i == len(members) or size == cap:
            return
        if size + (len(members) - i) <= best:
            return
        rec(i + 1, used_left, used_right, size)
        for u, w in members[i]:
            if u in used_left or w in used_right:
                continue
            rec(i + 1, used_left | {u}, used_right | {w}, size + 1)

    rec(0, frozenset(), frozenset(), 0)
    return best


def psi_oracle(graph):
    """Game value by unmemoized recursion straight from the definition."""
    if graph.n > 12:
        raise ValueError("oracle limited to 12 vertices")
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

    return val((1 << graph.n) - 1, tuple(edge_items))


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

    rec(0, frozenset(), {}, 0)
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
