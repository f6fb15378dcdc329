"""Independence complexes and exact reduced rational homology.

Betti numbers are computed from boundary-matrix ranks of the augmented
chain complex (the empty face is a genuine face of dimension -1, and the
boundary of a vertex is the empty face).  Each boundary map is built as
sparse columns with +-1 entries and reduced by sparse elimination that
prefers unit pivots; every step stays in the integers, so ranks are exact
over the rationals and no floating point is involved anywhere.  The dense
Bareiss and Fraction eliminations live in oracle.py as cross-checks.

The maps are ranked bottom-up, d_0 first, and each is built with clearing
(Chen and Kerber, "Persistent homology computation with a twist", EuroCG
2011, in its low-to-high direction): the pivot columns P_j of d_j, which
are j-faces, are left out of d_(j+1) as rows.  This keeps the rank exact:
P_j is a column basis of d_j, so the kernel of d_j meets the span of the
e_f, f in P_j, only in 0; the image of d_(j+1) lies in that kernel, so
deleting the rows P_j from d_(j+1) is injective on its image.  d_(j+1) then
has n_j - r_j = r_(j+1) + b_j rows instead of n_j.  Betti numbers come out
one at a time, lowest first, so `eta_homological` stops at the first
nonzero one and never builds or ranks the maps above its answer.

For a graph, `graph_eta` reduces on the adjacency bitmasks before any face
is built.  Each rule preserves reduced rational homology, so each is exact:

- Join: I(G1 + G2) is the join I(G1) * I(G2), and over a field the Kunneth
  formula for joins (Milnor, "Construction of universal bundles II", Ann.
  Math. 1956) gives eta(G1 + G2) = eta(G1) + eta(G2).
- Cone: a vertex without neighbours is a cone point, so eta is infinite.
- Clique: I(K_m) is m points, so eta(K_m) = 1 for m >= 2.
- Fold: if N(u) is contained in N(v) for u != v, then I(G) and I(G - v) are
  homotopy equivalent (Engstrom, "Independence complexes of claw-free
  graphs", Eur. J. Combin. 2008).
- Cycle: I(C_k) is a sphere of dimension ceil(k / 3) - 1 for k not a
  multiple of 3, and a wedge of two spheres of dimension k / 3 - 1 for k a
  multiple of 3 (Kozlov, "Complexes of directed trees", J. Combin. Theory
  Ser. A 1999), so eta(C_k) = floor((k + 1) / 3).

Only a component with no rule left is ranked through its complex, of at
most `FACE_LIMIT` faces (a module constant read at each call; beyond it
BudgetExceededError is raised).  A path folds down to disjoint edges and at
most one isolated vertex, which gives Kozlov's closed form for paths
without a face too.
"""

from dataclasses import dataclass
from itertools import chain, combinations
from math import gcd

from .errors import BudgetExceededError
from .structures import (
    INFINITY, _built, component, graph_from_masks, induced_masks, vertices_of)

FACE_LIMIT = 200_000


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces grouped by dimension; faces[k] holds the (k-1)-dimensional faces.

    The empty face is always present (faces[0] == ((),)); the void complex
    with no faces at all is rejected.
    """

    faces: tuple

    def __post_init__(self):
        groups = tuple(
            tuple(sorted([tuple(sorted(map(int, f))) for f in group]))
            for group in self.faces
        )
        if not groups or groups[0] != ((),):
            raise ValueError("complex must contain exactly the empty face at dimension -1")
        for k, group in enumerate(groups):
            for f in group:
                if len(f) != k:
                    raise ValueError(f"face {f} stored at wrong dimension")
                if len(set(f)) != len(f):
                    raise ValueError(f"face {f} repeats a vertex")
        face_set = set(chain.from_iterable(groups))
        for group in groups[1:]:
            for f in group:
                for i in range(len(f)):
                    if f[:i] + f[i + 1 :] not in face_set:
                        raise ValueError(f"complex not closed downward at {f}")
        object.__setattr__(self, "faces", groups)

    @classmethod
    def from_faces(cls, faces):
        """Downward closure of an arbitrary iterable of faces."""
        by_size = {0: {()}}
        for f in faces:
            f = tuple(sorted(set(int(x) for x in f)))
            for k in range(len(f) + 1):
                for sub in combinations(f, k):
                    by_size.setdefault(k, set()).add(sub)
        top = max(by_size)
        groups = [tuple(sorted(by_size.get(k, set()))) for k in range(top + 1)]
        return cls(tuple(groups))

    @property
    def dimension(self):
        return len(self.faces) - 2

    def faces_of_dim(self, j):
        """Faces of dimension j (j = -1 gives the empty face)."""
        k = j + 1
        if 0 <= k < len(self.faces):
            return self.faces[k]
        return ()

    def face_counts(self):
        """Counts n_j for j = -1 .. dimension."""
        return tuple(len(g) for g in self.faces)


@dataclass(frozen=True)
class BettiVector:
    """Reduced rational Betti numbers for j = -1, 0, ..., dim."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if any(v < 0 for v in self.values):
            raise ValueError("Betti numbers are non-negative")

    def all_zero(self):
        return all(v == 0 for v in self.values)


def independence_complex(G):
    """All independent sets of a graph, as a simplicial complex.

    The faces are grown depth first, each by a vertex above its last one,
    so every face is an increasing tuple of ints, each face's prefixes come
    before it, and the faces of one size come in lexicographic order.  Every
    face minus a vertex is independent too, and is reached, so the set is
    closed downward.  That is what `SimplicialComplex.__post_init__` would
    check and sort for, so the complex is built without that second pass.
    More than `FACE_LIMIT` faces raise BudgetExceededError.
    """
    adj = G.adj
    limit = FACE_LIMIT
    groups = {0: [()]}
    count = 1

    def extend(face, face_mask, start):
        nonlocal count
        for v in range(start, G.n):
            if adj[v] & face_mask:
                continue
            count += 1
            if count > limit:
                raise BudgetExceededError(f"face count exceeded {limit}")
            nxt = face + (v,)
            groups.setdefault(len(nxt), []).append(nxt)
            extend(nxt, face_mask | 1 << v, v + 1)

    extend((), 0, 0)
    # a face of size k + 1 extends one of size k, so the sizes are 0..len - 1
    return _built(SimplicialComplex, faces=tuple(tuple(groups[k]) for k in range(len(groups))))


def _boundary_columns(C, j, cleared=()):
    """The boundary map from j-chains to (j-1)-chains as sparse columns.

    The column of a j-face f maps the row of f minus its i-th vertex to
    (-1)**i; rows and columns are numbered as in boundary_matrix.  The rows
    in `cleared`, indices of (j-1)-faces, are left out: `_betti_numbers`
    passes the pivot columns of the map from (j-1)-chains, which keeps the
    rank (see the module docstring).
    """
    rows = C.faces_of_dim(j - 1)
    row_index = {f: i for i, f in enumerate(rows)}
    for i in cleared:
        del row_index[rows[i]]
    columns = []
    for face in C.faces_of_dim(j):
        column = {}
        sign = 1
        for i in range(len(face)):
            r = row_index.get(face[:i] + face[i + 1 :])
            if r is not None:
                column[r] = sign
            sign = -sign
        columns.append(column)
    return columns


def boundary_matrix(C, j):
    """Matrix of the boundary map from j-chains to (j-1)-chains.

    Rows are the (j-1)-faces, columns the j-faces, both in lexicographic
    order; a vertex maps to the empty face with coefficient +1.
    """
    matrix = [[0] * len(C.faces_of_dim(j)) for _ in C.faces_of_dim(j - 1)]
    for ci, column in enumerate(_boundary_columns(C, j)):
        for ri, entry in column.items():
            matrix[ri][ci] = entry
    return matrix


def _pivots(cols):
    """The pivot columns of an integer matrix given as sparse columns.

    Each column maps a row index to its nonzero entry; the list of columns
    is consumed.  Every pivot clears its row from all other columns and
    retires its own column, so there are at most as many pivots as columns,
    and each sweep over the pending columns takes at least one.  A unit
    pivot (+-1) is taken whenever a column holds one, in the row shared by
    the fewest columns; it keeps every step integral without division.
    Only when no pending column holds a unit is the pivot the smallest entry
    of a column; each other column c is then replaced by a*c - b*pivot
    column and divided by its content (the gcd of its entries).

    A column changes only by a nonzero scaling and by adding multiples of
    columns already pivoted, and each pivot owns a row that every later
    column has cleared; so the original pivot columns are linearly
    independent over the rationals, every other column lies in their span,
    and their count is the rank.
    """
    rows = {}  # row index -> the columns with an entry in that row
    for c, column in enumerate(cols):
        for r in column:
            rows.setdefault(r, set()).add(c)
    pivots = []
    pending = [c for c, column in enumerate(cols) if column]
    while pending:
        stuck = []
        for c in pending:
            column = cols[c]
            pivot, shared = None, 0
            for r, a in column.items():
                if (a == 1 or a == -1) and (pivot is None or len(rows[r]) < shared):
                    pivot, shared = r, len(rows[r])
            if pivot is not None:
                _eliminate(cols, rows, c, pivot)
                pivots.append(c)
            elif column:
                stuck.append(c)
        if stuck == pending:  # no unit pivot remains, and no column changed
            c = stuck.pop(0)
            column = cols[c]
            _eliminate(cols, rows, c, min(column, key=lambda r: abs(column[r])))
            pivots.append(c)
        pending = stuck
    return pivots


def _eliminate(cols, rows, c, r):
    """Clear row r from every other column with pivot cols[c][r]; retire both."""
    pivot_column = cols[c]
    p = pivot_column[r]
    unit = p == 1 or p == -1
    for o in rows.pop(r):
        if o == c:
            continue
        column = cols[o]
        if unit:
            b = column[r] * p
        else:
            g = gcd(p, column[r])
            a, b = p // g, column[r] // g
            if a != 1:
                for t in column:
                    column[t] *= a
        for t, x in pivot_column.items():
            value = column.get(t, 0) - b * x
            if value:
                if t not in column:
                    rows[t].add(o)
                column[t] = value
            else:
                del column[t]
                if t != r:
                    rows[t].discard(o)
        if not unit:
            content = gcd(*column.values())
            if content > 1:
                for t in column:
                    column[t] //= content
    for t in pivot_column:
        if t != r:
            rows[t].discard(c)
    cols[c] = {}


def _betti_numbers(C):
    """Yield the reduced Betti numbers b_-1, b_0, ..., b_dim of C in order.

    b_j = n_j - r_j - r_(j+1), where r_j is the rank of the map from
    j-chains (r_-1 = 0).  The map from (j+1)-chains is built only when b_j
    is asked for, without the rows that the pivots of the map from j-chains
    clear.
    """
    counts = C.face_counts()
    rank, cleared = 0, ()
    for j in range(-1, C.dimension + 1):
        pivots = _pivots(_boundary_columns(C, j + 1, cleared))
        yield counts[j + 1] - rank - len(pivots)
        rank, cleared = len(pivots), pivots


def betti(C):
    """Reduced rational Betti numbers via exact, cleared boundary ranks."""
    return BettiVector(tuple(_betti_numbers(C)))


def euler_characteristic_check(C, bv):
    """Alternating face-count sum equals alternating Betti sum (reduced form)."""
    counts = C.face_counts()
    sign = lambda k: -1 if (k - 1) % 2 else 1
    lhs = sum(sign(k) * counts[k] for k in range(len(counts)))
    rhs = sum(sign(k) * bv.values[k] for k in range(len(bv.values)))
    return lhs == rhs


def eta_homological(C):
    """2 plus the largest k with vanishing reduced homology through dimension k.

    INFINITY when every reduced Betti number vanishes; 0 when already the
    (-1)-st fails (the one-face complex {{}}).  The Betti numbers are taken
    lowest first and the first nonzero one ends the search, so the boundary
    maps above it are never built.
    """
    for j, b in enumerate(_betti_numbers(C), start=-1):
        if b:
            return j + 1
    return INFINITY


def graph_eta(adj, mask):
    """eta of the independence complex of the graph induced on `mask`.

    `adj` holds the adjacency bitmasks of the graph (`Graph.adj`).  The
    mask is split into components (`structures.component`).  A one-vertex
    component makes I(G) a cone, so eta is INFINITY; a clique on m >= 2
    vertices contributes 1 (m points).  In any other component, a vertex v
    with N(u) contained in N(v) for some u != v is deleted (the fold lemma;
    such u and v are never adjacent), and what is left is split again.  A
    component with no fold whose every vertex has degree 2 is a cycle C_k
    and contributes Kozlov's floor((k + 1) / 3).  eta adds up over
    components, because I(G1 + G2) = I(G1) * I(G2) and a join adds eta over
    a field (INFINITY absorbs).  Only a component that no rule reduces is
    ranked, by `eta_homological` on its induced graph
    (`structures.induced_masks`), after every other component, with
    `FACE_LIMIT` faces at most (it raises BudgetExceededError beyond).
    """
    total = 0
    hard = []  # components no rule reduces
    pieces = [mask]
    while pieces:
        rest = pieces.pop()
        while rest:
            comp = component(adj, rest)
            rest ^= comp
            if not comp & (comp - 1):
                return INFINITY
            if _is_clique(adj, comp):
                total += 1
                continue
            v = _fold(adj, comp)
            if v:
                pieces.append(comp ^ v)
            elif _is_cycle(adj, comp):
                total += (comp.bit_count() + 1) // 3
            else:
                hard.append(comp)
    for comp in hard:
        graph = graph_from_masks(induced_masks(adj, comp))
        total += eta_homological(independence_complex(graph))
        if total == INFINITY:
            break
    return total


def _is_clique(adj, comp):
    return all(adj[v] & comp == comp ^ 1 << v for v in vertices_of(comp))


def _is_cycle(adj, comp):
    """comp is connected, so it is a cycle when every vertex has degree 2."""
    return all((adj[v] & comp).bit_count() == 2 for v in vertices_of(comp))


def _fold(adj, comp):
    """The bit of a vertex v of comp with N(u) <= N(v) for some u != v, or 0.

    comp is connected with at least two vertices, so N(u) is not empty, and
    v must neighbour the lowest vertex w of N(u): only those are tried.
    """
    for u in vertices_of(comp):
        nu = adj[u] & comp
        w = (nu & -nu).bit_length() - 1
        for v in vertices_of(adj[w] & comp ^ 1 << u):
            if not nu & ~adj[v]:
                return 1 << v
    return 0


def topological_hall_subsets(P, deficiency=0):
    """Yield (members, eta, ok) for every subset I of the parts, in mask order.

    The connectivity hypothesis asks that the independence complex of the
    graph induced on the union of the parts in I has eta at least
    |I| - deficiency; `ok` says whether this subset meets it.  Being lazy,
    a caller that only needs the hypothesis can stop at the first failure.
    Each eta is computed within FACE_LIMIT faces.
    """
    m = len(P.parts)
    for mask in range(1 << m):
        members = tuple(i for i in range(m) if mask >> i & 1)
        union = 0
        for i in members:
            union |= P.part_masks[i]
        eta = graph_eta(P.graph.adj, union)
        yield members, eta, eta >= len(members) - deficiency
