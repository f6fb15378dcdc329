"""Independence complexes and exact reduced rational homology.

Betti numbers are computed from boundary-matrix ranks of the augmented
chain complex (the empty face is a genuine face of dimension -1, and the
boundary of a vertex is the empty face).  Ranks use fraction-free integer
elimination, so no floating point is involved anywhere.
"""

from dataclasses import dataclass, field

from .errors import BudgetExceededError
from .structures import Graph, INFINITY

DEFAULT_FACE_LIMIT = 200_000


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces grouped by dimension; faces[k] holds the (k-1)-dimensional faces.

    The empty face is always present (faces[0] == ((),)); the void complex
    with no faces at all is rejected.
    """

    faces: tuple

    def __post_init__(self):
        groups = tuple(
            tuple(sorted(tuple(sorted(int(x) for x in f)) for f in group))
            for group in self.faces
        )
        if not groups or groups[0] != ((),):
            raise ValueError("complex must contain exactly the empty face at dimension -1")
        face_set = set()
        for k, group in enumerate(groups):
            for f in group:
                if len(f) != k:
                    raise ValueError(f"face {f} stored at wrong dimension")
                if len(set(f)) != len(f):
                    raise ValueError(f"face {f} repeats a vertex")
                face_set.add(f)
        for group in groups:
            for f in group:
                for i in range(len(f)):
                    sub = f[:i] + f[i + 1 :]
                    if sub not in face_set:
                        raise ValueError(f"complex not closed downward at {f}")
        object.__setattr__(self, "faces", groups)

    @classmethod
    def from_faces(cls, faces):
        """Downward closure of an arbitrary iterable of faces."""
        import itertools

        by_size = {0: {()}}
        for f in faces:
            f = tuple(sorted(set(int(x) for x in f)))
            for k in range(len(f) + 1):
                for sub in itertools.combinations(f, k):
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

    def get(self, j):
        k = j + 1
        if 0 <= k < len(self.values):
            return self.values[k]
        return 0

    def all_zero(self):
        return all(v == 0 for v in self.values)


def independence_complex(G, face_limit=DEFAULT_FACE_LIMIT):
    """All independent sets of a graph, as a simplicial complex."""
    adj = [0] * G.n
    for u, v in G.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    groups = {0: [()]}
    count = 1

    def extend(face, face_mask, start):
        nonlocal count
        for v in range(start, G.n):
            if adj[v] & face_mask:
                continue
            count += 1
            if count > face_limit:
                raise BudgetExceededError(f"face count exceeded {face_limit}")
            nxt = face + (v,)
            groups.setdefault(len(nxt), []).append(nxt)
            extend(nxt, face_mask | 1 << v, v + 1)

    extend((), 0, 0)
    top = max(groups)
    return SimplicialComplex(tuple(tuple(sorted(groups.get(k, []))) for k in range(top + 1)))


def _integer_rank(rows):
    """Rank of an integer matrix by one-step fraction-free elimination."""
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


def boundary_matrix(C, j):
    """Matrix of the boundary map from j-chains to (j-1)-chains.

    Rows are the (j-1)-faces, columns the j-faces, both in lexicographic
    order; a vertex maps to the empty face with coefficient +1.
    """
    cols = C.faces_of_dim(j)
    rows = C.faces_of_dim(j - 1)
    row_index = {f: i for i, f in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for ci, face in enumerate(cols):
        for i in range(len(face)):
            sub = face[:i] + face[i + 1 :]
            matrix[row_index[sub]][ci] = (-1) ** i
    return matrix


def betti(C):
    """Reduced rational Betti numbers via exact boundary ranks."""
    dim = C.dimension
    counts = C.face_counts()
    ranks = {}
    for j in range(0, dim + 1):
        ranks[j] = _integer_rank(boundary_matrix(C, j))
    ranks[dim + 1] = 0
    values = []
    for j in range(-1, dim + 1):
        n_j = counts[j + 1]
        rank_j = ranks.get(j, 0)  # the map from (-1)-chains is zero
        values.append(n_j - rank_j - ranks[j + 1])
    return BettiVector(tuple(values))


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
    (-1)-st fails (the one-face complex {{}}).
    """
    bv = betti(C)
    if bv.all_zero():
        return INFINITY
    for j in range(-1, C.dimension + 1):
        if bv.get(j) != 0:
            return j + 1
    raise AssertionError("unreachable: some Betti number is nonzero")


@dataclass(frozen=True)
class TopologicalHallReport:
    """Outcome of checking the connectivity hypothesis against a transversal."""

    deficiency: int
    hypothesis_holds: bool
    conclusion_holds: bool
    violated: bool
    subset_values: tuple = field(default=())
    optimum: int = 0


def topological_hall_subsets(P, deficiency=0, face_limit=DEFAULT_FACE_LIMIT):
    """Yield (members, eta, ok) for every subset I of the parts, in mask order.

    The connectivity hypothesis asks that the independence complex of the
    graph induced on the union of the parts in I has eta at least
    |I| - deficiency; `ok` says whether this subset meets it.  Being lazy,
    a caller that only needs the hypothesis can stop at the first failure.
    """
    m = len(P.parts)
    for mask in range(1 << m):
        members = tuple(i for i in range(m) if mask >> i & 1)
        union = set()
        for i in members:
            union |= set(P.parts[i])
        sub = _induced_graph(P.graph, sorted(union))
        eta = eta_homological(independence_complex(sub, face_limit))
        yield members, eta, eta >= len(members) - deficiency


def check_topological_hall(P, deficiency=0, face_limit=DEFAULT_FACE_LIMIT):
    """Evaluate the connectivity hypothesis and the transversal conclusion.

    The hypothesis holds when every subset of the parts meets it (see
    topological_hall_subsets).  The conclusion asks for an independent set
    meeting at least m - deficiency of the m parts.  A report with
    violated=True would falsify the implication (or expose a bug).
    """
    from .solver import find_independent_transversal

    subset_values = tuple(topological_hall_subsets(P, deficiency, face_limit))
    hypothesis = all(ok for _, _, ok in subset_values)
    result = find_independent_transversal(P, deficiency=deficiency)
    conclusion = result.optimum >= len(P.parts) - deficiency
    return TopologicalHallReport(
        deficiency=deficiency,
        hypothesis_holds=hypothesis,
        conclusion_holds=conclusion,
        violated=hypothesis and not conclusion,
        subset_values=subset_values,
        optimum=result.optimum,
    )


def _induced_graph(G, vertices):
    relabel = {v: i for i, v in enumerate(vertices)}
    keep = set(vertices)
    edges = frozenset(
        (relabel[u], relabel[v]) for u, v in G.edges if u in keep and v in keep
    )
    return Graph(len(vertices), edges)
