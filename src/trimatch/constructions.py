"""Generators for extremal constructions and random hypothesis-satisfying
instances.

Deterministic generators are pure functions of their parameters; random
generators are pure functions of (parameters, seed).  Each kind of object
that needs a backtracking search has exactly one: `regular_completions`
builds regular hypergraphs (the exhaustive regular sweep), and
`latin_squares` fills Latin squares (the exhaustive stream, and with an
rng `random_latin`, up to order RANDOM_LATIN_CAP); the pinned-corner
construction `gen_fracd_sharp` is closed-form.  A random draw such as
`random_latin(n, rng)` makes one object from the caller's rng, so a
seeded stream is a loop of draws on one rng.  Exhaustive streams emit in
lexicographic order, one object at a time.  Every generator's output is
validated against the hypothesis it targets by the tests, not assumed.
"""

import functools
import itertools
import random

from .errors import BudgetExceededError, ConstructionError
from .structures import (
    BipartiteGraph,
    Graph,
    LatinSquare,
    Matching,
    MatchingFamily,
    PartitionedGraph,
    TriHypergraph,
    _built,
)

# the largest orders of the exhaustive square streams; the verifier's
# CAMWAN_1_10 and STRONG_CAMWAN_1_12 sweeps share them
EXHAUSTIVE_LATIN_CAP = 5
EXHAUSTIVE_ROW_LATIN_CAP = 4

# the largest order `random_latin` draws: its fill recurses n * n deep, and
# past this order some seeds backtrack for seconds (one of 40 at order 24)
# and from order 32 every draw exceeds Python's recursion limit
RANDOM_LATIN_CAP = 22

# nodes regular_completions may visit before it gives up
COMPLETION_NODE_BUDGET = 2_000_000

# repair passes and draws a random generator may take before it gives up
REPAIR_PASSES = 10_000
REGULAR_SIMPLE_ATTEMPTS = 200


def _cycle_host(n):
    """C_{2n} as a bipartite graph: left i joins right i and right i-1.
    Callers pass n >= 1, so it is built without the second check."""
    edges = frozenset((i, i) for i in range(n)) | frozenset(((i + 1) % n, i) for i in range(n))
    return _built(BipartiteGraph, left_size=n, right_size=n, edges=edges)


def cycle_even_matching(n):
    return _built(Matching, edges=frozenset((i, i) for i in range(n)))


def cycle_odd_matching(n):
    return _built(Matching, edges=frozenset(((i + 1) % n, i) for i in range(n)))


def gen_drisko_extremal(n):
    """2n-2 matchings of size n in C_{2n} with no rainbow matching of size n.

    The family repeats the even-edge matching and the odd-edge matching of
    the cycle n-1 times each.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    host = _cycle_host(n)
    even = cycle_even_matching(n)
    odd = cycle_odd_matching(n)
    members = tuple([even] * (n - 1) + [odd] * (n - 1))
    return MatchingFamily(host, members)


def gen_accommodating_counterexample(a, n):
    """A family with |F_i| >= a_i and no rainbow matching of size n.

    Requires an ascending sequence of length 2n-1 with entries in [0, n]
    failing the accommodating threshold, i.e. a_k <= k-1 for some k <= n.
    The first n members are nested prefixes of the odd edges of C_{2n}, the
    rest are copies of the even-edge matching: every member is a matching
    of the host, so the family is built without the second check.
    """
    a = tuple(int(x) for x in a)
    if len(a) != 2 * n - 1:
        raise ValueError("sequence must have length 2n-1")
    if list(a) != sorted(a):
        raise ValueError("sequence must be ascending")
    if any(x < 0 or x > n for x in a):
        raise ValueError("entries must lie in [0, n]")
    if not any(a[k - 1] <= k - 1 for k in range(1, n + 1)):
        raise ConstructionError(
            "sequence is accommodating-shaped; no counterexample exists"
        )
    host = _cycle_host(n)
    even = cycle_even_matching(n)
    odd_edges = sorted(cycle_odd_matching(n).edges)
    members = []
    for i in range(1, n + 1):
        members.append(_built(Matching, edges=frozenset(odd_edges[: min(n, a[i - 1])])))
    for _ in range(n + 1, 2 * n):
        members.append(even)
    return _built(MatchingFamily, host=host, members=tuple(members))


def gen_p3_family(k):
    """2k matchings over 2k disjoint 3-edge paths; |F_i| >= i for all i.

    Member i <= k is the set of all middle edges; beyond that, middle edges
    are swapped pairwise for outer-edge pairs.  The largest rainbow matching
    has size floor(3k/2).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    copies = 2 * k
    edges = set()
    outer = []
    middle = []
    for j in range(copies):
        l0, l1 = 2 * j, 2 * j + 1
        r0, r1 = 2 * j, 2 * j + 1
        edges.update({(l0, r0), (l1, r0), (l1, r1)})
        outer.append(frozenset({(l0, r0), (l1, r1)}))
        middle.append((l1, r0))
    host = BipartiteGraph(2 * copies, 2 * copies, frozenset(edges))
    members = []
    base = frozenset(middle[:k])
    for i in range(1, k + 1):
        members.append(Matching(base))
    for i in range(k + 1, copies + 1):
        chosen = set()
        for j in range(i - k):
            chosen |= outer[j]
        for j in range(i - k, k):
            chosen.add(middle[j])
        members.append(Matching(frozenset(chosen)))
    return MatchingFamily(host, tuple(members))


def double_side_A(H):
    """Append a duplicate copy of side A; every edge gains a shifted twin."""
    a, b, c = H.side_sizes
    doubled = list(H.edges) + [(x + a, y, z) for x, y, z in H.edges]
    return TriHypergraph((2 * a, b, c), tuple(doubled))


def gen_fracd_sharp(n):
    """(2n-2)-regular simple hypergraph on sides of size n with nu = n-1.

    Three forced stars pin vertex 0 of each side: their edges (0, 0, x),
    (0, x, 0) and (x, 0, 0) for x = 1..n-1 give each 0-vertex degree 2n-2
    and each other vertex degree 1.  Every forced edge holds two of the
    three 0-vertices, so a matching takes at most one forced edge, leaves
    some 0-vertex uncovered and has at most n-1 edges.  The rest are the
    first 2n-3 cyclic layers {(1+i, 1+(i+s) mod (n-1), 1+(i+t) mod (n-1))}
    of {1..n-1}^3, taking (s, t) in lexicographic order.  Distinct layers
    are disjoint perfect matchings of that grid, so the result is simple
    and every vertex reaches degree 2n-2; one layer alone is a matching of
    size n-1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    forced = []
    for x in range(1, n):
        forced.append((0, 0, x))
        forced.append((0, x, 0))
        forced.append((x, 0, 0))
    m = n - 1
    shifts = itertools.islice(itertools.product(range(m), repeat=2), 2 * n - 3)
    layers = [(1 + i, 1 + (i + s) % m, 1 + (i + t) % m) for s, t in shifts for i in range(m)]
    return TriHypergraph((n, n, n), tuple(forced + layers))


def enumerate_regular_simple(n, d):
    """Every simple d-regular tripartite hypergraph with sides of size n,
    one at a time, in the order of `regular_completions`."""
    vertices = range(n)
    candidates = list(itertools.product(vertices, repeat=3))
    need = {(side, v): d for side in range(3) for v in vertices}
    for edges in regular_completions(candidates, need):
        yield TriHypergraph((n, n, n), edges)


def regular_completions(candidates, need):
    """Every subset of the candidate triples that meets an exact degree.

    `need` maps each (side, vertex) that a candidate touches to the number
    of chosen triples that must contain it.  Subsets are yielded as tuples
    in include-first lexicographic order: the search takes or skips each
    candidate in turn, taking first.  A branch is cut once some (side,
    vertex) needs more triples than the remaining candidates hold; only the
    three keys of the candidate just passed can newly fail that test.
    Raises BudgetExceededError past COMPLETION_NODE_BUDGET search nodes.
    Unlike the solvers' searches, the generator `rec` is not unbound when
    the stream ends, so each stream leaves one small reference cycle for
    the collector; there is one stream per sweep, not one per instance.
    """
    index = {key: i for i, key in enumerate(need)}
    deficit = list(need.values())
    keys = [tuple(index[key] for key in enumerate(t)) for t in candidates]
    avail = [0] * len(deficit)  # per key: the candidates not yet passed
    for ks in keys:
        for k in ks:
            avail[k] += 1
    if any(a < d for a, d in zip(avail, deficit)):
        return
    left = sum(deficit)
    chosen = []
    nodes = 0

    def rec(idx):
        # every key keeps deficit <= avail, so left is 0 by the last candidate
        nonlocal nodes, left
        nodes += 1
        if nodes > COMPLETION_NODE_BUDGET:
            raise BudgetExceededError("completion search exhausted its budget", nodes=nodes)
        if left == 0:
            yield tuple(chosen)
            return
        x, y, z = keys[idx]
        avail[x] -= 1
        avail[y] -= 1
        avail[z] -= 1
        if deficit[x] and deficit[y] and deficit[z]:
            deficit[x] -= 1
            deficit[y] -= 1
            deficit[z] -= 1
            left -= 3
            chosen.append(candidates[idx])
            yield from rec(idx + 1)
            chosen.pop()
            left += 3
            deficit[x] += 1
            deficit[y] += 1
            deficit[z] += 1
        if deficit[x] <= avail[x] and deficit[y] <= avail[y] and deficit[z] <= avail[z]:
            yield from rec(idx + 1)
        avail[x] += 1
        avail[y] += 1
        avail[z] += 1

    yield from rec(0)


# ---------------------------------------------------------------------------
# Latin square generators


def cyclic_latin(n):
    return LatinSquare(n, tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def _first(stream, count):
    """The first `count` objects of a stream, all of them if count is None;
    a negative count raises ValueError."""
    if count is None:
        return stream
    if count < 0:
        raise ValueError(f"count must not be negative, got {count}")
    return itertools.islice(stream, count)


def _square_stream(n, mode, seed, count, draw, exhaustive, cap):
    """The first `count` squares (all if None) of one mode's stream.

    `draw(n, rng)` makes one random square, and `exhaustive(n)` yields every
    square up to order `cap`.  A random stream without a count yields one.
    Only the random mode reads a seed: it requires one, and the cyclic and
    exhaustive modes reject one with a ValueError.
    """
    if mode in ("cyclic", "exhaustive") and seed is not None:
        raise ValueError(f"{mode} mode takes no seed, got {seed}")
    if mode == "cyclic":
        squares = [cyclic_latin(n)]
    elif mode == "random":
        if seed is None:
            raise ValueError("random mode requires a seed")
        rng = random.Random(seed)
        squares = (draw(n, rng) for _ in itertools.count())
        count = 1 if count is None else count
    elif mode == "exhaustive":
        if n > cap:
            raise ValueError(f"exhaustive stream capped at order {cap}")
        squares = exhaustive(n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    yield from _first(squares, count)


def gen_latin(n, mode, seed=None, count=None):
    """Stream of Latin squares: cyclic, seeded random, or exhaustive.

    The exhaustive stream yields every Latin square of order n exactly once,
    in lexicographic cell order; it is capped at order 5.
    """
    return _square_stream(n, mode, seed, count, random_latin, latin_squares,
                          EXHAUSTIVE_LATIN_CAP)


def random_latin(n, rng):
    """A random Latin square of order n: the first square of the shuffled fill.

    Raises ValueError for an order above RANDOM_LATIN_CAP or below 0.
    """
    if n > RANDOM_LATIN_CAP:
        raise ValueError(f"random Latin squares are capped at order {RANDOM_LATIN_CAP}, "
                         f"asked for {n}")
    return next(latin_squares(n, rng))


def latin_squares(n, rng=None):
    """Every Latin square of order n, filled cell by cell in row-major order.

    Without an rng each cell tries its symbols in increasing order, so the
    squares come in lexicographic cell order.  With an rng each cell's
    candidates are shuffled first, and the first square is a random one.
    Every cell is filled from range(n), so each square is an n x n grid of
    ints in [0, n), the grid `LatinSquare` checks for, and is built without
    that second check.  A negative order raises ValueError at the call.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    return _latin_fill(n, rng)


def _latin_fill(n, rng):
    cells = [[-1] * n for _ in range(n)]
    row_used = [set() for _ in range(n)]
    col_used = [set() for _ in range(n)]

    def rec(pos):
        if pos == n * n:
            yield _built(LatinSquare, order=n, cells=tuple(map(tuple, cells)))
            return
        r, c = divmod(pos, n)
        options = [s for s in range(n) if s not in row_used[r] and s not in col_used[c]]
        if rng is not None:
            rng.shuffle(options)
        for s in options:
            cells[r][c] = s
            row_used[r].add(s)
            col_used[c].add(s)
            yield from rec(pos + 1)
            row_used[r].remove(s)
            col_used[c].remove(s)
            cells[r][c] = -1

    try:
        yield from rec(0)
    finally:
        # `rec` calls itself through its closure cell: unbind it when the
        # stream ends or is dropped, as `random_latin` drops it after one
        # square, so that no stream leaves a reference cycle
        rec = None


def gen_row_latin(n, mode, seed=None, count=None):
    """Stream of row-Latin squares (each row an independent permutation).

    The cyclic Latin square is row-Latin, so the cyclic stream is that of
    `gen_latin`.  The exhaustive stream is `row_latin_squares`, capped at
    order 4.
    """
    return _square_stream(n, mode, seed, count, random_row_latin, row_latin_squares,
                          EXHAUSTIVE_ROW_LATIN_CAP)


def random_row_latin(n, rng):
    """A row-Latin square of order n whose rows are independent random permutations."""
    rows = []
    for _ in range(n):
        row = list(range(n))
        rng.shuffle(row)
        rows.append(tuple(row))
    return LatinSquare(n, tuple(rows))


def row_latin_squares(n):
    """Every row-Latin square of order n whose first row is the identity,
    in lexicographic order of the later rows, one at a time.  A negative
    order raises ValueError.

    Every row is a tuple from `permutations(range(n))`, so each square is an
    n x n grid of ints in [0, n), the grid `LatinSquare` checks for, and is
    built without that second check."""
    if n < 0:
        raise ValueError("order must be non-negative")
    if n == 0:
        return iter([LatinSquare(0, ())])
    first = tuple(range(n))
    return (_built(LatinSquare, order=n, cells=(first,) + rest) for rest in
            itertools.product(itertools.permutations(range(n)), repeat=n - 1))


# ---------------------------------------------------------------------------
# Random hypothesis-satisfying instances


def _repair_degrees(assign, n, cap, rng):
    """Move random entries of assign (B-vertices in range(n)) off the first
    B-vertex over cap to random ones under it, one per pass, until none is over.

    Requires n * cap >= len(assign); then the repair always ends.  While some
    vertex is over cap, some other is under it: were every count at least
    cap, with one above, the counts would sum past n * cap >= len(assign).
    A pass takes one entry off a vertex over cap and gives it to one under,
    which ends at most at cap, so the overflow, the sum of count - cap over
    the vertices above cap, falls by exactly 1 each pass.  Both callers meet
    the requirement: `gen_theorem19_instance` repairs 2n - 1 entries to cap
    2 (2n >= 2n - 1), and `random_conj_drisko_instance` (2n - 1) * n entries
    to cap 2n - 1 (n * (2n - 1), equal).
    """
    while True:
        counts = [0] * n
        for b in assign:
            counts[b] += 1
        over = [b for b in range(n) if counts[b] > cap]
        if not over:
            return
        movable = [i for i, b in enumerate(assign) if b == over[0]]
        under = [b for b in range(n) if counts[b] < cap]
        assign[rng.choice(movable)] = rng.choice(under)


def gen_theorem19_instance(n, seed):
    """Random hypergraph with |A| = 2n-1, |B| = |C| = n, deg(a) = n.

    Each A-vertex contributes one edge per C-vertex (a random function from
    rows to columns), which makes (A, C) simple; the per-column assignments
    are then repaired until every (b, c) pair is used at most twice.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = random.Random(seed)
    a_size = 2 * n - 1
    edges = []
    for c in range(n):
        assign = [rng.randrange(n) for _ in range(a_size)]
        _repair_degrees(assign, n, 2, rng)
        edges.extend((a, b, c) for a, b in enumerate(assign))
    edges.sort()
    return _built(TriHypergraph, side_sizes=(a_size, n, n), edges=tuple(edges))


def gen_theorem19(n, seed, count=None):
    """Stream of `gen_theorem19_instance(n, seed + i)` for i below `count`
    (one if None); a negative count raises ValueError."""
    return _first(map(functools.partial(gen_theorem19_instance, n), itertools.count(seed)),
                  1 if count is None else count)


def random_matching(left_size, right_size, size, rng):
    """Uniform random partial pairing of `size` left and right vertices.

    `rng.sample` draws distinct ints on each side (and rejects a negative
    size), so the pairs form a matching, built without the second check."""
    if size > min(left_size, right_size):
        raise ValueError("matching size exceeds a side")
    lefts = rng.sample(range(left_size), size)
    rights = rng.sample(range(right_size), size)
    return _built(Matching, edges=frozenset(zip(lefts, rights)))


def random_family(sizes, rng):
    """Random matchings of the given sizes; the host is their union, so
    every member lies in it and the family is built without the second
    check.  A negative size is rejected by `rng.randrange` or by
    `random_matching`."""
    m = max(sizes, default=0)
    side = m + rng.randrange(0, m + 1)
    members = tuple(random_matching(side, side, s, rng) for s in sizes)
    host = _built(BipartiteGraph, left_size=side, right_size=side,
                  edges=frozenset(e for mm in members for e in mm.edges))
    return _built(MatchingFamily, host=host, members=members)


def drisko_profile(n):
    """Member sizes (min(i, n) for i = 1..2n-1); the tight threshold profile."""
    return [min(i, n) for i in range(1, 2 * n)]


def random_regular_simple(n, d, rng):
    """Random simple d-regular tripartite hypergraph with sides of size n.

    Built as a union of d random full grid matchings {(i, s(i), t(i))};
    resampled until no triple repeats.
    """
    if d > n * n:
        raise ValueError("regularity exceeds the grid capacity")
    for _ in range(REGULAR_SIMPLE_ATTEMPTS):
        edges = set()
        ok = True
        for _ in range(d):
            sigma = list(range(n))
            tau = list(range(n))
            rng.shuffle(sigma)
            rng.shuffle(tau)
            layer = {(i, sigma[i], tau[i]) for i in range(n)}
            if edges & layer:
                ok = False
                break
            edges |= layer
        if ok:
            return TriHypergraph((n, n, n), tuple(sorted(edges)))
    raise ConstructionError("could not sample a simple regular hypergraph")


def random_stein_instance(n, rng):
    """n-regular hypergraph, sides n, with only the (A, B) pair simple.

    Every (symbol, column) pair carries exactly one row, and every row
    appears exactly n times overall.
    """
    rows = [c for c in range(n) for _ in range(n)]
    rng.shuffle(rows)
    edges = []
    i = 0
    for a in range(n):
        for b in range(n):
            edges.append((a, b, rows[i]))
            i += 1
    return TriHypergraph((n, n, n), tuple(edges))


def random_conj_drisko_instance(n, rng):
    """|A| = 2n-1, deg(a) = n, and every B or C degree at most 2n-1.

    Each A-vertex takes one edge per C-vertex through a random C -> B
    function; B-degrees are then repaired down to the 2n-1 cap.
    """
    a_size = 2 * n - 1
    # the B-vertex of edge (a, _, c) is entry a * n + c
    assign = [rng.randrange(n) for _ in range(a_size * n)]
    _repair_degrees(assign, n, 2 * n - 1, rng)
    edges = [(i // n, b, i % n) for i, b in enumerate(assign)]
    return TriHypergraph((a_size, n, n), tuple(edges))


def random_bounded_tri(rng, a_size, bc_size, deg_a, cap):
    """Simple tripartite hypergraph: every A-degree exactly deg_a and every
    B or C degree at most cap.  Raises when the cap is impossible to meet."""
    if a_size * deg_a > bc_size * cap:
        raise ValueError("cap too small for the requested A-degrees")
    if deg_a > bc_size * bc_size:
        raise ValueError("deg_a exceeds the grid capacity")
    pairs = [(b, c) for b in range(bc_size) for c in range(bc_size)]
    edges = set()
    for a in range(a_size):
        for b, c in rng.sample(pairs, deg_a):
            edges.add((a, b, c))
    passes = 0
    while True:
        counts_b = [0] * bc_size
        counts_c = [0] * bc_size
        for _, b, c in edges:
            counts_b[b] += 1
            counts_c[c] += 1
        bad = [
            e for e in edges if counts_b[e[1]] > cap or counts_c[e[2]] > cap
        ]
        if not bad:
            break
        passes += 1
        if passes > REPAIR_PASSES:
            raise ConstructionError("degree repair did not converge")
        old = sorted(bad)[rng.randrange(len(bad))]
        a = old[0]
        options = [
            (a, b, c)
            for b, c in pairs
            if counts_b[b] < cap and counts_c[c] < cap and (a, b, c) not in edges
        ]
        if not options:
            raise ConstructionError("repair dead end; widen the sides")
        edges.remove(old)
        edges.add(options[rng.randrange(len(options))])
    return TriHypergraph((a_size, bc_size, bc_size), tuple(sorted(edges)))


def random_lemma31_graph(ell, rng, max_edges=12):
    """Bipartite graph with left degrees at least (min(i, ell))_{i=1..2l-1}.

    Each left vertex takes distinct right vertices of range(w_size), so the
    graph is built without the second check; ell must be at least 1."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    u_size = 2 * ell - 1
    w_size = ell + rng.randrange(0, ell + 1)
    degrees = [min(i, ell) for i in range(1, u_size + 1)]
    budget = max_edges - sum(degrees)
    if budget < 0:
        raise ValueError("profile alone exceeds the edge budget")
    while budget > 0 and rng.random() < 0.5:
        i = rng.randrange(u_size)
        if degrees[i] < w_size:
            degrees[i] += 1
            budget -= 1
        else:
            break
    edges = frozenset((u, w) for u, d in enumerate(degrees) for w in rng.sample(range(w_size), d))
    return _built(BipartiteGraph, left_size=u_size, right_size=w_size, edges=edges)


def random_graph(n, rng, p=0.5):
    """Labelled random graph, each pair joined independently.

    Its pairs (u, v) with u < v and its masks are made in one loop, so the
    graph is built without the second check; n must not be negative."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    edges = []
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return _built(Graph, n=n, edges=frozenset(edges), adj=tuple(adj))


def random_partition_system(rng, max_vertices=8, max_parts=4):
    """Random graph, each pair joined with probability 0.35, plus disjoint
    nonempty vertex parts, for transversal checks.  The parts are slices of
    a shuffled range(n), so the system is built without the second check
    (a max_vertices below 2 or a max_parts below 1 empties a range)."""
    n = rng.randrange(2, max_vertices + 1)
    graph = random_graph(n, rng, 0.35)
    vertices = list(range(n))
    rng.shuffle(vertices)
    m = rng.randrange(1, min(max_parts, n) + 1)
    parts = []
    masks = []
    idx = 0
    for i in range(m):
        take = rng.randrange(1, max(2, (n - idx) // max(1, m - i) + 1))
        part = vertices[idx : idx + take]
        if not part:
            break
        parts.append(frozenset(part))
        masks.append(sum(1 << v for v in part))
        idx += take
    return _built(PartitionedGraph, graph=graph, parts=tuple(parts), part_masks=tuple(masks))
