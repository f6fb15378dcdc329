"""Canonical labelling of graphs and orbits of their automorphism groups.

One individualisation-refinement search labels a graph given as adjacency
bitmasks, optionally vertex-coloured; it serves the psi memo keys of
`trimatch.game` and `graph_classes`, the isomorph-free graph stream here
that the exhaustive sweeps of `trimatch.verifier` read.  A second search
of the same tree, `automorphism_generators`, finds the automorphism group
and the stabiliser of one vertex with no canonical form; it serves the
orbital branching of `trimatch.solver.max_matching_size` and the parents
that `graph_classes` extends.  Everything in this module deals in masks
only: a graph is a tuple of adjacency bitmasks, one per vertex, the form of
`Graph.adj`.

`graph_classes` relies on one fact about the labeller: a canonical order
lists the cells of the equitable partition (`equitable_partition`) in
turn, so the first vertex of maximum degree in canonical order lies in
the first cell of maximum degree.  It is stated and used here only.
"""


def _refine(adj, cells, splitters):
    """The coarsest equitable refinement of the ordered partition `cells`.

    Cells are vertex bitmasks.  `splitters` must hold every cell that may
    still split another: the root queues all of its cells (one, or each
    cell of a vertex colouring), and a child the vertex it individualises.
    Each splitter W splits every cell by the number of neighbours its
    vertices have in W, fragments in ascending order of that number; every
    fragment but the first largest becomes a splitter.  The omitted one
    needs no turn of its own: its counts are those of the cell it came
    from, already balanced or still queued, minus those of its siblings.
    Every step depends on cell positions and counts only, so isomorphic
    inputs refine alike.

    A splitter of several vertices first ORs their neighbour masks into
    `touched`.  A cell that misses `touched` has count 0 throughout, so it
    cannot split and is skipped unscanned; in a cell that meets it, only
    the touched vertices are counted, and the rest form the count-0
    fragment.  Skipping changes no count, so the cells, their fragments
    and the queued splitters come out in the same order as a full scan:
    only the work falls, from every vertex of every cell to the vertices
    next to the splitter.
    """
    n = len(adj)
    for w in splitters:  # grows while it is read: new splitters queue up
        if len(cells) == n:
            break
        refined = []
        if w & (w - 1) == 0:
            # one vertex: a cell splits into its non-neighbours, then neighbours
            nbrs = adj[w.bit_length() - 1]
            for x in cells:
                hit = x & nbrs
                if hit and hit != x:
                    rest = x ^ hit
                    refined += (rest, hit)
                    splitters.append(hit if hit.bit_count() <= rest.bit_count() else rest)
                else:
                    refined.append(x)
        else:
            touched = 0  # the vertices with a neighbour in w
            y = w
            while y:
                b = y & -y
                y ^= b
                touched |= adj[b.bit_length() - 1]
            for x in cells:
                hit = x & touched
                if hit and x & (x - 1):
                    rest = x ^ hit  # no neighbour in w: count 0
                    groups = {0: rest} if rest else {}
                    y = hit
                    while y:
                        b = y & -y
                        y ^= b
                        c = (adj[b.bit_length() - 1] & w).bit_count()
                        groups[c] = groups.get(c, 0) | b
                    if len(groups) > 1:
                        frags = [groups[c] for c in sorted(groups)]
                        refined += frags
                        big = max(frags, key=int.bit_count)
                        splitters.extend(f for f in frags if f != big)
                        continue
                refined.append(x)
        cells = refined
    return cells


def equitable_partition(adj):
    """The coarsest equitable ordered partition of the vertices, refined
    from one cell: the root of the labelling search.  Every canonical order
    lists its cells in turn.  The empty graph has no cells."""
    if not adj:
        return []
    everything = (1 << len(adj)) - 1
    return _refine(adj, [everything], [everything])


def orbit_mask(mask, generators):
    """The union of the orbits of the vertices in `mask` under `generators`."""
    grown = True
    while grown:
        grown = False
        for perm in generators:
            img = 0
            rest = mask
            while rest:
                b = rest & -rest
                rest ^= b
                img |= 1 << perm[b.bit_length() - 1]
            if img & ~mask:
                mask |= img
                grown = True
    return mask


def set_orbit_representatives(n, generators):
    """The least vertex set (as a bitmask) of each orbit of the group
    generated by `generators` on the subsets of range(n), in ascending order."""
    if not generators:
        yield from range(1 << n)
        return
    tables = []
    for perm in generators:
        table = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            table[mask] = table[mask ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(table)
    seen = bytearray(1 << n)
    for mask in range(1 << n):
        if seen[mask]:
            continue
        yield mask
        seen[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for table in tables:
                y = table[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)


def _individualise(adj, cells, t, b):
    """The child of an equitable partition that splits vertex b (a bit) off
    the front of its cell cells[t], refined."""
    return _refine(adj, cells[:t] + [b, cells[t] ^ b] + cells[t + 1:], [b])


def _check_cells(n, cells):
    """Raise ValueError unless `cells` is an ordered partition of range(n)
    into nonempty bitmasks."""
    union = 0
    for cell in cells:
        union |= cell
    if not all(cells) or union != (1 << n) - 1 or sum(cell.bit_count() for cell in cells) != n:
        raise ValueError("cells must be an ordered partition of the vertices "
                         "into nonempty bitmasks")


def canonical_labelling(adj, cells=None):
    """Canonical form of a graph given as adjacency bitmasks, one per vertex.

    Returns (key, order, generators).  `key` is equal for two graphs iff
    they are isomorphic.  `order` lists the vertices in canonical order:
    relabelling vertex order[i] as i gives the same graph for every member
    of an isomorphism class.  `generators` are permutations (lists with
    perm[v] the image of v) that generate the automorphism group.

    `cells`, if given, is a vertex colouring: an ordered partition of the
    vertices into nonempty bitmasks, all of them queued as splitters for
    the first refinement; anything else raises ValueError.  Isomorphisms
    and automorphisms must then map each cell onto itself: two coloured
    graphs get equal keys iff some such map carries one onto the other,
    every generator fixes each cell setwise, and the key also records the
    cell sizes.  Without `cells` the search starts from one cell,
    `equitable_partition(adj)`.

    The search is individualisation-refinement (McKay & Piperno, "Practical
    graph isomorphism II", 2014).  A node is an equitable ordered partition;
    its children individualise each vertex of its first non-singleton cell
    and refine again.  A leaf is a discrete partition, read as an order, and
    its code is the adjacency matrix in that order, rows concatenated into
    one int; the key is the largest code.  A leaf whose code equals that of
    the first or the best leaf so far yields an automorphism, and the search
    jumps back to where the two paths part: the subtree there is the image
    of one already searched.  A node skips every child in the orbit of a
    child already searched, under the automorphisms found that fix the
    node's individualised vertices.
    """
    n = len(adj)
    if cells is not None:
        _check_cells(n, cells)
    if n == 0:
        return ((0, 0) if cells is None else (0, (), 0)), [], []
    gens = []  # (perm, mask of the vertices perm fixes)
    first = None  # (code, order, path) of the first leaf
    best = None  # and of the leaf with the largest code so far

    def leaf(cells, path):
        nonlocal first, best
        order = [c.bit_length() - 1 for c in cells]
        place = [0] * n  # place[v]: the bit of v's position in order
        for i, v in enumerate(order):
            place[v] = 1 << i
        code = 0
        for v in order:
            row = 0
            a = adj[v]
            while a:
                b = a & -a
                a ^= b
                row |= place[b.bit_length() - 1]
            code = (code << n) | row
        if first is None:
            first = best = (code, order, path)
            return n
        for ref_code, ref_order, ref_path in (first, best):
            if code == ref_code:
                perm = [0] * n
                fixed = 0
                for u, v in zip(ref_order, order):
                    perm[u] = v
                    if u == v:
                        fixed |= 1 << u
                gens.append((perm, fixed))
                parted = 0
                while path[parted] == ref_path[parted]:
                    parted += 1
                return parted
        if code > best[0]:
            best = (code, order, path)
        return n

    def search(cells, path, path_mask):
        """Search below a node; returns the depth to resume at."""
        if len(cells) == n:
            return leaf(cells, path)
        for t, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        depth = len(path)
        done = 0
        rest = cell
        while rest:
            b = rest & -rest
            rest ^= b
            if b & done:
                continue
            resume = search(_individualise(adj, cells, t, b), path + [b.bit_length() - 1],
                            path_mask | b)
            if resume < depth:
                return resume
            done = orbit_mask(done | b, [p for p, fixed in gens if not path_mask & ~fixed])
        return depth

    if cells is None:
        search(equitable_partition(adj), [], 0)
        key = (n, best[0])
    else:
        search(_refine(adj, list(cells), list(cells)), [], 0)
        key = (n, tuple(c.bit_count() for c in cells), best[0])
    # `search` calls itself through its closure cell: unbind it, so the
    # call leaves no reference cycle for the cyclic collector
    search = None
    return key, best[1], [perm for perm, _ in gens]


def automorphism_generators(adj, cells, first=None):
    """Generators of the automorphism group of a vertex-coloured graph and
    of the stabiliser of one vertex, with no canonical form.

    `adj` and `cells` are as for `canonical_labelling`, but `cells` is
    required: `[(1 << n) - 1]` for an uncoloured graph.  Returns (gens,
    stab), permutations as lists with perm[v] the image of v: `gens`
    generate the automorphisms that map each cell onto itself, and `stab`,
    the part of `gens` that the search finds below its first level,
    generates the stabiliser of `first` in that group.  With `first` None
    the search starts as the labeller does, and `stab` is the stabiliser of
    the first vertex it individualises.

    The search walks one path of the labeller's tree down to a leaf: at the
    root it individualises `first`, unless `first` already is a singleton
    cell (then every automorphism fixes it and `stab` is `gens`), and below
    that the lowest vertex of the first non-singleton cell.  Then it takes
    the levels bottom-up.  At level i, with path vertices v_0 .. v_i, let G_i
    be the automorphisms that fix v_0 .. v_(i-1); the generators found so
    far that fix them generate G_(i+1).  Each vertex w of v_i's cell that
    lies outside the orbit of v_i under those generators is individualised
    in place of v_i, and its subtree is searched for a leaf whose adjacency
    rows, in leaf order, equal the first leaf's; mapping the first leaf's
    order onto that leaf's is an automorphism in G_i that sends v_i to w.
    If g in G_i sends v_i to w, refinement commutes with g, so g maps the
    first path below v_i onto a path below w with the same cell sizes at
    every depth, ending in such a leaf: the search prunes every node whose
    cell sizes differ from the first path's at its depth, and skips a child
    in the orbit of a failed sibling under the generators that fix the
    node's individualised vertices (their images would fail too).  So a
    vertex is searched in vain only if it lies outside v_i's G_i-orbit, the
    orbit is complete when the level ends, and G_i is generated by G_(i+1)
    and the new generators (Schreier–Sims: h^-1 g lies in G_(i+1) for g in
    G_i and some h found with h(v_i) = g(v_i)).  The induction starts at the
    leaf: its path vertices determine the discrete leaf, so only the
    identity fixes them all.
    """
    n = len(adj)
    _check_cells(n, cells)
    if first is not None and not 0 <= first < n:
        raise ValueError(f"first must be a vertex of the graph, got {first!r}")
    part = _refine(adj, list(cells), list(cells))
    # the first path: (partition, target cell index, path vertex, mask of
    # the path vertices above it)
    levels = []
    v = None
    if first is not None:
        for t, cell in enumerate(part):
            if cell >> first & 1:
                break
        if cell & (cell - 1):
            v = first
    everything_fixes_first = first is not None and v is None
    prefix = 0
    while v is not None or len(part) < n:
        if v is None:
            for t, cell in enumerate(part):
                if cell & (cell - 1):
                    break
            v = (cell & -cell).bit_length() - 1
        levels.append((part, t, v, prefix))
        prefix |= 1 << v
        part = _individualise(adj, part, t, 1 << v)
        v = None
    shapes = [[cell.bit_count() for cell in p] for p, _, _, _ in levels] + [[1] * n]
    leaf = [cell.bit_length() - 1 for cell in part]
    gens = []  # (perm, mask of the vertices perm fixes)

    def automorphism(part):
        """The map of the first leaf's order onto this leaf's and the mask
        of the vertices it fixes, if it keeps every adjacency row, else
        None."""
        perm = [0] * n
        fixed = 0
        for u, cell in zip(leaf, part):
            w = perm[u] = cell.bit_length() - 1
            if u == w:
                fixed |= cell
        for u, w in enumerate(perm):
            img = 0
            a = adj[u]
            while a:
                b = a & -a
                a ^= b
                img |= 1 << perm[b.bit_length() - 1]
            if img != adj[w]:
                return None
        return perm, fixed

    def search(part, depth, path_mask):
        """An automorphism onto a leaf below `part`, with the mask of the
        vertices it fixes, or None."""
        if [cell.bit_count() for cell in part] != shapes[depth]:
            return None
        if depth == len(levels):
            return automorphism(part)
        for t, cell in enumerate(part):
            if cell & (cell - 1):
                break
        done = 0
        rest = cell
        while rest:
            b = rest & -rest
            rest ^= b
            if b & done:
                continue
            found = search(_individualise(adj, part, t, b), depth + 1, path_mask | b)
            if found is not None:
                return found
            done = orbit_mask(done | b, [p for p, fixed in gens if not path_mask & ~fixed])
        return None

    below = 0  # the generators found below level 0
    for i in reversed(range(len(levels))):
        part, t, v, prefix = levels[i]
        level_gens = [p for p, fixed in gens if not prefix & ~fixed]
        below = len(gens)  # final at i = 0
        done = orbit_mask(1 << v, level_gens)
        rest = part[t]
        while rest:
            b = rest & -rest
            rest ^= b
            if b & done:
                continue
            found = search(_individualise(adj, part, t, b), i + 1, prefix | b)
            if found is not None:
                gens.append(found)
                level_gens.append(found[0])
            done = orbit_mask(done | b, level_gens)
    # `search` calls itself through its closure cell: unbind it, as the
    # labeller does
    search = None
    gens = [perm for perm, _ in gens]
    return gens, (gens if everything_fixes_first else gens[:below])


def graph_classes(max_n):
    """The graphs on 0..max_n vertices, one per isomorphism class, as tuples
    of adjacency bitmasks: by vertex count, then in generation order.
    Nothing is yielded for a negative max_n.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 1998) builds each vertex count from the one below.  A
    child adds vertex n - 1 to a parent on n - 1 vertices, joined to one
    neighbourhood per orbit of the parent's automorphism group on vertex
    sets.  A graph's canonical parent deletes the first vertex of maximum
    degree in canonical order, so a child is kept iff its new vertex lies
    in that vertex's orbit.  Since the canonical order lists the cells of
    the equitable partition in turn, that vertex lies in the first cell of
    maximum degree.  A child is kept at once if its new vertex is the only
    one of maximum degree or alone in that cell, dropped at once if the
    vertex has lower degree or lies outside the cell, and labelled
    otherwise.  Every class then arises exactly once.

    The degree test is made on the neighbourhood, before the child is
    built.  With D the parent's maximum degree and M the mask of its
    vertices of degree D, the new vertex has the child's maximum degree
    iff popcount(nbrs) > D, or popcount(nbrs) = D and nbrs misses M, since
    a parent vertex gains at most 1.  So it drops exactly the children the
    test on the child's degrees would drop.

    The stream is lazy: each class is yielded as soon as it is kept.  It
    holds the (masks, generators) of the parent level being extended and
    of the kept children, which become the next parents, and at max_n it
    keeps no child: streaming every class on 9 vertices holds the 12 346
    classes on 8, not the 274 668 on 9.  Generators are None for a child
    kept without a labelling; `automorphism_generators` finds them when it
    is extended, since a parent needs no canonical form.
    """
    if max_n < 0:
        return
    yield ()
    level = [((), [])]  # (adjacency bitmasks, automorphism generators or None)
    for n in range(1, max_n + 1):
        new = 1 << (n - 1)
        keep = n < max_n  # the last level is yielded, never extended
        children = []
        for adj, gens in level:
            if gens is None:
                gens = automorphism_generators(adj, [(1 << len(adj)) - 1])[0]
            parent_max = max((a.bit_count() for a in adj), default=0)
            at_max = sum(1 << v for v, a in enumerate(adj) if a.bit_count() == parent_max)
            for nbrs in set_orbit_representatives(n - 1, gens):
                degree = nbrs.bit_count()
                if degree < parent_max or degree == parent_max and nbrs & at_max:
                    continue  # some parent vertex would outgrow the new one
                child = tuple(a | new if nbrs >> v & 1 else a for v, a in enumerate(adj)) + (nbrs,)
                degrees = [a.bit_count() for a in child]
                child_gens = None
                if degrees.count(degree) > 1:
                    top_cell = next(c for c in equitable_partition(child)
                                    if degrees[c.bit_length() - 1] == degree)
                    if top_cell != new:
                        if not top_cell & new:
                            continue
                        _, order, child_gens = canonical_labelling(child)
                        top = next(v for v in order if top_cell >> v & 1)
                        if not orbit_mask(1 << top, child_gens) & new:
                            continue
                yield child
                if keep:
                    children.append((child, child_gens))
        level = children
