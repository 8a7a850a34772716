"""Finite directed graphs, their metric structure, and standard constructions.

Undirected graphs are handled as symmetric digraphs: an undirected edge
{x, y} is stored as the two directed edges (x, y) and (y, x).  The
``symmetric`` flag records that a graph arose this way, so operations that
only make sense for undirected graphs (girth, subgraph networks, ...) can
insist on it.

Canonical forms, isomorphism and automorphism all colour vertices with one
refinement, ``_refine``: degree first, then the multisets of neighbour
colours, until the colours are stable.  Isomorphism and automorphism share
one backtracking search, which places vertices so that distances are
preserved, each among the vertices of its colour; ``vertex_orbits`` colours
a graph once and merges the cycles of every automorphism it confirms.  A
graph computes its distance matrix once and keeps it for as long as the
graph lives; no cache keyed by graphs outlives them.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import cached_property
from math import comb

from .errors import GraphError, ParseError
from .record import Record

INF = float("inf")


class DirectedGraph(Record, frozen=True):
    """Loop-free simple digraph on vertex set {0, ..., n-1}."""

    _fields = ("n", "edges", "symmetric")

    def __init__(self, n, edges, symmetric=False):
        self.__dict__.update(n=n, edges=edges, symmetric=symmetric)
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        for e in self.edges:
            u, v = e
            if not (isinstance(u, int) and isinstance(v, int)):
                raise GraphError(f"non-integer vertex in edge {e!r}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {e!r} out of range for n={self.n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
        if self.symmetric:
            for u, v in self.edges:
                if (v, u) not in self.edges:
                    raise GraphError(
                        f"symmetric graph is missing the reverse of ({u}, {v})"
                    )

    @cached_property
    def distances(self):
        """All-pairs directed path-length distances, computed on first use:
        a tuple of row tuples, int where finite and INF where unreachable."""
        adj = adjacency(self)
        rows = []
        for s in range(self.n):
            dist = [INF] * self.n
            dist[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                du = dist[u]
                for v in adj[u]:
                    if dist[v] is INF:
                        dist[v] = du + 1
                        q.append(v)
            rows.append(tuple(dist))
        return tuple(rows)

    @property
    def m(self):
        """Number of directed edges."""
        return len(self.edges)

    def has_edge(self, u, v):
        return (u, v) in self.edges

    def undirected_pairs(self):
        """Edge set as unordered pairs.  Only meaningful when symmetric."""
        if not self.symmetric:
            raise GraphError("undirected edge set requested for a digraph")
        return {frozenset(e) for e in self.edges}

    def __repr__(self):
        tag = "undirected" if self.symmetric else "directed"
        return f"DirectedGraph(n={self.n}, m={self.m}, {tag})"


def digraph(n, edges):
    return DirectedGraph(n, frozenset((int(u), int(v)) for u, v in edges))


def rho(n, pairs):
    """Symmetric digraph with both orientations of every undirected pair."""
    es = set()
    for u, v in pairs:
        u, v = int(u), int(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if (u, v) in es:
            raise GraphError(f"duplicate undirected edge {{{u}, {v}}}")
        es.add((u, v))
        es.add((v, u))
    return DirectedGraph(n, frozenset(es), symmetric=True)


def adjacency(G):
    """Sorted successor lists, one tuple per vertex."""
    out = [[] for _ in range(G.n)]
    for u, v in G.edges:
        out[u].append(v)
    return tuple(tuple(sorted(vs)) for vs in out)


def distance_matrix(G):
    """All-pairs distances of G, unreachable pairs INF: ``G.distances``."""
    return G.distances


def eccentricity_bound(G):
    """Largest finite distance occurring in G (0 for edgeless graphs)."""
    best = 0
    for row in distance_matrix(G):
        for d in row:
            if d is not INF and d > best:
                best = d
    return best


# ---------------------------------------------------------------------------
# parsing


def parse_graph(text):
    """Parse the edge-list exchange format.

    First meaningful line is ``# directed`` or ``# undirected``.  An optional
    ``# vertices N`` line follows; with it, labels must be integers in
    [0, N).  Without it, labels are arbitrary tokens numbered in order of
    first appearance.  ``%`` starts a comment, blank lines are skipped.
    """
    header = None
    declared_n = None
    directed = None
    edges = []
    labels = {}

    def vertex_id(tok, lineno):
        if declared_n is not None:
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"non-integer vertex label {tok!r}", lineno)
            if not 0 <= v < declared_n:
                raise ParseError(
                    f"vertex {v} out of range [0, {declared_n})", lineno
                )
            return v
        if tok not in labels:
            labels[tok] = len(labels)
        return labels[tok]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip().lower()
            if header is None:
                if body == "directed":
                    directed = True
                elif body == "undirected":
                    directed = False
                else:
                    raise ParseError(
                        "expected '# directed' or '# undirected' header", lineno
                    )
                header = lineno
                continue
            if body.startswith("vertices"):
                parts = body.split()
                if len(parts) != 2 or not parts[1].isdigit():
                    raise ParseError("expected '# vertices N'", lineno)
                if edges:
                    raise ParseError("'# vertices' must precede edges", lineno)
                declared_n = int(parts[1])
                continue
            raise ParseError(f"unrecognized directive {line!r}", lineno)
        if header is None:
            raise ParseError(
                "expected '# directed' or '# undirected' header", lineno
            )
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        u = vertex_id(toks[0], lineno)
        v = vertex_id(toks[1], lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {toks[0]!r}", lineno)
        if directed:
            if (u, v) in edges:
                raise ParseError(f"duplicate edge {line!r}", lineno)
            edges.append((u, v))
        else:
            if (u, v) in edges or (v, u) in edges:
                raise ParseError(f"duplicate undirected edge {line!r}", lineno)
            edges.append((u, v))

    if header is None:
        raise ParseError("empty input: missing orientation header")
    n = declared_n if declared_n is not None else len(labels)
    return digraph(n, edges) if directed else rho(n, edges)


# ---------------------------------------------------------------------------
# standard families


def family(name, n):
    """Named graph families.

    complete/cycle/linear are undirected (cycle needs n >= 3); dir_linear
    and dir_cycle are the one-way path and cycle; tournament gives the
    transitive tournament T_n on n+1 vertices; bicomplete is the symmetric
    closure of K_n.
    """
    if name == "tournament":
        return transitive_tournament(n)
    if n < 1:
        raise GraphError(f"family {name!r} needs n >= 1, got {n}")
    if name in ("complete", "bicomplete"):
        return rho(n, itertools.combinations(range(n), 2))
    if name == "cycle":
        if n < 3:
            raise GraphError("cycle needs n >= 3 to stay a simple graph")
        return rho(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "dir_cycle":
        if n < 2:
            raise GraphError("directed cycle needs n >= 2")
        return digraph(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "linear":
        return rho(n, [(i, i + 1) for i in range(n - 1)])
    if name == "dir_linear":
        return digraph(n, [(i, i + 1) for i in range(n - 1)])
    raise GraphError(f"unknown family {name!r}")


def transitive_tournament(n):
    """T_n: vertices 0..n with an edge i -> j whenever i < j."""
    if n < 0:
        raise GraphError("tournament index must be non-negative")
    return digraph(n + 1, [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)])


def point():
    return DirectedGraph(1, frozenset())


# ---------------------------------------------------------------------------
# constructions


def cone(G):
    """Add a new vertex with an edge from every old vertex into it."""
    star = G.n
    edges = set(G.edges)
    edges.update((x, star) for x in range(G.n))
    return DirectedGraph(G.n + 1, frozenset(edges))


def join(G, H):
    """Directed join: disjoint union plus every edge from V(G) to V(H)."""
    shift = G.n
    edges = set(G.edges)
    edges.update((u + shift, v + shift) for u, v in H.edges)
    edges.update((x, y + shift) for x in range(G.n) for y in range(H.n))
    return DirectedGraph(G.n + H.n, frozenset(edges))


def cartesian(G, H):
    """Box product; vertex (i, j) becomes i * H.n + j."""
    if G.n == 0 or H.n == 0:
        raise GraphError("cartesian product needs non-empty factors")
    edges = set()
    for i in range(G.n):
        for u, v in H.edges:
            edges.add((i * H.n + u, i * H.n + v))
    for j in range(H.n):
        for u, v in G.edges:
            edges.add((u * H.n + j, v * H.n + j))
    return DirectedGraph(
        G.n * H.n, frozenset(edges), symmetric=G.symmetric and H.symmetric
    )


def opposite(G):
    """Reverse every edge."""
    return DirectedGraph(
        G.n, frozenset((v, u) for u, v in G.edges), symmetric=G.symmetric
    )


def alternating(G, part0):
    """Orient a bipartite undirected graph so every edge leaves part0.

    part0 is one side of a bipartition of V(G); the result has every vertex
    as a source or a sink.
    """
    if not G.symmetric:
        raise GraphError("alternating orientation needs an undirected graph")
    side0 = set(part0)
    if not side0 <= set(range(G.n)):
        raise GraphError("bipartition contains unknown vertices")
    edges = set()
    for u, v in G.edges:
        if u in side0 and v in side0:
            raise GraphError(f"edge ({u}, {v}) stays inside the given part")
        if u in side0:
            edges.add((u, v))
        elif v not in side0:
            raise GraphError(f"edge ({u}, {v}) misses the given part")
    return DirectedGraph(G.n, frozenset(edges))


# ---------------------------------------------------------------------------
# structural queries


def girth(G):
    """Length of a shortest cycle of an undirected graph; INF for forests."""
    if not G.symmetric:
        raise GraphError("girth is defined here for undirected graphs only")
    adj = adjacency(G)
    best = INF
    for s in range(G.n):
        dist = {s: 0}
        parent = {s: -1}
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    q.append(v)
                elif parent[u] != v:
                    # cross or back edge closes a cycle through s
                    best = min(best, dist[u] + dist[v] + 1)
        # the BFS bound is exact once every start vertex has been tried
    return best


def reachability_preorder(G):
    """Digraph with an edge (u, v) whenever v is reachable from u, u != v."""
    dist = distance_matrix(G)
    edges = {
        (u, v)
        for u in range(G.n)
        for v in range(G.n)
        if u != v and dist[u][v] is not INF
    }
    sym = all((v, u) in edges for u, v in edges)
    return DirectedGraph(G.n, frozenset(edges), symmetric=sym)


def is_weakly_connected(G):
    if G.n <= 1:
        return True
    adj = [set() for _ in range(G.n)]
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    q = deque([0])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                q.append(v)
    return len(seen) == G.n


# ---------------------------------------------------------------------------
# isomorphism


def _match(G, H, cands):
    """A bijection img of V(G) onto V(H) with img[v] in cands[v] that
    carries distances to distances, or None.

    Backtracking over vertices with the fewest candidates first; a
    candidate is tried only when its distances to and from the images
    placed so far equal those of v.  Edges are the pairs at distance 1,
    so a distance-preserving bijection is an isomorphism, and every
    isomorphism preserves distances.
    """
    dg, dh = distance_matrix(G), distance_matrix(H)
    order = sorted(range(G.n), key=lambda v: len(cands[v]))
    img = [-1] * G.n
    used = [False] * H.n

    def place(i):
        if i == G.n:
            return True
        v = order[i]
        for w in cands[v]:
            if used[w] or any(
                dg[u][v] != dh[img[u]][w] or dg[v][u] != dh[w][img[u]]
                for u in order[:i]
            ):
                continue
            img[v] = w
            used[w] = True
            if place(i + 1):
                return True
            used[w] = False
        img[v] = -1
        return False

    return tuple(img) if place(0) else None


def _refine(adj):
    """Vertex colours by iterated degree refinement, as a list of ranks.

    adj lists each vertex's neighbours (a digraph's successors).  Colours
    start as degrees; a vertex's next colour is its colour with the
    multiset of its neighbours' colours, ranked, until the colour vector
    is stable.  Every step reads the graph alone, so an isomorphism
    carries each vertex to one of the same colour.
    """
    n = len(adj)
    color = [len(adj[v]) for v in range(n)]
    while True:
        key = [
            (color[v], tuple(sorted(color[w] for w in adj[v]))) for v in range(n)
        ]
        ranks = {k: i for i, k in enumerate(sorted(set(key)))}
        new = [ranks[key[v]] for v in range(n)]
        if new == color:
            return color
        color = new


def are_isomorphic(G, H):
    """Exact digraph isomorphism by backtracking, each vertex's candidate
    images drawn from its colour class under ``_refine``.

    Graphs whose sorted colours differ are not isomorphic.
    """
    if G.n != H.n or G.m != H.m or G.symmetric != H.symmetric:
        return False
    gc, hc = _refine(adjacency(G)), _refine(adjacency(H))
    if sorted(gc) != sorted(hc):
        return False
    cands = [[w for w in range(H.n) if hc[w] == gc[v]] for v in range(G.n)]
    return _match(G, H, cands) is not None


def _pinned(G, colour, u, v):
    """The ``_match`` of G onto itself with u sent to v, each other vertex
    drawn from its class under the colours of G."""
    if colour[u] != colour[v]:
        return None
    cands = [[w for w in range(G.n) if colour[w] == colour[x]] for x in range(G.n)]
    cands[u] = [v]
    return _match(G, G, cands)


def automorphism(G, u, v):
    """An automorphism of G taking u to v, as the tuple of vertex images,
    or None when there is none.

    The ``are_isomorphic`` search from G to itself with the pair (u, v)
    fixed, each other vertex drawn from its colour class.
    """
    return _pinned(G, _refine(adjacency(G)), u, v)


def vertex_orbits(G):
    """Orbits of Aut(G) on the vertices: ascending tuples, by least vertex.

    Each vertex is tried against the least vertex of every orbit found so
    far; an automorphism taking one to the other merges every cycle it
    has, so later vertices are mostly placed without a search.  G is
    coloured once for all of these searches.
    """
    colour = _refine(adjacency(G))
    root = list(range(G.n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    firsts = []
    for v in range(G.n):
        if find(v) != v:
            continue
        for u in firsts:
            sigma = _pinned(G, colour, u, v)
            if sigma is not None:
                for x, y in enumerate(sigma):
                    a, b = find(x), find(y)
                    root[max(a, b)] = min(a, b)
                break
        else:
            firsts.append(v)
    orbits = {}
    for v in range(G.n):
        orbits.setdefault(find(v), []).append(v)
    return tuple(tuple(orbit) for orbit in orbits.values())


def canonical_form(n, pairs):
    """Canonical labelling of an undirected graph given as unordered pairs.

    Returns a sorted tuple of sorted pairs, minimal over all vertex
    permutations compatible with ``_refine``'s colours.
    """
    pairs = [tuple(sorted(p)) for p in pairs]
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    color = _refine(adj)
    cells = {}
    for v in range(n):
        cells.setdefault(color[v], []).append(v)
    groups = [cells[c] for c in sorted(cells)]

    best = None
    perm = [-1] * n
    slots = [list(g) for g in groups]

    def assign(gi, offset):
        nonlocal best
        if gi == len(groups):
            relabeled = tuple(
                sorted(tuple(sorted((perm[u], perm[v]))) for u, v in pairs)
            )
            if best is None or relabeled < best:
                best = relabeled
            return
        for p in itertools.permutations(slots[gi]):
            for i, v in enumerate(p):
                perm[v] = offset + i
            assign(gi + 1, offset + len(p))

    assign(0, 0)
    return best


# ---------------------------------------------------------------------------
# connected undirected graphs up to isomorphism


def connected_graph_classes(n, min_girth=None, edge_count=None):
    """Canonical representatives of connected graphs on n vertices, sorted.

    Every connected graph has a non-cut vertex, so each class on n
    vertices is a class on n - 1 vertices plus a new vertex joined to a
    nonempty set S of old ones (McKay, *Isomorph-free exhaustive
    generation*, J. Algorithms 26, 1998).  Girth is inherited by induced
    subgraphs, and the shortest cycle through the new vertex has length
    2 + the least distance between two members of S, so with min_girth
    set S must be spread at least min_girth - 2 apart.  Forests count as
    girth INF and always pass.  The distances cost a search from every
    vertex of each smaller class, so they are computed only with
    min_girth.  With edge_count, only the classes with that many edges:
    a vertex joined to m old ones brings between 1 and m edges, so S is
    only as large as lets the vertices still to come reach edge_count.
    """
    if n < 1:
        raise GraphError("need n >= 1")
    gap = (min_girth or 0) - 2
    classes = [()]
    for m in range(1, n):
        found = set()
        # the vertices after this one bring at least `left` edges, at most `room`
        left, room = n - m - 1, comb(n, 2) - comb(m + 1, 2)
        for edges in classes:
            dist = distance_matrix(rho(m, edges)) if min_girth else None
            lo, hi = 1, m
            if edge_count is not None:
                need = edge_count - len(edges)
                lo, hi = max(lo, need - room), min(hi, need - left)
            for size in range(lo, hi + 1):
                for S in itertools.combinations(range(m), size):
                    if dist and any(dist[u][v] < gap for u, v in itertools.combinations(S, 2)):
                        continue
                    found.add(canonical_form(m + 1, edges + tuple((v, m) for v in S)))
        classes = sorted(found)
    return [c for c in classes if edge_count in (None, len(c))]
