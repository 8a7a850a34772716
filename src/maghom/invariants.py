"""Magnitude polynomials and the graph-level invariants built on them.

The regular magnitude polynomial counts all-distinct trails with signs,
so it is exact and finite; the ordinary magnitude series has to be
truncated at a length cap.  Both are counted along
``DirectedGraph.steps`` without building a trail.  The remaining
operations are classifiers and metrics: diagonality of the homology
tables (both verdicts come from ``homology.is_diagonal``; the regular
one, ``is_regularly_diagonal``, is exported here too), the girth bound
on subdiagonal vanishing, the network of connected spanning subgraphs of
K_n with its path metric, and the extremal girth number gamma(n, s),
read off the triangle-free classes with the matching edge count of
``graphs.connected_graph_classes``.
"""

from __future__ import annotations

import itertools
from math import comb, perm

from .chains import certified_length_bound
from .errors import GraphError, ResourceCapError
from .graphs import (
    canonical_form,
    connected_graph_classes,
    girth,
    is_weakly_connected,
    rho,
)
from .homology import homology_table, is_diagonal, is_regularly_diagonal
from .record import Record

INF = float("inf")


class Polynomial(Record, frozen=True):
    """Integer polynomial in q, stored densely by degree."""

    _fields = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = tuple(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.__dict__["coefficients"] = coeffs

    @classmethod
    def from_map(cls, by_degree):
        top = max(by_degree, default=-1)
        return cls(tuple(by_degree.get(i, 0) for i in range(top + 1)))

    def __call__(self, q):
        return sum(c * q**i for i, c in enumerate(self.coefficients))

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def to_json_dict(self):
        return {str(i): c for i, c in enumerate(self.coefficients) if c}

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                q = "q" if i == 1 else f"q^{i}"
                body = q if mag == 1 else f"{mag}{q}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def regular_magnitude(G):
    """Exact signed count of all-distinct trails, graded by length.

    No trail is built: a pass over states (set of entries, last entry)
    adds one entry per layer, along ``DirectedGraph.steps``.  A state packs
    its trail counts by length into one int, w bits per length, so a step
    of distance d is a shift by w * d.  No count exceeds the number of
    injective words, so nothing carries, and the sum of the layer of
    k + 1 entries is unpacked with the sign (-1)^k.
    """
    w = sum(perm(G.n, k) for k in range(G.n + 1)).bit_length()
    slot = (1 << w) - 1
    shifts = [[(v, w * d) for v, d in steps] for steps in G.steps]
    layer = {(1 << v, v): 1 for v in range(G.n)}
    by_length = {}
    sign = 1
    while layer:
        total = sum(layer.values())
        for l in range(total.bit_length() // w + 1):
            by_length[l] = by_length.get(l, 0) + sign * (total >> (w * l) & slot)
        grown = {}
        for (seen, last), packed in layer.items():
            for v, shift in shifts[last]:
                if not seen >> v & 1:
                    key = (seen | 1 << v, v)
                    grown[key] = grown.get(key, 0) + (packed << shift)
        layer, sign = grown, -sign
    return Polynomial.from_map(by_length)


def magnitude_series(G, l_max):
    """Signed trail counts up to the length cap; a truncated series.

    No trail is built.  The signed count c_l(v) of the trails of length
    l that start at v satisfies c_0(v) = 1 and, for l > 0,
    c_l(v) = -sum c_{l - d(v, w)}(w) over the steps (w, d(v, w)) of
    ``DirectedGraph.steps`` with d(v, w) <= l: such a trail is the step
    from v to w, then a shorter trail from w.  Summed over v, this is the
    expansion of the sum of the entries of Z_G(q)^{-1}, with
    Z_G(q)[u][v] = q^d(u, v) (Leinster, *The magnitude of a graph*, Math.
    Proc. Camb. Phil. Soc. 2019).
    """
    if l_max is None or l_max < 0:
        raise GraphError("magnitude series needs a finite degree cap")
    steps = G.steps
    counts = [[1] * G.n]
    for l in range(1, l_max + 1):
        counts.append(
            [-sum(counts[l - d][w] for w, d in out if d <= l) for out in steps]
        )
    return Polynomial(tuple(sum(c) for c in counts))


def classify_diagonality(G, l_max=None):
    """Diagonality of both homology tables, from ``homology.is_diagonal``.

    The regular verdict is exact; the ordinary one is only meaningful up
    to the cap, which defaults to the certified regular bound.  Neither
    builds a table: both stop at the first group off the diagonal.
    """
    if l_max is None:
        l_max = certified_length_bound(G)
    return {
        "regularly_diagonal": is_regularly_diagonal(G),
        "regular_certified": True,
        "diagonal_up_to_lmax": is_diagonal(G, "ordinary", l_max),
        "l_max": l_max,
        "ordinary_truncated": True,
    }


def complete_graph_detector(G):
    """Homological completeness test for a connected undirected graph.

    The verdict comes from regular diagonality alone and is cross
    checked against literally having every edge.
    """
    if not G.symmetric:
        raise GraphError("completeness detection needs an undirected graph")
    if not is_weakly_connected(G):
        raise GraphError("completeness detection needs a connected graph")
    diagonal = is_regularly_diagonal(G)
    edge_complete = len(G.undirected_pairs()) == comb(G.n, 2)
    return {
        "verdict": "complete" if diagonal else "not complete",
        "regularly_diagonal": diagonal,
        "edge_complete": edge_complete,
        "agrees": diagonal == edge_complete,
    }


def subdiagonal_bound(G):
    """Girth bound on how far below the diagonal homology must reach.

    For girth g the bound is N = ceil((g-1)^2 / 2) - (g-1); verification
    finds nonzero entries with l - k >= N in the exact table.
    """
    g = girth(G)
    if g == INF:
        raise GraphError("girth bound needs a cycle; the graph is a forest")
    square = (g - 1) * (g - 1)
    bound = (square + 1) // 2 - (g - 1)
    table = homology_table(G, "eulerian", "Z")
    witnesses = sorted((k, l) for (k, l) in table.entries if l - k >= bound)
    return {
        "girth": g,
        "bound": bound,
        "witnesses": witnesses,
        "verified": bool(witnesses),
    }


class SubgraphNetwork(Record, frozen=True):
    """Isomorphism classes of connected spanning subgraphs of K_n, with
    the degree-difference adjacency between classes: ``classes`` holds
    canonical edge tuples, sorted by (size, form), and ``adjacency`` the
    sorted tuple of neighbour indices of each class."""

    _fields = ("n", "classes", "adjacency")

    def __init__(self, n, classes, adjacency):
        self.__dict__.update(n=n, classes=classes, adjacency=adjacency)

    @property
    def input_max_degree(self):
        """Largest vertex degree of K_n."""
        return self.n - 1

    @property
    def node_count(self):
        return len(self.classes)

    def max_degree(self):
        return max((len(nbrs) for nbrs in self.adjacency), default=0)

    def locate(self, H):
        if not H.symmetric:
            raise GraphError("network nodes are undirected graphs")
        if H.n != self.n:
            raise GraphError(f"expected {self.n} vertices, got {H.n}")
        canon = canonical_form(self.n, [tuple(sorted(p)) for p in H.undirected_pairs()])
        try:
            return self.classes.index(canon)
        except ValueError:
            raise GraphError("graph is not a connected spanning subgraph class") from None

    def _reach(self, i):
        """Breadth-first distances from class i to every class it reaches."""
        seen = {i: 0}
        frontier = [i]
        while frontier:
            nxt = []
            for a in frontier:
                for b in self.adjacency[a]:
                    if b not in seen:
                        seen[b] = seen[a] + 1
                        nxt.append(b)
            frontier = nxt
        return seen

    def distance(self, i, j):
        seen = self._reach(i)
        if j not in seen:
            raise GraphError("classes lie in different network components")
        return seen[j]

    def diameter(self):
        """Largest distance between two classes.

        Classes with the same closed neighbourhood, such as two classes
        with equal sorted degree sequences, are adjacent twins: swapping
        them is an automorphism of the network, so they have the same
        eccentricity.  One breadth-first search per twin class suffices.
        """
        firsts = {}
        for i, nbrs in enumerate(self.adjacency):
            firsts.setdefault(frozenset(nbrs).union((i,)), i)
        best = 0
        for i in firsts.values():
            seen = self._reach(i)
            if len(seen) < self.node_count:
                raise GraphError("classes lie in different network components")
            best = max(best, max(seen.values()))
        return best

    def is_connected(self):
        return bool(self.classes) and len(self._reach(0)) == self.node_count

    def to_json_dict(self):
        return {
            "n": self.n,
            "nodes": [
                {"index": i, "edges": [list(e) for e in form]}
                for i, form in enumerate(self.classes)
            ],
            "adjacency": {str(i): list(nbrs) for i, nbrs in enumerate(self.adjacency)},
            "diameter": self.diameter(),
            "input_max_degree": self.input_max_degree,
        }


def subgraph_network(n):
    """Build the network of connected spanning subgraphs of K_n.

    Its nodes are the classes of ``connected_graph_classes(n)``, found by
    vertex augmentation and ordered by (edge count, form).  Two classes
    are adjacent when some labeled representatives differ in degree by
    at most one at every vertex.  In K_n any labeling is a subgraph, and
    matching two sorted degree sequences in order minimizes the largest
    difference, so the rule compares sorted degree sequences entrywise.
    The vertex cap is firm: K_8 has 11,117 classes, about 62 M pairs.
    """
    if n > 7:
        raise ResourceCapError(f"subgraph network capped at 7 vertices, got {n}")
    classes = sorted(connected_graph_classes(n), key=lambda form: (len(form), form))
    degrees = []
    for form in classes:
        degs = [0] * n
        for a, b in form:
            degs[a] += 1
            degs[b] += 1
        degrees.append(sorted(degs))
    neighbours = [[] for _ in classes]
    for i, j in itertools.combinations(range(len(classes)), 2):
        if all(abs(x - y) <= 1 for x, y in zip(degrees[i], degrees[j])):
            neighbours[i].append(j)
            neighbours[j].append(i)
    return SubgraphNetwork(
        n=n,
        classes=tuple(classes),
        adjacency=tuple(tuple(nbrs) for nbrs in neighbours),
    )


def delta_distance(G, H):
    """Path distance between the classes of G and H in the network of
    connected spanning subgraphs of the complete graph."""
    if not G.symmetric or not H.symmetric:
        raise GraphError("the network distance is defined for undirected graphs")
    if G.n != H.n:
        raise GraphError(f"vertex counts differ: {G.n} vs {H.n}")
    if not is_weakly_connected(G) or not is_weakly_connected(H):
        raise GraphError("both graphs must be connected")
    net = subgraph_network(G.n)
    return net.distance(net.locate(G), net.locate(H))


def gamma(n, s):
    """Largest girth over connected graphs on n vertices with s edges
    removed from complete, i.e. with C(n,2) - s edges.

    Above n^2/4 edges a triangle is forced (Mantel); otherwise the answer
    is the largest girth among the triangle-free classes of
    ``connected_graph_classes`` with m edges, generated by vertex
    augmentation with a girth filter and pruned as soon as a class can
    no longer end with m edges.  With m >= n edges every class has a
    cycle.
    """
    if n > 8:
        raise ResourceCapError(f"gamma capped at 8 vertices, got {n}")
    if n < 3 or not 0 <= s <= comb(n, 2) - n:
        raise GraphError(f"edge deficit {s} is infeasible on {n} vertices")
    m = comb(n, 2) - s
    if m > n * n // 4:
        return 3
    classes = connected_graph_classes(n, min_girth=4, edge_count=m)
    return max((girth(rho(n, f)) for f in classes), default=3)
