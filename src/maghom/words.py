"""Flag complexes of digraphs, and the injective words built through them.

These are complexes in the ordered sense: a cell is a vertex tuple, two
tuples on the same vertex set are different cells, and the boundary is
the full alternating face sum over entry deletions.  Each builder here
returns a ``chains.FilteredComplex`` with every cell at weight 0; the
injective words of a digraph, filtered by length, are
``chains.trail_complex(G)``, and ``injective_words_via_flag`` builds the
same cells independently, through the reachability preorder.  When
every vertex reaches every other, those cells are all the injective
words, whose homology ``injective_word_ranks`` gives in closed form.
"""

from __future__ import annotations

from math import comb, factorial

from .chains import FilteredComplex
from .errors import GraphError
from .graphs import distance_matrix, reachability_preorder


def directed_flag(G):
    """Distinct-vertex tuples whose entries are pairwise forward edges."""
    by_dim = {}
    stack = []

    def extend():
        by_dim.setdefault(len(stack) - 1, []).append(tuple(stack))
        for v in range(G.n):
            if v in stack:
                continue
            if all(G.has_edge(u, v) for u in stack):
                stack.append(v)
                extend()
                stack.pop()

    for x0 in range(G.n):
        stack.append(x0)
        extend()
        stack.pop()
    return FilteredComplex({(k, 0): tuple(sorted(c)) for k, c in by_dim.items()})


def order_complex(P):
    """Chains of a poset presented as a transitively closed acyclic digraph."""
    dist = distance_matrix(P)
    for u in range(P.n):
        for v in range(P.n):
            if u == v:
                continue
            if dist[u][v] != float("inf"):
                if not P.has_edge(u, v):
                    raise GraphError(f"not transitively closed: {u} reaches {v}")
                if P.has_edge(v, u):
                    raise GraphError(f"not acyclic: {u} and {v} are comparable both ways")
    return directed_flag(P)


def injective_words_via_flag(G):
    """The cells of trail_complex(G), built through the reachability flag."""
    return directed_flag(reachability_preorder(G))


def derangement_count(n):
    """Fixed-point-free permutation count by inclusion-exclusion."""
    return sum((-1) ** i * comb(n, i) * factorial(n - i) for i in range(n + 1))


def injective_word_ranks(n):
    """Homology ranks of the complex of all injective words on n >= 1
    letters: a wedge of D_n spheres of dimension n - 1 (Farmer, *Cellular
    homology for posets*, Math. Japon. 1978; Björner & Wachs, Trans. AMS
    1983), free over Z."""
    return {0: 1, n - 1: derangement_count(n)} if n > 1 else {0: 1}
