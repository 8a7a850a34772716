"""Complexes built from words in a digraph.

These are complexes in the ordered sense: a cell is a vertex tuple, two
tuples on the same vertex set are different cells, and the boundary is
the full alternating face sum over entry deletions.  Closure under
deletion is part of the construction for each builder here.
"""

from __future__ import annotations

from .chains import _eulerian_buckets
from .errors import GraphError
from .graphs import distance_matrix, reachability_preorder
from .homology import chain_homology
from .matrices import SparseMatrix


def face_sum(domain, codomain, drop_degenerate=False):
    """Alternating face sum from domain cells onto codomain cells.

    With drop_degenerate, a face repeating a vertex consecutively is
    skipped; every other face must be a codomain cell.
    """
    index = {t: i for i, t in enumerate(codomain)}
    mat = SparseMatrix(len(codomain), len(domain))
    for j, cell in enumerate(domain):
        for i in range(len(cell) if len(cell) > 1 else 0):
            face = cell[:i] + cell[i + 1 :]
            if drop_degenerate and any(a == b for a, b in zip(face, face[1:])):
                continue
            if face not in index:
                raise GraphError(f"face {face} of {cell} is missing")
            mat.add_at(index[face], j, (-1) ** i)
    return mat


class WordComplex:
    """Finite complex of ordered cells, closed under entry deletion."""

    def __init__(self, cells_by_dim):
        self._cells = {
            k: tuple(sorted(cells)) for k, cells in cells_by_dim.items() if cells
        }
        self._boundaries = {}

    def dims(self):
        return sorted(self._cells)

    @property
    def dimension(self):
        return max(self._cells, default=-1)

    def cells(self, k):
        return self._cells.get(k, ())

    def f_vector(self):
        return tuple(len(self._cells.get(k, ())) for k in range(self.dimension + 1))

    def euler_characteristic(self):
        return sum((-1) ** k * len(cells) for k, cells in self._cells.items())

    def boundary(self, k):
        if k not in self._boundaries:
            self._boundaries[k] = face_sum(self.cells(k), self.cells(k - 1))
        return self._boundaries[k]

    def export_cells(self):
        """One cell per line, vertices space separated, dimensions ascending."""
        lines = []
        for k in self.dims():
            for cell in self.cells(k):
                lines.append(" ".join(str(v) for v in cell))
        return "\n".join(lines) + ("\n" if lines else "")

    def __eq__(self, other):
        return isinstance(other, WordComplex) and self._cells == other._cells


def injective_words(G):
    """Words with pairwise distinct entries and consecutive reachability."""
    by_dim = {}
    for (k, _), trails in _eulerian_buckets(G).items():
        by_dim.setdefault(k, []).extend(trails)
    return WordComplex(by_dim)


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
    return WordComplex(by_dim)


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


def word_homology(complex_, ring="Z", reduced=False):
    """Homology of a word complex from integer Smith normal form.

    Returns {degree: AbelianGroupInvariant}, trivial groups dropped.
    """
    dims = {k: len(complex_.cells(k)) for k in complex_.dims()}
    return chain_homology(dims, complex_.boundary, ring, reduced)


def injective_words_via_flag(G):
    """Same complex as injective_words, built through the reachability flag."""
    return directed_flag(reachability_preorder(G))
