"""Length-filtered chain complexes over a digraph.

Two constructions feed the spectral sequence machinery:

* the complex of injective words, filtered by trail length, whose
  associated graded differential is the all-distinct trail differential;
* the truncated nerve of the reachability preorder, whose cells are the
  ordinary trails up to a length cutoff, with degenerate faces dropped.

In both, deleting an endpoint strictly lowers the length and deleting an
interior entry preserves it exactly when the shortcut distance adds up,
so the filtration is respected by the full face-sum differential.
"""

from __future__ import annotations

from .chains import _eulerian_buckets, _trail_buckets
from .homology import chain_homology
from .words import face_sum


class FilteredComplex:
    """Cells graded by degree and weighted by filtration level.

    Cells of one degree are ordered by (weight, tuple), so every
    filtration stage is a coordinate prefix.
    """

    def __init__(self, cells_by_degree, drop_degenerate):
        self._cells = {}
        self._weights = {}
        for k, pairs in cells_by_degree.items():
            if not pairs:
                continue
            ordered = sorted(pairs, key=lambda cw: (cw[1], cw[0]))
            self._cells[k] = tuple(c for c, _ in ordered)
            self._weights[k] = tuple(w for _, w in ordered)
        self._drop_degenerate = drop_degenerate
        self._boundaries = {}

    def degrees(self):
        return sorted(self._cells)

    @property
    def top_degree(self):
        return max(self._cells, default=-1)

    @property
    def top_weight(self):
        return max((w[-1] for w in self._weights.values()), default=0)

    def cells(self, k):
        return self._cells.get(k, ())

    def weights(self, k):
        return self._weights.get(k, ())

    def dim(self, k):
        return len(self._cells.get(k, ()))

    def prefix_dim(self, k, p):
        """Dimension of the filtration stage at weight p in degree k."""
        ws = self._weights.get(k, ())
        lo, hi = 0, len(ws)
        while lo < hi:
            mid = (lo + hi) // 2
            if ws[mid] <= p:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def graded_counts(self):
        out = {}
        for k, ws in self._weights.items():
            for w in ws:
                out[(k, w)] = out.get((k, w), 0) + 1
        return out

    def boundary(self, k):
        if k not in self._boundaries:
            self._boundaries[k] = face_sum(
                self.cells(k), self.cells(k - 1), self._drop_degenerate
            )
        return self._boundaries[k]

    def total_homology(self, ring="Z"):
        """Homology of the underlying complex, filtration forgotten."""
        dims = {k: self.dim(k) for k in self.degrees()}
        return chain_homology(dims, self.boundary, ring)


def injective_word_filtration(G):
    """Injective words of G, filtered by total trail length."""
    by_degree = {}
    for (k, l), trails in _eulerian_buckets(G).items():
        by_degree.setdefault(k, []).extend((t, l) for t in trails)
    return FilteredComplex(by_degree, drop_degenerate=False)


def nerve_filtration(G, l_max):
    """Trails of G up to l_max: the truncated nerve of reachability.

    Faces that would repeat a vertex consecutively are degenerate and
    contribute nothing to the differential.
    """
    by_degree = {}
    for (k, l), trails in _trail_buckets(G, l_max).items():
        by_degree.setdefault(k, []).extend((t, l) for t in trails)
    return FilteredComplex(by_degree, drop_degenerate=True)
