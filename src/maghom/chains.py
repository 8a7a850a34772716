"""Trail complexes of a digraph, as one length-filtered cell complex.

A trail is a vertex tuple whose consecutive entries are distinct and lie
at finite distance; its length is the sum of the step distances.
``trail_complex`` builds three flavors:

* eulerian: all entries pairwise distinct.  Finitely supported, and the
  whole table fits under a certified length bound.  Its total complex
  is the complex of injective words.
* ordinary: only consecutive entries distinct, the truncated nerve of
  reachability.  A length cutoff is mandatory; results are truncated.
* discriminant: the quotient ordinary/eulerian, presented on the basis
  of trails with at least one repeated entry.

Each is a ``FilteredComplex`` of cells bucketed by (degree, length).  Its
total differential is the full face sum; deleting an endpoint lowers the
length, and deleting an interior entry keeps it exactly when the entry
lies on a geodesic between its neighbours, so that the two steps add up
to the distance they shortcut.  The graded piece at one length, the
magnitude differential, keeps only those deletions; faces with a
repeated consecutive pair always change length, and quotient faces that
land on all-distinct tuples are dropped.
``FilteredComplex.coboundary`` is the one face-sum loop.  It walks the
cells one degree up once and writes each face's sign into that face's
column, building either differential anti-transposed, as the list of
sparse columns {row: coeff} that the coboundary pass reduces in place.
A trail complex carries one mask per cell, its length-preserving
deletions as bits, so a graded piece visits only the faces it keeps and
tests no geodesic.  Its columns are new on every call.  Entries are
+-1 whatever the ring; ``matrices`` reads them mod p over F_p.

At fixed length the differential deletes interior entries only, so each
graded piece splits by first vertex: ``trail_complex`` with starts builds
the summand of the trails from those vertices.

Every cell here and in ``pathhom`` comes from one enumerator, ``walks``,
which takes the step relation as data and grows every walk one entry per
degree, in flat lists in lexicographic order.  A walk's deletable
entries are its prefix's, plus the old last entry when it lies on a
geodesic to the new step: one lookup in the distance matrix per walk,
and no geodesic table.  Nothing is cached: the cells live exactly as
long as the complex that holds them.  Trails walk over finite-distance
steps; allowed paths walk along edges, each step of weight 1, and need
no masks.  An n-step
trail of length n steps along edges only, so the eulerian cells at
bidegree (n, n) are exactly the regular allowed n-paths (Hepworth and
Willerton, *Categorifying the magnitude of a graph*, HHA 2017).
"""

from __future__ import annotations

from .errors import GraphError
from .graphs import distance_matrix, eccentricity_bound

KINDS = ("eulerian", "ordinary", "discriminant")


def finite_steps(G):
    """Per vertex, the ascending (target, distance) pairs at finite positive distance."""
    return tuple(
        tuple((v, d) for v, d in enumerate(row) if v != u and d != float("inf"))
        for u, row in enumerate(distance_matrix(G))
    )


def walks(steps, starts, cap=None, distinct=False, dist=None):
    """Every walk along steps from the starts, bucketed by (entries - 1, weight).

    steps gives, per vertex, the ascending (target, weight) pairs a walk
    may take from it.  cap bounds the total weight: no walk steps past
    it, and a negative cap leaves no walk at all.  distinct keeps only
    walks whose entries are pairwise distinct; steps has one entry per
    vertex, so such a walk stops once it holds all of them.  The walks
    of one degree are one flat list, grown from the sorted starts by each
    walk's steps in ascending order, so every degree and every bucket is
    in lexicographic order.

    Returns (buckets, masks).  With dist, the metric the weights are
    lengths in, masks parallels buckets: one int per walk, whose bit i is
    set when interior entry i lies on a geodesic between its neighbours.
    A walk's bits are its prefix's, plus the old last entry's when the
    new step completes a geodesic through it.  Without dist, masks is
    None.
    """
    cap = float("inf") if cap is None else cap
    buckets, masks = {}, None if dist is None else {}
    cells = [(s,) for s in sorted(starts)] if cap >= 0 else []
    weights = [0] * len(cells)
    marks = [0] * len(cells)
    k = 0
    while cells:
        by_weight = {}
        for cell, w, mark in zip(cells, weights, marks):
            if w in by_weight:
                at, at_marks = by_weight[w]
            else:
                at, at_marks = by_weight[w] = [], []
            at.append(cell)
            at_marks.append(mark)
        for w, (at, at_marks) in by_weight.items():
            buckets[(k, w)] = tuple(at)
            if masks is not None:
                masks[(k, w)] = tuple(at_marks)
        if distinct and k + 1 == len(steps):
            break  # every walk holds every vertex: none takes a step
        grown, grown_weights, grown_marks = [], [], []
        add, add_weight, add_mark = grown.append, grown_weights.append, grown_marks.append
        bit = 1 << k  # the old last entry is entry k of the new walk
        for cell, weight, mark in zip(cells, weights, marks):
            last, room = cell[-1], cap - weight
            blocked = cell if distinct else ()
            # no interior entry yet, or no metric to mark them by: no row
            row = dist[cell[-2]] if k and dist else None
            if row is not None:
                through, marked = row[last], mark | bit
            for v, d in steps[last]:
                if v not in blocked and d <= room:
                    add(cell + (v,))
                    add_weight(weight + d)
                    add_mark(marked if row is not None and row[v] == through + d else mark)
        cells, weights, marks = grown, grown_weights, grown_marks
        k += 1
    return buckets, masks


def has_repeat(cell):
    return len(set(cell)) < len(cell)


def certified_length_bound(G):
    """Length bound below which every all-distinct trail lives.

    A trail on pairwise distinct vertices takes at most n - 1 steps and
    each step is at most the largest finite distance in the graph.
    """
    if G.n <= 1:
        return 0
    return (G.n - 1) * eccentricity_bound(G)


def trail_complex(G, kind="eulerian", l_max=None, starts=None):
    """The trail complex of the given kind, filtered by length up to l_max.

    Eulerian trails are finitely many, so l_max may be omitted; the
    ordinary and discriminant complexes are unbounded and need it.  The
    enumeration of every kind takes no step past l_max, and a trail's
    prefixes are no longer than it, so the capped complex holds exactly
    the cells of weight at most l_max.  With
    starts, only the trails whose first entry is one of them; at fixed
    length the differential keeps the first entry, so this is a direct
    summand of every graded piece.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown complex kind {kind!r}; expected one of {KINDS}")
    if kind != "eulerian" and l_max is None:
        raise ValueError(f"the {kind} complex is unbounded in length; pass l_max")
    starts = range(G.n) if starts is None else starts
    buckets, masks = walks(
        finite_steps(G),
        starts,
        l_max,
        distinct=kind == "eulerian",
        dist=distance_matrix(G),
    )
    complex_ = FilteredComplex(buckets, masks)
    if kind == "discriminant":
        return complex_.select(keep=has_repeat)
    return complex_


class FilteredComplex:
    """Cells graded by degree and weighted by a filtration level.

    buckets maps (degree, weight) to the sorted cells there; masks, when
    given, maps the same keys to one int per cell, in cell order, whose
    bit i marks the deletion of entry i as one of the graded piece at
    that weight, and makes coboundary(k, weight) a graded piece of the
    trail differential.
    Cells of one degree are ordered by (weight, cell), so every
    filtration stage is a coordinate prefix.
    """

    def __init__(self, buckets, masks=None):
        self.buckets = buckets
        self.masks = masks
        self.top_degree = max((k for k, _ in buckets), default=-1)
        self.top_weight = max((w for _, w in buckets), default=0)
        self._degrees = {}
        self._spots = {}  # mask -> the entries it marks, with their signs

    def _degree(self, k):
        """All cells of degree k in (weight, cell) order, with their weights."""
        if k not in self._degrees:
            keys = sorted(key for key in self.buckets if key[0] == k)
            cells = tuple(c for key in keys for c in self.buckets[key])
            weights = tuple(key[1] for key in keys for _ in self.buckets[key])
            self._degrees[k] = (cells, weights)
        return self._degrees[k]

    def degrees(self):
        return sorted({k for k, _ in self.buckets})

    def cells(self, k, weight=None):
        if weight is None:
            return self._degree(k)[0]
        return self.buckets.get((k, weight), ())

    def weights(self, k):
        """Weight of each degree-k cell, in cell order."""
        return self._degree(k)[1]

    def dim(self, k, weight=None):
        return len(self.cells(k, weight))

    def graded_counts(self):
        return {key: len(cells) for key, cells in self.buckets.items()}

    def f_vector(self):
        return tuple(self.dim(k) for k in range(self.top_degree + 1))

    def euler_characteristic(self):
        return sum((-1) ** k * len(cells) for (k, _), cells in self.buckets.items())

    def select(self, weight=None, keep=None, key=None):
        """The complex of the cells at weight (all, if None) for which keep
        holds (all, if None), each bucket stably sorted by key (in cell
        order, if None), with their masks; empty buckets are dropped."""
        buckets, masks = {}, None if self.masks is None else {}
        for bucket, cells in self.buckets.items():
            if weight is not None and bucket[1] != weight:
                continue
            at = range(len(cells))
            if keep is not None:
                at = [i for i in at if keep(cells[i])]
            if key is not None:
                at = sorted(at, key=lambda i: key(cells[i]))
            if at:
                buckets[bucket] = tuple(map(cells.__getitem__, at))
                if masks is not None:
                    masks[bucket] = tuple(map(self.masks[bucket].__getitem__, at))
        return FilteredComplex(buckets, masks)

    def coboundary(self, k, weight=None):
        """Differential into degree k + 1, or into its graded piece at
        weight, anti-transposed: sparse columns {row: +-1}, one per
        degree-k cell, with columns and rows both in reversed cell order.

        With weight and masks, the graded piece of a trail complex: only
        the entries a coface's mask marks are deleted, and faces outside
        the codomain are dropped.  Otherwise the full face sum: faces
        repeating a vertex consecutively are degenerate and dropped, and
        every other face must be a cell.  Each degree-(k + 1) cell is
        walked once and writes the sign of each face into that face's
        column; consecutive entries of a cell are distinct, so its faces
        are too.  The columns are new on every call and belong to the
        caller.
        """
        faces = self.cells(k, weight)
        top = len(faces) - 1
        index = {t: top - i for i, t in enumerate(faces)}
        cols = [{} for _ in faces]
        sign = (1, -1)
        cofaces = self.cells(k + 1, weight)
        row = len(cofaces)
        if weight is not None and self.masks is not None:
            spots = self._spots
            for t, mask in zip(cofaces, self.masks.get((k + 1, weight), ())):
                row -= 1
                at = spots.get(mask)
                if at is None:
                    at = spots[mask] = tuple(
                        (i, sign[i % 2]) for i in range(mask.bit_length()) if mask >> i & 1
                    )
                for i, s in at:
                    col = index.get(t[:i] + t[i + 1 :])
                    if col is not None:
                        cols[col][row] = s
        else:
            for t in cofaces:
                row -= 1
                for i in range(len(t) if len(t) > 1 else 0):
                    face = t[:i] + t[i + 1 :]
                    col = index.get(face)
                    if col is not None:
                        cols[col][row] = sign[i % 2]
                    elif all(a != b for a, b in zip(face, face[1:])):
                        raise GraphError(f"face {face} of {t} is missing")
        return cols

    def __eq__(self, other):
        """Same cells in every degree; weights are not compared."""
        return isinstance(other, FilteredComplex) and all(
            set(self.cells(k)) == set(other.cells(k))
            for k in set(self.degrees()) | set(other.degrees())
        )
