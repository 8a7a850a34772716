"""Spectral sequences of the length-filtered trail complexes.

The regular sequence (``rmpss``) filters the eulerian trail complex and
the ordinary sequence (``mpss``) the ordinary one, up to a length cap.

Over a field every page is read off one persistence pairing (Basu &
Parida, *Spectral sequences, exact couples and persistent homology of
filtrations*, Expo. Math. 2017).  Cells of one degree are ordered by
(weight, tuple), so the column reduction of each boundary pairs a birth
cell of weight b in degree n - 1 with a death cell of weight d in degree
n.  The pair shows at both ends on pages 1 .. d - b and is killed by
d_{d-b}; an unpaired cell lives forever.  With d_r : E_r(p, n) ->
E_r(p - r, n - 1),

    rank E_r(p, n) = unpaired cells at (p, n)
                     + births and deaths at (p, n) of lifetime >= r,
    rank d_r       = deaths at (p, n) of lifetime exactly r.

The pairing is that of ``homology.coboundary_pass`` on the whole
complex: coboundaries are reduced from degree 0 up with clearing, and
the pairs are those of the boundary reduction (de Silva, Morozov &
Vejdemo-Johansson, *Dualities in persistent (co)homology*, Inverse
Problems 2011).  A cell that is neither a birth nor a death is unpaired.
The reduction is the package's one column reduction,
``matrices.reduce_columns``: sparse, fraction-free over Q and mod p over
F_p, on the same +-1 columns for every field.

Differentials and page maps are matrices of page one, where E_1(p, n)
is the homology of the graded piece at weight p.  The same reduction,
recording its column operations, gives each entry's representatives,
and the class coordinates of an image are read off by reducing it
against those and the boundaries (``matrices.reduce_column``).  The
graded boundaries are weight blocks sliced from
``FilteredComplex.boundary``, built once and cached for every entry of
page one.  A matrix is a list of sparse columns {row: coefficient}, one
per source class, as ``reduce_columns`` makes them, and maps compose
with ``matrices.combine``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from math import inf

from .errors import GraphError
from .chains import trail_complex
from .graphs import distance_matrix, is_weakly_connected
from .homology import (
    chain_homology,
    coboundary_pass,
    homology_table,
    is_regularly_diagonal,
    parse_field,
)
from .matrices import combine, reduce_column, reduce_columns
from .pathhom import path_homology
from .words import injective_word_ranks


def _alive(lifetimes, r):
    """How many of the counted lifetimes reach page r."""
    return sum(m for life, m in lifetimes.items() if life >= r)


class SpectralSequence:
    def __init__(self, filtered, ring="Q"):
        self.fc = filtered
        self.ring = parse_field(ring, "spectral sequences need")
        self._bars = None
        self._page_one = {}

    @property
    def top_weight(self):
        return self.fc.top_weight

    @property
    def top_degree(self):
        return self.fc.top_degree

    @property
    def stable_r(self):
        """All page differentials vanish once r exceeds every weight."""
        return self.top_weight + 1

    def _pairing(self):
        """Lifetimes by bidegree, as two {(p, n): Counter} maps.

        The first counts births, deaths and unpaired cells (lifetime
        inf) at (p, n); the second counts the deaths alone.
        """
        if self._bars is None:
            ends, deaths = defaultdict(Counter), defaultdict(Counter)
            dead = set()
            for n, pairs, _ in coboundary_pass(self.fc, self.ring):
                here, above = self.fc.weights(n), self.fc.weights(n + 1)
                born = set()
                for i, j in pairs:
                    b, d = here[i], above[j]
                    ends[(b, n)][d - b] += 1
                    ends[(d, n + 1)][d - b] += 1
                    deaths[(d, n + 1)][d - b] += 1
                    born.add(i)
                for i, w in enumerate(here):
                    if i not in born and i not in dead:
                        ends[(w, n)][inf] += 1
                dead = {j for _, j in pairs}
            self._bars = (ends, deaths)
        return self._bars

    def entry_rank(self, r, p, n):
        return _alive(self._pairing()[0].get((p, n), {}), r)

    def page(self, r):
        """Nonzero entries of page r as {(p, n): rank}."""
        ranks = {key: _alive(bars, r) for key, bars in self._pairing()[0].items()}
        return {key: m for key, m in ranks.items() if m}

    def differential_rank(self, r, p, n):
        return self._pairing()[1].get((p, n), {}).get(r, 0)

    def turn_consistent(self, r):
        """Check E_{r+1} equals the homology of (E_r, d_r) entrywise."""
        return all(
            self.entry_rank(r + 1, p, n)
            == self.entry_rank(r, p, n)
            - self.differential_rank(r, p, n)
            - self.differential_rank(r, p + r, n + 1)
            for (p, n) in self._pairing()[0]
        )

    def infinity_page(self):
        return self.page(self.stable_r)

    def total_ranks(self):
        """Per-degree totals of the final page."""
        out = {}
        for (_, n), m in self.infinity_page().items():
            out[n] = out.get(n, 0) + m
        return out

    def _graded(self, n, p):
        """Index range [a, b) of the degree-n cells of weight exactly p."""
        return self.fc.prefix_dim(n, p - 1), self.fc.prefix_dim(n, p)

    def _columns(self, n, p_from, p_to):
        """Sparse columns of the degree-n boundary from the cells of weight
        p_from to those of weight p_to, each indexed within its weight.

        The slices are new dicts, so the cached boundary, which every
        entry of page one reads, stays intact when they are reduced."""
        a, b = self._graded(n, p_from)
        lo, hi = self._graded(n - 1, p_to)
        return [
            {i - lo: v for i, v in col.items() if lo <= i < hi}
            for col in self.fc.boundary(n)[a:b]
        ]

    def _page_one_entry(self, p, n):
        """Representatives of E_1(p, n) and the pivots that read off classes.

        Vectors are sparse on the degree-n cells of weight p.  The reduced
        boundaries from degree n + 1 are cleared from the reduction of
        degree n, so its kernel columns are the representatives, each with
        its own index as lowest entry.  With those boundaries they have
        distinct lowest entries: a basis of the cycles of the graded piece.
        """
        if (p, n) not in self._page_one:
            bounds = reduce_columns(self._columns(n + 1, p, p), self.ring)[0]
            here = self._columns(n, p, p)
            reps = reduce_columns(here, self.ring, skip=bounds, record=True)[1]
            pivots = {low: (j, col, {}) for low, (j, col, _) in bounds.items()}
            pivots.update((max(z), (i, z, {i: 1})) for i, z in enumerate(reps))
            self._page_one[(p, n)] = (reps, pivots)
        return self._page_one[(p, n)]

    def _coordinates(self, p, n, images):
        """Sparse columns of the page-one classes of images (sparse chains)
        in E_1(p, n).

        Each image is reduced by lowest entries against the representatives
        and boundaries, keeping the multiples of the representatives taken
        off; an image that does not reduce to zero raises.
        """
        pivots = self._page_one_entry(p, n)[1]
        if self.ring == "Q":
            # imported here: fractions loads decimal and numbers, and
            # nothing else on a command-line call needs them
            from fractions import Fraction
        cols = []
        for image in images:
            ops = {-1: 1}
            if reduce_column(image, pivots, self.ring, ops) is not None:
                raise ArithmeticError(f"an image in E_1({p},{n}) is not a page-one class")
            # scale * image = -sum ops[i] * rep_i + boundaries; mod p the
            # image is never scaled, so scale is 1
            scale = ops.pop(-1)
            if self.ring == "Q":
                cols.append({i: Fraction(-x, scale) for i, x in ops.items()})
            else:
                cols.append({i: -x % self.ring for i, x in ops.items()})
        return cols

    def differential(self, p, n):
        """Sparse columns of d_1 from E_1(p, n) to E_1(p - 1, n - 1)."""
        down = self._columns(n, p, p - 1)
        images = [combine(down, z, self.ring) for z in self._page_one_entry(p, n)[0]]
        return self._coordinates(p - 1, n - 1, images)


def page_map(source, target, p, n):
    """Sparse columns on E_1(p, n) of the inclusion of source's cells
    into target's, one per source class; weights must match exactly."""
    if source.ring != target.ring:
        raise ValueError("page maps need matching coefficient fields")
    a, b = source._graded(n, p)
    ta, tb = target._graded(n, p)
    index = {c: i for i, c in enumerate(target.fc.cells(n)[ta:tb])}
    cells = source.fc.cells(n)[a:b]
    images = [
        {index[cells[j]]: v for j, v in z.items()}
        for z in source._page_one_entry(p, n)[0]
    ]
    return target._coordinates(p, n, images)


def rmpss(G, ring="Q"):
    return SpectralSequence(trail_complex(G), ring)


def mpss(G, l_max, ring="Q"):
    return SpectralSequence(trail_complex(G, "ordinary", l_max), ring)


def _pages(ss, rmax):
    """Pages 1 .. min(rmax, stable_r) as lists of JSON-ready entries."""
    upto = ss.stable_r if rmax is None else min(rmax, ss.stable_r)
    pages = []
    for r in range(1, upto + 1):
        page = sorted(ss.page(r).items())
        entries = [{"l": p, "k": n, "rank": m} for (p, n), m in page]
        pages.append({"r": r, "entries": entries})
    return pages


def _table_mismatch(page_entries, table):
    """Bidegrees (l, k) where a page disagrees with a homology table's ranks."""
    keys = set(page_entries) | {(l, k) for (k, l) in table.entries}
    return sorted(
        (l, k) for l, k in keys if page_entries.get((l, k), 0) != table.rank(k, l)
    )


def rmpss_report(G, ring="Q", rmax=None):
    """Pages of the regular sequence plus its three identity checks.

    Page one must be the all-distinct trail homology, and the diagonal
    of page two must be strong path homology.  The final totals must
    have the Euler characteristic of the cell counts and, for a strongly
    connected G, whose cells are all the injective words on its
    vertices, be the homology of a wedge of D_n spheres of dimension
    n - 1 (Björner & Wachs, *On lexicographically shellable posets*,
    Trans. AMS 1983).  Every total is a rank of the reduction that also
    gives the pages, so no other reduction is compared with them.
    """
    ss = rmpss(G, ring)
    e1_mismatches = _table_mismatch(ss.page(1), homology_table(G, "eulerian", ss.ring))
    sph = path_homology(G, strong=True, ring=ss.ring)
    diag = {n: m for n in range(ss.top_degree + 1) if (m := ss.entry_rank(2, n, n))}
    totals = ss.total_ranks()
    words = sum((-1) ** n * m for n, m in totals.items()) == ss.fc.euler_characteristic()
    if G.n and all(d != inf for row in distance_matrix(G) for d in row):
        words = words and totals == injective_word_ranks(G.n)
    return {
        "stable_page": ss.stable_r,
        "pages": _pages(ss, rmax),
        "e1_matches_eulerian_homology": not e1_mismatches,
        "e1_mismatches": e1_mismatches,
        "e2_diagonal_matches_strong_path_homology": diag == sph,
        "einf_totals_match_word_homology": words,
        "einf_totals": {str(k): v for k, v in sorted(totals.items())},
    }


def _compose(outer, inner, ring):
    """The product outer * inner of matrices given as sparse columns."""
    return [combine(outer, col, ring) for col in inner]


def _inclusion_commutes(reg, ord_):
    """Check that the page-one inclusion of reg into ord_ commutes with d_1."""
    checked = 0
    for (p, n) in sorted(reg.page(1)):
        f_here = page_map(reg, ord_, p, n)
        f_down = page_map(reg, ord_, p - 1, n - 1)
        left = _compose(f_down, reg.differential(p, n), reg.ring)
        right = _compose(ord_.differential(p, n), f_here, reg.ring)
        if left != right:
            return {"commutes": False, "failed_at": (p, n), "checked": checked}
        checked += 1
    return {"commutes": True, "failed_at": None, "checked": checked}


def page_one_inclusion_report(G, l_max, ring="Q"):
    """Check the page-one map induced by including words into trails.

    At page one the map is the basis inclusion of all-distinct trails;
    the check asserts it commutes with the page-one differentials at
    every populated source bidegree.  Needs l_max to cover every
    injective word, otherwise the target complex misses some cells.
    """
    reg = rmpss(G, ring)
    if reg.top_weight > l_max:
        raise ValueError(
            f"l_max={l_max} is below the top injective word length {reg.top_weight}"
        )
    return _inclusion_commutes(reg, mpss(G, l_max, ring))


def mpss_report(G, l_max, ring="Q", rmax=2):
    """Truncated ordinary sequence: pages up to rmax plus page-one checks.

    Page one must be the (truncated) ordinary trail homology.  Every page
    is read off the same persistence pairing, so raising rmax costs
    next to nothing.
    """
    ss = mpss(G, l_max, ring)
    mh = homology_table(G, "ordinary", ss.ring, l_max=l_max)
    mismatches = _table_mismatch(ss.page(1), mh)
    reg = rmpss(G, ring)
    inclusion = _inclusion_commutes(reg, ss) if reg.top_weight <= l_max else None
    return {
        "l_max": l_max,
        "truncated": True,
        "stable_page": ss.stable_r,
        "pages": _pages(ss, rmax),
        "e1_matches_ordinary_homology": not mismatches,
        "e1_mismatches": mismatches,
        "page_one_inclusion": inclusion,
    }


def diagonal_convergence(G, ring="Q"):
    """For connected, regularly diagonal G the strong path homology must
    match the homology of the complex of injective words rank for rank."""
    if not is_weakly_connected(G):
        raise GraphError("diagonal convergence needs a connected graph")
    if not is_regularly_diagonal(G):
        raise GraphError("not regularly diagonal")
    field = parse_field(ring, "diagonal convergence needs")
    sph = path_homology(G, strong=True, ring=field)
    word = {k: g.rank for k, g in chain_homology(trail_complex(G), field).items()}
    return {
        "strong_path_ranks": {str(k): v for k, v in sorted(sph.items())},
        "word_homology_ranks": {str(k): v for k, v in sorted(word.items())},
        "match": sph == word,
    }
