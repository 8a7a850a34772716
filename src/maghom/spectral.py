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

The page-one inclusion of the regular sequence into the ordinary one
is the inclusion of eulerian into ordinary trails on each graded piece,
so its ranks are read off the long exact sequence of that pair at each
weight (``homology.les_verify``), and no page-one matrix is built.
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
    les_verify,
    parse_field,
)
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


def _inclusion_ranks(G, words, ring):
    """The page-one inclusion of the regular sequence into the ordinary
    one, read off the long exact sequence at each weight of words, the
    eulerian trail complex of G."""
    ranks, inexact = [], []
    for p in sorted({w for _, w in words.buckets}):
        les = les_verify(G, p, ring)
        if les["eulerian"]:
            incl = les["rank_inclusion"]
            ranks += [{"l": p, "k": n, "rank": incl.get(n, 0)} for n in les["eulerian"]]
            if not les["exact"]:
                inexact.append(p)
    return {"exact": not inexact, "inexact_weights": inexact, "ranks": ranks}


def page_one_inclusion_report(G, l_max, ring="Q"):
    """Ranks of the page-one map induced by including words into trails.

    E_1(p, n) of either sequence is the homology of its graded piece at
    weight p, so at page one the map is the inclusion of the eulerian
    graded piece into the ordinary one, the first map of the long exact
    sequence at length p.  Its rank at each populated entry (p, n) of the
    regular page one is ``les_verify(G, p, ring)["rank_inclusion"][n]``,
    and the report is exact when that sequence is exact at each populated
    weight p.  Needs l_max to cover every injective word, otherwise the
    target sequence misses some cells.
    """
    ring = parse_field(ring, "spectral sequences need")
    words = trail_complex(G)
    if words.top_weight > l_max:
        raise ValueError(
            f"l_max={l_max} is below the top injective word length {words.top_weight}"
        )
    return _inclusion_ranks(G, words, ring)


def mpss_report(G, l_max, ring="Q", rmax=2):
    """Truncated ordinary sequence: pages up to rmax plus page-one checks.

    Page one must be the (truncated) ordinary trail homology.  Every page
    is read off the same persistence pairing, so raising rmax costs
    next to nothing.  page_one_inclusion is the report of
    ``page_one_inclusion_report``, or None when l_max is below the top
    injective word length.
    """
    ss = mpss(G, l_max, ring)
    mh = homology_table(G, "ordinary", ss.ring, l_max=l_max)
    mismatches = _table_mismatch(ss.page(1), mh)
    words = trail_complex(G)
    inclusion = _inclusion_ranks(G, words, ss.ring) if words.top_weight <= l_max else None
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
