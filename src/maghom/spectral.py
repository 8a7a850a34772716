"""Spectral sequence of a length-filtered chain complex.

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

Degrees are reduced from the top down with clearing (Chen & Kerber,
*Persistent homology computation with a twist*, EuroCG 2011): a cell
already paired as a birth is a cycle, so its column is skipped.  Columns
are sparse; over Q they are combined fraction-free in integers, over F_p
in integers mod p.

Matrices of differentials and page maps are taken on page one only,
where E_1(p, n) is the homology of the graded piece at weight p.  Each
entry's representatives and denominators are computed once, and all
images into an entry are solved for in one elimination.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from math import gcd, inf

from .errors import GraphError
from .exactla import RowReducer, nullspace, rref
from .filtration import injective_word_filtration, nerve_filtration
from .graphs import is_weakly_connected
from .homology import homology_table, parse_field
from .pathhom import path_homology


def _alive(lifetimes, r):
    """How many of the counted lifetimes reach page r."""
    return sum(m for life, m in lifetimes.items() if life >= r)


def _apply(cols, vec):
    """Dense columns times a vector."""
    out = [0] * len(cols[0])
    for col, x in zip(cols, vec):
        if x:
            for i, v in enumerate(col):
                if v:
                    out[i] += v * x
    return out


def _mul(A, B, out_rows, inner, out_cols, p):
    """Shape-explicit product; A is out_rows x inner, B is inner x out_cols."""
    out = [[0] * out_cols for _ in range(out_rows)]
    for i in range(out_rows):
        row = out[i]
        for t in range(inner):
            a = A[i][t]
            if a:
                brow = B[t]
                for j in range(out_cols):
                    if brow[j]:
                        row[j] += a * brow[j]
    if p:
        return [[x % p for x in row] for row in out]
    return out


def _page_one_only(r):
    if r != 1:
        raise ValueError(f"page maps are computed on page one only, not page {r}")


class SpectralSequence:
    def __init__(self, filtered, ring="Q"):
        self.fc = filtered
        self.p = parse_field(ring, "spectral sequences need")
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

    def _reduce(self, col, pivots):
        """Clear the lowest entry of col against pivots while one matches.

        Over Q the step col <- a * col - c * piv keeps the entries integral.
        """
        p = self.p
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                break
            if p:
                a, c = 1, col[low] * pow(piv[low], -1, p)
            else:
                g = gcd(piv[low], col[low])
                a, c = piv[low] // g, col[low] // g
            if a != 1:
                for i in col:
                    col[i] *= a
            for i, v in piv.items():
                x = col.get(i, 0) - c * v
                if p:
                    x %= p
                if x:
                    col[i] = x
                else:
                    del col[i]
        if col and not p:
            g = gcd(*col.values())
            col = {i: v // g for i, v in col.items()}
        return col

    def _pairing(self):
        """Lifetimes by bidegree, as two {(p, n): Counter} maps.

        The first counts births, deaths and unpaired cells (lifetime
        inf) at (p, n); the second counts the deaths alone.
        """
        if self._bars is None:
            ends, deaths = defaultdict(Counter), defaultdict(Counter)
            births = ()
            for n in range(self.top_degree, -1, -1):
                w_here, w_below = self.fc.weights(n), self.fc.weights(n - 1)
                cols = [{} for _ in w_here]
                for (i, j), v in self.fc.boundary(n).entries.items():
                    if self.p:
                        v %= self.p
                    if v:
                        cols[j][i] = v
                pivots = {}
                for j, col in enumerate(cols):
                    if j in births:  # a cycle, counted above as its pair's birth
                        continue
                    col = self._reduce(col, pivots)
                    if not col:
                        ends[(w_here[j], n)][inf] += 1
                        continue
                    low = max(col)
                    pivots[low] = col
                    b, d = w_below[low], w_here[j]
                    ends[(b, n - 1)][d - b] += 1
                    ends[(d, n)][d - b] += 1
                    deaths[(d, n)][d - b] += 1
                births = pivots
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

    def _block(self, n, p_from, p_to):
        """Dense columns of the degree-n boundary from weight p_from to p_to."""
        a, b = self._graded(n, p_from)
        lo, hi = self._graded(n - 1, p_to)
        cols = [[0] * (hi - lo) for _ in range(b - a)]
        for (i, j), v in self.fc.boundary(n).entries.items():
            if lo <= i < hi and a <= j < b:
                cols[j - a][i - lo] = v
        return cols

    def _page_one_entry(self, p, n):
        """Denominators and representatives of E_1(p, n).

        Vectors are in the coordinates of the degree-n cells of weight p.
        """
        if (p, n) not in self._page_one:
            here = self._block(n, p, p)
            cycles = nullspace(list(zip(*here)), len(here), self.p)
            red = RowReducer(self.p)
            denom = [c for c in self._block(n + 1, p, p) if any(c) and red.add(c)]
            self._page_one[(p, n)] = (denom, [z for z in cycles if red.add(z)])
        return self._page_one[(p, n)]

    def _coordinates(self, p, n, images):
        """Columns of the page-one classes of images in E_1(p, n).

        One elimination of [representatives | denominators | images]
        solves for every image; one outside cycles + boundaries raises.
        """
        denom, reps = self._page_one_entry(p, n)
        basis = reps + denom
        if not any(map(any, images)):
            return [[0] * len(images) for _ in reps]
        red, pivots = rref(zip(*basis, *images), len(basis) + len(images), self.p)
        if len(pivots) > len(basis):
            raise ArithmeticError(f"an image in E_1({p},{n}) is not a page-one class")
        return [row[len(basis) :] for row in red[: len(reps)]]

    def differential(self, r, p, n):
        """Matrix of d_1 from E_1(p, n) to E_1(p - 1, n - 1); r must be 1."""
        _page_one_only(r)
        reps = self._page_one_entry(p, n)[1]
        if not reps:
            return []
        down = self._block(n, p, p - 1)
        return self._coordinates(p - 1, n - 1, [_apply(down, z) for z in reps])


def page_map(source, target, r, p, n, cell_map=None):
    """Matrix on E_1(p, n) of a filtration- and weight-preserving cell map.

    cell_map sends a source cell to a target cell (identity by default)
    and must commute with the boundary; weights must match exactly.
    Only page one is supported, so r must be 1.
    """
    if source.p != target.p:
        raise ValueError("page maps need matching coefficient fields")
    _page_one_only(r)
    reps = source._page_one_entry(p, n)[1]
    if not reps:
        return [[] for _ in target._page_one_entry(p, n)[1]]
    a, b = source._graded(n, p)
    ta, tb = target._graded(n, p)
    index = {c: i for i, c in enumerate(target.fc.cells(n)[ta:tb])}
    cells = source.fc.cells(n)[a:b]
    moved = [index[c if cell_map is None else cell_map(c)] for c in cells]
    images = []
    for z in reps:
        img = [0] * (tb - ta)
        for i, v in zip(moved, z):
            img[i] += v
        images.append(img)
    return target._coordinates(p, n, images)


def rmpss(G, ring="Q"):
    return SpectralSequence(injective_word_filtration(G), ring)


def mpss(G, l_max, ring="Q"):
    return SpectralSequence(nerve_filtration(G, l_max), ring)


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

    Page one must be the all-distinct trail homology, the diagonal of
    page two must be strong path homology, and the final totals must be
    the homology of the complex of injective words.
    """
    ss = rmpss(G, ring)
    field = ss.p or "Q"
    e1_mismatches = _table_mismatch(ss.page(1), homology_table(G, "eulerian", field))
    sph = path_homology(G, strong=True, ring=field)
    diag = {n: m for n in range(ss.top_degree + 1) if (m := ss.entry_rank(2, n, n))}
    totals = ss.total_ranks()
    word = {k: g.rank for k, g in ss.fc.total_homology(field).items() if g.rank}
    return {
        "stable_page": ss.stable_r,
        "pages": _pages(ss, rmax),
        "e1_matches_eulerian_homology": not e1_mismatches,
        "e1_mismatches": e1_mismatches,
        "e2_diagonal_matches_strong_path_homology": diag == sph,
        "einf_totals_match_word_homology": totals == word,
        "einf_totals": {str(k): v for k, v in sorted(totals.items())},
    }


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
    ord_ = mpss(G, l_max, ring)
    checked = 0
    for (p, n) in sorted(reg.page(1)):
        s = reg.entry_rank(1, p, n)
        t = reg.entry_rank(1, p - 1, n - 1)
        so = ord_.entry_rank(1, p, n)
        m = ord_.entry_rank(1, p - 1, n - 1)
        f_here = page_map(reg, ord_, 1, p, n)
        f_down = page_map(reg, ord_, 1, p - 1, n - 1)
        left = _mul(f_down, reg.differential(1, p, n), m, t, s, reg.p)
        right = _mul(ord_.differential(1, p, n), f_here, m, so, s, reg.p)
        if left != right:
            return {"commutes": False, "failed_at": (p, n), "checked": checked}
        checked += 1
    return {"commutes": True, "failed_at": None, "checked": checked}


def mpss_report(G, l_max, ring="Q", rmax=2):
    """Truncated ordinary sequence: pages up to rmax plus page-one checks.

    Page one must be the (truncated) ordinary trail homology.  Every page
    is read off the same persistence pairing, so raising rmax costs
    next to nothing.
    """
    ss = mpss(G, l_max, ring)
    mh = homology_table(G, "ordinary", ss.p or "Q", l_max=l_max)
    mismatches = _table_mismatch(ss.page(1), mh)
    inclusion = None
    if rmpss(G, ring).top_weight <= l_max:
        inclusion = page_one_inclusion_report(G, l_max, ring)
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
    full = homology_table(G, "eulerian", "Z")
    if any(k != l for (k, l) in full.entries):
        raise GraphError("not regularly diagonal")
    field = parse_field(ring, "diagonal convergence needs") or "Q"
    sph = path_homology(G, strong=True, ring=field)
    fc = injective_word_filtration(G)
    word = {k: g.rank for k, g in fc.total_homology(field).items() if g.rank}
    return {
        "strong_path_ranks": {str(k): v for k, v in sorted(sph.items())},
        "word_homology_ranks": {str(k): v for k, v in sorted(word.items())},
        "match": sph == word,
    }
