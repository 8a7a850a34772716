"""Spectral sequence of a length-filtered chain complex.

Entries come from cycle ladders inside the filtration:

    Z_r(p, n) = { x in F_p C_n : dx in F_{p-r} C_{n-1} }
    E_r(p, n) = Z_r(p, n) / ( Z_{r-1}(p-1, n) + d Z_{r-1}(p+r-1, n+1) )

with the page differential induced by d, dropping the filtration index
by r and the degree by 1.  Coefficients are a field (the rationals by
default), so entries are dimensions plus representative bases.

Everything is computed inside weight windows: a column of weight at
most p - r satisfies the Z_r condition for free, so

    Z_r(p, n) = F_{p-r} C_n  (+)  ker M,

where M is the boundary restricted to cells of weight in (p-r, p] on
both sides.  Denominators, representatives, differentials, and page
maps all live on those windows too, which keeps the linear algebra at
the scale of a few bidegrees instead of whole degree slices.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GraphError
from .exactla import RowReducer, nullspace, solve_columns
from .filtration import injective_word_filtration, nerve_filtration
from .graphs import is_weakly_connected
from .homology import homology_table, parse_field
from .pathhom import path_homology


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


class SpectralSequence:
    def __init__(self, filtered, ring="Q"):
        self.fc = filtered
        self.p = parse_field(ring, "spectral sequences need")
        self._kernels = {}
        self._entries = {}
        self._diff_ranks = {}
        self._cols = {}

    def _columns(self, n):
        """Sparse columns of the degree-n boundary: lists of (row, value)."""
        if n not in self._cols:
            mat = self.fc.boundary(n)
            cols = [[] for _ in range(mat.ncols)]
            for (i, j), v in mat.entries.items():
                cols[j].append((i, v))
            self._cols[n] = cols
        return self._cols[n]

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

    def _window(self, n, lo, hi):
        """Index range [a, b) of degree-n cells with weight in (lo, hi]."""
        return self.fc.prefix_dim(n, lo), self.fc.prefix_dim(n, hi)

    def _kernel(self, r, p, n):
        """Basis of ker(boundary restricted to the (p-r, p] windows).

        Together with the free block F_{p-r} C_n this spans Z_r(p, n);
        vectors are in window coordinates.
        """
        if n < 0 or p < 0:
            return []
        key = (min(r, p + 1), p, n)
        if key in self._kernels:
            return self._kernels[key]
        a1, b1 = self._window(n, p - r, p)
        width = b1 - a1
        if width == 0:
            basis = []
        else:
            rows = {}
            if n >= 1:
                a0, b0 = self._window(n - 1, p - r, p)
                if b0 > a0:
                    mat = self.fc.boundary(n)
                    for (i, j), v in mat.entries.items():
                        if a0 <= i < b0 and a1 <= j < b1:
                            rows.setdefault(i, [0] * width)[j - a1] = v
            if rows:
                basis = nullspace([rows[i] for i in sorted(rows)], width, self.p)
            else:
                one = 1 if self.p else Fraction(1)
                basis = [
                    [one if i == j else 0 for i in range(width)]
                    for j in range(width)
                ]
        self._kernels[key] = basis
        return basis

    def _window_image(self, n_from, vec, a_from, p, r):
        """Window part in (p-r, p] of the boundary of an embedded vector.

        vec sits at degree n_from with coordinates starting at a_from;
        the result is in the degree-(n_from - 1) window coordinates.
        """
        a0, b0 = self._window(n_from - 1, p - r, p)
        out = [0] * (b0 - a0)
        if b0 == a0:
            return out
        cols = self._columns(n_from)
        for j, v in enumerate(vec):
            if v:
                for i, w in cols[a_from + j]:
                    if a0 <= i < b0:
                        out[i - a0] += v * w
        if self.p:
            out = [x % self.p for x in out]
        return out

    def _entry(self, r, p, n):
        """Denominator basis and extending representatives at E_r(p, n).

        All vectors are in the degree-n window (p-r, p] coordinates.
        """
        key = (r, p, n)
        if key in self._entries:
            return self._entries[key]
        numerator = self._kernel(r, p, n)
        if not numerator:
            self._entries[key] = ([], [])
            return self._entries[key]
        a1, b1 = self._window(n, p - r, p)
        width = b1 - a1

        denom_gens = []
        # lower ladder: Z_{r-1}(p-1, n) meets the window in its kernel part,
        # which sits on the prefix (p-r, p-1] of this window
        for vec in self._kernel(r - 1, p - 1, n):
            denom_gens.append(vec + [0] * (width - len(vec)))
        # boundaries: images of Z_{r-1}(p+r-1, n+1); the free block
        # contributes its columns of weight inside (p-r, p]
        if n + 1 <= self.fc.top_degree:
            a_up, b_up = self._window(n + 1, p - r, p)
            cols_up = self._columns(n + 1)
            for j in range(a_up, b_up):
                col = [0] * width
                hit = False
                for i, w in cols_up[j]:
                    if a1 <= i < b1:
                        col[i - a1] = w
                        hit = True
                if hit:
                    denom_gens.append(col)
            a_k, _ = self._window(n + 1, p, p + r - 1)
            for vec in self._kernel(r - 1, p + r - 1, n + 1):
                img = self._window_image(n + 1, vec, a_k, p, r)
                if any(img):
                    denom_gens.append(img)

        red = RowReducer(self.p)
        denom = []
        for vec in denom_gens:
            if red.add(vec):
                denom.append(vec)
        reps = []
        for vec in numerator:
            if red.add(vec):
                reps.append(vec)
        self._entries[key] = (denom, reps)
        return self._entries[key]

    def entry_rank(self, r, p, n):
        return len(self._entry(r, p, n)[1])

    def page(self, r):
        """Nonzero entries of page r as {(p, n): rank}."""
        out = {}
        for n in range(self.top_degree + 1):
            for p in range(self.top_weight + 1):
                m = self.entry_rank(r, p, n)
                if m:
                    out[(p, n)] = m
        return out

    def differential(self, r, p, n):
        """Matrix of d_r from E_r(p, n) to E_r(p - r, n - 1)."""
        _, reps = self._entry(r, p, n)
        if not reps:
            return []
        denom_t, reps_t = self._entry(r, p - r, n - 1)
        a1, _ = self._window(n, p - r, p)
        cols = reps_t + denom_t
        out_cols = []
        for z in reps:
            img = self._window_image(n, z, a1, p - r, r)
            if not any(img):
                out_cols.append([0] * len(reps_t))
                continue
            x = solve_columns(cols, img, self.p)
            if x is None:
                raise ArithmeticError(
                    f"page {r} image at ({p},{n}) left its target entry"
                )
            out_cols.append(x[: len(reps_t)])
        return [list(row) for row in zip(*out_cols)] if reps_t else []

    def differential_rank(self, r, p, n):
        key = (r, p, n)
        if key not in self._diff_ranks:
            if not self.entry_rank(r, p, n) or not self.entry_rank(r, p - r, n - 1):
                self._diff_ranks[key] = 0
            else:
                rows = self.differential(r, p, n)
                red = RowReducer(self.p)
                for col in zip(*rows):
                    red.add(list(col))
                self._diff_ranks[key] = red.rank
        return self._diff_ranks[key]

    def turn_consistent(self, r):
        """Check E_{r+1} equals the homology of (E_r, d_r) entrywise."""
        for n in range(self.top_degree + 1):
            for p in range(self.top_weight + 1):
                here = self.entry_rank(r, p, n)
                if not here and not self.entry_rank(r + 1, p, n):
                    continue
                out_rank = self.differential_rank(r, p, n)
                in_rank = self.differential_rank(r, p + r, n + 1)
                if self.entry_rank(r + 1, p, n) != here - out_rank - in_rank:
                    return False
        return True

    def infinity_page(self):
        return self.page(self.stable_r)

    def total_ranks(self):
        """Per-degree totals of the final page."""
        out = {}
        for (_, n), m in self.infinity_page().items():
            out[n] = out.get(n, 0) + m
        return out


def page_map(source, target, r, p, n, cell_map=None):
    """Matrix on E_r(p, n) of a filtration- and weight-preserving cell map.

    cell_map sends a source cell to a target cell (identity by default)
    and must commute with the boundary; weights must match exactly.
    """
    if source.p != target.p:
        raise ValueError("page maps need matching coefficient fields")
    _, reps = source._entry(r, p, n)
    denom_t, reps_t = target._entry(r, p, n)
    if not reps:
        return [[0] * 0 for _ in reps_t]
    sa, sb = source._window(n, p - r, p)
    ta, tb = target._window(n, p - r, p)
    t_index = {c: i - ta for i, c in enumerate(target.fc.cells(n)) if ta <= i < tb}
    s_cells = source.fc.cells(n)
    cols = reps_t + denom_t
    out_cols = []
    for z in reps:
        img = [0] * (tb - ta)
        for i, v in enumerate(z):
            if v:
                cell = s_cells[sa + i] if cell_map is None else cell_map(s_cells[sa + i])
                img[t_index[cell]] = v
        x = solve_columns(cols, img, source.p)
        if x is None:
            raise ArithmeticError(f"cell map image at ({p},{n}) is not a page class")
        out_cols.append(x[: len(reps_t)])
    return [list(row) for row in zip(*out_cols)] if reps_t else []


def rmpss(G, ring="Q"):
    return SpectralSequence(injective_word_filtration(G), ring)


def mpss(G, l_max, ring="Q"):
    return SpectralSequence(nerve_filtration(G, l_max), ring)


def _page_entries(ss, r):
    return [
        {"l": p, "k": n, "rank": m} for (p, n), m in sorted(ss.page(r).items())
    ]


def rmpss_report(G, ring="Q", rmax=None):
    """Pages of the regular sequence plus its three identity checks.

    Page one must be the all-distinct trail homology, the diagonal of
    page two must be strong path homology, and the final totals must be
    the homology of the complex of injective words.
    """
    ss = rmpss(G, ring)
    stable = ss.stable_r
    upto = stable if rmax is None else min(rmax, stable)
    pages = [{"r": r, "entries": _page_entries(ss, r)} for r in range(1, upto + 1)]

    field = "Q" if ring == "Q" else ring
    emh = homology_table(G, "eulerian", field)
    e1 = ss.page(1)
    e1_mismatches = _table_mismatch(e1, emh)

    sph = path_homology(G, strong=True, ring=field)
    diag = {n: ss.entry_rank(2, n, n) for n in range(ss.top_degree + 1)}
    diag = {n: m for n, m in diag.items() if m}

    totals = {n: m for n, m in ss.total_ranks().items() if m}
    word = {k: g.rank for k, g in ss.fc.total_homology(field).items() if g.rank}

    return {
        "stable_page": stable,
        "pages": pages,
        "e1_matches_eulerian_homology": not e1_mismatches,
        "e1_mismatches": e1_mismatches,
        "e2_diagonal_matches_strong_path_homology": diag == sph,
        "einf_totals_match_word_homology": totals == word,
        "einf_totals": {str(k): v for k, v in sorted(totals.items())},
    }


def _table_mismatch(page_entries, table):
    """Bidegrees where a page disagrees with a homology table's ranks."""
    bad = []
    seen = set()
    for (l, k), m in page_entries.items():
        seen.add((k, l))
        if table.rank(k, l) != m:
            bad.append((l, k))
    for (k, l) in table.entries:
        if (k, l) not in seen and table.rank(k, l):
            bad.append((l, k))
    return sorted(bad)


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
    field = reg.p
    checked = 0
    for (p, n) in sorted(reg.page(1)):
        s = reg.entry_rank(1, p, n)
        t = reg.entry_rank(1, p - 1, n - 1)
        so = ord_.entry_rank(1, p, n)
        m = ord_.entry_rank(1, p - 1, n - 1)
        f_here = page_map(reg, ord_, 1, p, n)
        f_down = page_map(reg, ord_, 1, p - 1, n - 1)
        left = _mul(f_down, reg.differential(1, p, n), m, t, s, field)
        right = _mul(ord_.differential(1, p, n), f_here, m, so, s, field)
        if left != right:
            return {"commutes": False, "failed_at": (p, n), "checked": checked}
        checked += 1
    return {"commutes": True, "failed_at": None, "checked": checked}


def mpss_report(G, l_max, ring="Q", rmax=2):
    """Truncated ordinary sequence: pages up to rmax plus page-one checks.

    Page one must be the (truncated) ordinary trail homology.  Deeper
    pages are available by raising rmax, at window-sized cost per step.
    """
    ss = mpss(G, l_max, ring)
    upto = min(rmax, ss.stable_r)
    pages = [{"r": r, "entries": _page_entries(ss, r)} for r in range(1, upto + 1)]

    field = "Q" if ring == "Q" else ring
    mh = homology_table(G, "ordinary", field, l_max=l_max)
    mismatches = _table_mismatch(ss.page(1), mh)

    inclusion = None
    if rmpss(G, ring).top_weight <= l_max:
        inclusion = page_one_inclusion_report(G, l_max, ring)

    return {
        "l_max": l_max,
        "truncated": True,
        "stable_page": ss.stable_r,
        "pages": pages,
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
    field = "Q" if ring == "Q" else ring
    sph = path_homology(G, strong=True, ring=field)
    fc = injective_word_filtration(G)
    word = {k: g.rank for k, g in fc.total_homology(field).items() if g.rank}
    return {
        "strong_path_ranks": {str(k): v for k, v in sorted(sph.items())},
        "word_homology_ranks": {str(k): v for k, v in sorted(word.items())},
        "match": sph == word,
    }
