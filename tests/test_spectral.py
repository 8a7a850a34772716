"""Spectral sequences of the length filtration."""

from bisect import bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from math import inf

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix
from test_chains import boundary, combine, dense
from test_filtration import depth_first_walks
from test_matrices import ref_reduce_column, ref_reduce_columns
from test_snf import small_digraphs

from maghom.chains import FilteredComplex, finite_steps, trail_complex
from maghom.graphs import digraph, family, transitive_tournament
from maghom.homology import chain_homology, coboundary_pass, homology_table
from maghom.matrices import reduce_column, reduce_columns
from maghom.pathhom import path_homology
from maghom.spectral import (
    SpectralSequence,
    diagonal_convergence,
    mpss,
    mpss_report,
    page_one_inclusion_report,
    rmpss,
    rmpss_report,
)
from maghom.verify import SPHERE_1
from maghom.words import injective_words_via_flag

SPHERE_2 = digraph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (3, 1), (3, 2)])

# the graphs of the rmpss check of verify-paper
RMPSS_CHECK_GRAPHS = [
    family("complete", 3),
    family("complete", 4),
    family("tournament", 4),
    family("dir_linear", 4),
    family("dir_cycle", 4),
    SPHERE_1,
    SPHERE_2,
]


# Reference: page one as matrices, as the spectral module built it before
# the page-one inclusion was read off the long exact sequence.  E_1(p, n)
# is the homology of the graded piece at weight p; the reference
# reduction that records its column operations
# (``test_matrices.ref_reduce_columns``) gives each entry's
# representatives, and the class coordinates of an image are read off by
# reducing it against those and the boundaries.  A matrix is a list of
# sparse columns, one per source class.
def graded(fc, n, p):
    """Index range [a, b) of the degree-n cells of weight exactly p."""
    ws = fc.weights(n)
    return bisect_right(ws, p - 1), bisect_right(ws, p)


class PageOne:
    def __init__(self, ss):
        self.fc, self.ring = ss.fc, ss.ring
        self.p = ss.ring if isinstance(ss.ring, int) else None
        self._entries = {}

    def columns(self, n, p_from, p_to):
        """Sparse columns of the degree-n boundary from the cells of weight
        p_from to those of weight p_to, each indexed within its weight."""
        a, b = graded(self.fc, n, p_from)
        lo, hi = graded(self.fc, n - 1, p_to)
        return [
            {i - lo: v for i, v in col.items() if lo <= i < hi}
            for col in boundary(self.fc, n)[a:b]
        ]

    def entry(self, p, n):
        """Representatives of E_1(p, n) and the pivots that read off
        classes: the kernel columns of the degree-n reduction with the
        boundaries from degree n + 1 cleared, and those boundaries."""
        if (p, n) not in self._entries:
            bounds = ref_reduce_columns(self.columns(n + 1, p, p), self.p)[0]
            here = self.columns(n, p, p)
            reps = ref_reduce_columns(here, self.p, skip=bounds, record=True)[1]
            pivots = {low: (col, {}) for low, (col, _) in bounds.items()}
            pivots.update((max(z), (z, {i: 1})) for i, z in enumerate(reps))
            self._entries[(p, n)] = (reps, pivots)
        return self._entries[(p, n)]

    def coordinates(self, p, n, images):
        """Sparse columns of the classes of images in E_1(p, n); an image
        that is not a page-one class raises."""
        pivots = self.entry(p, n)[1]
        cols = []
        for image in images:
            col, ops = ref_reduce_column(image, pivots, self.p, {-1: 1})
            if col:
                raise ArithmeticError(f"an image in E_1({p},{n}) is not a page-one class")
            # scale * image = -sum ops[i] * rep_i + boundaries
            scale = ops.pop(-1)
            if self.ring == "Q":
                cols.append({i: Fraction(-x, scale) for i, x in ops.items()})
            else:
                cols.append({i: -x % self.ring for i, x in ops.items()})
        return cols

    def differential(self, p, n):
        """Sparse columns of d_1 from E_1(p, n) to E_1(p - 1, n - 1)."""
        down = self.columns(n, p, p - 1)
        images = [combine(down, z, self.ring) for z in self.entry(p, n)[0]]
        return self.coordinates(p - 1, n - 1, images)


def page_map(source, target, p, n):
    """Sparse columns on E_1(p, n) of the inclusion of source's cells into
    target's (both PageOne), one per source class."""
    a, b = graded(source.fc, n, p)
    ta, tb = graded(target.fc, n, p)
    index = {c: i for i, c in enumerate(target.fc.cells(n)[ta:tb])}
    cells = source.fc.cells(n)[a:b]
    images = [{index[cells[j]]: v for j, v in z.items()} for z in source.entry(p, n)[0]]
    return target.coordinates(p, n, images)


def compose(outer, inner, ring):
    """The product outer * inner of matrices given as sparse columns."""
    return [combine(outer, col, ring) for col in inner]


def inclusion_commutes(reg, ord_, regular_page_one):
    """Whether the page-one inclusion of reg into ord_ (both PageOne)
    commutes with d_1 at every entry of regular_page_one."""
    for p, n in sorted(regular_page_one):
        f_here = page_map(reg, ord_, p, n)
        f_down = page_map(reg, ord_, p - 1, n - 1)
        left = compose(f_down, reg.differential(p, n), reg.ring)
        right = compose(ord_.differential(p, n), f_here, reg.ring)
        if left != right:
            return False
    return True

GRAPHS = [
    family("complete", 3),
    family("dir_linear", 4),
    family("dir_cycle", 4),
    transitive_tournament(3),
    SPHERE_2,
]


def test_first_page_is_diagonal_homology():
    for G in GRAPHS:
        ss = rmpss(G)
        emh = homology_table(G, ring="Q")
        want = {(l, k): g.rank for (k, l), g in emh.entries.items()}
        assert ss.page(1) == want, G


def test_second_page_diagonal_is_strong_path_homology():
    for G in GRAPHS:
        ss = rmpss(G)
        diag = {p: r for (p, n), r in ss.page(2).items() if p == n}
        want = path_homology(G, strong=True)
        assert diag == want, G


def test_infinity_totals_match_word_homology():
    for G in GRAPHS:
        ss = rmpss(G)
        totals = ss.total_ranks()
        words = injective_words_via_flag(G)
        want = {k: g.rank for k, g in chain_homology(words, "Q").items()}
        assert totals == want, G


def test_directed_cycle_jumps_to_derangements():
    ss = rmpss(family("dir_cycle", 4))
    assert ss.total_ranks() == {0: 1, 3: 9}
    # the jump needs a differential on some later page
    assert ss.page(1) != ss.infinity_page()


def test_pages_stabilize():
    for G in GRAPHS:
        ss = rmpss(G)
        r = ss.stable_r
        assert ss.page(r) == ss.page(r + 1) == ss.infinity_page()


def test_euler_characteristic_constant_across_pages():
    for G in GRAPHS:
        ss = rmpss(G)
        first = None
        for r in range(1, ss.stable_r + 1):
            chi = sum((-1) ** n * rank for (p, n), rank in ss.page(r).items())
            if first is None:
                first = chi
            assert chi == first, (G, r)


def test_differential_ranks_account_for_page_drops():
    for G in GRAPHS:
        ss = rmpss(G)
        for r in range(1, ss.stable_r):
            for (p, n), rank in ss.page(r).items():
                out = ss.differential_rank(r, p, n)
                into = ss.differential_rank(r, p + r, n + 1)
                assert ss.entry_rank(r + 1, p, n) == rank - out - into


def test_turn_consistency():
    for G in GRAPHS:
        ss = rmpss(G)
        for r in range(1, ss.stable_r + 1):
            assert ss.turn_consistent(r)


def test_truncated_sequence_and_inclusion():
    G = family("complete", 3)
    ss = mpss(G, l_max=4)
    # page 1 of the truncated sequence is ordinary magnitude homology
    mh = homology_table(G, kind="ordinary", ring="Q", l_max=4)
    want = {(l, k): g.rank for (k, l), g in mh.entries.items()}
    assert ss.page(1) == want

    report = page_one_inclusion_report(G, l_max=4)
    assert report["exact"]
    assert report["inexact_weights"] == []
    reg = rmpss(G)
    assert [(e["l"], e["k"]) for e in report["ranks"]] == sorted(reg.page(1))
    # the reference: page-one matrices commute with d_1
    assert inclusion_commutes(PageOne(reg), PageOne(ss), reg.page(1))


def test_inclusion_needs_room_for_the_whole_word_complex():
    G = family("complete", 3)
    with pytest.raises(ValueError):
        page_one_inclusion_report(G, l_max=1)


def test_page_map_identity_commutes():
    G = family("complete", 3)
    ss = rmpss(G)
    # identity inclusion of the sequence into itself is full rank
    one = PageOne(ss)
    for (p, n), rank in ss.page(1).items():
        mat = page_map(one, one, p, n)
        assert len(mat) == rank
        assert sum(1 for col in mat for v in col.values() if v) >= rank


@pytest.mark.parametrize("ring", ["Q", "Fp:2", "Fp:3"])
def test_identity_page_map_is_the_identity_matrix(ring):
    # class coordinates of a representative are its own unit vector, with
    # the sign and scale the reduction took out put back
    for G in GRAPHS:
        for ss in (rmpss(G, ring), mpss(G, 3, ring)):
            one = PageOne(ss)
            for (p, n), m in ss.page(1).items():
                want = [{j: 1} for j in range(m)]
                assert page_map(one, one, p, n) == want, (G, p, n)


def test_reports_are_json_ready():
    rep = rmpss_report(family("complete", 3))
    assert rep["e1_matches_eulerian_homology"]
    assert rep["e2_diagonal_matches_strong_path_homology"]
    assert rep["einf_totals_match_word_homology"]
    assert rep["e1_mismatches"] == []
    assert rep["einf_totals"] == {"0": 1, "2": 2}
    # pages serialize directly
    import json

    json.dumps(rep)
    assert rep["pages"][0]["r"] == 1
    assert {"l": 1, "k": 1, "rank": 6} in rep["pages"][0]["entries"]

    trep = mpss_report(family("complete", 3), l_max=4)
    assert trep["truncated"] is True
    assert trep["l_max"] == 4
    assert trep["e1_matches_ordinary_homology"]
    assert trep["page_one_inclusion"]["exact"]


def test_diagonal_convergence_report():
    rep = diagonal_convergence(family("complete", 3))
    assert rep["match"]
    assert rep["strong_path_ranks"] == rep["word_homology_ranks"]


def test_field_characteristic_changes_nothing_here():
    # small torsion-free cases: same ranks over Q and F2
    for G in (family("complete", 3), transitive_tournament(3)):
        assert rmpss(G, ring="Q").total_ranks() == rmpss(G, ring="Fp:2").total_ranks()


# pages of the old window-based code, recorded before the persistence pairing
DIR_CYCLE_4_PAGES = {
    1: {(0, 0): 4, (1, 1): 4, (5, 2): 4, (6, 3): 4, (7, 3): 4, (9, 3): 4},
    2: {(0, 0): 1, (1, 1): 1, (5, 2): 1, (6, 3): 1, (7, 3): 4, (9, 3): 4},
    3: {(0, 0): 1, (1, 1): 1, (5, 2): 1, (6, 3): 1, (7, 3): 4, (9, 3): 4},
    4: {(0, 0): 1, (1, 1): 1, (5, 2): 1, (6, 3): 1, (7, 3): 4, (9, 3): 4},
}
CYCLE_4_TRUNCATED_PAGES = {
    1: {(0, 0): 4, (1, 1): 8, (2, 2): 12, (3, 3): 16, (4, 4): 20},
    2: {(0, 0): 1, (4, 4): 11},
    3: {(0, 0): 1, (4, 4): 11},
    4: {(0, 0): 1, (4, 4): 11},
}


def matrix_rank(rows, ring):
    """Rank over Q or F_p (ring "Q" or p), by sympy."""
    if not rows or not rows[0]:
        return 0
    domain = sympy.QQ if ring == "Q" else sympy.GF(ring)
    entries = [[domain(x) for x in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), domain).rank()


def test_pinned_pages():
    ss = rmpss(family("dir_cycle", 4))
    assert {r: ss.page(r) for r in range(1, 5)} == DIR_CYCLE_4_PAGES
    ss = mpss(family("cycle", 4), 4)
    assert {r: ss.page(r) for r in range(1, 5)} == CYCLE_4_TRUNCATED_PAGES


@settings(max_examples=100, deadline=None)
@given(small_digraphs(max_n=4), st.sampled_from(["Q", "Fp:2", "Fp:3"]), st.booleans())
def test_pages_against_smith_form_homology(G, ring, regular):
    if regular:
        ss, table = rmpss(G, ring), homology_table(G, "eulerian", ring)
    else:
        ss, table = mpss(G, 3, ring), homology_table(G, "ordinary", ring, l_max=3)
    # page one is the homology of the graded pieces
    want = {(l, k): g.rank for (k, l), g in table.entries.items() if g.rank}
    assert ss.page(1) == want
    # the final page adds up to the homology of the whole complex
    total = chain_homology(ss.fc, ring)
    assert ss.total_ranks() == {k: g.rank for k, g in total.items() if g.rank}
    chi = None
    for r in range(1, ss.stable_r + 1):
        here, after = ss.page(r), ss.page(r + 1)
        assert all(m <= here.get(key, 0) for key, m in after.items()), r
        euler = sum((-1) ** n * m for (_, n), m in here.items())
        assert chi is None or euler == chi
        chi = euler
        for (p, n), m in here.items():
            out = ss.differential_rank(r, p, n)
            into = ss.differential_rank(r, p + r, n + 1)
            assert ss.entry_rank(r + 1, p, n) == m - out - into, (r, p, n)
    # page-one matrices have the shapes and ranks the pairing counts
    one = PageOne(ss)
    for (p, n), m in ss.page(1).items():
        assert matrix_rank(dense(page_map(one, one, p, n), m), ss.ring) == m
        d1 = one.differential(p, n)
        below = ss.entry_rank(1, p - 1, n - 1)
        assert len(d1) == m
        assert all(0 <= i < below for col in d1 for i in col)
        assert matrix_rank(dense(d1, below), ss.ring) == ss.differential_rank(1, p, n)


def test_reports_take_prime_field_rings():
    G = family("complete", 3)
    rep = rmpss_report(G, ring="Fp:2")
    assert rep["einf_totals_match_word_homology"]
    assert rep["einf_totals"] == {"0": 1, "2": 2}
    assert mpss_report(G, 4, ring="Fp:3")["e1_matches_ordinary_homology"]
    assert diagonal_convergence(G, ring="Fp:2")["match"]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from(GRAPHS), small_digraphs(max_n=4)),
    st.sampled_from(["Q", "Fp:2", "Fp:3"]),
    st.booleans(),
)
def test_page_one_differential_squares_to_zero(G, ring, regular):
    ss = rmpss(G, ring) if regular else mpss(G, 3, ring)
    one = PageOne(ss)
    for p, n in ss.page(1):
        square = compose(one.differential(p - 1, n - 1), one.differential(p, n), ss.ring)
        assert not any(square), (p, n)


def test_page_one_inclusion_composes_nonzero_columns(monkeypatch):
    # the reference commuting check of complete:4 compares products that
    # are not all zero, so it does not pass by comparing empty columns
    products = []
    original = compose

    def recording(outer, inner, p):
        out = original(outer, inner, p)
        products.append(out)
        return out

    monkeypatch.setitem(globals(), "compose", recording)
    reg = rmpss(family("complete", 4))
    assert inclusion_commutes(PageOne(reg), PageOne(mpss(family("complete", 4), 3)), reg.page(1))
    assert any(col for product in products for col in product)
    assert page_one_inclusion_report(family("complete", 4), 3)["exact"]


def inclusion_matrix_ranks(G):
    """Reference: the rank of the page-one inclusion matrix of G at each
    entry of the regular page one, over Q."""
    reg = rmpss(G)
    source, target = PageOne(reg), PageOne(mpss(G, reg.top_weight))
    out = []
    for p, n in sorted(reg.page(1)):
        rows = target.fc.dim(n, p)  # an upper bound on the rank of E_1(p, n)
        rank = matrix_rank(dense(page_map(source, target, p, n), rows), "Q")
        out.append({"l": p, "k": n, "rank": rank})
    return out


@pytest.mark.parametrize("G", RMPSS_CHECK_GRAPHS)
def test_page_one_inclusion_ranks_match_the_page_one_matrices(G):
    report = page_one_inclusion_report(G, rmpss(G).top_weight)
    assert report["exact"]
    assert report["ranks"] == inclusion_matrix_ranks(G)
    assert any(entry["rank"] for entry in report["ranks"])


@settings(max_examples=40, deadline=None)
@given(small_digraphs(max_n=4))
def test_page_one_inclusion_ranks_match_the_page_one_matrices_on_random_digraphs(G):
    report = page_one_inclusion_report(G, rmpss(G).top_weight)
    assert report["exact"]
    assert report["ranks"] == inclusion_matrix_ranks(G)


def test_mpss_report_leaves_the_inclusion_out_below_the_top_word_length():
    # the top injective word of C_4 has length 5, above l_max = 4
    assert rmpss(family("cycle", 4)).top_weight == 5
    assert mpss_report(family("cycle", 4), 4)["page_one_inclusion"] is None
    assert mpss_report(family("cycle", 4), 5)["page_one_inclusion"]["exact"]


def top_down_pairing(ss):
    """Reference: the lifetimes of ``ss`` from the top-down boundary
    reduction with clearing (Chen & Kerber, *Persistent homology
    computation with a twist*, EuroCG 2011), as two {(p, n): Counter}
    maps, births, deaths and unpaired cells first, deaths alone second.

    Degrees run from the top down; a cell already paired as a birth is a
    cycle, so its column is skipped.
    """
    ends, deaths = defaultdict(Counter), defaultdict(Counter)
    births = ()
    for n in range(ss.fc.top_degree, -1, -1):
        w_here, w_below = ss.fc.weights(n), ss.fc.weights(n - 1)
        pivots = {}
        for j, col in enumerate(boundary(ss.fc, n)):
            if j in births:
                continue
            low = reduce_column(col, pivots, ss.ring)
            if low is None:
                ends[(w_here[j], n)][inf] += 1
                continue
            pivots[low] = (j, col)
            b, d = w_below[low], w_here[j]
            ends[(b, n - 1)][d - b] += 1
            ends[(d, n)][d - b] += 1
            deaths[(d, n)][d - b] += 1
        births = pivots
    return ends, deaths


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.sampled_from([family("cycle", 5), family("complete", 4), family("tournament", 5)]),
        small_digraphs(max_n=5),
    ),
    st.sampled_from(["Q", "Fp:2", "Fp:3"]),
    st.one_of(st.none(), st.integers(1, 5)),
)
def test_pairing_matches_the_top_down_reduction(G, ring, l_max):
    # l_max None is the regular sequence, an integer the ordinary one
    ss = rmpss(G, ring) if l_max is None else mpss(G, l_max, ring)
    assert ss._pairing() == top_down_pairing(ss)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.sampled_from([family("cycle", 5), family("complete", 4)]),
        small_digraphs(max_n=5),
    )
)
def test_readers_leave_the_next_coboundary_intact(G):
    # homology, the pairing and the page-one maps reduce coboundary columns
    # of one complex in place, and so does a reduction here; every call
    # builds new columns, so after all of them the next call's columns
    # equal those of a freshly built complex
    fc = trail_complex(G)
    for ring in ("Q", "Fp:2", "Fp:3"):
        ss = SpectralSequence(fc, ring)
        one = PageOne(ss)
        for p, n in ss.page(1):
            one.differential(p, n)
    for ring in ("Z", "Q", "Fp:2", "Fp:3"):
        chain_homology(fc, ring)
        for l in sorted({l for _, l in fc.buckets}):
            chain_homology(fc, ring, weight=l)
    for ring in ("Q", "Fp:2", "Fp:3"):
        SpectralSequence(fc, ring).page(2)
    fresh = FilteredComplex(fc.buckets, fc.masks)
    for k in range(fc.top_degree + 1):
        for weight in (None, *sorted({l for _, l in fc.buckets})):
            reduce_columns(fc.coboundary(k, weight), "Q")
            assert fc.coboundary(k, weight) == fresh.coboundary(k, weight), (k, weight)


@pytest.mark.parametrize(
    "G", [family("cycle", 6), family("complete", 4), transitive_tournament(5)]
)
def test_rmpss_pairs_match_the_depth_first_cells(G):
    # the pairing of rmpss, on the cells of the degree-by-degree walk and
    # on those of the depth-first reference: same cells in the same order,
    # so the same pairs and divisors
    reference = FilteredComplex(depth_first_walks(finite_steps(G), range(G.n), distinct=True))
    got = list(coboundary_pass(rmpss(G).fc, "Q"))
    assert got == list(coboundary_pass(reference, "Q"))
    assert sum(len(pairs) for _, pairs, _ in got) > 0
