"""The length-filtered cell complex: trails, words and the nerve."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_chains import boundary, boundary_oracle, brute_trails, compose, dense
from test_snf import small_digraphs

from maghom.chains import (
    FilteredComplex,
    certified_length_bound,
    trail_complex,
    walks,
)
from maghom.errors import GraphError
from maghom.graphs import adjacency, digraph, distance_matrix, family, transitive_tournament
from maghom.homology import chain_homology
from maghom.words import injective_words_via_flag


def ranks(groups):
    return {k: g.rank for k, g in groups.items()}


def brute_counts(G, kind, k_max, l_max):
    counts = {}
    for k in range(k_max + 1):
        for l in range(l_max + 1):
            if count := len(brute_trails(G, kind, k, l)):
                counts[(k, l)] = count
    return counts


def test_graded_counts_match_trail_bases():
    for G in (family("complete", 3), family("cycle", 4), transitive_tournament(3)):
        want = brute_counts(G, "eulerian", G.n - 1, certified_length_bound(G))
        assert trail_complex(G).graded_counts() == want


def test_nerve_counts_match_ordinary_basis():
    G = family("complete", 3)
    l_max = 4
    fc = trail_complex(G, "ordinary", l_max)
    assert fc.graded_counts() == brute_counts(G, "ordinary", l_max, l_max)
    assert fc.top_weight == l_max


def test_weights_sorted_and_prefixes():
    G = family("cycle", 4)
    fc = trail_complex(G)
    for k in fc.degrees():
        ws = fc.weights(k)
        assert list(ws) == sorted(ws)
        # each filtration stage, the cells of weight <= p, is a prefix
        for p in range(-1, fc.top_weight + 1):
            stage = [c for w in range(p + 1) for c in fc.cells(k, w)]
            assert list(fc.cells(k)[: len(stage)]) == stage
        assert len(fc.cells(k)) == sum(len(fc.cells(k, w)) for w in set(ws))


def test_boundary_respects_filtration():
    G = family("cycle", 4)
    fc = trail_complex(G)
    for k in fc.degrees():
        if k == 0:
            continue
        cols = boundary(fc, k)
        wk = fc.weights(k)
        wk1 = fc.weights(k - 1)
        for j, col in enumerate(cols):
            for i, v in col.items():
                assert v != 0
                assert wk1[i] <= wk[j]
        if k >= 2:
            assert not any(compose(boundary(fc, k - 1), cols))


@pytest.mark.parametrize("ring", ["Z", "Q", "Fp:2", "Fp:3"])
def test_total_homology_equals_word_homology(ring):
    for G in (
        family("complete", 3),
        family("dir_linear", 3),
        digraph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (3, 1), (3, 2)]),
    ):
        via_flag = chain_homology(injective_words_via_flag(G), ring)
        assert chain_homology(trail_complex(G), ring) == via_flag


def test_nerve_truncation_grows_monotonically():
    G = family("complete", 3)
    small = trail_complex(G, "ordinary", 2)
    large = trail_complex(G, "ordinary", 3)
    cs = small.graded_counts()
    cl = large.graded_counts()
    for key, count in cs.items():
        assert cl[key] == count
    assert sum(cl.values()) > sum(cs.values())


def test_nerve_degenerate_faces_are_dropped():
    # interior deletion of (0,1,0,1) gives (0,0,1) and (0,1,1): degenerate
    G = family("complete", 2)
    fc = trail_complex(G, "ordinary", 3)
    cols = boundary(fc, 3)
    cells = fc.cells(3)
    j = cells.index((0, 1, 0, 1))
    faces = [fc.cells(2)[i] for i in cols[j]]
    assert all(a != b for f in faces for a, b in zip(f, f[1:]))


def test_full_boundary_needs_closed_cells():
    # the face (1,) of (0, 1) is not a cell
    fc = FilteredComplex({(0, 0): ((0,),), (1, 1): ((0, 1),)})
    with pytest.raises(GraphError):
        fc.coboundary(0)
    with pytest.raises(GraphError):
        boundary(fc, 1)


def face_loop(fc, k, weight, dist=None):
    """Reference: the differential out of degree k as sparse columns, one
    per degree-k cell in cell order, by deleting each entry of each cell
    and looking the face up.  With dist, the graded piece of the trail
    differential: an interior entry is deleted only when it lies on a
    geodesic between its neighbours."""
    index = {t: i for i, t in enumerate(fc.cells(k - 1, weight))}
    sign = (1, -1)
    cols = []
    for t in fc.cells(k, weight):
        col = {}
        if dist is not None:
            for i in range(1, len(t) - 1):
                a, b, c = t[i - 1], t[i], t[i + 1]
                if dist[a][b] + dist[b][c] == dist[a][c]:
                    row = index.get(t[:i] + t[i + 1 :])
                    if row is not None:
                        col[row] = sign[i % 2]
        else:
            for i in range(len(t) if len(t) > 1 else 0):
                row = index.get(t[:i] + t[i + 1 :])
                if row is not None:
                    col[row] = sign[i % 2]
        cols.append(col)
    return cols


def anti_transpose(cols, nrows):
    """The matrix with rows and columns swapped and both reversed."""
    out = [{} for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            out[nrows - 1 - r][len(cols) - 1 - c] = v
    return out


@settings(max_examples=80, deadline=None)
@given(
    small_digraphs(max_n=6),
    st.sampled_from(["eulerian", "ordinary", "discriminant"]),
    st.integers(0, 4),
)
def test_coboundary_is_the_anti_transposed_face_loop(G, kind, l_max):
    fc = trail_complex(G, kind, None if kind == "eulerian" else l_max)
    dist = distance_matrix(G)
    # the quotient has no full face sum: its faces may be all-distinct
    total = () if kind == "discriminant" else (None,)
    for weight in (*total, *sorted({l for _, l in fc.buckets})):
        for k in range(-1, fc.top_degree + 1):
            want = face_loop(fc, k + 1, weight, None if weight is None else dist)
            cols = fc.coboundary(k, weight)
            assert cols == anti_transpose(want, fc.dim(k, weight)), (k, weight)
            assert boundary(fc, k + 1, weight) == want, (k, weight)
            # each call builds new columns, so reducing them in place is safe
            again = fc.coboundary(k, weight)
            assert all(a is not b for a, b in zip(cols, again))


def test_empty_graph_filtration():
    fc = trail_complex(digraph(1, []))
    assert fc.top_degree == 0
    assert fc.dim(0) == 1
    assert ranks(chain_homology(fc)) == {0: 1}


def cell_entries(mat, rows, cols):
    """Entries of a matrix given as sparse columns, keyed by (row cell, column cell)."""
    return {(rows[i], cols[j]): v for j, col in enumerate(mat) for i, v in col.items()}


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), st.sampled_from(["eulerian", "ordinary", "discriminant"]))
def test_graded_boundary_is_the_associated_graded(G, kind):
    fc = trail_complex(G, kind, None if kind == "eulerian" else 3)
    for k, l in fc.graded_counts():
        graded = boundary(fc, k, l)
        assert dense(graded, fc.dim(k - 1, l)) == boundary_oracle(G, kind, k, l), (k, l)
        if kind == "discriminant" or k == 0:
            continue
        # the weight-l diagonal block of the full boundary
        rows, cols = fc.cells(k - 1, l), fc.cells(k, l)
        full = cell_entries(boundary(fc, k), fc.cells(k - 1), fc.cells(k))
        block = {key: v for key, v in full.items() if key[0] in rows and key[1] in cols}
        assert cell_entries(graded, rows, cols) == block, (k, l)


def depth_first_walks(steps, starts, cap=None, distinct=False):
    """Reference: every walk along steps from the starts, bucketed by
    (entries - 1, weight), by one depth-first pre-order pass per start, in
    ascending order over ascending steps, so each bucket is in
    lexicographic order.  A negative cap leaves no walk."""
    cap = float("inf") if cap is None else cap
    if cap < 0:
        return {}
    buckets = {}
    stack = []
    blocked = stack if distinct else ()

    def extend(last, weight):
        buckets.setdefault((len(stack) - 1, weight), []).append(tuple(stack))
        for v, d in steps[last]:
            if v not in blocked and weight + d <= cap:
                stack.append(v)
                extend(v, weight + d)
                stack.pop()

    for start in sorted(starts):
        stack.append(start)
        extend(start, 0)
        stack.pop()
    return {key: tuple(cells) for key, cells in buckets.items()}


def geodesic_marks(dist, t):
    """Reference mask of a trail: bit i for each interior entry on a
    geodesic between its neighbours."""
    return sum(
        1 << i
        for i in range(1, len(t) - 1)
        if dist[t[i - 1]][t[i]] + dist[t[i]][t[i + 1]] == dist[t[i - 1]][t[i + 1]]
    )


@settings(max_examples=100, deadline=None)
@given(
    small_digraphs(max_n=6),
    st.booleans(),
    st.booleans(),
    st.one_of(st.none(), st.integers(-2, 5)),
    st.data(),
)
def test_walks_match_the_depth_first_reference(G, along_edges, distinct, cap, data):
    if cap is None:
        distinct = True  # the only walks that end without a cap
    starts = data.draw(st.sets(st.integers(0, G.n - 1)), label="starts")
    dist = distance_matrix(G)
    if along_edges:
        steps = tuple(tuple((v, 1) for v in vs) for vs in adjacency(G))
    else:
        steps = G.steps
    want = depth_first_walks(steps, starts, cap, distinct)
    assert walks(steps, starts, cap, distinct) == (want, None)
    buckets, masks = walks(steps, starts, cap, distinct, dist)
    assert buckets == want
    assert masks.keys() == buckets.keys()
    for key, cells in buckets.items():
        assert masks[key] == tuple(geodesic_marks(dist, t) for t in cells), key
