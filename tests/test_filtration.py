"""Length-filtered complexes feeding the spectral sequences."""

import pytest

from maghom.chains import BigradedComplex, enumerate_basis
from maghom.filtration import injective_word_filtration, nerve_filtration
from maghom.graphs import digraph, family, transitive_tournament
from maghom.words import injective_words, word_homology


def ranks(groups):
    return {k: g.rank for k, g in groups.items()}


def test_graded_counts_match_trail_bases():
    for G in (family("complete", 3), family("cycle", 4), transitive_tournament(3)):
        fc = injective_word_filtration(G)
        for (k, l), count in fc.graded_counts().items():
            assert count == len(enumerate_basis(G, "eulerian", k, l))
        bc = BigradedComplex.build(G, "eulerian")
        assert fc.graded_counts() == bc.counts()


def test_nerve_counts_match_ordinary_basis():
    G = family("complete", 3)
    l_max = 4
    fc = nerve_filtration(G, l_max)
    bc = BigradedComplex.build(G, "ordinary", l_max=l_max)
    assert fc.graded_counts() == bc.counts()
    assert fc.top_weight == l_max


def test_weights_sorted_and_prefixes():
    G = family("cycle", 4)
    fc = injective_word_filtration(G)
    for k in fc.degrees():
        ws = fc.weights(k)
        assert list(ws) == sorted(ws)
        assert fc.prefix_dim(k, -1) == 0
        assert fc.prefix_dim(k, fc.top_weight) == fc.dim(k)
        # stage dimension counts exactly the cells of weight <= p
        for p in range(fc.top_weight + 1):
            assert fc.prefix_dim(k, p) == sum(1 for w in ws if w <= p)


def test_boundary_respects_filtration():
    G = family("cycle", 4)
    fc = injective_word_filtration(G)
    for k in fc.degrees():
        if k == 0:
            continue
        mat = fc.boundary(k)
        wk = fc.weights(k)
        wk1 = fc.weights(k - 1)
        for (i, j), v in mat.entries.items():
            assert v != 0
            assert wk1[i] <= wk[j]
        if k >= 2:
            assert fc.boundary(k - 1).matmul(mat).is_zero()


@pytest.mark.parametrize("ring", ["Z", "Q", "Fp:2", "Fp:3"])
def test_total_homology_equals_word_homology(ring):
    for G in (
        family("complete", 3),
        family("dir_linear", 3),
        digraph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (3, 1), (3, 2)]),
    ):
        fc = injective_word_filtration(G)
        wc = injective_words(G)
        assert ranks(fc.total_homology(ring)) == ranks(word_homology(wc, ring))


def test_nerve_truncation_grows_monotonically():
    G = family("complete", 3)
    small = nerve_filtration(G, 2)
    large = nerve_filtration(G, 3)
    cs = small.graded_counts()
    cl = large.graded_counts()
    for key, count in cs.items():
        assert cl[key] == count
    assert sum(cl.values()) > sum(cs.values())


def test_nerve_degenerate_faces_are_dropped():
    # interior deletion of (0,1,0,1) gives (0,0,1) and (0,1,1): degenerate
    G = family("complete", 2)
    fc = nerve_filtration(G, 3)
    mat = fc.boundary(3)
    cells = fc.cells(3)
    j = cells.index((0, 1, 0, 1))
    faces = [fc.cells(2)[i] for (i, jj) in mat.entries if jj == j]
    assert all(a != b for f in faces for a, b in zip(f, f[1:]))


def test_empty_graph_filtration():
    fc = injective_word_filtration(digraph(1, []))
    assert fc.top_degree == 0
    assert fc.dim(0) == 1
    assert ranks(fc.total_homology()) == {0: 1}
