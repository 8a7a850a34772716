"""Trail bases and boundary matrices against a brute-force enumerator."""

import itertools
import math
import random

import pytest

from maghom.chains import (
    certified_length_bound,
    enumerate_basis,
    induced_chain_map,
    reversal_bijection,
    trail_complex,
    trail_length,
)
from maghom.errors import GraphError
from maghom.graphs import (
    cone,
    digraph,
    distance_matrix,
    family,
    opposite,
    transitive_tournament,
)
from maghom.homology import homology_table
from maghom.matrices import combine


def brute_trails(G, kind, k, l):
    """All weight-l trails on k+1 vertices, by trying every tuple."""
    dist = distance_matrix(G)
    out = []
    for t in itertools.product(range(G.n), repeat=k + 1):
        if any(a == b for a, b in zip(t, t[1:])):
            continue
        steps = [dist[a][b] for a, b in zip(t, t[1:])]
        if any(s == math.inf for s in steps):
            continue
        if sum(steps) != l:
            continue
        distinct = len(set(t)) == k + 1
        if kind == "eulerian" and not distinct:
            continue
        if kind == "discriminant" and distinct:
            continue
        out.append(t)
    return sorted(out)


def dense(mat):
    """Dense list-of-lists copy of a sparse matrix, for oracle comparisons."""
    rows = [[0] * mat.ncols for _ in range(mat.nrows)]
    for (r, c), v in mat.entries.items():
        rows[r][c] = v
    return rows


def compose(a, b):
    """Sparse columns of the product a b, composed with matrices.combine."""
    cols = a.columns()
    return [combine(cols, col) for col in b.columns()]


def graded_boundary(G, kind, k, l):
    """Differential of the trail complex from bidegree (k, l) to (k - 1, l)."""
    return trail_complex(G, kind, l).boundary(k, l)


def random_digraph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return digraph(n, edges)


def test_enumerate_matches_brute_force():
    rng = random.Random(40961)
    graphs = [family("complete", 3), family("cycle", 4), family("dir_cycle", 3),
              transitive_tournament(3)]
    graphs += [random_digraph(rng, rng.randint(2, 5), 0.4) for _ in range(8)]
    for G in graphs:
        for kind in ("eulerian", "ordinary", "discriminant"):
            for k in range(4):
                for l in range(6):
                    got = list(enumerate_basis(G, kind, k, l))
                    want = brute_trails(G, kind, k, l)
                    assert sorted(got) == want, (G, kind, k, l)


def test_basis_is_deterministic_and_partitioned():
    G = family("cycle", 4)
    for k in range(4):
        for l in range(6):
            mc = set(enumerate_basis(G, "ordinary", k, l))
            emc = set(enumerate_basis(G, "eulerian", k, l))
            dmc = set(enumerate_basis(G, "discriminant", k, l))
            assert emc | dmc == mc
            assert not (emc & dmc)
            assert list(enumerate_basis(G, "ordinary", k, l)) == list(
                enumerate_basis(G, "ordinary", k, l)
            )


def test_known_small_counts():
    K3 = family("complete", 3)
    assert len(enumerate_basis(K3, "eulerian", 0, 0)) == 3
    assert len(enumerate_basis(K3, "eulerian", 1, 1)) == 6
    assert len(enumerate_basis(K3, "eulerian", 2, 2)) == 6
    # first repeats show up at k=2 in a complete graph
    assert len(enumerate_basis(K3, "discriminant", 2, 2)) == 6
    assert len(enumerate_basis(K3, "ordinary", 2, 2)) == 12


def test_lower_triangular_vanishing():
    # a k-step trail has length at least k
    rng = random.Random(631)
    for _ in range(10):
        G = random_digraph(rng, 5, 0.5)
        for k in range(1, 4):
            for l in range(k):
                assert len(enumerate_basis(G, "ordinary", k, l)) == 0


def test_trail_length_and_validation():
    G = family("dir_linear", 4)
    assert trail_length(G, (0, 2, 3)) == 3
    with pytest.raises(GraphError):
        trail_length(G, (0, 0, 1))
    with pytest.raises(GraphError):
        trail_length(G, (3, 0))


def test_certified_length_bound():
    assert certified_length_bound(family("complete", 3)) == 2
    assert certified_length_bound(point_graph()) == 0
    C4 = family("cycle", 4)
    assert certified_length_bound(C4) == 3 * 2
    # nothing eulerian survives above the bound
    for l in range(certified_length_bound(C4) + 1, certified_length_bound(C4) + 3):
        for k in range(C4.n):
            assert len(enumerate_basis(C4, "eulerian", k, l)) == 0


def point_graph():
    return digraph(1, [])


def boundary_oracle(G, kind, k, l):
    """Dense boundary by deleting interior entries that keep total length."""
    dist = distance_matrix(G)
    rows = list(enumerate_basis(G, kind, k - 1, l))
    cols = list(enumerate_basis(G, kind, k, l))
    index = {t: i for i, t in enumerate(rows)}
    dense = [[0] * len(cols) for _ in rows]
    for j, t in enumerate(cols):
        for i in range(1, k):
            face = t[:i] + t[i + 1 :]
            if any(a == b for a, b in zip(face, face[1:])):
                continue
            if sum(dist[a][b] for a, b in zip(face, face[1:])) != l:
                continue
            r = index.get(face)
            if r is None:
                continue  # quotient complex drops all-distinct faces
            dense[r][j] += (-1) ** i
    return dense


def test_boundary_matches_oracle():
    rng = random.Random(577)
    graphs = [family("complete", 3), family("cycle", 4), transitive_tournament(3)]
    graphs += [random_digraph(rng, 4, 0.5) for _ in range(5)]
    for G in graphs:
        for kind in ("eulerian", "ordinary", "discriminant"):
            for k in range(1, 4):
                for l in range(5):
                    mat = graded_boundary(G, kind, k, l)
                    assert dense(mat) == boundary_oracle(G, kind, k, l)


def test_boundary_squares_to_zero():
    rng = random.Random(845)
    graphs = [family("cycle", 5), transitive_tournament(4)]
    graphs += [random_digraph(rng, 5, 0.4) for _ in range(5)]
    for G in graphs:
        for kind in ("eulerian", "ordinary", "discriminant"):
            for k in range(2, 5):
                for l in range(6):
                    d1 = graded_boundary(G, kind, k - 1, l)
                    d2 = graded_boundary(G, kind, k, l)
                    assert not any(compose(d1, d2)), (kind, k, l)


def test_bigraded_complex_counts_and_certification():
    K3 = family("complete", 3)
    counts = trail_complex(K3).graded_counts()
    assert homology_table(K3).certified
    assert counts[(0, 0)] == 3 and counts[(2, 2)] == 6
    assert all(k <= l for k, l in counts)

    with pytest.raises(ValueError):
        trail_complex(K3, "ordinary")
    assert not homology_table(K3, "ordinary", l_max=3).certified
    ordinary = trail_complex(K3, "ordinary", l_max=3).graded_counts()
    quotient = trail_complex(K3, "discriminant", l_max=3).graded_counts()
    for (k, l), dim in ordinary.items():
        assert dim == counts.get((k, l), 0) + quotient.get((k, l), 0)


def test_reversal_bijection_onto_opposite():
    # symmetric graph: opposite is the graph itself, reversal is an involution
    C4 = family("cycle", 4)
    for kind in ("eulerian", "ordinary"):
        for k in range(3):
            for l in range(4):
                bij = reversal_bijection(C4, kind, k, l)
                basis = set(enumerate_basis(C4, kind, k, l))
                assert set(bij) == basis
                for t, rt in bij.items():
                    assert rt == t[::-1]
                    assert bij[rt] == t
    # directed case: lands on the opposite graph's basis
    T3 = transitive_tournament(3)
    bij = reversal_bijection(T3, "eulerian", 2, 2)
    target = set(enumerate_basis(opposite(T3), "eulerian", 2, 2))
    assert set(bij.values()) == target


def test_induced_chain_map_commutes_with_boundary():
    cases = [
        # rotation automorphism of the 4-cycle
        ([1, 2, 3, 0], family("cycle", 4), family("cycle", 4)),
        # inclusion of a smaller tournament
        ([0, 1, 2], transitive_tournament(2), transitive_tournament(3)),
        # inclusion of the path into the cycle; distances shrink, so some
        # basis trails map to zero
        ([0, 1, 2, 3], family("linear", 4), family("cycle", 4)),
    ]
    for f, G, H in cases:
        for kind in ("eulerian", "ordinary"):
            for k in range(1, 3):
                for l in range(4):
                    top = induced_chain_map(f, G, H, kind, k, l)
                    bottom = induced_chain_map(f, G, H, kind, k - 1, l)
                    dG = graded_boundary(G, kind, k, l)
                    dH = graded_boundary(H, kind, k, l)
                    lhs = compose(dH, top)
                    rhs = compose(bottom, dG)
                    assert lhs == rhs, (f, kind, k, l)


def test_induced_chain_map_rejects_non_morphisms():
    C4 = family("cycle", 4)
    K2 = family("complete", 2)
    with pytest.raises(GraphError):
        induced_chain_map([0, 0, 0, 1], C4, K2, "eulerian", 1, 1)
    with pytest.raises(GraphError):
        # injective but drops an edge
        induced_chain_map([0, 2, 1, 3], family("cycle", 4), family("linear", 4), "eulerian", 1, 1)


def test_tournament_is_cone_of_smaller_one():
    for n in range(1, 5):
        T = transitive_tournament(n)
        C = cone(transitive_tournament(n - 1))
        # same vertex count and edges after the canonical relabeling
        assert T.n == C.n
        for kind in ("eulerian", "ordinary"):
            for k in range(3):
                for l in range(3):
                    assert len(enumerate_basis(T, kind, k, l)) == len(
                        enumerate_basis(C, kind, k, l)
                    )


def test_opposite_graph_has_same_basis_counts():
    rng = random.Random(9009)
    for _ in range(5):
        G = random_digraph(rng, 4, 0.5)
        H = opposite(G)
        for kind in ("eulerian", "ordinary"):
            for k in range(3):
                for l in range(4):
                    assert len(enumerate_basis(G, kind, k, l)) == len(
                        enumerate_basis(H, kind, k, l)
                    )
