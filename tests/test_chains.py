"""Trail bases and boundary matrices against a brute-force enumerator."""

import itertools
import math
import random

import pytest

from maghom.chains import certified_length_bound, trail_complex
from maghom.graphs import (
    cone,
    digraph,
    distance_matrix,
    family,
    opposite,
    transitive_tournament,
)
from maghom.homology import homology_table
from maghom.matrices import parse_ring


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


def dense(cols, nrows):
    """Row lists of a matrix given as sparse columns {row: coeff}."""
    return [[col.get(i, 0) for col in cols] for i in range(nrows)]


def combine(cols, vec, ring="Q"):
    """The sparse column sum of cols[j] * vec[j], zeros dropped; over F_p
    reduced mod p."""
    ring = parse_ring(ring)
    out = {}
    for j, x in vec.items():
        for i, v in cols[j].items():
            out[i] = out.get(i, 0) + x * v
    if isinstance(ring, int):
        out = {i: v % ring for i, v in out.items()}
    return {i: v for i, v in out.items() if v}


def compose(a, b, ring="Q"):
    """Sparse columns of the product a b, composed with combine."""
    return [combine(a, col, ring) for col in b]


def boundary(fc, k, weight=None):
    """Differential of fc out of degree k, or out of its graded piece at
    weight, as sparse columns {row: +-1}, one per degree-k cell, in cell
    order: the anti-transpose of fc.coboundary(k - 1, weight)."""
    top_row, top_col = fc.dim(k - 1, weight) - 1, fc.dim(k, weight) - 1
    cols = [{} for _ in range(top_col + 1)]
    for c, col in enumerate(fc.coboundary(k - 1, weight)):
        for r, v in col.items():
            cols[top_col - r][top_row - c] = v
    return cols


def graded_boundary(G, kind, k, l):
    """Differential of the trail complex from bidegree (k, l) to (k - 1, l),
    as (sparse columns, row count)."""
    complex_ = trail_complex(G, kind, l)
    return boundary(complex_, k, l), complex_.dim(k - 1, l)


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
                    got = list(trail_complex(G, kind, l).cells(k, l))
                    want = brute_trails(G, kind, k, l)
                    assert sorted(got) == want, (G, kind, k, l)


def test_basis_is_deterministic_and_partitioned():
    G = family("cycle", 4)
    for k in range(4):
        for l in range(6):
            mc = set(trail_complex(G, "ordinary", l).cells(k, l))
            emc = set(trail_complex(G, "eulerian", l).cells(k, l))
            dmc = set(trail_complex(G, "discriminant", l).cells(k, l))
            assert emc | dmc == mc
            assert not (emc & dmc)
            assert list(trail_complex(G, "ordinary", l).cells(k, l)) == list(
                trail_complex(G, "ordinary", l).cells(k, l)
            )


def test_known_small_counts():
    K3 = family("complete", 3)
    assert len(trail_complex(K3, "eulerian", 0).cells(0, 0)) == 3
    assert len(trail_complex(K3, "eulerian", 1).cells(1, 1)) == 6
    assert len(trail_complex(K3, "eulerian", 2).cells(2, 2)) == 6
    # first repeats show up at k=2 in a complete graph
    assert len(trail_complex(K3, "discriminant", 2).cells(2, 2)) == 6
    assert len(trail_complex(K3, "ordinary", 2).cells(2, 2)) == 12


def test_lower_triangular_vanishing():
    # a k-step trail has length at least k
    rng = random.Random(631)
    for _ in range(10):
        G = random_digraph(rng, 5, 0.5)
        for k in range(1, 4):
            for l in range(k):
                assert len(trail_complex(G, "ordinary", l).cells(k, l)) == 0


def test_certified_length_bound():
    assert certified_length_bound(family("complete", 3)) == 2
    assert certified_length_bound(point_graph()) == 0
    C4 = family("cycle", 4)
    assert certified_length_bound(C4) == 3 * 2
    # nothing eulerian survives above the bound
    for l in range(certified_length_bound(C4) + 1, certified_length_bound(C4) + 3):
        for k in range(C4.n):
            assert len(trail_complex(C4, "eulerian", l).cells(k, l)) == 0


def point_graph():
    return digraph(1, [])


def boundary_oracle(G, kind, k, l):
    """Dense boundary by deleting interior entries that keep total length."""
    dist = distance_matrix(G)
    C = trail_complex(G, kind, l)
    rows = list(C.cells(k - 1, l))
    cols = list(C.cells(k, l))
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
                    cols, nrows = graded_boundary(G, kind, k, l)
                    assert dense(cols, nrows) == boundary_oracle(G, kind, k, l)


def test_boundary_squares_to_zero():
    rng = random.Random(845)
    graphs = [family("cycle", 5), transitive_tournament(4)]
    graphs += [random_digraph(rng, 5, 0.4) for _ in range(5)]
    for G in graphs:
        for kind in ("eulerian", "ordinary", "discriminant"):
            for k in range(2, 5):
                for l in range(6):
                    d1 = graded_boundary(G, kind, k - 1, l)[0]
                    d2 = graded_boundary(G, kind, k, l)[0]
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


def test_tournament_is_cone_of_smaller_one():
    for n in range(1, 5):
        T = transitive_tournament(n)
        C = cone(transitive_tournament(n - 1))
        # same vertex count and edges after the canonical relabeling
        assert T.n == C.n
        for kind in ("eulerian", "ordinary"):
            for k in range(3):
                for l in range(3):
                    assert len(trail_complex(T, kind, l).cells(k, l)) == len(
                        trail_complex(C, kind, l).cells(k, l)
                    )


def test_opposite_graph_has_same_basis_counts():
    rng = random.Random(9009)
    for _ in range(5):
        G = random_digraph(rng, 4, 0.5)
        H = opposite(G)
        for kind in ("eulerian", "ordinary"):
            for k in range(3):
                for l in range(4):
                    assert len(trail_complex(G, kind, l).cells(k, l)) == len(
                        trail_complex(H, kind, l).cells(k, l)
                    )
