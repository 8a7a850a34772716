"""Polynomial and metric graph invariants."""

import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_homology import signed_counts
from test_snf import small_digraphs

from maghom.chains import certified_length_bound, trail_complex
from maghom.errors import GraphError, ResourceCapError
from maghom.graphs import (
    canonical_form,
    connected_graph_classes,
    digraph,
    distance_matrix,
    family,
    is_weakly_connected,
    point,
    rho,
    vertex_orbits,
)
from maghom.homology import homology_table
from maghom.invariants import (
    Polynomial,
    classify_diagonality,
    complete_graph_detector,
    delta_distance,
    gamma,
    is_regularly_diagonal,
    magnitude_series,
    regular_magnitude,
    subdiagonal_bound,
    subgraph_network,
)
from maghom.words import derangement_count


def test_polynomial_basics():
    p = Polynomial((1, 0, -2, 0, 0))
    assert p.coefficients == (1, 0, -2)
    assert p.degree == 2
    assert p(1) == -1 and p(-1) == -1 and p(2) == -7
    assert str(p) == "1 - 2q^2"
    assert str(Polynomial(())) == "0"
    assert str(Polynomial((0, 1))) == "q"
    assert Polynomial.from_map({0: 3, 2: 5}) == Polynomial((3, 0, 5))
    assert p.to_json_dict() == {"0": 1, "2": -2}


def test_complete_graph_series_coefficients():
    # the only trails in a complete graph are the diagonal ones, each of
    # rank n(n-1)^l with alternating sign
    for n in range(2, 5):
        p = magnitude_series(family("complete", n), 5)
        for l in range(6):
            want = n * (-(n - 1)) ** l
            assert p.coefficients[l] == want, (n, l)


def test_series_low_coefficients_count_vertices_and_edges():
    rng = random.Random(12021)
    for _ in range(8):
        nv = rng.randint(1, 5)
        edges = [
            (u, v)
            for u in range(nv)
            for v in range(nv)
            if u != v and rng.random() < 0.4
        ]
        G = digraph(nv, edges)
        p = magnitude_series(G, 2)
        coeffs = p.coefficients + (0,) * 3
        assert coeffs[0] == nv
        assert coeffs[1] == -G.m


def enumerated_series(G, l_max):
    """Signed counts of the trails of length at most l_max, one depth-first
    walk per trail, as a list of coefficients."""
    dist = distance_matrix(G)
    counts = [0] * (l_max + 1)

    def extend(last, length, sign):
        counts[length] += sign
        for v, d in enumerate(dist[last]):
            if v != last and length + d <= l_max:
                extend(v, length + d, -sign)

    for v in range(G.n):
        extend(v, 0, 1)
    return counts


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), st.integers(0, 8))
def test_series_equals_the_enumerated_signed_counts(G, l_max):
    assert magnitude_series(G, l_max) == Polynomial(tuple(enumerated_series(G, l_max)))


def incoming_series(G, l_max):
    """Reference: the magnitude series counted by last vertex, over the
    incoming (u, d(u, v)) lists of the distance matrix, as it was before
    the count went by first vertex over ``chains.finite_steps``."""
    dist = distance_matrix(G)
    steps = [
        [(u, row[v]) for u, row in enumerate(dist) if u != v and row[v] != float("inf")]
        for v in range(G.n)
    ]
    counts = [[1] * G.n]
    for l in range(1, l_max + 1):
        counts.append(
            [-sum(counts[l - d][u] for u, d in into if d <= l) for into in steps]
        )
    return Polynomial(tuple(sum(c) for c in counts))


def test_series_by_first_vertex_matches_the_count_by_last_vertex():
    rng = random.Random(8128)
    cases = [(family("cycle", 6), 8), (family("dir_cycle", 5), 8)]
    for _ in range(120):
        n = rng.randint(1, 7)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
        cases.append((digraph(n, edges), rng.randint(0, 8)))
    for G, l_max in cases:
        assert magnitude_series(G, l_max) == incoming_series(G, l_max), (G.edges, l_max)


def series_product(a, b, top):
    """Product of two integer power series given as coefficient lists,
    truncated above q^top."""
    out = [0] * (top + 1)
    for i, x in enumerate(a[: top + 1]):
        if x:
            for j, y in enumerate(b[: top + 1 - i]):
                out[i + j] += x * y
    return out


def series_inverse(a, top):
    """Inverse of an integer power series with constant term +-1,
    truncated above q^top."""
    out = [0] * (top + 1)
    out[0] = a[0]
    for n in range(1, top + 1):
        out[n] = -a[0] * sum(a[i] * out[n - i] for i in range(1, min(n, len(a) - 1) + 1))
    return out


def inverse_entry_sum(G, top):
    """The sum of the entries of Z_G(q)^{-1}, Z_G(q)[u][v] = q^d(u, v) (0
    when v is out of reach), up to q^top, by Gauss-Jordan elimination over
    truncated power series.  Z_G(0) is the identity and every pivot keeps
    constant term 1, so the arithmetic stays in integers."""
    n = G.n
    dist = distance_matrix(G)
    rows = []
    for u in range(n):
        row = []
        for d in dist[u]:
            entry = [0] * (top + 1)
            if d <= top:
                entry[d] = 1
            row.append(entry)
        row += [[int(u == v)] + [0] * top for v in range(n)]
        rows.append(row)
    for j in range(n):
        inv = series_inverse(rows[j][j], top)
        rows[j] = [series_product(inv, x, top) for x in rows[j]]
        for i in range(n):
            if i != j and any(rows[i][j]):
                c = rows[i][j]
                rows[i] = [
                    [x - y for x, y in zip(xs, series_product(c, ys, top))]
                    for xs, ys in zip(rows[i], rows[j])
                ]
    return [sum(row[n + v][l] for row in rows for v in range(n)) for l in range(top + 1)]


def test_series_is_the_expansion_of_the_inverse_similarity_matrix():
    # Leinster, *The magnitude of a graph*, 2019: the magnitude is the sum
    # of the entries of Z_G(q)^{-1}
    rng = random.Random(7001)
    for p in (0.2, 0.3, 0.3, 0.45, 0.6):
        edges = [(u, v) for u in range(7) for v in range(7) if u != v and rng.random() < p]
        G = digraph(7, edges)
        want = Polynomial(tuple(inverse_entry_sum(G, 10)))
        assert magnitude_series(G, 10) == want, edges


def test_regular_magnitude_values():
    assert regular_magnitude(family("linear", 2)) == Polynomial((2, -2))
    assert regular_magnitude(family("complete", 3)) == Polynomial((3, -6, 6))
    # finite polynomial: evaluations at +-1 are honest integers
    p = regular_magnitude(family("cycle", 4))
    assert p(1) == sum(p.coefficients)


def test_regular_magnitude_of_complete_graphs():
    # every injective word of K_n is a trail, and a word with k + 1
    # entries has length k
    for n in range(1, 8):
        want = [(-1) ** k * factorial(n) // factorial(n - k - 1) for k in range(n)]
        assert regular_magnitude(family("complete", n)) == Polynomial(tuple(want)), n


@pytest.mark.parametrize(
    "G",
    [digraph(0, []), point(), digraph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])],
    ids=["empty", "point", "disconnected"],
)
def test_regular_magnitude_counts_the_trail_complex(G):
    assert regular_magnitude(G) == signed_counts(trail_complex(G))


def chorded_cycle(n, seed):
    """Directed n-cycle plus the ordered pairs a seeded coin keeps with
    probability 1/4: strongly connected."""
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges |= {e for e in itertools.permutations(range(n), 2) if rng.random() < 0.25}
    return digraph(n, edges)


@pytest.mark.parametrize("n", [10, 12])
def test_regular_magnitude_without_symmetry_is_counted_not_built(n):
    # every injective word of a strongly connected digraph is a trail, and
    # the word complex is a wedge of D_n spheres of dimension n - 1; with
    # no symmetry, building the trails would enumerate all n! words
    G = chorded_cycle(n, 5)
    assert len(vertex_orbits(G)) == n
    assert regular_magnitude(G)(1) == 1 + (-1) ** (n - 1) * derangement_count(n)


def test_regular_magnitude_decategorifies_the_table():
    # coefficient of q^l is the alternating rank sum along column l
    for G in (family("complete", 3), family("cycle", 4), family("dir_cycle", 3)):
        t = homology_table(G)
        p = regular_magnitude(G)
        by_l = {}
        for (k, l), g in t.entries.items():
            by_l[l] = by_l.get(l, 0) + (-1) ** k * g.rank
        got = {i: c for i, c in enumerate(p.coefficients) if c}
        assert {l: c for l, c in by_l.items() if c} == got, G


def test_classify_diagonality():
    report = classify_diagonality(family("complete", 4))
    assert report["regularly_diagonal"] and report["regular_certified"]
    report = classify_diagonality(family("cycle", 4))
    assert not report["regularly_diagonal"]
    assert report["diagonal_up_to_lmax"]
    assert report["ordinary_truncated"]
    assert is_regularly_diagonal(family("complete", 5))
    assert not is_regularly_diagonal(family("cycle", 5))


@pytest.mark.parametrize(
    "G",
    [
        family(name, n)
        for name in ("complete", "tournament", "cycle", "dir_cycle", "dir_linear")
        for n in range(3, 7)
    ],
)
def test_classify_diagonality_matches_the_full_tables(G):
    # the ordinary table below the default cap, which reaches 15 for C_6
    l_max = min(certified_length_bound(G), 6)
    report = classify_diagonality(G, l_max)
    ordinary = homology_table(G, "ordinary", "Z", l_max)
    assert report["diagonal_up_to_lmax"] == ordinary.diagonal
    assert report["regularly_diagonal"] == homology_table(G, "eulerian", "Z").diagonal


def test_complete_detector_matches_diagonality():
    for n in range(1, 5):
        for edges in connected_graph_classes(n):
            G = rho(n, edges)
            report = complete_graph_detector(G)
            complete = G.m == n * (n - 1)
            assert report["edge_complete"] == complete
            assert report["regularly_diagonal"] == complete
            assert report["agrees"]
            assert report["verdict"] == ("complete" if complete else "not complete")
            assert is_regularly_diagonal(G) == complete


def test_subdiagonal_bound():
    rep = subdiagonal_bound(family("cycle", 4))
    assert rep == {"girth": 4, "bound": 2, "witnesses": [(3, 5)], "verified": True}
    rep = subdiagonal_bound(family("cycle", 5))
    assert rep["girth"] == 5 and rep["bound"] == 4
    assert rep["witnesses"] == [(4, 8)] and rep["verified"]
    with pytest.raises(GraphError):
        subdiagonal_bound(rho(3, [(0, 1), (1, 2)]))


def test_subgraph_network_of_k4():
    net = subgraph_network(4)
    assert net.node_count == 6
    assert net.diameter() == 2
    assert net.is_connected()
    # degree within the network vs degree of the input graph
    assert net.max_degree() == 5
    assert net.to_json_dict()["input_max_degree"] == 3
    # adjacency is a per-vertex degree condition, so the 4-cycle
    # (all degrees 2) touches the complete graph (all degrees 3)
    i = net.locate(family("cycle", 4))
    j = net.locate(family("complete", 4))
    assert net.distance(i, j) == 1
    # the path is two steps out: an endpoint of degree 1 is too far
    k = net.locate(rho(4, [(0, 1), (1, 2), (2, 3)]))
    assert net.distance(k, j) == 2
    data = net.to_json_dict()
    assert data["n"] == 4 and len(data["nodes"]) == 6


def test_subgraph_network_caps_and_rejects():
    with pytest.raises(ResourceCapError):
        subgraph_network(8)
    with pytest.raises(GraphError):
        subgraph_network(0)


def labeled_network(n):
    """Classes and adjacency of the network of K_n by a labeled sweep.

    Every edge subset of K_n that connects all n vertices is reduced to
    its canonical form, keeping the degree vector of each labeled
    representative; two classes are adjacent when some pair of those
    vectors differs by at most one at every vertex.
    """
    pairs = list(itertools.combinations(range(n), 2))
    vectors = {}
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if not is_weakly_connected(rho(n, edges)):
            continue
        degs = [0] * n
        for a, b in edges:
            degs[a] += 1
            degs[b] += 1
        vectors.setdefault(canonical_form(n, edges), set()).add(tuple(degs))
    classes = sorted(vectors, key=lambda form: (len(form), form))
    adjacency = tuple(
        tuple(
            j
            for j, other in enumerate(classes)
            if j != i
            and any(
                all(abs(x - y) <= 1 for x, y in zip(da, db))
                for da in vectors[form]
                for db in vectors[other]
            )
        )
        for i, form in enumerate(classes)
    )
    return tuple(classes), adjacency


@pytest.mark.parametrize("n", range(1, 6))
def test_subgraph_network_matches_labeled_sweep(n):
    net = subgraph_network(n)
    assert (net.classes, net.adjacency) == labeled_network(n)
    assert net.input_max_degree == n - 1


@pytest.mark.parametrize("n", range(1, 7))
def test_diameter_matches_a_search_from_every_class(n):
    net = subgraph_network(n)
    per_class = max(max(net._reach(i).values()) for i in range(net.node_count))
    assert net.diameter() == per_class


def test_delta_distance():
    star = rho(4, [(0, 1), (0, 2), (0, 3)])
    assert delta_distance(star, family("cycle", 4)) == 1
    assert delta_distance(star, star) == 0
    with pytest.raises(GraphError):
        delta_distance(star, family("cycle", 5))


def test_gamma_values():
    assert gamma(3, 0) == 3
    assert gamma(7, 0) == 3
    assert gamma(4, 2) == 4
    assert gamma(5, 5) == 5
    assert gamma(6, 9) == 6


def test_gamma_caps_and_feasibility():
    with pytest.raises(ResourceCapError):
        gamma(9, 1)
    with pytest.raises(GraphError):
        gamma(4, 100)


def _girth_feasible(n, m, g):
    """Does a connected n-vertex, m-edge graph with girth >= g exist?

    Depth-first over edge slots in a fixed order, keeping the running
    distance matrix; an edge is allowed only between vertices currently
    at distance at least g - 1, which preserves the girth bound.
    """
    pairs = list(itertools.combinations(range(n), 2))
    big = n + g  # unreachable marker, safely above any real distance
    dist = [[0 if i == j else big for j in range(n)] for i in range(n)]

    def addable(dist_, idx):
        return sum(1 for u, v in pairs[idx:] if dist_[u][v] >= g - 1)

    def search(dist_, idx, placed):
        if placed == m:
            return all(d < big for row in dist_ for d in row)
        if idx == len(pairs) or placed + addable(dist_, idx) < m:
            return False
        u, v = pairs[idx]
        if dist_[u][v] >= g - 1:
            nd = [row[:] for row in dist_]
            for x in range(n):
                xu, xv = dist_[x][u], dist_[x][v]
                row, du, dv = nd[x], dist_[u], dist_[v]
                for y in range(n):
                    alt = xu + 1 + dv[y]
                    if alt < row[y]:
                        row[y] = alt
                    alt = xv + 1 + du[y]
                    if alt < row[y]:
                        row[y] = alt
            if search(nd, idx + 1, placed + 1):
                return True
        return search(dist_, idx + 1, placed)

    return search(dist, 0, 0)


def test_gamma_matches_the_edge_slot_search():
    # the reference is the depth-first search over edge slots that gamma
    # ran before it read the graph classes; the Mantel shortcut is left
    # out here, so the search also confirms it
    for n in range(3, 8):
        for s in range(comb(n, 2) - n + 1):
            m = comb(n, 2) - s
            want = next((g for g in range(n, 3, -1) if _girth_feasible(n, m, g)), 3)
            assert gamma(n, s) == want, (n, s)
