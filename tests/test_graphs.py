import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_snf import small_digraphs

from maghom.errors import GraphError, ParseError
from maghom.graphs import (
    DirectedGraph,
    alternating,
    are_isomorphic,
    automorphism,
    canonical_form,
    cartesian,
    cone,
    connected_graph_classes,
    digraph,
    distance_matrix,
    eccentricity_bound,
    family,
    girth,
    is_weakly_connected,
    join,
    opposite,
    parse_graph,
    point,
    reachability_preorder,
    rho,
    transitive_tournament,
    vertex_orbits,
)


def test_digraph_rejects_self_loops_and_bad_edges():
    with pytest.raises(GraphError):
        digraph(2, [(0, 0)])
    with pytest.raises(GraphError):
        digraph(2, [(0, 2)])
    with pytest.raises(GraphError):
        digraph(-1, [])


def test_rho_symmetrizes():
    G = rho(3, [(0, 1), (1, 2)])
    assert G.symmetric
    assert G.m == 4
    assert G.has_edge(0, 1) and G.has_edge(1, 0)
    assert not G.has_edge(0, 2)


def test_point_and_tournament_sizes():
    assert point().n == 1 and point().m == 0
    # T_n lives on n+1 vertices; T_0 is the point
    for n in range(5):
        T = transitive_tournament(n)
        assert T.n == n + 1
        assert T.m == n * (n + 1) // 2
    assert family("tournament", 0).n == 1


def test_family_conventions():
    assert family("linear", 4).n == 4 and family("linear", 4).symmetric
    assert family("dir_linear", 4).n == 4 and family("dir_linear", 4).m == 3
    assert family("complete", 3).m == 6
    assert family("cycle", 3).n == 3 and family("cycle", 3).m == 6
    assert family("dir_cycle", 2).m == 2
    with pytest.raises(GraphError):
        family("cycle", 2)
    with pytest.raises(GraphError):
        family("nonsense", 3)
    with pytest.raises(GraphError):
        family("linear", 0)


def test_cone_adds_sink():
    G = family("dir_linear", 3)
    C = cone(G)
    assert C.n == 4
    # every original vertex points at the apex
    for v in range(3):
        assert C.has_edge(v, 3)
        assert not C.has_edge(3, v)


def test_join_edges_run_left_to_right():
    G = family("dir_linear", 2)
    H = point()
    J = join(G, H)
    assert J.n == 3
    assert J.has_edge(0, 2) and J.has_edge(1, 2)
    assert not J.has_edge(2, 0)
    # tournaments are iterated cones over the point
    assert are_isomorphic(cone(transitive_tournament(2)), transitive_tournament(3))


def test_opposite_and_alternating():
    G = family("dir_cycle", 3)
    assert sorted(opposite(G).edges) == [(0, 2), (1, 0), (2, 1)]
    A = alternating(family("cycle", 4), {0, 2})
    assert A.n == 4 and A.m == 4
    assert A.has_edge(0, 1) and A.has_edge(2, 1)
    with pytest.raises(GraphError):
        alternating(family("cycle", 3), {0})
    with pytest.raises(GraphError):
        alternating(family("dir_cycle", 3), {0})


def test_cartesian_product():
    P = cartesian(family("dir_linear", 2), family("dir_linear", 2))
    assert P.n == 4
    assert P.m == 4
    sq = cartesian(family("linear", 2), family("linear", 2))
    assert are_isomorphic(sq, family("cycle", 4))


def test_girth():
    assert girth(rho(3, [(0, 1), (1, 2)])) == math.inf
    assert girth(family("complete", 3)) == 3
    assert girth(family("cycle", 5)) == 5
    with pytest.raises(GraphError):
        girth(family("dir_cycle", 3))


def test_distance_and_eccentricity():
    G = family("dir_linear", 3)
    d = distance_matrix(G)
    assert d[0][2] == 2
    assert d[2][0] == math.inf
    assert eccentricity_bound(family("cycle", 4)) == 2


def test_reachability_preorder():
    G = family("dir_linear", 3)
    P = reachability_preorder(G)
    assert P.has_edge(0, 2)
    assert not P.has_edge(2, 0)
    # preorder of a directed cycle is complete
    C = reachability_preorder(family("dir_cycle", 4))
    assert C.m == 12


def test_parse_round_trip():
    text = "# directed\n0 1\n1 2\n"
    G = parse_graph("# directed\n# vertices 3\n0 1\n1 2\n")
    assert G.n == 3 and G.m == 2 and not G.symmetric
    H = parse_graph(text)
    assert are_isomorphic(G, H)
    U = parse_graph("# undirected\na b\nb c\n% comment line\n")
    assert U.symmetric and U.n == 3 and U.m == 4


def test_parse_labels_keep_first_appearance_order():
    # z, y, x are numbered 0, 1, 2, not in sorted order
    g = parse_graph("# directed\nz y\ny x\n")
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_graph("# directed\n0 1\n0 1\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_graph("0 1\n")
    with pytest.raises(ParseError):
        parse_graph("# directed\n# vertices 2\n0 5\n")
    with pytest.raises(ParseError):
        parse_graph("# directed\na a\n")
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("# undirected\n0 1\n1 0\n")


def test_canonical_form_is_relabeling_invariant():
    # unordered pair lists; relabeling 0->2, 1->0, 2->1 keeps the form
    tri = [(0, 1), (1, 2), (0, 2)]
    relabeled = [(2, 0), (0, 1), (2, 1)]
    assert canonical_form(3, tri) == canonical_form(3, relabeled)
    path = [(0, 1), (1, 2)]
    assert canonical_form(3, tri) != canonical_form(3, path)
    assert canonical_form(3, path) == canonical_form(3, [(0, 2), (2, 1)])


def test_are_isomorphic():
    assert are_isomorphic(family("cycle", 4), rho(4, [(0, 2), (2, 1), (1, 3), (3, 0)]))
    assert not are_isomorphic(family("cycle", 4), family("complete", 4))
    assert not are_isomorphic(point(), family("dir_linear", 2))
    # every vertex colours alike in both; only the distances tell them apart
    two_triangles = digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not are_isomorphic(family("dir_cycle", 6), two_triangles)


def brute_isomorphic(G, H):
    return any(relabel(G, p).edges == H.edges for p in itertools.permutations(range(G.n)))


@st.composite
def digraph_pairs(draw):
    """A digraph on at most 5 vertices and a relabelled copy of: itself,
    itself with edges switched so that every in- and out-degree stays,
    or any digraph on as many vertices."""
    G = draw(small_digraphs())
    rng = draw(st.randoms(use_true_random=False))
    how = draw(st.sampled_from(["same", "switched", "any"]))
    edges = set(G.edges)
    if how == "any":
        edges = {e for e in itertools.permutations(range(G.n), 2) if rng.random() < 0.5}
    for _ in range(20 if how == "switched" and len(edges) > 1 else 0):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if a != d and c != b and not {(a, d), (c, b)} & edges:
            edges ^= {(a, b), (c, d), (a, d), (c, b)}
    perm = list(range(G.n))
    rng.shuffle(perm)
    return G, relabel(digraph(G.n, edges), perm)


@settings(max_examples=200, deadline=None)
@given(digraph_pairs())
def test_digraph_isomorphism_matches_brute_force(pair):
    G, H = pair
    assert are_isomorphic(G, H) == brute_isomorphic(G, H)


def test_connected_class_counts():
    # connected simple undirected graphs up to iso (OEIS A001349)
    counts = [len(connected_graph_classes(n)) for n in range(1, 8)]
    assert counts == [1, 1, 2, 6, 21, 112, 853]
    for edges in connected_graph_classes(4):
        G = rho(4, edges)
        assert G.symmetric and G.n == 4
    with pytest.raises(GraphError):
        connected_graph_classes(0)


def test_connected_classes_girth_filter():
    high = [rho(5, edges) for edges in connected_graph_classes(5, min_girth=5)]
    for G in high:
        assert girth(G) >= 5
    # C_5 and the trees survive
    assert any(are_isomorphic(G, family("cycle", 5)) for G in high)
    # 3 trees on 5 vertices plus the 5-cycle
    assert len(high) == 4
    counts = [len(connected_graph_classes(n, min_girth=5)) for n in range(1, 7)]
    assert counts == [1, 1, 1, 2, 4, 8]


def _labeled_sweep_classes(n, min_girth):
    """Brute-force oracle: canonical forms of every connected edge subset of K_n."""
    pairs = list(itertools.combinations(range(n), 2))
    out = set()
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            G = rho(n, edges)
            if not is_weakly_connected(G):
                continue
            if min_girth is not None and girth(G) < min_girth:
                continue
            out.add(canonical_form(n, edges))
    return out


@pytest.mark.parametrize("min_girth", [None, 4, 5, 6])
def test_connected_classes_match_labeled_sweep(min_girth):
    for n in range(1, 6):
        classes = connected_graph_classes(n, min_girth=min_girth)
        assert classes == sorted(classes)
        assert set(classes) == _labeled_sweep_classes(n, min_girth)
        graphs = [rho(n, edges) for edges in classes]
        for G in graphs:
            assert is_weakly_connected(G)
            assert min_girth is None or girth(G) >= min_girth
        for G, H in itertools.combinations(graphs, 2):
            assert not are_isomorphic(G, H)


@pytest.mark.parametrize("min_girth", [None, 4, 5])
def test_an_edge_count_prunes_to_the_classes_with_that_many_edges(min_girth):
    for n in range(1, 7):
        classes = connected_graph_classes(n, min_girth=min_girth)
        for m in range(-1, math.comb(n, 2) + 2):
            want = [edges for edges in classes if len(edges) == m]
            assert connected_graph_classes(n, min_girth, edge_count=m) == want, (n, m)


def relabel(G, perm):
    return DirectedGraph(
        G.n, frozenset((perm[u], perm[v]) for u, v in G.edges), G.symmetric
    )


def regular_tournament(n):
    """The rotational tournament on an odd number of vertices."""
    return digraph(n, [(i, (i + d) % n) for i in range(n) for d in range(1, n // 2 + 1)])


SYMMETRIC_GRAPHS = [
    family("cycle", 6),
    family("complete", 4),
    family("dir_cycle", 5),
    regular_tournament(5),
    cone(family("cycle", 4)),
    join(family("dir_cycle", 3), family("complete", 2)),
    cartesian(family("cycle", 3), family("linear", 2)),
    rho(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
]


def brute_orbits(G):
    autos = [
        p for p in itertools.permutations(range(G.n)) if relabel(G, p).edges == G.edges
    ]
    return {tuple(sorted({p[v] for p in autos})) for v in range(G.n)}


@pytest.mark.parametrize("n", range(3, 8))
def test_transitive_families_have_one_orbit(n):
    for name in ("cycle", "complete", "dir_cycle"):
        assert vertex_orbits(family(name, n)) == (tuple(range(n)),), name


def test_cone_and_tournament_orbits():
    assert vertex_orbits(cone(family("cycle", 4))) == ((0, 1, 2, 3), (4,))
    for n in range(6):
        assert vertex_orbits(transitive_tournament(n)) == tuple((v,) for v in range(n + 1))
    assert vertex_orbits(DirectedGraph(0, frozenset())) == ()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SYMMETRIC_GRAPHS), st.randoms(use_true_random=False))
def test_orbits_follow_a_relabeling(G, rng):
    perm = list(range(G.n))
    rng.shuffle(perm)
    H = relabel(G, perm)
    assert are_isomorphic(G, H)
    orbits = vertex_orbits(H)
    assert sorted(map(len, orbits)) == sorted(map(len, vertex_orbits(G)))
    assert {tuple(sorted(perm[v] for v in o)) for o in vertex_orbits(G)} == set(orbits)
    assert [o[0] for o in orbits] == sorted(o[0] for o in orbits)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_digraphs(6), st.sampled_from(SYMMETRIC_GRAPHS)))
def test_orbits_match_brute_force(G):
    orbits = vertex_orbits(G)
    assert set(orbits) == brute_orbits(G)
    assert sorted(v for o in orbits for v in o) == list(range(G.n))


def assert_automorphisms_are_exact(G):
    """automorphism(G, u, v) finds one exactly when v is in u's orbit,
    and what it finds is an automorphism taking u to v."""
    orbit_of = {v: o for o in brute_orbits(G) for v in o}
    for u, v in itertools.product(range(G.n), repeat=2):
        sigma = automorphism(G, u, v)
        assert (sigma is not None) == (v in orbit_of[u]), (u, v)
        if sigma is not None:
            assert sigma[u] == v and sorted(sigma) == list(range(G.n))
            assert relabel(G, sigma).edges == G.edges


@pytest.mark.parametrize("G", SYMMETRIC_GRAPHS + [transitive_tournament(3)])
def test_every_found_automorphism_preserves_the_edges(G):
    assert_automorphisms_are_exact(G)


@settings(max_examples=60, deadline=None)
@given(small_digraphs())
def test_every_found_automorphism_of_a_digraph_preserves_the_edges(G):
    assert_automorphisms_are_exact(G)
