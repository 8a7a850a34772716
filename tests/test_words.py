"""Injective-word and directed-flag complexes on small digraphs."""

import random

import pytest

from maghom.chains import trail_complex
from maghom.errors import GraphError
from maghom.graphs import (
    digraph,
    family,
    point,
    reachability_preorder,
    transitive_tournament,
)
from maghom.homology import chain_homology, reduced_homology
from maghom.words import (
    directed_flag,
    injective_word_ranks,
    injective_words_via_flag,
    order_complex,
)
from test_chains import boundary, compose

SPHERE_1 = digraph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (2, 3), (1, 3)])
SPHERE_2 = digraph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (3, 1), (3, 2)])


def ranks(groups):
    return {k: g.rank for k, g in groups.items()}


def test_complete_graph_word_complex():
    wc = trail_complex(family("complete", 3))
    assert wc.f_vector() == (3, 6, 6)
    assert wc.euler_characteristic() == 3
    assert ranks(chain_homology(wc)) == {0: 1, 2: 2}
    assert ranks(reduced_homology(chain_homology(wc))) == {2: 2}
    for g in chain_homology(wc).values():
        assert g.torsion == ()


def test_derangement_top_rank():
    wc = trail_complex(family("complete", 4))
    assert ranks(reduced_homology(chain_homology(wc))) == {3: 9}


# derangement numbers D_n, OEIS A000166
DERANGEMENTS = {3: 2, 4: 9, 5: 44, 6: 265, 7: 1854}


@pytest.mark.parametrize("n", sorted(DERANGEMENTS))
def test_strongly_connected_words_are_a_wedge_of_derangement_spheres(n):
    # every injective word on n letters is a cell, and that complex is a
    # wedge of D_n spheres of dimension n - 1 (Bjorner & Wachs 1983)
    want = {0: 1, n - 1: DERANGEMENTS[n]}
    assert injective_word_ranks(n) == want
    for name in ("complete", "cycle", "dir_cycle"):
        groups = chain_homology(trail_complex(family(name, n)), "Z")
        assert ranks(groups) == want, name
        assert all(not g.torsion for g in groups.values()), name


def test_directed_line_word_complex_is_contractible():
    wc = trail_complex(family("dir_linear", 3))
    assert wc.f_vector() == (3, 3, 1)
    assert wc.euler_characteristic() == 1
    assert ranks(chain_homology(wc)) == {0: 1}
    assert ranks(reduced_homology(chain_homology(wc))) == {}


def test_directed_flag_of_cyclic_triangle():
    # ordered cliques need every forward edge, so the cyclic triangle
    # contributes no 2-simplex
    fl = directed_flag(family("dir_cycle", 3))
    assert fl.f_vector() == (3, 3)
    assert fl.top_degree == 1


def test_flag_vs_word_complexes():
    rng = random.Random(2468)
    for _ in range(10):
        n = rng.randint(1, 5)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.45
        ]
        G = digraph(n, edges)
        direct = trail_complex(G)
        via = injective_words_via_flag(G)
        assert direct == via
        # words of the closure coincide with words of the graph
        assert direct == trail_complex(reachability_preorder(G))


def test_word_complex_boundaries_square_to_zero():
    wc = trail_complex(SPHERE_1)
    for k in range(2, wc.top_degree + 1):
        assert not any(compose(boundary(wc, k - 1), boundary(wc, k)))
    # face counts agree with the f-vector
    assert tuple(len(wc.cells(d)) for d in wc.degrees()) == wc.f_vector()


def test_order_complex_requires_a_poset():
    P = transitive_tournament(3)
    oc = order_complex(P)
    assert oc.f_vector() == (4, 6, 4, 1)
    with pytest.raises(GraphError):
        order_complex(family("dir_cycle", 3))
    with pytest.raises(GraphError):
        # not transitively closed
        order_complex(family("dir_linear", 3))


def test_source_apex_makes_a_cone():
    # vertex 0 reaches everything, so the word complex deformation
    # retracts to the words through 0
    wc = trail_complex(SPHERE_1)
    assert wc.f_vector() == (4, 7, 6, 2)
    assert wc.euler_characteristic() == 1
    assert ranks(chain_homology(wc)) == {0: 1}


def test_suspension_of_the_digon():
    wc = trail_complex(SPHERE_2)
    assert wc.f_vector() == (4, 6, 4)
    assert wc.euler_characteristic() == 2
    assert ranks(chain_homology(wc)) == {0: 1, 2: 1}
    assert ranks(reduced_homology(chain_homology(wc))) == {2: 1}


def test_digon_words_make_a_circle():
    wc = trail_complex(family("complete", 2))
    assert wc.f_vector() == (2, 2)
    assert ranks(chain_homology(wc)) == {0: 1, 1: 1}


def test_point_word_complex():
    wc = trail_complex(point())
    assert wc.f_vector() == (1,)
    assert ranks(chain_homology(wc)) == {0: 1}
    assert ranks(reduced_homology(chain_homology(wc))) == {}


def test_closure_collapses_directed_cycle():
    # the closure of a directed cycle is complete, so the word homology
    # jumps to the derangement pattern
    wc = trail_complex(family("dir_cycle", 4))
    assert ranks(reduced_homology(chain_homology(wc))) == {3: 9}


def test_export_cells_shape():
    wc = trail_complex(family("dir_linear", 2))
    assert wc.cells(0) == ((0,), (1,))
    assert wc.cells(1) == ((0, 1),)
    assert wc.cells(5) == ()


def test_euler_characteristic_matches_homology():
    for G in (SPHERE_1, SPHERE_2, family("complete", 3), transitive_tournament(3)):
        wc = trail_complex(G)
        chi_f = wc.euler_characteristic()
        chi_h = sum((-1) ** k * g.rank for k, g in chain_homology(wc).items())
        assert chi_f == chi_h


def test_field_coefficients():
    wc = trail_complex(family("complete", 3))
    assert ranks(chain_homology(wc, ring="Q")) == {0: 1, 2: 2}
    assert ranks(chain_homology(wc, ring="Fp:2")) == {0: 1, 2: 2}
