"""Homology tables against frozen small-graph values, the coboundary
pass against the per-degree Smith normal form loop it replaced, the
orbit-summand tables against one reduction of each whole graded piece,
the early-exit diagonality verdict and the capped eulerian complex
against the full table and the full complex, and the long exact
sequence read off one persistence pairing against the chain-level map
ranks it replaced."""

import gc
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_chains import boundary, combine
from test_graphs import SYMMETRIC_GRAPHS, relabel
from test_matrices import ref_reduce_column, ref_reduce_columns
from test_pathhom import four_rank_homology
from test_snf import small_digraphs, smith_divisors, snf_rank

from maghom.chains import KINDS, has_repeat, trail_complex
from maghom.errors import GraphError
from maghom.graphs import (
    cartesian,
    cone,
    connected_graph_classes,
    digraph,
    family,
    opposite,
    point,
    rho,
    transitive_tournament,
)
from maghom.homology import (
    AbelianGroupInvariant,
    chain_homology,
    coboundary_pass,
    homology_table,
    invariant_factors,
    is_diagonal,
    is_regularly_diagonal,
    les_verify,
    parse_ring,
    reduced_homology,
    ring_name,
    splitting_check,
)
from maghom.invariants import Polynomial, magnitude_series, regular_magnitude
from maghom.pathhom import _paths, path_homology
from maghom.spectral import rmpss_report
from maghom.words import order_complex


def rank_map(table):
    return {kl: g.rank for kl, g in table.entries.items()}


def perm(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


def test_parse_ring():
    assert parse_ring("Z") == "Z"
    assert parse_ring("Q") == "Q"
    assert parse_ring("Fp:5") == 5
    assert ring_name("Z") == "Z" and ring_name("Q") == "Q" and ring_name(7) == "F7"
    with pytest.raises(ValueError):
        parse_ring("Fp:6")
    with pytest.raises(ValueError):
        parse_ring("Fp:1")
    with pytest.raises(ValueError):
        parse_ring("R")


@pytest.mark.parametrize("ring", [0, 1, 4])
def test_integer_rings_must_be_prime(ring):
    # an integer ring is a prime modulus, checked as strictly as Fp:<p>
    G = family("cycle", 4)
    with pytest.raises(ValueError):
        homology_table(G, "eulerian", ring)
    with pytest.raises(ValueError):
        path_homology(G, strong=True, ring=ring)
    with pytest.raises(ValueError):
        rmpss_report(G, ring=ring)
    assert parse_ring(5) == 5


def test_diagonal_property():
    assert homology_table(family("complete", 4)).diagonal
    assert not homology_table(family("cycle", 4)).diagonal


@pytest.mark.parametrize("kind", ["eulerian", "ordinary", "discriminant"])
def test_negative_length_cap_leaves_nothing(kind):
    # no trail has negative length, not even a single vertex
    assert homology_table(family("cycle", 3), kind, l_max=-1).entries == {}


def test_complete_graph_diagonal():
    for n in range(1, 6):
        t = homology_table(family("complete", n))
        assert rank_map(t) == {
            (k, k): perm(n, k + 1) for k in range(n)
        }
        for g in t.entries.values():
            assert g.torsion == ()


def test_vertex_and_edge_counts():
    rng = random.Random(3301)
    for _ in range(10):
        n = rng.randint(1, 6)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.4
        ]
        G = digraph(n, edges)
        t = homology_table(G)
        assert t.rank(0, 0) == n
        assert t.rank(1, 1) == G.m


def test_cycle_four_full_table():
    t = homology_table(family("cycle", 4))
    assert rank_map(t) == {
        (0, 0): 4,
        (1, 1): 8,
        (2, 2): 4,
        (2, 3): 8,
        (3, 4): 8,
        (3, 5): 8,
    }
    assert t.top_bidegree() == (3, 5)
    assert t.group(3, 5) == AbelianGroupInvariant(8, ())
    assert str(t.group(2, 3)) == "Z^8"
    assert t.rank(2, 5) == 0


def test_cycle_top_bidegrees():
    # top bidegree (n-1, n^2/2 - n + 1) for even n, (n-1, (n-1)^2/2) for odd
    tops = {3: (2, 2), 4: (3, 5), 5: (4, 8), 6: (5, 13)}
    for n, top in tops.items():
        t = homology_table(family("cycle", n))
        assert t.top_bidegree() == top, n
    assert homology_table(family("cycle", 3)).rank(2, 2) == 6
    assert homology_table(family("cycle", 4)).rank(2, 2) == 4


def test_complete_minus_edge():
    # remove one edge pair from rho(K_4)
    G = rho(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    t = homology_table(G)
    assert rank_map(t) == {
        (0, 0): 4,
        (1, 1): 10,
        (2, 2): 14,
        (3, 3): 4,
        (3, 4): 12,
    }
    assert t.rank(2, 3) == 0


def test_sphere_like_suspensions_differ():
    s1 = digraph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (2, 3), (1, 3)])
    s2 = digraph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (3, 1), (3, 2)])
    t1 = homology_table(s1)
    t2 = homology_table(s2)
    assert rank_map(t1) == {(0, 0): 4, (1, 1): 6, (2, 2): 5, (3, 3): 2}
    assert rank_map(t2) == {(0, 0): 4, (1, 1): 6, (2, 2): 4}
    assert t1.rank(3, 3) != t2.rank(3, 3)


def test_tournament_diagonal_binomials():
    for n in range(5):
        t = homology_table(transitive_tournament(n))
        want = {}
        for k in range(n + 1):
            want[(k, k)] = math.comb(n + 1, k + 1)
        assert rank_map(t) == want


def test_ordinary_table_needs_cutoff():
    K3 = family("complete", 3)
    with pytest.raises(ValueError):
        homology_table(K3, kind="ordinary")
    t = homology_table(K3, kind="ordinary", l_max=3)
    assert t.rank(0, 0) == 3 and t.rank(1, 1) == 6


def test_discriminant_quotient_ranks():
    # diagonal splitting on a complete graph: MH = EMH + DMH ranks levelwise
    K3 = family("complete", 3)
    l_max = 2
    mh = homology_table(K3, kind="ordinary", l_max=l_max)
    emh = homology_table(K3, kind="eulerian", l_max=l_max)
    dmh = homology_table(K3, kind="discriminant", l_max=l_max)
    assert mh.rank(2, 2) == emh.rank(2, 2) + dmh.rank(2, 2)
    assert dmh.rank(2, 2) == 6


def test_ring_variants_agree_on_torsion_free_tables():
    G = family("cycle", 4)
    tz = homology_table(G)
    tq = homology_table(G, ring="Q")
    t2 = homology_table(G, ring="Fp:2")
    assert rank_map(tz) == rank_map(tq) == rank_map(t2)


def test_reversal_invariance():
    rng = random.Random(4104)
    for _ in range(6):
        n = rng.randint(2, 5)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.45
        ]
        G = digraph(n, edges)
        assert rank_map(homology_table(G)) == rank_map(homology_table(opposite(G)))


def test_les_rank_exactness():
    for G, l in [
        (family("complete", 3), 2),
        (family("cycle", 4), 3),
        (family("cycle", 4), 5),
        (transitive_tournament(3), 2),
    ]:
        report = les_verify(G, l)
        assert report["exact"], report["failures"]
        assert not report["failures"]


def test_les_reports_rank_arithmetic():
    report = les_verify(family("complete", 3), 2)
    e = report["eulerian"]
    m = report["ordinary"]
    d = report["discriminant"]
    # alternating sums across one weight column must cancel
    keys = set(e) | set(m) | set(d)
    total = sum(
        (-1) ** k * (e.get(k, 0) - m.get(k, 0) + d.get(k, 0)) for k in keys
    )
    assert total == 0


def test_splitting_check():
    report = splitting_check(family("complete", 3))
    assert report["splits"] and report["regularly_diagonal"]
    with pytest.raises(GraphError):
        splitting_check(family("linear", 4))


@pytest.mark.parametrize("G", [family("complete", 4), family("tournament", 4)])
def test_diagonal_graphs_split_with_zero_connecting_rank(G):
    report = splitting_check(G)
    assert report["splits"] and report["regularly_diagonal"]
    for l in range(report["l_max"] + 1):
        assert report["levels"][l]["splits"], l
        assert not les_verify(G, l)["rank_connecting"], l


# Reference: les_verify as it was before its map ranks were read off the
# persistence pairs of one coboundary pass.  Cycle bases are the V
# columns of a top-down boundary reduction, recorded by the reference
# ``test_matrices.ref_reduce_columns``, pushed through the three chain
# maps, and each map rank is the number of pivots its images add.
def ref_map_rank(images, pivots):
    """Rank on homology of a map, from chain-level images of a cycle basis.

    pivots are those of the boundaries' reduction over Q; the images
    extend a copy of them, and the rank is the number of pivots they add.
    """
    pivots = dict(pivots)
    added = 0
    for image in images:
        col, _ = ref_reduce_column(dict(image), pivots)
        if col:
            pivots[max(col)] = (col, None)
            added += 1
    return added


def ref_les_verify(G, l):
    complexes = [trail_complex(G, kind, l) for kind in KINDS]
    emx, mx, dmx = complexes
    e, m, d = (
        {k: g.rank for k, g in chain_homology(c, "Q", weight=l).items()} for c in complexes
    )

    r_incl, r_proj, r_conn = {}, {}, {}
    # the pivots of each boundary out of degree k + 1: the boundaries in
    # degree k, and the columns its reduction skips
    above = [{}, {}, {}]
    for k in range(l, -1, -1):
        here = [
            ref_reduce_columns(boundary(c, k, l), None, skip, record=True)
            for c, skip in zip(complexes, above)
        ]
        (e_piv, e_cyc), (_, m_cyc), (_, d_cyc) = here
        emc, mc, dmc = emx.cells(k, l), mx.cells(k, l), dmx.cells(k, l)
        mc_index = {t: i for i, t in enumerate(mc)}
        dmc_index = {t: i for i, t in enumerate(dmc)}

        # inclusion on homology
        images = [{mc_index[emc[i]]: v for i, v in z.items()} for z in e_cyc]
        r_incl[k] = ref_map_rank(images, above[1])

        # projection on homology
        images = [
            {dmc_index[mc[i]]: v for i, v in z.items() if mc[i] in dmc_index}
            for z in m_cyc
        ]
        r_proj[k] = ref_map_rank(images, above[2])

        # connecting map: lift a quotient cycle, push it through the full
        # differential, read the result in the all-distinct basis
        full = boundary(mx, k, l)
        lower = mx.cells(k - 1, l)
        lower_index = {t: i for i, t in enumerate(emx.cells(k - 1, l))}
        images = []
        for z in d_cyc:
            pushed = combine(full, {mc_index[dmc[i]]: v for i, v in z.items()})
            for i in pushed:
                if lower[i] not in lower_index:
                    raise GraphError(
                        f"connecting image of a cycle hit repeat trail {lower[i]}"
                    )
            images.append({lower_index[lower[i]]: v for i, v in pushed.items()})
        r_conn[k] = ref_map_rank(images, e_piv)
        above = [pivots for pivots, _ in here]

    checks = []
    failures = []
    for k in range(l + 1):
        row = {
            "k": k,
            "exact_at_ordinary": r_incl[k] + r_proj[k] == m.get(k, 0),
            "exact_at_discriminant": r_proj[k] + r_conn[k] == d.get(k, 0),
            "exact_at_eulerian": r_conn.get(k + 1, 0) + r_incl[k] == e.get(k, 0),
        }
        checks.append(row)
        for name in ("ordinary", "discriminant", "eulerian"):
            if not row[f"exact_at_{name}"]:
                failures.append(f"degree {k} at the {name} term")
    return {
        "l": l,
        "eulerian": e,
        "ordinary": m,
        "discriminant": d,
        "rank_inclusion": {k: r_incl[k] for k in range(l + 1) if r_incl[k]},
        "rank_projection": {k: r_proj[k] for k in range(l + 1) if r_proj[k]},
        "rank_connecting": {k: r_conn[k] for k in range(l + 1) if r_conn[k]},
        "checks": checks,
        "failures": failures,
        "exact": not failures,
    }


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), st.integers(0, 5))
def test_les_pairing_matches_the_chain_level_map_ranks(G, l):
    assert les_verify(G, l) == ref_les_verify(G, l)


@pytest.mark.parametrize(
    "name, n", [("complete", 4), ("cycle", 5), ("tournament", 4), ("dir_cycle", 4)]
)
def test_les_pairing_matches_the_chain_level_map_ranks_on_families(name, n):
    G = family(name, n)
    for l in range(7):
        assert les_verify(G, l) == ref_les_verify(G, l), l


# Reference: les_verify as it was before it split by vertex orbit, over
# any field: one pairing of the whole ordinary graded piece, and the three
# homologies of the whole graded pieces.
def unsplit_les_verify(G, l, ring):
    def ranks(complex_):
        return {k: g.rank for k, g in chain_homology(complex_, ring, weight=l).items()}

    ordinary = trail_complex(G, "ordinary", l)
    discriminant = ordinary.select(weight=l, keep=has_repeat)
    e = ranks(trail_complex(G, "eulerian", l))
    m = ranks(ordinary)
    d = ranks(discriminant)
    piece = ordinary.select(weight=l, key=has_repeat)
    cut = {k: piece.dim(k, l) - discriminant.dim(k, l) for k, _ in piece.buckets}
    r_incl, r_proj, r_conn = {}, {}, {}
    dead = []
    for k, pairs, _ in coboundary_pass(piece, ring, weight=l):
        here, above = cut.get(k, 0), cut.get(k + 1, 0)
        assert not any(b >= here and d < above for b, d in pairs)
        r_conn[k + 1] = sum(b < here and d >= above for b, d in pairs)
        paired = [b for b, _ in pairs] + dead
        r_incl[k] = here - sum(i < here for i in paired)
        r_proj[k] = piece.dim(k, l) - here - sum(i >= here for i in paired)
        dead = [d for _, d in pairs]
    return {
        "eulerian": e,
        "ordinary": m,
        "discriminant": d,
        "rank_inclusion": {k: v for k, v in r_incl.items() if v and k <= l},
        "rank_projection": {k: v for k, v in r_proj.items() if v and k <= l},
        "rank_connecting": {k: v for k, v in r_conn.items() if v and k <= l},
    }


# orbits of mixed sizes: the cone's apex and its base, and the two sides of
# K_{2,3}; one orbit of six in the prism C_3 x K_2, C_6 and directed C_6
MIXED_ORBITS = [
    cone(family("cycle", 4)),
    cartesian(family("cycle", 3), family("complete", 2)),
    rho(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)]),
    family("cycle", 6),
    family("dir_cycle", 6),
]


@pytest.mark.parametrize("G", MIXED_ORBITS)
def test_les_orbit_summands_match_the_whole_graded_piece(G):
    for l in range(8):
        assert les_verify(G, l) == ref_les_verify(G, l), l


@pytest.mark.parametrize("G", [digraph(0, []), point()])
def test_les_of_graphs_the_strategy_does_not_draw(G):
    for l in range(3):
        assert les_verify(G, l) == ref_les_verify(G, l), l
    assert les_verify(G, 0)["exact"]


@pytest.mark.parametrize("ring", ["Fp:2", "Fp:3"])
def test_les_orbit_summands_over_prime_fields(ring):
    keys = ("eulerian", "ordinary", "discriminant")
    keys += ("rank_inclusion", "rank_projection", "rank_connecting")
    for G in MIXED_ORBITS[:3] + [digraph(0, []), point(), family("complete", 4)]:
        for l in range(6):
            report = les_verify(G, l, ring)
            assert report["exact"], (G, l)
            assert {key: report[key] for key in keys} == unsplit_les_verify(G, l, ring)


@settings(max_examples=40, deadline=None)
@given(small_digraphs(), st.integers(0, 5), st.sampled_from(["Fp:2", "Fp:3"]))
def test_les_orbit_summands_match_the_unsplit_pairing_mod_p(G, l, ring):
    report = les_verify(G, l, ring)
    want = unsplit_les_verify(G, l, ring)
    assert {key: report[key] for key in want} == want
    assert report["exact"]


def test_les_needs_a_field():
    with pytest.raises(ValueError):
        les_verify(family("cycle", 4), 2, "Z")


def test_table_serializations():
    t = homology_table(family("complete", 3))
    d = t.to_json_dict()
    assert d["groups"]["1,1"] == {"rank": 6, "torsion": []}
    assert d["certified"] is True and d["ring"] == "Z"
    csv = t.to_csv()
    assert csv.splitlines()[0].startswith("k,l,rank")
    md = t.to_markdown()
    assert "|" in md
    assert t.total_rank() == 3 + 6 + 6
    assert t.euler_characteristic() == 3 - 6 + 6


def snf_homology(complex_, ring="Z", reduced=False, weight=None):
    """Reference: homology from the Smith form of each differential.

    The rational rank is the number of Smith divisors, the mod-p rank the
    number of divisors p does not divide, and the torsion summands are
    the divisors exceeding 1.
    """
    ring = parse_ring(ring)

    def divisors(k):
        if k < 1 or not complex_.dim(k, weight):
            return ()
        return smith_divisors(boundary(complex_, k, weight), complex_.dim(k - 1, weight))

    def rank(divs):
        return len(divs) if ring in ("Z", "Q") else sum(1 for d in divs if d % ring)

    out = {}
    for k in range(complex_.top_degree + 1):
        dim = complex_.dim(k, weight)
        if not dim:
            continue
        outgoing = 1 if reduced and k == 0 else rank(divisors(k))
        incoming = divisors(k + 1)
        torsion = tuple(d for d in incoming if d > 1) if ring == "Z" else ()
        g = AbelianGroupInvariant(dim - outgoing - rank(incoming), torsion)
        if not g.trivial:
            out[k] = g
    return out


RINGS = st.sampled_from(["Z", "Q", 2, 3])


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), RINGS, st.booleans())
def test_coboundary_pass_matches_smith_form_loop(G, ring, reduced):
    # the total complex, and every graded piece of the eulerian complex
    # and of the ordinary one at l <= 4
    cases = [(trail_complex(G), None)]
    for kind, l_max in (("eulerian", None), ("ordinary", 4)):
        complex_ = trail_complex(G, kind, l_max)
        cases += [(complex_, l) for l in sorted({l for _, l in complex_.buckets})]
    for complex_, weight in cases:
        got = chain_homology(complex_, ring, weight=weight)
        if reduced:
            got = reduced_homology(got)
        assert got == snf_homology(complex_, ring, reduced, weight), (weight, ring)


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), st.booleans(), st.sampled_from([None, 2, 3]), st.booleans())
def test_path_homology_matches_smith_form_ranks(G, strong, p, reduced):
    # the four-rank formula with every rank read off the Smith divisors
    # of the same face-sum matrices
    top = G.n - 1 if strong else 3
    paths = _paths(G, top + 1, strong)
    want = four_rank_homology(
        paths, top, lambda cols, nrows: snf_rank(cols, nrows, p), reduced, G.n
    )
    ring = "Q" if p is None else p
    kmax = None if strong else top
    assert path_homology(G, kmax, strong, ring, reduced) == want


def rp2_face_poset():
    """Faces of the six-vertex projective plane, each with an arrow to
    every larger face: its order complex is the barycentric subdivision."""
    triangles = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    faces = sorted(
        {f for t in triangles for k in (1, 2, 3) for f in itertools.combinations(t, k)}
    )
    return digraph(
        len(faces),
        [(i, j) for i, f in enumerate(faces) for j, s in enumerate(faces) if set(f) < set(s)],
    )


def test_torsion_reaches_the_smith_form_fallback():
    # H_1(RP^2; Z) = Z/2.  The degree-1 coboundary reduction meets a
    # column whose lowest entry is 2 before any content is divided out,
    # so it is set aside and its divisor comes from the dense Smith form
    # of the set-aside columns; over F_2 the Z/2 shows as a rank in
    # degrees 1 and 2
    P = rp2_face_poset()
    for complex_ in (order_complex(P), trail_complex(P)):
        assert chain_homology(complex_, "Z") == {
            0: AbelianGroupInvariant(1),
            1: AbelianGroupInvariant(0, (2,)),
        }
        assert chain_homology(complex_, "Q") == {0: AbelianGroupInvariant(1)}
        ranks = {k: g.rank for k, g in chain_homology(complex_, "Fp:2").items()}
        assert ranks == {0: 1, 1: 1, 2: 1}


@pytest.mark.parametrize("ring", ["Z", "Q", "Fp:2"])
def test_reduced_homology_from_the_unreduced_groups(ring):
    # the injective-word command reads its reduced groups off the
    # unreduced ones; RP^2 keeps its Z/2 in degree 1 over Z
    graphs = [
        family("complete", 3),
        family("cycle", 5),
        transitive_tournament(4),
        digraph(1, []),
        rp2_face_poset(),
    ]
    for G in graphs:
        complex_ = trail_complex(G)
        want = snf_homology(complex_, ring, reduced=True)
        assert reduced_homology(chain_homology(complex_, ring)) == want, G


def unsplit_table(G, kind, ring, l_max):
    """Reference: chain_homology per weight on the whole trail complex."""
    complex_ = trail_complex(G, kind, l_max)
    return {
        (k, l): g
        for l in sorted({l for _, l in complex_.buckets})
        for k, g in chain_homology(complex_, ring, weight=l).items()
    }


def signed_counts(complex_):
    by_length = {}
    for (k, l), cells in complex_.buckets.items():
        by_length[l] = by_length.get(l, 0) + (-1) ** k * len(cells)
    return Polynomial.from_map(by_length)


@st.composite
def relabeled_symmetric_graphs(draw):
    G = draw(st.sampled_from(SYMMETRIC_GRAPHS + [family("cycle", 5), family("complete", 5)]))
    return relabel(G, draw(st.permutations(range(G.n))))


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_digraphs(), relabeled_symmetric_graphs()), RINGS)
def test_orbit_summands_match_the_unsplit_table(G, ring):
    for kind, l_max in (("eulerian", None), ("ordinary", 4), ("discriminant", 4)):
        got = homology_table(G, kind, ring, l_max).entries
        assert got == unsplit_table(G, kind, ring, l_max), (kind, ring)
    assert regular_magnitude(G) == signed_counts(trail_complex(G))
    assert magnitude_series(G, 4) == signed_counts(trail_complex(G, "ordinary", 4))


def test_a_table_leaves_no_trails_behind():
    G = family("cycle", 8)
    tracemalloc.start()
    try:
        assert homology_table(G).top_bidegree() == (7, 25)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert left < 100_000, f"{left} bytes still traced"


def test_a_sweep_leaves_no_graph_keyed_state():
    # distances, colours and orbits die with their graph; caches keyed by
    # graphs kept about 320 kB of these 112 classes alive
    classes = connected_graph_classes(6)
    tracemalloc.start()
    try:
        for edges in classes:
            homology_table(rho(6, edges))
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(classes) == 112
    assert left < 10_000, f"{left} bytes still traced"


def prime_power_factors(orders):
    """Invariant factors of the sum of the Z/d for d in orders, from prime
    powers: the i-th largest factor is the product of every prime's i-th
    largest power dividing an order."""
    powers = {}
    for d in orders:
        p = 2
        while d > 1:
            if p * p > d:
                p = d
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    factors = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[-1 - i] *= q
    return tuple(factors)


@pytest.mark.parametrize(
    "orders",
    [(2, 3), (2, 4), (4, 2), (3, 2, 2), (2, 6, 4), (6, 10, 15), (12, 18, 5), (7,), ()],
)
def test_summed_torsion_keeps_invariant_factor_form(orders):
    # the Smith form of the diagonal of orders, against the prime-power split
    want = prime_power_factors(orders)
    assert invariant_factors(orders) == want
    assert invariant_factors(orders * 3) == invariant_factors(want * 3)


@st.composite
def undirected_graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return rho(n, [e for e, kept in zip(pairs, keep) if kept])


@st.composite
def disjoint_unions(draw):
    G, H = draw(small_digraphs(max_n=3)), draw(small_digraphs(max_n=3))
    return digraph(G.n + H.n, list(G.edges) + [(u + G.n, v + G.n) for u, v in H.edges])


@st.composite
def acyclic_digraphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(order, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return digraph(n, [e for e, kept in zip(pairs, keep) if kept])


DIAGONALITY_INPUTS = st.one_of(
    small_digraphs(max_n=6), undirected_graphs(), disjoint_unions(), acyclic_digraphs()
)


@settings(max_examples=150, deadline=None)
@given(DIAGONALITY_INPUTS)
def test_diagonality_verdict_matches_the_full_table(G):
    assert is_regularly_diagonal(G) == homology_table(G, "eulerian", "Z").diagonal


VERDICT_KINDS = st.sampled_from(("eulerian", "ordinary"))


@settings(max_examples=80, deadline=None)
@given(DIAGONALITY_INPUTS, VERDICT_KINDS, st.integers(-1, 4))
def test_capped_verdict_matches_the_capped_table(G, kind, l_max):
    assert is_diagonal(G, kind, l_max) == homology_table(G, kind, "Z", l_max).diagonal


# caps past the third doubling, on inputs small enough for the ordinary table
@settings(max_examples=60, deadline=None)
@given(
    st.one_of(small_digraphs(max_n=4), undirected_graphs(max_n=4), acyclic_digraphs()),
    VERDICT_KINDS,
    st.integers(5, 8),
)
def test_verdict_at_long_caps_matches_the_capped_table(G, kind, l_max):
    assert is_diagonal(G, kind, l_max) == homology_table(G, kind, "Z", l_max).diagonal


@pytest.mark.parametrize("kind", ["eulerian", "ordinary"])
@pytest.mark.parametrize("spec", ["dir_cycle:5", "cycle:5", "complete:4", "tournament:5"])
def test_verdict_at_cap_8_matches_the_table(spec, kind):
    name, n = spec.split(":")
    G = family(name, int(n))
    assert is_diagonal(G, kind, 8) == homology_table(G, kind, "Z", 8).diagonal


def test_unbounded_verdict_needs_a_cap():
    with pytest.raises(ValueError):
        is_diagonal(family("cycle", 4), "ordinary")


def test_no_discriminant_verdict():
    # at cap 4 the repeat trails of the directed 5-cycle are empty, yet the
    # table up to length 8 has Z at (2, 5): a short summand proves nothing
    G = family("dir_cycle", 5)
    assert not homology_table(G, "discriminant", "Z", 8).diagonal
    with pytest.raises(ValueError):
        is_diagonal(G, "discriminant", 8)


@pytest.mark.parametrize(
    "G",
    [family("complete", n) for n in range(1, 7)]
    + [family("tournament", n) for n in range(7)]
    + [family("dir_linear", n) for n in range(1, 10)],
)
def test_diagonal_families_keep_their_verdict_through_every_cap(G):
    # diagonal digraphs give no early exit: the verdict doubles its cap
    # up to the certified bound or until the summand is whole
    assert homology_table(G, "eulerian", "Z").diagonal
    assert is_regularly_diagonal(G)


@settings(max_examples=80, deadline=None)
@given(DIAGONALITY_INPUTS, st.integers(-1, 12))
def test_capped_eulerian_complex_is_the_full_one_cut_at_the_cap(G, l_max):
    full = trail_complex(G).buckets
    want = {key: cells for key, cells in full.items() if key[1] <= l_max}
    assert trail_complex(G, "eulerian", l_max).buckets == want


def test_capped_table_has_every_diagonal_entry_at_girth_five():
    # the girth check reads only the (k, k) entries, from the table at l <= n - 1
    def diagonal(table):
        return {(k, l): g for (k, l), g in table.entries.items() if k == l}

    seen = 0
    for n in range(1, 7):
        for edges in connected_graph_classes(n, min_girth=5):
            G = rho(n, edges)
            capped = homology_table(G, "eulerian", "Z", l_max=n - 1)
            assert diagonal(capped) == diagonal(homology_table(G, "eulerian", "Z")), edges
            seen += 1
    assert seen == 17
