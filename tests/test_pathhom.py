"""Path homology against a dense linear-algebra oracle."""

import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from maghom import pathhom
from maghom.chains import KINDS, trail_complex
from maghom.graphs import digraph, family, point, transitive_tournament
from maghom.matrices import reduce_bitsets, reduce_columns
from maghom.pathhom import _face_columns, _paths, allowed_paths, omega_basis, path_homology
from test_chains import combine
from test_matrices import ref_reduce_columns
from test_snf import residues, small_digraphs, snf_rank


def face_sums(paths, n, stray_only):
    """Face sum from allowed n-paths onto the tuples it hits: full_n, or
    with stray_only stray_n, its rows on tuples outside A_{n-1}, as
    (sparse columns, row count).

    paths holds the allowed paths of degrees n - 1 and n, as ``_paths``
    buckets them.  Rows are numbered by first hit.  A graph has no loops,
    so the faces of one path are distinct.  The differential vanishes on
    vertices, so n = 0 gives the zero map.
    """
    allowed = set(paths.get((n - 1, n - 1), ())) if stray_only else ()
    index = {}
    cols = []
    for path in paths.get((n, n), ()):
        col = {}
        for i in range(len(path) if n > 0 else 0):
            face = path[:i] + path[i + 1 :]
            if face not in allowed:
                col[index.setdefault(face, len(index))] = (-1) ** i
        cols.append(col)
    return cols, len(index)


def four_rank_homology(paths, top, rank, reduced, n_vertices):
    """rank H_n = |A_n| - rank full_n - rank full_{n+1} + rank stray_{n+1},
    with each rank taken by rank(columns, row count) of its own face-sum
    matrix."""
    full = {0: 1 if reduced and n_vertices else 0}
    stray = {}
    for n in range(1, top + 2):
        full[n] = rank(*face_sums(paths, n, stray_only=False))
        stray[n] = rank(*face_sums(paths, n, stray_only=True))
    want = {}
    for n in range(top + 1):
        h = len(paths.get((n, n), ())) - full[n] - full[n + 1] + stray[n + 1]
        if h:
            want[n] = h
    return want


def oracle_omega_dims_and_homology(G, top, strong, domain=sympy.QQ, reduced=False):
    """Dimensions of the boundary-invariant spans and their homology ranks.

    Work in the free module on all vertex tuples so faces with repeats
    count as obstructions, then intersect with the allowed span.  Ranks
    are taken over domain (sympy.QQ or a finite field sympy.GF(p)); with
    reduced, the augmentation takes the place of the zero map on vertices.
    """
    def allowed(n):
        out = []
        for t in itertools.product(range(G.n), repeat=n + 1):
            if any(not G.has_edge(a, b) for a, b in zip(t, t[1:])):
                continue
            if strong and len(set(t)) != n + 1:
                continue
            out.append(t)
        return out

    def raw_boundary(t):
        faces = {}
        for i in range(len(t)):
            face = t[:i] + t[i + 1 :]
            faces[face] = faces.get(face, 0) + (-1) ** i
        return faces

    def matrix(cols, nrows):
        rows = {}
        for j, col in enumerate(cols):
            for i, c in col.items():
                rows.setdefault(i, {})[j] = domain(c)
        return DomainMatrix(rows, (nrows, len(cols)), domain)

    dims = {}
    dranks = {}
    for n in range(top + 2):
        paths = allowed(n)
        if not paths:
            dims[n] = dranks[n] = 0
            continue
        # the differential vanishes on vertices, nothing to obstruct
        lower = {t: i for i, t in enumerate(allowed(n - 1))} if n else {}
        forbidden = {}
        obstructions = []  # per path: the forbidden faces it hits
        boundaries = []  # per path: the allowed faces it hits
        for t in paths:
            ob, bd = {}, {}
            for face, c in raw_boundary(t).items() if n else ():
                if c and face in lower:
                    bd[lower[face]] = c
                elif c:
                    ob[forbidden.setdefault(face, len(forbidden))] = c
            obstructions.append(ob)
            boundaries.append(bd)
        basis = matrix(obstructions, len(forbidden)).nullspace()
        dims[n] = basis.shape[0]
        d = matrix(boundaries, len(lower))
        dranks[n] = (d * basis.transpose()).rank() if n and dims[n] else 0
    if reduced and dims[0]:
        dranks[0] = 1

    hom = {}
    for n in range(top + 1):
        h = dims[n] - dranks[n] - dranks.get(n + 1, 0)
        if h:
            hom[n] = h
    return dims, hom


def small_graphs():
    rng = random.Random(6021)
    out = [
        family("complete", 2),
        family("complete", 3),
        family("dir_linear", 3),
        family("dir_cycle", 3),
        transitive_tournament(3),
        digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    ]
    for _ in range(6):
        n = rng.randint(2, 4)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.5
        ]
        out.append(digraph(n, edges))
    return out


def test_omega_dims_match_oracle():
    for G in small_graphs():
        for strong in (False, True):
            dims, _ = oracle_omega_dims_and_homology(G, 3, strong)
            for n in range(4):
                got = len(omega_basis(G, n, strong))
                assert got == dims[n], (G, strong, n)


@pytest.mark.parametrize("p", [None, 2, 3])
def test_omega_basis_columns_are_independent_and_in_the_kernel(p):
    # every column is killed by stray_n, and distinct lowest entries make
    # the columns linearly independent
    for G in small_graphs():
        for strong in (False, True):
            for n in range(4):
                stray = residues(face_sums(_paths(G, n, strong), n, stray_only=True)[0], p)
                basis = omega_basis(G, n, strong, ring_of(p))
                assert all(z and combine(stray, z, ring_of(p)) == {} for z in basis)
                lows = [max(z) for z in basis]
                assert len(set(lows)) == len(lows), (G, strong, n, p)


def ref_omega_basis(G, n, strong, p):
    """Reference: ``omega_basis`` as it was while the reduction recorded V,
    on the tests' V-recording reduction: the V columns whose face-sum
    column reduces to zero or to an allowed lowest row."""
    paths = _paths(G, n, strong)
    lower = paths.get((n - 1, n - 1), ())
    cols = list(_face_columns(lower, paths.get((n, n), ()), n))
    pivots, kernel = ref_reduce_columns(cols, p, record=True)
    return sorted(kernel + [v for low, (_, v) in pivots.items() if low < len(lower)], key=max)


def check_omega_basis_against_the_reference(G):
    for p in (None, 2, 3):
        for strong in (False, True):
            for n in range(5):
                got = omega_basis(G, n, strong, ring_of(p))
                assert got == ref_omega_basis(G, n, strong, p), (G, p, strong, n)


@settings(max_examples=40, deadline=None)
@given(small_digraphs())
def test_omega_basis_matches_the_v_recording_reduction(G):
    # column for column and in order: the identity rows below the face
    # rows carry exactly the V columns the reference records
    check_omega_basis_against_the_reference(G)


def test_omega_basis_of_k5_matches_the_v_recording_reduction():
    check_omega_basis_against_the_reference(family("complete", 5))


def test_homology_matches_oracle():
    for G in small_graphs():
        for strong in (False, True):
            _, hom = oracle_omega_dims_and_homology(G, 3, strong)
            got = path_homology(G, kmax=3, strong=strong)
            assert got == hom, (G, strong)


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), st.booleans())
def test_allowed_paths_are_the_diagonal_trails(G, strong):
    # an n-step trail of length n steps along edges only, so the allowed
    # n-paths are the trails at bidegree (n, n)
    eulerian = trail_complex(G)
    for n in range(5):
        want = tuple(
            t
            for t in itertools.product(range(G.n), repeat=n + 1)
            if all(G.has_edge(a, b) for a, b in zip(t, t[1:]))
            and (not strong or len(set(t)) == n + 1)
        )
        assert allowed_paths(G, n, strong) == want, n
        trails = eulerian if strong else trail_complex(G, "ordinary", n)
        assert allowed_paths(G, n, strong) == trails.cells(n, n), n
    # depth-first enumeration lists every bucket in lexicographic order
    for kind in KINDS:
        for cells in trail_complex(G, kind, None if kind == "eulerian" else 4).buckets.values():
            assert list(cells) == sorted(cells), kind


def test_allowed_paths_counts():
    K2 = family("complete", 2)
    assert allowed_paths(K2, 2) == ((0, 1, 0), (1, 0, 1))
    assert allowed_paths(K2, 2, strong=True) == ()
    assert len(allowed_paths(family("complete", 3), 1)) == 6


def test_bidirected_edge_carries_a_circle():
    # the invariant span of the alternating 2-paths is empty, so the
    # 1-cycle e01 + e10 survives
    K2 = family("complete", 2)
    assert omega_basis(K2, 2) == []
    assert path_homology(K2, kmax=3) == {0: 1, 1: 1}
    assert path_homology(K2, strong=True) == {0: 1, 1: 1}


def test_derangement_collapse():
    assert path_homology(family("complete", 3), strong=True) == {0: 1, 2: 2}
    assert path_homology(family("complete", 4), strong=True) == {0: 1, 3: 9}


def test_directed_line_is_contractible():
    assert path_homology(family("dir_linear", 3), strong=True) == {0: 1}
    assert path_homology(family("dir_linear", 3), strong=True, reduced=True) == {}


def test_tournament_and_tree_collapse():
    assert path_homology(transitive_tournament(5), strong=True, reduced=True) == {}
    rng = random.Random(5150)
    edges = []
    for v in range(1, 6):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    tree = digraph(6, edges)
    assert path_homology(tree, strong=True, reduced=True) == {}


def test_commuting_square_fills_in():
    sq = digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert path_homology(sq, kmax=2) == {0: 1}


def test_directed_cycles():
    # no shortcut edges, so no 2-path enters the invariant span and the
    # cycle class survives at every length
    assert path_homology(family("dir_cycle", 4), strong=True) == {0: 1, 1: 1}
    assert path_homology(family("dir_cycle", 3), strong=True) == {0: 1, 1: 1}


def test_kmax_contract():
    with pytest.raises(ValueError):
        path_homology(family("complete", 3))
    # strong works without kmax; with kmax it truncates the same values
    full = path_homology(family("complete", 4), strong=True)
    part = path_homology(family("complete", 4), strong=True, kmax=2)
    assert part == {k: r for k, r in full.items() if k <= 2}


def test_point_and_rings():
    assert path_homology(point(), strong=True) == {0: 1}
    assert path_homology(point(), strong=True, reduced=True) == {}
    K3 = family("complete", 3)
    assert path_homology(K3, strong=True, ring="Fp:3") == path_homology(
        K3, strong=True, ring="Q"
    )
    with pytest.raises(ValueError):
        path_homology(K3, strong=True, ring="Z")


FIELDS = [(None, sympy.QQ), (2, sympy.GF(2)), (3, sympy.GF(3))]


def ring_of(p):
    return "Q" if p is None else f"Fp:{p}"


@pytest.mark.parametrize(
    "ring, domain", [("Q", sympy.QQ), ("Fp:2", sympy.GF(2)), (2, sympy.GF(2)), (3, sympy.GF(3))]
)
def test_omega_basis_takes_a_field_ring(ring, domain):
    # omega_basis reads its ring as path_homology does
    for G in small_graphs():
        for strong in (False, True):
            dims, _ = oracle_omega_dims_and_homology(G, 3, strong, domain)
            for n in range(4):
                assert len(omega_basis(G, n, strong, ring)) == dims[n], (G, strong, n)


def test_omega_basis_refuses_the_integers():
    with pytest.raises(ValueError, match="path homology"):
        omega_basis(family("cycle", 4), 2, ring="Z")


@pytest.mark.parametrize("p, domain", FIELDS, ids=["Q", "F2", "F3"])
def test_homology_matches_oracle_over_each_field(p, domain):
    for G in small_graphs():
        for strong in (False, True):
            for reduced in (False, True):
                _, hom = oracle_omega_dims_and_homology(G, 3, strong, domain, reduced)
                got = path_homology(
                    G, kmax=3, strong=strong, ring=ring_of(p), reduced=reduced
                )
                assert got == hom, (G, strong, reduced, p)


def test_torsion_shows_mod_2_only():
    # arrows run from each face of the six-vertex triangulation of the
    # projective plane to the faces one dimension up; the path homology
    # of this face digraph is the homology of RP^2, whose Z/2 in degree 1
    # shows up over F_2 (in degrees 1 and 2) but not over Q or F_3
    triangles = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    faces = sorted(
        {f for t in triangles for k in (1, 2, 3) for f in itertools.combinations(t, k)}
    )
    index = {f: i for i, f in enumerate(faces)}
    edges = [
        (index[f], index[s])
        for s in faces
        if len(s) > 1
        for f in itertools.combinations(s, len(s) - 1)
    ]
    G = digraph(len(faces), edges)
    assert path_homology(G, kmax=3, ring="Q") == {0: 1}
    assert path_homology(G, kmax=3, ring="Fp:3") == {0: 1}
    assert path_homology(G, kmax=3, ring="Fp:2") == {0: 1, 1: 1, 2: 1}
    assert path_homology(G, strong=True, ring="Fp:2", reduced=True) == {1: 1, 2: 1}


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), st.booleans(), st.sampled_from(FIELDS))
def test_four_rank_formula_matches_oracle_on_random_digraphs(G, strong, field):
    p, domain = field
    kmax = None if strong else 3
    top = G.n - 1 if strong else kmax
    dims, hom = oracle_omega_dims_and_homology(G, top, strong, domain)
    assert path_homology(G, kmax=kmax, strong=strong, ring=ring_of(p)) == hom
    # dim Omega_n = |A_n| - rank stray_n, the identity the formula rests on
    for n in range(top + 2):
        stray = face_sums(_paths(G, n, strong), n, stray_only=True)
        rank = snf_rank(*stray, p)
        want = len(allowed_paths(G, n, strong)) - rank
        assert want == dims[n] == len(omega_basis(G, n, strong, ring_of(p))), (n, p)


def two_matrix_homology(G, kmax, strong, p, reduced):
    """The four-rank formula with full_n and stray_n built and reduced
    separately in every degree, without clearing."""
    top = min(kmax, G.n - 1) if strong else kmax

    def rank(cols, nrows):
        return len(reduce_columns(residues(cols, p), p or "Q")[0])

    return four_rank_homology(_paths(G, top + 1, strong), top, rank, reduced, G.n)


CLEARING_CASES = [
    ("complete", 4, 5),
    ("complete", 5, 4),
    ("dir_cycle", 5, 4),
    ("tournament", 5, 4),
]


@pytest.mark.parametrize("p", [None, 2, 3], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("name, n, kmax", CLEARING_CASES)
def test_one_cleared_reduction_matches_two_matrices(name, n, kmax, p):
    # clearing skips about a sixth of the columns of K_4 and K_5 and half
    # of T_5's; the stray rows of every degree must stay last for the
    # pivot count to split into both ranks
    G = family(name, n)
    for strong in (False, True):
        for reduced in (False, True):
            want = two_matrix_homology(G, kmax, strong, p, reduced)
            got = path_homology(G, kmax, strong, ring_of(p), reduced)
            assert got == want, (strong, reduced)


@settings(max_examples=40, deadline=None)
@given(
    small_digraphs(max_n=6),
    st.booleans(),
    st.sampled_from([None, 2, 3]),
    st.booleans(),
)
def test_one_cleared_reduction_matches_two_matrices_on_random_digraphs(
    G, strong, p, reduced
):
    want = two_matrix_homology(G, 4, strong, p, reduced)
    assert path_homology(G, 4, strong, ring_of(p), reduced) == want


def packed(col):
    """A sparse column mod 2 packed as an int, bit r for row r."""
    return sum(1 << r for r, v in col.items() if v % 2)


@settings(max_examples=40, deadline=None)
@given(small_digraphs(max_n=6), st.booleans())
def test_bitset_reduction_matches_the_dict_reduction_mod_2(G, strong):
    # the face sums of every degree path_homology reduces at kmax 4, top
    # down with the same clearing: clearing reads the lowest rows, so the
    # pivots must agree row by row, and the reduced columns with them
    paths = _paths(G, 5, strong)
    cleared = set()
    for n in range(5, 0, -1):
        lower = paths.get((n - 1, n - 1), ())
        upper = [t for i, t in enumerate(paths.get((n, n), ())) if i not in cleared]
        cols = list(_face_columns(lower, upper, n))
        bits = list(_face_columns(lower, upper, n, packed=True))
        assert bits == [packed(col) for col in cols], n
        want = reduce_columns(cols, 2)[0]
        got = reduce_bitsets(bits)
        assert got == {low: packed(col) for low, (_, col) in want.items()}, n
        cleared = {low for low in got if low < len(lower)}


@pytest.mark.parametrize("p", [None, 2, 3], ids=["Q", "F2", "F3"])
def test_degree_zero_edge_cases_match_the_four_rank_formula(p):
    # degree 0 counts the vertices no edge clears, less the augmentation;
    # small_digraphs never draws the empty digraph
    cases = [digraph(0, ()), point(), family("dir_cycle", 3), family("complete", 3)]
    for G, kmax, strong, reduced in itertools.product(cases, (0, 2), (False, True), (False, True)):
        want = two_matrix_homology(G, kmax, strong, p, reduced)
        assert path_homology(G, kmax, strong, ring_of(p), reduced) == want, (G, kmax)
    for G, reduced in itertools.product(cases[:2], (False, True)):
        want = two_matrix_homology(G, G.n, True, p, reduced)
        assert path_homology(G, strong=True, ring=ring_of(p), reduced=reduced) == want
    assert path_homology(point(), strong=True, ring=ring_of(p)) == {0: 1}
    assert path_homology(digraph(0, ()), kmax=3, ring=ring_of(p)) == {}


@pytest.mark.parametrize("p", [None, 2], ids=["Q", "F2"])
def test_a_cleared_path_is_never_built(monkeypatch, p):
    # a degree-(n+1) pivot whose lowest row is an allowed n-path clears
    # that path: its face sum must never reach the reduction
    G, kmax = family("complete", 4), 4
    paths = _paths(G, kmax + 1, False)  # nothing clears the top degree

    def rank(n, stray_only):
        cols, _ = face_sums(paths, n, stray_only)
        return len(reduce_columns(residues(cols, p), p or "Q")[0])

    want = [
        len(paths[(n, n)]) - rank(n + 1, False) + rank(n + 1, True)
        for n in range(kmax + 1, 0, -1)
    ]
    built = []

    def counting(reduce):
        def wrapped(cols, *args, **kwargs):
            cols = list(cols)
            built.append(len(cols))
            return reduce(cols, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(pathhom, "reduce_bitsets", counting(pathhom.reduce_bitsets))
    monkeypatch.setattr(pathhom, "reduce_columns", counting(pathhom.reduce_columns))
    path_homology(G, kmax, ring=ring_of(p))
    assert built == want
    assert sum(want) < sum(len(paths[(n, n)]) for n in range(1, kmax + 2))
