"""Smith divisors of ``matrices.reduce_columns`` over Z against sympy's
Smith normal form.

The helpers apply it to whole matrices as given, untransposed and with
no column cleared, so they reduce different matrices from the ones the
coboundary pass of ``homology.chain_homology`` reduces."""

import random

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix

from maghom.chains import trail_complex
from maghom.graphs import digraph
from maghom.matrices import _dense_snf, reduce_columns
from test_chains import boundary, dense


def oracle_divisors(rows):
    """Nonzero Smith divisors of a dense integer matrix, via sympy."""
    m = sympy.Matrix(rows)
    if m.rows == 0 or m.cols == 0:
        return ()
    s = sympy_snf(m)
    divs = [abs(s[i, i]) for i in range(min(s.rows, s.cols)) if s[i, i] != 0]
    return tuple(sorted(divs))


def as_columns(rows):
    """Sparse columns {row: value} of a dense list of rows."""
    ncols = len(rows[0]) if rows else 0
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def residues(cols, p):
    """New copies of integer columns, entries mod p when p is set."""
    if not p:
        return [dict(col) for col in cols]
    return [{i: v % p for i, v in col.items() if v % p} for col in cols]


def smith_divisors(cols, nrows):
    """Nonzero Smith divisors of the integer matrix with nrows rows and
    these sparse columns, in divisibility order.

    The reduction changes its columns in place, so it gets copies; the
    caller may read cols again.
    """
    assert all(0 <= i < nrows for col in cols for i in col)
    return reduce_columns(residues(cols, None), "Z")[1]


def snf(rows):
    """(Smith divisors, rank) of a dense list of rows."""
    divisors = smith_divisors(as_columns(rows), len(rows))
    return divisors, len(divisors)


def snf_rank(cols, nrows, p=None):
    """Rank over Q, or over F_p, of an integer matrix given as sparse
    columns, read off its Smith divisors.

    Over F_p the rank is the number of divisors p does not divide.
    """
    return sum(1 for d in smith_divisors(cols, nrows) if p is None or d % p)


def test_fixed_cases():
    divs, rank = snf([[1, 0], [0, 1]])
    assert divs == (1, 1) and rank == 2

    divs, rank = snf([[2, 0], [0, 0]])
    assert divs == (2,) and rank == 1

    divs, rank = snf([[1, 1], [1, 1]])
    assert divs == (1,) and rank == 1

    # 2x2 with determinant 4: one unit, one even divisor
    divs, rank = snf([[2, 1], [0, 2]])
    assert divs == (1, 4) and rank == 2

    # the second column ends on 2 and is set aside; the first column's
    # unit pivot row must be cleared from it, or the 2 is lost
    divs, rank = snf([[1, 1], [0, 2]])
    assert divs == (1, 2) and rank == 2


def test_empty_and_zero():
    assert snf([]) == ((), 0)
    assert snf([[0, 0], [0, 0]]) == ((), 0)


def test_torsion_example():
    # boundary of the 2-cell in RP^2 glued twice along the 1-skeleton
    divs, rank = snf([[2]])
    assert divs == (2,) and rank == 1


def test_against_sympy_random():
    rng = random.Random(90125)
    for _ in range(60):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        divs, rank = snf(rows)
        want = oracle_divisors(rows)
        assert tuple(sorted(divs)) == want, (rows, divs, want)
        assert rank == len(want)


def test_divisor_chain_order():
    # divisors must come out in divisibility order, not just as a multiset
    rng = random.Random(2112)
    for _ in range(30):
        rows = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(5)]
        divs, _ = snf(rows)
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0, divs


def test_sparse_matrix_input():
    # the zero row and column hold no entries of the sparse matrix
    rows = [[0, 3, 0], [6, 0, 0], [0, 0, 0]]
    assert snf(rows) == (oracle_divisors(rows), 2)


def test_rank_z_matches_snf():
    rng = random.Random(777)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        _, rank = snf(rows)
        assert snf_rank(as_columns(rows), len(rows)) == rank == sympy.Matrix(rows).rank()


def test_rank_mod_p():
    # rank drops mod 2 but not mod 3
    cols = as_columns([[2, 0], [0, 1]])
    assert snf_rank(cols, 2) == 2
    assert snf_rank(cols, 2, 2) == 1
    assert snf_rank(cols, 2, 3) == 2


def test_rank_mod_p_against_sympy():
    rng = random.Random(1999)
    for p in (2, 3, 5):
        gf = sympy.GF(p)
        for _ in range(15):
            rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
            dm = sympy.polys.matrices.DomainMatrix(
                [[gf(v) for v in row] for row in rows], (4, 4), gf
            )
            assert snf_rank(as_columns(rows), len(rows), p) == dm.rank()


@st.composite
def int_matrices(draw):
    """Small dense integer matrices with at least one non-unit entry.

    The non-units leave work for the dense residue after the unit pivots.
    """
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 6))
    row = st.lists(st.integers(-9, 9), min_size=nc, max_size=nc)
    rows = draw(st.lists(row, min_size=nr, max_size=nr))
    i, j = draw(st.integers(0, nr - 1)), draw(st.integers(0, nc - 1))
    rows[i][j] = draw(st.sampled_from([2, -2, 3, -4, 6, 9]))
    return rows


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_snf_matches_sympy_property(rows):
    divs, rank = snf(rows)
    assert divs == oracle_divisors(rows)
    assert rank == len(divs)


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_dense_snf_returns_a_divisor_chain(rows):
    # reduce_columns relies on this: it puts its unit pivots in front of the
    # dense divisors and returns them as they come
    divs = _dense_snf(rows)
    assert all(d > 0 for d in divs)
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0, divs
    assert tuple(divs) == oracle_divisors(rows)


@st.composite
def planted_matrices(draw):
    """(rows, divisors): U * diag(divisors, 0, ...) * V for unimodular U and
    V, each a short product of sparse elementary operations, and a planted
    divisor chain whose last entry is not a unit."""
    nr, nc = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    steps = draw(st.lists(st.sampled_from([1, 1, 2, 3]), max_size=min(nr, nc) - 1))
    steps.append(draw(st.sampled_from([2, 3])))
    divisors = []
    for step in steps:
        divisors.append(step * (divisors[-1] if divisors else 1))
    rows = [[0] * nc for _ in range(nr)]
    for i, d in enumerate(divisors):
        rows[i][i] = d
    op = st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 7), st.sampled_from([1, -1, 2, -3]))
    for on_rows, a, b, c in draw(st.lists(op, max_size=3 * (nr + nc))):
        n = nr if on_rows else nc
        a, b = a % n, b % n
        if a == b:
            continue
        # add c times line a to line b, an elementary unimodular operation
        if on_rows:
            rows[b] = [x + c * y for x, y in zip(rows[b], rows[a])]
        else:
            for row in rows:
                row[b] += c * row[a]
    return rows, tuple(divisors)


@settings(max_examples=100, deadline=None)
@given(planted_matrices())
def test_planted_divisors_match_sympy(planted):
    rows, divisors = planted
    assert smith_divisors(as_columns(rows), len(rows)) == oracle_divisors(rows) == divisors


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_snf_invariant_under_row_and_column_permutations(data):
    rows = data.draw(int_matrices())
    rperm = data.draw(st.permutations(range(len(rows))))
    cperm = data.draw(st.permutations(range(len(rows[0]))))
    permuted = [[rows[i][j] for j in cperm] for i in rperm]
    assert snf(permuted) == snf(rows)


@st.composite
def small_digraphs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return digraph(n, [e for e, kept in zip(pairs, keep) if kept])


def domain_rank(cols, nrows, domain):
    """Rank over a sympy domain (QQ or a finite field) of the matrix with
    nrows rows and these sparse columns."""
    rows = [[domain(v) for v in row] for row in dense(cols, nrows)]
    return DomainMatrix(rows, (nrows, len(cols)), domain).rank()


@settings(max_examples=60, deadline=None)
@given(
    small_digraphs(),
    st.sampled_from(["eulerian", "ordinary"]),
    st.sampled_from([2, 3, 5]),
)
def test_boundary_ranks_match_sympy(G, kind, p):
    complex_ = trail_complex(G, kind, None if kind == "eulerian" else 3)
    for k, l in complex_.graded_counts():
        cols, nrows = boundary(complex_, k, l), complex_.dim(k - 1, l)
        if not (nrows and cols):
            continue
        assert snf_rank(cols, nrows) == domain_rank(cols, nrows, sympy.QQ), (k, l)
        assert snf_rank(cols, nrows, p) == domain_rank(cols, nrows, sympy.GF(p)), (k, l, p)
