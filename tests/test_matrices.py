"""The sparse column reduction R = D V against sympy and the Smith ranks."""

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from test_snf import as_columns, domain_rank, int_matrices, residues, small_digraphs, snf_rank

from maghom.chains import trail_complex
from maghom.matrices import combine, reduce_columns

FIELDS = st.sampled_from([None, 2, 3])


def check_reduction(mat, nrows, p):
    """Check the reduction of the integer matrix with nrows rows and the
    sparse columns mat, taken mod p; mat may be a cached boundary, so
    the reduction gets copies."""
    pivots, kernel = reduce_columns(residues(mat, p), p, record=True)
    cols = residues(mat, p)
    domain = sympy.GF(p) if p else sympy.QQ
    rank = domain_rank(mat, nrows, domain) if nrows and mat else 0
    assert len(pivots) == rank == snf_rank(mat, nrows, p)
    assert len(kernel) == len(mat) - rank
    # kernel vectors are annihilated, and distinct lowest entries make
    # them independent
    for z in kernel:
        assert combine(cols, z, p) == {}
    assert len({max(z) for z in kernel}) == len(kernel)
    # every reduced column is D times its column of V
    for low, (col, ops) in pivots.items():
        assert max(col) == low
        assert combine(cols, ops, p) == col


@settings(max_examples=80, deadline=None)
@given(int_matrices(), FIELDS)
def test_reduction_of_integer_matrices(rows, p):
    check_reduction(as_columns(rows), len(rows), p)


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), FIELDS)
def test_reduction_of_eulerian_boundaries(G, p):
    complex_ = trail_complex(G, "eulerian")
    for k, l in complex_.graded_counts():
        check_reduction(complex_.boundary(k, l), complex_.dim(k - 1, l), p)
