"""The sparse column reduction R = D V against sympy, the Smith ranks, and
the two reductions it replaced."""

from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from test_chains import boundary, combine
from test_snf import as_columns, domain_rank, int_matrices, residues, small_digraphs, snf_rank

from maghom.chains import trail_complex
from maghom.matrices import _dense_snf, reduce_columns

FIELDS = st.sampled_from([None, 2, 3])


def check_reduction(mat, nrows, p):
    """Check the reduction of the integer matrix with nrows rows and the
    sparse columns mat, taken mod p, and the kernel that the V-recording
    reference reads off the same reduction; each reduction gets copies."""
    pivots, _ = reduce_columns(residues(mat, p), p or "Q")
    ref_pivots, kernel = ref_reduce_columns(residues(mat, p), p, record=True)
    cols = residues(mat, p)
    domain = sympy.GF(p) if p else sympy.QQ
    rank = domain_rank(mat, nrows, domain) if nrows and mat else 0
    assert len(pivots) == rank == snf_rank(mat, nrows, p)
    assert len(kernel) == len(mat) - rank
    # kernel vectors are annihilated, and distinct lowest entries make
    # them independent
    for z in kernel:
        assert combine(cols, z, p or "Q") == {}
    assert len({max(z) for z in kernel}) == len(kernel)
    # the pivots end on the reference's rows, and every reduced column of
    # the reference is D times its column of V
    for low, (_, col) in pivots.items():
        assert max(col) == low
    assert ref_pivots.keys() == pivots.keys()
    for col, ops in ref_pivots.values():
        assert combine(cols, ops, p or "Q") == col


@settings(max_examples=80, deadline=None)
@given(int_matrices(), FIELDS)
def test_reduction_of_integer_matrices(rows, p):
    check_reduction(as_columns(rows), len(rows), p)


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), FIELDS)
def test_reduction_of_eulerian_boundaries(G, p):
    complex_ = trail_complex(G, "eulerian")
    for k, l in complex_.graded_counts():
        check_reduction(boundary(complex_, k, l), complex_.dim(k - 1, l), p)


@st.composite
def small_int_columns(draw):
    """Sparse columns of a small integer matrix with entries in -3..3,
    so that over F_2 and F_3 some nonzero entries are 0 mod p."""
    nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    row = st.lists(st.integers(-3, 3), min_size=nc, max_size=nc)
    return as_columns(draw(st.lists(row, min_size=nr, max_size=nr)))


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=100, deadline=None)
@given(mat=small_int_columns())
def test_reduction_over_a_prime_field_reads_entries_mod_p(mat, p, record):
    # the face sums write +-1 whatever the ring, so over F_p the reduction
    # must give on integer columns what it gives on their residues
    pivots, divisors = reduce_columns(residues(mat, p), p)
    raw_pivots, raw_divisors = reduce_columns(residues(mat, None), p)
    assert {low: j for low, (j, _) in raw_pivots.items()} == {
        low: j for low, (j, _) in pivots.items()
    }
    assert raw_divisors == divisors
    # a reduced column may keep an input entry that no step touched
    assert {low: residues([col], p)[0] for low, (_, col) in raw_pivots.items()} == {
        low: col for low, (_, col) in pivots.items()
    }
    if record:
        # the kernel the V-recording reference reads off the residues is
        # that of the integer columns mod p, one vector per non-pivot
        _, kernel = ref_reduce_columns(residues(mat, p), p, record=True)
        assert len(kernel) == len(mat) - len(raw_pivots)
        assert all(combine(mat, z, p) == {} for z in kernel)


def test_the_ring_is_parsed_before_the_reduction():
    # "Fp:2" works mod 2 as 2 does, and a name that is not a ring is refused
    cols = [{0: 2}]
    pivots, divisors = reduce_columns(cols, "Fp:2")
    assert pivots == {} and cols == [{}] and divisors == ()
    assert combine([{0: 1}], {0: 3}, "Fp:2") == {0: 1}
    with pytest.raises(ValueError):
        reduce_columns([{0: 1}], "F2")
    with pytest.raises(ValueError):
        combine([{0: 1}], {0: 1}, "F2")


# References: the two reductions ``reduce_columns`` merged, as they were
# before, with one ring convention each: ``ref_reduce_columns`` took a
# modulus or None for Q and recorded V, ``ref_pivot_pairs`` took "Z", "Q"
# or p and returned pairs {lowest row: column} and Smith divisors.
# ``reduce_columns`` records no V, so ``ref_reduce_columns(..., record=True)``
# is the V-recording reduction that the tests of kernels and cycle bases
# read.


def ref_subtract(col, a, c, piv, p):
    if a != 1:
        for i in col:
            col[i] *= a
    for i, v in piv.items():
        x = col.get(i, 0) - c * v
        if p:
            x %= p
        if x:
            col[i] = x
        else:
            del col[i]


def ref_eliminate(col, pivots, p=None, ops=None):
    while col:
        low = max(col)
        if low not in pivots:
            break
        piv, piv_ops = pivots[low]
        if p:
            a, c = 1, col[low] * pow(piv[low], -1, p)
        else:
            g = gcd(piv[low], col[low])
            a, c = piv[low] // g, col[low] // g
        ref_subtract(col, a, c, piv, p)
        if ops is not None:
            ref_subtract(ops, a, c, piv_ops, p)
    return col


def ref_reduce_column(col, pivots, p=None, ops=None):
    ref_eliminate(col, pivots, p, ops)
    if not p:
        g = gcd(*col.values(), *(ops or {}).values())
        if g > 1:
            col = {i: v // g for i, v in col.items()}
            if ops:
                ops = {i: v // g for i, v in ops.items()}
    return col, ops


def ref_reduce_columns(cols, p=None, skip=(), record=False):
    pivots, kernel = {}, []
    for j, col in enumerate(cols):
        if j in skip:
            continue
        col, ops = ref_reduce_column(col, pivots, p, {j: 1} if record else None)
        if col:
            pivots[max(col)] = (col, ops)
        else:
            kernel.append(ops)
    return pivots, kernel


def ref_pivot_pairs(cols, ring, skip=()):
    p = ring if isinstance(ring, int) else None
    integral = ring == "Z"
    pivots, pairs, aside = {}, {}, []
    for j, col in enumerate(cols):
        if j in skip or not col:
            continue
        if integral:
            ref_eliminate(col, pivots)
        else:
            col, _ = ref_reduce_column(col, pivots, p)
        if not col:
            continue
        low = max(col)
        if integral and col[low] not in (1, -1):
            aside.append(col)
            continue
        pivots[low] = (col, None)
        pairs[low] = j
    divisors = (1,) * len(pairs)
    if aside:
        divisors += ref_residue_divisors(aside, pivots)
    return pairs, divisors


def ref_residue_divisors(aside, pivots):
    residue = []
    for col in aside:
        while hits := [i for i in col if i in pivots]:
            low = max(hits)
            piv = pivots[low][0]
            ref_subtract(col, 1, col[low] * piv[low], piv, None)
        if col:
            residue.append(col)
    rows = sorted({i for col in residue for i in col})
    return tuple(_dense_snf([[col.get(i, 0) for col in residue] for i in rows]))


@st.composite
def sparse_int_matrices(draw):
    """(columns, skip): sparse integer columns, mostly zero and +-1, with
    a planted entry that is not a unit, and a random set of skipped
    column indices."""
    nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -3])
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    i, j = draw(st.integers(0, nr - 1)), draw(st.integers(0, nc - 1))
    rows[i][j] = draw(st.sampled_from([2, -2, 3, 4, -6]))
    skip = draw(st.sets(st.integers(0, nc - 1), max_size=nc // 2))
    return as_columns(rows), skip


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("ring", ["Z", "Q", 2, 3])
@settings(max_examples=100, deadline=None)
@given(matrix=sparse_int_matrices())
def test_reduction_matches_the_two_it_replaced(matrix, ring, record):
    mat, skip = matrix
    p = ring if isinstance(ring, int) else None
    pivots, divisors = reduce_columns(residues(mat, p), ring, skip)
    ref_cols = residues(mat, p)
    pairs, ref_divisors = ref_pivot_pairs(ref_cols, ring, skip)
    assert {low: j for low, (j, _) in pivots.items()} == pairs
    assert divisors == ref_divisors
    if ring == "Z":
        # the reference reduces its pivot columns in place, to the same
        # columns
        assert {low: col for low, (_, col) in pivots.items()} == {
            low: ref_cols[j] for low, j in pairs.items()
        }
    else:
        ref_pivots = ref_reduce_columns(residues(mat, p), p, skip)[0]
        assert {low: col for low, (_, col) in pivots.items()} == {
            low: col for low, (col, _) in ref_pivots.items()
        }
    if record:
        # reduce_columns records no V; the V-recording reference, over Q in
        # place of Z, has one kernel vector per column that is neither
        # skipped nor counted by a divisor, and R = D V
        field = ring if p else "Q"
        cols = residues(mat, p)
        v_pivots, kernel = ref_reduce_columns(residues(mat, p), p, skip, record=True)
        assert len(kernel) == len(mat) - len(skip) - len(divisors)
        for col, ops in v_pivots.values():
            assert combine(cols, ops, field) == col
        for z in kernel:
            assert combine(cols, z, field) == {}
        assert len({max(z) for z in kernel}) == len(kernel)
