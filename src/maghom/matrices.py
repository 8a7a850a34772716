"""Sparse integer matrices for boundary operators, and the column
reduction that every rank, basis and coordinate comes from.

``reduce_column`` is the standard persistence reduction R = D V
(Edelsbrunner & Harer, *Computational Topology*, 2010, ch. VII): the
lowest entry of a column is cleared against earlier columns with the
same lowest row.  Over Q it is fraction-free in integers, over F_p in
integers mod p.  Recording V makes each column that reduces to zero a
kernel vector, with its own index as lowest entry.  ``eliminate`` is
the clearing loop alone, before any content is divided out, so an
integer pivot's lowest entry can be read as it came.
"""

from __future__ import annotations

from math import gcd


class SparseMatrix:
    """Integer matrix stored as {(row, col): value}, zero entries absent."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    if not (0 <= r < nrows and 0 <= c < ncols):
                        raise ValueError(f"entry ({r}, {c}) out of shape")
                    self.entries[(r, c)] = v

    @property
    def nnz(self):
        return len(self.entries)

    def add_at(self, r, c, v):
        if not v:
            return
        key = (r, c)
        nv = self.entries.get(key, 0) + v
        if nv:
            self.entries[key] = nv
        else:
            self.entries.pop(key, None)

    def columns(self, p=None):
        """Sparse columns as {row: value} dicts, entries mod p when p is set."""
        cols = [{} for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            if p:
                v %= p
            if v:
                cols[c][r] = v
        return cols

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def combine(cols, vec, p=None):
    """The sparse column sum of cols[j] * vec[j], zeros dropped."""
    out = {}
    for j, x in vec.items():
        for i, v in cols[j].items():
            out[i] = out.get(i, 0) + x * v
    if p:
        out = {i: v % p for i, v in out.items()}
    return {i: v for i, v in out.items() if v}


def _subtract(col, a, c, piv, p):
    """col <- a * col - c * piv in place, zeros dropped."""
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


def eliminate(col, pivots, p=None, ops=None):
    """Clear the lowest entry of col against pivots while one matches.

    col maps rows to nonzero entries (in range(p) mod p) and is changed
    in place; pivots maps a lowest row to a reduced (column, ops) pair.
    ops, when given, is col's column of V, {input column: coefficient},
    and undergoes the same operations.  Over Q the step
    col <- a * col - c * piv keeps the entries integral; while every
    pivot's lowest entry is +-1, a is +-1 and each step is an integer
    column operation.  Returns col.
    """
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
        _subtract(col, a, c, piv, p)
        if ops is not None:
            _subtract(ops, a, c, piv_ops, p)
    return col


def reduce_column(col, pivots, p=None, ops=None):
    """``eliminate``, then over Q the content common to col and ops is
    divided out.  Returns (col, ops)."""
    eliminate(col, pivots, p, ops)
    if not p:
        g = gcd(*col.values(), *(ops or {}).values())
        if g > 1:
            col = {i: v // g for i, v in col.items()}
            if ops:
                ops = {i: v // g for i, v in ops.items()}
    return col, ops


def reduce_columns(cols, p=None, skip=(), record=False):
    """Reduce the columns of D left to right; returns (pivots, kernel).

    pivots maps the lowest row of each nonzero reduced column to its
    (column, ops) pair; kernel lists, in column order, the V columns of
    the columns that reduced to zero (with record; None otherwise).  A
    column whose index is in skip is left out.  With skip the lowest rows
    of the reduced boundary one degree up, this is clearing: those
    columns are cycles, and kernel holds the remaining ones.
    """
    pivots, kernel = {}, []
    for j, col in enumerate(cols):
        if j in skip:
            continue
        col, ops = reduce_column(col, pivots, p, {j: 1} if record else None)
        if col:
            pivots[max(col)] = (col, ops)
        else:
            kernel.append(ops)
    return pivots, kernel
