"""Dense exact linear algebra over the rationals and over prime fields.

Every function takes an optional prime p; with p=None arithmetic happens in
Fraction, otherwise in integers mod p.  Matrices are lists of row lists.
"""

from __future__ import annotations

from fractions import Fraction


class RowReducer:
    """Incremental row echelon accumulator.

    Feeding vectors one at a time keeps span/rank queries cheap; the stored
    rows stay in echelon form with normalized leading entries.
    """

    def __init__(self, p=None):
        self.p = p
        self.rows = []  # echelon rows
        self.lead = []  # leading column per row, strictly increasing

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        p = self.p
        v = list(vec)
        if p is not None:
            v = [x % p for x in v]
        for row, lc in zip(self.rows, self.lead):
            x = v[lc]
            if x:
                if p is None:
                    v = [a - x * b for a, b in zip(v, row)]
                else:
                    v = [(a - x * b) % p for a, b in zip(v, row)]
        return v

    def add(self, vec):
        """Reduce vec against the span; returns True when it adds rank."""
        v = self._reduce(vec)
        for j, x in enumerate(v):
            if x:
                if self.p is None:
                    inv = Fraction(1, 1) / Fraction(x)
                    v = [Fraction(a) * inv for a in v]
                else:
                    inv = pow(x, self.p - 2, self.p)
                    v = [a * inv % self.p for a in v]
                # keep rows sorted by leading column
                at = 0
                while at < len(self.lead) and self.lead[at] < j:
                    at += 1
                self.rows.insert(at, v)
                self.lead.insert(at, j)
                return True
        return False


def rref(rows, ncols, p=None):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    mat = [list(r) for r in rows]
    if p is not None:
        mat = [[x % p for x in r] for r in mat]
    pivots = []
    rr = 0
    for c in range(ncols):
        sel = None
        for i in range(rr, len(mat)):
            if mat[i][c]:
                sel = i
                break
        if sel is None:
            continue
        mat[rr], mat[sel] = mat[sel], mat[rr]
        x = mat[rr][c]
        if p is None:
            mat[rr] = [Fraction(a) / x for a in mat[rr]]
        else:
            inv = pow(x, p - 2, p)
            mat[rr] = [a * inv % p for a in mat[rr]]
        for i in range(len(mat)):
            if i != rr and mat[i][c]:
                f = mat[i][c]
                if p is None:
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[rr])]
                else:
                    mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rr])]
        pivots.append(c)
        rr += 1
        if rr == len(mat):
            break
    return mat[:rr], pivots


def nullspace(rows, ncols, p=None):
    """Basis of {x : A x = 0} as dense vectors of length ncols."""
    if ncols == 0:
        return []
    red, pivots = rref(rows, ncols, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    one = 1 if p is not None else Fraction(1)
    for fc in free:
        v = [0] * ncols
        v[fc] = one
        for r, pc in zip(red, pivots):
            coeff = r[fc]
            if coeff:
                v[pc] = (-coeff) % p if p is not None else -coeff
        basis.append(v)
    return basis

