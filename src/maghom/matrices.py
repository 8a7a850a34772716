"""Minimal sparse integer matrices for boundary operators."""

from __future__ import annotations


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

    def is_zero(self):
        return not self.entries

    def add_at(self, r, c, v):
        if not v:
            return
        key = (r, c)
        nv = self.entries.get(key, 0) + v
        if nv:
            self.entries[key] = nv
        else:
            self.entries.pop(key, None)

    def to_rows(self):
        """Dense list-of-lists copy."""
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def to_columns(self):
        cols = [[0] * self.nrows for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out = SparseMatrix(self.nrows, other.ncols)
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                out.add_at(r, c, v * w)
        return out

    def apply(self, vec):
        """Matrix times a dense coefficient vector (length ncols)."""
        out = [0] * self.nrows
        for (r, c), v in self.entries.items():
            x = vec[c]
            if x:
                out[r] += v * x
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"
