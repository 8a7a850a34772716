"""Smith normal form over the integers.

``homology.chain_homology`` calls it only for a degree whose coboundary
reduction fails the unit-pivot certificate, which is where torsion can
live; every other rank comes from ``matrices.reduce_column``.

The pipeline is a sparse elimination pass that consumes +-1 pivots first
(boundary matrices almost always reduce completely there), followed by a
dense minimal-magnitude-pivot Smith reduction of whatever small residue is
left.  The unit pivots are taken from a lazy min-heap ordered by Markowitz
cost, which keeps fill-in down without rescanning every unit per pivot.
The Smith form is unique, so the pivot order changes the work done but
never the divisors.  Arithmetic is plain Python int, so there is no
overflow to manage.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def _dense_snf(rows):
    """Diagonal of the Smith form of a small dense integer matrix."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    t = 0
    while True:
        # locate a minimal-magnitude nonzero pivot in the active block
        pos = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pos = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pos is None:
            break
        i, j = pos
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            # shrink the pivot until it divides its row and column
            changed = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                        changed = True
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        changed = True
            col_clear = all(a[i][t] == 0 for i in range(t + 1, m))
            row_entry = None
            for j in range(t + 1, n):
                if a[t][j]:
                    row_entry = j
                    break
            if col_clear and row_entry is not None:
                q = a[t][row_entry] // a[t][t]
                for row in a:
                    row[row_entry] -= q * row[t]
                if a[t][row_entry]:
                    for row in a:
                        row[t], row[row_entry] = row[row_entry], row[t]
                changed = True
            if col_clear and row_entry is None and not changed:
                break
        # make sure the pivot divides the rest of the block
        piv = a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        diag.append(abs(piv))
        t += 1
        if t == m or t == n:
            break
    return diag


def smith_normal_form(matrix):
    """(divisors, rank) of a SparseMatrix; divisors are its nonzero Smith diagonal."""
    rows = {}
    cols = {}
    for (r, c), v in matrix.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

    def cost(r, c):
        # Markowitz cost: the fill-in a pivot at (r, c) can cause at most
        return (len(rows[r]) - 1) * (len(cols[c]) - 1)

    # Every live unit has at least one heap entry; an entry's cost may be
    # stale.  A stale overestimate only costs fill-in, an underestimate is
    # pushed back on pop, and dead entries are skipped.
    heap = [
        (cost(r, c), r, c)
        for r, row in rows.items()
        for c, v in row.items()
        if v in (1, -1)
    ]
    heapify(heap)
    ones = 0
    while heap:
        stored, r, c = heappop(heap)
        piv = rows.get(r, {}).get(c)
        if piv not in (1, -1):
            continue
        now = cost(r, c)
        if now > stored:
            heappush(heap, (now, r, c))
            continue
        piv_items = list(rows[r].items())
        for r2 in list(cols[c]):
            if r2 == r:
                continue
            f = rows[r2][c] * piv  # piv is +-1 so this is the exact multiplier
            row2 = rows[r2]
            new_units = []
            for c2, v in piv_items:
                old = row2.get(c2, 0)
                nv = old - f * v
                if nv:
                    if not old:
                        cols[c2].add(r2)
                    row2[c2] = nv
                    if nv in (1, -1) and old not in (1, -1):
                        new_units.append(c2)
                else:
                    del row2[c2]
                    cols[c2].discard(r2)
            for c2 in new_units:
                heappush(heap, (cost(r2, c2), r2, c2))
            if not row2:
                del rows[r2]
        # pivot row and column are now spent
        for c2 in rows[r]:
            cols[c2].discard(r)
        del rows[r]
        ones += 1

    live_rows = sorted(rows)
    live_cols = sorted({c for row in rows.values() for c in row})
    cindex = {c: j for j, c in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for i, r in enumerate(live_rows):
        for c, v in rows[r].items():
            dense[i][cindex[c]] = v
    # units divide everything, and the dense residue's divisors form a chain
    divisors = (1,) * ones + tuple(_dense_snf(dense))
    return divisors, len(divisors)

