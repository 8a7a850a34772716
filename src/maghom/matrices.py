"""The column reduction that every rank, basis, persistence pair and
Smith divisor comes from.

A matrix is a list of sparse columns {row: coeff}, zero entries absent,
as ``chains.FilteredComplex.coboundary`` builds them; the reductions
here change the columns they are given in place.
``reduce_columns`` takes a ring as ``parse_ring`` reads it, "Z", "Q",
"Fp:<p>" or a prime p, and works with it as "Z", "Q" or p.
The face sums write +-1 whatever the ring, and this is the one module
that works mod p: over F_p it reads integer entries mod p and writes
them in range(p).

``reduce_columns`` is the standard persistence reduction R = D V
(Edelsbrunner & Harer, *Computational Topology*, 2010, ch. VII), left
to right: ``reduce_column`` clears the lowest entry of a column against
earlier columns with the same lowest row.  Over Q and Z it is
fraction-free in integers, over F_p in integers mod p.  V is not
kept: ``pathhom.omega_basis`` reads it off identity rows set below D.
The pivots give the persistence pairs, and the Smith divisors of the
matrix come with them.  Over Z only pivots with lowest entry +-1 are
taken, so every step is a unimodular column operation; the columns
that end on another entry are left to a dense least-magnitude-pivot
Smith reduction, ``_dense_snf``, once the unit pivots' rows are
cleared from them.  Arithmetic is plain Python int, so
there is no overflow to manage.

``reduce_bitsets`` is the same left-to-right reduction over F_2 on
columns packed as ints by ``bitset``, bit r for row r: an addition is one
XOR and the lowest row the top bit.  It returns the pivots only, which
is all path homology over F_2 reads; it uses the bitsets since its face
sums fill in.  The coboundary passes keep dict columns over F_2 as
well: their columns need one or two additions each, so packing a wide
column costs more than its XORs save.  Packing every coboundary column
made ``rmpss_report`` of C_8 over F_2 take 1.15 s instead of 0.85 s
(2-core VM).
"""

from __future__ import annotations

from math import gcd


def parse_ring(ring):
    """Turn a ring (Z, Q, Fp:<p>, or a prime p) into the internal form."""
    if ring in ("Z", "Q"):
        return ring
    if isinstance(ring, str) and ring.startswith("Fp:") and ring[3:].isdigit():
        ring = int(ring[3:])
    if isinstance(ring, int):
        if ring < 2 or any(ring % d == 0 for d in range(2, int(ring**0.5) + 1)):
            raise ValueError(f"modulus must be prime, got {ring}")
        return ring
    raise ValueError(f"unknown ring {ring!r}; expected Z, Q, or Fp:<p>")


def _subtract(col, a, c, piv):
    """col <- a * col - c * piv in place, zeros dropped."""
    if a != 1:
        for i in col:
            col[i] *= a
    for i, v in piv.items():
        x = col.get(i, 0) - c * v
        if x:
            col[i] = x
        else:
            del col[i]


def _subtract_mod(col, c, piv, p):
    """col <- col - c * piv mod p in place, zeros dropped."""
    for i, v in piv.items():
        if x := (col.get(i, 0) - c * v) % p:
            col[i] = x
        else:
            col.pop(i, None)  # input entries 0 mod p make zeros col lacks


def reduce_column(col, pivots, ring):
    """Clear the lowest entry of col against pivots while one matches;
    returns the lowest row left, or None once col is zero.

    col maps rows to nonzero integers and is changed in place; over F_p a
    lowest entry that is 0 mod p is dropped.  pivots maps a lowest row to
    a (column index, reduced column) pair.  Over Z and Q the step
    col <- a * col - c * piv keeps the entries integral; while every
    pivot's lowest entry is +-1, a is +-1 and each step is an integer
    column operation.  Over Q the content of col is then divided out, in
    place.  Over F_p the step is col <- col - c * piv mod p.
    """
    p = ring if isinstance(ring, int) else None
    while col:
        low = max(col)
        if low not in pivots:
            if p and not col[low] % p:  # an input entry 0 mod p
                del col[low]
                continue
            break
        piv = pivots[low][1]
        if p:
            _subtract_mod(col, col[low] * pow(piv[low], -1, p), piv, p)
            continue
        g = gcd(piv[low], col[low])
        _subtract(col, piv[low] // g, col[low] // g, piv)
    else:
        low = None
    if ring == "Q":
        g = gcd(*col.values())
        if g > 1:
            for i in col:
                col[i] //= g
    return low


def reduce_columns(cols, ring, skip=()):
    """Reduce the columns of D left to right; returns (pivots, divisors).

    pivots maps the lowest row of each pivot to its (column index,
    reduced column) pair; every other column reduced to zero.  A column
    whose index is in skip is left out.  With skip the lowest rows of the
    reduction one degree away, this is clearing: those columns are
    boundaries or cycles already.  divisors are the nonzero Smith
    divisors of D (of D without the skipped columns), in divisibility
    order; over a field, one 1 per pivot.

    Over Z a column that reduces to a lowest entry other than +-1 is set
    aside and is not a pivot.  The pivots have no entry below their
    lowest rows, so clearing each set-aside column's entries in pivot
    rows, highest row first, is a sequence of unimodular column
    operations.  Restricted to their rows the pivots are then triangular
    with a +-1 diagonal, and row operations on those rows, which the
    set-aside columns no longer meet, split them off.  The divisors are
    one 1 per pivot followed by those of the set-aside columns.
    """
    ring = parse_ring(ring)
    integral = ring == "Z"
    pivots, aside = {}, []
    for j, col in enumerate(cols):
        if j in skip or not col:
            continue
        low = reduce_column(col, pivots, ring)
        if low is None:
            continue
        if integral and col[low] not in (1, -1):
            aside.append(col)
        else:
            pivots[low] = (j, col)
    divisors = (1,) * len(pivots)
    if aside:
        divisors += _residue_divisors(aside, pivots)
    return pivots, divisors


def bitset(rows):
    """Distinct rows packed as an int, bit r set for row r: a column over
    F_2 in the form ``reduce_bitsets`` reads."""
    x = 0
    for r in rows:
        x |= 1 << r  # not sum(): on big ints | costs a sixth of +
    return x


def reduce_bitsets(cols):
    """Reduce columns over F_2 left to right, each packed as an int with
    bit r set for row r (see ``bitset``); returns {lowest row: reduced
    column}.  Every other column reduced to zero.

    A column addition is one XOR and the lowest row is the top bit, so a
    column that fills in costs a big-integer operation per addition, not
    a dict update per entry.  Ints are immutable, so unlike
    ``reduce_columns`` this leaves cols as they were.
    """
    pivots = {}
    for x in cols:
        while x:
            low = x.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = x
                break
            x ^= piv
    return pivots


def _residue_divisors(aside, pivots):
    """Smith divisors of the set-aside integer columns, ascending, once
    every entry in a row of the +-1 pivots is cleared from them."""
    residue = []
    for col in aside:
        while hits := [i for i in col if i in pivots]:
            low = max(hits)
            piv = pivots[low][1]
            _subtract(col, 1, col[low] * piv[low], piv)
        if col:
            residue.append(col)
    rows = sorted({i for col in residue for i in col})
    return tuple(_dense_snf([[col.get(i, 0) for col in residue] for i in rows]))


def _dense_snf(rows):
    """Nonzero diagonal of the Smith form of a small dense integer matrix,
    in divisibility order.

    The entry of least magnitude is moved to the corner and divides its
    row and column out; a remainder is a smaller entry and starts the
    step again.  Once the corner is alone in its row and column, a row
    with an entry it does not divide is added to the first row, which
    leaves a remainder too.  Otherwise the corner divides the rest, so it
    is the next divisor and the rest is reduced on its own.
    """
    a = [list(row) for row in rows]
    diag = []
    while a and a[0]:
        entries = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not entries:
            break
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        piv = a[0][0]
        for row in a[1:]:
            if q := row[0] // piv:
                row[:] = [x - q * y for x, y in zip(row, a[0])]
        for j in range(1, len(a[0])):
            if q := a[0][j] // piv:
                for row in a:
                    row[j] -= q * row[0]
        if any(row[0] for row in a[1:]) or any(a[0][1:]):
            continue
        bad = next((row for row in a[1:] if any(x % piv for x in row[1:])), None)
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], bad)]
            continue
        diag.append(abs(piv))
        a = [row[1:] for row in a[1:]]
    return diag
