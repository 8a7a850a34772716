"""Path homology of digraphs over a field.

Chains live on allowed paths (tuples whose consecutive pairs are edges):
the walks along edges that ``chains.walks`` enumerates from each
vertex, each step of weight 1, so the n-paths are the bucket (n, n).
The differential is the full alternating face sum on raw vertex tuples,
endpoints included and with no quotient by degenerate tuples, so a face
deleting an interior vertex may leave the allowed span.  The chain
groups are the largest subspaces the differential does not lead astray:

    Omega_n = { x in span(A_n) : d(x) in span(A_{n-1}) }

(Grigor'yan, Lin, Muranov and Yau, *Homologies of path complexes and
digraphs*, 2012).  The strong variant restricts to allowed paths with
pairwise distinct vertices and asks the boundary to stay on those.

No basis of Omega_n is needed for the ranks.  Let full_n be the face
sum from A_n into every (n-1)-tuple it hits, and stray_n its rows on
tuples outside A_{n-1}.  Then Omega_n = ker stray_n, and since ker full_n
lies inside ker stray_n, the differential restricted to Omega_n has rank
rank full_n - rank stray_n.  Substituting into
rank H_n = dim Omega_n - rank d_n - rank d_{n+1} gives

    rank H_n = |A_n| - rank full_n - rank full_{n+1} + rank stray_{n+1},

with the augmentation (rank 1 on a nonempty vertex set) in place of
full_0 for reduced homology.  One sparse column reduction of full_n
(``matrices.reduce_columns``, exact over Q and mod p, on the same +-1
face columns for every field; over F_2, see below) gives both ranks
of a degree.  The stray rows come last, so in R = full_n V they form
stray_n V, already in echelon form: rank full_n counts the pivots and
rank stray_n those with a stray lowest row.  Degrees run from the top
down with clearing (Chen & Kerber, *Persistent homology computation
with a twist*, 2011): a degree-(n+1) pivot whose lowest row is the
allowed path j has no stray entry, so it lies in span(A_n), full_n kills
it, and column j is skipped.  ``omega_basis`` records V: Omega_n is
spanned by the V columns whose R column is zero or has an allowed lowest
row.

Over F_2 the face sums fill in: the 81,920 top-degree columns of K_5 at
kmax 6 need about 605,000 additions, and adding dict columns entry by
entry took most of the time.  So ``path_homology`` packs each face sum
into an int bitset, bit r for row r (``matrices.bitset``), and reduces
with ``matrices.reduce_bitsets``, where an addition is one XOR (Bauer,
Kerber, Reininghaus & Wagner, *Phat*, J. Symbolic Comput. 2017); same
rows, same order, same clearing.  Q and odd p, and ``omega_basis``,
which needs V, keep the dict columns, as do the coboundary passes over
F_2 (see ``maghom.matrices``).
"""

from __future__ import annotations

from itertools import combinations, repeat

from .chains import walks
from .graphs import adjacency
from .homology import parse_field
from .matrices import bitset, reduce_bitsets, reduce_columns


def _paths(G, top, strong):
    """Allowed paths of every degree up to top: walks along edges, bucketed (n, n)."""
    steps = tuple(tuple((v, 1) for v in vs) for vs in adjacency(G))
    return walks(steps, range(G.n), top, strong)[0]


def allowed_paths(G, n, strong=False):
    """Allowed n-paths: consecutive pairs are edges; strong means injective."""
    return _paths(G, n, strong).get((n, n), ())


def _face_columns(paths, n, packed=False):
    """full_n as sparse columns {row: +-1}, or packed over F_2 as ints with
    bit r set for row r, one per allowed n-path and made as the reduction
    reads them; and base = |A_{n-1}|.

    paths holds the allowed paths of degrees n - 1 and n, as ``_paths``
    buckets them.  Row i < base is the allowed (n-1)-path of index i;
    other faces get rows from base up, in first-hit order, the faces of
    a path taken from deleting vertex 0 to deleting vertex n.  That is
    the order in which ``combinations`` yields the faces of the reversed
    path, in one C call, and reversed tuples serve as keys just as well.
    A graph has no loops, so the faces of one path are distinct.  The
    differential vanishes on vertices, so n = 0 gives zero columns.
    """
    lower = paths.get((n - 1, n - 1), ())
    upper = paths.get((n, n), ())
    if not (n and upper):
        return [0 if packed else {} for _ in upper], len(lower)
    index = {t[::-1]: i for i, t in enumerate(lower)}
    rows = [index.setdefault(f, len(index)) for t in upper for f in combinations(t[::-1], n)]
    faces = zip(*[iter(rows)] * (n + 1))  # the n + 1 face rows of each path
    if packed:
        cols = map(bitset, faces)
    else:
        # face i has sign (-1)^i; zip stops at the last face
        cols = map(dict, map(zip, faces, repeat((1, -1) * (n // 2 + 1))))
    return cols, len(lower)


def omega_basis(G, n, strong=False, ring="Q"):
    """Basis of Omega_n = ker stray_n over a field: sparse columns {index
    in allowed_paths(G, n, strong): coeff}, by increasing lowest index."""
    ring = parse_field(ring, "path homology needs")
    cols, base = _face_columns(_paths(G, n, strong), n)
    pivots, kernel, _ = reduce_columns(cols, ring, record=True)
    return sorted(kernel + [v for low, (_, _, v) in pivots.items() if low < base], key=max)


def path_homology(G, kmax=None, strong=False, ring="Q", reduced=False):
    """Ranks of (strong) path homology up to degree kmax.

    The strong variant is bounded by the vertex count, so kmax is only
    mandatory without strong.  Returns {degree: rank} with zeros dropped.
    """
    ring = parse_field(ring, "path homology needs")
    if strong:
        top = G.n - 1 if kmax is None else min(kmax, G.n - 1)
    else:
        if kmax is None:
            raise ValueError("path chains are unbounded in degree; pass kmax")
        top = kmax
    if top < 0:
        return {}

    paths = _paths(G, top + 1, strong)
    full = {0: 1 if reduced and G.n else 0}
    stray = {}
    cleared = set()
    packed = ring == 2
    for n in range(top + 1, 0, -1):
        cols, base = _face_columns(paths, n, packed)
        # a lowest row one degree up is below its base: an allowed path
        if packed:
            pivots = reduce_bitsets(cols, skip=cleared)
        else:
            pivots = reduce_columns(cols, ring, skip=cleared)[0]
        full[n] = len(pivots)
        stray[n] = sum(low >= base for low in pivots)
        cleared = set(pivots)

    out = {}
    for n in range(top + 1):
        h = len(paths.get((n, n), ())) - full[n] - full[n + 1] + stray[n + 1]
        if h:
            out[n] = h
    return out
