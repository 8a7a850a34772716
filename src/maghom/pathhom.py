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
sum from A_n into every (n-1)-tuple it hits and stray_n its rows on
tuples outside A_{n-1}, so Omega_n = ker stray_n.  With those rows
last, reduce full_n left to right to R = full_n V
(``matrices.reduce_columns``, exact over Q and mod p, on the same +-1
face columns for every field; over F_2, see below).  The columns that
reduce to zero give ker full_n, the n-cycles, all in Omega_n.  A column
of R with an allowed lowest row has no stray entry, so its V column
lies in Omega_n; the stray rows of R are in echelon form, so there are
rank full_n - rank stray_n = rank d_n of these columns, a basis of the
boundaries.  Degrees run from the top down with clearing (Chen &
Kerber, *Persistent homology computation with a twist*, 2011): a
degree-(n+1) pivot whose lowest row is the allowed n-path j is a cycle
ending on j, so column j of full_n would reduce to zero, and its face
sum is never built.  The cleared n-paths number rank d_{n+1}, so

    rank H_n = dim ker full_n - rank d_{n+1}
             = the uncleared n-paths whose columns reduce to zero.

The face sums of vertices are zero, so degree 0 counts the uncleared
vertices, one fewer for reduced homology of a nonempty vertex set (the
augmentation).  ``omega_basis`` reads V off identity rows below the face
rows, row j - |A_n| for column j: Omega_n is spanned by the identity
parts of the columns whose lowest row is allowed or an identity row.
The identity rows must ascend with j: column j's identity part lies in
the rows of columns 0..j, so once its face rows are cleared it ends on
its own row, and kernel columns never reduce against each other.

Over F_2 the face sums fill in: the 81,920 top-degree columns of K_5 at
kmax 6 need about 605,000 additions, and adding dict columns entry by
entry took most of the time.  So ``path_homology`` packs each face sum
into an int bitset, bit r for row r (``matrices.bitset``), and reduces
with ``matrices.reduce_bitsets``, where an addition is one XOR (Bauer,
Kerber, Reininghaus & Wagner, *Phat*, J. Symbolic Comput. 2017); same
rows, same order, same clearing.  Q and odd p keep the dict columns,
as do ``omega_basis`` and the coboundary passes over F_2 (see
``maghom.matrices``).
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


def _face_columns(lower, upper, n, packed=False):
    """The face sums of the n-paths upper as sparse columns {row: +-1},
    or packed over F_2 as ints with bit r set for row r, made as the
    reduction reads them.

    Row i < len(lower) is the allowed (n-1)-path lower[i]; other faces
    get rows from len(lower) up, in first-hit order, the faces of a path
    taken from deleting vertex 0 to deleting vertex n.  That is the order
    in which ``combinations`` yields the faces of the reversed path, in
    one C call, and reversed tuples serve as keys just as well.  A graph
    has no loops, so the faces of one path are distinct.  The
    differential vanishes on vertices, so n = 0 gives zero columns.
    """
    if not n:
        return [0 if packed else {} for _ in upper]
    index = {t[::-1]: i for i, t in enumerate(lower)}
    rows = [index.setdefault(f, len(index)) for t in upper for f in combinations(t[::-1], n)]
    faces = zip(*[iter(rows)] * (n + 1))  # the n + 1 face rows of each path
    if packed:
        return map(bitset, faces)
    # face i has sign (-1)^i; zip stops at the last face
    return map(dict, map(zip, faces, repeat((1, -1) * (n // 2 + 1))))


def omega_basis(G, n, strong=False, ring="Q"):
    """Basis of Omega_n = ker stray_n over a field: sparse columns {index
    in allowed_paths(G, n, strong): coeff}, by increasing lowest index."""
    ring = parse_field(ring, "path homology needs")
    paths = _paths(G, n, strong)
    lower, upper = paths.get((n - 1, n - 1), ()), paths.get((n, n), ())
    cols = list(_face_columns(lower, upper, n))
    for j, col in enumerate(cols, -len(upper)):
        col[j] = 1  # the identity row of column j + len(upper)
    pivots = reduce_columns(cols, ring)[0]
    # pivots are in column order, and each ends its identity part on its own row
    kept = [col for low, (_, col) in pivots.items() if low < len(lower)]
    return [{j + len(upper): v for j, v in col.items() if j < 0} for col in kept]


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
    ranks = {}
    cleared = set()
    for n in range(top + 1, 0, -1):
        lower = paths.get((n - 1, n - 1), ())
        upper = [t for i, t in enumerate(paths.get((n, n), ())) if i not in cleared]
        cols = _face_columns(lower, upper, n, ring == 2)
        pivots = reduce_bitsets(cols) if ring == 2 else reduce_columns(cols, ring)[0]
        ranks[n] = len(upper) - len(pivots)
        # a lowest row below len(lower) clears that allowed (n-1)-path
        cleared = {low for low in pivots if low < len(lower)}
    ranks[0] = len(paths.get((0, 0), ())) - len(cleared) - bool(reduced and G.n)
    return {n: ranks[n] for n in range(top + 1) if ranks[n]}
