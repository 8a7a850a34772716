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

No basis of Omega_n is ever built.  Let full_n be the face sum from A_n
into every (n-1)-tuple it hits, and stray_n its rows on tuples outside
A_{n-1}.  Then Omega_n = ker stray_n, and since ker full_n lies inside
ker stray_n, the differential restricted to Omega_n has rank
rank full_n - rank stray_n.  Substituting into
rank H_n = dim Omega_n - rank d_n - rank d_{n+1} gives

    rank H_n = |A_n| - rank full_n - rank full_{n+1} + rank stray_{n+1},

with the augmentation (rank 1 on a nonempty vertex set) in place of
full_0 for reduced homology.  Each rank is the number of pivots of one
sparse column reduction (``matrices.reduce_columns``), fraction-free
over Q or mod p, so the arithmetic stays exact.  Only ``omega_basis``
builds vectors, as the kernel columns of the same reduction of stray_n
with its column operations recorded.
"""

from __future__ import annotations

from .chains import walk_buckets
from .graphs import adjacency
from .homology import parse_field
from .matrices import SparseMatrix, reduce_columns


def _paths(G, top, strong):
    """Allowed paths of every degree up to top: walks along edges, bucketed (n, n)."""
    steps = tuple(tuple((v, 1) for v in vs) for vs in adjacency(G))
    return walk_buckets(steps, range(G.n), top, strong)


def allowed_paths(G, n, strong=False):
    """Allowed n-paths: consecutive pairs are edges; strong means injective."""
    return _paths(G, n, strong).get((n, n), ())


def _faces(path):
    for i in range(len(path)):
        yield (-1) ** i, path[:i] + path[i + 1 :]


def _face_sums(paths, n, stray_only):
    """Face sum from allowed n-paths onto the tuples it hits: full_n or stray_n.

    paths holds the allowed paths of degrees n - 1 and n, as ``_paths``
    buckets them.  Rows are numbered by first hit.  With stray_only,
    faces that are allowed (n-1)-paths are left out.  The differential
    vanishes on vertices, so n = 0 gives the zero map.
    """
    allowed = set(paths.get((n - 1, n - 1), ())) if stray_only else ()
    cells = paths.get((n, n), ())
    index = {}
    entries = {}
    for j, path in enumerate(cells if n > 0 else ()):
        for sign, face in _faces(path):
            if face not in allowed:
                key = (index.setdefault(face, len(index)), j)
                entries[key] = entries.get(key, 0) + sign
    return SparseMatrix(len(index), len(cells), entries)


def omega_basis(G, n, strong=False, p=None):
    """Basis of Omega_n = ker stray_n as sparse columns {path index: coeff},
    indexed like allowed_paths(G, n, strong).

    They are the V columns of the stray columns that reduce to zero.
    """
    stray = _face_sums(_paths(G, n, strong), n, stray_only=True)
    return reduce_columns(stray.columns(p), p, record=True)[1]


def path_homology(G, kmax=None, strong=False, ring="Q", reduced=False):
    """Ranks of (strong) path homology up to degree kmax.

    The strong variant is bounded by the vertex count, so kmax is only
    mandatory without strong.  Returns {degree: rank} with zeros dropped.
    """
    p = parse_field(ring, "path homology needs")
    if strong:
        top = G.n - 1 if kmax is None else min(kmax, G.n - 1)
    else:
        if kmax is None:
            raise ValueError("path chains are unbounded in degree; pass kmax")
        top = kmax
    if top < 0:
        return {}

    def rank(mat):
        return len(reduce_columns(mat.columns(p), p)[0])

    paths = _paths(G, top + 1, strong)
    full = {0: 1 if reduced and G.n else 0}
    stray = {}
    for n in range(1, top + 2):
        full[n] = rank(_face_sums(paths, n, stray_only=False))
        stray[n] = rank(_face_sums(paths, n, stray_only=True))

    out = {}
    for n in range(top + 1):
        h = len(paths.get((n, n), ())) - full[n] - full[n + 1] + stray[n + 1]
        if h:
            out[n] = h
    return out
