"""Homology of chain complexes, and the bigraded trail homology tables.

One loop, ``chain_homology``, serves every ``chains.FilteredComplex`` in
the package: a graded piece of a trail complex (one column of a
homology table), the total complex of injective words or of the
truncated nerve, and a flag complex.  Each differential goes through
integer Smith normal form once, and the requested
coefficients are read off it: the rational rank is the number of Smith
divisors, the mod-p rank is the number of divisors p does not divide,
and the torsion summands are the divisors exceeding 1.

``les_verify`` checks the long exact sequence at one length.  Its cycle
bases are the kernel columns of one sparse column reduction per boundary
(``matrices.reduce_columns``), and each map rank is rank [images |
boundaries] - rank boundaries, both Smith-form ranks of sparse matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import KINDS, certified_length_bound, trail_complex
from .errors import GraphError
from .matrices import SparseMatrix, combine, reduce_columns
from .snf import rank_z, smith_normal_form


def parse_ring(ring):
    """Turn a ring (Z, Q, Fp:<p>, or a prime p) into the internal form."""
    if ring in ("Z", "Q"):
        return ring
    if isinstance(ring, str) and ring.startswith("Fp:"):
        ring = int(ring[3:])
    if isinstance(ring, int):
        if ring < 2 or any(ring % d == 0 for d in range(2, int(ring**0.5) + 1)):
            raise ValueError(f"modulus must be prime, got {ring}")
        return ring
    raise ValueError(f"unknown ring {ring!r}; expected Z, Q, or Fp:<p>")


def parse_field(ring, needs):
    """Characteristic of a field ring: None for Q, p for Fp:<p> or p.

    Raises ValueError naming the computation (needs, e.g. "path homology
    needs") for Z, and as parse_ring does for anything else that is not
    a field.
    """
    ring = parse_ring(ring)
    if ring == "Z":
        raise ValueError(f"{needs} field coefficients, got 'Z'")
    return None if ring == "Q" else ring


def ring_name(ring):
    if ring in ("Z", "Q"):
        return ring
    return f"F{ring}"


@dataclass(frozen=True)
class AbelianGroupInvariant:
    """Rank plus torsion divisor chain; over a field the torsion is empty."""

    rank: int
    torsion: tuple = ()

    @property
    def trivial(self):
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class HomologyTable:
    """Sparse bigraded table of homology groups for one digraph."""

    def __init__(self, kind, ring, entries, l_max, certified, n):
        self.kind = kind
        self.ring = ring
        self.entries = dict(entries)
        self.l_max = l_max
        self.certified = certified
        self.n = n

    def rank(self, k, l):
        g = self.entries.get((k, l))
        return g.rank if g else 0

    def torsion(self, k, l):
        g = self.entries.get((k, l))
        return g.torsion if g else ()

    def group(self, k, l):
        return self.entries.get((k, l), AbelianGroupInvariant(0))

    def items(self):
        return sorted(self.entries.items())

    @property
    def diagonal(self):
        """Whether every nonzero group sits on the diagonal k = l."""
        return all(k == l for k, l in self.entries)

    def top_bidegree(self):
        """Largest nonzero bidegree, compared first by k then by l."""
        return max(self.entries, default=None)

    def total_rank(self):
        return sum(g.rank for g in self.entries.values())

    def euler_characteristic(self):
        return sum((-1) ** k * g.rank for (k, _), g in self.entries.items())

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "ring": ring_name(self.ring),
            "n": self.n,
            "l_max": self.l_max,
            "certified": self.certified,
            "groups": {
                f"{k},{l}": {"rank": g.rank, "torsion": list(g.torsion)}
                for (k, l), g in sorted(self.entries.items())
            },
        }

    def to_csv(self):
        lines = ["k,l,rank,torsion"]
        for (k, l), g in sorted(self.entries.items()):
            lines.append(f"{k},{l},{g.rank},{';'.join(str(d) for d in g.torsion)}")
        return "\n".join(lines) + "\n"

    def to_markdown(self):
        scope = "certified complete" if self.certified else f"truncated at l <= {self.l_max}"
        lines = [
            f"{self.kind} homology over {ring_name(self.ring)} ({scope})",
            "",
            "| k | l | group |",
            "|---|---|-------|",
        ]
        for (k, l), g in sorted(self.entries.items()):
            lines.append(f"| {k} | {l} | {g} |")
        return "\n".join(lines) + "\n"


def chain_homology(complex_, ring="Z", reduced=False, weight=None):
    """Homology of a FilteredComplex from the Smith forms of its differentials.

    With weight, the homology of the graded piece at that weight.  With
    reduced, the augmentation takes the place of the zero map on degree
    0.  Returns {degree: AbelianGroupInvariant}, trivial groups dropped.
    """
    ring = parse_ring(ring)
    snf = {}

    def divisors(k):
        if k not in snf:
            mat = None
            if k >= 1 and complex_.dim(k, weight):
                mat = complex_.boundary(k, weight)
            snf[k] = smith_normal_form(mat)[0] if mat is not None and mat.nnz else ()
        return snf[k]

    def rank(divs):
        return len(divs) if ring in ("Z", "Q") else sum(1 for d in divs if d % ring)

    out = {}
    for k in range(complex_.top_degree + 1):
        dim = complex_.dim(k, weight)
        if not dim:
            continue
        outgoing = (1,) if reduced and k == 0 else divisors(k)
        incoming = divisors(k + 1)
        torsion = tuple(d for d in incoming if d > 1) if ring == "Z" else ()
        g = AbelianGroupInvariant(dim - rank(outgoing) - rank(incoming), torsion)
        if not g.trivial:
            out[k] = g
    return out


def homology_table(G, kind="eulerian", ring="Z", l_max=None):
    """Homology of the chosen trail complex as a sparse bigraded table.

    The eulerian table defaults to the certified length bound, above
    which no all-distinct trail lives; the others need l_max.
    """
    ring = parse_ring(ring)
    certified = False
    if kind == "eulerian":
        bound = certified_length_bound(G)
        if l_max is None:
            l_max = bound
        certified = l_max >= bound
    complex_ = trail_complex(G, kind, l_max)
    entries = {}
    for l in sorted({l for _, l in complex_.buckets}):
        groups = chain_homology(complex_, ring, weight=l)
        entries.update(((k, l), g) for k, g in groups.items())
    return HomologyTable(kind, ring, entries, l_max, certified, G.n)


def _map_rank(images, boundaries):
    """Rank on homology of a map, from chain-level images of a cycle basis.

    The rank is rank [images | boundaries] - rank boundaries, over Q.
    """
    both = SparseMatrix(
        boundaries.nrows, boundaries.ncols + len(images), boundaries.entries
    )
    for j, image in enumerate(images, boundaries.ncols):
        for i, v in image.items():
            both.add_at(i, j, v)
    return rank_z(both) - rank_z(boundaries)


def les_verify(G, l):
    """Rank bookkeeping for the inclusion/projection/connecting maps at level l.

    At a fixed length the ordinary complex is finite (each step has length
    at least one), so no truncation is involved.  Returns per-degree ranks
    of the three homologies and of the maps between them, plus the three
    exactness identities the ranks must satisfy.  Cycle bases are the V
    columns of the zero columns in the column reduction of each boundary;
    every map rank comes from chain-level images, never from the
    exactness identities.
    """
    emx, mx, dmx = (trail_complex(G, kind, l) for kind in KINDS)

    def cycles(c, k):
        return reduce_columns(c.boundary(k, l).columns(), record=True)[1]

    def ranks(c):
        return {k: g.rank for k, g in chain_homology(c, "Q", weight=l).items()}

    e, m, d = ranks(emx), ranks(mx), ranks(dmx)

    r_incl = {}
    r_proj = {}
    r_conn = {}
    for k in range(l + 1):
        emc, mc, dmc = emx.cells(k, l), mx.cells(k, l), dmx.cells(k, l)
        mc_index = {t: i for i, t in enumerate(mc)}
        dmc_index = {t: i for i, t in enumerate(dmc)}

        # inclusion on homology
        images = [
            {mc_index[emc[i]]: v for i, v in z.items()} for z in cycles(emx, k)
        ]
        r_incl[k] = _map_rank(images, mx.boundary(k + 1, l))

        # projection on homology
        images = [
            {dmc_index[mc[i]]: v for i, v in z.items() if mc[i] in dmc_index}
            for z in cycles(mx, k)
        ]
        r_proj[k] = _map_rank(images, dmx.boundary(k + 1, l))

        # connecting map: lift a quotient cycle, push it through the full
        # differential, read the result in the all-distinct basis
        r_conn[k] = 0
        if k >= 1:
            full = mx.boundary(k, l).columns()
            lower = mx.cells(k - 1, l)
            lower_index = {t: i for i, t in enumerate(emx.cells(k - 1, l))}
            images = []
            for z in cycles(dmx, k):
                pushed = combine(full, {mc_index[dmc[i]]: v for i, v in z.items()})
                for i in pushed:
                    if lower[i] not in lower_index:
                        raise GraphError(
                            f"connecting image of a cycle hit repeat trail {lower[i]}"
                        )
                images.append({lower_index[lower[i]]: v for i, v in pushed.items()})
            r_conn[k] = _map_rank(images, emx.boundary(k, l))

    checks = []
    failures = []
    for k in range(l + 1):
        row = {
            "k": k,
            "exact_at_ordinary": r_incl[k] + r_proj[k] == m.get(k, 0),
            "exact_at_discriminant": r_proj[k] + r_conn[k] == d.get(k, 0),
            "exact_at_eulerian": r_conn.get(k + 1, 0) + r_incl[k] == e.get(k, 0),
        }
        checks.append(row)
        for name in ("ordinary", "discriminant", "eulerian"):
            if not row[f"exact_at_{name}"]:
                failures.append(f"degree {k} at the {name} term")
    return {
        "l": l,
        "eulerian": e,
        "ordinary": m,
        "discriminant": d,
        "rank_inclusion": {k: v for k, v in r_incl.items() if v},
        "rank_projection": {k: v for k, v in r_proj.items() if v},
        "rank_connecting": {k: v for k, v in r_conn.items() if v},
        "checks": checks,
        "failures": failures,
        "exact": not failures,
    }


def splitting_check(G, l_max=None):
    """Verify the direct-sum decomposition at every level up to l_max.

    Errors out unless the all-distinct homology is certified diagonal.
    When it is, every ordinary rank must split as the matching
    all-distinct and quotient ranks added up, with a zero connecting
    map.  l_max defaults to the certified enumeration bound, which
    covers every level where the diagonal part can be nonzero.
    """
    full = homology_table(G, "eulerian", "Z")
    if not full.diagonal:
        raise GraphError("not regularly diagonal")
    if l_max is None:
        l_max = certified_length_bound(G)
    levels = {}
    for l in range(l_max + 1):
        les = les_verify(G, l)
        degrees = {}
        for k in range(l + 1):
            ranks = {name: les[name].get(k, 0) for name in KINDS}
            if any(ranks.values()):
                degrees[k] = ranks
        splits = not any(les["rank_connecting"].values()) and all(
            r["ordinary"] == r["eulerian"] + r["discriminant"] for r in degrees.values()
        )
        levels[l] = {"splits": splits, "degrees": degrees}
    splits = all(level["splits"] for level in levels.values())
    return {"l_max": l_max, "regularly_diagonal": True, "splits": splits, "levels": levels}
