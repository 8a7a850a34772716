"""Homology of the bigraded trail complexes.

Everything is computed once over the integers via Smith normal form and
then read off for the requested coefficients: the rational rank is the
number of Smith divisors, the mod-p rank is the number of divisors p
does not divide, and the torsion summands are the divisors exceeding 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import (
    BigradedComplex,
    boundary_matrix,
    certified_length_bound,
    enumerate_basis,
)
from .errors import GraphError
from .exactla import RowReducer, nullspace
from .snf import smith_normal_form


def parse_ring(text):
    """Turn a ring label (Z, Q, Fp:<p>) into the internal form."""
    if text in ("Z", "Q"):
        return text
    if text.startswith("Fp:"):
        p = int(text[3:])
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"modulus must be prime, got {p}")
        return p
    raise ValueError(f"unknown ring {text!r}; expected Z, Q, or Fp:<p>")


def parse_field(ring, needs):
    """Characteristic of a field ring: None for Q, p for Fp:<p> or p.

    Raises ValueError naming the computation (needs, e.g. "path homology
    needs") for anything that is not a field.
    """
    if isinstance(ring, str) and ring.startswith("Fp:"):
        ring = parse_ring(ring)
    if ring == "Q":
        return None
    if isinstance(ring, int) and ring >= 2:
        return ring
    raise ValueError(f"{needs} field coefficients, got {ring!r}")


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

    def nonzero_bidegrees(self):
        return sorted(self.entries)

    def items(self):
        return sorted(self.entries.items())

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


def _group_from_snf(dim, out_stats, in_stats, ring):
    out_divs, out_rank = out_stats
    in_divs, in_rank = in_stats
    if ring == "Z" or ring == "Q":
        rank = dim - out_rank - in_rank
        torsion = tuple(d for d in in_divs if d > 1) if ring == "Z" else ()
    else:
        p = ring
        out_p = sum(1 for d in out_divs if d % p)
        in_p = sum(1 for d in in_divs if d % p)
        rank = dim - out_p - in_p
        torsion = ()
    return AbelianGroupInvariant(rank, torsion)


def homology_table(G, kind="eulerian", ring="Z", l_max=None):
    """Homology of the chosen trail complex as a sparse bigraded table."""
    if isinstance(ring, str):
        ring = parse_ring(ring)
    complex_ = BigradedComplex.build(G, kind, l_max)
    zero = ((), 0)
    stats = {}

    def snf_at(k, l):
        key = (k, l)
        if key not in stats:
            mat = complex_.boundary(k, l)
            stats[key] = smith_normal_form(mat) if mat.nnz else ((), 0)
        return stats[key]

    entries = {}
    for (k, l), dim in complex_.counts().items():
        out_stats = snf_at(k, l) if k >= 1 else zero
        in_stats = snf_at(k + 1, l) if complex_.dim(k + 1, l) else zero
        g = _group_from_snf(dim, out_stats, in_stats, ring)
        if not g.trivial:
            entries[(k, l)] = g
    return HomologyTable(kind, ring, entries, complex_.l_max, complex_.certified, G.n)


def _cycle_vectors(G, kind, k, l):
    """Rational basis of the cycle space at (k, l), as dense column vectors."""
    dim = len(enumerate_basis(G, kind, k, l))
    if dim == 0:
        return []
    if k == 0:
        return [[Fraction(int(i == j)) for i in range(dim)] for j in range(dim)]
    mat = boundary_matrix(G, kind, k, l)
    return nullspace(mat.to_rows(), dim, None)


def _boundary_columns(G, kind, k, l):
    """Columns of the differential landing in (k, l), as dense vectors."""
    return boundary_matrix(G, kind, k + 1, l).to_columns()


def _induced_rank(images, boundary_cols):
    """Rank of a map on homology from chain-level images of cycles.

    The rank equals rank([images | boundaries]) - rank(boundaries).
    """
    red = RowReducer(None)
    for col in boundary_cols:
        red.add(col)
    base = red.rank
    for col in images:
        red.add(col)
    return red.rank - base


def les_verify(G, l):
    """Rank bookkeeping for the inclusion/projection/connecting maps at level l.

    At a fixed length the ordinary complex is finite (each step has length
    at least one), so no truncation is involved.  Returns per-degree ranks
    of the three homologies and of the maps between them, plus the three
    exactness identities the ranks must satisfy.
    """
    dist_kinds = ("eulerian", "ordinary", "discriminant")
    tables = {kind: homology_table(G, kind, "Q", l_max=l) for kind in dist_kinds}
    e = {k: tables["eulerian"].rank(k, l) for k in range(l + 2)}
    m = {k: tables["ordinary"].rank(k, l) for k in range(l + 2)}
    d = {k: tables["discriminant"].rank(k, l) for k in range(l + 2)}

    r_incl = {}
    r_proj = {}
    r_conn = {}
    for k in range(l + 1):
        mc_basis = enumerate_basis(G, "ordinary", k, l)
        mc_index = {t: i for i, t in enumerate(mc_basis)}
        dmc_basis = enumerate_basis(G, "discriminant", k, l)
        dmc_index = {t: i for i, t in enumerate(dmc_basis)}
        emc_basis = enumerate_basis(G, "eulerian", k, l)
        emc_index = {t: i for i, t in enumerate(emc_basis)}

        # inclusion on homology
        images = []
        for z in _cycle_vectors(G, "eulerian", k, l):
            vec = [Fraction(0)] * len(mc_basis)
            for i, t in enumerate(emc_basis):
                if z[i]:
                    vec[mc_index[t]] = Fraction(z[i])
            images.append(vec)
        r_incl[k] = _induced_rank(images, _boundary_columns(G, "ordinary", k, l))

        # projection on homology
        images = []
        for z in _cycle_vectors(G, "ordinary", k, l):
            vec = [Fraction(0)] * len(dmc_basis)
            for i, t in enumerate(mc_basis):
                if z[i] and t in dmc_index:
                    vec[dmc_index[t]] = Fraction(z[i])
            images.append(vec)
        r_proj[k] = _induced_rank(images, _boundary_columns(G, "discriminant", k, l))

        # connecting map: lift a quotient cycle, push it through the full
        # differential, read the result in the all-distinct basis
        if k >= 1:
            full = boundary_matrix(G, "ordinary", k, l)
            lower_basis = enumerate_basis(G, "ordinary", k - 1, l)
            lower_emc = enumerate_basis(G, "eulerian", k - 1, l)
            lower_index = {t: i for i, t in enumerate(lower_emc)}
            images = []
            for z in _cycle_vectors(G, "discriminant", k, l):
                lift = [Fraction(0)] * len(mc_basis)
                for i, t in enumerate(dmc_basis):
                    if z[i]:
                        lift[mc_index[t]] = Fraction(z[i])
                pushed = full.apply(lift)
                vec = [Fraction(0)] * len(lower_emc)
                for i, t in enumerate(lower_basis):
                    if pushed[i]:
                        if t not in lower_index:
                            raise GraphError(
                                f"connecting image of a cycle hit repeat trail {t}"
                            )
                        vec[lower_index[t]] = Fraction(pushed[i])
                images.append(vec)
            r_conn[k] = _induced_rank(images, _boundary_columns(G, "eulerian", k - 1, l))
        else:
            r_conn[k] = 0

    checks = []
    failures = []
    for k in range(l + 1):
        row = {
            "k": k,
            "exact_at_ordinary": r_incl[k] + r_proj[k] == m[k],
            "exact_at_discriminant": r_proj[k] + r_conn[k] == d[k],
            "exact_at_eulerian": r_conn.get(k + 1, 0) + r_incl[k] == e[k],
        }
        checks.append(row)
        for name in ("ordinary", "discriminant", "eulerian"):
            if not row[f"exact_at_{name}"]:
                failures.append(f"degree {k} at the {name} term")
    return {
        "l": l,
        "eulerian": {k: v for k, v in e.items() if v},
        "ordinary": {k: v for k, v in m.items() if v},
        "discriminant": {k: v for k, v in d.items() if v},
        "rank_inclusion": {k: v for k, v in r_incl.items() if v},
        "rank_projection": {k: v for k, v in r_proj.items() if v},
        "rank_connecting": {k: v for k, v in r_conn.items() if v},
        "checks": checks,
        "failures": failures,
        "exact": not failures,
    }


def splitting_report(G, l):
    """Check the direct-sum decomposition at level l over the rationals.

    Precondition: the all-distinct homology is concentrated on its
    diagonal (certified, exact).  When that holds, every ordinary rank
    must split as the matching all-distinct and quotient ranks added up.
    """
    full = homology_table(G, "eulerian", "Z")
    diagonal = all(k == l_ for (k, l_) in full.entries)
    report = {"l": l, "regularly_diagonal": diagonal, "splits": None, "degrees": {}}
    if not diagonal:
        return report
    les = les_verify(G, l)
    ok = True
    for k in range(l + 1):
        e = les["eulerian"].get(k, 0)
        m = les["ordinary"].get(k, 0)
        d = les["discriminant"].get(k, 0)
        if e or m or d:
            report["degrees"][k] = {"eulerian": e, "ordinary": m, "discriminant": d}
            if m != e + d:
                ok = False
    conn = any(les["rank_connecting"].values())
    report["splits"] = ok and not conn
    return report


def splitting_check(G, l_max=None):
    """Verify the splitting at every level up to l_max.

    Errors out unless the all-distinct homology is certified diagonal;
    l_max defaults to the certified enumeration bound, which covers
    every level where the diagonal part can be nonzero.
    """
    full = homology_table(G, "eulerian", "Z")
    if any(k != l_ for (k, l_) in full.entries):
        raise GraphError("not regularly diagonal")
    if l_max is None:
        l_max = certified_length_bound(G)
    levels = {}
    splits = True
    for l in range(l_max + 1):
        rep = splitting_report(G, l)
        levels[l] = {"splits": rep["splits"], "degrees": rep["degrees"]}
        if not rep["splits"]:
            splits = False
    return {"l_max": l_max, "regularly_diagonal": True, "splits": splits, "levels": levels}
