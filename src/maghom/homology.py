"""Homology of chain complexes, and the bigraded trail homology tables.

One loop, ``coboundary_pass``, serves every ``chains.FilteredComplex``
in the package: a graded piece of a trail complex (one column of a
homology table), the total complex of injective words or of the
truncated nerve, and a flag complex.  It is one bottom-up pass of
coboundary column reductions with clearing, in place on the +-1 columns
``FilteredComplex.coboundary`` builds for each degree, mod p over F_p
and fraction-free in integers over Q and Z, and it yields each degree's
pivot pairs and Smith divisors.  ``chain_homology`` reads the ranks and
torsion off the divisors; the spectral sequences read their persistence
pairing off the pairs of the whole total complex.  Over Z only pivots
with lowest entry +-1 are taken; the columns that end on another entry
go to a small dense Smith reduction, whose divisors exceeding 1 are the
torsion summands (``matrices.reduce_columns``).

``homology_table`` reduces each graded piece one vertex orbit of Aut(G)
(``graphs.vertex_orbits``) at a time, on the summand of trails from the
orbit's least vertex, which an automorphism carries onto the summand of
any other: ranks count once per orbit vertex, and torsion repeats as
often and is regrouped into invariant factors.  So the E^1 check of
``rmpss_report``, which sets the pairing of the whole complex against
these tables, compares two different matrices.

``is_diagonal`` gives the eulerian or ordinary table's diagonality over
Z without building the table: it reduces each orbit summand one weight at a time, in ascending
order under a doubling length cap, and stops at the first group off the
diagonal.  Every caller that reads only a verdict uses it, the eulerian
one through ``is_regularly_diagonal``.

``les_verify`` checks the long exact sequence at one length, over a
field, one orbit summand at a time as ``homology_table`` does.  Its map
ranks are counts of the persistence pairs of one coboundary pass over
the ordinary summand, its all-distinct trails ordered first: the
pairing of a complex with a subcomplex gives the ranks of inclusion,
projection and connecting map, as the pairing of a filtered complex
gives the pages of its spectral sequence.  The inclusion's ranks are
those of the page-one inclusion of the regular magnitude-path spectral
sequence into the ordinary one (``spectral.page_one_inclusion_report``).
"""

from __future__ import annotations

from collections import Counter

from .chains import KINDS, certified_length_bound, has_repeat, trail_complex
from .errors import GraphError
from .graphs import eccentricity_bound, vertex_orbits
from .matrices import parse_ring, reduce_columns
from .record import Record


def parse_field(ring, needs):
    """A field ring in parse_ring's form: "Q", or p for Fp:<p> or p.

    Raises ValueError naming the computation (needs, e.g. "path homology
    needs") for Z, and as parse_ring does for anything else that is not
    a field.
    """
    ring = parse_ring(ring)
    if ring == "Z":
        raise ValueError(f"{needs} field coefficients, got 'Z'")
    return ring


def ring_name(ring):
    if ring in ("Z", "Q"):
        return ring
    return f"F{ring}"


class AbelianGroupInvariant(Record, frozen=True):
    """Rank plus torsion divisor chain; over a field the torsion is empty."""

    _fields = ("rank", "torsion")

    def __init__(self, rank, torsion=()):
        self.__dict__.update(rank=rank, torsion=torsion)

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


def coboundary_pass(complex_, ring, weight=None):
    """Yield (k, pairs, divisors) for each degree k, from one bottom-up
    pass of coboundary reductions with clearing.

    Degree k reduces coboundary(k, weight) in place with
    ``matrices.reduce_columns``: columns are the degree-k cells and rows
    the degree-(k + 1) cells, both in reversed order, built fresh for
    this pass and dropped once the degree is reduced.  A column whose index
    was a lowest row of degree k - 1 is a coboundary there, so it is
    skipped (Bauer, *Ripser*, J. Appl. Comput. Topol. 2021).  pairs lists
    (birth, death) per pivot, the index of its degree-k cell and of the
    degree-(k + 1) cell at its lowest row, in the complex's own cell
    order; these are the persistence pairs of the boundary reduction (de
    Silva, Morozov & Vejdemo-Johansson, *Dualities in persistent
    (co)homology*, Inverse Problems 2011).  divisors are the Smith
    divisors of the differential into degree k.  Over Z only the +-1
    pivots pair and clear the next degree.
    """
    cleared = {}
    above = complex_.dim(0, weight)
    for k in range(complex_.top_degree + 1):
        here, above = above, complex_.dim(k + 1, weight)
        if not (here and above):
            cleared = {}
            yield k, [], ()
            continue
        top_row, top_col = here - 1, above - 1
        pivots, divisors = reduce_columns(complex_.coboundary(k, weight), ring, skip=cleared)
        pairs = [(top_row - j, top_col - low) for low, (j, _) in pivots.items()]
        # only the lowest rows outlive this degree, not its reduced columns
        cleared = set(pivots)
        del pivots
        yield k, pairs, divisors


def chain_homology(complex_, ring="Z", weight=None):
    """Homology of a FilteredComplex from the ranks of its differentials.

    With weight, the homology of the graded piece at that weight.
    Returns {degree: AbelianGroupInvariant}, trivial groups dropped;
    ``reduced_homology`` reads the reduced groups off them.
    """
    ring = parse_ring(ring)
    out = {}
    outgoing = 0
    for k, _, incoming in coboundary_pass(complex_, ring, weight):
        dim = complex_.dim(k, weight)
        if dim:
            torsion = tuple(d for d in incoming if d > 1)
            g = AbelianGroupInvariant(dim - outgoing - len(incoming), torsion)
            if not g.trivial:
                out[k] = g
        outgoing = len(incoming)
    return out


def reduced_homology(groups):
    """Reduced homology from the unreduced groups of ``chain_homology``:
    the augmentation splits off one free summand of degree 0."""
    out = dict(groups)
    if 0 in out:
        out[0] = AbelianGroupInvariant(out[0].rank - 1, out[0].torsion)
        if out[0].trivial:
            del out[0]
    return out


def invariant_factors(orders):
    """Invariant factors d_1 | d_2 | ..., each above 1, of the direct sum
    of the cyclic groups Z/d for d in orders: the Smith divisors above 1
    of the diagonal matrix of orders.
    """
    divisors = reduce_columns([{i: d} for i, d in enumerate(orders)], "Z")[1]
    return tuple(d for d in divisors if d > 1)


def homology_table(G, kind="eulerian", ring="Z", l_max=None):
    """Homology of the chosen trail complex as a sparse bigraded table.

    The eulerian table defaults to the certified length bound, above
    which no all-distinct trail lives; the others need l_max.  Each
    graded piece is reduced one vertex orbit of Aut(G) at a time: only
    the summand of trails from the orbit's least vertex is built, its
    ranks count once per orbit vertex and its torsion repeats as often.
    """
    ring = parse_ring(ring)
    certified = False
    if kind == "eulerian":
        bound = certified_length_bound(G)
        if l_max is None:
            l_max = bound
        certified = l_max >= bound
    sums = {}
    for orbit in vertex_orbits(G):
        size = len(orbit)
        complex_ = trail_complex(G, kind, l_max, starts=orbit[:1])
        for l in sorted({l for _, l in complex_.buckets}):
            for k, g in chain_homology(complex_, ring, weight=l).items():
                rank, torsion = sums.get((k, l), (0, ()))
                sums[(k, l)] = (rank + size * g.rank, torsion + g.torsion * size)
    entries = {}
    for k, l in sorted(sums, key=lambda kl: kl[::-1]):
        rank, torsion = sums[(k, l)]
        if torsion:
            torsion = invariant_factors(torsion)
        entries[(k, l)] = AbelianGroupInvariant(rank, torsion)
    return HomologyTable(kind, ring, entries, l_max, certified, G.n)


def is_diagonal(G, kind="eulerian", l_max=None):
    """Whether the eulerian or ordinary table over Z vanishes off k = l.

    The verdict of ``homology_table(G, kind, "Z", l_max).diagonal``, read
    one orbit summand and one weight at a time, and False at the first
    group off the diagonal: such a group in one summand is an entry of
    the table at any cap at least its weight, so False needs no cap.  A
    graded piece uses only cells of its own weight, so a summand
    enumerated up to length cap has each piece of weight at most cap
    exactly.  The cap doubles from 2 to l_max, which defaults to the
    certified bound for the eulerian kind, and each pass reduces the
    weights it adds in ascending order.  Every prefix of an eulerian or
    ordinary trail is one, so a summand whose top weight is at most
    cap - D, D the largest finite distance, lost no step to the cap: it
    is whole and the doubling stops.  The ordinary complex is whole only
    on acyclic digraphs, so its loop runs to l_max elsewhere, and True
    means diagonal up to l_max.  The discriminant kind is refused: its
    repeat trails have prefixes without a repeat, so a short summand
    does not show that no trail was cut.
    """
    if kind not in ("eulerian", "ordinary"):
        raise ValueError(f"no diagonality verdict for the {kind!r} complex")
    if l_max is None:
        if kind != "eulerian":
            raise ValueError(f"the {kind} complex is unbounded in length; pass l_max")
        l_max = certified_length_bound(G)
    reach = eccentricity_bound(G)
    for orbit in vertex_orbits(G):
        done, cap = -1, min(2, l_max)
        while True:
            complex_ = trail_complex(G, kind, cap, starts=orbit[:1])
            for l in sorted({l for _, l in complex_.buckets if l > done}):
                if any(k != l for k in chain_homology(complex_, "Z", weight=l)):
                    return False
            if cap == l_max or complex_.top_weight <= cap - reach:
                break
            done, cap = cap, min(2 * cap, l_max)
    return True


def is_regularly_diagonal(G):
    """Whether the eulerian table over Z vanishes off the diagonal k = l:
    ``is_diagonal`` at the certified bound, an exact verdict."""
    return is_diagonal(G, "eulerian")


def les_verify(G, l, ring="Q"):
    """Rank bookkeeping for the inclusion/projection/connecting maps at level l.

    At a fixed length the ordinary complex is finite (each step has length
    at least one), so no truncation is involved.  Returns per-degree ranks
    over the field ring of the three homologies and of the maps between
    them, plus the three exactness identities the ranks must satisfy.

    At fixed length all three differentials keep a trail's first vertex,
    so each complex splits into summands by first vertex, and an
    automorphism carries the summand of one vertex onto that of any other
    in its orbit (``graphs.vertex_orbits``).  Each orbit's summands are
    built from its least vertex alone, and every rank counts once per
    orbit vertex.  The map ranks count the persistence pairs of one
    ``coboundary_pass`` on the ordinary summand M, its cells in stable
    order with the all-distinct trails E first (Cohen-Steiner, Edelsbrunner,
    Harer & Morozov, *Persistent homology for kernels, images, and
    cokernels*, SODA 2009).  In degree k the inclusion's rank is the
    number of unpaired all-distinct cells, the projection's the number of
    unpaired repeat trails, and the connecting map's the number of pairs
    born on an all-distinct cell in degree k - 1 that die on a repeat
    trail in degree k.  A pair born on a repeat trail that dies on an
    all-distinct cell would mean E is no subcomplex of M, and raises
    GraphError.  The homology ranks come from ``chain_homology`` on three
    summands of their own, on purpose: they are the side of the exactness
    identities that owes nothing to this pairing.  The eulerian and
    ordinary ones are built by ``trail_complex``, and the discriminant one
    is selected from the ordinary summand, its repeat trails of length l
    with their masks.
    """
    ring = parse_field(ring, "the long exact sequence needs")
    e, m, d = Counter(), Counter(), Counter()
    r_incl, r_proj, r_conn = Counter(), Counter(), Counter()
    for orbit in vertex_orbits(G):
        size = len(orbit)
        ordinary = trail_complex(G, "ordinary", l, starts=orbit[:1])
        # the quotient's basis at length l: the repeat trails, with their masks
        discriminant = ordinary.select(weight=l, keep=has_repeat)
        eulerian = trail_complex(G, "eulerian", l, starts=orbit[:1])
        for ranks, complex_ in ((e, eulerian), (m, ordinary), (d, discriminant)):
            for k, g in chain_homology(complex_, ring, weight=l).items():
                ranks[k] += size * g.rank

        # the graded piece at length l, all-distinct trails first, and per
        # degree the number of them
        piece = ordinary.select(weight=l, key=has_repeat)
        cut = {k: piece.dim(k, l) - discriminant.dim(k, l) for k, _ in piece.buckets}
        dead = []  # the degree-k cells paired with a cell of degree k - 1
        for k, pairs, _ in coboundary_pass(piece, ring, weight=l):
            here, above = cut.get(k, 0), cut.get(k + 1, 0)
            for birth, death in pairs:
                if birth >= here and death < above:
                    raise GraphError(
                        f"all-distinct trail {piece.cells(k + 1, l)[death]} pairs"
                        f" with repeat trail {piece.cells(k, l)[birth]}"
                    )
            conn = sum(birth < here and death >= above for birth, death in pairs)
            paired = [birth for birth, _ in pairs] + dead
            incl = here - sum(i < here for i in paired)
            r_conn[k + 1] += size * conn
            r_incl[k] += size * incl
            r_proj[k] += size * (piece.dim(k, l) - len(paired) - incl)
            dead = [death for _, death in pairs]

    checks = []
    failures = []
    for k in range(l + 1):
        row = {
            "k": k,
            "exact_at_ordinary": r_incl[k] + r_proj[k] == m[k],
            "exact_at_discriminant": r_proj[k] + r_conn[k] == d[k],
            "exact_at_eulerian": r_conn[k + 1] + r_incl[k] == e[k],
        }
        checks.append(row)
        for name in ("ordinary", "discriminant", "eulerian"):
            if not row[f"exact_at_{name}"]:
                failures.append(f"degree {k} at the {name} term")

    def nonzero(ranks):
        return {k: ranks[k] for k in range(l + 1) if ranks[k]}

    return {
        "l": l,
        "eulerian": nonzero(e),
        "ordinary": nonzero(m),
        "discriminant": nonzero(d),
        "rank_inclusion": nonzero(r_incl),
        "rank_projection": nonzero(r_proj),
        "rank_connecting": nonzero(r_conn),
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
    if not is_regularly_diagonal(G):
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
