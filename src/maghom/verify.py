"""Named verification checks over the worked examples and rank formulas.

Each check recomputes a published value or identity from scratch and
records pass/fail lines; the runner times them and aggregates a
machine-readable failure list.  Check names are stable, they are the
`--only` vocabulary of the command line verifier.
"""

from __future__ import annotations

import random
import time
from math import comb, perm

from .chains import trail_complex
from .errors import GraphError
from .graphs import (
    cone,
    connected_graph_classes,
    digraph,
    family,
    girth,
    join,
    point,
    reachability_preorder,
    rho,
)
from .homology import (
    chain_homology,
    homology_table,
    is_regularly_diagonal,
    les_verify,
    reduced_homology,
    splitting_check,
)
from .invariants import (
    delta_distance,
    magnitude_series,
    regular_magnitude,
    subgraph_network,
)
from .pathhom import path_homology
from .record import Record
from .spectral import page_one_inclusion_report, rmpss_report
from .words import derangement_count, injective_words_via_flag

INF = float("inf")

# two orientations of the same 4-vertex shape: injective words give a
# 2-sphere for both, while the all-distinct homology tells them apart
SPHERE_1 = digraph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (2, 3), (1, 3)])
SPHERE_2 = digraph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (3, 1), (3, 2)])


class CheckResult(Record):
    _fields = ("name", "passed", "seconds", "details", "failures")

    def __init__(self, name, passed, seconds, details=None, failures=None):
        self.name = name
        self.passed = passed
        self.seconds = seconds
        self.details = [] if details is None else details
        self.failures = [] if failures is None else failures


class Recorder:
    def __init__(self):
        self.details = []
        self.failures = []

    def expect(self, cond, label):
        if cond:
            self.details.append(f"ok: {label}")
        else:
            self.details.append(f"FAIL: {label}")
            self.failures.append(label)
        return bool(cond)

    def info(self, label):
        self.details.append(label)


def _rank_map(table):
    return {kl: g.rank for kl, g in table.items() if g.rank}


def check_complete_diagonal(r):
    for n in range(1, 6):
        table = homology_table(family("complete", n), "eulerian", "Z")
        r.expect(table.diagonal, f"K_{n} all-distinct homology is diagonal")
        r.expect(
            all(not g.torsion for g in table.entries.values()),
            f"K_{n} table is torsion-free",
        )
        want = {(k, k): perm(n, k + 1) for k in range(n)}
        r.expect(_rank_map(table) == want, f"K_{n} diagonal ranks are n!/(n-(k+1))!")


def check_lower_triangular(r):
    rng = random.Random(20817)
    bad = []
    for i in range(50):
        n = rng.randint(1, 6)
        p = rng.uniform(0.15, 0.6)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and rng.random() < p
        ]
        G = digraph(n, edges)
        if any(k > l for (k, l) in trail_complex(G).buckets):
            bad.append(i)
    r.expect(not bad, f"no all-distinct trail with k > l over 50 random digraphs {bad}")


def check_cycle_extremes(r):
    tables = {}
    for n in range(3, 7):
        table = tables[n] = homology_table(family("cycle", n), "eulerian", "Z")
        top_l = n * n // 2 - n + 1 if n % 2 == 0 else (n - 1) ** 2 // 2
        r.expect(
            table.top_bidegree() == (n - 1, top_l),
            f"C_{n} top nonzero bidegree is ({n - 1}, {top_l})",
        )
    r.expect(tables[3].rank(2, 2) == 6, "C_3 rank at (2,2) is 6")
    r.expect(tables[4].rank(2, 2) == 4, "C_4 rank at (2,2) is 4")


def check_girth_vanishing(r):
    seen = 0
    for n in range(1, 7):
        for edges in connected_graph_classes(n, min_girth=5):
            G = rho(n, edges)
            seen += 1
            # a diagonal entry (k, k) has k < n, and a graded piece uses
            # only cells of its own weight, so the table capped at n - 1
            # has every diagonal entry of the full one
            table = homology_table(G, "eulerian", "Z", l_max=n - 1)
            bad = [(k, l) for (k, l) in table.entries if k == l >= 2]
            r.expect(
                not bad,
                f"girth>=5 graph on {n} vertices ({len(edges)} edges) has no "
                f"diagonal entry beyond k=1; offenders {bad}",
            )
    r.info(f"swept {seen} connected classes of girth at least 5 on <= 6 vertices")


def check_charregdiag(r):
    total = 0
    for n in range(1, 6):
        for edges in connected_graph_classes(n):
            G = rho(n, edges)
            total += 1
            diagonal = is_regularly_diagonal(G)
            complete = len(edges) == comb(n, 2)
            r.expect(
                diagonal == complete,
                f"{n}-vertex class with {len(edges)} edges: regularly diagonal "
                f"({diagonal}) iff complete ({complete})",
            )
            if diagonal:
                g = girth(G)
                if g != INF:
                    r.expect(
                        g in (3, 4),
                        f"regularly diagonal {n}-vertex graph has girth {g} in {{3,4}}",
                    )
    r.expect(total == 31, f"sweep covered all 31 connected classes, saw {total}")


def _join_expected(gmap, hmap):
    out = {}
    for (k1, l1), a in gmap.items():
        for (k2, l2), b in hmap.items():
            key = (k1 + k2 + 1, l1 + l2 + 1)
            if key == (-1, -1):
                continue
            out[key] = out.get(key, 0) + a * b
    return {kl: v for kl, v in out.items() if v}


def _cone_and_join_graphs():
    """The graphs of the cone and join formulas, built per call, so a
    replaced ``family`` builds them too."""
    return {
        "L_3": family("dir_linear", 3),
        "rho(I_3)": family("linear", 3),
        "rho(K_3)": family("complete", 3),
        "directed C_4": family("dir_cycle", 4),
    }


def check_cones(r):
    for name, G in _cone_and_join_graphs().items():
        gmap = _rank_map(homology_table(G, "eulerian", "Q"))
        gmap[(-1, -1)] = 1
        want = _join_expected(gmap, {(-1, -1): 1, (0, 0): 1})
        got = _rank_map(homology_table(cone(G), "eulerian", "Q"))
        r.expect(got == want, f"cone rank formula for {name}")


def check_joins(r):
    graphs = _cone_and_join_graphs()
    maps = {}
    for name, G in graphs.items():
        maps[name] = _rank_map(homology_table(G, "eulerian", "Q"))
        maps[name][(-1, -1)] = 1
    for gname, G in graphs.items():
        for hname, H in graphs.items():
            want = _join_expected(maps[gname], maps[hname])
            got = _rank_map(homology_table(join(G, H), "eulerian", "Q"))
            r.expect(got == want, f"join rank formula for {gname} * {hname}")


def check_tournaments(r):
    tables = {
        n: _rank_map(homology_table(family("tournament", n), "eulerian", "Z"))
        for n in range(0, 6)
    }
    for n in range(0, 6):
        want = {(k, k): comb(n + 1, k + 1) for k in range(n + 1)}
        r.expect(tables[n] == want, f"T_{n} diagonal ranks are C(n+1, k+1)")
    for n in range(1, 6):
        r.expect(tables[n].get((0, 0), 0) == n + 1, f"T_{n} rank at (0,0) is |V|")
        r.expect(
            tables[n].get((1, 1), 0) == comb(n + 1, 2), f"T_{n} rank at (1,1) is |E|"
        )
        for k in range(1, n + 1):
            lhs = tables[n].get((k, k), 0)
            rhs = sum(tables[i].get((k - 1, k - 1), 0) for i in range(k - 1, n))
            r.expect(lhs == rhs, f"T_{n} recursion at k={k}")
        quad = sum(k * (n - k) for k in range(n + 1))
        r.expect(
            tables[n].get((2, 2), 0) == quad,
            f"T_{n} rank at (2,2) equals sum k(n-k) = {quad}",
        )


def check_les(r):
    cases = [
        (family("complete", 3), "rho(K_3)", 2),
        (family("cycle", 4), "rho(C_4)", 3),
        (family("cycle", 4), "rho(C_4)", 5),
        (family("tournament", 3), "T_3", 2),
    ]
    for G, name, l in cases:
        report = les_verify(G, l)
        r.expect(report["exact"], f"rank exactness for {name} at l={l}")
        for line in report["failures"]:
            r.info(f"  inexact: {line}")
    split = splitting_check(family("complete", 3))
    r.expect(split["splits"], "ordinary homology of rho(K_3) splits levelwise")
    try:
        splitting_check(family("linear", 4))
        r.expect(False, "splitting check rejects a non-diagonal graph")
    except GraphError:
        r.expect(True, "splitting check rejects a non-diagonal graph")


def check_rmpss(r):
    cases = {
        "rho(K_3)": family("complete", 3),
        "rho(K_4)": family("complete", 4),
        "T_4": family("tournament", 4),
        "L_4": family("dir_linear", 4),
        "directed C_4": family("dir_cycle", 4),
        "S_1": SPHERE_1,
        "S_2": SPHERE_2,
    }
    for name, G in cases.items():
        rep = rmpss_report(G)
        r.expect(rep["e1_matches_eulerian_homology"], f"{name}: page 1 is EMH")
        r.expect(
            rep["e2_diagonal_matches_strong_path_homology"],
            f"{name}: page-2 diagonal is regular path homology",
        )
        r.expect(
            rep["einf_totals_match_word_homology"],
            f"{name}: final page totals are injective-word homology",
        )
        # the sequence stabilises one page past the top injective-word weight
        incl = page_one_inclusion_report(G, rep["stable_page"] - 1)
        r.expect(
            incl["exact"],
            f"{name}: page-1 inclusion into the trail sequence sits in an exact "
            f"sequence ({len(incl['ranks'])} bidegrees)",
        )
    s1 = homology_table(SPHERE_1, "eulerian", "Z").rank(3, 3)
    s2 = homology_table(SPHERE_2, "eulerian", "Z").rank(3, 3)
    r.expect(
        s1 != s2,
        f"S_1 and S_2 differ at bidegree (3,3): ranks {s1} vs {s2}",
    )
    wh2 = {k: g.rank for k, g in chain_homology(trail_complex(SPHERE_2), "Z").items()}
    r.expect(wh2 == {0: 1, 2: 1}, "S_2: injective words give a 2-sphere")
    wh1 = {k: g.rank for k, g in chain_homology(trail_complex(SPHERE_1), "Z").items()}
    # vertex 0 of S_1 reaches everything, so its word complex is a cone
    r.expect(wh1 == {0: 1}, "S_1: injective words are contractible (cone on 0)")


def check_derangements(r):
    for n in (3, 4):
        got = path_homology(family("complete", n), strong=True, reduced=True)
        want = {n - 1: derangement_count(n)}
        r.expect(
            got == want,
            f"reduced regular path homology of rho(K_{n}) is D({n}) in degree {n - 1}",
        )
    t5 = path_homology(family("tournament", 5), strong=True, reduced=True)
    r.expect(t5 == {}, "reduced regular path homology of T_5 vanishes")
    rng = random.Random(5150)
    n = 6
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    tree = digraph(n, edges)
    got = path_homology(tree, strong=True, reduced=True)
    r.expect(got == {}, f"reduced regular path homology of a random directed tree {edges} vanishes")


def check_injective_words(r):
    for n in (3, 4):
        bk = family("bicomplete", n)
        reduced = reduced_homology(chain_homology(trail_complex(bk), "Z"))
        want = {n - 1: derangement_count(n)}
        r.expect(
            {k: g.rank for k, g in reduced.items()} == want
            and all(not g.torsion for g in reduced.values()),
            f"Inj(BK_{n}) reduced homology is free of rank D({n}) in degree {n - 1}",
        )
    bk3 = trail_complex(family("bicomplete", 3))
    r.expect(bk3.f_vector() == (3, 6, 6), "Inj(BK_3) counts 3 + 6 + 6 words")
    l3 = trail_complex(family("dir_linear", 3))
    r.expect(
        l3.f_vector() == (3, 3, 1)
        and reduced_homology(chain_homology(l3, "Z")) == {},
        "Inj(L_3) is the full 2-simplex and contractible",
    )
    for name, G in (
        ("L_3", family("dir_linear", 3)),
        ("S_1", SPHERE_1),
        ("S_2", SPHERE_2),
        ("T_3", family("tournament", 3)),
    ):
        r.expect(
            trail_complex(G) == injective_words_via_flag(G),
            f"Inj({name}) equals the directed flag complex of its reachability preorder",
        )
        r.expect(
            trail_complex(G) == trail_complex(reachability_preorder(G)),
            f"Inj({name}) is unchanged under reachability closure",
        )


def check_decategorification(r):
    cases = {
        "K_3": family("complete", 3),
        "C_4": family("cycle", 4),
        "L_4": family("dir_linear", 4),
        "T_3": family("tournament", 3),
        "S_1": SPHERE_1,
    }
    for name, G in cases.items():
        poly = regular_magnitude(G)
        table = homology_table(G, "eulerian", "Q")
        chi_by_l = {}
        for (k, l), g in table.items():
            chi_by_l[l] = chi_by_l.get(l, 0) + (-1) ** k * g.rank
        alternating = sum((-1) ** l * chi for l, chi in chi_by_l.items())
        r.expect(
            alternating == poly(-1),
            f"{name}: alternating-in-length homology sum equals the polynomial at -1",
        )
        inj = trail_complex(G)
        chi = inj.euler_characteristic()
        r.expect(
            poly(1) == chi,
            f"{name}: polynomial at +1 equals the injective-word Euler "
            f"characteristic ({chi})",
        )
        if poly(-1) != chi:
            r.info(
                f"  note: {name} value at -1 is {poly(-1)}, but chi(Inj) is {chi}; "
                "the +1 evaluation is the identity that holds (sign corrected)"
            )
        hom = chain_homology(inj, "Z")
        chi_hom = sum((-1) ** k * g.rank for k, g in hom.items())
        r.expect(chi_hom == chi, f"{name}: homological and cellwise chi agree")


def check_subgraph_network(r):
    k13 = rho(4, [(0, 1), (0, 2), (0, 3)])
    c4 = family("cycle", 4)
    r.expect(delta_distance(k13, c4) == 1, "Delta(K_1,3, C_4) = 1")
    net = subgraph_network(4)
    r.expect(
        net.node_count == 7,
        f"2^(K_4) has 7 isomorphism classes (computed {net.node_count})",
    )
    r.expect(
        net.diameter() == 3,
        f"diameter of 2^(K_4) is 3 = max degree of K_4 (computed {net.diameter()})",
    )
    r.info(
        f"computed structure: {net.node_count} classes, diameter {net.diameter()}, "
        f"input max degree {net.input_max_degree}"
    )
    r.expect(net.is_connected(), "2^(K_4) is connected")


def check_nonhomotopy(r):
    ranks = path_homology(family("complete", 3), strong=True)
    r.expect(
        ranks.get(2, 0) != 0,
        f"regular path homology of rho(K_3) is nonzero in degree 2 (rank {ranks.get(2, 0)})",
    )
    trivial = path_homology(point(), strong=True, reduced=True)
    r.expect(trivial == {}, "reduced regular path homology of the point vanishes")


def check_mh_truncated_report(r):
    cap = 4
    for name, G in (("rho(K_3)", family("complete", 3)), ("rho(C_4)", family("cycle", 4))):
        table = homology_table(G, "ordinary", "Q", l_max=cap)
        sums = {}
        for (k, l), g in table.items():
            sums[l] = sums.get(l, 0) + (-1) ** k * g.rank
        series = magnitude_series(G, cap)
        for l in range(cap + 1):
            coeff = series.coefficients[l] if l <= series.degree else 0
            r.expect(
                sums.get(l, 0) == coeff,
                f"{name} truncated alternating sum at l={l} matches the series "
                f"coefficient {coeff}",
            )
        r.info(
            f"{name} truncated (l <= {cap}) alternating sums reported, not asserted "
            f"against any closed form: {dict(sorted(sums.items()))}"
        )


CHECKS = {
    "complete_diagonal": check_complete_diagonal,
    "lower_triangular": check_lower_triangular,
    "cycle_extremes": check_cycle_extremes,
    "girth_vanishing": check_girth_vanishing,
    "charregdiag": check_charregdiag,
    "cones": check_cones,
    "joins": check_joins,
    "tournaments": check_tournaments,
    "les": check_les,
    "rmpss": check_rmpss,
    "derangements": check_derangements,
    "injective_words": check_injective_words,
    "decategorification": check_decategorification,
    "subgraph_network": check_subgraph_network,
    "nonhomotopy": check_nonhomotopy,
    "mh_truncated_report": check_mh_truncated_report,
}


def run_check(name):
    if name not in CHECKS:
        raise GraphError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    rec = Recorder()
    start = time.perf_counter()
    CHECKS[name](rec)
    elapsed = time.perf_counter() - start
    return CheckResult(
        name=name,
        passed=not rec.failures,
        seconds=elapsed,
        details=rec.details,
        failures=rec.failures,
    )


def run_suite(names=None, jobs=1):
    """Run the named checks (all by default), optionally across processes."""
    todo = list(CHECKS) if names is None else list(names)
    for name in todo:
        if name not in CHECKS:
            raise GraphError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    if jobs and jobs > 1 and len(todo) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_check, todo))
    return [run_check(name) for name in todo]
