"""Regenerate ``expected.json`` and cross-check it against oracles.

Usage: python3 perfbench/make_expected.py [--write]

Every answer is computed by maghom under two relabelings, which must
agree, and then checked against an oracle that shares no code with
maghom: cells are enumerated here, boundaries are built here, and ranks
come from sympy's sparse elimination over Q and over small prime fields.
Where a report's numbers are spectral pages or map ranks, the check is
the decategorification identity: an alternating sum of homology ranks
equals the alternating sum of cell counts.  Needs sympy; the benchmark
itself does not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from collections import deque

from sympy.polys.domains import GF, QQ, ZZ
from sympy.polys.matrices import DomainMatrix

import workloads

sys.path.insert(0, str(workloads.HERE.parent / "src"))

PRIMES = (2, 3, 5, 7, 11, 13)
INF = float("inf")


# --------------------------------------------------------------------------
# independent cells, boundaries and ranks


def distances(G):
    adj = [[] for _ in range(G.n)]
    for u, v in G.edges:
        adj[u].append(v)
    out = []
    for s in range(G.n):
        dist = [INF] * G.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] == INF:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        out.append(dist)
    return out


def trails(G, kind, l_max):
    """{(k, l): [trail, ...]} for eulerian, ordinary or discriminant."""
    dist = distances(G)
    out = {}

    def grow(t, length):
        distinct = len(set(t)) == len(t)
        if kind == "ordinary" or (kind == "eulerian") == distinct:
            out.setdefault((len(t) - 1, length), []).append(t)
        for v in range(G.n):
            d = dist[t[-1]][v]
            if v == t[-1] or d == INF or length + d > l_max:
                continue
            if kind == "eulerian" and v in t:
                continue
            grow(t + (v,), length + d)

    for x in range(G.n):
        grow((x,), 0)
    return out


def trail_boundary(G, cells, k, l):
    """Interior deletions that keep the length, as {row: {col: value}}."""
    dist = distances(G)
    index = {t: i for i, t in enumerate(cells.get((k - 1, l), []))}
    rows = {}
    for j, t in enumerate(cells.get((k, l), [])):
        for i in range(1, k):
            if dist[t[i - 1]][t[i]] + dist[t[i]][t[i + 1]] != dist[t[i - 1]][t[i + 1]]:
                continue
            row = index.get(t[:i] + t[i + 1 :])
            if row is not None:
                entry = rows.setdefault(row, {})
                entry[j] = entry.get(j, 0) + (-1) ** i
    return rows


def rank(rows, shape, p=None):
    """Rank of a sparse integer matrix over Q (p None) or over F_p."""
    if not rows or 0 in shape:
        return 0
    data = {r: {c: ZZ(v) for c, v in row.items() if v} for r, row in rows.items()}
    data = {r: row for r, row in data.items() if row}
    if not data:
        return 0
    return DomainMatrix(data, shape, ZZ).convert_to(QQ if p is None else GF(p)).rank()


def oracle_table(G, kind, l_max, groups):
    """Ranks and small-prime torsion of every bidegree, via sympy."""
    cells = trails(G, kind, l_max)
    size = {kl: len(v) for kl, v in cells.items()}
    q_rank, p_rank = {}, {}
    for (k, l) in cells:
        if k >= 1:
            rows = trail_boundary(G, cells, k, l)
            shape = (size.get((k - 1, l), 0), size[(k, l)])
            q_rank[(k, l)] = rank(rows, shape)
            p_rank[(k, l)] = {p: rank(rows, shape, p) for p in PRIMES}
    for (k, l), dim in size.items():
        h = dim - q_rank.get((k, l), 0) - q_rank.get((k + 1, l), 0)
        got = groups.get(f"{k},{l}", {"rank": 0, "torsion": []})
        assert got["rank"] == h, (kind, k, l, got, h)
        for p in PRIMES:
            drop = q_rank.get((k + 1, l), 0) - p_rank.get((k + 1, l), {}).get(p, 0)
            assert sum(1 for d in got["torsion"] if d % p == 0) == drop, (kind, k, l, p)
    for key in groups:
        k, l = map(int, key.split(","))
        assert (k, l) in size, (kind, key)
    return cells


def signed_counts(cells):
    out = {}
    for (k, l), ts in cells.items():
        out[l] = out.get(l, 0) + (-1) ** k * len(ts)
    return {l: c for l, c in out.items() if c}


def poly_map(poly_json):
    return {int(l): c for l, c in poly_json.items()}


def allowed(G, n, strong):
    adj = [sorted(v for (u, v) in G.edges if u == x) for x in range(G.n)]
    out = [(x,) for x in range(G.n)]
    for _ in range(n):
        out = [p + (v,) for p in out for v in adj[p[-1]] if not (strong and v in p)]
    return out


def oracle_path_homology(G, top, strong, p):
    """H_n = |A_n| - rank full_n - rank full_{n+1} + rank stray_{n+1}."""
    paths = {n: allowed(G, n, strong) for n in range(top + 3)}

    def ranks(n):
        lower = {t: i for i, t in enumerate(paths[n - 1])}
        stray_index = {}
        full, stray = {}, {}
        for j, t in enumerate(paths[n]):
            for i in range(len(t)):
                face, sign = t[:i] + t[i + 1 :], (-1) ** i
                if face in lower:
                    row = full.setdefault(lower[face], {})
                    row[j] = row.get(j, 0) + sign
                else:
                    r = stray_index.setdefault(face, len(stray_index))
                    row = stray.setdefault(r, {})
                    row[j] = row.get(j, 0) + sign
                    frow = full.setdefault(len(lower) + r, {})
                    frow[j] = frow.get(j, 0) + sign
        shape_full = (len(lower) + len(stray_index), len(paths[n]))
        return rank(full, shape_full, p), rank(stray, (len(stray_index), len(paths[n])), p)

    r = {n: ranks(n) for n in range(1, top + 2)}
    out = {}
    for n in range(top + 1):
        h = len(paths[n]) - (r[n][0] if n else 0) - r[n + 1][0] + r[n + 1][1]
        if h:
            out[str(n)] = h
    return out


# --------------------------------------------------------------------------
# per-job oracles


def check_elimination(seed, answers):
    from maghom import graphs

    def g(name, n):
        return workloads.relabel(graphs.family(name, n), seed)

    # all-distinct trails of C_7 are at most (n - 1) * diameter = 6 * 3 long
    oracle_table(g("cycle", 7), "eulerian", 6 * 3, answers["emh cycle:7"])
    oracle_table(g("cycle", 5), "ordinary", 7, answers["mh cycle:5 l<=7"])
    oracle_table(g("cycle", 5), "discriminant", 7, answers["dmh cycle:5 l<=7"])
    oracle_table(g("dir_cycle", 5), "ordinary", 9, answers["mh dir_cycle:5 l<=9"])
    for i, G in enumerate(workloads.random_digraphs()):
        G = workloads.relabel(G, seed)
        bound = (G.n - 1) * max(
            (d for row in distances(G) for d in row if d != INF), default=0
        )
        cells = oracle_table(G, "eulerian", bound, answers[f"emh rand{i}"])
        assert poly_map(answers[f"rmagnitude rand{i}"]) == signed_counts(cells), i
        series = signed_counts(trails(G, "ordinary", 6))
        assert poly_map(answers[f"magnitude rand{i} l<=6"]) == series, i


def words_euler(G):
    cells = trails(G, "eulerian", INF)
    return sum((-1) ** k * len(ts) for (k, _), ts in cells.items())


def check_rmpss(G, rep):
    assert rep["e1_matches_eulerian_homology"], rep
    assert rep["e2_diagonal_matches_strong_path_homology"], rep
    assert rep["einf_totals_match_word_homology"], rep
    e1 = {}
    for entry in rep["pages"][0]["entries"]:
        e1[entry["l"]] = e1.get(entry["l"], 0) + (-1) ** entry["k"] * entry["rank"]
    assert {l: c for l, c in e1.items() if c} == signed_counts(trails(G, "eulerian", INF))
    chi = sum((-1) ** int(k) * r for k, r in rep["einf_totals"].items())
    assert chi == words_euler(G), (chi, words_euler(G))


def check_fields(seed, answers):
    from maghom import graphs

    def g(name, n):
        return workloads.relabel(graphs.family(name, n), seed)

    c4, c5, k4, t5 = g("cycle", 4), g("cycle", 5), g("complete", 4), g("tournament", 5)
    assert answers["ph Q cycle:5 k<=4"] == oracle_path_homology(c5, 4, False, None)
    assert answers["ph Q complete:4 k<=3"] == oracle_path_homology(k4, 3, False, None)
    assert answers["ph F2 complete:4 k<=4"] == oracle_path_homology(k4, 4, False, 2)
    assert answers["rph Q tournament:5"] == oracle_path_homology(t5, t5.n - 1, True, None)
    check_rmpss(k4, answers["rmpss complete:4"])
    check_rmpss(t5, answers["rmpss tournament:5"])
    check_rmpss(c4, answers["rmpss cycle:4"])

    les = answers["les cycle:5 l=5"]
    assert les["exact"], les
    for kind in ("eulerian", "ordinary", "discriminant"):
        chi = sum((-1) ** int(k) * r for k, r in les[kind].items())
        assert chi == signed_counts(trails(c5, kind, 5)).get(5, 0), kind

    mpss = answers["mpss cycle:4 l<=4"]
    assert mpss["e1_matches_ordinary_homology"], mpss
    assert mpss["page_one_inclusion"] is None or mpss["page_one_inclusion"]["commutes"]
    e1 = {}
    for entry in mpss["pages"][0]["entries"]:
        e1[entry["l"]] = e1.get(entry["l"], 0) + (-1) ** entry["k"] * entry["rank"]
    assert {l: c for l, c in e1.items() if c} == signed_counts(trails(c4, "ordinary", 4))


# --------------------------------------------------------------------------


def library_answers(workload, seed):
    return {
        name: answer(call())
        for name, call, answer in workloads.JOB_BUILDERS[workload](seed)
    }


def paper_answer(seed):
    """Run the verifier in a clean interpreter state for one relabeling."""
    for name in [m for m in sys.modules if m == "maghom" or m.startswith("maghom.")]:
        del sys.modules[name]
    from maghom import cli

    workloads.relabel_paper_inputs(seed)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(workloads.PAPER_ARGV))
    report = json.loads(out.getvalue())
    checks = {
        c["name"]: {"passed": c["passed"], "failures": c["failures"]}
        for c in report["checks"]
    }
    return {"exit_code": code, "checks": checks}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="write expected.json")
    args = parser.parse_args(argv)

    expected = {}
    for workload, oracle in (("elimination", check_elimination), ("fields", check_fields)):
        first = library_answers(workload, 0)
        for seed in (0, 1):
            answers = first if seed == 0 else library_answers(workload, seed)
            assert answers == first, f"{workload}: answer depends on the labeling"
            oracle(seed, answers)
        expected[workload] = first
        print(f"{workload}: {len(first)} answers agree with the oracles")

    paper = paper_answer(0)
    assert paper == paper_answer(1), "paper: verdict depends on the labeling"
    failing = [name for name, c in paper["checks"].items() if not c["passed"]]
    # the documented verdict: 15 checks pass, criterion 13 fails by design
    assert len(paper["checks"]) == 16 and failing == ["subgraph_network"], failing
    assert paper["exit_code"] == 1
    expected["paper"] = paper
    print("paper: 15 checks pass, subgraph_network fails as documented")

    if args.write:
        with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=False)
            fh.write("\n")
        print(f"wrote {workloads.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
