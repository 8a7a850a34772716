"""The jobs of one pass of each workload, with their inputs and answers.

A job is one library call (``elimination``, ``fields``) or one
verification check (``paper``).  Every graph a job sees is relabeled by a
permutation drawn from the run's seed; every expected answer is a
labeling invariant, so ``expected.json`` holds for every seed.

Jobs call maghom through module attributes at call time, so the tracer's
patches in ``layers.py`` see every call.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("paper", "elimination", "fields")

# a job still running after this many seconds is stopped and counts as failed
JOB_CAP_S = 30.0

# the six random digraphs of ``elimination`` come from this generator seed,
# so every run sees the same graphs up to relabeling
RANDOM_GRAPH_SEED = 7
RANDOM_GRAPHS = 6
RANDOM_N = 7
RANDOM_P = 0.3

PAPER_ARGV = ["verify-paper", "--jobs", "1", "--format", "json"]


def relabel(G, seed):
    """G with its vertices permuted by a permutation drawn from seed.

    The permutation depends only on (seed, G), so equal inputs stay equal
    and the program's per-graph caches are hit exactly as without it.
    """
    from maghom.graphs import DirectedGraph

    rng = random.Random(f"{seed}|{G.n}|{sorted(G.edges)}|{G.symmetric}")
    perm = list(range(G.n))
    rng.shuffle(perm)
    edges = frozenset((perm[u], perm[v]) for u, v in G.edges)
    return DirectedGraph(G.n, edges, symmetric=G.symmetric)


def random_digraphs():
    from maghom.graphs import digraph

    rng = random.Random(RANDOM_GRAPH_SEED)
    out = []
    for _ in range(RANDOM_GRAPHS):
        edges = [
            (a, b)
            for a in range(RANDOM_N)
            for b in range(RANDOM_N)
            if a != b and rng.random() < RANDOM_P
        ]
        out.append(digraph(RANDOM_N, edges))
    return out


def canonical(value):
    """JSON round trip: int keys become strings, tuples become lists."""
    return json.loads(json.dumps(value, sort_keys=True))


def _groups(table):
    return table.to_json_dict()["groups"]


def _ranks(ranks):
    return {str(k): r for k, r in sorted(ranks.items())}


def _poly(poly):
    return poly.to_json_dict()


def elimination_jobs(seed):
    """(name, call, answer) triples; call runs the job, answer normalizes."""
    from maghom import graphs, homology, invariants

    def g(name, n):
        return relabel(graphs.family(name, n), seed)

    c7, c5, dc5 = g("cycle", 7), g("cycle", 5), g("dir_cycle", 5)
    table = homology.homology_table
    jobs = [
        ("emh cycle:7", lambda: table(c7, "eulerian", "Z"), _groups),
        ("mh cycle:5 l<=7", lambda: table(c5, "ordinary", "Z", l_max=7), _groups),
        # same graph object as the job before, so its trails are reused
        ("dmh cycle:5 l<=7", lambda: table(c5, "discriminant", "Z", l_max=7), _groups),
        ("mh dir_cycle:5 l<=9", lambda: table(dc5, "ordinary", "Z", l_max=9), _groups),
    ]
    for i, G in enumerate(random_digraphs()):
        G = relabel(G, seed)
        jobs += [
            (f"emh rand{i}", lambda G=G: table(G, "eulerian", "Z"), _groups),
            (f"rmagnitude rand{i}", lambda G=G: invariants.regular_magnitude(G), _poly),
            (
                f"magnitude rand{i} l<=6",
                lambda G=G: invariants.magnitude_series(G, 6),
                _poly,
            ),
        ]
    return jobs


def fields_jobs(seed):
    from maghom import graphs, homology, pathhom, spectral

    def g(name, n):
        return relabel(graphs.family(name, n), seed)

    c4, c5 = g("cycle", 4), g("cycle", 5)
    k4, t5 = g("complete", 4), g("tournament", 5)
    ph = pathhom.path_homology
    return [
        ("ph Q cycle:5 k<=4", lambda: ph(c5, kmax=4, ring="Q"), _ranks),
        ("ph Q complete:4 k<=3", lambda: ph(k4, kmax=3, ring="Q"), _ranks),
        ("ph F2 complete:4 k<=4", lambda: ph(k4, kmax=4, ring=2), _ranks),
        ("rph Q tournament:5", lambda: ph(t5, strong=True, ring="Q"), _ranks),
        ("rmpss complete:4", lambda: spectral.rmpss_report(k4), canonical),
        ("rmpss tournament:5", lambda: spectral.rmpss_report(t5), canonical),
        ("rmpss cycle:4", lambda: spectral.rmpss_report(c4), canonical),
        ("les cycle:5 l=5", lambda: homology.les_verify(c5, 5), canonical),
        ("mpss cycle:4 l<=4", lambda: spectral.mpss_report(c4, 4), canonical),
    ]


JOB_BUILDERS = {"elimination": elimination_jobs, "fields": fields_jobs}


def relabel_paper_inputs(seed):
    """Relabel every graph the verification checks construct.

    The checks build their graphs through constructors imported by name
    into ``maghom.verify``; those bindings and the two module-level
    sphere graphs are replaced.  Graphs the checks derive from these
    (cones, joins, closures) inherit the relabeling.
    """
    from maghom import verify

    def relabeled(make):
        def build(*args, **kwargs):
            return relabel(make(*args, **kwargs), seed)

        return build

    for name in ("digraph", "family", "point", "rho"):
        setattr(verify, name, relabeled(getattr(verify, name)))
    verify.SPHERE_1 = relabel(verify.SPHERE_1, seed)
    verify.SPHERE_2 = relabel(verify.SPHERE_2, seed)


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def job_names(workload, expected):
    if workload == "paper":
        return list(expected["paper"]["checks"])
    return list(expected[workload])
