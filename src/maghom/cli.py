"""Command line front end.

Two entry points: ``maghom compute <what>`` runs one computation and
prints a report, ``maghom verify-paper`` runs the named reproduction
checks.  JSON output is deterministic for a fixed configuration (sorted
keys, no timestamps); per-check timing goes to stderr and to the
markdown rendering only.  Exit codes: 0 success, 1 verification
failure or internal error (an ArithmeticError or a bare ValueError),
2 usage error (a GraphError), 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .errors import GraphError, MaghomError, ParseError, ResourceCapError
from .graphs import family, is_weakly_connected, parse_graph
from .chains import trail_complex
from .homology import chain_homology, homology_table, parse_ring, ring_name
from .invariants import (
    classify_diagonality,
    complete_graph_detector,
    delta_distance,
    gamma,
    magnitude_series,
    regular_magnitude,
)
from .pathhom import path_homology
from .spectral import mpss_report, rmpss_report
from .verify import CHECKS, run_suite

# which optional flags each compute subcommand understands
_TAKES = {
    "emh": {"ring", "lmax", "kmax"},
    "mh": {"ring", "lmax", "kmax"},
    "dmh": {"ring", "lmax", "kmax"},
    "ph": {"ring", "kmax"},
    "rph": {"ring", "kmax"},
    "inj": {"ring"},
    "rmpss": {"ring", "rmax"},
    "mpss": {"ring", "lmax", "rmax"},
    "magnitude": {"lmax"},
    "rmagnitude": set(),
    "diag": {"lmax"},
    "delta": set(),
    "gamma": set(),
}


@dataclass
class RunConfig:
    command: str
    family: str | None = None
    input: str | None = None
    family2: str | None = None
    input2: str | None = None
    ring: object = "Z"
    lmax: int | None = None
    kmax: int | None = None
    rmax: int | None = None
    n: int | None = None
    s: int | None = None
    format: str = "json"
    jobs: int = 1


def _family_graph(spec):
    name, _, params = spec.partition(":")
    if not params:
        raise GraphError(f"family spec {spec!r} needs the form name:n")
    try:
        args = [int(tok) for tok in params.split(",")]
    except ValueError:
        raise GraphError(f"family parameters in {spec!r} must be integers")
    if len(args) != 1:
        raise GraphError(f"family {name!r} takes exactly one parameter")
    return family(name, args[0])


def _load_graph(cfg, suffix=""):
    fam = getattr(cfg, "family" + suffix)
    path = getattr(cfg, "input" + suffix)
    if (fam is None) == (path is None):
        raise GraphError(f"pass exactly one of --family{suffix} or --input{suffix}")
    if fam is not None:
        return _family_graph(fam)
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc.strerror}")


def _check_flags(cfg):
    allowed = _TAKES[cfg.command]
    for flag in ("lmax", "kmax", "rmax"):
        value = getattr(cfg, flag)
        if value is None:
            continue
        if flag not in allowed:
            raise GraphError(f"--{flag} does not apply to {cfg.command!r}")
        if value < 0:
            raise GraphError(f"--{flag} must be non-negative, got {value}")
    if cfg.ring != "Z" and "ring" not in allowed:
        raise GraphError(f"--ring does not apply to {cfg.command!r}")
    if cfg.command == "gamma":
        if cfg.family or cfg.input:
            raise GraphError("gamma takes --n and --s, not a graph")
        if cfg.n is None or cfg.s is None:
            raise GraphError("gamma needs both --n and --s")
    elif cfg.n is not None or cfg.s is not None:
        raise GraphError(f"--n/--s only apply to 'gamma', not {cfg.command!r}")
    if cfg.command != "delta" and (cfg.family2 or cfg.input2):
        raise GraphError("--family2/--input2 only apply to 'delta'")


def _field_ring(cfg, what):
    if cfg.ring == "Z":
        raise GraphError(f"{what} needs field coefficients; use --ring Q or Fp:<p>")
    return cfg.ring


def _group_dict(groups):
    return {
        str(k): {"rank": g.rank, "torsion": list(g.torsion)}
        for k, g in sorted(groups.items())
    }


def _cmd_table(cfg, kind):
    G = _load_graph(cfg)
    if kind != "eulerian" and cfg.lmax is None:
        raise GraphError(f"the {kind} complex is unbounded in length; pass --lmax")
    table = homology_table(G, kind, cfg.ring, l_max=cfg.lmax)
    if cfg.kmax is not None:
        table.entries = {
            (k, l): g for (k, l), g in table.entries.items() if k <= cfg.kmax
        }
    data = table.to_json_dict()
    if cfg.kmax is not None:
        data["k_max"] = cfg.kmax
    return data, table.to_csv, table.to_markdown


def _cmd_path(cfg, strong):
    G = _load_graph(cfg)
    label = "regular path homology" if strong else "path homology"
    ring = _field_ring(cfg, label)
    if not strong and cfg.kmax is None:
        raise GraphError("path chains are unbounded in degree; pass --kmax")
    ranks = path_homology(G, kmax=cfg.kmax, strong=strong, ring=ring)
    cap = G.n - 1 if strong and cfg.kmax is None else cfg.kmax
    data = {
        "kind": "regular_path" if strong else "path",
        "ring": ring_name(ring),
        "n": G.n,
        "k_max": cap,
        "certified": strong,
        "ranks": {str(k): r for k, r in sorted(ranks.items())},
    }

    def as_csv():
        lines = ["degree,rank"]
        lines += [f"{k},{r}" for k, r in sorted(ranks.items())]
        return "\n".join(lines) + "\n"

    return data, as_csv, None


def _cmd_inj(cfg):
    G = _load_graph(cfg)
    complex_ = trail_complex(G)
    hom = chain_homology(complex_, cfg.ring)
    red = chain_homology(complex_, cfg.ring, reduced=True)
    data = {
        "kind": "injective_words",
        "ring": ring_name(cfg.ring),
        "n": G.n,
        "certified": True,
        "f_vector": list(complex_.f_vector()),
        "euler_characteristic": complex_.euler_characteristic(),
        "homology": _group_dict(hom),
        "reduced_homology": _group_dict(red),
    }

    def as_csv():
        f = complex_.f_vector()
        lines = ["degree,cells,rank,torsion"]
        for k in range(len(f)):
            g = hom.get(k)
            rank = g.rank if g else 0
            tors = ";".join(str(d) for d in g.torsion) if g else ""
            lines.append(f"{k},{f[k]},{rank},{tors}")
        return "\n".join(lines) + "\n"

    return data, as_csv, None


def _cmd_rmpss(cfg):
    G = _load_graph(cfg)
    ring = cfg.ring if cfg.ring != "Z" else "Q"
    data = rmpss_report(G, ring=ring, rmax=cfg.rmax)
    data = {"kind": "rmpss", "ring": ring_name(ring), "certified": True, **data}
    return data, None, None


def _cmd_mpss(cfg):
    G = _load_graph(cfg)
    if cfg.lmax is None:
        raise GraphError("the ordinary sequence is unbounded; pass --lmax")
    ring = cfg.ring if cfg.ring != "Z" else "Q"
    rmax = 2 if cfg.rmax is None else cfg.rmax
    data = mpss_report(G, cfg.lmax, ring=ring, rmax=rmax)
    data = {"kind": "mpss", "ring": ring_name(ring), **data}
    return data, None, None


def _series_report(kind, poly, extra):
    data = {
        "kind": kind,
        "coefficients": poly.to_json_dict(),
        "display": str(poly),
        **extra,
    }

    def as_csv():
        lines = ["degree,coefficient"]
        lines += [
            f"{i},{c}" for i, c in enumerate(poly.coefficients) if c
        ]
        return "\n".join(lines) + "\n"

    return data, as_csv, None


def _cmd_magnitude(cfg):
    G = _load_graph(cfg)
    if cfg.lmax is None:
        raise GraphError("the magnitude series is infinite; pass --lmax")
    poly = magnitude_series(G, cfg.lmax)
    return _series_report(
        "magnitude_series", poly, {"l_max": cfg.lmax, "certified": False}
    )


def _cmd_rmagnitude(cfg):
    G = _load_graph(cfg)
    poly = regular_magnitude(G)
    return _series_report("regular_magnitude", poly, {"certified": True})


def _cmd_diag(cfg):
    G = _load_graph(cfg)
    data = dict(classify_diagonality(G, l_max=cfg.lmax))
    data["kind"] = "diagonality"
    if G.symmetric and is_weakly_connected(G) and G.n:
        det = complete_graph_detector(G)
        data["complete_detector"] = det
    return data, None, None


def _cmd_delta(cfg):
    G = _load_graph(cfg)
    H = _load_graph(cfg, "2")
    value = delta_distance(G, H)
    data = {"kind": "delta", "n": G.n, "value": value, "certified": True}

    def as_csv():
        return f"n,delta\n{G.n},{value}\n"

    return data, as_csv, None


def _cmd_gamma(cfg):
    value = gamma(cfg.n, cfg.s)
    data = {"kind": "gamma", "n": cfg.n, "s": cfg.s, "value": value, "certified": True}

    def as_csv():
        return f"n,s,gamma\n{cfg.n},{cfg.s},{value}\n"

    return data, as_csv, None


def _render_md(data, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for key in sorted(data, key=str):
            value = data[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}- **{key}**:")
                lines.extend(_render_md(value, indent + 1))
            else:
                lines.append(f"{pad}- **{key}**: {json.dumps(value)}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}-")
                lines.extend(_render_md(value, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(value)}")
    return lines


def _emit(data, as_csv, as_md, fmt):
    if fmt == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
    elif fmt == "csv":
        if as_csv is None:
            raise GraphError("this report has no tabular form; use json or md")
        sys.stdout.write(as_csv())
    else:
        if as_md is not None:
            sys.stdout.write(as_md())
        else:
            print("\n".join(_render_md(data)))


def cmd_compute(cfg):
    _check_flags(cfg)
    dispatch = {
        "emh": lambda: _cmd_table(cfg, "eulerian"),
        "mh": lambda: _cmd_table(cfg, "ordinary"),
        "dmh": lambda: _cmd_table(cfg, "discriminant"),
        "ph": lambda: _cmd_path(cfg, strong=False),
        "rph": lambda: _cmd_path(cfg, strong=True),
        "inj": lambda: _cmd_inj(cfg),
        "rmpss": lambda: _cmd_rmpss(cfg),
        "mpss": lambda: _cmd_mpss(cfg),
        "magnitude": lambda: _cmd_magnitude(cfg),
        "rmagnitude": lambda: _cmd_rmagnitude(cfg),
        "diag": lambda: _cmd_diag(cfg),
        "delta": lambda: _cmd_delta(cfg),
        "gamma": lambda: _cmd_gamma(cfg),
    }
    data, as_csv, as_md = dispatch[cfg.command]()
    _emit(data, as_csv, as_md, cfg.format)
    return 0


def cmd_verify_paper(cfg, names):
    if names:
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            raise GraphError(
                f"unknown check(s) {', '.join(unknown)}; known: {', '.join(CHECKS)}"
            )
    results = run_suite(names or None, jobs=cfg.jobs)
    for res in results:
        mark = "ok " if res.passed else "FAIL"
        print(f"{mark} {res.name:24s} {res.seconds:7.2f}s", file=sys.stderr)
    failures = [
        {"check": res.name, "label": label}
        for res in results
        for label in res.failures
    ]
    # timing stays off the json report so identical runs stay byte-identical
    data = {
        "passed": not failures,
        "checks": [
            {
                "name": res.name,
                "passed": res.passed,
                "details": res.details,
                "failures": res.failures,
            }
            for res in results
        ],
        "failures": failures,
    }
    if cfg.format == "md":
        lines = ["| check | result | seconds |", "|-------|--------|---------|"]
        for res in results:
            word = "pass" if res.passed else "FAIL"
            lines.append(f"| {res.name} | {word} | {res.seconds:.2f} |")
        for item in failures:
            lines.append(f"- FAIL {item['check']}: {item['label']}")
        print("\n".join(lines))
    elif cfg.format == "csv":
        raise GraphError("the verification report has no tabular form; use json or md")
    else:
        print(json.dumps(data, sort_keys=True, indent=2))
    return 0 if not failures else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maghom",
        description="Magnitude, path, and injective-word homology of finite digraphs.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    comp = sub.add_parser("compute", help="run one computation and print a report")
    comp.add_argument("what", choices=tuple(_TAKES))
    comp.add_argument("--family", help="family spec name:n, e.g. complete:4")
    comp.add_argument("--input", help="path to an edge-list file")
    comp.add_argument("--family2", help="second graph for delta")
    comp.add_argument("--input2", help="second graph file for delta")
    comp.add_argument("--ring", default="Z", help="Z, Q, or Fp:<p> (default Z)")
    comp.add_argument("--lmax", type=int, help="length cutoff")
    comp.add_argument("--kmax", type=int, help="degree cutoff")
    comp.add_argument("--rmax", type=int, help="deepest spectral page to emit")
    comp.add_argument("--n", type=int, help="vertex count (gamma)")
    comp.add_argument("--s", type=int, help="edge deficit (gamma)")
    comp.add_argument("--format", choices=("json", "csv", "md"), default="json")

    ver = sub.add_parser("verify-paper", help="run the reproduction checks")
    ver.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run just this check (repeatable); see --list",
    )
    ver.add_argument("--list", action="store_true", help="list check names and exit")
    ver.add_argument("--jobs", type=int, default=1, help="worker processes")
    ver.add_argument("--format", choices=("json", "csv", "md"), default="json")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.mode == "verify-paper":
            if args.jobs < 1:
                parser.error("--jobs must be at least 1")
            if args.list:
                for name in CHECKS:
                    print(name)
                return 0
            cfg = RunConfig(command="verify", format=args.format, jobs=args.jobs)
            return cmd_verify_paper(cfg, args.only)
        try:
            ring = parse_ring(args.ring)
        except ValueError as exc:
            raise GraphError(str(exc))
        cfg = RunConfig(
            command=args.what,
            family=args.family,
            input=args.input,
            family2=args.family2,
            input2=args.input2,
            ring=ring,
            lmax=args.lmax,
            kmax=args.kmax,
            rmax=args.rmax,
            n=args.n,
            s=args.s,
            format=args.format,
        )
        return cmd_compute(cfg)
    except ResourceCapError as exc:
        print(f"maghom: resource cap: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"maghom: parse error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"maghom: {exc}", file=sys.stderr)
        return 2
    except MaghomError as exc:
        print(f"maghom: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, ValueError) as exc:
        print(f"maghom: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
