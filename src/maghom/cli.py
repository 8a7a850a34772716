"""Command line front end.

Two entry points: ``maghom compute <what>`` runs one computation and
prints a report, ``maghom verify-paper`` runs the named reproduction
checks.  Each computation in ``COMMANDS`` has a parser of its own, so
``maghom compute <what> --help`` lists exactly the flags it takes.  JSON
output is deterministic for a fixed configuration (sorted keys, no
timestamps); per-check timing goes to stderr and to the markdown
rendering only.  Exit codes: 0 success, 1 verification failure or
internal error (an ArithmeticError or a bare ValueError), 2 usage error
(an argparse usage error or a GraphError), 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .errors import GraphError, MaghomError, ParseError, ResourceCapError
from .graphs import family, is_weakly_connected, parse_graph
from .chains import trail_complex
from .homology import (
    chain_homology,
    homology_table,
    parse_field,
    parse_ring,
    reduced_homology,
    ring_name,
)
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


def _ring(text, field=False):
    try:
        return parse_field(text, "needs") if field else parse_ring(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _count(text, least=0):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


# flag, argparse type, default, help; "field" is --ring over a field
_OPTIONS = {
    "ring": ("--ring", _ring, "Z", "Z, Q, or Fp:<p>"),
    "field": ("--ring", partial(_ring, field=True), "Q", "Q or Fp:<p>"),
    "lmax": ("--lmax", _count, None, "length cutoff"),
    "kmax": ("--kmax", _count, None, "degree cutoff"),
    "rmax": ("--rmax", _count, None, "deepest spectral page to emit"),
    "n": ("--n", int, None, "vertex count"),
    "s": ("--s", int, None, "edge deficit"),
}


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


def _load_graph(args, suffix=""):
    spec = getattr(args, "family" + suffix)
    if spec is not None:
        return _family_graph(spec)
    path = getattr(args, "input" + suffix)
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc.strerror}")


def _group_dict(groups):
    return {
        str(k): {"rank": g.rank, "torsion": list(g.torsion)}
        for k, g in sorted(groups.items())
    }


def _cmd_table(kind, args):
    G = _load_graph(args)
    table = homology_table(G, kind, args.ring, l_max=args.lmax)
    if args.kmax is not None:
        table.entries = {
            (k, l): g for (k, l), g in table.entries.items() if k <= args.kmax
        }
    data = table.to_json_dict()
    if args.kmax is not None:
        data["k_max"] = args.kmax
    return data, table.to_csv, table.to_markdown


def _cmd_path(args, strong):
    G = _load_graph(args)
    ranks = path_homology(G, kmax=args.kmax, strong=strong, ring=args.ring)
    cap = G.n - 1 if strong and args.kmax is None else args.kmax
    data = {
        "kind": "regular_path" if strong else "path",
        "ring": ring_name(args.ring),
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


def _cmd_inj(args):
    G = _load_graph(args)
    complex_ = trail_complex(G)
    hom = chain_homology(complex_, args.ring)
    red = reduced_homology(hom)
    data = {
        "kind": "injective_words",
        "ring": ring_name(args.ring),
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


def _cmd_rmpss(args):
    G = _load_graph(args)
    data = rmpss_report(G, ring=args.ring, rmax=args.rmax)
    data = {"kind": "rmpss", "ring": ring_name(args.ring), "certified": True, **data}
    return data, None, None


def _cmd_mpss(args):
    G = _load_graph(args)
    rmax = 2 if args.rmax is None else args.rmax
    data = mpss_report(G, args.lmax, ring=args.ring, rmax=rmax)
    data = {"kind": "mpss", "ring": ring_name(args.ring), **data}
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


def _cmd_magnitude(args):
    G = _load_graph(args)
    poly = magnitude_series(G, args.lmax)
    return _series_report(
        "magnitude_series", poly, {"l_max": args.lmax, "certified": False}
    )


def _cmd_rmagnitude(args):
    G = _load_graph(args)
    poly = regular_magnitude(G)
    return _series_report("regular_magnitude", poly, {"certified": True})


def _cmd_diag(args):
    G = _load_graph(args)
    data = dict(classify_diagonality(G, l_max=args.lmax))
    data["kind"] = "diagonality"
    if G.symmetric and is_weakly_connected(G) and G.n:
        det = complete_graph_detector(G)
        data["complete_detector"] = det
    return data, None, None


def _cmd_delta(args):
    G = _load_graph(args)
    H = _load_graph(args, "2")
    value = delta_distance(G, H)
    data = {"kind": "delta", "n": G.n, "value": value, "certified": True}

    def as_csv():
        return f"n,delta\n{G.n},{value}\n"

    return data, as_csv, None


def _cmd_gamma(args):
    n, s = args.n, args.s
    value = gamma(n, s)
    data = {"kind": "gamma", "n": n, "s": s, "value": value, "certified": True}

    def as_csv():
        return f"n,s,gamma\n{n},{s},{value}\n"

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


# each compute command: handler, options ("graph" is --family | --input,
# "graph2" the second graph of delta, a trailing "!" marks a required option)
COMMANDS = {
    "emh": (partial(_cmd_table, "eulerian"), ("graph", "ring", "lmax", "kmax")),
    "mh": (partial(_cmd_table, "ordinary"), ("graph", "ring", "lmax!", "kmax")),
    "dmh": (partial(_cmd_table, "discriminant"), ("graph", "ring", "lmax!", "kmax")),
    "ph": (partial(_cmd_path, strong=False), ("graph", "field!", "kmax!")),
    "rph": (partial(_cmd_path, strong=True), ("graph", "field!", "kmax")),
    "inj": (_cmd_inj, ("graph", "ring")),
    "rmpss": (_cmd_rmpss, ("graph", "field", "rmax")),
    "mpss": (_cmd_mpss, ("graph", "field", "lmax!", "rmax")),
    "magnitude": (_cmd_magnitude, ("graph", "lmax!")),
    "rmagnitude": (_cmd_rmagnitude, ("graph",)),
    "diag": (_cmd_diag, ("graph", "lmax")),
    "delta": (_cmd_delta, ("graph", "graph2")),
    "gamma": (_cmd_gamma, ("n!", "s!")),
}


def cmd_verify_paper(args):
    results = run_suite(args.only, jobs=args.jobs)
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
    if args.format == "md":
        lines = ["| check | result | seconds |", "|-------|--------|---------|"]
        for res in results:
            word = "pass" if res.passed else "FAIL"
            lines.append(f"| {res.name} | {word} | {res.seconds:.2f} |")
        for item in failures:
            lines.append(f"- FAIL {item['check']}: {item['label']}")
        print("\n".join(lines))
    else:
        print(json.dumps(data, sort_keys=True, indent=2))
    return 0 if not failures else 1


def _add_source(parser, suffix=""):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--family" + suffix, help="family spec name:n, e.g. complete:4")
    group.add_argument("--input" + suffix, help="path to an edge-list file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maghom",
        description="Magnitude, path, and injective-word homology of finite digraphs.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    comp = sub.add_parser("compute", help="run one computation and print a report")
    what = comp.add_subparsers(dest="what", required=True)
    for name, (_, options) in COMMANDS.items():
        cmd = what.add_parser(name)
        for key in options:
            if key.startswith("graph"):
                _add_source(cmd, key.removeprefix("graph"))
                continue
            flag, type_, default, help_ = _OPTIONS[key.rstrip("!")]
            required = key.endswith("!")
            if default and not required:
                help_ += f" (default {default})"
            cmd.add_argument(
                flag, type=type_, default=default, required=required, help=help_
            )
        cmd.add_argument("--format", choices=("json", "csv", "md"), default="json")

    ver = sub.add_parser("verify-paper", help="run the reproduction checks")
    ver.add_argument(
        "--only",
        action="append",
        choices=tuple(CHECKS),
        metavar="NAME",
        help="run just this check (repeatable); see --list",
    )
    ver.add_argument("--list", action="store_true", help="list check names and exit")
    ver.add_argument(
        "--jobs", type=partial(_count, least=1), default=1, help="worker processes"
    )
    ver.add_argument("--format", choices=("json", "md"), default="json")
    return parser


def main(argv=None):
    # no reference to the parser outlives parsing, so the computation
    # can reuse its memory
    args = build_parser().parse_args(argv)
    try:
        if args.mode == "compute":
            data, as_csv, as_md = COMMANDS[args.what][0](args)
            _emit(data, as_csv, as_md, args.format)
            return 0
        if args.list:
            print("\n".join(CHECKS))
            return 0
        return cmd_verify_paper(args)
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
