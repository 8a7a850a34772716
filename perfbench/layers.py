"""Layer tracing of maghom from outside the package.

``instrument`` replaces the public functions of each module with wrappers
that record a span (name, start, end, parent) and, for some, a few
counts.  A consumer that imported a function by name (``homology``,
``words`` and ``filtration`` each import ``smith_normal_form``) gets its
binding replaced too.  Spans stay in memory; ``layer_metrics`` turns them
into per-layer self times, where self time is a span's duration minus
the durations of its child spans.

Targets that a later version of maghom no longer has are skipped and
reported, so the harness keeps running while the layer reads zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.maxima = Counter()
        self.misses = {}  # cache misses seen so far, per cached function
        self._stack = []

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(tracer, fn, args, result) counts work."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent)
            if after is not None:
                after(self, fn, args, result)
            return result

        return wrapper


def _nnz(matrix):
    entries = getattr(matrix, "entries", None)
    if entries is not None:
        return len(entries), max(matrix.nrows, matrix.ncols)
    rows = list(matrix)
    width = len(rows[0]) if rows else 0
    return sum(1 for row in rows for v in row if v), max(len(rows), width)


def _after_snf(tracer, fn, args, result):
    nnz, side = _nnz(args[0])
    divisors = result[0]
    units = sum(1 for d in divisors if d == 1)
    tracer.counts["snf.calls"] += 1
    tracer.counts["snf.input_nnz"] += nnz
    tracer.maxima["snf.max_side"] = max(tracer.maxima["snf.max_side"], side)
    tracer.counts["snf.unit_divisors"] += units
    tracer.counts["snf.other_divisors"] += len(divisors) - units


def _after_nullspace(tracer, fn, args, result):
    rows, ncols = args[0], args[1]
    tracer.counts["exactla.nullspace_calls"] += 1
    tracer.counts["exactla.nullspace_entries"] += len(rows) * ncols


def _after_add(tracer, fn, args, result):
    tracer.counts["exactla.reduce_adds"] += 1
    tracer.counts["exactla.reduce_useful"] += bool(result)


def _after_entry_rank(tracer, fn, args, result):
    tracer.counts["spectral.entry_rank_calls"] += 1


def _after_filtration(tracer, fn, args, result):
    tracer.counts["filtration.cells"] += sum(result.dim(k) for k in result.degrees())


def _after_classes(tracer, fn, args, result):
    tracer.counts["graphs.classes_calls"] += 1


def _after_boundary(tracer, fn, args, result):
    tracer.counts["chains.boundary_nnz"] += result.nnz


def _on_miss(counter, size):
    """Count a cached enumerator's output only when the call computed it."""

    def after(tracer, fn, args, result):
        info = getattr(fn, "cache_info", None)
        misses = info().misses if info else tracer.misses.get(fn, 0) + 1
        if misses != tracer.misses.get(fn):
            tracer.misses[fn] = misses
            tracer.counts[counter] += size(result)

    return after


def _bucket_cells(buckets):
    return sum(len(v) for v in buckets.values())


# (module, qualified name, counting hook or None)
PLAN = [
    ("snf", "smith_normal_form", _after_snf),
    ("snf", "rank_z", None),
    ("snf", "rank_mod_p", None),
    ("exactla", "nullspace", _after_nullspace),
    ("exactla", "solve_columns", None),
    ("exactla", "RowReducer.add", _after_add),
    ("chains", "_eulerian_buckets", _on_miss("chains.cells", _bucket_cells)),
    ("chains", "_trail_buckets", _on_miss("chains.cells", _bucket_cells)),
    ("chains", "enumerate_basis", None),
    ("chains", "BigradedComplex.build", None),
    ("chains", "boundary_matrix", _after_boundary),
    ("chains", "induced_chain_map", None),
    ("homology", "homology_table", None),
    ("homology", "les_verify", None),
    ("homology", "splitting_report", None),
    ("homology", "splitting_check", None),
    ("filtration", "injective_word_filtration", _after_filtration),
    ("filtration", "nerve_filtration", _after_filtration),
    ("filtration", "FilteredComplex.boundary", None),
    ("filtration", "FilteredComplex.total_homology", None),
    ("spectral", "rmpss", None),
    ("spectral", "mpss", None),
    ("spectral", "rmpss_report", None),
    ("spectral", "mpss_report", None),
    ("spectral", "page_one_inclusion_report", None),
    ("spectral", "page_map", None),
    ("spectral", "diagonal_convergence", None),
    ("spectral", "SpectralSequence.page", None),
    ("spectral", "SpectralSequence.entry_rank", _after_entry_rank),
    ("spectral", "SpectralSequence.differential", None),
    ("spectral", "SpectralSequence.differential_rank", None),
    ("spectral", "SpectralSequence.total_ranks", None),
    ("pathhom", "allowed_paths", _on_miss("pathhom.allowed_paths", len)),
    ("pathhom", "omega_basis", None),
    ("pathhom", "path_homology", None),
    ("words", "injective_words", None),
    ("words", "directed_flag", None),
    ("words", "word_homology", None),
    ("words", "injective_words_via_flag", None),
    ("words", "WordComplex.boundary", None),
    ("invariants", "regular_magnitude", None),
    ("invariants", "magnitude_series", None),
    ("invariants", "is_regularly_diagonal", None),
    ("invariants", "classify_diagonality", None),
    ("invariants", "subgraph_network", None),
    ("invariants", "delta_distance", None),
    ("invariants", "gamma", None),
    ("graphs", "connected_graph_classes", _after_classes),
    ("verify", "run_check", None),
    ("cli", "main", None),
]


def _check_span_name(args):
    return f"verify.check.{args[0]}"


def _rebind(orig, new):
    """Point every maghom binding of orig at new."""
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "maghom" or name.startswith("maghom."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)


def instrument(tracer):
    """Wrap every PLAN target present in the loaded maghom; return the missing."""
    missing = []
    for modname, qualname, hook in PLAN:
        mod = sys.modules.get(f"maghom.{modname}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            missing.append(f"{modname}.{qualname}")
            continue
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(fn, "cache_info"):
            tracer.misses[fn] = fn.cache_info().misses
        name = _check_span_name if qualname == "run_check" else f"{modname}.{qualname}"
        wrapped = tracer.wrap(name, fn, hook)
        if owner_name:
            setattr(owner, attr, classmethod(wrapped) if raw is not fn else wrapped)
        else:
            _rebind(raw, wrapped)
    return missing


def _self_times(spans):
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    own = defaultdict(float)
    total = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        own[name] += end - start - child[i]
        total[name] += end - start
    return own, total


def layer_metrics(tracer, check_names):
    """Per-layer seconds and counts of one traced pass, keyed by metric name."""
    own, total = _self_times(tracer.spans)

    def self_of(*names):
        return sum(own[n] for n in names)

    def module_self(module):
        return sum(v for n, v in own.items() if n.startswith(module + "."))

    c = tracer.counts
    adds = c["exactla.reduce_adds"]
    out = {
        "snf.self_s": module_self("snf"),
        "snf.calls": c["snf.calls"],
        "snf.input_nnz": c["snf.input_nnz"],
        "snf.max_side": tracer.maxima["snf.max_side"],
        "snf.unit_divisors": c["snf.unit_divisors"],
        "snf.other_divisors": c["snf.other_divisors"],
        "exactla.nullspace_s": self_of("exactla.nullspace"),
        "exactla.nullspace_calls": c["exactla.nullspace_calls"],
        "exactla.nullspace_entries": c["exactla.nullspace_entries"],
        "exactla.reduce_s": self_of("exactla.RowReducer.add"),
        "exactla.reduce_adds": adds,
        "exactla.reduce_useful_frac": c["exactla.reduce_useful"] / adds if adds else 0.0,
        "exactla.solve_s": self_of("exactla.solve_columns"),
        "spectral.self_s": module_self("spectral"),
        "spectral.entry_rank_calls": c["spectral.entry_rank_calls"],
        "filtration.self_s": module_self("filtration"),
        "filtration.cells": c["filtration.cells"],
        "pathhom.self_s": module_self("pathhom"),
        "pathhom.allowed_paths": c["pathhom.allowed_paths"],
        "graphs.classes_s": self_of("graphs.connected_graph_classes"),
        "graphs.classes_calls": c["graphs.classes_calls"],
        "chains.enumerate_s": self_of(
            "chains._eulerian_buckets",
            "chains._trail_buckets",
            "chains.enumerate_basis",
            "chains.BigradedComplex.build",
        ),
        "chains.cells": c["chains.cells"],
        "chains.boundary_s": self_of("chains.boundary_matrix", "chains.induced_chain_map"),
        "chains.boundary_nnz": c["chains.boundary_nnz"],
        "homology.self_s": module_self("homology"),
        "words.self_s": module_self("words"),
        "invariants.self_s": module_self("invariants"),
        "cli.self_s": module_self("cli"),
    }
    for name in check_names:
        out[f"verify.check_s.{name}"] = total[f"verify.check.{name}"]
    return out


# unit of each layer metric; every other name is in seconds
COUNT_UNITS = {
    "snf.calls": "count",
    "snf.input_nnz": "count",
    "snf.max_side": "count",
    "snf.unit_divisors": "count",
    "snf.other_divisors": "count",
    "exactla.nullspace_calls": "count",
    "exactla.nullspace_entries": "count",
    "exactla.reduce_adds": "count",
    "exactla.reduce_useful_frac": "frac",
    "spectral.entry_rank_calls": "count",
    "filtration.cells": "count",
    "pathhom.allowed_paths": "count",
    "graphs.classes_calls": "count",
    "chains.cells": "count",
    "chains.boundary_nnz": "count",
}
