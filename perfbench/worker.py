"""One pass of a perfbench workload, in a fresh single-threaded interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED [--trace] [--probe]
[--spans PATH]

Writes one JSON line per event to stdout: ``ready`` when the first job is
about to start, ``job`` after every job, ``done`` at the end.  Times are
``time.monotonic()`` readings, which share one clock with the parent.
With ``--probe`` the worker stops at ``ready``: it measures set-up only.

An untraced worker runs the machine-speed probe of ``speed.py`` from its
start, and gives every timing both as measured seconds, less the
probe's own time (``raw_s``), and on the probe's reference scale
(``ref_s``).  A traced worker runs no probe; its ``ref_s`` are null.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402

OUT = sys.stdout
PROBE = None  # the speed probe of an untraced worker


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException so the program's
    own ``except Exception`` handlers do not swallow it."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise JobTimeout()


def emit(event, **fields):
    OUT.write(json.dumps({"event": event, **fields}) + "\n")
    OUT.flush()


def timing(start, end):
    """{raw_s, ref_s} of the window [start, end]; see speed.py."""
    if PROBE is None:
        return {"raw_s": end - start, "ref_s": None}
    inside, scale = PROBE.window(start, end)
    raw = end - start - inside
    return {"raw_s": raw, "ref_s": raw * scale}


def emit_job(name, status, detail, start, end):
    if status == "ok" and threading.active_count() > 1:
        # another thread would slow the speed probe and skew every timing
        status, detail = "threads", "the job left threads running"
    emit("job", name=name, start=start, end=end, status=status, detail=detail, **timing(start, end))


def capped(call, cap_s):
    """Run call() under a time cap; returns (status, result, start, end)."""
    global _armed
    status, result = "ok", None
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    _armed = True
    start = time.monotonic()
    try:
        result = call()
        _armed = False
    except JobTimeout:
        status = "timeout"
    except Exception as exc:  # a job that raises is a failed job, not a crash
        _armed = False
        status, result = "error", f"{type(exc).__name__}: {exc}"
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, result, start, time.monotonic()


def run_library_jobs(jobs, expected, cap_s):
    spans = []
    for name, call, answer in jobs:
        status, result, start, end = capped(call, cap_s)
        spans.append((start, end))
        detail = result if status == "error" else None
        if status == "ok" and answer(result) != expected[name]:
            status, detail = "wrong", "answer differs from expected.json"
        emit_job(name, status, detail, start, end)
    return spans


def run_paper(expected, cap_s):
    from maghom import cli, verify

    checks = expected["checks"]
    inner = verify.run_check
    outcome = {}

    def run_check(name):
        status, result, start, end = capped(lambda: inner(name), cap_s)
        if status != "ok":
            label = "time cap exceeded" if status == "timeout" else result
            result = verify.CheckResult(name, False, end - start, failures=[label])
        outcome[name] = (status, start, end)
        return result

    verify.run_check = run_check
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(workloads.PAPER_ARGV))
    report = json.loads(stdout.getvalue())
    got = {c["name"]: c for c in report["checks"]}
    for name, want in checks.items():
        status, start, end = outcome[name]
        detail = None
        if status == "ok":
            check = got[name]
            if (check["passed"], check["failures"]) != (want["passed"], want["failures"]):
                status, detail = "wrong", f"verdict changed: {check['failures']}"
            elif not want["passed"]:
                detail = "designed failure: " + "; ".join(want["failures"])
        emit_job(name, status, detail, start, end)
    return code, outcome


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", help="write the pass's spans to this file")
    args = parser.parse_args(argv)

    global PROBE
    if not args.trace:
        PROBE = speed.Probe()
        PROBE.start()
    try:
        return run(args)
    finally:
        if PROBE is not None:
            PROBE.stop()


def run(args):
    t0 = time.monotonic()
    import maghom.cli  # noqa: F401  (paper goes through the command line)

    import_s = time.monotonic() - t0
    tracer = None
    missing = []
    if args.trace:
        import layers as tracing

        tracer = tracing.Tracer()
        missing = tracing.instrument(tracer)

    all_expected = workloads.load_expected()
    expected = all_expected[args.workload]
    if args.workload == "paper":
        workloads.relabel_paper_inputs(args.seed)
    else:
        jobs = workloads.JOB_BUILDERS[args.workload](args.seed)
    ready = time.monotonic()
    # the parent times set-up from the spawn, before the first sample
    probe_s, scale = PROBE.window(0.0, ready) if PROBE else (0.0, None)
    emit("ready", t=ready, import_s=import_s, probe_s=probe_s, scale=scale)
    if args.probe:
        return 0

    if args.workload == "paper":
        code, outcome = run_paper(expected, workloads.JOB_CAP_S)
        exit_ok = code == expected["exit_code"]
        spans = [(start, end) for _, start, end in outcome.values()]
    else:
        spans = run_library_jobs(jobs, expected, workloads.JOB_CAP_S)
        exit_ok = True
    # the pass, from the first job start to the last job end
    wall = timing(min(s for s, _ in spans), max(e for _, e in spans))

    per_layer = None
    if tracer is not None:
        per_layer = tracing.layer_metrics(tracer, all_expected["paper"]["checks"])
        per_layer["import_s"] = import_s
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans}, fh)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit("done", exit_ok=exit_ok, layers=per_layer, missing=missing, wall=wall, maxrss_mb=maxrss_mb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
