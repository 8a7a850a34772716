"""Run one perfbench workload for a fixed time and print its metrics.

Usage:
    python3 perfbench/run.py --workload {paper,elimination,fields}
        --seed N --seconds S --trace {0,1}

Every pass runs in a fresh single-threaded worker process (worker.py),
like one command-line call; passes run one after another until the next
one would end past S seconds, and at least twice.  Set-up is also probed
in extra workers until there are ten samples.  Every job's answer is
checked against expected.json.

Timings are seconds at the reference speed of speed.py: each job, pass
and set-up is scaled by the speed of a fixed kernel sampled while it ran,
so that the load other tenants put on a shared machine cancels.  The
report prints the measured seconds beside them.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
traced and untraced passes alternate, the last line holds the per-layer
metrics of the traced ones, and the spans of the first traced pass go to
perfbench/out/.  Lines before the last one are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "maghom"
OUT_DIR = HERE / "out"

MIN_PASSES = 2
MIN_SETUPS = 10
# a pass still running this long after the run started is killed, so the
# run ends well inside three minutes whatever the program does
KILL_AFTER_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Pass:
    """What one worker reported, read from its event lines."""

    def __init__(self, spawned, events, killed, returncode, stderr):
        self.spawned = spawned
        self.killed = killed
        self.returncode = returncode
        self.stderr = stderr
        self.ready = next((e for e in events if e["event"] == "ready"), None)
        self.jobs = [e for e in events if e["event"] == "job"]
        self.done = next((e for e in events if e["event"] == "done"), None)
        self.ended = time.monotonic()

    def setup(self, key):
        """Spawn to first job start: measured ("raw_s") or at reference speed."""
        if self.ready is None:
            return None
        raw = self.ready["t"] - self.spawned - self.ready["probe_s"]
        if key == "raw_s":
            return raw
        return raw * self.ready["scale"] if self.ready["scale"] else None

    def wall(self, key):
        """First job start to last job end: measured or at reference speed."""
        return self.done["wall"][key] if self.done else None


def spawn(workload, seed, deadline, trace=False, probe=False, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if trace:
        cmd.append("--trace")
    if probe:
        cmd.append("--probe")
    if spans:
        cmd += ["--spans", str(spans)]
    # a fixed hash seed per run seed keeps traced counts exactly repeatable
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 4294967296))
    # set-up imports maghom from cached bytecode, as an installed copy does,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    killed = False
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    events = []
    for line in out.splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return Pass(spawned, events, killed, proc.returncode, err)


def calibration_s():
    """Time of a fixed pure-Python loop: how fast this machine is right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def src_lines():
    return {p.name: len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py"))}


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def job_percentile(latencies, q):
    """q-th percentile over jobs of each job's median latency over the passes.

    A pass holds a few jobs of very different sizes, so percentiles of the
    pooled samples fall into the gaps between sizes, and one slow small
    job in one pass reorders the jobs around the median; each job's median
    first keeps the percentile steady from run to run.
    """
    medians = [statistics.median(v) for v in latencies.values() if v]
    return quantile(medians, q) if len(medians) >= 2 else None


def account(passes, names):
    """Latencies by job, attempted and failed jobs, and notes to print."""
    latencies = {name: [] for name in names}
    notes = []
    attempted = failed = 0
    wrong = False
    for p in passes:
        attempted += len(names)
        seen = set()
        for job in p.jobs:
            seen.add(job["name"])
            latencies[job["name"]].append(job["ref_s"] or job["raw_s"])
            if job["status"] != "ok":
                failed += 1
                wrong |= job["status"] in ("wrong", "error")
                notes.append(f"job {job['name']}: {job['status']} {job['detail'] or ''}")
            elif job["detail"]:
                notes.append(f"job {job['name']}: {job['detail']}")
        missing = [n for n in names if n not in seen]
        if missing:
            failed += len(missing)
            last = p.jobs[-1]["end"] if p.jobs else (p.ready or {}).get("t", p.spawned)
            latencies[missing[0]].append(p.ended - last)
            why = "killed at the run's time limit" if p.killed else f"exit {p.returncode}"
            notes.append(f"pass lost {len(missing)} jobs ({why}): {p.stderr[-300:]}")
        if p.done is not None and not p.done["exit_ok"]:
            wrong = True
            notes.append("verify-paper exit code differs from expected.json")
    return latencies, attempted, failed, wrong, notes


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no maghom sources at {SRC}", file=sys.stderr)
        return 2
    names = workloads.job_names(args.workload, workloads.load_expected())
    calibration = calibration_s()

    # an untimed worker first, which writes the bytecode caches of a fresh
    # checkout
    spawn(args.workload, args.seed, time.monotonic() + KILL_AFTER_S, probe=True)
    start = time.monotonic()
    kill_at = start + KILL_AFTER_S
    passes, traced = [], []
    durations = {False: [], True: []}
    while True:
        trace = bool(args.trace) and len(passes) % 2 == 0
        spans = None
        if trace and not traced:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        p = spawn(args.workload, args.seed, kill_at, trace=trace, spans=spans)
        passes.append(p)
        if trace:
            traced.append(p)
        durations[trace].append(p.ended - p.spawned)
        now = time.monotonic()
        next_trace = bool(args.trace) and len(passes) % 2 == 0
        expect = statistics.median(durations[next_trace] or durations[not next_trace])
        if p.killed or (len(passes) >= MIN_PASSES and now + expect > start + args.seconds):
            break
    untraced = [p for p in passes if p not in traced]

    setups = [p for p in untraced if p.ready is not None]
    while not args.trace and len(setups) < MIN_SETUPS and time.monotonic() < kill_at:
        probe = spawn(args.workload, args.seed, kill_at, probe=True)
        if probe.ready is None:
            break
        setups.append(probe)

    latencies, attempted, failed, wrong, notes = account(passes, names)
    if median_of(p.wall("raw_s") for p in untraced) is None:
        for note in notes:
            print(note, file=sys.stderr)
        print("perfbench: no pass finished", file=sys.stderr)
        return 1

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(untraced)} traced_passes={len(traced)} "
        f"job_cap={workloads.JOB_CAP_S:g}s"
    )
    for note in dict.fromkeys(notes):
        print(f"note {note}")

    if args.trace:
        metrics = trace_metrics(traced, untraced)
    else:
        metrics = {
            "wall_s": median_of(p.wall("ref_s") for p in untraced),
            "job_p90_s": job_percentile(latencies, 90),
            "setup_s": median_of(p.setup("ref_s") for p in setups),
            # median of the workers' peaks: the largest one swings by a few
            # percent from run to run
            "peak_rss_mb": median_of(p.done["maxrss_mb"] for p in untraced if p.done),
        }
        for name, value in metrics.items():
            print(f"metric {name} {value:.6g} {END_TO_END_UNITS[name]}")
        print(
            f"info measured seconds: wall_s {median_of(p.wall('raw_s') for p in untraced):.6g} "
            f"setup_s {median_of(p.setup('raw_s') for p in setups):.6g} "
            f"(reference speed: kernel in {speed.REFERENCE_S * 1000:g} ms)"
        )
        # not declared: on elimination the median job takes under a
        # millisecond, and its 10-seed spread (0.08) is a third of the largest
        # bound allowed
        print(f"metric job_p50_s {job_percentile(latencies, 50):.6g} s (not declared)")
        print(
            f"metric fail_frac {failed / attempted:.6g} frac "
            f"({failed} of {attempted} jobs; the designed failure is not counted)"
        )
        print(
            f"info job samples {sum(map(len, latencies.values()))} "
            f"({len(latencies)} jobs x {len(untraced)} passes); "
            f"setup samples {len(setups)}"
        )
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    print(f"info calibration_loop_s {calibration:.6g}")
    loc = src_lines()
    print(f"info src_maghom_lines total={sum(loc.values())} {json.dumps(loc)}")

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def trace_metrics(traced, untraced):
    """Per-layer metrics: median seconds and first-pass counts of traced passes."""
    done = [p.done for p in traced if p.done and p.done["layers"]]
    if not done:
        raise SystemExit("perfbench: no traced pass finished")
    runs = [d["layers"] for d in done]
    missing = done[0]["missing"]
    if missing:
        print(f"note layers not found in maghom: {', '.join(missing)}")
    metrics = {}
    for name in runs[0]:
        unit = layers.COUNT_UNITS.get(name, "s")
        if unit == "s":
            value = statistics.median(r[name] for r in runs)
        else:
            value = runs[0][name]
            if any(r[name] != value for r in runs):
                print(f"note count {name} differs between traced passes")
        metrics[name] = {"value": value, "unit": unit}
        print(f"layer {name} {value:.6g} {unit}")
    traced_wall = median_of(p.wall("raw_s") for p in traced)
    plain_wall = median_of(p.wall("raw_s") for p in untraced)
    if traced_wall is not None and plain_wall is not None:
        print(
            f"info tracing overhead {traced_wall - plain_wall:+.4f} s per pass "
            f"(traced wall_s {traced_wall:.4f}, untraced {plain_wall:.4f})"
        )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
