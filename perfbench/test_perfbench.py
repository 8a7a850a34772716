"""Tests of the benchmark harness itself.

Run with: python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import worker  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_untraced_run_checks_answers_and_prints_end_to_end_metrics():
    res = result_of(bench("--workload", "elimination", "--seed", "4", "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["attempted"] >= 22 and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_counts_repeat_exactly_for_one_seed():
    args = ("--workload", "elimination", "--seed", "9", "--seconds", "1", "--trace", "1")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared("per_layer")
    counts = {k for k, v in first["metrics"].items() if v["unit"] in ("count", "frac")}
    assert counts and all(
        first["metrics"][k] == second["metrics"][k] for k in counts
    )
    assert first["metrics"]["snf.calls"]["value"] > 0


def test_probe_window_drops_its_own_time_and_scales_to_reference_speed():
    ref = speed.REFERENCE_S
    probe = speed.Probe()
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.durations = [ref, 2 * ref, 2 * ref, ref]
    inside, scale = probe.window(0.5, 2.5)
    assert inside == 4 * ref and abs(scale - 0.5) < 1e-12  # at half speed
    inside, scale = probe.window(3.5, 3.6)  # no sample inside: the last two
    assert inside == 0 and abs(scale - 0.75) < 1e-12


def test_job_over_its_cap_fails_without_hanging():
    from maghom import graphs, spectral

    c5 = graphs.family("cycle", 5)  # its regular spectral sequence runs for minutes
    begin = time.monotonic()
    status, _, start, end = worker.capped(lambda: spectral.rmpss_report(c5), 1.0)
    assert status == "timeout"
    assert 1.0 <= end - start < 5.0 and time.monotonic() - begin < 5.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
