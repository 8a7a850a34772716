"""Command line entry point, exercised in process."""

import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from test_spectral import CYCLE_4_TRUNCATED_PAGES

from maghom import cli
from maghom.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse handles its own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_emh_table_json():
    code, out, _ = run(["compute", "emh", "--family", "complete:4"])
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert data["ring"] == "Z"
    assert data["groups"]["3,3"] == {"rank": 24, "torsion": []}


def test_json_output_is_byte_identical():
    argv = ["compute", "rmpss", "--family", "tournament:3"]
    _, first, _ = run(argv)
    _, second, _ = run(argv)
    assert first == second
    json.loads(first)


def test_mh_requires_lmax():
    code, _, err = run(["compute", "mh", "--family", "complete:3"])
    assert code == 2
    assert "--lmax" in err
    code, out, _ = run(["compute", "mh", "--family", "complete:3", "--lmax", "3"])
    assert code == 0
    assert json.loads(out)["certified"] is False


def test_exactly_one_graph_source():
    code, _, err = run(["compute", "emh"])
    assert code == 2
    code, _, err = run(
        ["compute", "emh", "--family", "complete:3", "--input", "x.graph"]
    )
    assert code == 2


def test_bad_family_and_ring():
    assert run(["compute", "emh", "--family", "complete"])[0] == 2
    assert run(["compute", "emh", "--family", "mystery:3"])[0] == 2
    assert run(["compute", "emh", "--family", "complete:3", "--ring", "Fp:4"])[0] == 2
    assert run(["compute", "ph", "--family", "complete:3", "--ring", "Z", "--kmax", "2"])[0] == 2


@pytest.mark.parametrize("ring", ["Fp:x", "Fp:", "Fp:2.0"])
def test_malformed_prime_ring_is_a_usage_error(ring):
    code, out, err = run(["compute", "emh", "--family", "complete:3", "--ring", ring])
    assert code == 2 and out == ""
    assert f"unknown ring {ring!r}; expected Z, Q, or Fp:<p>" in err
    assert "invalid literal" not in err


def test_flag_scoping():
    # lmax belongs to length-graded commands only
    code, _, err = run(["compute", "rph", "--family", "complete:3", "--lmax", "2", "--ring", "Q"])
    assert code == 2
    assert "--lmax" in err


def test_input_file(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("# directed\n0 1\n1 2\n% comment\n")
    code, out, _ = run(["compute", "emh", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["groups"]["0,0"]["rank"] == 3

    bad = tmp_path / "bad.graph"
    bad.write_text("# directed\n0 0\n")
    code, _, err = run(["compute", "emh", "--input", str(bad)])
    assert code == 2
    assert "line 2" in err


def test_gamma_and_delta():
    code, out, _ = run(["compute", "gamma", "--n", "4", "--s", "2"])
    assert code == 0
    assert json.loads(out)["value"] == 4
    # resource cap is its own exit code
    assert run(["compute", "gamma", "--n", "9", "--s", "1"])[0] == 3
    assert run(["compute", "gamma", "--s", "1"])[0] == 2
    # too few vertices is a usage error, negative counts included
    assert run(["compute", "gamma", "--n", "2", "--s", "0"])[0] == 2
    assert run(["compute", "gamma", "--n", "-1", "--s", "0"])[0] == 2

    code, out, _ = run(
        ["compute", "delta", "--family", "cycle:4", "--family2", "complete:4"]
    )
    assert code == 0
    assert json.loads(out)["value"] == 1
    assert run(["compute", "delta", "--family", "cycle:4"])[0] == 2
    # K_8's network is over the cap
    assert run(
        ["compute", "delta", "--family", "cycle:8", "--family2", "complete:8"]
    )[:2] == (3, "")
    # family2 rejected outside delta
    assert run(["compute", "emh", "--family", "cycle:4", "--family2", "cycle:4"])[0] == 2


def test_path_homology_commands():
    code, out, _ = run(["compute", "rph", "--family", "complete:3", "--ring", "Q"])
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert data["ranks"]["2"] == 2
    code, _, _ = run(["compute", "ph", "--family", "complete:3", "--ring", "Q"])
    assert code == 2  # needs --kmax


def test_path_homology_over_prime_fields():
    code, out, _ = run(
        ["compute", "ph", "--family", "complete:4", "--ring", "Fp:2", "--kmax", "4"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["ring"] == "F2"
    assert data["ranks"] == {"0": 1}
    code, out, _ = run(["compute", "rph", "--family", "complete:3", "--ring", "Fp:3"])
    assert code == 0
    data = json.loads(out)
    assert data["ring"] == "F3"
    assert data["ranks"] == {"0": 1, "2": 2}


def test_inj_and_magnitude():
    code, out, _ = run(["compute", "inj", "--family", "complete:3"])
    assert code == 0
    data = json.loads(out)
    assert data["f_vector"] == [3, 6, 6]
    assert data["euler_characteristic"] == 3

    code, out, _ = run(["compute", "magnitude", "--family", "complete:3", "--lmax", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is False
    assert data["coefficients"]["1"] == -6
    assert run(["compute", "magnitude", "--family", "complete:3"])[0] == 2

    code, out, _ = run(["compute", "rmagnitude", "--family", "complete:3"])
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert data["display"] == "3 - 6q + 6q^2"
    assert data["coefficients"] == {"0": 3, "1": -6, "2": 6}


def test_diag_command():
    code, out, _ = run(["compute", "diag", "--family", "complete:4"])
    assert code == 0
    assert json.loads(out)["regularly_diagonal"] is True


def test_formats():
    code, out, _ = run(["compute", "emh", "--family", "complete:3", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("k,l,")
    code, out, _ = run(["compute", "emh", "--family", "complete:3", "--format", "md"])
    assert code == 0
    assert "|" in out
    # reports without a tabular projection refuse csv
    code, _, err = run(["compute", "rmpss", "--family", "complete:3", "--format", "csv"])
    assert code == 2
    assert "tabular" in err


def test_verify_paper_single_checks():
    code, out, err = run(["verify-paper", "--only", "nonhomotopy"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["checks"][0]["name"] == "nonhomotopy"
    assert "seconds" not in data["checks"][0]
    assert err.startswith("ok") and "nonhomotopy" in err

    code, out, err = run(["verify-paper", "--only", "subgraph_network"])
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["failures"]
    assert "FAIL" in err and "subgraph_network" in err


def test_verify_paper_list_and_unknown():
    code, out, _ = run(["verify-paper", "--list"])
    assert code == 0
    names = out.split()
    assert "complete_diagonal" in names and "rmpss" in names
    assert run(["verify-paper", "--only", "no_such_check"])[0] == 2


def test_verify_paper_across_processes_prints_what_one_process_prints():
    # --jobs 2 maps the checks over a process pool; the report keeps the
    # order of --only and leaves timing out, so stdout is the same
    def verify(jobs):
        proc = subprocess.run(
            [sys.executable, "-m", "maghom.cli", "verify-paper", "--jobs", str(jobs)]
            + ["--only", "tournaments", "--only", "nonhomotopy", "--format", "json"],
            capture_output=True,
            text=True,
        )
        return proc.returncode, proc.stdout

    code, out = verify(1)
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == ["tournaments", "nonhomotopy"]
    assert verify(2) == (code, out)


def test_verify_paper_md_format():
    code, out, _ = run(["verify-paper", "--only", "nonhomotopy", "--format", "md"])
    assert code == 0
    assert "| nonhomotopy |" in out


def test_usage_errors():
    assert run([])[0] == 2
    assert run(["compute"])[0] == 2
    assert run(["compute", "unknown", "--family", "complete:3"])[0] == 2


def test_compute_has_no_jobs_flag():
    code, out, err = run(["compute", "emh", "--family", "cycle:3", "--jobs", "2"])
    assert code == 2
    assert out == ""
    assert "--jobs" in err


def test_console_script_roundtrip():
    # one subprocess run to cover the installed entry point
    proc = subprocess.run(
        [sys.executable, "-m", "maghom.cli", "compute", "emh", "--family", "cycle:4", "--ring", "Z"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["groups"]["3,5"] == {"rank": 8, "torsion": []}


@pytest.mark.parametrize("error", [ArithmeticError, ValueError])
def test_internal_arithmetic_error_exits_1_with_nothing_on_stdout(monkeypatch, error):
    # a bare ValueError from inside the library is a fault, not a usage error
    message = "page 1 image at (2,2) left its target entry"

    def broken(*args, **kwargs):
        raise error(message)

    # the CLI calls the name it imported from maghom.spectral
    monkeypatch.setattr(cli, "rmpss_report", broken)
    code, out, err = run(["compute", "rmpss", "--family", "complete:3"])
    assert code == 1
    assert out == ""
    assert err.strip() == f"maghom: internal error: {message}"


def test_spectral_sequences_of_four_and_five_cycles():
    # the final page of the five-cycle is the homology of injective
    # words: 44 = D_5 derangements in degree 4; a per-window algorithm
    # needs minutes here, the persistence pairing well under a second
    code, out, _ = run(["compute", "rmpss", "--family", "cycle:5"])
    assert code == 0
    assert json.loads(out)["einf_totals"] == {"0": 1, "4": 44}
    argv = ["compute", "mpss", "--family", "cycle:4", "--lmax", "4", "--rmax", "4"]
    code, out, _ = run(argv)
    assert code == 0
    pages = {
        page["r"]: {(e["l"], e["k"]): e["rank"] for e in page["entries"]}
        for page in json.loads(out)["pages"]
    }
    assert pages == CYCLE_4_TRUNCATED_PAGES


# the flags each compute command takes, besides --format, and a shortest
# argv it accepts
TAKES = {
    "emh": ({"--family", "--input", "--ring", "--lmax", "--kmax"}, []),
    "mh": ({"--family", "--input", "--ring", "--lmax", "--kmax"}, ["--lmax", "2"]),
    "dmh": ({"--family", "--input", "--ring", "--lmax", "--kmax"}, ["--lmax", "2"]),
    "ph": ({"--family", "--input", "--ring", "--kmax"}, ["--ring", "Q", "--kmax", "1"]),
    "rph": ({"--family", "--input", "--ring", "--kmax"}, ["--ring", "Q"]),
    "inj": ({"--family", "--input", "--ring"}, []),
    "rmpss": ({"--family", "--input", "--ring", "--rmax"}, []),
    "mpss": ({"--family", "--input", "--ring", "--lmax", "--rmax"}, ["--lmax", "2"]),
    "magnitude": ({"--family", "--input", "--lmax"}, ["--lmax", "2"]),
    "rmagnitude": ({"--family", "--input"}, []),
    "diag": ({"--family", "--input", "--lmax"}, []),
    "delta": (
        {"--family", "--input", "--family2", "--input2"},
        ["--family2", "cycle:3"],
    ),
    "gamma": ({"--n", "--s"}, ["--n", "4", "--s", "2"]),
}
FLAGS = set().union(*(flags for flags, _ in TAKES.values())) | {"--jobs", "--only"}


def minimal_argv(what):
    flags, extra = TAKES[what]
    graph = ["--family", "cycle:3"] if "--family" in flags else []
    return ["compute", what, *graph, *extra]


def test_every_command_is_covered():
    assert set(cli.COMMANDS) == set(TAKES)


@pytest.mark.parametrize("what", sorted(TAKES))
def test_command_rejects_flags_it_does_not_take(what):
    assert run(minimal_argv(what))[0] == 0
    for flag in sorted(FLAGS - TAKES[what][0]):
        code, out, err = run([*minimal_argv(what), flag, "3"])
        assert (code, out) == (2, ""), flag
        assert flag in err


@pytest.mark.parametrize("what", sorted(TAKES))
def test_command_help_lists_only_its_flags(what):
    code, out, _ = run(["compute", what, "--help"])
    assert code == 0
    listed = set(re.findall(r"--[a-z0-9]+", out)) - {"--help", "--format"}
    assert listed == TAKES[what][0]


@pytest.mark.parametrize("what", ["ph", "rph", "rmpss", "mpss"])
def test_field_only_commands_reject_z(what):
    code, out, err = run([*minimal_argv(what), "--ring", "Z"])
    assert (code, out) == (2, "")
    assert "--ring" in err and "field" in err


def test_verify_paper_jobs_must_be_positive():
    code, out, err = run(["verify-paper", "--jobs", "0"])
    assert (code, out) == (2, "")
    assert "--jobs" in err
