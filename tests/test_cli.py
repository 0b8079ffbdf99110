"""End-to-end checks of the ``distsec`` command line.

Everything runs in-process through ``main(argv)``.  Every error, argparse's
own included, comes back as a return code with one ``error:`` line on
stderr; only ``--help`` exits through SystemExit(0).
"""

import argparse
import ast
import concurrent.futures
import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distsec
import distsec.analysis
import distsec.cli
from distsec import (
    DistortionReport,
    JointSystem,
    code_from_dict,
    code_to_dict,
    delta_closed_form,
    greedy_code,
    identity_code,
    make_alphabet,
    max_distortion,
)
from distsec.cli import REPORT_COLUMNS, build_parser, main

QUAD = make_alphabet([1, 2, 3, 4])
# The package's source root, for child interpreters.
SRC = str(Path(distsec.__file__).resolve().parents[1])


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_bounded(*argv, seconds=30):
    """Run the CLI in a child process, killed (and the test failed) after
    ``seconds``: for inputs that could hang an in-process run."""
    return subprocess.run(
        [sys.executable, "-m", "distsec.cli", *argv],
        capture_output=True, text=True, timeout=seconds,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


def main_quiet(argv):
    """``main`` with stdout and stderr captured, for use inside hypothesis."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def csv_rows(text):
    lines = text.split("\r\n")
    assert lines[-1] == ""  # trailing CRLF
    return [line.split(",") for line in lines[:-1]]


def test_encode_greedy_writes_the_library_code(capsys, tmp_path):
    out = tmp_path / "code.json"
    rc, _, _ = run(capsys, "encode", "--alg", "greedy", "--values", "1,2,3,4",
                   "--k", "1", "-o", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert code_from_dict(doc) == greedy_code(QUAD, 1)
    assert out.read_text().endswith("\n")


def test_encode_to_stdout(capsys):
    rc, out, _ = run(capsys, "encode", "--alg", "identity", "--values", "1..5")
    assert rc == 0
    assert json.loads(out)["m"] == 5


def test_encode_exchange_seeded(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        rc, _, _ = run(capsys, "encode", "--alg", "exchange", "--values", "1..8",
                       "--k", "2", "--seed", "5", "-o", str(out))
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_encode_usage_errors(capsys):
    rc, _, err = run(capsys, "encode", "--alg", "greedy", "--values", "1,2")
    assert rc == 2 and "--k" in err
    rc, _, _ = run(capsys, "encode", "--alg", "identity", "--values", "1,2", "--k", "1")
    assert rc == 3


def test_argparse_usage_exits_2(capsys):
    # argparse's own errors print one error: line, with no usage banner; an
    # unknown flag and an unknown subcommand are rows of MALFORMED.
    for argv in ([], ["encode", "--values", "1,2"], ["encode", "--alg", "sneaky", "--values", "1,2"]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--help"])
    assert exc.value.code == 0


def test_analyze_row_matches_library(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(code_to_dict(greedy_code(QUAD, 1))))
    rc, out, _ = run(capsys, "analyze", "--code", str(code_path), "--values", "1,2,3,4")
    assert rc == 0
    header, row = csv_rows(out)
    assert header == REPORT_COLUMNS
    assert row[1:5] == ["4", "1", "na", "na"]
    assert float(row[5]) == float(max_distortion(QUAD))
    assert float(row[7]) == float(delta_closed_form(greedy_code(QUAD, 1), QUAD))
    assert row[10:13] == ["true", "true", "true"]


def test_analyze_nonuniform_marks_bounds_na(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(code_to_dict(greedy_code(QUAD, 1))))
    rc, out, _ = run(capsys, "analyze", "--code", str(code_path),
                     "--values", "1,2,3,4", "--pmf", "2/5,1/5,1/5,1/5")
    assert rc == 0
    _, row = csv_rows(out)
    assert row[8:12] == ["na", "na", "na", "na"]


def test_analyze_rejects_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "analyze", "--code", str(bad), "--values", "1,2")
    assert rc == 3 and "JSON" in err


def test_alphabet_file_with_pmf_override(capsys, tmp_path):
    doc = {"values": [1, 2, 3, 4], "pmf": ["1/4", "1/4", "1/4", "1/4"]}
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(doc))
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(code_to_dict(greedy_code(QUAD, 1))))

    rc, out, _ = run(capsys, "analyze", "--code", str(code_path), "--values", f"@{path}")
    assert rc == 0
    assert csv_rows(out)[1][10] == "true"  # uniform pmf from the file

    rc, out, _ = run(capsys, "analyze", "--code", str(code_path),
                     "--values", f"@{path}", "--pmf", "2/5,1/5,1/5,1/5")
    assert rc == 0
    assert csv_rows(out)[1][10] == "na"  # flag override beats the file pmf


def test_exact_flag_parses_decimals_as_rationals(capsys):
    # search reports best_delta_exact only when the alphabet stayed rational
    rc, out, _ = run(capsys, "search", "--values", "0.1,0.2,0.3,0.4",
                     "--k", "1", "--exact")
    assert rc == 0
    assert json.loads(out)["best_delta_exact"] == "0"

    rc, out, _ = run(capsys, "search", "--values", "0.1,0.2,0.3,0.4", "--k", "1")
    assert rc == 0
    assert json.loads(out)["best_delta_exact"] is None


def test_bad_values_exit_3(capsys):
    rc, _, _ = run(capsys, "encode", "--alg", "identity", "--values", "1,x,3")
    assert rc == 3
    rc, _, _ = run(capsys, "encode", "--alg", "identity", "--values", "")
    assert rc == 3


def test_search_reports_exact_optimum(capsys):
    # r = m is out of range, so the walk has no greedy start and must prune
    rc, out, _ = run(capsys, "search", "--values", "1,2,3", "--k", "2",
                     "--r-lo", "4", "--r-hi", "6")
    assert rc == 0
    doc = json.loads(out)
    assert doc["version"] == 1
    assert doc["best_delta"] == 0.0
    assert doc["best_delta_exact"] == "0"
    assert doc["exhaustive"] is True
    assert doc["pruned"] > 0
    code = code_from_dict(doc["best_code"])
    assert code.r == 4
    assert delta_closed_form(code, make_alphabet([1, 2, 3])) == 0


def test_search_reports_bound_cuts(capsys):
    # m=5, k=2 sits on the default caps' edge; the walk without the bound
    # cut took 40 s to reach the same answer.
    rc, out, _ = run(capsys, "search", "--values", "1,2,3,4,5", "--k", "2", "--exact")
    assert rc == 0
    doc = json.loads(out)
    assert doc["best_delta_exact"] == "0"
    assert doc["bound_cuts"] > 0
    rc, out, _ = run(capsys, "search", "--values", "1,2,3", "--k", "2", "--exact",
                     "--no-prune")
    assert rc == 0
    assert json.loads(out)["bound_cuts"] == 0


def test_search_at_the_cap_corner_finishes():
    # m=8, k=2 is the largest search the default caps admit; it took 101 s
    # while every binning tying the optimum was completed to a code.
    done = run_bounded("search", "--values", "1..8", "--k", "2", "--exact")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["best_delta_exact"] == "0"


def test_search_cap_exits_4(capsys):
    rc, _, err = run(capsys, "search", "--values", "1..9", "--k", "1")
    assert rc == 4 and "force" in err


def test_sweep_grid(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    args = ("sweep", "--values", "1..8", "--k", "0..2",
            "--alg", "greedy,exchange,identity", "-o", str(out))
    rc, _, _ = run(capsys, *args)
    assert rc == 0
    rows = csv_rows(out.read_bytes().decode())  # bytes: keep the CRLF visible
    header, body = rows[0], rows[1:]
    assert header == REPORT_COLUMNS
    # 3 k-values x {greedy, exchange} plus one identity row at the lowest k
    assert len(body) == 7
    assert sum(1 for r in body if r[3] == "identity") == 1

    greedy_delta = [float(r[7]) for r in body if r[3] == "greedy"]
    assert greedy_delta == sorted(greedy_delta, reverse=True)

    first = out.read_bytes()
    rc, _, _ = run(capsys, *args)
    assert rc == 0 and out.read_bytes() == first


def test_sweep_irregular_decay_table(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    rc, _, _ = run(capsys, "sweep", "--values", "9,5,2,1", "--k", "0..5",
                   "--alg", "greedy,exchange", "-o", str(out))
    assert rc == 0
    body = csv_rows(out.read_bytes().decode())[1:]
    assert len(body) == 12
    assert all(r[10] == "true" and r[11] == "true" for r in body)
    greedy_delta = [float(r[7]) for r in body if r[3] == "greedy"]
    assert greedy_delta == sorted(greedy_delta, reverse=True)


def test_sweep_jobs_flag_is_equivalent(capsys, tmp_path, monkeypatch):
    # A sweep this light runs in process; lowering the break-even puts it
    # on the pool.
    monkeypatch.setattr(distsec.cli, "POOL_BREAK_EVEN", 0)
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    base = ("sweep", "--values", "1..6", "--k", "1..2", "--alg", "greedy,exchange",
            "--seeds", "1,2")
    rc, _, _ = run(capsys, *base, "-o", str(serial))
    assert rc == 0
    rc, _, _ = run(capsys, *base, "--jobs", "2", "-o", str(parallel))
    assert rc == 0
    assert serial.read_bytes() == parallel.read_bytes()
    # 2 ks x 2 algs x 2 seeds rows plus header
    assert len(csv_rows(serial.read_bytes().decode())) == 9


def test_sweep_pool_is_bounded_by_rows_and_cpus(capsys, tmp_path, monkeypatch):
    # A pool starts all its workers at once; --jobs 100000 must not ask for
    # 100000 of them.  The stand-in records the size and maps serially.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # The CLI imports the pool class when it needs one, from concurrent.futures.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(distsec.cli.os, "cpu_count", lambda: 4)
    serial, bounded = tmp_path / "s.csv", tmp_path / "b.csv"
    base = ("sweep", "--values", "1..6", "--k", "1..2", "--alg", "greedy,exchange",
            "--seeds", "1,2")
    rc, _, _ = run(capsys, *base, "-o", str(serial))
    assert rc == 0 and sizes == []
    # 144 (value, key) pairs are below the break-even: no pool at any --jobs.
    rc, _, _ = run(capsys, *base, "--jobs", "100000", "-o", str(bounded))
    assert rc == 0 and sizes == []
    assert serial.read_bytes() == bounded.read_bytes()
    # The 3-row sweep below holds 6 * (2 + 4 + 8) = 84 pairs, exactly enough.
    monkeypatch.setattr(distsec.cli, "POOL_BREAK_EVEN", 84)
    rc, _, _ = run(capsys, *base, "--jobs", "100000", "-o", str(bounded))
    assert rc == 0 and sizes == [4]  # 8 rows, 4 CPUs
    assert serial.read_bytes() == bounded.read_bytes()
    rc, _, _ = run(capsys, "sweep", "--values", "1..6", "--k", "1..3", "--alg", "greedy",
                   "--jobs", "100000", "-o", str(bounded))
    assert rc == 0 and sizes == [4, 3]  # 3 rows
    monkeypatch.setattr(distsec.cli.os, "cpu_count", lambda: None)
    rc, _, _ = run(capsys, *base, "--jobs", "100000", "-o", str(bounded))
    assert rc == 0 and sizes == [4, 3]  # CPU count unknown: serial
    assert serial.read_bytes() == bounded.read_bytes()


_LOADED = """
import json, sys
from distsec.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as e:  # --help
    rc = e.code
sys.stdout.flush()
heavy = [name for name in ("numpy", "concurrent.futures") if name in sys.modules]
print(json.dumps([rc, heavy]), file=sys.stderr)
"""


def run_fresh(*argv):
    """Run ``main(argv)`` in a fresh interpreter.  Returns the exit code, the
    stdout bytes and which of numpy and concurrent.futures were loaded."""
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv],
        capture_output=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC),
    )
    rc, heavy = json.loads(done.stderr.decode().splitlines()[-1])
    return rc, done.stdout, set(heavy)


def test_start_up_loads_only_what_the_subcommand_runs(tmp_path):
    # numpy is most of the package's import time and only the sampler uses
    # it; the pool is only for sweep --jobs.
    # pytest has already imported both, so only a fresh interpreter shows this.
    done = subprocess.run(
        [sys.executable, "-c", "import sys, distsec; "
         "print(sorted({'numpy', 'concurrent.futures'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.stdout == "[]\n"
    code = tmp_path / "code.json"
    code.write_text(json.dumps(code_to_dict(greedy_code(QUAD, 1))))
    system = _write_system(tmp_path)
    light = [
        ("--help",),
        ("search", "--values", "1,2,3", "--k", "1"),
        ("analyze", "--code", str(code), "--values", "1..4"),
        ("compose", "--config", str(system)),
        ("encode", "--alg", "greedy", "--values", "1..4", "--k", "1"),
        ("encode", "--alg", "exchange", "--values", "1..4", "--k", "1"),
    ]
    for argv in light:
        rc, out, heavy = run_fresh(*argv)
        assert (rc, heavy) == (0, set()), argv
        assert out
    # Malformed input exits before any construction.
    rc, out, heavy = run_fresh("encode", "--alg", "exchange", "--values", "1,2,3",
                               "--pmf", "0.5,0.25,0.25", "--k", "1")
    assert (rc, out, heavy) == (3, b"", set())
    rc, _, heavy = run_fresh("simulate", "--code", str(code), "--values", "1..4",
                             "--trials", "100")
    assert (rc, heavy) == (0, {"numpy"})


def test_fresh_sweep_bytes_do_not_depend_on_jobs():
    # Exchange rows load neither numpy nor the pool; in process pytest has
    # both loaded already, so only a fresh run shows what a sweep loads.
    base = ("sweep", "--values", "1..6", "--alg", "greedy,exchange", "--k", "0..2")
    rc, serial, heavy = run_fresh(*base, "--jobs", "1")
    assert (rc, heavy) == (0, set())
    assert len(csv_rows(serial.decode())) == 7
    # A light sweep stays in process whatever --jobs is.
    rc, pooled, heavy = run_fresh(*base, "--jobs", "2")
    assert (rc, pooled, heavy) == (0, serial, set())
    # Two greedy rows of m and 2m pairs: 3m just below, then at the break-even.
    for m, pools in (((distsec.cli.POOL_BREAK_EVEN - 1) // 3, False),
                     (-(-distsec.cli.POOL_BREAK_EVEN // 3), True)):
        heavier = ("sweep", f"--values=1..{m}", "--alg", "greedy", "--k", "0..1")
        rc, serial, heavy = run_fresh(*heavier, "--jobs", "1")
        assert (rc, heavy) == (0, set())
        rc, pooled, heavy = run_fresh(*heavier, "--jobs", "2")
        assert (rc, pooled) == (0, serial)
        want = {"concurrent.futures"} if pools and (os.cpu_count() or 1) > 1 else set()
        assert heavy == want, m


def test_sweep_rows_match_encode_and_analyze_on_a_uniform_float_pmf(capsys, tmp_path):
    # A pmf of floats equal to 1/m is uniform but keeps the float path; a
    # sweep row must not switch to exact arithmetic behind it.
    source = ("--values=242858000000002,-224147999999993,312230000000001,270034000000000",
              "--pmf", "0.25,0.25,0.25,0.25")
    rc, out, _ = run(capsys, "sweep", *source, "--k", "2", "--alg", "greedy")
    assert rc == 0
    swept = csv_rows(out)[1]
    code_path = tmp_path / "code.json"
    rc, _, _ = run(capsys, "encode", *source, "--k", "2", "--alg", "greedy",
                   "-o", str(code_path))
    assert rc == 0
    rc, out, _ = run(capsys, "analyze", *source, "--code", str(code_path))
    assert rc == 0
    analyzed = csv_rows(out)[1]
    assert swept[5:8] == analyzed[5:8]
    assert swept[5] == "4.733395773874887e+28"


def test_sweep_rejects_bad_grid(capsys):
    rc, _, _ = run(capsys, "sweep", "--values", "1..4", "--k", "5..1", "--alg", "greedy")
    assert rc == 2
    rc, _, _ = run(capsys, "sweep", "--values", "1..4", "--k", "1", "--alg", "sneaky")
    assert rc == 2


@pytest.mark.parametrize("alg, seeds", [
    ("greedy", "18446744073709551616,-3"),
    ("exchange", "-3"),
    ("greedy", f"{2**64 - 2}..{2**64}"),
])
def test_sweep_seeds_fit_in_64_bits(capsys, alg, seeds):
    rc, out, err = run(capsys, "sweep", "--values", "1..4", "--k", "1",
                       "--alg", alg, "--seeds", seeds)
    assert (rc, out) == (2, "")
    assert err == "error: argument --seeds: seed must fit in 64 bits\n"
    rc, out, _ = run(capsys, "sweep", "--values", "1..4", "--k", "1",
                     "--alg", alg, "--seeds", str(2**64 - 1))
    assert rc == 0 and csv_rows(out)[1][4] == str(2**64 - 1)


@pytest.mark.parametrize("flag", ["--seeds", "--k", "--values"])
def test_ranges_beyond_the_cap_exit_4_before_they_are_built(capsys, flag):
    # A list this long would exhaust memory if it were built before the check.
    argv = {"--values": "1..4", "--k": "1", "--alg": "greedy"}
    argv[flag] = f"0..{10**12}"
    rc, out, err = run(capsys, "sweep", *(x for item in argv.items() for x in item))
    assert (rc, out) == (4, "")
    assert err.startswith("error: range") and "cap" in err


def _huge_exponent_token(tmp_path):
    return ("encode", "--alg", "identity", "--values", "1e999999999,2", "--exact")


def _huge_exponent_json_float(tmp_path):
    path = tmp_path / "alpha.json"
    path.write_text('{"values": [1e-999999999, 2]}')
    return ("encode", "--alg", "identity", "--values", f"@{path}", "--exact")


def _huge_exponent_json_string(tmp_path):
    path = _write_system(tmp_path)
    doc = json.loads(path.read_text())
    doc["function"]["components"][0][1][0] = "3e999999999"
    path.write_text(json.dumps(doc))
    return ("compose", "--config", str(path))


@pytest.mark.parametrize("make", [
    _huge_exponent_token, _huge_exponent_json_float, _huge_exponent_json_string,
])
def test_huge_exponents_exit_3_without_parsing(tmp_path, make):
    # Parsing these as Fractions would not finish.
    done = run_bounded(*make(tmp_path))
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error:") and "exceeds 10**4" in done.stderr


def _write_system(tmp_path, code0_doc=None):
    code = tmp_path / "code.json"
    code.write_text(json.dumps(code_to_dict(greedy_code(QUAD, 1))))
    vals = [4, 3, 2, 1]
    ones = [1, 1, 1, 1]
    system = {
        "version": 1,
        "sources": [{"values": [4, 3, 2, 1]}, {"values": [4, 3, 2, 1]}],
        "codes": [
            code0_doc if code0_doc is not None else {"path": "code.json"},
            "code.json",
        ],
        "function": {"form": "pure-sum", "components": [[vals, ones], [ones, vals]]},
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    return path


def test_compose_reports_joint_row(capsys, tmp_path):
    path = _write_system(tmp_path)
    rc, out, _ = run(capsys, "compose", "--config", str(path))
    assert rc == 0
    header, row = csv_rows(out)
    assert header == REPORT_COLUMNS
    assert row[1:4] == ["16", "2", "compose"]
    assert float(row[5]) == 2.5
    assert float(row[7]) == 0.0
    assert row[8:12] == ["na", "na", "na", "na"]
    assert row[12] == "true"
    assert len(row[0]) == 12


def test_compose_inline_code_document(capsys, tmp_path):
    path = _write_system(tmp_path, code0_doc=code_to_dict(greedy_code(QUAD, 1)))
    rc, out, _ = run(capsys, "compose", "--config", str(path))
    assert rc == 0
    assert float(csv_rows(out)[1][7]) == 0.0


def test_compose_rejects_wrong_version(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"version": 2}))
    rc, _, _ = run(capsys, "compose", "--config", str(path))
    assert rc == 3


def test_compose_analyses_systems_beyond_a_trillion_states(capsys, tmp_path):
    # 14 secured sources of 4 values and 2 keys: 8**14 ~ 4.4e12 joint
    # (value, key) states, analysed from per-source moments alone.
    n = 14
    vals, ones = [4, 3, 2, 1], [1, 1, 1, 1]
    system = {
        "version": 1,
        "sources": [{"values": vals}] * n,
        "codes": [code_to_dict(greedy_code(QUAD, 1))] * n,
        "function": {
            "form": "pure-sum",
            "components": [[vals if i == l else ones for i in range(n)] for l in range(n)],
        },
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    rc, out, _ = run(capsys, "compose", "--config", str(path))
    assert rc == 0
    row = csv_rows(out)[1]
    assert row[1:4] == [str(4**n), str(n), "compose"]
    assert float(row[5]) == n * 1.25
    assert float(row[7]) == 0.0
    assert row[12] == "true"


@pytest.mark.parametrize("argv", [
    ("encode", "--alg", "greedy", "--values", "1..4", "--k", "40"),
    ("encode", "--alg", "exchange", "--values", "1..4", "--k", "18"),
    ("sweep", "--values", "1..4", "--k", "0..40", "--alg", "greedy"),
])
def test_constructions_beyond_the_cap_exit_4(capsys, argv):
    # m * 2**k above 1,000,000 is refused before any table is built
    rc, out, err = run(capsys, *argv)
    assert rc == 4
    assert err.startswith("error:") and "cap" in err
    assert out == ""


def test_simulate_single_source_reproducible(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(code_to_dict(greedy_code(QUAD, 1))))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (out1, out2):
        rc, _, _ = run(capsys, "simulate", "--code", str(code_path),
                       "--values", "1,2,3,4", "--trials", "20000", "--seed", "3",
                       "-o", str(out))
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = csv_rows(out1.read_bytes().decode())
    assert rows[0] == ["trials", "seed", "analytic_dach", "empirical_dach", "stderr"]
    assert rows[1][0] == "20000" and rows[1][2] == "1.25"


def _bad_code(tmp_path, field, value):
    doc = code_to_dict(greedy_code(QUAD, 1))
    if field == "bin":  # in place of bin int(value), so truncation would pass
        row = doc["assignment"][0]
        row[row.index(int(value))] = value
    else:
        doc[field] = value
    path = tmp_path / "bad_code.json"
    path.write_text(json.dumps(doc))
    return ("analyze", "--code", str(path), "--values", "1,2,3,4")


def _bad_system(tmp_path, field, value):
    path = _write_system(tmp_path)
    doc = json.loads(path.read_text())
    if field == "components":
        doc["function"]["components"] = value
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    return ("compose", "--config", str(path))


def _bad_sweep_values(tmp_path, field, value):
    return ("sweep", "--values", value, "--k", "0..1", "--alg", "greedy")


def _bad_alphabet_file(tmp_path, field, value):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({field: value}))
    return ("encode", "--alg", "identity", "--values", f"@{path}")


@pytest.mark.parametrize("make, field, value", [
    (_bad_code, "m", [1]),
    (_bad_code, "k", None),
    (_bad_code, "bin", 1.5),
    (_bad_system, "sources", 5),
    (_bad_system, "codes", 5),
    (_bad_system, "components", 5),
    (_bad_system, "components", [[5]]),
    (_bad_alphabet_file, "values", [[1], 2]),
    pytest.param(_bad_code, "k", 2**64, id="huge-k"),
    pytest.param(_bad_sweep_values, "values", "nan,1,2", id="nan-value"),
    pytest.param(_bad_system, "components", [[[float("nan"), 3, 2, 1], [1, 1, 1, 1]],
                                             [[1, 1, 1, 1], [4, 3, 2, 1]]], id="nan-table"),
    pytest.param(_bad_system, "components", [[[float("inf"), 3, 2, 1], [1, 1, 1, 1]],
                                             [[1, 1, 1, 1], [4, 3, 2, 1]]], id="inf-table"),
    pytest.param(_bad_system, "version", True, id="version-true"),
    # exact, but d_max ~ 1e672 cannot print as a float
    pytest.param(_bad_sweep_values, "values", f"1,{10**336}", id="int-1e336"),
])
def test_malformed_documents_exit_3(capsys, tmp_path, make, field, value):
    rc, out, err = run(capsys, *make(tmp_path, field, value))
    assert rc == 3
    assert err.startswith("error:")
    assert out == ""


def test_simulate_system(capsys, tmp_path):
    path = _write_system(tmp_path)
    rc, out, _ = run(capsys, "simulate", "--system", str(path),
                     "--trials", "10000", "--seed", "5")
    assert rc == 0
    row = csv_rows(out)[1]
    assert row[2] == "2.5"
    assert abs(float(row[3]) - 2.5) <= 4 * float(row[4])


def test_simulate_needs_exactly_one_target(capsys, tmp_path):
    path = _write_system(tmp_path)
    code_path = tmp_path / "code.json"
    rc, _, _ = run(capsys, "simulate", "--system", str(path), "--code", str(code_path))
    assert rc == 2
    rc, _, _ = run(capsys, "simulate", "--trials", "100")
    assert rc == 2


def test_simulate_rejects_bad_trials(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(code_to_dict(greedy_code(QUAD, 1))))
    rc, _, _ = run(capsys, "simulate", "--code", str(code_path),
                   "--values", "1,2,3,4", "--trials", "0")
    assert rc == 3


def test_simulate_trial_cap_exits_4_before_sampling(tmp_path):
    # One trial past the cap would sample for some 20 s; the cap refuses it
    # before the first draw.
    code = tmp_path / "code.json"
    code.write_text(json.dumps(code_to_dict(greedy_code(QUAD, 1))))
    done = run_bounded("simulate", "--code", str(code), "--values", "1,2,3,4",
                       "--trials", "100000001", seconds=10)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == "error: 100000001 trials exceed the cap of 100000000\n"


def test_float_report_keeps_delta_within_d_max(capsys, tmp_path):
    # The identity code reveals everything, so delta == d_max and d_ach == 0;
    # two roundings of one variance once printed delta a hair above d_max
    # and a negative d_ach.
    code = tmp_path / "code.json"
    code.write_text(json.dumps(code_to_dict(identity_code(2))))
    rc, out, _ = run(capsys, "analyze", "--code", str(code), "--values=-2.942,3.966",
                     "--pmf", "0.3333333333333333,0.6666666666666666")
    assert rc == 0
    _, row = csv_rows(out)
    d_max, d_ach, delta = row[5:8]
    assert d_ach == "0"
    assert delta == d_max == "10.604547555555557"


def test_unwritable_output_exits_3(capsys, tmp_path):
    target = tmp_path / "missing" / "code.json"
    rc, out, err = run(capsys, "encode", "--alg", "identity", "--values", "1,2",
                       "-o", str(target))
    assert (rc, out) == (3, "")
    assert err.startswith(f"error: cannot write {target}:")


def _module_constant(tree, name):
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name
    )


def test_cli_binds_every_name_the_traced_bench_run_swaps():
    # bench/spans.py wraps these names by attribute on the CLI module, builds
    # bound_report from BOUND_PARTS and reads a few result attributes; a name
    # the library drops breaks the traced run.  Read, not imported, so
    # nothing is written under bench/.
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    tree = ast.parse(spans.read_text())
    entry_points = _module_constant(tree, "ENTRY_POINTS")
    names = [name for layer in entry_points.values() for name in layer] + ["bound_report"]
    for name in names:
        assert getattr(distsec.cli, name) is getattr(distsec, name), name
    for name in _module_constant(tree, "BOUND_PARTS"):
        assert callable(getattr(distsec.analysis, name)), name
    report_keywords = [
        {kw.arg for kw in node.keywords}
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "DistortionReport"
    ]
    assert report_keywords == [{f.name for f in dataclasses.fields(DistortionReport)}]
    assert len(report_keywords[0]) == 7
    assert "state_count" in {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert callable(JointSystem.state_count)


def test_package_exports_exactly_what_it_imports():
    # Every name in __all__ resolves, and every public name __init__ pulls in
    # is listed there: nothing is exported by accident or left dangling.
    init = Path(distsec.__file__)
    imported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not alias.name.startswith("_")
    }
    assert len(distsec.__all__) == len(set(distsec.__all__))
    assert set(distsec.__all__) == imported
    for name in distsec.__all__:
        assert getattr(distsec, name) is not None, name


# --- exit code and message for every kind of malformed input ------------------

def _malformed_fixtures(tmp):
    """Input files the malformed-input table refers to as {tmp}/<name>."""
    code = code_to_dict(greedy_code(QUAD, 1))
    system = json.loads(_write_system(tmp).read_text())
    files = {
        "bad.json": "{not json",
        "code_k_null.json": json.dumps(dict(code, k=None)),
        "code_bin_half.json": json.dumps(dict(code, assignment=[[1.5, 0, 1, 2], [0, 1, 2, 3]])),
        "alpha_values5.json": json.dumps({"values": 5}),
        "sys_v2.json": json.dumps(dict(system, version=2)),
        "sys_nocodes.json": json.dumps({k: v for k, v in system.items() if k != "codes"}),
        "sys_sources5.json": json.dumps(dict(system, sources=5)),
        "sys_codepath5.json": json.dumps(dict(system, codes=[{"path": 5}, "code.json"])),
        "sys_badcode.json": json.dumps(dict(system, codes=["code_k_null.json", "code.json"])),
        "sys_components5.json": json.dumps(dict(system, function={"components": [[5]]})),
        "sys_form.json": json.dumps(dict(system, function=dict(system["function"], form="x"))),
        "sys_onecode.json": json.dumps(dict(system, codes=["code.json"])),
    }
    for name, text in files.items():
        (tmp / name).write_text(text)


_NO_FILE = "[Errno 2] No such file or directory: '{tmp}/missing.json'"
_NOT_JSON = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
_TOO_BIG = "1," + "1" + "0" * 336
_SEARCH_CAP = "exceeds caps (max_m=8, max_k=2); pass force=True to search anyway"
_CONSTRUCTION_CAP = "construction needs m*2**k = 4*2**40 (value, key) states, above the cap of 1000000"

MALFORMED = [
    ("encode --alg greedy --values 1,2", 2, "--k is required for greedy and exchange"),
    ("encode --alg identity --values 1,2 --k 1", 3, "identity is the k=0 code"),
    ("encode --alg identity --values 1,x,3", 3, "bad numeric literal 'x'"),
    ("encode --alg identity --values=", 3, "empty number list"),
    ("encode --alg identity --values 1/0", 3, "bad rational literal '1/0'"),
    ("encode --alg identity --values 1e99999,2 --exact", 3,
     "exponent of '1e99999' exceeds 10**4 in magnitude"),
    ("encode --alg identity --values 1..x", 3, "bad range '1..x'"),
    ("encode --alg identity --values nan,1", 3, "value must be finite, got nan"),
    ("encode --alg identity --values 1,2 --pmf 0.5", 3, "pmf has 1 entries for 2 values"),
    ("encode --alg identity --values @{tmp}/missing.json", 3,
     "cannot read {tmp}/missing.json: " + _NO_FILE),
    ("encode --alg identity --values @{tmp}/bad.json", 3,
     "{tmp}/bad.json is not valid JSON: " + _NOT_JSON),
    ("encode --alg identity --values @{tmp}/alpha_values5.json", 3,
     "{tmp}/alpha_values5.json: alphabet document must be an object with a 'values' list"),
    ("encode --alg greedy --values 1..4 --k 40", 4, _CONSTRUCTION_CAP),
    ("encode --alg exchange --values 1,2 --k 1 --pmf 0.9,0.1", 3,
     "exchange binning requires a uniform alphabet"),
    ("analyze --code {tmp}/code.json --values 1,2,3", 3, "alphabet has 3 values, code expects 4"),
    ("analyze --code {tmp}/code_k_null.json --values 1,2,3,4", 3,
     "{tmp}/code_k_null.json: k must be an integer, got None"),
    # --exact reads the alphabet, not the code: a code document holds integers
    ("analyze --code {tmp}/code_bin_half.json --values 1,2,3,4 --exact", 3,
     "{tmp}/code_bin_half.json: bin index must be an integer, got 1.5"),
    ("analyze --code {tmp}/code.json --values 1,2,3,4 --pmf 1/3,1/3,1/3,1/3", 3,
     "pmf sums to 4/3, expected 1"),
    ("analyze --code {tmp}/code.json --values 1,2,3,1e400", 3, "value must be finite, got inf"),
    ("search --values 1..9 --k 1", 4, "m=9, k=1 " + _SEARCH_CAP),
    ("search --values 1,2 --k 3", 4, "m=2, k=3 " + _SEARCH_CAP),
    ("search --values 1..5 --k 2 --no-prune", 4,
     "m=5, k=2 gives 20 copies, above the unpruned cap of 16; pass force=True to search anyway"),
    ("search --values 1,2 --k 1 --r-lo 2", 2, "--r-lo and --r-hi go together"),
    ("search --values 1,2 --k 1 --pmf 0.9,0.1", 3, "search requires a uniform alphabet"),
    ("search --values 1,2 --k 1 --r-lo 5 --r-hi 5", 3, "empty bin-count range (5, 5) for m=2"),
    ("search --values 1e300,1e-300,3.5,2.25,7e10 --k 2", 3,
     "integer division result too large for a float"),
    ("search --values 1e300,1e-300,3.5,2.25,7e10 --k 2 --exact", 3,
     "integer division result too large for a float"),
    ("compose --config {tmp}/missing.json", 3, "cannot read {tmp}/missing.json: " + _NO_FILE),
    ("compose --config {tmp}/sys_v2.json", 3,
     "system config must be a JSON object with version: 1"),
    ("compose --config {tmp}/sys_nocodes.json", 3, "system config missing field 'codes'"),
    ("compose --config {tmp}/sys_sources5.json", 3,
     "system config field 'sources' must be a list"),
    ("compose --config {tmp}/sys_codepath5.json", 3, "code path must be a string, got 5"),
    ("compose --config {tmp}/sys_badcode.json", 3,
     "{tmp}/code_k_null.json: k must be an integer, got None"),
    ("compose --config {tmp}/sys_components5.json", 3,
     "components must be a list of terms, each a list of tables"),
    ("compose --config {tmp}/sys_form.json", 3,
     "unknown form 'x', expected one of "
     "('general-sum-of-products', 'pure-sum', 'pure-product')"),
    ("compose --config {tmp}/sys_onecode.json", 3,
     "function touches 2 sources, got 2 alphabets and 1 codes"),
    ("simulate --system {tmp}/sys_v2.json --code {tmp}/code.json", 2,
     "give exactly one of --code or --system"),
    ("simulate --code {tmp}/code.json", 2, "missing --values"),
    ("simulate --code {tmp}/code.json --values 1,2,3,4 --trials 0", 3, "need at least one trial"),
    ("simulate --code {tmp}/code.json --values 1,2,3", 3, "alphabet has 3 values, code expects 4"),
    ("simulate --system {tmp}/sys_badcode.json --trials 64", 3,
     "{tmp}/code_k_null.json: k must be an integer, got None"),
    ("sweep --values 1..4 --k 5..1 --alg greedy", 2, "argument --k: empty range '5..1'"),
    ("sweep --values 1..4 --k 1 --alg sneaky", 2, "unknown algorithm 'sneaky'"),
    ("sweep --values 1..4 --k=-1 --alg greedy", 2, "argument --k: key bit counts must be >= 0"),
    ("sweep --values 1..4 --k 1,x --alg greedy", 2, "argument --k: bad integer list '1,x'"),
    ("sweep --values 1..4 --k 1 --alg greedy --seeds -3", 2,
     "argument --seeds: seed must fit in 64 bits"),
    ("sweep --values 1..4 --k 0..40 --alg greedy", 4, _CONSTRUCTION_CAP),
    ("sweep --values 1..4 --k 1 --alg exchange --pmf 0.4,0.2,0.2,0.2", 3,
     "exchange binning requires a uniform alphabet"),
    (f"sweep --values {_TOO_BIG} --k 1 --alg greedy", 3, "a result does not fit a finite float"),
    ("sweep --values 1..4 --k 1 --alg greedy --jobs 0", 2,
     "argument --jobs: must be a positive integer, got 0"),
    ("encode --alg greedy --values 1..4 --k 1 --jobs -3", 2,
     "argument --jobs: must be a positive integer, got -3"),
    ("encode --alg greedy --values 1..4 --k 1 --jobs x", 2, "argument --jobs: invalid int value: 'x'"),
    ("encode --alg greedy --values 1..4 --k 1 --seed -1", 2,
     "argument --seed: seed must fit in 64 bits"),
    ("encode --alg greedy --values 1..4 --k 1 --bogus", 2, "unrecognized arguments: --bogus"),
    ("nope", 2, "argument command: invalid choice: 'nope' "
     "(choose from 'encode', 'analyze', 'search', 'compose', 'simulate', 'sweep')"),
]


@pytest.mark.parametrize("line, code, message", MALFORMED, ids=[m[0][:60] for m in MALFORMED])
def test_malformed_input_exit_code_and_message(capsys, tmp_path, line, code, message):
    _malformed_fixtures(tmp_path)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in line.split(" ")]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (code, "")
    assert err == "error: " + message.replace("{tmp}", str(tmp_path)) + "\n"


# --- fuzzing the system-config boundary --------------------------------------

_FUZZ_BASE = {
    "version": 1,
    "sources": [{"values": [4, 3, 2, 1]}, {"values": [1, 2], "pmf": ["1/3", "2/3"]}],
    "codes": [code_to_dict(greedy_code(QUAD, 1)), {"path": "code.json"}],
    "function": {
        "form": "general-sum-of-products",
        "components": [[[4, 3, 2, 1], [1, 1]], [[1, 1, 1, 1], [2, 5]]],
    },
}
_NUMBER = st.one_of(
    st.integers(-10, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([True, 2**64, -(10**400), 10**400, "1/3", "-7/2", "1/0"]),
)
_JSON = st.recursive(
    st.one_of(st.none(), _NUMBER, st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)


def _locations(doc, prefix=()):
    """Paths to every value nested inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,), value
        yield from _locations(value, prefix + (key,))


def _mutate(doc, data):
    """One to three edits: mostly a number swapped for another, sometimes any
    JSON value swapped in, a value deleted, or a value wrapped in a list."""
    for _ in range(data.draw(st.integers(1, 3))):
        action = data.draw(st.sampled_from(["number"] * 3 + ["any", "delete", "wrap"]))
        locations = [
            path for path, value in _locations(doc)
            if action != "number" or not isinstance(value, (list, dict))
        ]
        if not locations:
            break  # everything deletable is gone
        *parents, key = data.draw(st.sampled_from(locations))
        holder = doc
        for step in parents:
            holder = holder[step]
        if action == "number":
            holder[key] = data.draw(_NUMBER)
        elif action == "any":
            holder[key] = data.draw(_JSON)
        elif action == "wrap":
            holder[key] = [holder[key]]
        else:
            del holder[key]
    return doc


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), command=st.sampled_from(["compose", "simulate"]), exact=st.booleans())
def test_mutated_system_configs_exit_cleanly(data, command, exact):
    doc = _mutate(copy.deepcopy(_FUZZ_BASE), data)
    with tempfile.TemporaryDirectory() as tmp:
        code = code_to_dict(greedy_code(make_alphabet([1, 2]), 1))
        Path(tmp, "code.json").write_text(json.dumps(code))
        path = Path(tmp, "system.json")
        path.write_text(json.dumps(doc))
        if command == "compose":
            argv = ["compose", "--config", str(path)]
        else:
            argv = ["simulate", "--system", str(path), "--trials", "64"]
        rc, out, err = main_quiet(argv + (["--exact"] if exact else []))
    assert rc in (0, 2, 3, 4)
    if rc:
        assert err.startswith("error:"), err
    else:
        assert "nan" not in out and "inf" not in out


_FUZZ_DOCUMENTS = {
    "code": code_to_dict(greedy_code(QUAD, 1)),
    "alphabet": {"values": [4, "7/2", 2.5, 1], "pmf": ["1/4", 0.25, "1/4", "1/4"]},
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(sorted(_FUZZ_DOCUMENTS)),
       command=st.sampled_from(["analyze", "simulate"]), exact=st.booleans())
def test_mutated_code_and_alphabet_documents_exit_cleanly(data, kind, command, exact):
    doc = _mutate(copy.deepcopy(_FUZZ_DOCUMENTS[kind]), data)
    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp, "code.json")
        good.write_text(json.dumps(_FUZZ_DOCUMENTS["code"]))
        path = Path(tmp, "doc.json")
        path.write_text(json.dumps(doc))
        code, values = (path, "1,2,3,4") if kind == "code" else (good, f"@{path}")
        argv = [command, "--code", str(code), "--values", values]
        if command == "simulate":
            argv += ["--trials", "64"]
        rc, out, err = main_quiet(argv + (["--exact"] if exact else []))
    assert rc in (0, 2, 3, 4)
    if rc:
        assert err.startswith("error:"), err
    else:
        assert "nan" not in out and "inf" not in out


# --- flag combinations drawn from the parser's own options --------------------

def _parser_options():
    """{subcommand: [(flag, action), ...]} read from ``build_parser()``."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [(a.option_strings[-1], a) for a in p._actions
               if a.option_strings and a.dest != "help"]
        for name, p in sub.choices.items()
    }


_OPTIONS = _parser_options()


# (valid, malformed) values per option; "{tmp}" is the example's fixture
# directory.  Sizes stay small: at most m = 20 values, k <= 3, 2000 trials,
# two jobs and three seeds, so every example finishes in milliseconds.
_FLAG_VALUES = {
    "--values": (["1,2,3,4", "9,5,2,1", "1..4", "0.5,1.5,2.5,3.5", "1/2,3/4,5/4,7/4",
                  "1..20", "@{tmp}/alpha.json"],
                 ["1..10000000", "", "1,,2", "a,b", "4..1", "1e999", "@{tmp}/missing.json"]),
    "--pmf": (["0.25,0.25,0.25,0.25", "1/4,1/4,1/4,1/4", "0.1,0.2,0.3,0.4"],
              ["0.5,0.5", "2,-1", "x", "1/3,1/3,1/3"]),
    "--k": (["0", "1", "2", "3"], ["21", "-1", "x"]),
    "--seed": (["0", "7", "18446744073709551615"], ["18446744073709551616", "-1", "x"]),
    "--jobs": (["1", "2"], ["0", "-3", "x"]),
    "--output": (["{tmp}/out.txt"], ["{tmp}/missing/out.txt", "{tmp}"]),
    "--alg": (["greedy", "exchange", "identity"], ["bogus"]),
    "--code": (["{tmp}/code.json"],
               ["{tmp}/code2.json", "{tmp}/bad.json", "{tmp}/missing.json"]),
    "--config": (["{tmp}/system.json"],
                 ["{tmp}/bad.json", "{tmp}/code.json", "{tmp}/missing.json"]),
    "--trials": (["1", "64", "2000"], ["100000001", "0", "-5", "x"]),
    "--r-lo": (["1", "4", "6"], ["0", "-1", "x"]),
    "--r-hi": (["1", "4", "6"], ["0", "-1", "x"]),
    "--seeds": (["1,2", "0..2"], ["1..10000000", "x", "-1"]),
    # store_true flags: present or absent
    "--exact": ([True, False], []),
    "--no-prune": ([True, False], []),
    "--force": ([True, False], []),
}
_FLAG_VALUES["--system"] = _FLAG_VALUES["--config"]
# Search is factorial: only m <= 4 at k <= 1, or beyond the caps (m > 8 or
# k > 2) where it stops at once; --force would then run for minutes.
_SEARCH_VALUES = {
    "--values": (["1,2,3,4", "9,5,2,1", "1..3", "0.5,1.5", "@{tmp}/alpha.json"],
                 ["1..12", "", "a"]),
    "--k": (["0", "1"], ["3", "-1", "x"]),
    "--force": ([False], []),
}
_SWEEP_VALUES = {
    "--k": (["0", "1", "0..2", "0,1"], ["21", "x", "2..0", "-1"]),
    "--alg": (["greedy", "greedy,exchange", "identity", "greedy,exchange,identity"],
              ["bogus", ""]),
}


def _flag_fixtures(tmp: Path) -> None:
    _write_system(tmp)  # code.json (QUAD, k=1) and system.json
    (tmp / "code2.json").write_text(json.dumps(code_to_dict(identity_code(2))))
    (tmp / "bad.json").write_text("{not json")
    (tmp / "alpha.json").write_text(json.dumps({"values": [1, 2, 3, 4]}))


def _draw_argv(data, command, tmp):
    """Every flag the subcommand has, each present or not with a valid value,
    except up to two faults: a malformed value, an omitted required flag, or
    an unknown flag."""
    overrides = {"search": _SEARCH_VALUES, "sweep": _SWEEP_VALUES}.get(command, {})
    table = {flag: overrides.get(flag, _FLAG_VALUES[flag]) for flag, _ in _OPTIONS[command]}
    faultable = [flag for flag, action in _OPTIONS[command] if table[flag][1] or action.required]
    faults = data.draw(st.lists(st.sampled_from(faultable + ["--bogus"]), max_size=2, unique=True))
    argv = [command]
    for flag, action in _OPTIONS[command]:
        valid, malformed = table[flag]
        if flag in faults:
            value = data.draw(st.sampled_from(malformed + [None] * action.required))
        elif action.required or data.draw(st.booleans()):
            value = data.draw(st.sampled_from(valid))
        else:
            value = None
        if value is True:
            argv.append(flag)
        elif value not in (None, False):
            argv.append(f"{flag}={value.format(tmp=tmp)}")
    if "--bogus" in faults:
        argv.append("--bogus")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), command=st.sampled_from(sorted(_OPTIONS)))
def test_flag_combinations_exit_cleanly(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        _flag_fixtures(Path(tmp))
        argv = _draw_argv(data, command, tmp)
        rc, _, err = main_quiet(argv)
    assert rc in (0, 2, 3, 4), (argv, rc, err)
    if rc:
        assert "error:" in err, (argv, err)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_sweep_bytes_do_not_depend_on_jobs(data):
    with tempfile.TemporaryDirectory() as tmp:
        _flag_fixtures(Path(tmp))
        argv = [
            "sweep",
            "--values=" + data.draw(st.sampled_from(["1..20", "9,5,2,1", "0.5,1.5,2.5,3.5"])),
            "--k=" + data.draw(st.sampled_from(["0..2", "1", "0,3"])),
            "--alg=" + data.draw(st.sampled_from(["greedy,exchange,identity", "exchange"])),
            "--seeds=" + data.draw(st.sampled_from(["0..2", "5"])),
        ]
        if data.draw(st.booleans()):
            argv.append("--exact")
        outputs = []
        # These sweeps are light; a zero break-even puts --jobs 2 on the pool.
        with mock.patch.object(distsec.cli, "POOL_BREAK_EVEN", 0):
            for jobs in ("1", "2"):
                path = Path(tmp, f"jobs{jobs}.csv")
                rc, _, err = main_quiet(argv + ["--jobs", jobs, "-o", str(path)])
                assert rc == 0, (argv, err)
                outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
