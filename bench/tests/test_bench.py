"""The benchmark's own checks: the oracle catches wrong outputs, the
generator is deterministic, and a job cut by its time limit fails."""

import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest

from check import REPORT_COLUMNS, Checker, Wrong, check_report_row, check_sim_row, parse_csv
from distsec.cli import main
from oracle import composed, single, sort_descending
from run import Result, SubprocessRunner, _verdict, in_process, measure
from workloads import WORKLOADS, Job, generate, lit

VALUES = ["9.5", "5.25", "2", "1.75", "0.5"]
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def cli(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.fixture
def code(tmp_path):
    path = tmp_path / "code.json"
    cli("encode", "--alg", "exchange", "--values", ",".join(VALUES), "--k", "2",
        "--seed", "3", "-o", str(path))
    return json.loads(path.read_text())


def exact_of(code, values=VALUES):
    vals, pmf = sort_descending([Fraction(v) for v in values])
    return single(vals, pmf, code["assignment"])


def analyze_row(tmp_path, exact: bool) -> list[str]:
    flags = ["--exact"] if exact else []
    text = cli("analyze", "--code", str(tmp_path / "code.json"), "--values", ",".join(VALUES), *flags)
    (row,) = parse_csv(text, REPORT_COLUMNS)
    return row


@pytest.mark.parametrize("exact", [True, False])
def test_correct_rows_pass(tmp_path, code, exact):
    check_report_row(analyze_row(tmp_path, exact), exact_of(code), exact, {"alg": "na"})


def test_one_changed_digit_is_rejected(tmp_path, code):
    row = analyze_row(tmp_path, exact=True)
    for name in ("d_max", "d_ach", "delta"):
        i = REPORT_COLUMNS.index(name)
        cell = row[i]
        pos = next(p for p, ch in enumerate(cell) if ch.isdigit() and ch != "0")
        bad = list(row)
        bad[i] = cell[:pos] + str((int(cell[pos]) + 1) % 10) + cell[pos + 1:]
        with pytest.raises(Wrong, match=name):
            check_report_row(bad, exact_of(code), True, {})


def test_a_negative_advantage_is_rejected(tmp_path, code):
    row = analyze_row(tmp_path, exact=False)
    ex = exact_of(code)
    row[REPORT_COLUMNS.index("delta")] = repr(-float(ex.d_max) / 4)
    for exact in (True, False):
        with pytest.raises(Wrong, match="negative advantage"):
            check_report_row(row, ex, exact, {})


def test_float_rows_get_the_documented_tolerance(tmp_path, code):
    row = analyze_row(tmp_path, exact=False)
    ex = exact_of(code)
    i = REPORT_COLUMNS.index("d_ach")
    row[i] = repr(float(ex.d_ach) + float(ex.d_max) * 1e-11)
    check_report_row(row, ex, False, {})
    row[i] = repr(float(ex.d_ach) + float(ex.d_max) * 1e-7)
    with pytest.raises(Wrong, match="d_ach"):
        check_report_row(row, ex, False, {})


def search_job(values, k):
    return Job(id="s", kind="search", argv=(), spec={"values": values, "k": k})


def test_search_best_code_must_carry_its_claimed_value():
    values = ["4", "3", "2", "1"]
    doc = json.loads(cli("search", "--values", ",".join(values), "--k", "1"))
    checker = Checker(".", None)
    checker.check(search_job(values, 1), json.dumps(doc))
    # The identity-like code leaks everything, yet the claim stays at the optimum.
    doc["best_code"]["assignment"] = [[0, 1, 2, 3], [0, 1, 2, 3]]
    with pytest.raises(Wrong, match="best_code's advantage"):
        checker.check(search_job(values, 1), json.dumps(doc))
    doc = json.loads(cli("search", "--values", ",".join(values), "--k", "1"))
    doc["exhaustive"] = False
    with pytest.raises(Wrong, match="exhaustive"):
        checker.check(search_job(values, 1), json.dumps(doc))


def test_simulation_five_standard_errors_off_is_rejected(tmp_path, code):
    text = cli("simulate", "--code", str(tmp_path / "code.json"), "--values", ",".join(VALUES),
               "--trials", "50000", "--seed", "7")
    ex = exact_of(code)
    check_sim_row(text, ex, False, 50000, 7)
    (row,) = parse_csv(text, ["trials", "seed", "analytic_dach", "empirical_dach", "stderr"])
    row[3] = repr(float(ex.d_ach) + 5 * float(row[4]))
    bad = ",".join(["trials", "seed", "analytic_dach", "empirical_dach", "stderr"]) + "\r\n" + ",".join(row) + "\r\n"
    with pytest.raises(Wrong, match="standard errors"):
        check_sim_row(bad, ex, False, 50000, 7)


def test_composed_oracle_matches_enumeration():
    from itertools import product

    rng_codes = [[[0, 1, 2], [2, 0, 1]], [[1, 0], [0, 2]]]
    sources = [sort_descending([Fraction(3), Fraction(1, 2), Fraction(-1)]),
               sort_descending([Fraction(2), Fraction(5, 4)], [Fraction(1, 4), Fraction(3, 4)])]
    comps = [[[1, 2, 3], [1, 1]], [[1, 1, 1], [4, -2]], [[2, 0, 1], [1, 3]]]
    ex = composed(sources, rng_codes, comps)
    # Brute force over every (values, keys) tuple.
    m0, m1 = {}, {}
    e1 = e2 = Fraction(0)
    for x0, x1, k0, k1 in product(range(3), range(2), range(2), range(2)):
        p = sources[0][1][x0] * sources[1][1][x1] / 4
        f = sum(Fraction(t[0][x0]) * t[1][x1] for t in comps)
        g = (rng_codes[0][k0][x0], rng_codes[1][k1][x1])
        m0[g] = m0.get(g, 0) + p
        m1[g] = m1.get(g, 0) + p * f
        e1 += p * f
        e2 += p * f * f
    assert ex.d_max == e2 - e1 * e1
    assert ex.delta == sum(m1[g] ** 2 / m0[g] for g in m0) - e1 * e1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_byte_deterministic(workload):
    assert generate(workload, 11, 2).dump() == generate(workload, 11, 2).dump()
    assert generate(workload, 11, 2).dump() != generate(workload, 12, 2).dump()


def test_sweep_workloads_differ_only_in_domain():
    exact, float_ = generate("sweep-exact", 5, 2), generate("sweep-float", 5, 2)
    assert [j.id for j in exact.jobs] == [j.id for j in float_.jobs]
    for a, b in zip(exact.jobs, float_.jobs):
        assert [t for t in a.argv if t != "--exact"] == list(b.argv)


def test_literals_are_exact_decimals():
    for x in (Fraction(3, 8), Fraction(-5, 4), Fraction(2**30) + Fraction(1, 2), Fraction(7)):
        assert Fraction(lit(x)) == x == Fraction(float(lit(x)))


def cap_edge():
    plan = generate("desk-search", 0, 1)
    job = next(j for j in plan.jobs if j.id == "search/cap-edge-m5-k2")
    return replace(job, limit_s=0.5)


def test_a_job_at_its_time_limit_fails(tmp_path):
    job = cap_edge()
    res = SubprocessRunner(ROOT, str(tmp_path)).job(job)
    assert res.code is None and res.seconds < 5
    assert _verdict(Checker(str(tmp_path), None), job, res, res.output).startswith("timed out")


def test_an_in_process_job_at_its_time_limit_fails(tmp_path):
    plan = replace(generate("desk-search", 0, 1), jobs=(cap_edge(),))
    (res,), seconds = in_process(plan, str(tmp_path), None)
    assert res.code is None and seconds < 5
    assert _verdict(Checker(str(tmp_path), None), plan.jobs[0], res, res.output).startswith("timed out")


def test_a_nonzero_exit_fails():
    job = Job(id="x", kind="analyze", argv=())
    why = _verdict(Checker(".", None), job, Result(3, 0.1, "", "error: bad input\n"), "")
    assert why == "exit 3: error: bad input"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_generated_command_parses(workload):
    from distsec.cli import build_parser

    parser = build_parser()
    for seed in range(20):
        for job in generate(workload, seed, 2).jobs:
            parser.parse_args(list(job.argv))


class CountingRunner:
    """Stands in for SubprocessRunner: every job takes 10 ms, ``cut`` ones hit their limit."""

    def __init__(self, cut):
        self.cut = cut
        self.calls = []

    def run(self, argv, limit_s):
        return Result(0, 0.01, "")

    def job(self, job):
        self.calls.append(job.id)
        return Result(None if job.id in self.cut else 0, 0.01, "")


def test_a_job_cut_at_its_limit_runs_in_the_first_pass_only():
    plan = replace(generate("desk-search", 0, 1), jobs=(Job(id="a", kind="x", argv=(), top=True),
                                                        Job(id="cut", kind="x", argv=())))
    runner = CountingRunner({"cut"})
    passes, extra, probes = measure(plan, runner, 0.2, top=0)
    assert len(passes) >= 2 and runner.calls.count("cut") == 1
    assert all(p[1] is passes[0][1] for p in passes)
    assert runner.calls.count("a") == len(passes) + len(extra)
