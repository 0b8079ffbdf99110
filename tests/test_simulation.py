"""Monte Carlo harness: reproducibility and agreement with the analysis."""

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add, sub
from pathlib import Path

import pytest

import distsec
from conftest import exact_oracle
from distsec import (
    CapExceededError,
    JointSystem,
    KeyedCode,
    SeparableFunction,
    SimConfig,
    bound_report,
    code_to_dict,
    greedy_code,
    identity_code,
    make_alphabet,
    product_function,
    simulate,
    sum_function,
)
from distsec import simulation
from distsec.multisource import FORMS, _compose
from distsec.simulation import FOLD_CELLS, MAX_TRIALS, STREAM_TRIALS, _tables

QUAD = make_alphabet([1, 2, 3, 4])


def test_config_validation():
    target = (greedy_code(QUAD, 1), QUAD)
    with pytest.raises(ValueError):
        SimConfig(trials=0, seed=0, target=target)
    with pytest.raises(ValueError):
        SimConfig(trials=10, seed=2**64, target=target)
    with pytest.raises(ValueError):
        SimConfig(trials=10, seed=-1, target=target)


def test_trial_count_is_capped_before_sampling():
    target = (greedy_code(QUAD, 1), QUAD)
    assert SimConfig(trials=MAX_TRIALS, seed=0, target=target).trials == MAX_TRIALS
    with pytest.raises(CapExceededError, match="cap of 100000000"):
        SimConfig(trials=MAX_TRIALS + 1, seed=0, target=target)
    with pytest.raises(CapExceededError):
        SimConfig(trials=10**12, seed=0, target=target)


def test_same_seed_same_report():
    config = SimConfig(trials=50_000, seed=12, target=(greedy_code(QUAD, 1), QUAD))
    assert simulate(config) == simulate(config)


def test_different_seeds_differ():
    target = (greedy_code(QUAD, 1), QUAD)
    a = simulate(SimConfig(trials=20_000, seed=1, target=target))
    b = simulate(SimConfig(trials=20_000, seed=2, target=target))
    assert a.empirical_dach != b.empirical_dach


def test_pinned_stream_regression():
    # frozen output of the pinned generator; a change here means seeded
    # reproducibility broke
    report = simulate(SimConfig(trials=20_000, seed=3, target=(greedy_code(QUAD, 1), QUAD)))
    assert report.analytic_dach == Fraction(5, 4)
    assert report.empirical_dach == 1.2429
    assert report.stderr == 0.0070710663622239435


EIGHT = make_alphabet(range(1, 9))
SKEWED = make_alphabet(range(1, 9), [Fraction(1, 16)] * 4 + [Fraction(3, 16)] * 4)
FLOAT_PMF = make_alphabet([0.5, 1.5, 2.5], [0.2, 0.3, 0.5])


def _two_groups():
    # One table of 3072 cells, drawn as two groups: the float pmf has no
    # bucket count within FOLD_CELLS.
    function = SeparableFunction(n=3, components=(
        ((1,) * 8, (0, 1, 2, 3), (1.0, 2.0, 3.0)),
        (tuple(range(8)), (1,) * 4, (0.5, 0.5, 1.5)),
    ))
    b = make_alphabet([-2, 1, 3, 5], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])
    return JointSystem(sources=(EIGHT, b, FLOAT_PMF),
                       codes=(greedy_code(EIGHT, 3), greedy_code(b, 2), identity_code(3)),
                       function=function)


def _two_tables():
    # 64 * 64 * 32 cells exceed FOLD_CELLS: a table of 4096 and one of 32.
    return JointSystem(
        sources=(EIGHT, SKEWED, EIGHT),
        codes=(greedy_code(EIGHT, 3), greedy_code(SKEWED, 3), greedy_code(EIGHT, 2)),
        function=product_function([range(1, 9), range(1, 9), [1, 1, 1, 1, 2, 2, 2, 2]]),
    )


def test_pinned_composed_stream_regression():
    # The composed sampler, pinned on a table drawn in two groups and on a
    # system split into two tables.
    _, tables = _tables(_two_groups())
    assert [(t.size, [len(w) for w, _ in t.groups]) for t in tables] == [(3072, [1024, 3])]
    report = simulate(SimConfig(trials=40_000, seed=21, target=_two_groups()))
    assert report.analytic_dach == 7.074739583333333
    assert report.empirical_dach == 7.021375888888889
    assert report.stderr == 0.07481154262094829

    _, tables = _tables(_two_tables())
    assert [(t.size, len(t.groups)) for t in tables] == [(4096, 1), (32, 1)]
    assert 4096 * 32 > FOLD_CELLS
    report = simulate(SimConfig(trials=40_000, seed=22, target=_two_tables()))
    assert report.analytic_dach == Fraction(122751, 256)
    assert report.empirical_dach == 478.15165390625
    assert report.stderr == 6.356645443513959


def _left_fold(xs, start=0):
    return reduce(add, xs, start)


def _neumaier(xs, start=0):
    """sum() as Python 3.12 computes it on floats: compensated (Neumaier)."""
    total, c = start, 0
    for x in xs:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c


def test_the_report_does_not_depend_on_the_builtin_sum(monkeypatch):
    # Python 3.12 made sum() of floats compensated, so block sums by sum()
    # read differently on 3.11 and 3.12; the seed must pin the report on both.
    config = SimConfig(trials=40_000, seed=21, target=_two_groups())
    reports = []
    for fold in (_left_fold, _neumaier):
        monkeypatch.setattr(simulation, "sum", fold, raising=False)
        reports.append(simulate(config))
    assert reports[0] == reports[1]


def _left_sums(columns):
    """Per cell, the columns' entries summed left to right."""
    return [reduce(add, cell) for cell in zip(*columns)]


def _full_fold_squared_errors(system):
    """Every cell's squared error as the sampler once built it: each term's
    function and posterior-mean columns multiplied out over every source,
    x major, the terms summed left to right, then x * x."""
    comp = _compose(system)
    f = est = None
    for i, (alphabet, code) in enumerate(zip(system.sources, system.codes)):
        nums, _ = alphabet.weights
        cells = [(x, g) for row in code.assignment for x, g in enumerate(row) if nums[x]]
        fi = [[float(term[i][x]) for x, _ in cells] for term in system.function.components]
        means = [[math.nan if mu is None else float(mu) for mu in row[i].posterior_means()]
                 for row in comp.moments]
        ei = [[mu[g] for _, g in cells] for mu in means]
        if f is None:
            f, est = fi, ei
        else:
            f = [[x * y for x in xs for y in ys] for xs, ys in zip(f, fi)]
            est = [[x * y for x in xs for y in ys] for xs, ys in zip(est, ei)]
    return array("d", [x * x for x in map(sub, _left_sums(f), _left_sums(est))])


def _random_scalar(rng, domain):
    if domain == "int":
        return rng.randint(-6, 6)
    if domain == "Fraction":
        return Fraction(rng.randint(-12, 12), rng.randint(1, 7))
    return rng.uniform(-3, 3)


def _random_system(rng, n, form, domain):
    """n sources of up to 4 values and k <= 2 (k <= 1 for four sources, so
    the table stays small), greedy or random codes, uniform or non-dyadic
    pmfs, sometimes with a zero entry, and ``form``'s function."""
    sources, codes = [], []
    for _ in range(n):
        m = rng.randint(1, 4)
        k = rng.randint(0, 1 if n == 4 else 2)
        values = rng.sample(range(-9, 10), m)
        if domain == "float":
            values = [v / 10 for v in values]
        weights = [rng.randint(0 if m > 1 else 1, 6) for _ in range(m)]
        if not any(weights) or rng.random() < 0.3:
            pmf = None
        elif domain == "float":
            pmf = [w / sum(weights) for w in weights]
        else:
            pmf = [Fraction(w, sum(weights)) for w in weights]
        alphabet = make_alphabet(values, pmf)
        if rng.random() < 0.5:
            code = greedy_code(alphabet, k)
        else:
            r = m + rng.randint(0, 2)
            rows = tuple(tuple(rng.sample(range(r), m)) for _ in range(2**k))
            code = KeyedCode(m=m, k=k, r=r, assignment=rows)
        sources.append(alphabet)
        codes.append(code)
    tables = [[_random_scalar(rng, domain) for _ in range(a.m)] for a in sources]
    if form == "pure-sum":
        function = sum_function(tables)
    elif form == "pure-product":
        function = product_function(tables)
    else:
        function = SeparableFunction(n=n, components=tuple(
            tuple(tuple(_random_scalar(rng, domain) for _ in range(a.m)) for a in sources)
            for _ in range(rng.randint(2, 3))
        ))
    return JointSystem(sources=tuple(sources), codes=tuple(codes), function=function)


@pytest.mark.parametrize("form", FORMS)
def test_squared_errors_equal_the_full_fold_bit_for_bit(form):
    # A table keeps the columns of its sources but the last and squares one
    # row or stride of cells at a time; the bytes must be those of the full
    # per-term columns, -0.0 and NaN included.
    rng = random.Random(f"fold/{form}")
    shapes = set()
    for case in range(48):
        domain = ("int", "Fraction", "float")[case % 3]
        system = _random_system(rng, 1 + case // 3 % 4, form, domain)
        (table,) = _tables(system)[1]
        got = table.squared_errors()
        assert got.tobytes() == _full_fold_squared_errors(system).tobytes(), (case, system)
        if table.last is None:
            shapes.add("one source")
        else:
            n = len(table.last[0][0])
            shapes.add("rows" if n > table.size // n else "strides")
    assert shapes == {"one source", "rows", "strides"}


def test_a_table_at_the_fold_limit_holds_one_squared_error_column():
    # Four sources of 16 cells fold into one table of FOLD_CELLS cells.  Its
    # squared errors take 8 bytes a cell; the 8 full per-term columns once
    # multiplied out took 32 bytes a cell each, a traced peak of 20 MB.
    a = make_alphabet([1, 2, 3, 4])
    system = JointSystem(
        sources=(a,) * 4,
        codes=(greedy_code(a, 2),) * 4,
        function=sum_function([[4, 3, 2, 1], [1, -1, 2, 5], [0.5, 1.5, 2, 3], [7, 1, 1, 2]]),
    )
    (table,) = _tables(system)[1]
    assert table.size == FOLD_CELLS
    tracemalloc.start()
    try:
        simulate(SimConfig(trials=STREAM_TRIALS, seed=3, target=system))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from distsec.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_simulate_runs_without_numpy(tmp_path):
    # The child interpreter cannot import numpy at all; its CSV is pinned.
    (tmp_path / "code.json").write_text(json.dumps(code_to_dict(greedy_code(QUAD, 1))))
    vals, ones = [4, 3, 2, 1], [1, 1, 1, 1]
    (tmp_path / "system.json").write_text(json.dumps({
        "version": 1,
        "sources": [{"values": vals}, {"values": vals, "pmf": ["1/2", "1/4", "1/8", "1/8"]}],
        "codes": ["code.json", "code.json"],
        "function": {"form": "pure-sum", "components": [[vals, ones], [ones, vals]]},
    }))
    env = dict(os.environ, PYTHONPATH=str(Path(distsec.__file__).resolve().parents[1]))
    outputs = []
    for argv in (["--code", "code.json", "--values", "1..4"], ["--system", "system.json"]):
        done = subprocess.run(
            [sys.executable, "-c", _WITHOUT_NUMPY, "simulate", *argv,
             "--trials", "20000", "--seed", "3"],
            capture_output=True, timeout=60, cwd=tmp_path, env=env,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.decode().splitlines()[1])
    assert outputs == [
        "20000,3,1.25,1.2428999999999999,0.0070710663622239435",
        "20000,3,2.2333333333333334,2.2267853333333334,0.021450430827337209",
    ]


def _cell_probabilities(alphabet, code):
    """pmf[x] / 2**k per cell of positive probability, key major."""
    return [p / code.key_count for row in code.assignment
            for p, _ in zip(alphabet.pmf, row) if p]


def _frequencies_match(cells, probabilities, draws):
    counts = Counter(cells)
    assert set(counts) <= set(range(len(probabilities)))
    for c, p in enumerate(probabilities):
        se = math.sqrt(draws * p * (1 - p))
        assert abs(counts[c] - draws * p) <= 5 * se, (c, counts[c], draws * p)


def _draw_cells(system, draws, seed):
    (table,) = _tables(system)[1]
    rng = random.Random(seed)
    pick = table.picker()
    return list(pick([[rng.random() for _ in range(draws)] for _ in table.groups]))


@pytest.mark.parametrize("alphabet", [SKEWED, FLOAT_PMF], ids=["lookup", "bisect"])
def test_cell_frequencies_follow_the_pmf(alphabet):
    code = greedy_code(alphabet, 1)
    system = JointSystem((alphabet,), (code,), product_function([alphabet.values]))
    draws = 100_000
    probabilities = _cell_probabilities(alphabet, code)
    _frequencies_match(_draw_cells(system, draws, 5), probabilities, draws)


@pytest.mark.parametrize("second", [SKEWED, FLOAT_PMF], ids=["one-group", "two-groups"])
def test_folded_cell_frequencies_are_products_of_marginals(second):
    a = make_alphabet([1, 2, 3], [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    codes = (greedy_code(a, 1), greedy_code(second, 1))
    system = JointSystem((a, second), codes, product_function([a.values, second.values]))
    (table,) = _tables(system)[1]
    assert len(table.groups) == (1 if second is SKEWED else 2)
    first = _cell_probabilities(a, codes[0])
    other = _cell_probabilities(second, codes[1])
    joint = [p * q for p in first for q in other]
    draws = 100_000
    _frequencies_match(_draw_cells(system, draws, 6), joint, draws)


@pytest.mark.parametrize("pmf", [
    [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0],
    [0.5, 0, 0.3, 0.2],
    [0.2, 0.3, 0.5, 0.0],
], ids=["exact-last-zero", "float-middle-zero", "float-last-zero"])
def test_zero_probability_values_are_never_drawn(pmf):
    # The pmf follows the values 4, 3, 2, 1.  A zero-probability value's bin
    # may have no posterior mean; none of its cells is in the table, so the
    # clamp to the last cell lands on a drawable one.
    alphabet = make_alphabet([4, 3, 2, 1], pmf)
    code = greedy_code(alphabet, 1)
    system = JointSystem((alphabet,), (code,), product_function([alphabet.values]))
    (table,) = _tables(system)[1]
    cells = len(_cell_probabilities(alphabet, code))
    assert table.size == cells == 2 * 3
    # The extremes of random(): the first cell and the last drawable one.
    assert list(table.picker()([[0.0, 1 - 2**-53]])) == [0, cells - 1]
    report = simulate(SimConfig(trials=50_000, seed=7, target=(code, alphabet)))
    assert math.isfinite(report.empirical_dach) and math.isfinite(report.stderr)
    assert abs(report.empirical_dach - float(report.analytic_dach)) <= 4 * report.stderr + 1e-12


def test_float_analytic_figure_is_the_reports_achievable_distortion():
    # Single sources run through the composed analysis, whose float sums
    # must land on bound_report's d_ach bit for bit.
    a = make_alphabet([0.1, 0.2, 0.7])
    code = greedy_code(a, 1)
    report = simulate(SimConfig(trials=1_000, seed=1, target=(code, a)))
    assert report.analytic_dach == bound_report(code, a).d_ach


def test_a_mean_whose_square_overflows_leaves_the_analytic_figure_finite():
    a = make_alphabet([1e200, 1e200])
    report = simulate(SimConfig(trials=100, seed=1, target=(identity_code(2), a)))
    assert report.analytic_dach == 0.0


def test_an_analytic_figure_no_float_holds_raises_overflow():
    # d_ach is about 5e399; the squared errors once read inf and stderr nan.
    a = make_alphabet([10**200, -10**200, 1, 2])
    with pytest.raises(OverflowError):
        simulate(SimConfig(trials=100, seed=1, target=(greedy_code(a, 1), a)))


def test_identity_code_has_zero_error():
    report = simulate(SimConfig(trials=5_000, seed=4, target=(identity_code(4), QUAD)))
    assert report.analytic_dach == 0
    assert report.empirical_dach == 0.0
    assert report.stderr == 0.0


def test_empirical_within_four_stderr():
    a = make_alphabet([9, 5, 2, 1])
    report = simulate(SimConfig(trials=80_000, seed=6, target=(greedy_code(a, 1), a)))
    assert report.analytic_dach == Fraction(73, 8)
    assert abs(report.empirical_dach - float(report.analytic_dach)) <= 4 * report.stderr
    assert report.stderr > 0


@pytest.mark.parametrize("values", [
    [1e8 + 1, 1e8, -1e8, -1e8 - 1],
    [s * 1e9 + d for s in (1, -1) for d in (3, 1, -1, -3)],
], ids=["1e8", "1e9"])
def test_stderr_is_right_on_a_large_mean(values):
    # Every squared error is near 1e16 or 1e18 with a spread far below its
    # mean; from raw sums of squares the report read stderr 0.0 and 4.6e8.
    a = make_alphabet(values)
    code = greedy_code(a, 1)
    trials = 10**6
    report = simulate(SimConfig(trials=trials, seed=0, target=(code, a)))
    means = exact_oracle(code, a).means
    pmf = [Fraction(p, code.key_count) for p in a.pmf]
    cells = [(pmf[x], (Fraction(a.values[x]) - means[g]) ** 2)
             for row in code.assignment for x, g in enumerate(row)]
    mean = sum(p * e for p, e in cells)
    sd = math.sqrt(sum(p * (e - mean) ** 2 for p, e in cells))
    assert abs(report.stderr / (sd / math.sqrt(trials)) - 1) <= 0.01
    assert abs(report.empirical_dach - float(report.analytic_dach)) <= 4 * report.stderr


def test_nonuniform_pmf_is_respected():
    skewed = make_alphabet(
        [1, 2, 3, 4],
        [Fraction(4, 10), Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)],
    )
    report = simulate(SimConfig(trials=80_000, seed=8, target=(greedy_code(skewed, 1), skewed)))
    assert abs(report.empirical_dach - float(report.analytic_dach)) <= 4 * report.stderr


def test_stream_block_boundaries():
    target = (greedy_code(QUAD, 1), QUAD)
    for trials in (1, STREAM_TRIALS, STREAM_TRIALS + 1, 3 * STREAM_TRIALS):
        report = simulate(SimConfig(trials=trials, seed=9, target=target))
        assert report.trials == trials
        # one-trial runs have no variance estimate worth trusting, just finiteness
        assert report.stderr >= 0.0


def test_joint_simulation_within_four_stderr():
    vals = (4, 3, 2, 1)
    secure = JointSystem(
        sources=(QUAD, QUAD),
        codes=(greedy_code(QUAD, 1), greedy_code(QUAD, 1)),
        function=sum_function([vals, vals]),
    )
    report = simulate(SimConfig(trials=60_000, seed=11, target=secure))
    assert report.analytic_dach == Fraction(5, 2)
    assert abs(report.empirical_dach - 2.5) <= 4 * report.stderr

    leaky = JointSystem(
        sources=(QUAD, QUAD),
        codes=(identity_code(4), greedy_code(QUAD, 1)),
        function=sum_function([vals, vals]),
    )
    report = simulate(SimConfig(trials=60_000, seed=11, target=leaky))
    assert report.analytic_dach == Fraction(5, 4)
    assert abs(report.empirical_dach - 1.25) <= 4 * report.stderr


def test_joint_simulation_reproducible():
    vals = (4, 3, 2, 1)
    system = JointSystem(
        sources=(QUAD, QUAD),
        codes=(greedy_code(QUAD, 1), greedy_code(QUAD, 1)),
        function=sum_function([vals, vals]),
    )
    config = SimConfig(trials=30_000, seed=13, target=system)
    assert simulate(config) == simulate(config)


def test_a_pmf_entry_at_the_bottom_of_the_float_range_is_harmless():
    # The entry 5e-324 = 2**-1074 gives bins 0 and 2 a positive integer mass
    # and a posterior mean, and the pmf's common denominator overflows a
    # float; the value's cells are kept, but their cumulative probability
    # rounds to 0 and is never drawn.
    a = make_alphabet([1.0, 2.0], [1.0, 5e-324])
    code = KeyedCode(m=2, k=1, r=4, assignment=((0, 1), (2, 3)))
    report = simulate(SimConfig(trials=1_000, seed=1, target=(code, a)))
    assert (report.empirical_dach, report.stderr) == (0.0, 0.0)
