"""Monte Carlo harness: reproducibility and agreement with the analysis."""

from fractions import Fraction

import pytest

from distsec import (
    CapExceededError,
    JointSystem,
    SimConfig,
    bound_report,
    greedy_code,
    identity_code,
    make_alphabet,
    simulate,
    sum_function,
)
from distsec.simulation import MAX_TRIALS, STREAM_TRIALS

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
    assert report.empirical_dach == 1.2506999999999999
    assert report.stderr == 0.0070712428627350355


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
