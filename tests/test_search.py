"""Brute-force optimality search and the structural fingerprint check."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distsec.search
from conftest import binning_of, search_reference
from distsec import (
    CapExceededError,
    KeyedCode,
    brute_force_optimal,
    delta_closed_form,
    greedy_code,
    identity_code,
    make_alphabet,
    max_distortion,
    verify_structure,
)

QUAD = make_alphabet([1, 2, 3, 4])


def test_search_finds_the_perfect_one_bit_code():
    result = brute_force_optimal(QUAD, 1)
    assert result.best_delta == 0
    assert delta_closed_form(result.best_code, QUAD) == 0


def test_search_matches_greedy_on_irregular_anchor():
    a = make_alphabet([9, 5, 2, 1])
    result = brute_force_optimal(a, 1)
    assert result.best_delta == Fraction(9, 16)
    assert result.best_delta == delta_closed_form(greedy_code(a, 1), a)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_search_never_beats_greedy_at_one_bit(m):
    rng = np.random.default_rng(m)
    for _ in range(5):
        a = make_alphabet([int(v) for v in rng.integers(-100, 101, size=m)])
        result = brute_force_optimal(a, 1)
        assert result.best_delta == delta_closed_form(greedy_code(a, 1), a)


@pytest.mark.parametrize("values", [
    [1e8 + i for i in range(1, 5)],
    [2.0**30 + i + 0.5 for i in range(4)],
])
@pytest.mark.parametrize("k", [0, 1])
def test_float_search_agrees_with_exact_on_large_offsets(values, k):
    # Ranking on raw bin sums cancels the offset away: the float search
    # reported 2.0 and 0.0 at k=0 here, where both advantages are 5/4.
    exact = brute_force_optimal(make_alphabet([Fraction(v) for v in values]), k)
    floaty = brute_force_optimal(make_alphabet(values), k)
    assert exact.best_delta == (Fraction(5, 4) if k == 0 else 0)
    assert floaty.best_delta == float(exact.best_delta)


@pytest.mark.parametrize("values, k, options, delta, counters, table", [
    (list(range(1, 9)), 1, {}, Fraction(0), (0, 0, 9),
     ((0, 2, 4, 6, 7, 5, 3, 1), (1, 3, 5, 7, 6, 4, 2, 0))),
    (list(range(1, 5)), 2, {}, Fraction(0), (0, 0, 35),
     ((0, 2, 3, 1), (0, 2, 3, 1), (1, 3, 2, 0), (1, 3, 2, 0))),
    ([9, 5, 2, 1], 1, {"prune": False}, Fraction(9, 16), (122, 0, 0),
     ((0, 2, 3, 1), (1, 3, 2, 0))),
    ([Fraction(7, 3), Fraction(1, 2), -2, Fraction(5, 4), 3], 1, {"r_range": (5, 7)},
     Fraction(109, 600), (0, 0, 14), ((0, 2, 4, 3, 1), (1, 3, 4, 2, 0))),
    ([Fraction(7, 3), Fraction(1, 2), -2, Fraction(5, 4), 3], 1,
     {"r_range": (6, 8), "prune": False},
     Fraction(109, 600), (590, 0, 0), ((0, 2, 4, 3, 1), (1, 3, 5, 2, 0))),
    # Float rows walk as their Fraction twins: the twin's counters and
    # table, and float() of its exact optimum.
    ([0.1, 0.7, 0.2, 1e8], 1, {}, 624999990000000.0, (0, 0, 8),
     ((0, 2, 3, 1), (1, 3, 2, 0))),
    # The default caps' edge: the exhaustive walk took 40 s here.
    ([1, 2, 3, 4, 5], 2, {}, Fraction(0), (0, 0, 56),
     ((0, 2, 4, 3, 1), (0, 2, 4, 3, 1), (1, 3, 4, 2, 0), (1, 3, 4, 2, 0))),
    # Near-ties that float scores rounded, one with an optimum of exactly
    # 0: the exact scores settle them as the twins do.
    ([0.1 * i for i in range(1, 9)], 1, {}, 4.2129717533470784e-34, (0, 0, 19),
     ((0, 2, 4, 6, 7, 5, 3, 1), (1, 3, 5, 7, 6, 4, 2, 0))),
    ([1e8 + 0.1 * i for i in range(1, 5)], 2, {}, 0.0, (0, 0, 35),
     ((0, 2, 3, 1), (0, 2, 3, 1), (1, 3, 2, 0), (1, 3, 2, 0))),
    ([0.04, 0.03, 0.04, 0.01, 0.0], 1, {}, 1.3999999999999996e-05, (0, 0, 16),
     ((0, 3, 4, 2, 1), (1, 2, 4, 0, 3))),
    ([2, 1, 1], 2, {}, Fraction(0), (2, 5, 39),
     ((0, 1, 2), (1, 0, 3), (2, 0, 3), (3, 1, 2))),
    # The other corner of the default caps: 101 s while every tying leaf
    # was completed for a table tie-break.
    (list(range(1, 9)), 2, {}, Fraction(0), (0, 0, 165),
     ((0, 2, 4, 6, 7, 5, 3, 1), (0, 2, 4, 6, 7, 5, 3, 1),
      (1, 3, 5, 7, 6, 4, 2, 0), (1, 3, 5, 7, 6, 4, 2, 0))),
], ids=["regular8-k1", "regular4-k2", "irregular-noprune", "fractions-r5-7",
        "fractions-r6-8-noprune", "float-offset", "regular5-k2", "float-tie-k1",
        "float-offset-tie-k2", "float-slack-k1", "duplicates-k2", "regular8-k2"])
def test_search_walk_is_pinned(values, k, options, delta, counters, table):
    # The walk order, its counters and the tie-break.  Deltas are as first
    # recorded by the exhaustive walk; tables are the completions of the
    # binning the tie-break rule picks.  The counters are
    # (candidates_examined, pruned, bound_cuts).
    result = brute_force_optimal(make_alphabet(values), k, **options)
    assert (result.candidates_examined, result.pruned, result.bound_cuts) == counters
    assert result.best_code.assignment == table
    assert type(result.best_delta) is type(delta) and result.best_delta == delta


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_float_search_walks_as_its_fraction_twin(data):
    # Scores are exact for every alphabet, so a float alphabet and the
    # Fractions of the numbers it holds walk the same tree: same counters,
    # same winner, and a delta that is float() of the twin's.  Few tenths
    # give duplicates.  Unpruned walks stop at 12 copies and m=5, k=2 keeps
    # r_range's lower end at most m: the walks beyond take seconds each.
    k = data.draw(st.integers(0, 2))
    m = data.draw(st.integers(1, 5))
    offset = data.draw(st.sampled_from([0, 1e8]))
    tenths = st.integers(-4, 4) if data.draw(st.booleans()) else st.integers(-30, 30)
    values = data.draw(st.lists(tenths.map(lambda v: offset + v / 10), min_size=m, max_size=m))
    copies = m * 2**k
    prune = copies > 12 or data.draw(st.booleans())
    lo = data.draw(st.integers(0, m if copies > 16 else 2 * m + 1))
    r_range = data.draw(st.one_of(
        st.none(), st.tuples(st.just(lo), st.integers(max(lo, m) + 1, 2 * m + 3))
    ))
    floaty, twin = (make_alphabet(v) for v in (values, [Fraction(v) for v in values]))
    try:
        want = brute_force_optimal(twin, k, r_range=r_range, prune=prune)
    except ValueError:
        with pytest.raises(ValueError):
            brute_force_optimal(floaty, k, r_range=r_range, prune=prune)
        return
    got = brute_force_optimal(floaty, k, r_range=r_range, prune=prune)
    assert got.best_code == want.best_code
    assert (got.candidates_examined, got.pruned, got.bound_cuts) == (
        want.candidates_examined, want.pruned, want.bound_cuts)
    assert type(got.best_delta) is float and got.best_delta == float(want.best_delta)


@given(st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_bound_cut_keeps_the_exhaustive_optimum(data):
    # Both pruning rules, on the default range and on ranges whose lower end
    # lies above m, where the light-bin rule must not merge r out of range.
    k = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(2, 5 if k == 1 else 3))
    value = st.one_of(
        st.integers(-20, 20),
        st.fractions(Fraction(-5), Fraction(5), max_denominator=6),
    )
    a = make_alphabet(data.draw(st.lists(value, min_size=m, max_size=m)))
    lo = data.draw(st.integers(0, 2 * m + 1))
    r_range = data.draw(st.one_of(
        st.none(), st.tuples(st.just(lo), st.integers(max(lo, m) + 1, 2 * m + 3))
    ))
    try:
        full = brute_force_optimal(a, k, r_range=r_range, prune=False)
    except ValueError:
        with pytest.raises(ValueError):
            brute_force_optimal(a, k, r_range=r_range)
        return
    assert brute_force_optimal(a, k, r_range=r_range).best_delta == full.best_delta


def test_light_bin_rule_keeps_the_optimum_above_a_raised_floor():
    # With r >= 5 > m every binning has light bins; merging two of them
    # would leave the range, so the rule may not cut them there.  The rule
    # once returned 1/96 at k=2 and, at k=1, "no decodable code exists".
    for k, delta in [(2, 0), (1, Fraction(1, 16))]:
        pruned = brute_force_optimal(QUAD, k, r_range=(5, 8))
        full = brute_force_optimal(QUAD, k, r_range=(5, 8), prune=False)
        assert pruned.best_delta == full.best_delta == delta
        assert 5 <= pruned.best_code.r < 8


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_search_picks_the_reference_binning(data):
    k = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(1, 5 if k == 1 else 3))
    value = st.one_of(
        st.integers(-6, 6),
        st.fractions(Fraction(-3), Fraction(3), max_denominator=4),
    )
    a = make_alphabet(data.draw(st.lists(value, min_size=m, max_size=m)))
    prune = data.draw(st.booleans())
    r_range = data.draw(st.one_of(
        st.none(), st.tuples(st.integers(0, 2 * m + 1), st.integers(m, 2 * m + 2))
    ))
    try:
        want = search_reference(a, k, r_range, prune)
    except ValueError:
        with pytest.raises(ValueError):
            brute_force_optimal(a, k, r_range=r_range, prune=prune)
        return
    result = brute_force_optimal(a, k, r_range=r_range, prune=prune)
    assert tuple(sorted(binning_of(result.best_code).bins)) == want


def test_search_completes_only_the_winner(monkeypatch):
    calls = []
    complete = distsec.search.complete_key_assignment

    def counted(binning, k):
        calls.append(binning)
        return complete(binning, k)

    monkeypatch.setattr(distsec.search, "complete_key_assignment", counted)
    for values, k, options in [
        ([1, 3, 3, 2], 1, {}),
        ([2, 1, 1], 2, {}),
        ([9, 5, 2, 1], 1, {"prune": False}),
        ([1, 2, 3], 2, {"r_range": (4, 6)}),
    ]:
        calls.clear()
        brute_force_optimal(make_alphabet(values), k, **options)
        assert len(calls) == 1


def test_pruning_shrinks_the_walk_without_changing_the_answer():
    # r = m is out of range, so no greedy start ends the walk early
    a = make_alphabet([1, 2, 3])
    pruned = brute_force_optimal(a, 2, r_range=(4, 6), prune=True)
    full = brute_force_optimal(a, 2, r_range=(4, 6), prune=False)
    assert pruned.best_delta == full.best_delta
    assert pruned.candidates_examined < full.candidates_examined
    assert pruned.pruned > 0
    assert full.pruned == 0


def test_search_two_bits_at_least_matches_greedy():
    result = brute_force_optimal(QUAD, 2)
    assert result.best_delta <= delta_closed_form(greedy_code(QUAD, 2), QUAD)


def test_search_zero_bits_has_one_candidate():
    # unpruned, so the bound cut cannot end the walk before its one leaf
    a = make_alphabet([1, 2, 3])
    result = brute_force_optimal(a, 0, prune=False)
    assert result.best_delta == max_distortion(a)
    assert result.candidates_examined == 1


def test_search_optimum_has_the_expected_shape():
    rng = np.random.default_rng(11)
    for m in (2, 3, 4):
        a = make_alphabet([int(v) for v in rng.integers(-50, 51, size=m)])
        report = verify_structure(brute_force_optimal(a, 1).best_code)
        assert report.at_most_one_light_bin and report.bin_count_in_range


def test_search_is_deterministic():
    a = make_alphabet([3, 1, 4, 1])
    first = brute_force_optimal(a, 1)
    second = brute_force_optimal(a, 1)
    assert first.best_code == second.best_code
    assert first.candidates_examined == second.candidates_examined


def test_search_caps_guard_the_factorial_space():
    big = make_alphabet(list(range(9)))
    with pytest.raises(CapExceededError):
        brute_force_optimal(big, 1)
    with pytest.raises(CapExceededError):
        brute_force_optimal(QUAD, 3)
    with pytest.raises(CapExceededError, match="unpruned cap of 16"):
        brute_force_optimal(make_alphabet([1, 2, 3, 4, 5]), 2, prune=False)
    forced = brute_force_optimal(big, 0, force=True)  # k=0 stays tiny
    assert forced.best_delta == max_distortion(big)


def test_search_validates_inputs():
    with pytest.raises(ValueError):
        brute_force_optimal(QUAD, -1)
    with pytest.raises(ValueError):
        brute_force_optimal(make_alphabet([1, 2], [0.9, 0.1]), 1)
    with pytest.raises(ValueError):
        brute_force_optimal(QUAD, 1, r_range=(4, 4))
    with pytest.raises(ValueError):
        brute_force_optimal(QUAD, 1, r_range=(2, 3))


def test_search_respects_bin_count_window():
    # r pinned to m: the window (m, m+1) holds exactly the equal-size binnings
    result = brute_force_optimal(QUAD, 1, r_range=(4, 5))
    assert result.best_delta == 0
    with pytest.raises(ValueError, match="no decodable code"):
        brute_force_optimal(make_alphabet([1, 2]), 0, r_range=(3, 4))


def test_search_unpruned_window_above_2m():
    # with pruning off the walk may visit binnings with many light bins
    a = make_alphabet([1, 2])
    result = brute_force_optimal(a, 1, r_range=(2, 5), prune=False)
    assert result.best_delta == 0


def test_verify_structure_flags_light_bins_and_bin_count():
    # k=1 with four singleton bins: two light bins too many, r = 2m
    spread_thin = KeyedCode(m=2, k=1, r=4, assignment=((0, 1), (2, 3)))
    report = verify_structure(spread_thin)
    assert not report.at_most_one_light_bin
    assert not report.bin_count_in_range
    report = verify_structure(identity_code(5))
    assert report.at_most_one_light_bin and report.bin_count_in_range
