"""Greedy and exchange constructions, plus binning completion."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distsec
from conftest import binning_of, exchange_reference
from distsec import (
    Binning,
    CapExceededError,
    complete_key_assignment,
    delta_closed_form,
    exchange_binning,
    greedy_code,
    identity_code,
    make_alphabet,
    max_distortion,
)
from distsec.encoders import _seeded_permutation


def sums_of(code, alphabet):
    """Value sum of every nonempty bin, by bin index."""
    return tuple(
        sum(alphabet.values[v] for v in content) for content in binning_of(code).bins
    )


def test_identity_code_shape():
    code = identity_code(3)
    assert (code.m, code.k, code.r) == (3, 0, 3)
    assert code.assignment == ((0, 1, 2),)


def test_greedy_pairs_largest_with_smallest():
    code = greedy_code(make_alphabet([1, 2, 3, 4]), 1)
    assert code.assignment == ((0, 1, 2, 3), (3, 2, 1, 0))
    assert sums_of(code, make_alphabet([1, 2, 3, 4])) == (5, 5, 5, 5)


def test_greedy_irregular_anchor():
    a = make_alphabet([9, 5, 2, 1])
    code = greedy_code(a, 1)
    assert code.assignment == ((0, 1, 2, 3), (3, 2, 1, 0))
    assert sums_of(code, a) == (10, 7, 7, 10)


def test_greedy_two_bits_balances_exactly():
    a = make_alphabet([1, 2, 3, 4])
    code = greedy_code(a, 2)
    assert tuple(len(c) for c in binning_of(code).bins) == (4, 4, 4, 4)
    assert sums_of(code, a) == (10, 10, 10, 10)
    assert delta_closed_form(code, a) == 0


def test_greedy_zero_bits_is_identity():
    assert greedy_code(make_alphabet([7, 3, 5]), 0) == identity_code(3)


def test_greedy_ties_go_to_lower_bin():
    code = greedy_code(make_alphabet([5, 5, 5, 5]), 1)
    assert code.assignment[1] == (0, 1, 2, 3)


def test_greedy_ranks_float_near_ties_on_exact_sums():
    # Float sums of these values near-tie at k=3 and order the last key row
    # differently from the exact sums; greedy ranks on the exact sums, so
    # the floats get the code of their decimal Fraction twins.
    floats = make_alphabet([0.4, 0.3, 1.4])
    twins = make_alphabet([Fraction("0.4"), Fraction("0.3"), Fraction("1.4")])
    assert greedy_code(floats, 3) == greedy_code(twins, 3)
    assert greedy_code(floats, 3).assignment[7] == (0, 1, 2)


def test_greedy_rejects_negative_k():
    with pytest.raises(ValueError):
        greedy_code(make_alphabet([1, 2]), -1)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_greedy_fills_bins_evenly_and_halves_advantage(data):
    m = data.draw(st.integers(2, 10))
    k = data.draw(st.integers(0, 3))
    values = data.draw(
        st.lists(st.integers(-100, 100), min_size=m, max_size=m)
    )
    a = make_alphabet(values)
    code = greedy_code(a, k)
    assert tuple(len(c) for c in binning_of(code).bins) == (2**k,) * m
    assert delta_closed_form(code, a) <= Fraction(max_distortion(a), 2**k)


@given(
    st.integers(-1000, 1000),
    st.integers(-50, 50),
    st.integers(2, 12),
)
@settings(max_examples=60, deadline=None)
def test_greedy_one_bit_perfect_on_any_arithmetic_progression(start, step, m):
    a = make_alphabet([start + i * step for i in range(m)])
    assert delta_closed_form(greedy_code(a, 1), a) == 0


def test_exchange_input_validation():
    uniform = make_alphabet([1, 2, 3, 4])
    with pytest.raises(ValueError):
        exchange_binning(uniform, -1)
    with pytest.raises(ValueError):
        exchange_binning(make_alphabet([1, 2], [0.9, 0.1]), 1)
    with pytest.raises(ValueError, match="infeasible"):
        exchange_binning(uniform, 1, r=3)
    with pytest.raises(ValueError, match="unsupported"):
        exchange_binning(uniform, 1, r=5)


def test_exchange_zero_bits_is_a_permutation_of_singletons():
    b = exchange_binning(make_alphabet([4, 7, 1]), 0, seed=5)
    assert sorted(b.bins) == [(0,), (1,), (2,)]


def test_exchange_deterministic_per_seed():
    a = make_alphabet(list(range(12)))
    assert exchange_binning(a, 2, seed=9) == exchange_binning(a, 2, seed=9)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_exchange_lands_every_bin_sum_near_the_mean(seed, k):
    rng = np.random.default_rng(100 * k + seed)
    m = int(rng.integers(2, 20))
    a = make_alphabet([int(v) for v in rng.integers(-100, 101, size=m)])
    binning = exchange_binning(a, k, seed=seed)
    reference, trace = exchange_reference(a, k, seed)
    assert binning == reference

    copies = 2**k
    assert all(len(content) == copies for content in binning.bins)
    flat = sorted(v for content in binning.bins for v in content)
    assert flat == sorted(list(range(m)) * copies)

    mean_sum = Fraction(sum(a.values), m) * copies
    d = a.spread
    for content in binning.bins:
        s = sum(a.values[v] for v in content)
        assert mean_sum - d <= s <= mean_sum + d

    # integer values: every swap lowers the squared-sum total by >= 2
    assert all(x - y >= 2 for x, y in zip(trace, trace[1:]))


@pytest.mark.parametrize("values, k, seed", [
    ([0.1 * v for v in (-17, -26, 20, 16, 7, -7)], 3, 10),
    ([0.1 * v for v in (13, -20, -11)], 4, 2130),
    ([1e8 + v / 3 for v in (-16, -18, 28, 82)], 3, 18),
    ([v / 3 for v in (-257, -240, 296, 23, -11, -40, 177, 198, 287, -20)], 4, 221),
])
def test_exchange_matches_the_reference_on_non_dyadic_floats(values, k, seed):
    # Float sums of these values round differently in every order; exchange
    # decides on the exact sums of the numbers the floats hold, as the
    # Fraction reference does.  Deciding on float sums bins the last case
    # otherwise.
    a = make_alphabet(values)
    assert exchange_binning(a, k, seed=seed) == exchange_reference(a, k, seed)[0]


def test_exchange_float_values_settle_in_interval():
    rng = np.random.default_rng(17)
    a = make_alphabet([int(v) / 1024 for v in rng.integers(-102400, 102401, size=10)])
    binning = exchange_binning(a, 2, seed=17)
    mean_sum = sum(a.values) / a.m * 4
    for content in binning.bins:
        s = sum(a.values[v] for v in content)
        assert abs(s - mean_sum) <= a.spread + 1e-9


def test_exchange_settles_within_the_spread_where_float_sums_near_tie():
    # The start's heaviest and lightest bin sums differ by exactly the
    # spread, but by a hair more in float arithmetic, where a swap would
    # only trade them back.  On exact sums every bin settles within the
    # spread of the mean sum.
    a = make_alphabet([0.3, 0.3, 0.2])
    binning = exchange_binning(a, 3, seed=2701720168967440248)
    assert all(len(content) == 8 for content in binning.bins)
    values = [Fraction(v) for v in a.values]
    sums = [sum(values[v] for v in content) for content in binning.bins]
    mean_sum = sum(values) / a.m * 8
    assert all(abs(s - mean_sum) <= values[0] - values[-1] for s in sums)


def test_the_seeded_shuffle_refuses_negative_seeds_and_over_2_32_copies():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _seeded_permutation(1, 2**32 + 1, 0)
    with pytest.raises(CapExceededError, match="2\\*2\\*\\*32 \\(value, key\\)"):
        exchange_binning(make_alphabet([1, 2]), 32)  # refused before any copy is built
    with pytest.raises(ValueError, match="seed"):
        _seeded_permutation(2, 2, -1)
    with pytest.raises(ValueError, match="seed"):
        exchange_binning(make_alphabet([1, 2]), 1, seed=-1)


def _cap_message(m, k):
    return (f"construction needs m*2**k = {m}*2**{k} (value, key) states, "
            "above the cap of 1000000")


def test_every_construction_refuses_a_table_over_the_cap_before_building_it():
    # 4 * 2**18 = 1048576 pairs, just over the cap; the command line reports
    # the same message.  The cap comes before exchange's uniform check.
    quad = make_alphabet(range(4))
    skewed = make_alphabet(range(4), [0.7, 0.1, 0.1, 0.1])
    for build in (greedy_code, exchange_binning):
        for alphabet in (quad, skewed):
            with pytest.raises(CapExceededError) as info:
                build(alphabet, 18)
            assert str(info.value) == _cap_message(4, 18)
    with pytest.raises(CapExceededError) as info:
        identity_code(10**6 + 1)
    assert str(info.value) == _cap_message(10**6 + 1, 0)
    assert identity_code(10**6).r == 10**6  # the cap itself is allowed


def _alphabets():
    """Integers, Fractions, floats, 1e8-offset floats and one-decimal floats
    with duplicates: every arithmetic the exchange loop compares sums in."""
    ints = st.integers(-100, 100)
    return st.one_of(
        st.lists(ints, min_size=1, max_size=40),
        st.lists(st.fractions(-50, 50, max_denominator=12), min_size=1, max_size=40),
        st.lists(st.floats(-100, 100), min_size=1, max_size=40),
        st.lists(ints.map(lambda v: 1e8 + v / 3), min_size=1, max_size=40),
        st.lists(st.integers(-9, 9).map(lambda v: v / 10), min_size=1, max_size=40),
    ).map(make_alphabet)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(alphabet=_alphabets(), k=st.integers(0, 5), seed=st.integers(0, 2**64 - 1))
def test_exchange_heaps_pick_the_bins_the_scans_pick(alphabet, k, seed):
    assert exchange_binning(alphabet, k, seed=seed) == exchange_reference(alphabet, k, seed)[0]


_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from distsec import exchange_binning, make_alphabet
from distsec.cli import main
print(json.dumps(exchange_binning(make_alphabet(list(range(1, 9))), 2, seed=5).bins))
sys.exit(main(["encode", "--alg", "exchange", "--values", "1..8", "--k", "2", "--seed", "5"]))
"""


def test_exchange_gives_the_pinned_code_without_numpy():
    # The bins pin the seeded start and the swap loop, the code their
    # completion; the child interpreter cannot import numpy at all.
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY], capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(distsec.__file__).resolve().parents[1])),
    )
    assert done.returncode == 0, done.stderr
    bins, _, encoded = done.stdout.decode().partition("\n")
    assert json.loads(bins) == [
        [1, 2, 3, 7], [3, 3, 4, 7], [1, 2, 4, 6], [0, 1, 6, 6],
        [1, 2, 4, 5], [0, 3, 7, 7], [0, 2, 5, 6], [0, 4, 5, 5],
    ]
    code = {"m": 8, "k": 2, "r": 8, "assignment": [
        [3, 0, 6, 1, 4, 7, 2, 5],
        [5, 3, 4, 0, 2, 7, 6, 1],
        [7, 4, 2, 5, 1, 6, 3, 0],
        [6, 2, 0, 1, 7, 4, 3, 5],
    ]}
    assert encoded == json.dumps(code, indent=2) + "\n"


def test_binning_validation():
    Binning(m=2, bins=((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        Binning(m=2, bins=((0,), ()))
    with pytest.raises(ValueError):
        Binning(m=2, bins=((1, 0),))
    with pytest.raises(ValueError):
        Binning(m=2, bins=((0, 2),))


def test_completion_handles_duplicate_copies_in_one_bin():
    code = complete_key_assignment(Binning(m=2, bins=((0, 0), (1, 1))), 1)
    assert code.assignment == ((0, 1), (0, 1))


def test_completion_rejects_malformed_binnings():
    with pytest.raises(ValueError, match="exactly"):
        complete_key_assignment(Binning(m=2, bins=((0, 1),)), 1)
    with pytest.raises(ValueError, match="capacity"):
        complete_key_assignment(Binning(m=2, bins=((0, 0, 1), (1,))), 1)
    with pytest.raises(ValueError):
        complete_key_assignment(Binning(m=1, bins=((0,),)), -1)


def test_completion_with_more_bins_than_values():
    # r > m with a light bin: value 0 split across two bins
    binning = Binning(m=2, bins=((0,), (0,), (1, 1)))
    code = complete_key_assignment(binning, 1)
    assert code.r == 3
    assert binning_of(code) == binning


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_completion_induces_exactly_the_input_binning(data):
    # random legal binning: shuffle the copies, cut into chunks of random
    # sizes <= 2**k.  Several split rounds, and search-shaped binnings with
    # r > m whose light bins need padding.
    m = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(0, 5))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    copies = list(rng.permutation(np.repeat(np.arange(m), 2**k)))
    bins = []
    while copies:
        take = int(rng.integers(1, 2**k + 1))
        bins.append(tuple(sorted(int(v) for v in copies[:take])))
        copies = copies[take:]
    binning = Binning(m=m, bins=tuple(bins))

    code = complete_key_assignment(binning, k)  # KeyedCode validates injectivity
    assert binning_of(code) == binning


def test_completion_induces_a_large_exchange_binning():
    # 128 * 2**5 = 4096 copies over five split rounds, no padding.
    binning = exchange_binning(make_alphabet(list(range(1, 129))), 5, seed=11)
    assert binning_of(complete_key_assignment(binning, 5)) == binning


def test_completion_of_exchange_preserves_sums():
    a = make_alphabet(list(range(1, 13)))
    binning = exchange_binning(a, 2, seed=3)
    code = complete_key_assignment(binning, 2)
    expected = tuple(sum(a.values[v] for v in content) for content in binning.bins)
    assert sums_of(code, a) == expected
