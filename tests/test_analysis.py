"""Adversary analysis: posterior, oracle distortion, closed forms, bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    binning_of,
    exact_oracle,
    random_code,
    random_exact_alphabet,
    random_float_alphabet,
)
from distsec import (
    JointSystem,
    KeyedCode,
    achievable_distortion,
    bound_report,
    complete_key_assignment,
    delta_closed_form,
    greedy_code,
    identity_code,
    is_perfectly_secure,
    joint_distortion,
    make_alphabet,
    max_distortion,
    product_function,
    sum_function,
)
from distsec.analysis import _bin_moments
from distsec.encoders import Binning

QUAD = make_alphabet([1, 2, 3, 4])
IRREGULAR = make_alphabet([9, 5, 2, 1])


def test_max_distortion_anchors():
    assert max_distortion(QUAD) == Fraction(5, 4)
    assert max_distortion(make_alphabet(range(1, 21))) == Fraction(133, 4)
    assert max_distortion(make_alphabet([1, 3], [Fraction(1, 4), Fraction(3, 4)])) == Fraction(3, 4)


def test_posterior_of_perfect_code():
    mom = _bin_moments(greedy_code(QUAD, 1), QUAD)
    assert mom.m0 == (Fraction(1, 4),) * 4
    assert mom.posterior_means() == (Fraction(5, 2),) * 4
    assert mom.support() == [0, 1, 2, 3]


def test_posterior_skips_unreachable_bins():
    code = KeyedCode(m=1, k=0, r=2, assignment=((0,),))
    mom = _bin_moments(code, make_alphabet([7]))
    assert mom.m0 == (1, 0)
    assert mom.posterior_means() == (7, None)
    assert mom.support() == [0]


def test_identity_leaks_everything():
    code = identity_code(4)
    assert achievable_distortion(code, QUAD) == 0
    assert delta_closed_form(code, QUAD) == max_distortion(QUAD)
    assert not is_perfectly_secure(code, QUAD)


def test_irregular_anchor_numbers():
    code = greedy_code(IRREGULAR, 1)
    assert max_distortion(IRREGULAR) == Fraction(155, 16)
    assert delta_closed_form(code, IRREGULAR) == Fraction(9, 16)
    assert achievable_distortion(code, IRREGULAR) == Fraction(73, 8)
    means = _bin_moments(code, IRREGULAR).posterior_means()
    assert means == (5, Fraction(7, 2), Fraction(7, 2), 5)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_total_variance_splits_into_advantage_plus_loss(data):
    m = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(0, 2))
    r = data.draw(st.integers(m, m + 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    nonuniform = data.draw(st.booleans())
    rng = np.random.default_rng(seed)
    code = random_code(rng, m, k, r)
    a = random_exact_alphabet(rng, m, nonuniform=nonuniform)
    want = exact_oracle(code, a)
    assert want.d_max == want.delta + want.d_ach
    assert max_distortion(a) == want.d_max
    assert max_distortion(a) == delta_closed_form(code, a) + achievable_distortion(code, a)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_moment_kernel_matches_oracle(data):
    m = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(0, 2))
    seed = data.draw(st.integers(0, 2**32 - 1))
    nonuniform = data.draw(st.booleans())
    greedy = data.draw(st.booleans())  # greedy codes are often perfectly secure
    rng = np.random.default_rng(seed)
    a = random_exact_alphabet(rng, m, nonuniform=nonuniform)
    if greedy:
        code = greedy_code(a, k)
    else:
        code = random_code(rng, m, k, data.draw(st.integers(m, m + 3)))
    want = exact_oracle(code, a)
    assert delta_closed_form(code, a) == want.delta
    assert achievable_distortion(code, a) == want.d_ach
    assert is_perfectly_secure(code, a) == want.secure
    mom = _bin_moments(code, a)
    assert mom.m0 == want.prob
    assert mom.posterior_means() == want.means
    assert mom.support() == [j for j, p in enumerate(want.prob) if p > 0]
    table = [int(t) for t in rng.integers(-50, 51, size=m)]
    mom = _bin_moments(code, a, table)
    want_table = exact_oracle(code, a, table)
    assert (mom.mean, mom.posterior_means()) == (want_table.mean, want_table.means)


def test_float_path_tracks_exact_path():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = int(rng.integers(2, 10))
        code = random_code(rng, m, 1, m)
        af = random_float_alphabet(rng, m, nonuniform=bool(rng.integers(2)))
        # An exact pmf must sum to exactly 1, so the twin drops the float dust.
        total = sum(Fraction(p) for p in af.pmf)
        ax = make_alphabet(
            [Fraction(v) for v in af.values],
            [Fraction(p) / total for p in af.pmf],
        )
        got = delta_closed_form(code, af)
        want = float(delta_closed_form(code, ax))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


OFFSET_CASES = [
    ([1e8 + i for i in range(1, 5)], None),
    ([1e8 + i for i in range(1, 5)], [0.1, 0.2, 0.3, 0.4]),
    ([2.0**30 + i + 0.5 for i in range(12)], None),
]


@pytest.mark.parametrize("values, pmf", OFFSET_CASES)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_float_path_agrees_with_exact_on_large_offsets(values, pmf, k):
    # Raw second moments of these values cancel catastrophically in floats;
    # the centred pass must land on the exact numbers.
    af = make_alphabet(values, pmf)
    # The same numbers read as exact decimals.
    ax = make_alphabet(
        [Fraction(v) for v in values],
        None if pmf is None else [Fraction(str(p)) for p in pmf],
    )
    code = greedy_code(af, k)
    assert code == greedy_code(ax, k)
    want = exact_oracle(code, ax)
    scale = 1e-9 * want.d_max
    rep = bound_report(code, af)
    for got, exact in ((rep.d_max, want.d_max), (rep.d_ach, want.d_ach), (rep.delta, want.delta)):
        assert abs(got - exact) <= scale
    assert abs(achievable_distortion(code, af) - want.d_ach) <= scale
    assert abs(delta_closed_form(code, af) - want.delta) <= scale
    assert rep.delta >= 0 and rep.d_ach <= rep.d_max
    assert rep.perfectly_secure == want.secure


def test_skewed_offset_anchor():
    a = make_alphabet([1e8 + i for i in range(1, 5)], [0.1, 0.2, 0.3, 0.4])
    rep = bound_report(greedy_code(a, 1), a)
    assert abs(rep.d_max - 1.0) <= 1e-9
    assert abs(rep.d_ach - 0.84) <= 1e-9
    assert abs(rep.delta - 0.16) <= 1e-9
    assert not rep.perfectly_secure


@st.composite
def _float_alphabets(draw):
    """Non-dyadic decimals, optionally on a 1e8 offset, under a float pmf."""
    m = draw(st.integers(1, 5))
    offset = draw(st.sampled_from([0.0, 1e8, -1e8]))
    values = [offset + draw(st.integers(-10**4, 10**4)) / 1000 for _ in range(m)]
    if draw(st.booleans()):
        weights = [draw(st.integers(1, 30)) for _ in range(m)]
        pmf = [w / sum(weights) for w in weights]
    else:
        pmf = [1 / m] * m
    return make_alphabet(values, pmf)


def _draw_code(data, alphabet):
    kind = data.draw(st.sampled_from(["identity", "greedy", "random"]))
    if kind == "identity":
        return identity_code(alphabet.m)
    k = data.draw(st.integers(0, 2))
    if kind == "greedy":
        return greedy_code(alphabet, k)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return random_code(rng, alphabet.m, k, alphabet.m + data.draw(st.integers(0, 2)))


def _assert_report_contract(rep):
    assert 0 <= rep.d_ach
    assert 0 <= rep.delta <= rep.d_max
    assert abs(rep.d_ach + rep.delta - rep.d_max) <= 2 * math.ulp(rep.d_max)


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_float_report_never_contradicts_itself(data):
    # d_max and the advantage round separately on floats; the report must
    # still read 0 <= d_ach, 0 <= delta <= d_max, d_ach + delta = d_max.
    a = data.draw(_float_alphabets())
    code_a = _draw_code(data, a)
    _assert_report_contract(bound_report(code_a, a))
    one = JointSystem((a,), (code_a,), product_function([a.values]))
    _assert_report_contract(joint_distortion(one))
    b = data.draw(_float_alphabets())
    build = data.draw(st.sampled_from([sum_function, product_function]))
    two = JointSystem((a, b), (code_a, _draw_code(data, b)), build([a.values, b.values]))
    _assert_report_contract(joint_distortion(two))


def test_posterior_means_of_a_transformed_payoff():
    code = greedy_code(QUAD, 1)
    mom = _bin_moments(code, QUAD, [16, 9, 4, 1])  # squares
    assert mom.mean == Fraction(15, 2)
    assert mom.posterior_means() == (
        Fraction(17, 2), Fraction(13, 2), Fraction(13, 2), Fraction(17, 2)
    )
    with pytest.raises(ValueError):
        _bin_moments(code, QUAD, [1, 2, 3])
    with pytest.raises(ValueError, match="code expects"):
        _bin_moments(code, make_alphabet([1, 2, 3]), [1, 2, 3])


def test_perfect_security_tolerance_paths():
    assert is_perfectly_secure(greedy_code(QUAD, 1), QUAD)
    floaty = make_alphabet([1.0, 2.0, 3.0, 4.0])
    assert is_perfectly_secure(greedy_code(floaty, 1), floaty)
    assert is_perfectly_secure(identity_code(3), make_alphabet([5, 5, 5]))


def test_bound_report_on_uniform_source():
    rep = bound_report(greedy_code(QUAD, 1), QUAD)
    assert rep.d_max == Fraction(5, 4)
    assert rep.delta == 0
    assert rep.d_ach == rep.d_max
    assert rep.spread == 3
    assert rep.bound1_ok and rep.bound2_ok and rep.perfectly_secure


def test_bound_report_identity_satisfies_trivial_bounds():
    rep = bound_report(identity_code(4), QUAD)
    assert rep.delta == rep.d_max
    assert rep.bound1_ok and rep.bound2_ok
    assert not rep.perfectly_secure


def test_bound_report_nonuniform_has_no_bound_claims():
    skewed = make_alphabet([1, 2], [Fraction(2, 3), Fraction(1, 3)])
    rep = bound_report(identity_code(2), skewed)
    assert rep.bound1_ok is None and rep.bound2_ok is None
    assert rep.d_max == Fraction(2, 9)


def test_merging_bins_never_helps_the_eavesdropper():
    # coarsening her observation can only raise her loss
    rng = np.random.default_rng(7)
    merged_some = 0
    for _ in range(40):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(1, 3))
        code = random_code(rng, m, k, m + 2)
        a = random_exact_alphabet(rng, m, nonuniform=bool(rng.integers(2)))
        binning = binning_of(code, a)
        bins = list(binning.bins)
        for i in range(len(bins)):
            for j in range(i + 1, len(bins)):
                if len(bins[i]) + len(bins[j]) <= 2**k:
                    fused = bins[:i] + [tuple(sorted(bins[i] + bins[j]))] + bins[i + 1 : j] + bins[j + 1 :]
                    coarse = complete_key_assignment(Binning(m=m, bins=tuple(fused)), k)
                    assert achievable_distortion(coarse, a) >= achievable_distortion(code, a)
                    merged_some += 1
    assert merged_some > 20  # the loop must actually exercise merges
