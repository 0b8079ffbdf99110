"""Adversary analysis: posterior, oracle distortion, closed forms, bounds."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    binning_of,
    exact_oracle,
    exact_system_twin,
    exact_twin,
    joint_oracle,
    random_code,
    random_exact_alphabet,
    random_float_alphabet,
)
from distsec import (
    DistortionReport,
    JointSystem,
    KeyedCode,
    SeparableFunction,
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
from distsec.analysis import _bin_moments, _rounded
from distsec.encoders import Binning

QUAD = make_alphabet([1, 2, 3, 4])
IRREGULAR = make_alphabet([9, 5, 2, 1])


def _masses(mom):
    """p(bin j) per bin, from the pass's integer masses B0_j over K P."""
    return tuple(Fraction(w, mom.keys * mom.pden) for w in mom.b0)


def test_max_distortion_anchors():
    assert max_distortion(QUAD) == Fraction(5, 4)
    assert max_distortion(make_alphabet(range(1, 21))) == Fraction(133, 4)
    assert max_distortion(make_alphabet([1, 3], [Fraction(1, 4), Fraction(3, 4)])) == Fraction(3, 4)


def test_posterior_of_perfect_code():
    mom = _bin_moments(greedy_code(QUAD, 1), QUAD)
    assert _masses(mom) == (Fraction(1, 4),) * 4
    assert mom.posterior_means() == (Fraction(5, 2),) * 4
    assert mom.support() == [0, 1, 2, 3]


def test_posterior_skips_unreachable_bins():
    code = KeyedCode(m=1, k=0, r=2, assignment=((0,),))
    mom = _bin_moments(code, make_alphabet([7]))
    assert _masses(mom) == (1, 0)
    assert mom.posterior_means() == (7, None)
    assert mom.support() == [0]


def test_int_alphabets_stay_exact():
    # int / int is a float in Python; nothing an int alphabet reports may be.
    two = make_alphabet([2, 1])
    assert max_distortion(two) == Fraction(1, 4)
    code = greedy_code(two, 1)
    for a, kind in ((two, Fraction), (make_alphabet([2.0, 1.0]), float)):
        report = bound_report(code, a)
        joint = joint_distortion(
            JointSystem((a, a), (code, identity_code(2)), product_function([a.values] * 2))
        )
        reported = (
            max_distortion(a), delta_closed_form(code, a), achievable_distortion(code, a),
            report.d_max, report.d_ach, report.delta, joint.d_max, joint.d_ach, joint.delta,
        )
        assert all(type(x) is kind for x in reported)
        # The moment kernel is exact on every input; only a report rounds.
        mom = _bin_moments(identity_code(2), a)
        kernel = (mom.mean, mom.var, mom.covariance(mom), *mom.posterior_means())
        assert all(isinstance(x, Fraction) for x in (*kernel, *mom.posterior_covariance(mom)))


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


def test_float_max_distortion_is_the_reports_d_max():
    # Floats beside ints, under the default Fraction pmf: the ints' terms
    # used to stay exact and round apart, 4589.367078993054 against the
    # report's 4589.367078993056.
    values = [156.75, 66.5, 76, 89.75, 197, 233, 233, 108.75, 194.5, 76, 233, 108.75,
              39.75, 194.5, 109, 108.75, 109, 233, 156.75, 39.75, 197, 233, 194.5, 39.75]
    a = make_alphabet(values)
    assert not a.exact
    assert max_distortion(a) == bound_report(identity_code(24), a).d_max == 4589.367078993056


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
    assert mom.var == want.d_max
    assert _masses(mom) == want.prob
    assert mom.posterior_means() == want.means
    assert mom.support() == [j for j, p in enumerate(want.prob) if p > 0]
    table = [int(t) for t in rng.integers(-50, 51, size=m)]
    mom = _bin_moments(code, a, table)
    want_table = exact_oracle(code, a, table)
    assert (mom.mean, mom.posterior_means()) == (want_table.mean, want_table.means)
    assert mom.var == want_table.d_max


def test_float_path_tracks_exact_path():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = int(rng.integers(2, 10))
        code = random_code(rng, m, 1, m)
        af = random_float_alphabet(rng, m, nonuniform=bool(rng.integers(2)))
        ax = exact_twin(af)
        # The float pass reads the numbers the floats hold, and a float pmf
        # as normalised by their exact sum: the twin's own numbers.
        assert max_distortion(af) == float(max_distortion(ax))
        assert delta_closed_form(code, af) == float(delta_closed_form(code, ax))


OFFSET_CASES = [
    ([1e8 + i for i in range(1, 5)], None),
    ([1e8 + i for i in range(1, 5)], [0.1, 0.2, 0.3, 0.4]),
    ([2.0**30 + i + 0.5 for i in range(12)], None),
]


@pytest.mark.parametrize("values, pmf", OFFSET_CASES)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_float_path_agrees_with_exact_on_large_offsets(values, pmf, k):
    # Raw second moments of these values cancel catastrophically in floats;
    # the integer pass must land on the exact numbers, each rounded once.
    af = make_alphabet(values, pmf)
    ax = exact_twin(af)
    code = greedy_code(af, k)
    assert code == greedy_code(ax, k)
    want = exact_oracle(code, ax)
    rep = bound_report(code, af)
    assert rep.d_max == max_distortion(af) == float(want.d_max)
    assert rep.delta == float(want.delta)
    assert rep.d_ach == achievable_distortion(code, af) == rep.d_max - rep.delta
    assert delta_closed_form(code, af) == rep.delta
    assert rep.delta >= 0 and rep.d_ach <= rep.d_max
    assert rep.perfectly_secure == want.secure


@pytest.mark.parametrize("m", [64, 1000])
def test_float_greedy_on_a_large_offset_matches_its_exact_twin(m):
    # 1e8 + i/100 is not on a binary grid; at m = 64 the float moment pass
    # read delta 1.64e-16, where the exact value is 5.85e-18.
    af = make_alphabet([1e8 + i / 100 for i in range(m)])
    ax = exact_twin(af)
    code = greedy_code(af, 2)
    want = bound_report(code, ax)
    rep = bound_report(code, af)
    assert rep.d_max == float(want.d_max)
    assert rep.delta == float(want.delta)
    # Not exactly secure, but every posterior mean is within tol of the mean.
    assert rep.perfectly_secure and not want.perfectly_secure


@pytest.mark.parametrize("k", [3, 4, 5])
def test_a_balanced_float_code_reads_zero_advantage(k):
    # Every bin of these greedy codes holds values whose centred sum is
    # exactly 0; the float moment pass read 2.34e-32, 5.85e-33 and 3.70e-32.
    a = make_alphabet([1.5 + 2 * i for i in range(12)])
    rep = bound_report(greedy_code(a, k), a)
    assert rep.delta == 0.0
    assert rep.d_ach == rep.d_max
    assert rep.perfectly_secure


def test_a_float_pmf_is_read_as_normalised_by_its_sum():
    # These floats sum to 1 - 5e-13, inside the 1e-12 a float pmf may miss 1
    # by.  Unnormalised, the mean moved by 5e-5 on the 1e8 offset: d_max read
    # 0.2500000025 and the balanced greedy code's delta 2.5e-9.
    a = make_alphabet([1e8 + 1, 1e8 + 2], [0.4999999999995, 0.5])
    rep = bound_report(greedy_code(a, 1), a)
    assert (max_distortion(a), rep.d_max, rep.delta) == (0.25, 0.25, 0.0)
    assert bound_report(identity_code(2), a).delta == 0.25


def test_a_float_result_that_does_not_fit_raises_overflow():
    # The variance is about 5e599: it once read inf beside a finite delta.
    # The advantage alone fits: it is float() of its exact value.
    a = make_alphabet([1e300, -1e300, 1.0, 2.0])
    code = greedy_code(a, 1)
    assert delta_closed_form(code, a) == 0.5625
    for report in (bound_report, achievable_distortion):
        with pytest.raises(OverflowError):
            report(code, a)
    with pytest.raises(OverflowError):
        max_distortion(a)


def test_a_value_on_a_rounding_midpoint_is_formed_exactly():
    # 1 + 2**-53 lies halfway between 1.0 and the next float up, so no
    # bracket around it settles and float() of the exact value, which rounds
    # half to even, is the answer.  Brackets about 0 settle only on a sign.
    def around(x):
        def bounds(p):
            calls.append(p)
            return (x, x) if p is None else (x - Fraction(1, 2**p), x + Fraction(1, 2**p))
        return bounds

    for x, want in ((1 + Fraction(1, 2**53), 1.0), (Fraction(0), 0.0)):
        calls = []
        got = _rounded(False, around(x))
        assert (got, str(got)) == (want, str(want))
        assert calls == [64, 256, 1024, 4096, None]
    calls = []
    assert _rounded(True, around(Fraction(1, 3))) == Fraction(1, 3) and calls == [None]


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
    assert rep.d_ach == rep.d_max - rep.delta


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_float_report_never_contradicts_itself(data):
    # d_max and the advantage round separately on floats; the report must
    # still read 0 <= d_ach, 0 <= delta <= d_max, d_ach = d_max - delta.
    a = data.draw(_float_alphabets())
    code_a = _draw_code(data, a)
    rep = bound_report(code_a, a)
    _assert_report_contract(rep)
    assert achievable_distortion(code_a, a) == rep.d_ach
    # The traced bench assembles the report from these three parts and
    # checks it against the subprocess output, so they must agree bit for bit.
    d_max, delta = max_distortion(a), delta_closed_form(code_a, a)
    spread, keys = a.spread, code_a.key_count
    if a.is_uniform():
        bound1_ok = delta <= d_max / keys + 1e-9 * d_max
        bound2_ok = delta <= spread * spread / keys**2 + 1e-9 * spread * spread
    else:
        bound1_ok = bound2_ok = None
    assert rep == DistortionReport(
        d_max=d_max, d_ach=d_max - delta, delta=delta, spread=spread,
        bound1_ok=bound1_ok, bound2_ok=bound2_ok,
        perfectly_secure=is_perfectly_secure(code_a, a),
    )
    one = JointSystem((a,), (code_a,), product_function([a.values]))
    _assert_report_contract(joint_distortion(one))
    b = data.draw(_float_alphabets())
    build = data.draw(st.sampled_from([sum_function, product_function]))
    two = JointSystem((a, b), (code_a, _draw_code(data, b)), build([a.values, b.values]))
    _assert_report_contract(joint_distortion(two))


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_float_reports_do_not_depend_on_the_key_order(data):
    # Reordering the keys keeps the binning, so every float digit of the
    # single-source and the composed report must stay as it was.
    a = data.draw(_float_alphabets())
    code = greedy_code(a, data.draw(st.integers(1, 3)))
    order = data.draw(st.permutations(range(code.key_count)))
    rows = tuple(code.assignment[key] for key in order)
    reordered = KeyedCode(m=code.m, k=code.k, r=code.r, assignment=rows)
    assert bound_report(reordered, a) == bound_report(code, a)
    f = data.draw(st.sampled_from([sum_function, product_function]))([a.values, a.values])
    assert joint_distortion(JointSystem((a, a), (reordered, code), f)) == joint_distortion(
        JointSystem((a, a), (code, code), f)
    )


def test_float_achievable_distortion_is_the_reports_d_ach():
    # The identity code reveals everything, so d_ach is 0; summing the
    # within-bin spread on its own returned -8.9e-16 here.
    a = make_alphabet([-2.942, 3.966], [0.3333333333333333, 0.6666666666666666])
    code = identity_code(2)
    assert achievable_distortion(code, a) == bound_report(code, a).d_ach == 0.0


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


_RATIONALS = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
)


@st.composite
def _exact_alphabets(draw, max_m=6):
    """Exact values with negatives and duplicates under a pmf with zero
    weights, or under the uniform pmf now and then."""
    m = draw(st.integers(1, max_m))
    pool = draw(st.lists(_RATIONALS, min_size=1, max_size=m))
    values = [draw(st.sampled_from(pool)) for _ in range(m)]
    if draw(st.booleans()):
        return make_alphabet(values)
    weights = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m).filter(any))
    return make_alphabet(values, [Fraction(w, sum(weights)) for w in weights])


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_integer_moments_equal_the_oracle(data):
    # The exact pass adds integer numerators and groups bins by mass; every
    # number it reports must be the enumerated one, to the last digit.
    alphabet = data.draw(_exact_alphabets())
    code = _draw_code(data, alphabet)
    want = exact_oracle(code, alphabet)
    rep = bound_report(code, alphabet)
    assert (rep.d_max, rep.d_ach, rep.delta) == (want.d_max, want.d_ach, want.delta)
    assert rep.perfectly_secure == want.secure
    assert (rep.bound1_ok is None) == (not alphabet.is_uniform())
    assert max_distortion(alphabet) == want.d_max
    assert achievable_distortion(code, alphabet) == want.d_ach
    assert delta_closed_form(code, alphabet) == want.delta
    assert is_perfectly_secure(code, alphabet) == want.secure
    mom = _bin_moments(code, alphabet)
    assert (mom.mean, _masses(mom), mom.posterior_means()) == (want.mean, want.prob, want.means)
    table = data.draw(st.lists(_RATIONALS, min_size=code.m, max_size=code.m))
    value_mom, mom = mom, _bin_moments(code, alphabet, table)
    want = exact_oracle(code, alphabet, table)
    assert (mom.mean, mom.var) == (want.mean, want.d_max)
    assert mom.posterior_covariance(mom) == (want.delta, want.delta)
    # The bounds a float report narrows bracket the exact value, cross terms
    # of either sign included.
    for other in (mom, value_mom):
        x, _ = mom.posterior_covariance(other)
        lo, hi = mom.posterior_covariance(other, 64)
        assert lo <= x <= hi and (lo == hi) == (x == lo)
    assert (mom.posterior_means(), mom.secure(1e-9)) == (want.means, want.secure)


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_composed_integer_moments_equal_the_joint_oracle(data):
    sources = [data.draw(_exact_alphabets(max_m=4)) for _ in range(2)]
    codes = [_draw_code(data, a) for a in sources]

    def table(i):
        if data.draw(st.booleans()):
            return sources[i].values  # greedy codes often secure these
        m = sources[i].m
        return tuple(data.draw(st.lists(_RATIONALS, min_size=m, max_size=m)))

    form = data.draw(st.sampled_from(["sum", "product", "general"]))
    if form == "sum":
        function = sum_function([table(0), table(1)])
    elif form == "product":
        function = product_function([table(0), table(1)])
    else:
        terms = data.draw(st.integers(1, 3))
        function = SeparableFunction(
            n=2, components=tuple((table(0), table(1)) for _ in range(terms))
        )
    system = JointSystem(sources=tuple(sources), codes=tuple(codes), function=function)
    want = joint_oracle(system)
    rep = joint_distortion(system)
    assert (rep.d_max, rep.d_ach, rep.delta) == (want.d_max, want.d_ach, want.delta)
    assert rep.perfectly_secure == want.secure
    # The float twin is composed from the numbers its floats hold, and its
    # pmf as normalised by their exact sum: d_max and delta are each rounded
    # once from the exact value.
    floats = _floated(system)
    rep = joint_distortion(floats)
    want = joint_distortion(exact_system_twin(floats))
    assert (rep.d_max, rep.delta) == (float(want.d_max), float(want.delta))
    assert rep.d_ach == rep.d_max - rep.delta


def _floated(system):
    """``system`` with every value, pmf entry and table entry as a float."""
    sources = [
        make_alphabet([float(v) for v in a.values], [float(p) for p in a.pmf])
        for a in system.sources
    ]
    function = SeparableFunction(
        n=system.n,
        components=tuple(
            tuple(tuple(map(float, table)) for table in term)
            for term in system.function.components
        ),
    )
    return JointSystem(sources=tuple(sources), codes=system.codes, function=function)
