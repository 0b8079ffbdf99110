"""Composition of independently keyed sources under separable functions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    exact_oracle,
    exact_system_twin,
    exact_twin,
    joint_oracle,
    random_code,
    random_exact_alphabet,
)
from distsec import (
    JointSystem,
    SeparableFunction,
    SimConfig,
    bound_report,
    check_sufficiency,
    code_to_dict,
    complete_key_assignment,
    greedy_code,
    identity_code,
    is_perfectly_secure,
    joint_distortion,
    make_alphabet,
    necessity_witness,
    product_function,
    simulate,
    sum_function,
    system_from_dict,
)
from distsec.encoders import Binning

QUAD = make_alphabet([1, 2, 3, 4])
VALS = (4, 3, 2, 1)  # identity payoff in descending alphabet order


def _two_source_system(function, code0=None, code1=None):
    c0 = code0 if code0 is not None else greedy_code(QUAD, 1)
    c1 = code1 if code1 is not None else greedy_code(QUAD, 1)
    return JointSystem(sources=(QUAD, QUAD), codes=(c0, c1), function=function)


def test_sum_and_product_builders():
    f = sum_function([VALS, VALS])
    assert f.form == "pure-sum" and f.L == 2
    assert f.components == ((VALS, (1, 1, 1, 1)), ((1, 1, 1, 1), VALS))
    # f(x0=0, x1=3) = 4 + 1
    assert sum(term[0][0] * term[1][3] for term in f.components) == 5
    g = product_function([VALS, VALS])
    assert g.form == "pure-product" and g.L == 1
    assert g.components == ((VALS, VALS),)
    assert g.components[0][0][0] * g.components[0][1][3] == 4


def test_form_claims_are_checked():
    with pytest.raises(ValueError):
        SeparableFunction(n=2, components=(((1, 2), (3, 4)),), form="pure-sum")
    with pytest.raises(ValueError):
        SeparableFunction(
            n=2,
            components=(((1, 2), (3, 4)), ((1, 1), (1, 1))),
            form="pure-product",
        )
    with pytest.raises(ValueError):
        SeparableFunction(n=2, components=(((1, 2), (3, 4)),), form="diagonal")
    with pytest.raises(ValueError):
        SeparableFunction(n=1, components=(), form="general-sum-of-products")
    with pytest.raises(ValueError):
        SeparableFunction(n=2, components=(((1, 2),),))
    with pytest.raises(ValueError):
        SeparableFunction(n=1, components=(((1, 2),), ((1, 2, 3),)))


def test_system_validates_dimensions():
    f = sum_function([VALS, VALS])
    with pytest.raises(ValueError):
        JointSystem(sources=(QUAD,), codes=(greedy_code(QUAD, 1),), function=f)
    with pytest.raises(ValueError):
        JointSystem(
            sources=(QUAD, make_alphabet([1, 2])),
            codes=(greedy_code(QUAD, 1), greedy_code(make_alphabet([1, 2]), 1)),
            function=f,
        )


def test_a_system_document_with_inline_codes_needs_no_loader():
    code = greedy_code(QUAD, 1)
    doc = {
        "version": 1,
        "sources": [{"values": [4, 3, 2, 1]}, {"values": ["1/2", 2], "pmf": [0.25, 0.75]}],
        "codes": [code_to_dict(code), code_to_dict(identity_code(2))],
        "function": {"components": [[list(VALS), [1, 1]], [[1, 1, 1, 1], ["1/3", 5]]]},
    }
    system = system_from_dict(doc)
    assert system == JointSystem(
        sources=(QUAD, make_alphabet([Fraction(1, 2), 2], [0.25, 0.75])),
        codes=(code, identity_code(2)),
        function=SeparableFunction(
            n=2, components=((VALS, (1, 1)), ((1, 1, 1, 1), (Fraction(1, 3), 5))),
        ),
    )
    # A code path is read through the caller's loader, never by the library.
    loaded = []
    doc["codes"][0] = {"path": "code.json"}
    assert system_from_dict(doc, lambda path: loaded.append(path) or code) == system
    assert loaded == ["code.json"]
    with pytest.raises(ValueError, match="code path 'code.json' needs a load_code"):
        system_from_dict(doc)


def test_secured_sum_system_is_perfect():
    system = _two_source_system(sum_function([VALS, VALS]))
    assert check_sufficiency(system)
    report = joint_distortion(system)
    assert report.d_max == Fraction(5, 2)
    assert report.delta == 0
    assert report.d_ach == Fraction(5, 2)
    assert report.perfectly_secure
    assert report.bound1_ok is None and report.bound2_ok is None


def test_secured_product_system_is_perfect():
    system = _two_source_system(product_function([VALS, VALS]))
    assert check_sufficiency(system)
    report = joint_distortion(system)
    assert report.delta == 0
    assert report.perfectly_secure


def test_security_is_per_payoff_not_per_symbol():
    # pairing {4,1}/{3,2} hides the symbol but leaks its square; pairing
    # {4,3}/{2,1} does the reverse
    squares = make_alphabet([-2, -1, 1, 2])
    sq_table = (4, 1, 1, 4)  # x**2 in descending order (2, 1, -1, -2)
    symbol_code = greedy_code(squares, 1)
    square_code = complete_key_assignment(
        Binning(m=4, bins=((0, 1), (0, 1), (2, 3), (2, 3))), 1
    )

    assert is_perfectly_secure(symbol_code, squares)
    assert not is_perfectly_secure(square_code, squares)

    def sq_system(code):
        return JointSystem(
            sources=(squares,),
            codes=(code,),
            function=SeparableFunction(n=1, components=((sq_table,),), form="pure-sum"),
        )

    assert not check_sufficiency(sq_system(symbol_code))
    assert joint_distortion(sq_system(symbol_code)).delta == Fraction(9, 4)
    assert check_sufficiency(sq_system(square_code))
    assert joint_distortion(sq_system(square_code)).delta == 0


def test_float_sum_over_large_offsets_matches_exact():
    # Raw joint moments of two 1e8-offset sources cancel in floats; the
    # centred pass must report the exact 2.5 / 2.5 / 0 and a simulation
    # must land on it.
    offset = make_alphabet([1e8 + i for i in range(1, 5)])
    code = greedy_code(offset, 1)
    system = JointSystem(
        sources=(offset, offset),
        codes=(code, code),
        function=sum_function([offset.values, offset.values]),
    )
    rep = joint_distortion(system)
    assert abs(rep.d_max - 2.5) <= 2.5e-9
    assert abs(rep.d_ach - 2.5) <= 2.5e-9
    assert abs(rep.delta) <= 2.5e-9
    assert rep.perfectly_secure
    sim = simulate(SimConfig(trials=100_000, seed=3, target=system))
    assert abs(sim.analytic_dach - 2.5) <= 2.5e-9
    assert abs(sim.empirical_dach - sim.analytic_dach) <= 4 * sim.stderr


def test_sufficiency_holds_on_components_secure_within_their_limits():
    # Each value table differs from its mean by less than the float limit,
    # 1e-9 of 1e8, so every component reads secure although the identity
    # code reveals it: the joint advantage is then var(f), which the
    # component rule bounds by its reach, not by a limit linear in tol.
    offset = make_alphabet([1e8, 1e8 + 0.01, 1e8 + 0.02, 1e8 + 0.03])
    reveal = identity_code(4)
    for function in (sum_function([offset.values]),
                     product_function([offset.values, offset.values])):
        n = function.n
        system = JointSystem((offset,) * n, (reveal,) * n, function)
        assert check_sufficiency(system)
        rep = joint_distortion(system)
        assert rep.delta == rep.d_max > 0
    # Posterior means at the limit itself: the exact advantage equals the
    # bound, and its float rounds up past it.
    edge = make_alphabet([7e-10, -7e-10])
    system = JointSystem((edge,), (identity_code(2),), sum_function([edge.values]))
    assert joint_distortion(system).delta > Fraction(7e-10) ** 2
    assert check_sufficiency(system, tol=7e-10)


def test_unsecured_component_fails_sufficiency():
    system = _two_source_system(
        sum_function([VALS, VALS]), code0=identity_code(4)
    )
    assert not check_sufficiency(system)
    assert joint_distortion(system).delta == Fraction(5, 4)


def test_factorized_delta_matches_full_enumeration():
    # Random exact systems with up to three terms and bins to spare (r > m):
    # the per-source composition must equal the product-space enumeration
    # exactly, and so must a witness's conditional mean at its tuple.
    rng = np.random.default_rng(23)
    verdicts, witnesses = set(), 0
    for trial in range(60):
        n = int(rng.integers(1, 4))
        sources, codes = [], []
        for _ in range(n):
            m = int(rng.integers(2, 4))
            sources.append(random_exact_alphabet(rng, m, nonuniform=bool(rng.integers(2))))
            codes.append(random_code(rng, m, int(rng.integers(0, 3)), m + int(rng.integers(1, 3))))

        def table(i):
            if rng.integers(3) == 0:  # constant factors are secured by any code
                return (int(rng.integers(-3, 4)),) * sources[i].m
            return tuple(int(t) for t in rng.integers(-3, 4, size=sources[i].m))

        form = ("general-sum-of-products", "pure-sum", "pure-product")[trial % 3]
        if form == "pure-sum":
            function = sum_function([table(i) for i in range(n)])
        elif form == "pure-product":
            function = product_function([table(i) for i in range(n)])
        else:
            L = int(rng.integers(1, 4))
            function = SeparableFunction(
                n=n, components=tuple(tuple(table(i) for i in range(n)) for _ in range(L))
            )
        system = JointSystem(sources=tuple(sources), codes=tuple(codes), function=function)
        oracle = joint_oracle(system)
        report = joint_distortion(system)
        assert (report.d_max, report.d_ach, report.delta) == (
            oracle.d_max, oracle.d_ach, oracle.delta
        )
        assert report.perfectly_secure == oracle.secure
        verdicts.add(oracle.secure)
        if form == "general-sum-of-products":
            continue
        factors = [
            function.components[i if form == "pure-sum" else 0][i] for i in range(n)
        ]
        for u in range(n):
            if exact_oracle(codes[u], sources[u], factors[u]).secure:
                continue
            witness = necessity_witness(system, u)
            if witness.status != "found":
                continue
            witnesses += 1
            assert witness.conditional_mean == oracle.means[witness.observation]
            assert witness.function_mean == oracle.mean
            assert witness.joint_delta == oracle.delta
    assert verdicts == {True, False}
    assert witnesses > 0


def test_float_product_over_large_offsets_matches_exact():
    # f = X0 * X1 on 1e8+{1..4}: the products reach 1e16, past the float
    # mantissa, and the advantage is a small difference of such numbers.
    exact = make_alphabet([10**8 + i for i in range(1, 5)], [Fraction(i, 10) for i in range(1, 5)])
    floats = make_alphabet([1e8 + i for i in range(1, 5)], [i / 10 for i in range(1, 5)])
    codes = (greedy_code(exact, 1), identity_code(4))

    def system(alphabet):
        return JointSystem(
            sources=(alphabet, alphabet),
            codes=codes,
            function=product_function([alphabet.values, alphabet.values]),
        )

    want = joint_distortion(system(exact))
    got = joint_distortion(system(floats))
    assert want.delta > 0
    for name in ("d_max", "d_ach", "delta"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-9 * want.d_max
    assert got.perfectly_secure == want.perfectly_secure


def _cancelling_system(numbers, revealed):
    """f = X*Y - X*(Y + 1/4) = -X/4 on X = 1e9 + {0, .25, .5, .75} and
    Y = 1e9 + {0, .5, 1, 1.5}, read as ``numbers`` (float or Fraction).
    The source named by ``revealed`` gets the identity code, the other a
    greedy code that balances its values."""
    x = make_alphabet([numbers(1e9 + i / 4) for i in range(4)])
    y = make_alphabet([numbers(1e9 + i / 2) for i in range(4)])
    greedy_x, greedy_y = greedy_code(x, 1), greedy_code(y, 1)
    codes = (identity_code(4), greedy_y) if revealed == "x" else (greedy_x, identity_code(4))
    shifted = tuple(t + Fraction(1, 4) for t in y.values)  # a float stays a float
    terms = ((x.values, y.values), (tuple(-t for t in x.values), shifted))
    return JointSystem(
        sources=(x, y), codes=codes, function=SeparableFunction(n=2, components=terms)
    )


@pytest.mark.parametrize(
    "revealed, d_max, d_ach, delta",
    [("y", 0.0048828125, 0.0048828125, 0.0), ("x", 0.0048828125, 0.0, 0.0048828125)],
)
def test_cancelling_float_terms_report_their_exact_twin(revealed, d_max, d_ach, delta):
    # Every term is near 1e18 and f varies by tenths: var(-X/4) = 5/1024.
    # Multiplied in floats, both systems read d_max = delta = -64.0; composed
    # in Fractions and rounded once they read their exact twin's numbers.
    rep = joint_distortion(_cancelling_system(float, revealed))
    want = joint_distortion(_cancelling_system(Fraction, revealed))
    assert (rep.d_max, rep.d_ach, rep.delta) == (d_max, d_ach, delta)
    assert (want.d_max, want.d_ach, want.delta) == tuple(map(Fraction, (d_max, d_ach, delta)))
    if revealed == "y":
        sim = simulate(SimConfig(trials=1000, seed=5, target=_cancelling_system(float, "y")))
        assert sim.analytic_dach == rep.d_ach


@st.composite
def _decimals(draw, m):
    """m non-dyadic decimals about an offset between 0 and 1e12."""
    offset = draw(st.sampled_from([0.0, 1e3, 1e6, 1e9, 1e12, -1e3, -1e6, -1e9, -1e12]))
    return tuple(offset + draw(st.integers(-10**4, 10**4)) / 1000 for _ in range(m))


@st.composite
def _float_sources(draw):
    """A float alphabet, uniform or under a non-dyadic pmf, and an identity
    or greedy code for it."""
    m = draw(st.integers(1, 5))
    pmf = None
    if draw(st.booleans()):
        weights = [draw(st.integers(1, 30)) for _ in range(m)]
        pmf = [w / sum(weights) for w in weights]
    alphabet = make_alphabet(draw(_decimals(m)), pmf)
    if draw(st.booleans()):
        return alphabet, identity_code(m)
    return alphabet, greedy_code(alphabet, draw(st.integers(0, 3)))


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_float_report_is_its_exact_twin_rounded_once(data):
    # d_max and delta are float() of their exact values, bit for bit, single
    # source and composed alike; rounded per bin, delta missed in about one
    # report in ten.
    sources = [data.draw(_float_sources()) for _ in range(data.draw(st.integers(1, 3)))]
    for alphabet, code in sources:
        rep, want = bound_report(code, alphabet), bound_report(code, exact_twin(alphabet))
        assert (rep.d_max, rep.delta) == (float(want.d_max), float(want.delta))
        assert rep.d_ach == rep.d_max - rep.delta
    terms = tuple(
        tuple(
            a.values if data.draw(st.booleans()) else data.draw(_decimals(a.m))
            for a, _ in sources
        )
        for _ in range(data.draw(st.integers(1, 3)))
    )
    system = JointSystem(
        sources=tuple(a for a, _ in sources),
        codes=tuple(code for _, code in sources),
        function=SeparableFunction(n=len(sources), components=terms),
    )
    rep, want = joint_distortion(system), joint_distortion(exact_system_twin(system))
    assert (rep.d_max, rep.delta) == (float(want.d_max), float(want.delta))
    assert rep.d_ach == rep.d_max - rep.delta


def test_a_composed_float_result_that_does_not_fit_raises_overflow():
    # Each source's moments fit a float, but var(X*Y) is about 1e400: the
    # float products once read d_max = delta = inf and d_ach = nan.
    big = make_alphabet([1e100, 2e100])
    system = JointSystem(
        sources=(big, big),
        codes=(identity_code(2), identity_code(2)),
        function=product_function([big.values, big.values]),
    )
    for call in (joint_distortion, check_sufficiency):
        with pytest.raises(OverflowError):
            call(system)
    with pytest.raises(OverflowError):
        simulate(SimConfig(trials=64, seed=1, target=system))


def test_sum_witness_anchor():
    system = _two_source_system(sum_function([VALS, VALS]), code0=identity_code(4))
    report = necessity_witness(system, 0)
    assert report.status == "found"
    assert report.observation == (0, 0)
    assert report.conditional_mean == Fraction(13, 2)
    assert report.function_mean == 5
    assert report.joint_delta == Fraction(5, 4)


def test_product_witness_anchor():
    system = _two_source_system(product_function([VALS, VALS]), code0=identity_code(4))
    report = necessity_witness(system, 0)
    assert report.status == "found"
    assert report.observation == (0, 0)
    assert report.conditional_mean == 10
    assert report.function_mean == Fraction(25, 4)
    assert report.joint_delta == Fraction(125, 16)


def test_product_witness_needs_nonzero_component_means():
    balanced = make_alphabet([1, -1])
    system = JointSystem(
        sources=(balanced, QUAD),
        codes=(identity_code(2), greedy_code(QUAD, 1)),
        function=product_function([(1, -1), VALS]),
    )
    report = necessity_witness(system, 0)
    assert report.status == "not-applicable"
    assert report.observation is None
    assert report.joint_delta is None
    # A nonzero constant factor has zero variance: no witness either.
    constant = JointSystem(
        sources=(QUAD, QUAD),
        codes=(identity_code(4), greedy_code(QUAD, 1)),
        function=product_function([VALS, (3, 3, 3, 3)]),
    )
    report = necessity_witness(constant, 0)
    assert report.status == "not-applicable"
    assert report.observation is None
    assert report.joint_delta is None


def test_product_witness_on_a_small_scale_float_factor():
    # The small factor's variance, 1.25e-10, is below tol = 1e-9 though its
    # values spread: judged on its root, at the mean's scale, it is nonzero.
    big = make_alphabet([1.0, 2.0, 3.0, 4.0])
    small = make_alphabet([1e-5, 2e-5, 3e-5, 4e-5])
    system = JointSystem(
        sources=(big, small),
        codes=(identity_code(4), greedy_code(small, 1)),
        function=product_function([big.values, small.values]),
    )
    report = necessity_witness(system, 0)
    assert report.status == "found"
    assert report.conditional_mean != report.function_mean
    assert report.joint_delta == joint_distortion(system).delta > 0
    assert not joint_distortion(system).perfectly_secure


def test_witness_preconditions():
    secure = _two_source_system(sum_function([VALS, VALS]))
    with pytest.raises(ValueError, match="perfectly secure"):
        necessity_witness(secure, 0)
    with pytest.raises(ValueError):
        necessity_witness(secure, 5)
    general = SeparableFunction(
        n=2, components=((VALS, VALS), ((1, 1, 1, 1), VALS))
    )
    with pytest.raises(ValueError, match="pure-sum and pure-product"):
        necessity_witness(_two_source_system(general, code0=identity_code(4)), 0)
