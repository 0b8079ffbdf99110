"""Alphabet and code plumbing: ordering, validation, round trips."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_code
from distsec import (
    KeyedCode,
    alphabet_from_dict,
    alphabet_to_dict,
    code_from_dict,
    code_to_dict,
    greedy_code,
    make_alphabet,
)
from distsec.model import parse_rational, scalar_from_json, scalar_to_json


def test_values_sorted_descending_with_permutation_record():
    a = make_alphabet([2, 9, 1, 5], [0.1, 0.4, 0.2, 0.3])
    assert a.values == (9, 5, 2, 1)
    assert a.pmf == (0.4, 0.3, 0.1, 0.2)


def test_default_pmf_is_exact_uniform():
    a = make_alphabet([3, 1, 2])
    assert a.pmf == (Fraction(1, 3),) * 3
    assert a.is_uniform()
    assert a.exact


def test_duplicate_values_allowed():
    a = make_alphabet([5, 5, 5])
    assert a.values == (5, 5, 5)
    assert a.spread == 0


def test_spread():
    assert make_alphabet([9, 5, 2, 1]).spread == 8
    assert make_alphabet([-1.5, 2.5]).spread == 4.0


def test_uniform_detection_is_exact():
    # 0.25 is exactly 1/4 in binary; 1/3 as a float is not exactly 1/3.
    assert make_alphabet([1, 2, 3, 4], [0.25] * 4).is_uniform()
    assert not make_alphabet([1, 2, 3], [1 / 3] * 3).is_uniform()


def test_exactness_flag():
    assert make_alphabet([1, Fraction(1, 2)]).exact
    assert not make_alphabet([1.0, 2]).exact
    assert not make_alphabet([1, 2], [0.5, 0.5]).exact


def test_bad_alphabets_rejected():
    with pytest.raises(ValueError):
        make_alphabet([])
    with pytest.raises(ValueError):
        make_alphabet([1, 2], [0.5])
    with pytest.raises(ValueError):
        make_alphabet([1, 2], [-0.1, 1.1])
    with pytest.raises(ValueError):
        make_alphabet([1, 2], [0.5, 0.4])
    with pytest.raises(TypeError):
        make_alphabet([1, "x"])


def test_pmf_sum_tolerance_absorbs_float_dust():
    make_alphabet(list(range(10)), [0.1] * 10)  # sums to 0.9999999999999999


def test_exact_pmf_must_sum_to_exactly_one():
    # Fraction(0.1) is the binary double nearest 1/10, so these four miss 1
    # by about 5.6e-17; the float slack would let them through.
    dusty = [Fraction(p) for p in (0.1, 0.2, 0.3, 0.4)]
    with pytest.raises(ValueError):
        make_alphabet([10**8 + i for i in range(1, 5)], dusty)
    make_alphabet([1, 2], [Fraction(1, 3), Fraction(2, 3)])
    make_alphabet([1, 2], [0, 1])


def test_code_validation():
    KeyedCode(m=2, k=1, r=2, assignment=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        KeyedCode(m=2, k=1, r=2, assignment=((0, 0), (1, 0)))  # not injective
    with pytest.raises(ValueError):
        KeyedCode(m=2, k=1, r=2, assignment=((0, 1),))  # missing key row
    with pytest.raises(ValueError):
        KeyedCode(m=2, k=1, r=2, assignment=((0, 1, 0), (1, 0, 1)))
    with pytest.raises(ValueError):
        KeyedCode(m=2, k=1, r=2, assignment=((0, 2), (1, 0)))  # bin out of range
    with pytest.raises(ValueError):
        KeyedCode(m=2, k=1, r=2, assignment=((0, True), (1, 0)))
    with pytest.raises(ValueError):
        KeyedCode(m=0, k=0, r=1, assignment=((),))
    with pytest.raises(ValueError):
        KeyedCode(m=1, k=-1, r=1, assignment=())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_decoding_inverts_encoding(data):
    m = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, 2))
    r = data.draw(st.integers(m, m + 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    code = random_code(np.random.default_rng(seed), m, k, r)
    # Each key sends distinct values to distinct bins, so the receiver,
    # who knows the key, recovers the value from the bin alone.
    for row in code.assignment:
        assert len(set(row)) == m


def test_code_json_round_trip():
    code = greedy_code(make_alphabet([9, 5, 2, 1]), 1)
    assert code_from_dict(code_to_dict(code)) == code


def test_code_json_rejects_malformed():
    with pytest.raises(ValueError):
        code_from_dict({"m": 2, "k": 1, "r": 2})
    with pytest.raises(ValueError):
        code_from_dict({"m": 2, "k": 1, "r": 2, "assignment": "nope"})
    with pytest.raises(ValueError):
        code_from_dict([1, 2, 3])
    for field, bad in (("m", [1]), ("k", None), ("r", 2.0), ("k", True)):
        doc = {"m": 2, "k": 1, "r": 2, "assignment": [[0, 1], [1, 0]]}
        doc[field] = bad
        with pytest.raises(ValueError):
            code_from_dict(doc)
    with pytest.raises(ValueError):
        code_from_dict({"m": 2, "k": 1, "r": 2, "assignment": [[0, 1.5], [1, 0]]})


def test_alphabet_json_round_trip_exact():
    a = make_alphabet([1, Fraction(1, 3), -2], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    doc = alphabet_to_dict(a)
    assert doc["values"] == [1, "1/3", -2]
    assert doc["pmf"] == ["1/2", "1/4", "1/4"]
    b = alphabet_from_dict(doc)
    assert b.values == a.values and b.pmf == a.pmf


def test_alphabet_json_omits_uniform_pmf():
    doc = alphabet_to_dict(make_alphabet([3, 1, 2]))
    assert "pmf" not in doc
    assert alphabet_from_dict(doc).is_uniform()


def test_alphabet_json_round_trip_float():
    a = make_alphabet([1.5, -0.25], [0.75, 0.25])
    b = alphabet_from_dict(alphabet_to_dict(a))
    assert b.values == a.values and b.pmf == a.pmf


def test_scalar_json_forms():
    assert scalar_to_json(Fraction(3, 4)) == "3/4"
    assert scalar_to_json(Fraction(4, 2)) == 2       # integral rationals flatten
    assert scalar_to_json(1.5) == 1.5
    assert scalar_from_json("3/4") == Fraction(3, 4)
    assert scalar_from_json(7) == 7
    with pytest.raises(ValueError):
        scalar_from_json("seven")
    with pytest.raises(ValueError):
        alphabet_from_dict({"values": None})


def test_rational_literals_bound_their_exponent():
    assert parse_rational("1e10000") == 10**10000
    assert parse_rational("-2.5E-1_0000") == Fraction(-25, 10**10001)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)
    for text in ("1e10001", "1E-10001", "1e+0000099999", "1e1_0001", "5e999999999"):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)
    for text in ("1/0", "1e5/3", "inf", "0x10"):
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_rational(text)
