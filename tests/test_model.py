"""Alphabet and code plumbing: ordering, validation, round trips."""

import dataclasses
import enum
import inspect
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_code
from distsec import (
    Binning,
    DistortionReport,
    JointSystem,
    KeyedCode,
    SearchResult,
    SeparableFunction,
    SimConfig,
    SimReport,
    SourceAlphabet,
    StructureReport,
    WitnessReport,
    alphabet_from_dict,
    alphabet_to_dict,
    bound_report,
    brute_force_optimal,
    code_from_dict,
    code_to_dict,
    greedy_code,
    make_alphabet,
    simulate,
    sum_function,
    verify_structure,
)
from distsec.analysis import _bin_moments, _BinMoments
from distsec.model import integer_view, parse_rational, scalar_from_json, scalar_to_json
from distsec.multisource import _compose, _Composition


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
    # Entries equal in value count alike whatever their type or identity.
    assert make_alphabet([1, 2, 3, 4], [Fraction(1, 4), 0.25, Fraction(2, 8), 0.25]).is_uniform()
    assert make_alphabet([7], [1]).is_uniform()
    assert not make_alphabet([1, 2, 3, 4], [0.25, 0.25, 0.3, 0.2]).is_uniform()
    assert not make_alphabet([1, 2, 3], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]).is_uniform()


def test_inputs_are_normalised_whatever_their_numeric_type():
    class Count(int):
        pass

    a = make_alphabet([Count(3), np.int64(2), np.float64(0.5), Fraction(1, 3), 1.5])
    assert [type(v) for v in a.values] == [int, int, float, float, Fraction]
    for bad, error, message in (
        (True, TypeError, "value must be a real number, got bool"),
        ("1", TypeError, "value must be a real number, got str"),
        (float("nan"), ValueError, "value must be finite, got nan"),
        (np.float64("inf"), ValueError, "value must be finite, got inf"),
    ):
        with pytest.raises(error) as info:
            make_alphabet([1, bad])
        assert str(info.value) == message


def test_exactness_flag():
    assert make_alphabet([1, Fraction(1, 2)]).exact
    assert not make_alphabet([1.0, 2]).exact
    assert not make_alphabet([1, 2], [0.5, 0.5]).exact


def test_pmf_integers_are_formed_once_in_value_order():
    a = make_alphabet([1, 3, 2], [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
    assert a.weights == ((2, 1, 1), 4)
    assert a.weights is a.weights
    # A float pmf is read as normalised by its exact sum: the numbers 0.7,
    # 0.2 and 0.1 hold add up to a hair under 1.
    held = [Fraction(q) for q in (0.7, 0.2, 0.1)]
    b, p = make_alphabet([3, 2, 1], [0.7, 0.2, 0.1]).weights
    assert sum(held) != 1
    assert [Fraction(x, p) for x in b] == [q / sum(held) for q in held]


def _integer_view_reference(xs):
    ratios = [Fraction(x).as_integer_ratio() for x in xs]
    d = math.lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d


def test_integer_views_agree_with_the_ratio_pass_on_every_domain():
    for xs in ([3, -1, 0, 2**70], [3, Fraction(1, 3), -2], [0.5, 3, 0.1],
               [Fraction(1, 4)] * 4, [0.25] * 4, []):
        assert integer_view(xs) == _integer_view_reference(xs), xs
    # An all-int list is its own view, over 1.
    assert integer_view((5, -7)) == ([5, -7], 1)
    for values, pmf in (([1, 2, 3], None), ([1.5, 2, 3], None), ([1, 2, 3, 4], [0.25] * 4),
                        ([1, 2, 3], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
                        ([1, 2, 3], [0.5, 0.3, 0.2]), ([7], [1]),
                        ([1, 2, 3, 4], [Fraction(1, 4), 0.25, Fraction(2, 8), 0.25])):
        a = make_alphabet(values, pmf)
        b, _ = _integer_view_reference(a.pmf)
        assert a.weights == (tuple(b), sum(b)), (values, pmf)


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


class _Bin(enum.IntEnum):
    ONE = 1


def _scan_reference(m, r, assignment):
    """The entry-by-entry check, rows in order: the first fault's message,
    or None for a valid table."""
    for key, row in enumerate(assignment):
        if len(row) != m:
            return f"key {key}: expected {m} entries, got {len(row)}"
        seen = set()
        for v, b in enumerate(row):
            if not isinstance(b, int) or isinstance(b, bool):
                return f"key {key}, value {v}: bin index must be int"
            if not 0 <= b < r:
                return f"key {key}, value {v}: bin {b} outside [0, {r})"
            if b in seen:
                return f"key {key}: bin {b} used twice (not injective)"
            seen.add(b)
    return None


_ENTRY = st.one_of(st.integers(-1, 4), st.sampled_from([True, 1.0, 1.5, "1", _Bin.ONE]))


@given(m=st.integers(1, 3), r=st.integers(1, 4),
       rows=st.lists(st.lists(_ENTRY, min_size=0, max_size=4), min_size=2, max_size=2))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_code_check_names_the_first_fault_an_entry_scan_finds(m, r, rows):
    # The per-row pass hands a failing row to the entry-by-entry scan, so
    # the message is the first fault in row and entry order, and a row of
    # int subclasses (here an IntEnum) passes as it always did.
    want = _scan_reference(m, r, rows)
    try:
        KeyedCode(m=m, k=1, r=r, assignment=tuple(map(tuple, rows)))
        got = None
    except ValueError as e:
        got = str(e)
    assert got == want
    # A document's non-integer bin index is worded as the document's fault,
    # before any fault of the code.
    doc_rows = [[b.value if isinstance(b, _Bin) else b for b in row] for row in rows]
    bad = [b for row in doc_rows for b in row if not isinstance(b, int) or isinstance(b, bool)]
    try:
        code_from_dict({"m": m, "k": 1, "r": r, "assignment": doc_rows})
        got = None
    except ValueError as e:
        got = str(e)
    if bad:
        want = f"bin index must be an integer, got {bad[0]!r}"
    else:
        want = _scan_reference(m, r, doc_rows)
    assert got == want


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


# --- the frozen value types ---------------------------------------------------

_ALPHA = make_alphabet([1, 2, 3])
_CODE = greedy_code(_ALPHA, 1)
_SYSTEM = JointSystem((_ALPHA, _ALPHA), (_CODE, _CODE), sum_function([_ALPHA.values] * 2))
# One instance of each value type, and keyword arguments on which each type
# with a __post_init__ check refuses to build.
_VALUES = (
    (_ALPHA, None),
    (_CODE, {"m": 3, "k": 0, "r": 3, "assignment": ((0, 1, 1),)}),
    (_bin_moments(_CODE, _ALPHA), None),
    (bound_report(_CODE, _ALPHA), None),
    (Binning(3, ((0, 2), (1,))), {"m": 2, "bins": ((1, 0),)}),
    (verify_structure(_CODE), None),
    (brute_force_optimal(_ALPHA, 1), None),
    (_SYSTEM.function, {"n": 1, "components": (((1, 2),),), "form": "pure"}),
    (_SYSTEM, {"sources": (_ALPHA,), "codes": (_CODE,), "function": _SYSTEM.function}),
    (_compose(_SYSTEM), None),
    (WitnessReport("not-applicable"), None),
    (SimConfig(10, 3, (_CODE, _ALPHA)), {"trials": 10**9, "seed": 3, "target": _SYSTEM}),
    (simulate(SimConfig(10, 3, (_CODE, _ALPHA))), None),
)
# What the decorator installs; a dataclass twin gets its own.
_INSTALLED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
              "__match_args__", "__dict__", "__weakref__"}


def _dataclass_twin(cls):
    """The same class body under dataclass(frozen=True)."""
    body = {k: v for k, v in vars(cls).items() if k not in _INSTALLED}
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def _raised(build):
    try:
        build()
    except Exception as e:  # the type and message are what is compared
        return type(e), str(e)
    raise AssertionError("built without an error")


def test_value_types_behave_as_their_dataclass_twins():
    types_ = [type(value) for value, _ in _VALUES]
    assert set(types_) == {
        SourceAlphabet, KeyedCode, _BinMoments, DistortionReport, Binning, StructureReport,
        SearchResult, SeparableFunction, JointSystem, _Composition, WitnessReport, SimConfig,
        SimReport}
    for value, bad in _VALUES:
        cls = type(value)
        twin = _dataclass_twin(cls)
        names = tuple(cls.__annotations__)
        args = tuple(getattr(value, n) for n in names)
        assert cls.__match_args__ == twin.__match_args__ == names
        assert inspect.signature(cls) == inspect.signature(twin)
        assert cls.__init__.__annotations__ == twin.__init__.__annotations__
        # Positional, keyword and mixed construction, and defaults.
        mirror = twin(*args)
        for built in (cls(*args), cls(**dict(zip(names, args))),
                      cls(*args[:1], **dict(zip(names[1:], args[1:])))):
            assert built == value and built is not value
            assert vars(built) == vars(mirror)
            assert (repr(built), hash(built)) == (repr(mirror), hash(mirror))
        required = [n for n in names if n not in vars(cls)]
        assert repr(cls(*args[:len(required)])) == repr(twin(*args[:len(required)]))
        # A missing argument, an unknown keyword, a surplus positional and a
        # repeated argument are refused with the twin's TypeError, word for word.
        for build in (lambda make: make(*args[:len(required) - 1]),
                      lambda make: make(*args, bogus=1),
                      lambda make: make(*args, None),
                      lambda make: make(*args, **{names[0]: args[0]})):
            error = _raised(lambda: build(cls))
            assert error == _raised(lambda: build(twin)) and error[0] is TypeError
        if bad is not None:
            error = _raised(lambda: cls(**bad))
            assert error == _raised(lambda: twin(**bad)) and error[0] is not TypeError
        # == is by class and fields; neither type equals the other.
        assert value != mirror and mirror != value
        assert (value == cls(*args)) is True and (value != cls(*args)) is False
        # Frozen: no field or other attribute can be set or deleted.
        for target in (value, mirror):
            for name in (names[0], "other"):
                with pytest.raises(AttributeError):
                    setattr(target, name, 0)
                with pytest.raises(AttributeError):
                    delattr(target, name)
        assert getattr(value, names[0]) is args[0]
        copy = pickle.loads(pickle.dumps(value))
        assert (type(copy), copy, repr(copy)) == (cls, value, repr(value))


def test_cached_values_survive_pickling():
    alphabet = make_alphabet([3, 1, 2], [0.5, 0.25, 0.25])
    moments = _bin_moments(_CODE, _ALPHA)
    for value, name in ((alphabet, "weights"), (alphabet, "exact"), (moments, "mean")):
        cached = getattr(value, name)
        copy = pickle.loads(pickle.dumps(value))
        assert vars(copy)[name] == cached
        assert getattr(copy, name) is vars(copy)[name]

