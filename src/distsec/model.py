"""Core model: discrete source alphabets and keyed block-length-one codes.

A source emits one symbol per use, drawn from a finite list of real values.
Transmitter and receiver share a k-bit key; each key value selects an
injective map from value indices to bin indices.  The receiver inverts the
map exactly; an eavesdropper sees only the bin index.  Everything downstream
(distortion analysis, code search, simulation) is built on the two frozen
types defined here.

Numbers are kept in whatever domain they arrive in: int and Fraction inputs
stay exact so that security claims can be asserted as equalities, and float
inputs are reported as floats.  The analysis, the constructions and the
search all work on the exact numbers floats hold (``integer_view``), so a
float result is rounded only when it is reported; the analysis's moment pass
and the search's scores both centre their integers by ``_centre_exact``.
Every layer's value types are made by ``frozen``, a dataclass stand-in.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from functools import cached_property

from .caps import CapExceededError  # re-exported as model.CapExceededError

Scalar = int | float | Fraction


def _coerce_scalar(x, what: str) -> Scalar:
    """Normalise one numeric input to int, Fraction, or finite float.

    Booleans are refused although Python counts them as integers, and so
    are NaN and the infinities: no distortion is defined for them.
    """
    # The exact types first: the abc checks below cost several times more.
    t = type(x)
    if t is int or t is Fraction:
        return x
    if t is float:
        if not math.isfinite(x):
            raise ValueError(f"{what} must be finite, got {x}")
        return x
    if isinstance(x, bool):
        raise TypeError(f"{what} must be a real number, got bool")
    if isinstance(x, numbers.Integral):
        return int(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Real):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"{what} must be finite, got {x}")
        return x
    raise TypeError(f"{what} must be a real number, got {type(x).__name__}")


def is_exact(x: Scalar) -> bool:
    """True when ``x`` carries no rounding (int or Fraction)."""
    return isinstance(x, (int, Fraction))


def integer_view(xs) -> tuple[list[int], int]:
    """Numerators of ``xs`` over their least common denominator, and that
    denominator: exact for ints, Fractions and floats alike, since each gives
    its exact ratio by ``as_integer_ratio`` (a float is a binary rational)."""
    if set(map(type, xs)) == {int}:
        return list(xs), 1
    ratios = [x.as_integer_ratio() for x in xs]
    d = math.lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d


def _centre_exact(table, alphabet) -> tuple[tuple, int, list[int], int, int, int]:
    """The pmf and a payoff table centred on its mean, in integers.

    With the pmf's numerators b_i over their sum P (``alphabet.weights``)
    and the table over its common denominator D (numerators A_i),
    S = sum_i b_i A_i and the centred numerators C_i = P A_i - S put
    t_i - mean over PD.  Returns b, P, C, PD, S and V = sum_i b_i C_i^2:
    the mean is S / PD and the variance V / (P (PD)^2).
    """
    b, p = alphabet.weights
    a, d = integer_view(table)
    s = sum(x * y for x, y in zip(b, a))
    c = [p * y - s for y in a]
    return b, p, c, p * d, s, sum(x * y * y for x, y in zip(b, c))


def frozen(cls):
    """Make ``cls`` an immutable value type over its annotated fields, as
    ``dataclass(frozen=True)`` does, without importing ``dataclasses``: that
    module and the ``inspect`` it loads cost a one-shot CLI run more than
    most of its work.

    The fields are the class's own annotations, in order, and a class
    attribute of a field's name is that field's default.  As dataclasses
    does, ``__init__`` is one ``exec`` of source made from the field names
    alone, ``def __init__(self, a, b=<default>)``, which fills ``__dict__``
    and calls ``__post_init__`` if the class has one; so Python binds the
    arguments, and ``inspect.signature`` reads the fields from it.  ``==``,
    ``hash`` and ``repr`` read the field values; assigning or deleting an
    attribute raises AttributeError.  Instances keep a ``__dict__``, so
    ``cached_property`` and pickling work unchanged.
    """
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    get = operator.attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
    body = f"self.__dict__.update({', '.join(f'{n}={n}' for n in names)})"
    if hasattr(cls, "__post_init__"):
        body += "; self.__post_init__()"
    scope = {"__name__": cls.__module__, "_defaults": defaults}
    exec(f"def __init__(self, {params}):\n    {body}\n", scope)
    __init__ = scope["__init__"]
    __init__.__annotations__ = cls.__annotations__ | {"return": None}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


@frozen
class SourceAlphabet:
    """A finite value list with a probability mass function.

    ``values`` is stored in descending order and ``pmf`` is permuted
    together with the values.  All code bin-index tables produced by this
    package index the descending order.
    """

    values: tuple[Scalar, ...]
    pmf: tuple[Scalar, ...]

    @property
    def m(self) -> int:
        return len(self.values)

    # The flags and the pmf's integers scan every entry, so each is worked
    # out once, on first use; the fields are frozen, so none can go stale.
    @cached_property
    def exact(self) -> bool:
        """True when every value and pmf entry is an int or Fraction."""
        return all(is_exact(v) for v in self.values) and all(
            is_exact(p) for p in self.pmf
        )

    @cached_property
    def weights(self) -> tuple[tuple[int, ...], int]:
        """(b, P): the pmf's numerators over one denominator, and their sum;
        a float pmf is read as normalised by its exact sum."""
        if self.is_uniform():
            return (1,) * self.m, self.m
        b, _ = integer_view(self.pmf)
        return tuple(b), sum(b)

    @property
    def spread(self) -> Scalar:
        """Largest value minus smallest value."""
        return self.values[0] - self.values[-1]

    def is_uniform(self) -> bool:
        """True when every symbol has probability exactly 1/m."""
        return self._uniform

    @cached_property
    def _uniform(self) -> bool:
        # tuple.count tests identity before ==, so the default pmf, one
        # Fraction repeated m times, costs no Fraction comparison (a set
        # would hash every entry, which costs more than comparing it).
        first = self.pmf[0]
        return first == Fraction(1, self.m) and self.pmf.count(first) == self.m


def make_alphabet(values, pmf=None) -> SourceAlphabet:
    """Build a :class:`SourceAlphabet`, sorting values into descending order.

    Args:
        values: non-empty iterable of real numbers.  Duplicates are allowed
            (a constant alphabet is legal and trivially secure).
        pmf: optional iterable of probabilities, one per value, in the same
            order as ``values``.  Omitted means uniform, stored as the exact
            Fraction 1/m.

    Raises:
        ValueError: empty values, length mismatch, pmf entry outside [0, 1],
            an exact (int/Fraction) pmf whose sum is not exactly 1, or a pmf
            with a float entry whose sum differs from 1 by more than 1e-12.
    """
    vals = [_coerce_scalar(v, "value") for v in values]
    if not vals:
        raise ValueError("alphabet needs at least one value")
    m = len(vals)
    if pmf is None:
        probs = [Fraction(1, m)] * m
    else:
        probs = [_coerce_scalar(p, "pmf entry") for p in pmf]
        if len(probs) != m:
            raise ValueError(f"pmf has {len(probs)} entries for {m} values")
        for p in probs:
            if p < 0 or p > 1:
                raise ValueError(f"pmf entry {p} outside [0, 1]")
        total = sum(probs)
        # An exact pmf must be exact: any slack would break equality claims.
        slack = 0 if all(is_exact(p) for p in probs) else Fraction(1, 10**12)
        if abs(total - 1) > slack:
            raise ValueError(f"pmf sums to {total}, expected 1")
    order = sorted(range(m), key=lambda i: vals[i], reverse=True)
    return SourceAlphabet(
        values=tuple(vals[i] for i in order),
        pmf=tuple(probs[i] for i in order),
    )


@frozen
class KeyedCode:
    """An injective bin assignment per key value.

    ``assignment[key][value_index]`` is the 0-based bin index transmitted for
    that value under that key.  There are exactly ``2**k`` keys, so every
    value index has one outgoing assignment per key; injectivity per key is
    what makes the receiver's decoding exact.  The per-key injectivity also
    caps the number of (value, key) pairs landing in any one bin at ``2**k``.
    """

    m: int
    k: int
    r: int
    assignment: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one value")
        if self.k < 0:
            raise ValueError("key bit count must be >= 0")
        if self.r < 1:
            raise ValueError("need at least one bin")
        # Compare bit lengths first so a huge k never evaluates 2**k.
        rows = len(self.assignment)
        if self.k >= rows.bit_length() or rows != self.key_count:
            raise ValueError(f"expected 2**{self.k} key rows, got {rows}")
        # One pass per row over plain ints; the entry-by-entry scan runs only
        # where that fails, to name the first bad entry (or to pass a row of
        # int subclasses, which the pass does not take).
        for key, row in enumerate(self.assignment):
            if not (
                len(row) == self.m
                and set(map(type, row)) == {int}
                and len(set(row)) == self.m
                and 0 <= min(row)
                and max(row) < self.r
            ):
                self._scan(key, row)

    def _scan(self, key: int, row) -> None:
        if len(row) != self.m:
            raise ValueError(f"key {key}: expected {self.m} entries, got {len(row)}")
        seen = set()
        for v, b in enumerate(row):
            if not isinstance(b, int) or isinstance(b, bool):
                raise ValueError(f"key {key}, value {v}: bin index must be int")
            if not 0 <= b < self.r:
                raise ValueError(f"key {key}, value {v}: bin {b} outside [0, {self.r})")
            if b in seen:
                raise ValueError(f"key {key}: bin {b} used twice (not injective)")
            seen.add(b)

    @property
    def key_count(self) -> int:
        return 2**self.k


# ---------------------------------------------------------------------------
# JSON-friendly serialization.  Ints stay ints, floats stay floats, Fractions
# become "p/q" strings so the exact domain survives a round trip through a
# file.  The code document layout {m, k, r, assignment} is stable.

def scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x


MAX_EXPONENT = 10**4


def parse_rational(text: str) -> Fraction:
    """Parse an integer, decimal or p/q literal exactly, or raise ValueError.

    Fraction builds 10**exponent, whose cost grows without bound, so an
    exponent of magnitude above MAX_EXPONENT is refused before it sees one.
    """
    _, e, exponent = text.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdigit() and (len(digits) > 5 or int(digits) > MAX_EXPONENT):
        raise ValueError(f"exponent of {text!r} exceeds 10**4 in magnitude")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad rational literal {text!r}") from e


def scalar_from_json(x) -> Scalar:
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"expected a number, got {x!r}")
    return _coerce_scalar(x, "value")


def _json_int(x, what: str) -> int:
    # bool is an int subclass but never a size or an index in a document.
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def code_to_dict(code: KeyedCode) -> dict:
    return {
        "m": code.m,
        "k": code.k,
        "r": code.r,
        "assignment": [list(row) for row in code.assignment],
    }


def code_from_dict(doc: dict) -> KeyedCode:
    if not isinstance(doc, dict):
        raise ValueError("code document must be a JSON object")
    missing = {"m", "k", "r", "assignment"} - doc.keys()
    if missing:
        raise ValueError(f"code document missing fields: {sorted(missing)}")
    assignment = doc["assignment"]
    if not isinstance(assignment, list) or not all(
        isinstance(row, list) for row in assignment
    ):
        raise ValueError("assignment must be a list of per-key rows")
    m, k, r = (_json_int(doc[f], f) for f in ("m", "k", "r"))
    try:
        return KeyedCode(m=m, k=k, r=r, assignment=tuple(map(tuple, assignment)))
    except ValueError:
        # A bin index that is not a JSON integer is the document's error,
        # worded as such; any other fault is the code's.
        for row in assignment:
            for b in row:
                _json_int(b, "bin index")
        raise


def alphabet_to_dict(alphabet: SourceAlphabet) -> dict:
    """Serialize in descending value order; pmf omitted when uniform."""
    doc = {"values": [scalar_to_json(v) for v in alphabet.values]}
    if not alphabet.is_uniform():
        doc["pmf"] = [scalar_to_json(p) for p in alphabet.pmf]
    return doc


def alphabet_from_dict(doc: dict) -> SourceAlphabet:
    if not isinstance(doc, dict) or not isinstance(doc.get("values"), list):
        raise ValueError("alphabet document must be an object with a 'values' list")
    values = [scalar_from_json(v) for v in doc["values"]]
    pmf = doc.get("pmf")
    if pmf is not None:
        if not isinstance(pmf, list):
            raise ValueError("pmf must be a list")
        pmf = [scalar_from_json(p) for p in pmf]
    return make_alphabet(values, pmf)
