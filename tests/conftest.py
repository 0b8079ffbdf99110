"""Shared generators and the exact reference for randomized tests.

Randomness in tests is always seeded; hypothesis strategies live in the test
modules that use them.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import prod

import numpy as np

from distsec import (
    Binning,
    JointSystem,
    KeyedCode,
    SeparableFunction,
    SourceAlphabet,
    greedy_code,
    make_alphabet,
)
from distsec.encoders import _seeded_permutation


def random_code(rng: np.random.Generator, m: int, k: int, r: int) -> KeyedCode:
    """A uniformly random decodable code: one random injection per key."""
    rows = tuple(
        tuple(int(b) for b in rng.permutation(r)[:m]) for _ in range(2**k)
    )
    return KeyedCode(m=m, k=k, r=r, assignment=rows)


def random_exact_alphabet(
    rng: np.random.Generator, m: int, nonuniform: bool = False
) -> SourceAlphabet:
    """Integer values in [-100, 100]; optional random rational pmf."""
    values = [int(v) for v in rng.integers(-100, 101, size=m)]
    if not nonuniform:
        return make_alphabet(values)
    weights = [int(w) for w in rng.integers(1, 20, size=m)]
    total = sum(weights)
    return make_alphabet(values, [Fraction(w, total) for w in weights])


def random_float_alphabet(
    rng: np.random.Generator, m: int, nonuniform: bool = False
) -> SourceAlphabet:
    """Float values in [-100, 100] on the 1/1024 grid (sums stay exact)."""
    values = [int(v) / 1024 for v in rng.integers(-102400, 102401, size=m)]
    if not nonuniform:
        return make_alphabet(values)
    weights = rng.integers(1, 20, size=m).astype(float)
    return make_alphabet(values, list(weights / weights.sum()))


def exact_twin(alphabet: SourceAlphabet) -> SourceAlphabet:
    """The exact alphabet of the numbers a float alphabet holds; an exact pmf
    must sum to exactly 1, so the float pmf is normalised by its sum, as the
    package reads it."""
    total = sum(Fraction(p) for p in alphabet.pmf)
    return make_alphabet(
        [Fraction(v) for v in alphabet.values], [Fraction(p) / total for p in alphabet.pmf]
    )


def exact_system_twin(system: JointSystem) -> JointSystem:
    """A composed system's exact twin: every source's ``exact_twin`` and every
    table entry as the Fraction it holds, under the same codes."""
    function = SeparableFunction(
        n=system.n,
        components=tuple(
            tuple(tuple(map(Fraction, table)) for table in term)
            for term in system.function.components
        ),
    )
    sources = tuple(map(exact_twin, system.sources))
    return JointSystem(sources=sources, codes=system.codes, function=function)


def binning_of(code: KeyedCode, alphabet: SourceAlphabet | None = None) -> Binning:
    """Recover the bin-content view of a code (nonempty bins, by index),
    read from the assignment table alone; ``alphabet`` is not consulted."""
    contents = [[] for _ in range(code.r)]
    for row in code.assignment:
        for v, b in enumerate(row):
            contents[b].append(v)
    return Binning(m=code.m, bins=tuple(tuple(sorted(c)) for c in contents if c))


def exchange_reference(alphabet: SourceAlphabet, k: int, seed: int):
    """The exchange repair loop as plain scans: the library's seeded
    permutation for the start, every bin sum recomputed in Fractions after
    every swap, and the heaviest and lightest bins found by ``max``/``min``
    over all m bins.  Float values are read as the exact numbers they hold.
    The library's loop must match it swap for swap.

    Returns the binning and the sum of squared bin sums before the first
    swap and after each one.
    """
    m, copies = alphabet.m, 2**k
    shuffled = _seeded_permutation(m, copies, seed)
    bins = [sorted(shuffled[i * copies : (i + 1) * copies]) for i in range(m)]
    values = [Fraction(v) for v in alphabet.values]
    d = values[0] - values[-1]
    trace = []
    for _ in range(1_000_000):
        sums = [sum(values[v] for v in content) for content in bins]
        trace.append(sum(s * s for s in sums))
        hi = max(range(m), key=lambda j: (sums[j], -j))
        lo = min(range(m), key=lambda j: (sums[j], j))
        if sums[hi] - sums[lo] <= d:
            break
        a, b = bins[hi][0], bins[lo][-1]
        bins[hi].pop(0)
        bins[lo].pop()
        insort(bins[hi], b)
        insort(bins[lo], a)
    else:
        raise RuntimeError("reference swap loop did not settle")
    return Binning(m=m, bins=tuple(tuple(c) for c in bins)), trace


@lru_cache(maxsize=None)
def _canonical_binnings(m: int, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every partition of 2**k copies of each index in range(m) into bins of
    at most 2**k copies, as sorted tuples of ascending bins.

    Bin types come from itertools; a partition is a multiplicity for each
    type, chosen type by type until every copy is placed.
    """
    copies = 2**k
    types = [
        c for n in range(1, copies + 1) for c in combinations_with_replacement(range(m), n)
    ]
    needs = [tuple(c.count(v) for v in range(m)) for c in types]
    found = []

    def choose(t: int, left: tuple[int, ...], chosen: list) -> None:
        if not any(left):
            found.append(tuple(sorted(chosen)))
            return
        if t == len(types):
            return
        times = 0
        while True:
            choose(t + 1, left, chosen + [types[t]] * times)
            left = tuple(a - b for a, b in zip(left, needs[t]))
            if min(left) < 0:
                return
            times += 1

    choose(0, (copies,) * m, [])
    return tuple(found)


def search_reference(
    alphabet: SourceAlphabet, k: int, r_range=None, prune: bool = True
) -> tuple[tuple[int, ...], ...]:
    """The binning ``brute_force_optimal`` must pick, by plain enumeration in
    Fractions: the greedy code's binning when r = m is in range and no
    binning scores strictly lower, otherwise the lexicographically smallest
    optimal binning.  ``prune`` applies the light-bin rule: a binning with
    two or more bins of at most 2**(k-1) copies is dropped when ``lo`` is at
    most m, or when its last such bin, in sorted order, sits at position
    ``lo`` or later (merging two of them then leaves at least ``lo`` bins).
    Raises ValueError when no binning is left.
    """
    m, copies = alphabet.m, 2**k
    lo, hi = r_range if r_range is not None else (m, 2 * m)
    values = [Fraction(v) for v in alphabet.values]

    def score(binning):
        return sum(sum(values[v] for v in b) ** 2 / len(b) for b in binning)

    def cut(binning):
        light = [i for i, c in enumerate(binning) if 2 * len(c) <= copies]
        return prune and len(light) > 1 and (lo <= m or light[-1] >= lo)

    scored = [
        (score(b), b) for b in _canonical_binnings(m, k)
        if lo <= len(b) < hi and not cut(b)
    ]
    if not scored:
        raise ValueError("no binning in range")
    best = min(s for s, _ in scored)
    if lo <= m < hi:
        greedy = tuple(sorted(binning_of(greedy_code(alphabet, k)).bins))
        if score(greedy) == best:
            return greedy
    return min(b for s, b in scored if s == best)


@dataclass(frozen=True)
class Oracle:
    """One code's (or system's) distortion picture, in exact arithmetic.

    ``prob[j]`` is p(bin j) and ``means[j]`` is E[t(X) | bin j], None off the
    support; ``mean`` is E[t(X)].  For a composed system both are dicts keyed
    by the observed bin tuples.
    """

    mean: Fraction
    d_max: Fraction
    d_ach: Fraction
    delta: Fraction
    prob: tuple[Fraction, ...] | dict[tuple[int, ...], Fraction]
    means: tuple[Fraction | None, ...] | dict[tuple[int, ...], Fraction]
    secure: bool


def exact_oracle(code: KeyedCode, alphabet: SourceAlphabet, table=None) -> Oracle:
    """Enumerate every (value, key) pair in Fractions, sharing no code with
    the package's moment pass.

    Raw (uncentred) per-bin moments are exact here, so the textbook
    formulas apply as written.  Float values and pmf entries are converted
    with ``Fraction(x)``, so a float alphabet is judged on the numbers it
    actually holds; its pmf must then still sum to exactly 1.
    """
    payoff = [Fraction(t) for t in (alphabet.values if table is None else table)]
    pmf = [Fraction(p) for p in alphabet.pmf]
    assert sum(pmf) == 1
    keys = 2**code.k
    m0 = [Fraction(0)] * code.r
    m1 = [Fraction(0)] * code.r
    m2 = [Fraction(0)] * code.r
    for v in range(code.m):
        for key in range(keys):
            b = code.assignment[key][v]
            w = pmf[v] / keys
            m0[b] += w
            m1[b] += w * payoff[v]
            m2[b] += w * payoff[v] ** 2
    mean = sum(p * t for p, t in zip(pmf, payoff))
    support = [j for j in range(code.r) if m0[j] > 0]
    means = tuple(m1[j] / m0[j] if m0[j] > 0 else None for j in range(code.r))
    return Oracle(
        mean=mean,
        d_max=sum(p * t * t for p, t in zip(pmf, payoff)) - mean**2,
        d_ach=sum(m2[j] - m1[j] ** 2 / m0[j] for j in support),
        delta=sum(m1[j] ** 2 / m0[j] for j in support) - mean**2,
        prob=tuple(m0),
        means=means,
        secure=all(means[j] == mean for j in support),
    )


def joint_oracle(system) -> Oracle:
    """Enumerate every (joint value, key tuple) pair of a composed system in
    Fractions: prod_i m_i 2**k_i states, the reference the package's
    per-source composition is checked against.

    Each state adds its probability and f, f^2 to the tuple of bins it is
    observed as; raw moments are exact here, so no centring is needed.
    """
    n = system.n
    pmfs = [[Fraction(p) for p in a.pmf] for a in system.sources]
    assert all(sum(pmf) == 1 for pmf in pmfs)
    tables = [
        [[Fraction(t) for t in term[i]] for i in range(n)]
        for term in system.function.components
    ]
    codes = system.codes
    key_weight = Fraction(1, prod(code.key_count for code in codes))
    m0: dict = {}
    m1: dict = {}
    m2: dict = {}
    for xs in product(*(range(a.m) for a in system.sources)):
        px = prod(pmfs[i][x] for i, x in enumerate(xs))
        if px == 0:
            continue
        f = sum(prod(term[i][x] for i, x in enumerate(xs)) for term in tables)
        w = px * key_weight
        for keys in product(*(range(code.key_count) for code in codes)):
            g = tuple(codes[i].assignment[keys[i]][x] for i, x in enumerate(xs))
            m0[g] = m0.get(g, 0) + w
            m1[g] = m1.get(g, 0) + w * f
            m2[g] = m2.get(g, 0) + w * f * f
    mean = sum(m1.values())
    means = {g: m1[g] / m0[g] for g in m0}
    return Oracle(
        mean=mean,
        d_max=sum(m2.values()) - mean**2,
        d_ach=sum(m2[g] - m1[g] ** 2 / m0[g] for g in m0),
        delta=sum(m1[g] ** 2 / m0[g] for g in m0) - mean**2,
        prob=m0,
        means=means,
        secure=all(mu == mean for mu in means.values()),
    )
