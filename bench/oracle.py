"""Exact reference values the benchmark checks every output against.

Everything here works in ``Fraction``s and shares no code with ``distsec``:
a single source is judged by enumerating every (value, key) pair, a composed
system by per-source moments.  For f = sum_l prod_i f_i^(l)(X_i) with
independent sources and independently keyed observations G_i,

    E[f^2]        = sum_{l,l'} prod_i E[f_i^(l) f_i^(l')]
    E[E[f|G]^2]   = sum_{l,l'} prod_i E_{G_i}[mu_i^(l)(G_i) mu_i^(l')(G_i)]

with mu_i^(l)(g) = E[f_i^(l)(X_i) | G_i = g], so no product space is walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt


@dataclass(frozen=True)
class Exact:
    """The distortion picture of one code (or system), exactly.

    ``max_dev`` bounds how far an observable bin's posterior mean sits from
    the overall mean and ``min_dev`` is a lower bound on the largest such
    gap: for a single source both are the largest gap itself.  ``mean`` is
    the overall mean, which scales the float path's security tolerance.
    """

    d_max: Fraction
    d_ach: Fraction
    delta: Fraction
    mean: Fraction
    min_dev: Fraction
    max_dev: Fraction
    bound1: Fraction | None = None
    bound2: Fraction | None = None


def sort_descending(values, pmf=None):
    """Values and pmf in the order every distsec code indexes them.

    A stable sort on the value with reverse=True, matching the package:
    equal values keep their input order.
    """
    m = len(values)
    pmf = [Fraction(1, m)] * m if pmf is None else [Fraction(p) for p in pmf]
    order = sorted(range(m), key=lambda i: values[i], reverse=True)
    return [Fraction(values[i]) for i in order], [pmf[i] for i in order]


def check_code(doc: dict) -> list[list[int]]:
    """Validate a code document by hand and return its assignment rows."""
    m, k, r, rows = doc["m"], doc["k"], doc["r"], doc["assignment"]
    if len(rows) != 2**k:
        raise ValueError(f"{len(rows)} key rows for k={k}")
    for key, row in enumerate(rows):
        if len(row) != m or len(set(row)) != m or not all(0 <= b < r for b in row):
            raise ValueError(f"key {key} is not an injection into {r} bins")
    return rows


def _bins(values, pmf, rows):
    """Per-bin probability mass and value mass, by (value, key) enumeration."""
    keys = len(rows)
    mass: dict[int, Fraction] = {}
    first: dict[int, Fraction] = {}
    second: dict[int, Fraction] = {}
    for row in rows:
        for v, b in enumerate(row):
            w = pmf[v] / keys
            if w:
                mass[b] = mass.get(b, 0) + w
                first[b] = first.get(b, 0) + w * values[v]
                second[b] = second.get(b, 0) + w * values[v] * values[v]
    return mass, first, second


def single(values, pmf, rows) -> Exact:
    """One source: ``values``/``pmf`` in descending-value order, ``rows`` the
    code's assignment table."""
    mass, first, second = _bins(values, pmf, rows)
    mean = sum(p * y for p, y in zip(pmf, values))
    d_max = sum(p * (y - mean) ** 2 for p, y in zip(pmf, values))
    d_ach = sum(second[b] - first[b] * first[b] / mass[b] for b in mass)
    dev = max(abs(first[b] / mass[b] - mean) for b in mass)
    uniform = all(p == pmf[0] for p in pmf)
    keys = len(rows)
    spread = values[0] - values[-1]
    return Exact(
        d_max=d_max,
        d_ach=d_ach,
        delta=d_max - d_ach,
        mean=mean,
        min_dev=dev,
        max_dev=dev,
        bound1=d_max / keys if uniform else None,
        bound2=spread * spread / keys**2 if uniform else None,
    )


def composed(sources, codes, components) -> Exact:
    """A separable function of independent sources.

    ``sources[i]`` is (values, pmf) in descending-value order, ``codes[i]``
    an assignment table and ``components[l][i][x]`` factor i of term l.
    """
    n = len(sources)
    terms = range(len(components))
    cross = [[Fraction(1)] * len(components) for _ in terms]  # E[f_l f_l']
    cross_obs = [[Fraction(1)] * len(components) for _ in terms]  # E[E[f_l|G] E[f_l'|G]]
    means = [Fraction(1)] * len(components)
    min_obs = Fraction(1)
    for i in range(n):
        values, pmf = sources[i]
        rows = codes[i]
        keys = len(rows)
        tables = [[Fraction(t) for t in components[l][i]] for l in terms]
        mass: dict[int, Fraction] = {}
        tmass: list[dict[int, Fraction]] = [{} for _ in terms]
        for row in rows:
            for x, b in enumerate(row):
                w = pmf[x] / keys
                if w:
                    mass[b] = mass.get(b, 0) + w
                    for l in terms:
                        tmass[l][b] = tmass[l].get(b, 0) + w * tables[l][x]
        min_obs *= min(mass.values())
        for l in terms:
            means[l] *= sum(p * t for p, t in zip(pmf, tables[l]))
            for l2 in terms:
                cross[l][l2] *= sum(p * a * c for p, a, c in zip(pmf, tables[l], tables[l2]))
                cross_obs[l][l2] *= sum(tmass[l][b] * tmass[l2][b] / mass[b] for b in mass)
    mean = sum(means)
    ef2 = sum(cross[l][l2] for l in terms for l2 in terms)
    eg2 = sum(cross_obs[l][l2] for l in terms for l2 in terms)
    delta = eg2 - mean * mean
    # delta is the variance of E[f|G]: the largest gap is at least its root
    # and at most its root over the least likely observation's probability.
    return Exact(
        d_max=ef2 - mean * mean,
        d_ach=ef2 - eg2,
        delta=delta,
        mean=mean,
        min_dev=_sqrt_floor(delta),
        max_dev=_sqrt_ceil(delta / min_obs),
    )


def _sqrt_floor(x: Fraction) -> Fraction:
    """A rational lower bound on sqrt(x), short by less than 1e-24."""
    scale = 10**24
    return Fraction(isqrt(x.numerator * scale * scale // x.denominator), scale)


def _sqrt_ceil(x: Fraction) -> Fraction:
    lo = _sqrt_floor(x)
    return lo if lo * lo == x else lo + Fraction(1, 10**24)
