"""What the eavesdropper can do with one observed bin index.

She knows the code and the source statistics but not the key, so her view of
a transmission is the bin index alone.  Her minimum-mean-squared-error
estimate given bin j is the bin's posterior mean, her loss is the expected
posterior variance, and the gap between the key-blind worst case (guessing
the overall mean) and that loss is her advantage:

    advantage = var(Y) - E[var(Y | bin)] = var(E[Y | bin]).

Every function here reads one set of per-bin moments, built by a single pass
over the code's assignment table: the probability mass of each bin and the
first and second moments of the payoff centred on its overall mean.  Centring
keeps the float path from cancelling large offsets against each other; on the
exact path it changes nothing.  The test suite checks the moments against an
independent enumeration of every (value, key) pair in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .model import KeyedCode, Scalar, SourceAlphabet, arithmetic_view, is_exact


def max_distortion(alphabet: SourceAlphabet) -> Scalar:
    """Variance of the source value: the eavesdropper's loss when the code
    tells her nothing and she falls back to guessing the overall mean."""
    values, pmf = arithmetic_view(alphabet)
    mean = sum(p * y for p, y in zip(pmf, values))
    return sum(p * (y - mean) * (y - mean) for p, y in zip(pmf, values))


@dataclass(frozen=True)
class _BinMoments:
    """Per-bin moments of a payoff t(X) under a uniformly random key.

    ``mean`` is E[t(X)]; for bin j, ``m0[j]`` is p(bin j), and ``s1[j]`` and
    ``s2[j]`` are E[(t(X) - mean) 1{bin j}] and E[(t(X) - mean)^2 1{bin j}].
    All are exact Fractions when the alphabet and the payoff are exact, and
    floats otherwise.
    """

    exact: bool
    mean: Scalar
    m0: tuple[Scalar, ...]
    s1: tuple[Scalar, ...]
    s2: tuple[Scalar, ...]

    def support(self) -> list[int]:
        return [j for j, w in enumerate(self.m0) if w > 0]

    def advantage(self) -> Scalar:
        """var(E[t | bin]) = sum_j s1_j^2 / m0_j."""
        return sum(self.s1[j] * self.s1[j] / self.m0[j] for j in self.support())

    def loss(self) -> Scalar:
        """E[var(t | bin)] = sum_j (s2_j - s1_j^2 / m0_j)."""
        return sum(
            self.s2[j] - self.s1[j] * self.s1[j] / self.m0[j] for j in self.support()
        )

    def posterior_means(self) -> tuple[Scalar | None, ...]:
        return tuple(
            self.mean + s / w if w > 0 else None for w, s in zip(self.m0, self.s1)
        )

    def secure(self, tol: float) -> bool:
        """Every observable bin's posterior mean equals the overall mean:
        exactly on the exact path, within ``tol`` scaled by max(1, |mean|)
        on floats."""
        if self.exact:
            return all(self.s1[j] == 0 for j in self.support())
        limit = tol * max(1.0, abs(self.mean))
        return all(abs(self.s1[j] / self.m0[j]) <= limit for j in self.support())


def _over_common_denominator(xs: list[Fraction]) -> tuple[list[int], int]:
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _bin_moments(code: KeyedCode, alphabet: SourceAlphabet, table=None) -> _BinMoments:
    """One pass over the assignment table, O(m 2**k).

    ``table[i]`` is the payoff of value index i; None means the value itself.
    Each (value, key) pair adds the value's weight p_i / 2**k and its centred
    first and second moments to the bin it lands in.  On the exact path the
    three per-value terms are put over common denominators first, so the pass
    adds integers and divides once per bin at the end.
    """
    if alphabet.m != code.m:
        raise ValueError(f"alphabet has {alphabet.m} values, code expects {code.m}")
    values, pmf = arithmetic_view(alphabet)
    if table is None:
        table = values
    elif len(table) != code.m:
        raise ValueError(f"table has {len(table)} entries for {code.m} values")
    exact = alphabet.exact and all(is_exact(t) for t in table)
    if exact:
        table = [Fraction(t) for t in table]
    else:
        pmf = [float(p) for p in pmf]
        table = [float(t) for t in table]
    mean = sum(p * t for p, t in zip(pmf, table))
    weight = [p / code.key_count for p in pmf]
    centred = [t - mean for t in table]
    terms = (
        weight,
        [w * c for w, c in zip(weight, centred)],
        [w * c * c for w, c in zip(weight, centred)],
    )
    if exact:
        scaled = [_over_common_denominator(t) for t in terms]
    else:
        scaled = [(t, 1) for t in terms]
    (a0, d0), (a1, d1), (a2, d2) = scaled
    r = code.r
    m0, s1, s2 = [0] * r, [0] * r, [0] * r
    for row in code.assignment:
        for v, b in enumerate(row):
            m0[b] += a0[v]
            s1[b] += a1[v]
            s2[b] += a2[v]
    if exact:
        m0 = [Fraction(x, d0) for x in m0]
        s1 = [Fraction(x, d1) for x in s1]
        s2 = [Fraction(x, d2) for x in s2]
    return _BinMoments(exact, mean, tuple(m0), tuple(s1), tuple(s2))


def achievable_distortion(code: KeyedCode, alphabet: SourceAlphabet) -> Scalar:
    """The eavesdropper's minimum expected squared error: the sum over
    observable bins of the payoff's centred within-bin spread,
    sum_j (s2_j - s1_j^2 / m0_j)."""
    return _bin_moments(code, alphabet).loss()


def delta_closed_form(code: KeyedCode, alphabet: SourceAlphabet) -> Scalar:
    """The eavesdropper's advantage, var(E[Y | bin]).

    With s1_j the centred first moment of bin j and m0_j its probability,

        advantage = sum_j s1_j^2 / m0_j

    over observable bins.  The values are centred on E[Y] before they are
    summed, so no E[Y]^2 term is subtracted and the float result is never
    negative.  It is capped at ``max_distortion``: in the reals it never
    exceeds it, and on floats the two round differently, so the cap keeps
    0 <= delta <= d_max.  On the exact path the cap is an identity.
    """
    return min(_bin_moments(code, alphabet).advantage(), max_distortion(alphabet))


def is_perfectly_secure(
    code: KeyedCode, alphabet: SourceAlphabet, tol: float = 1e-9
) -> bool:
    """True when every observable bin's posterior mean equals E[Y].

    Equal posterior means leave the eavesdropper's best estimate identical to
    her no-observation guess, i.e. advantage zero.  Exact alphabets are
    compared exactly; float alphabets within ``tol`` scaled by max(1, |E[Y]|).
    """
    return _bin_moments(code, alphabet).secure(tol)


def decay_bounds(
    alphabet: SourceAlphabet, k: int, d_max: Scalar
) -> tuple[Scalar, Scalar] | None:
    """The two decay bounds on the advantage of a k-bit code,
    (d_max / 2**k, spread^2 / 2**(2k)), or None for a non-uniform source,
    where they are not stated.  Exact on an exact alphabet."""
    if not alphabet.is_uniform():
        return None
    keys = Fraction(2**k) if alphabet.exact else 2**k
    spread = alphabet.spread
    return d_max / keys, spread * spread / keys**2


@dataclass(frozen=True)
class DistortionReport:
    """One code's distortion picture.

    ``bound1_ok`` checks advantage <= d_max / 2**k and ``bound2_ok`` checks
    advantage <= spread^2 / 2**(2k), the pair ``decay_bounds`` gives; both
    are None when not applicable (the guarantees are stated for uniform
    single sources, so non-uniform and composed reports carry None).
    ``spread`` is the value spread of a single source and None for a
    composed system; ``bench/spans.py`` passes it when it assembles a report
    from the timed parts.  On floats as on exact input, 0 <= delta <= d_max
    and d_ach = d_max - delta, so d_ach is never negative.
    """

    d_max: Scalar
    d_ach: Scalar
    delta: Scalar
    spread: Scalar | None
    bound1_ok: bool | None
    bound2_ok: bool | None
    perfectly_secure: bool


def bound_report(
    code: KeyedCode, alphabet: SourceAlphabet, tol: float = 1e-9
) -> DistortionReport:
    """Summarize max/achievable distortion, advantage, and the decay bounds.

    The two decay guarantees are checked with slack ``tol`` relative to their
    own scale (d_max and spread^2) so the float path does not flag rounding
    noise; on the exact path the slack is carried as an exact Fraction.
    """
    mom = _bin_moments(code, alphabet)
    d_max = max_distortion(alphabet)
    delta = min(mom.advantage(), d_max)
    spread = alphabet.spread
    bounds = decay_bounds(alphabet, code.k, d_max)
    if bounds is None:
        bound1_ok = bound2_ok = None
    else:
        slack = Fraction(tol) if alphabet.exact else tol
        bound1_ok = delta <= bounds[0] + slack * d_max
        bound2_ok = delta <= bounds[1] + slack * spread * spread
    return DistortionReport(
        d_max=d_max,
        d_ach=d_max - delta,
        delta=delta,
        spread=spread,
        bound1_ok=bound1_ok,
        bound2_ok=bound2_ok,
        perfectly_secure=mom.secure(tol),
    )
