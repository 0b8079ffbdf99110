"""What the eavesdropper can do with one observed bin index.

She knows the code and the source statistics but not the key, so her view of
a transmission is the bin index alone.  Her minimum-mean-squared-error
estimate given bin j is the bin's posterior mean, her loss is the expected
posterior variance, and the gap between the key-blind worst case (guessing
the overall mean) and that loss is her advantage:

    advantage = var(Y) - E[var(Y | bin)] = var(E[Y | bin]).

Every function here reads one set of moments, built by a single pass over
the code's assignment table: the payoff's variance, and for each bin its
probability mass and the first moment of the payoff centred on its overall
mean.  The pass puts the pmf and the payoff over common denominators first,
for every alphabet (a finite float is a binary rational), so it and the
verdicts add and compare integers.  The moments are exact, and a reported
number is formed from them once: a Fraction on an exact input, on a float
input float() of its exact value.  The test suite checks the moments against
an independent enumeration of every (value, key) pair in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import compress

from .model import KeyedCode, Scalar, SourceAlphabet, integer_view, is_exact


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


def _rounded(exact: bool, bounds) -> Scalar:
    """A reported number x: exact on an exact input, else float(x)
    (OverflowError when no float holds it).  ``bounds(p)`` returns Fractions
    lo <= x <= hi that close in as p grows, ``bounds(None)`` x twice.
    Rounding is monotone, so once lo and hi round alike, sign included,
    that float is float(x) (Ziv's rounding test: A. Ziv, ACM TOMS 17(3),
    1991).  Only an x on a rounding midpoint, or too near one to settle at
    p = 4096, is formed exactly.
    """
    if not exact:
        for p in (64, 256, 1024, 4096):
            lo, hi = bounds(p)
            x = float(lo)
            if x == float(hi) and (lo < 0) == (hi < 0):
                return x
    x = bounds(None)[0]
    return x if exact else float(x)


def _limit(exact: bool, tol: float, scale: Scalar) -> Fraction:
    """A verdict's tolerance, tol * max(1, |scale|) as an exact Fraction;
    0 on an exact input, where every verdict is an equality."""
    return Fraction(0) if exact else Fraction(tol * max(1.0, abs(scale)))


def max_distortion(alphabet: SourceAlphabet) -> Scalar:
    """Variance of the source value: the eavesdropper's loss when the code
    tells her nothing and she falls back to guessing the overall mean."""
    _, p, _, pd, _, v = _centre_exact(alphabet.values, alphabet)
    x = Fraction(v, p * pd * pd)
    return x if alphabet.exact else float(x)


@dataclass(frozen=True)
class _BinMoments:
    """Per-bin moments of a payoff t(X) under a uniformly random key.

    The pass keeps integer numerators alone.  ``b`` and ``c`` list, per
    value index i, p_i over P = ``pden`` and t_i - mean over PD = ``cden``
    (``_centre_exact``); for bin j, ``b0[j]`` is p(bin j) over KP and
    ``b1[j]`` is E[(t(X) - mean) 1{bin j}] over KP * PD, with K = ``keys``
    = 2**k.  The mean is ``s`` / PD and the variance ``v`` / (P PD^2).

    Every accessor returns an exact value, a Fraction, whatever the input;
    ``exact`` tells a caller whether to report it as it is or round it once
    (``_rounded``), and sets the verdicts' tolerance (``_limit``).  ``mean``
    and ``var`` are formed when first read.
    """

    exact: bool
    b: tuple
    c: tuple
    b0: tuple
    b1: tuple
    keys: int
    pden: int
    cden: int
    s: int
    v: int

    @cached_property
    def mean(self) -> Fraction:
        return Fraction(self.s, self.cden)

    @cached_property
    def var(self) -> Fraction:
        return Fraction(self.v, self.pden * self.cden * self.cden)

    def support(self) -> list[int]:
        return [j for j, w in enumerate(self.b0) if w > 0]

    def covariance(self, other: _BinMoments) -> Fraction:
        """cov(t(X), u(X)) = sum_i p_i c_i c'_i, for ``other`` the pass of a
        payoff u over the same alphabet."""
        total = sum(x * y * z for x, y, z in zip(self.b, self.c, other.c))
        return Fraction(total, self.pden * self.cden * other.cden)

    def posterior_covariance(self, other: _BinMoments, p: int | None = None) -> tuple:
        """Bounds lo <= x <= hi on x = cov(E[t | bin], E[u | bin]) =
        sum_j s1_j s1'_j / m0_j over observable bins, for ``other`` the pass
        of a payoff u under the same code and alphabet.  In integers x is
        sum_j B1_j B1'_j / B0_j over K P (PD)(PD)', one quotient per
        distinct bin mass B0_j.  With p None both bounds are x, the
        quotients added pairwise in a balanced tree (in sequence the cost is
        quadratic in their count).  Otherwise each quotient is floored at p
        fractional bits, and hi adds 2**-p per inexact one: linear time.
        """
        den = self.keys * self.pden * self.cden * other.cden
        groups: dict[int, int] = {}
        for w, x, y in zip(self.b0, self.b1, other.b1):
            if w:
                groups[w] = groups.get(w, 0) + x * y
        if p is None:
            terms = [Fraction(t, w) for w, t in groups.items()]
            while len(terms) > 1:
                terms = [sum(terms[i : i + 2]) for i in range(0, len(terms), 2)]
            x = sum(terms, Fraction(0)) / den
            return x, x
        floors = inexact = 0
        for w, t in groups.items():
            q, r = divmod(t << p, w)
            floors += q
            inexact += r != 0
        return Fraction(floors, den << p), Fraction(floors + inexact, den << p)

    def posterior_means(self) -> tuple[Fraction | None, ...]:
        """E[t | bin j] = mean + s1_j / m0_j = (S B0_j + B1_j) / (B0_j PD)
        per bin, None for an unobservable one."""
        return tuple(
            Fraction(self.s * w + x, w * self.cden) if w else None
            for w, x in zip(self.b0, self.b1)
        )

    def secure(self, tol: float) -> bool:
        """Every observable bin's posterior mean is within ``tol`` scaled by
        max(1, |mean|) of the overall mean, a limit of 0 on an exact input.
        Compared in integers: |B1_j| <= limit * B0_j * PD on every bin."""
        limit = _limit(self.exact, tol, self.mean)
        n, d = limit.numerator * self.cden, limit.denominator
        # compress skips the bins with B1_j == 0, which pass at any limit.
        return all(abs(x) * d <= n * w for w, x in compress(zip(self.b0, self.b1), self.b1))


def _bin_moments(code: KeyedCode, alphabet: SourceAlphabet, table=None) -> _BinMoments:
    """One pass over the assignment table, O(m 2**k), in integers.

    ``table[i]`` is the payoff of value index i; None means the value itself.
    Each (value, key) pair adds the integers b_i and b_i C_i of
    ``_centre_exact`` to the bin it lands in, so bin j gets B0_j = sum b_i
    and B1_j = sum b_i C_i over the pairs it receives, and the common
    denominators stay out of the pass (see ``_BinMoments``).
    """
    if alphabet.m != code.m:
        raise ValueError(f"alphabet has {alphabet.m} values, code expects {code.m}")
    if table is None:
        table = alphabet.values
    elif len(table) != code.m:
        raise ValueError(f"table has {len(table)} entries for {code.m} values")
    exact = alphabet.exact and all(is_exact(t) for t in table)
    b, pden, c, cden, s, v = _centre_exact(table, alphabet)
    w1 = [x * y for x, y in zip(b, c)]
    r = code.r
    b0, b1 = [0] * r, [0] * r
    for x0, x1, column in zip(b, w1, zip(*code.assignment)):
        for j in column:
            b0[j] += x0
            b1[j] += x1
    return _BinMoments(
        exact, tuple(b), tuple(c), tuple(b0), tuple(b1), code.key_count, pden, cden, s, v
    )


def _advantage(mom: _BinMoments) -> Scalar:
    """var(E[t | bin]), the posterior means' variance, as reported."""
    return _rounded(mom.exact, partial(mom.posterior_covariance, mom))


def achievable_distortion(code: KeyedCode, alphabet: SourceAlphabet) -> Scalar:
    """The eavesdropper's minimum expected squared error, E[var(Y | bin)].

    By the law of total variance it is d_max minus the advantage, and it is
    formed that way, so it equals ``bound_report``'s d_ach bit for bit.  On
    floats both are rounded once from their exact values, and rounding is
    monotone, so the difference is never negative.
    """
    mom = _bin_moments(code, alphabet)
    return (mom.var if mom.exact else float(mom.var)) - _advantage(mom)


def delta_closed_form(code: KeyedCode, alphabet: SourceAlphabet) -> Scalar:
    """The eavesdropper's advantage, var(E[Y | bin]).

    With s1_j the centred first moment of bin j and m0_j its probability,

        advantage = sum_j s1_j^2 / m0_j

    over observable bins, summed from the pass's integers.  On a float
    input the result is float() of the exact sum, so it is never negative
    and never exceeds d_max, and a code whose bins are exactly balanced
    reads 0.
    """
    return _advantage(_bin_moments(code, alphabet))


def is_perfectly_secure(
    code: KeyedCode, alphabet: SourceAlphabet, tol: float = 1e-9
) -> bool:
    """True when every observable bin's posterior mean equals E[Y].

    Equal posterior means leave the eavesdropper's best estimate identical to
    her no-observation guess, i.e. advantage zero.  Float alphabets are
    allowed ``tol`` scaled by max(1, |E[Y]|), exact alphabets nothing; either
    way the test is made exactly, on the pass's integers.
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
    from the timed parts.  On floats d_max and delta are float() of their
    exact values, and d_ach = d_max - delta; as rounding is monotone,
    0 <= delta <= d_max holds on floats as on exact input, so d_ach is
    never negative.
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
    own scale (d_max and spread^2) so a float report does not flag
    rounding noise; on exact input the slack is carried as an exact Fraction.
    """
    mom = _bin_moments(code, alphabet)
    d_max = mom.var if mom.exact else float(mom.var)
    delta = _advantage(mom)
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
