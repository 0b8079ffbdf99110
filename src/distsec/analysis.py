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
mean.  Centring keeps the float path from cancelling large offsets against
each other.  The exact path puts the pmf and the payoff over common
denominators first, so the pass and the verdicts add and compare integers
and a Fraction is formed only for a reported number.  The test suite checks the
moments against an independent enumeration of every (value, key) pair in
exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .model import KeyedCode, Scalar, SourceAlphabet, integer_view, is_exact


def _centre(table, pmf) -> tuple[Scalar, list, Scalar]:
    """The mean of ``table`` under ``pmf``, the table centred on it, and the
    variance sum_i p_i c_i^2 of the centred table."""
    mean = sum(p * t for p, t in zip(pmf, table))
    centred = [t - mean for t in table]
    return mean, centred, sum(p * c * c for p, c in zip(pmf, centred))


def _centre_exact(table, pmf) -> tuple[list[int], int, list[int], int, Fraction, Fraction]:
    """``_centre`` in integers, for an exact table and pmf.

    With the pmf over its common denominator P (numerators b_i) and the
    table over its own, D (numerators A_i), S = sum_i b_i A_i and the
    centred numerators C_i = P A_i - S put t_i - mean over PD.  Returns b,
    P, C, PD, the mean S / PD and the variance sum_i b_i C_i^2 / (P (PD)^2).
    """
    b, p = integer_view(pmf)
    a, d = integer_view(table)
    s = sum(x * y for x, y in zip(b, a))
    c = [p * y - s for y in a]
    pd = p * d
    return b, p, c, pd, Fraction(s, pd), Fraction(sum(x * y * y for x, y in zip(b, c)), p * pd * pd)


def max_distortion(alphabet: SourceAlphabet) -> Scalar:
    """Variance of the source value: the eavesdropper's loss when the code
    tells her nothing and she falls back to guessing the overall mean."""
    if alphabet.exact:
        return _centre_exact(alphabet.values, alphabet.pmf)[5]
    # In floats throughout, as the moment pass works: an int value times a
    # Fraction pmf entry would stay exact and round apart from the rest.
    return _centre([float(v) for v in alphabet.values], [float(p) for p in alphabet.pmf])[2]


@dataclass(frozen=True)
class _BinMoments:
    """Per-bin moments of a payoff t(X) under a uniformly random key.

    ``mean`` is E[t(X)] and ``var`` is var(t(X)).  ``pmf`` and ``centred``
    list p_i and t_i - mean per value index i; for bin j, ``m0[j]`` is
    p(bin j) and ``s1[j]`` is E[(t(X) - mean) 1{bin j}].

    The pass keeps those four lists as ``b``, ``c``, ``b0`` and ``b1``.  On
    floats they are the lists themselves.  On the exact path they are
    integer numerators: over P, PD, KP and KP * PD, with P = ``pden``, PD =
    ``cden`` and K = ``keys`` = 2**k, and ``mean`` and ``var`` are
    Fractions.  The sums and verdicts below read the integers; the four
    lists are formed as Fractions only when one is read.
    """

    exact: bool
    mean: Scalar
    var: Scalar
    b: tuple
    c: tuple
    b0: tuple
    b1: tuple
    keys: int = 1
    pden: int = 1
    cden: int = 1

    def _over(self, nums, den) -> tuple:
        return tuple(Fraction(x, den) for x in nums) if self.exact else nums

    @cached_property
    def pmf(self) -> tuple:
        return self._over(self.b, self.pden)

    @cached_property
    def centred(self) -> tuple:
        return self._over(self.c, self.cden)

    @cached_property
    def m0(self) -> tuple:
        return self._over(self.b0, self.keys * self.pden)

    @cached_property
    def s1(self) -> tuple:
        return self._over(self.b1, self.keys * self.pden * self.cden)

    def support(self) -> list[int]:
        return [j for j, w in enumerate(self.b0) if w > 0]

    def covariance(self, other: _BinMoments) -> Scalar:
        """cov(t(X), u(X)) = sum_i p_i c_i c'_i, for ``other`` the pass of a
        payoff u over the same alphabet."""
        if self.exact and other.exact:
            total = sum(x * y * z for x, y, z in zip(self.b, self.c, other.c))
            return Fraction(total, self.pden * self.cden * other.cden)
        return sum(p * u * v for p, u, v in zip(self.pmf, self.centred, other.centred))

    def posterior_covariance(self, other: _BinMoments) -> Scalar:
        """cov(E[t | bin], E[u | bin]) = sum_j s1_j s1'_j / m0_j over
        observable bins, for ``other`` the pass of a payoff u under the same
        code and alphabet.  In integers that is sum_j B1_j B1'_j / B0_j over
        K P (PD)(PD)'; the bins are grouped by B0_j first, so one Fraction
        is formed per distinct bin mass."""
        if self.exact and other.exact:
            groups: dict[int, int] = {}
            for w, x, y in zip(self.b0, self.b1, other.b1):
                if w:
                    groups[w] = groups.get(w, 0) + x * y
            total = sum((Fraction(t, w) for w, t in groups.items()), Fraction(0))
            return total / (self.keys * self.pden * self.cden * other.cden)
        s1, t1, m0 = self.s1, other.s1, self.m0
        return sum(s1[j] * t1[j] / m0[j] for j in self.support())

    def advantage(self) -> Scalar:
        """var(E[t | bin]) = sum_j s1_j^2 / m0_j, capped at ``var``: in the
        reals it never exceeds it, and on floats the two round differently,
        so the cap keeps 0 <= advantage <= var.  On the exact path the cap is
        an identity."""
        return min(self.posterior_covariance(self), self.var)

    def posterior_means(self) -> tuple[Scalar | None, ...]:
        if self.exact:
            # s1_j / m0_j = B1_j / (B0_j PD)
            return tuple(
                self.mean + Fraction(x, w * self.cden) if w > 0 else None
                for w, x in zip(self.b0, self.b1)
            )
        return tuple(
            self.mean + s / w if w > 0 else None for w, s in zip(self.m0, self.s1)
        )

    def secure(self, tol: float) -> bool:
        """Every observable bin's posterior mean equals the overall mean:
        exactly on the exact path, within ``tol`` scaled by max(1, |mean|)
        on floats."""
        if self.exact:
            # B1_j == 0 on every bin; an unobservable bin has B1_j == 0 too.
            return not any(self.b1)
        limit = tol * max(1.0, abs(self.mean))
        return all(abs(self.s1[j] / self.m0[j]) <= limit for j in self.support())


def _bin_moments(code: KeyedCode, alphabet: SourceAlphabet, table=None) -> _BinMoments:
    """One pass over the assignment table, O(m 2**k).

    ``table[i]`` is the payoff of value index i; None means the value itself.
    Each (value, key) pair adds the value's weight and its centred first
    moment to the bin it lands in.  On floats those are p_i / 2**k and
    p_i c_i / 2**k.  On the exact path they are the integers b_i and
    b_i C_i of ``_centre_exact``, so the pass adds integers alone: bin j
    gets B0_j = sum b_i and B1_j = sum b_i C_i over the pairs it receives,
    and the common denominators stay out of the pass (see ``_BinMoments``).
    """
    if alphabet.m != code.m:
        raise ValueError(f"alphabet has {alphabet.m} values, code expects {code.m}")
    if table is None:
        table = alphabet.values
    elif len(table) != code.m:
        raise ValueError(f"table has {len(table)} entries for {code.m} values")
    exact = alphabet.exact and all(is_exact(t) for t in table)
    if exact:
        b, pden, c, cden, mean, var = _centre_exact(table, alphabet.pmf)
        keys = code.key_count
        w0, w1 = b, [x * y for x, y in zip(b, c)]
    else:
        b = [float(p) for p in alphabet.pmf]
        mean, c, var = _centre([float(t) for t in table], b)
        keys = pden = cden = 1
        w0 = [p / code.key_count for p in b]
        w1 = [w * x for w, x in zip(w0, c)]
    r = code.r
    b0, b1 = [0] * r, [0] * r
    # Value by value, so a bin's float sums do not depend on the key order.
    for v, column in enumerate(zip(*code.assignment)):
        x0, x1 = w0[v], w1[v]
        for j in column:
            b0[j] += x0
            b1[j] += x1
    return _BinMoments(
        exact, mean, var, tuple(b), tuple(c), tuple(b0), tuple(b1), keys, pden, cden
    )


def achievable_distortion(code: KeyedCode, alphabet: SourceAlphabet) -> Scalar:
    """The eavesdropper's minimum expected squared error, E[var(Y | bin)].

    By the law of total variance it is d_max minus the advantage, and it is
    formed that way, with the advantage capped at d_max, so on floats it is
    never negative and equals ``bound_report``'s d_ach bit for bit.  On the
    exact path it is the sum over bins of the within-bin variance.
    """
    mom = _bin_moments(code, alphabet)
    return mom.var - mom.advantage()


def delta_closed_form(code: KeyedCode, alphabet: SourceAlphabet) -> Scalar:
    """The eavesdropper's advantage, var(E[Y | bin]).

    With s1_j the centred first moment of bin j and m0_j its probability,

        advantage = sum_j s1_j^2 / m0_j

    over observable bins.  The values are centred on E[Y] before they are
    summed, so no E[Y]^2 term is subtracted and the float result is never
    negative.  It is capped at d_max, the variance from the same pass, so
    0 <= delta <= d_max on floats as on exact input.
    """
    return _bin_moments(code, alphabet).advantage()


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
    d_max, delta = mom.var, mom.advantage()
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
