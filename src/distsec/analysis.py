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
each other; on the exact path it changes nothing.  The test suite checks the
moments against an independent enumeration of every (value, key) pair in
exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import KeyedCode, Scalar, SourceAlphabet, arithmetic_view, integer_view, is_exact


def _centre(table, pmf) -> tuple[Scalar, list, Scalar]:
    """The mean of ``table`` under ``pmf``, the table centred on it, and the
    variance sum_i p_i c_i^2 of the centred table."""
    mean = sum(p * t for p, t in zip(pmf, table))
    centred = [t - mean for t in table]
    return mean, centred, sum(p * c * c for p, c in zip(pmf, centred))


def max_distortion(alphabet: SourceAlphabet) -> Scalar:
    """Variance of the source value: the eavesdropper's loss when the code
    tells her nothing and she falls back to guessing the overall mean."""
    return _centre(*arithmetic_view(alphabet))[2]


@dataclass(frozen=True)
class _BinMoments:
    """Per-bin moments of a payoff t(X) under a uniformly random key.

    ``mean`` is E[t(X)] and ``var`` is var(t(X)); ``pmf`` and ``centred``
    list p_i and t_i - mean per value index i.  For bin j, ``m0[j]`` is
    p(bin j) and ``s1[j]`` is E[(t(X) - mean) 1{bin j}].  All are exact
    Fractions when the alphabet and the payoff are exact, and floats
    otherwise.
    """

    exact: bool
    mean: Scalar
    var: Scalar
    pmf: tuple[Scalar, ...]
    centred: tuple[Scalar, ...]
    m0: tuple[Scalar, ...]
    s1: tuple[Scalar, ...]

    def support(self) -> list[int]:
        return [j for j, w in enumerate(self.m0) if w > 0]

    def advantage(self) -> Scalar:
        """var(E[t | bin]) = sum_j s1_j^2 / m0_j, capped at ``var``: in the
        reals it never exceeds it, and on floats the two round differently,
        so the cap keeps 0 <= advantage <= var.  On the exact path the cap is
        an identity."""
        adv = sum(self.s1[j] * self.s1[j] / self.m0[j] for j in self.support())
        return min(adv, self.var)

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


def _bin_moments(code: KeyedCode, alphabet: SourceAlphabet, table=None) -> _BinMoments:
    """One pass over the assignment table, O(m 2**k).

    ``table[i]`` is the payoff of value index i; None means the value itself.
    Each (value, key) pair adds the value's weight p_i / 2**k and its centred
    first moment to the bin it lands in.  On the exact path both per-value
    terms are put over common denominators first, so the pass adds integers
    and divides once per bin at the end.
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
    mean, centred, var = _centre(table, pmf)
    weight = [p / code.key_count for p in pmf]
    terms = (weight, [w * c for w, c in zip(weight, centred)])
    (a0, d0), (a1, d1) = [integer_view(t) if exact else (t, 1) for t in terms]
    r = code.r
    m0, s1 = [0] * r, [0] * r
    # Value by value, so a bin's float sums do not depend on the key order.
    for v, column in enumerate(zip(*code.assignment)):
        w0, w1 = a0[v], a1[v]
        for b in column:
            m0[b] += w0
            s1[b] += w1
    if exact:
        m0 = [Fraction(x, d0) for x in m0]
        s1 = [Fraction(x, d1) for x in s1]
    return _BinMoments(exact, mean, var, tuple(pmf), tuple(centred), tuple(m0), tuple(s1))


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
