"""Composing independently keyed sources under one separable function.

A separable function is a sum of product terms, each factor touching one
source: f(x) = sum_l prod_i f_i^(l)(x_i).  The sources are independent and so
are their key streams, so the eavesdropper's bin observations G_i are
independent across sources as well, and every moment of f splits into
per-source moments.  With F_l = prod_i f_i^(l)(X_i) the l-th term and
mu_i^(l)(g) = E[f_i^(l)(X_i) | G_i = g] a single-source posterior mean,

    E[F_l F_l']              = prod_i E[f_i^(l) f_i^(l')]
    E[E[F_l|G] E[F_l'|G]]    = prod_i E[mu_i^(l)(G_i) mu_i^(l')(G_i)]
    E[f | G = (g_1, ..., g_n)] = sum_l prod_i mu_i^(l)(g_i).

So a composed system is analysed from one bin-moment pass per (term, source)
pair, in O(L^2 sum_i m_i 2**k_i) time, whatever its joint state count
prod_i m_i 2**k_i, combining them exactly and rounding once.  The test suite
checks the results against an exact enumeration of that product space.

Securing every per-component table f_i^(l) under its own source's code
secures f: each mu_i^(l) is then constant, and so is E[f | G].  Necessity
runs the other way only for restricted shapes (a pure sum of per-source
terms, or a single product term with nonzero component means and
variances), where an unsecured component can be steered into a concrete
observation tuple whose conditional mean moves off E[f].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import DistortionReport, _BinMoments, _bin_moments, _limit, _rounded
from .model import KeyedCode, Scalar, SourceAlphabet

FORMS = ("general-sum-of-products", "pure-sum", "pure-product")


@dataclass(frozen=True)
class SeparableFunction:
    """Sum-of-products function table.

    ``components[l][i][x]`` is factor i of term l evaluated at value index x
    of source i (indices follow each alphabet's descending value order, the
    same order codes use).  ``form`` is a structural claim checked at
    construction: "pure-sum" requires one term per source with every
    off-diagonal factor constant 1, "pure-product" requires a single term.
    """

    n: int
    components: tuple[tuple[tuple[Scalar, ...], ...], ...]
    form: str = "general-sum-of-products"

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}, expected one of {FORMS}")
        if self.n < 1:
            raise ValueError("need at least one source")
        if not self.components:
            raise ValueError("need at least one term")
        for l, term in enumerate(self.components):
            if len(term) != self.n:
                raise ValueError(f"term {l} has {len(term)} factors for n={self.n}")
            for i, table in enumerate(term):
                if len(table) != len(self.components[0][i]):
                    raise ValueError(
                        f"term {l}, source {i}: table length differs across terms"
                    )
                if not table:
                    raise ValueError(f"term {l}, source {i}: empty table")
        if self.form == "pure-sum":
            if self.L != self.n:
                raise ValueError("pure-sum needs exactly one term per source")
            for l, term in enumerate(self.components):
                for i, table in enumerate(term):
                    if i != l and any(t != 1 for t in table):
                        raise ValueError(
                            f"pure-sum term {l} touches source {i}; "
                            "off-diagonal factors must be constant 1"
                        )
        if self.form == "pure-product" and self.L != 1:
            raise ValueError("pure-product needs exactly one term")

    @property
    def L(self) -> int:
        return len(self.components)


def sum_function(tables) -> SeparableFunction:
    """f(x) = sum_i t_i(x_i) as a pure-sum separable function."""
    tables = [tuple(t) for t in tables]
    n = len(tables)
    components = tuple(
        tuple(tables[l] if i == l else (1,) * len(tables[i]) for i in range(n))
        for l in range(n)
    )
    return SeparableFunction(n=n, components=components, form="pure-sum")


def product_function(tables) -> SeparableFunction:
    """f(x) = prod_i t_i(x_i) as a pure-product separable function."""
    tables = tuple(tuple(t) for t in tables)
    return SeparableFunction(n=len(tables), components=(tables,), form="pure-product")


@dataclass(frozen=True)
class JointSystem:
    """Independent sources, one keyed code each, and a separable function."""

    sources: tuple[SourceAlphabet, ...]
    codes: tuple[KeyedCode, ...]
    function: SeparableFunction

    def __post_init__(self):
        n = self.function.n
        if len(self.sources) != n or len(self.codes) != n:
            raise ValueError(
                f"function touches {n} sources, got {len(self.sources)} alphabets "
                f"and {len(self.codes)} codes"
            )
        for i, (alpha, code) in enumerate(zip(self.sources, self.codes)):
            if code.m != alpha.m:
                raise ValueError(
                    f"source {i}: alphabet has {alpha.m} values, code expects {code.m}"
                )
            if len(self.function.components[0][i]) != alpha.m:
                raise ValueError(
                    f"source {i}: function tables have "
                    f"{len(self.function.components[0][i])} entries for {alpha.m} values"
                )

    @property
    def n(self) -> int:
        return self.function.n

    @property
    def total_key_bits(self) -> int:
        return sum(code.k for code in self.codes)

    def state_count(self) -> int:
        """prod_i m_i 2**k_i, the joint states; ``bench/spans.py`` counts them."""
        states = 1
        for alpha, code in zip(self.sources, self.codes):
            states *= alpha.m * code.key_count
        return states


@dataclass(frozen=True)
class _Composition:
    """A separable function's moments under its system's codes.

    ``moments[l][i]`` is the bin-moment pass of table f_i^(l) under code i;
    ``mean`` is E[f], ``d_max`` is var(f) and ``delta`` is var(E[f | G]),
    each float() of its exact value on a float system.
    """

    exact: bool
    moments: tuple[tuple[_BinMoments, ...], ...]
    mean: Scalar
    d_max: Scalar
    delta: Scalar


def _compose(system: JointSystem) -> _Composition:
    """One bin-moment pass per (term, source) pair, then the term-pair sums
    of their exact moments, each result rounded once on a float input
    (OverflowError if no float holds one).

    For terms l, l' and source i let q_i = nu_i^l nu_i^l' be the product of
    the two factors' means.  Then E[F_l F_l'] = prod_i (q_i + c_i), where
    c_i is the covariance of f_i^(l)(X_i) and f_i^(l')(X_i)
    (``_BinMoments.covariance``), and var(f) is their sum over term pairs
    less E[f]^2.  var(E[f | G]) is the same with c_i the covariance of the
    posterior means; ``_BinMoments.posterior_covariance`` bounds each c_i by
    [lo_i, hi_i], so the products of the intervals q_i + [lo_i, hi_i] bound
    it, and ``_rounded`` narrows them until its float is settled.
    """
    moments = tuple(
        tuple(
            _bin_moments(code, alphabet, term[i])
            for i, (code, alphabet) in enumerate(zip(system.codes, system.sources))
        )
        for term in system.function.components
    )
    exact = all(mom.exact for row in moments for mom in row)
    mean = sum(math.prod(mom.mean for mom in row) for row in moments)
    pairs = [list(zip(row_a, row_b)) for row_a in moments for row_b in moments]
    second = sum(math.prod(a.mean * b.mean + a.covariance(b) for a, b in pair) for pair in pairs)

    def bounds(p):
        lo = hi = -mean * mean
        for pair in pairs:
            x = y = 1
            for a, b in pair:
                q = a.mean * b.mean
                c_lo, c_hi = a.posterior_covariance(b, p)
                ends = (x * (q + c_lo), x * (q + c_hi), y * (q + c_lo), y * (q + c_hi))
                x, y = min(ends), max(ends)
            lo, hi = lo + x, hi + y
        return lo, hi

    rounded = (x if exact else float(x) for x in (mean, second - mean * mean))
    return _Composition(exact, moments, *rounded, _rounded(exact, bounds))


def joint_distortion(system: JointSystem, tol: float = 1e-9) -> DistortionReport:
    """Distortion picture of the composed system, from per-source moments.

    Reports max distortion var(f), the eavesdropper's advantage
    var(E[f | G]) and her achievable distortion, their difference.  On a
    float system the first two are formed exactly and rounded once.  The
    single-source decay bounds do not speak about composed systems, so both
    bound flags and the spread are None.  The system is perfectly secure
    when the advantage is exactly zero; on floats when its root, the RMS
    gap between E[f | G] and E[f], is within ``tol`` scaled by
    max(1, |E[f]|), compared exactly as delta <= limit^2.
    """
    comp = _compose(system)
    return DistortionReport(
        d_max=comp.d_max,
        d_ach=comp.d_max - comp.delta,
        delta=comp.delta,
        spread=None,
        bound1_ok=None,
        bound2_ok=None,
        perfectly_secure=comp.delta <= _limit(comp.exact, tol, comp.mean) ** 2,
    )


def check_sufficiency(system: JointSystem, tol: float = 1e-9) -> bool:
    """True when every component table is perfectly secured by its code.

    The check is per component: term l's factor for source i must have equal
    posterior means under code i (constant factors pass trivially).  When it
    holds, the joint advantage computed from the same per-source moments
    must vanish: within ``tol`` scaled by max(1, |d_max|), a limit of 0 on
    an exact input.  A larger value would contradict the factorization
    argument and raises RuntimeError.
    """
    comp = _compose(system)
    ok = all(mom.secure(tol) for row in comp.moments for mom in row)
    if ok and abs(comp.delta) > _limit(comp.exact, tol, comp.d_max):
        raise RuntimeError(
            "all components secure but joint advantage is "
            f"{comp.delta}; factorization invariant violated"
        )
    return ok


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a necessity probe.

    status "found" carries a concrete observation tuple whose conditional
    mean differs from E[f], plus the positive joint advantage; status
    "not-applicable" means the pure-product side condition (every component
    mean and variance nonzero) failed, where no witness is guaranteed.
    """

    status: str
    observation: tuple[int, ...] | None = None
    conditional_mean: Scalar | None = None
    function_mean: Scalar | None = None
    joint_delta: Scalar | None = None


def necessity_witness(
    system: JointSystem, unsecured_index: int, tol: float = 1e-9
) -> WitnessReport:
    """Exhibit an observation tuple proving the composed function leaks.

    Requires a pure-sum or pure-product function and an ``unsecured_index``
    whose component is in fact not perfectly secure (ValueError otherwise).
    For sums, every unsecured source contributes a bin whose posterior mean
    exceeds its component mean; secured sources contribute any bin.  For
    products the same with absolute values, valid when every component mean
    and variance is nonzero; otherwise returns status "not-applicable".
    The tuple's conditional mean sum_l prod_i mu_i^(l)(g_i), the function
    mean sum_l prod_i E[f_i^(l)] and the joint advantage all come from the
    per-source moments, formed exactly and rounded once on a float system.
    """
    fn = system.function
    if fn.form not in ("pure-sum", "pure-product"):
        raise ValueError("necessity witnesses exist for pure-sum and pure-product only")
    if not 0 <= unsecured_index < system.n:
        raise ValueError(f"unsecured_index {unsecured_index} outside [0, {system.n})")
    comp = _compose(system)
    if fn.form == "pure-sum":
        components = [comp.moments[i][i] for i in range(system.n)]
    else:
        components = list(comp.moments[0])
    if components[unsecured_index].secure(tol):
        raise ValueError(
            f"component {unsecured_index} is perfectly secure; no witness exists"
        )

    if fn.form == "pure-product":
        for mom in components:
            # A mean within tol of 0, or a variance whose root is within the
            # limit secure() judges by; both limits are 0 on an exact input.
            limit = _limit(mom.exact, tol, mom.mean)
            if abs(mom.mean) <= _limit(mom.exact, tol, 0) or mom.var <= limit * limit:
                return WitnessReport(status="not-applicable")

    observation = []
    for mom in components:
        means = mom.posterior_means()
        support = mom.support()
        if mom.secure(tol):
            pick = support[0]
        elif fn.form == "pure-sum":
            pick = max(support, key=lambda j: means[j])
        else:
            pick = max(support, key=lambda j: abs(means[j]))
        observation.append(pick)
    observation = tuple(observation)
    conditional_mean = sum(
        math.prod(mom.posterior_means()[g] for mom, g in zip(row, observation))
        for row in comp.moments
    )
    return WitnessReport(
        status="found",
        observation=observation,
        conditional_mean=conditional_mean if comp.exact else float(conditional_mean),
        function_mean=comp.mean,
        joint_delta=comp.delta,
    )
