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
prod_i m_i 2**k_i.  The test suite checks the results against an exact
enumeration of that product space.

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

from .analysis import DistortionReport, _BinMoments, _bin_moments
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


def _product_covariance(qs, cs) -> Scalar:
    """prod_i (q_i + c_i) - prod_i q_i, accumulated without the subtraction.

    D <- q_i D + c_i P and P <- (q_i + c_i) P keep D equal to the difference
    after every factor, so floats never cancel two large products.  The first
    factor sets D = c_1 outright: a q_1 that overflows is never multiplied by
    a zero D, so one source yields its c_1 whatever its mean.
    """
    d, p = cs[0], qs[0] + cs[0]
    for q, c in zip(qs[1:], cs[1:]):
        d, p = q * d + c * p, (q + c) * p
    return d


@dataclass(frozen=True)
class _Composition:
    """A separable function's moments under its system's codes.

    ``moments[l][i]`` is the bin-moment pass of table f_i^(l) under code i;
    ``mean`` is E[f], ``d_max`` is var(f) and ``delta`` is var(E[f | G]),
    capped at ``d_max`` so that float rounding never puts it above.
    """

    exact: bool
    moments: tuple[tuple[_BinMoments, ...], ...]
    mean: Scalar
    d_max: Scalar
    delta: Scalar

    def secure(self, tol: float) -> bool:
        """E[f | G] is constant: delta == 0 on the exact path; on floats its
        RMS gap sqrt(delta) within ``tol`` scaled by max(1, |E[f]|)."""
        if self.exact:
            return self.delta == 0
        return math.sqrt(max(self.delta, 0)) <= tol * max(1.0, abs(self.mean))


def _compose(system: JointSystem) -> _Composition:
    """One bin-moment pass per (term, source) pair, then the term-pair sums.

    For terms l, l' and source i let q_i = nu_i^l nu_i^l' be the product of
    the two factors' means.  Then cov(F_l, F_l') = prod_i (q_i + c_i) -
    prod_i q_i, where c_i is the covariance of f_i^(l)(X_i) and
    f_i^(l')(X_i) for var(f) (``_BinMoments.covariance``), and of their
    posterior means, sum_j s1_j^l s1_j^l' / m0_j, for var(E[f | G])
    (``_BinMoments.posterior_covariance``).
    """
    moments = tuple(
        tuple(
            _bin_moments(code, alphabet, term[i])
            for i, (code, alphabet) in enumerate(zip(system.codes, system.sources))
        )
        for term in system.function.components
    )
    d_max = delta = 0
    for row_a in moments:
        for row_b in moments:
            pairs = list(zip(row_a, row_b))
            qs = [ma.mean * mb.mean for ma, mb in pairs]
            d_max += _product_covariance(qs, [ma.covariance(mb) for ma, mb in pairs])
            delta += _product_covariance(
                qs, [ma.posterior_covariance(mb) for ma, mb in pairs]
            )
    mean = sum(math.prod(mom.mean for mom in row) for row in moments)
    exact = all(mom.exact for row in moments for mom in row)
    return _Composition(exact, moments, mean, d_max, min(delta, d_max))


def joint_distortion(system: JointSystem, tol: float = 1e-9) -> DistortionReport:
    """Distortion picture of the composed system, from per-source moments.

    Reports max distortion var(f), the eavesdropper's advantage
    var(E[f | G]) and her achievable distortion, their difference.  The
    single-source decay bounds do not speak about composed systems, so both
    bound flags and the spread are None.  The system is perfectly secure
    when the advantage is exactly zero; on floats when its root is within
    ``tol`` scaled by max(1, |E[f]|).
    """
    comp = _compose(system)
    return DistortionReport(
        d_max=comp.d_max,
        d_ach=comp.d_max - comp.delta,
        delta=comp.delta,
        spread=None,
        bound1_ok=None,
        bound2_ok=None,
        perfectly_secure=comp.secure(tol),
    )


def check_sufficiency(system: JointSystem, tol: float = 1e-9) -> bool:
    """True when every component table is perfectly secured by its code.

    The check is per component: term l's factor for source i must have equal
    posterior means under code i (constant factors pass trivially).  When it
    holds, the joint advantage computed from the same per-source moments
    must vanish (exactly, or on floats within ``tol`` scaled by
    max(1, |d_max|)); a nonzero value would contradict the factorization
    argument and raises RuntimeError.
    """
    comp = _compose(system)
    ok = all(mom.secure(tol) for row in comp.moments for mom in row)
    if ok:
        if comp.exact:
            breached = comp.delta != 0
        else:
            breached = abs(comp.delta) > tol * max(1.0, abs(comp.d_max))
        if breached:
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
    observation: tuple[int, ...] | None
    conditional_mean: Scalar | None
    function_mean: Scalar | None
    joint_delta: Scalar | None


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
    per-source moments.
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
            if mom.exact:
                zero = mom.mean == 0 or mom.var == 0
            else:
                # a variance is squared: its root is judged as secure() does
                limit = tol * max(1.0, abs(mom.mean))
                zero = abs(mom.mean) <= tol or math.sqrt(mom.var) <= limit
            if zero:
                return WitnessReport(
                    status="not-applicable",
                    observation=None,
                    conditional_mean=None,
                    function_mean=None,
                    joint_delta=None,
                )

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
        conditional_mean=conditional_mean,
        function_mean=comp.mean,
        joint_delta=comp.delta,
    )
