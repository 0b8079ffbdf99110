"""Composing independently keyed sources under one separable function.

A separable function is a sum of product terms, each factor touching one
source: f(x) = sum_l prod_i f_i^(l)(x_i).  Because the sources and their key
streams are independent, the eavesdropper's posterior over the joint value
factorizes across sources given her tuple of bin observations, so securing
every per-component table f_i^(l) under its own source's code secures f.
Necessity runs the other way only for restricted shapes (a pure sum of
per-source terms, or a single product term with nonzero component means and
variances), where an unsecured component can be steered into a concrete
observation tuple whose conditional mean moves off E[f].

``joint_distortion`` enumerates the full product space of joint values and
key tuples; it assumes no structure and anchors everything else here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .analysis import (
    DistortionReport,
    _BinMoments,
    _bin_moments,
    eve_posterior,
    table_posterior_means,
)
from .model import (
    CapExceededError,
    KeyedCode,
    Scalar,
    SourceAlphabet,
    arithmetic_view,
    is_exact,
)

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

    @property
    def exact(self) -> bool:
        return all(
            is_exact(t) for term in self.components for table in term for t in table
        )


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


def evaluate(function: SeparableFunction, joint_value) -> Scalar:
    """Evaluate the function at a tuple of per-source value indices."""
    joint_value = tuple(joint_value)
    if len(joint_value) != function.n:
        raise ValueError(
            f"joint value has {len(joint_value)} indices for n={function.n}"
        )
    for i, x in enumerate(joint_value):
        if not 0 <= x < len(function.components[0][i]):
            raise ValueError(f"source {i}: value index {x} out of range")
    total = 0
    for term in function.components:
        prod = 1
        for i, x in enumerate(joint_value):
            prod *= term[i][x]
        total += prod
    return total


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

    @property
    def exact(self) -> bool:
        return self.function.exact and all(a.exact for a in self.sources)

    def state_count(self) -> int:
        states = 1
        for alpha, code in zip(self.sources, self.codes):
            states *= alpha.m * code.key_count
        return states


def _lift_table(table, exact: bool):
    if exact:
        return tuple(Fraction(t) if isinstance(t, int) else t for t in table)
    return tuple(table)


def observation_moments(system: JointSystem, max_states: int = 1_000_000):
    """Per-observation moments of f over the full product space.

    Walks every (joint value, key tuple) pair and tallies, for each
    observation tuple g, the probability mass and the first two moments of
    f - E[f] restricted to it.  Centring on E[f] first keeps the float path
    from cancelling large offsets.  This is the one place product-space
    enumeration happens; the distortion report and the simulator's
    conditional-mean table both read from it.  Raises CapExceededError when
    the state space exceeds ``max_states``.

    Returns:
        (observations, moments, spread): the observable tuples in first-seen
        order, their moments in the same order, and max f - min f.
    """
    states = system.state_count()
    if states > max_states:
        raise CapExceededError(
            f"joint state space {states} exceeds cap {max_states}"
        )
    exact = system.exact
    pmfs = [arithmetic_view(a)[1] for a in system.sources]
    tables = [
        [_lift_table(term[i], exact) for i in range(system.n)]
        for term in system.function.components
    ]
    key_weight = Fraction(1) if exact else 1.0
    for code in system.codes:
        key_weight = key_weight / code.key_count
    f_mean = _function_mean(system)

    m0: dict = {}
    s1: dict = {}
    s2: dict = {}
    fmin = fmax = None
    for xs in product(*(range(a.m) for a in system.sources)):
        px = 1
        for i, x in enumerate(xs):
            px = px * pmfs[i][x]
        if px == 0:
            continue
        f = sum(
            _prod(term[i][x] for i, x in enumerate(xs)) for term in tables
        ) - f_mean
        if fmin is None or f < fmin:
            fmin = f
        if fmax is None or f > fmax:
            fmax = f
        w = px * key_weight
        per_source_bins = [
            [system.codes[i].assignment[key][x] for key in range(system.codes[i].key_count)]
            for i, x in enumerate(xs)
        ]
        for g in product(*per_source_bins):
            m0[g] = m0.get(g, 0) + w
            s1[g] = s1.get(g, 0) + w * f
            s2[g] = s2.get(g, 0) + w * f * f
    observations = list(m0)
    moments = _BinMoments(
        exact,
        f_mean,
        tuple(m0.values()),
        tuple(s1[g] for g in observations),
        tuple(s2[g] for g in observations),
    )
    return observations, moments, fmax - fmin


def joint_distortion(
    system: JointSystem, tol: float = 1e-9, max_states: int = 1_000_000
) -> DistortionReport:
    """Exact distortion picture of the composed system, by full enumeration.

    Reads off max distortion, the eavesdropper's achievable distortion, and
    her advantage from the per-observation moments.  The single-source decay
    bounds do not speak about composed systems, so both bound flags are
    None.  Raises CapExceededError when the product state space exceeds
    ``max_states``.
    """
    _, moments, spread = observation_moments(system, max_states)
    d_max = sum(moments.s2)
    delta = moments.advantage()
    return DistortionReport(
        d_max=d_max,
        d_ach=d_max - delta,
        delta=delta,
        spread=spread,
        bound1_ok=None,
        bound2_ok=None,
        perfectly_secure=moments.secure(tol),
    )


def _prod(it):
    out = 1
    for x in it:
        out = out * x
    return out


def joint_delta_factorized(system: JointSystem) -> Scalar:
    """The eavesdropper's advantage via per-source posteriors.

    Conditioned on her observation tuple, the sources stay independent, so
    E[f | g] = sum_l prod_i E[f_i^(l)(X_i) | g_i] with every factor a
    single-source posterior table mean.  The advantage is then the variance
    of E[f | g] over observation tuples.  This is the fast path; the test
    suite checks it against ``joint_distortion`` numerically.
    """
    exact = system.exact
    per_source_prob = []
    per_source_means = []  # [l][i] -> per-bin means
    overall = []  # [l][i] -> E[f_i^(l)]
    for l, term in enumerate(system.function.components):
        term_means = []
        term_overall = []
        for i in range(system.n):
            table = _lift_table(term[i], exact)
            mean, means = table_posterior_means(
                system.codes[i], system.sources[i], table
            )
            term_means.append(means)
            term_overall.append(mean)
        per_source_means.append(term_means)
        overall.append(term_overall)
    supports = []
    for i in range(system.n):
        post = eve_posterior(system.codes[i], system.sources[i])
        supports.append(post.support)
        per_source_prob.append(post.tau_prob)
    f_mean = sum(_prod(term) for term in overall)
    acc = 0
    for g in product(*supports):
        pg = _prod(per_source_prob[i][g[i]] for i in range(system.n))
        cond = sum(
            _prod(per_source_means[l][i][g[i]] for i in range(system.n))
            for l in range(system.function.L)
        )
        acc += pg * (cond - f_mean) * (cond - f_mean)
    return acc


def _component_secure(
    code: KeyedCode, alphabet: SourceAlphabet, table, tol: float
) -> bool:
    return _bin_moments(code, alphabet, table).secure(tol)


def check_sufficiency(system: JointSystem, tol: float = 1e-9) -> bool:
    """True when every component table is perfectly secured by its code.

    The check is per component: term l's factor for source i must have equal
    posterior means under code i (constant factors pass trivially).  When it
    holds and the state space fits the enumeration cap, the joint advantage
    is verified to vanish; a nonzero value would contradict the factorized
    posterior argument and raises RuntimeError.
    """
    ok = all(
        _component_secure(system.codes[i], system.sources[i], term[i], tol)
        for term in system.function.components
        for i in range(system.n)
    )
    if ok:
        try:
            report = joint_distortion(system, tol=tol)
        except CapExceededError:
            return ok
        if system.exact:
            breached = report.delta != 0
        else:
            breached = abs(report.delta) > tol * max(1.0, abs(report.d_max))
        if breached:
            raise RuntimeError(
                "all components secure but joint advantage is "
                f"{report.delta}; factorization invariant violated"
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
    system: JointSystem,
    unsecured_index: int,
    tol: float = 1e-9,
    max_states: int = 1_000_000,
) -> WitnessReport:
    """Exhibit an observation tuple proving the composed function leaks.

    Requires a pure-sum or pure-product function and an ``unsecured_index``
    whose component is in fact not perfectly secure (ValueError otherwise).
    For sums, every unsecured source contributes a bin whose posterior mean
    exceeds its component mean; secured sources contribute any bin.  For
    products the same with absolute values, valid when every component mean
    and variance is nonzero; otherwise returns status "not-applicable".
    The reported joint advantage comes from the full enumeration oracle.
    """
    fn = system.function
    if fn.form == "pure-sum":
        comp_tables = [fn.components[i][i] for i in range(system.n)]
    elif fn.form == "pure-product":
        comp_tables = [fn.components[0][i] for i in range(system.n)]
    else:
        raise ValueError("necessity witnesses exist for pure-sum and pure-product only")
    if not 0 <= unsecured_index < system.n:
        raise ValueError(f"unsecured_index {unsecured_index} outside [0, {system.n})")
    if _component_secure(
        system.codes[unsecured_index],
        system.sources[unsecured_index],
        comp_tables[unsecured_index],
        tol,
    ):
        raise ValueError(
            f"component {unsecured_index} is perfectly secure; no witness exists"
        )

    if fn.form == "pure-product":
        for i in range(system.n):
            exact = system.sources[i].exact and all(is_exact(t) for t in comp_tables[i])
            table = _lift_table(comp_tables[i], exact)
            _, pmf = arithmetic_view(system.sources[i])
            mean = sum(p * t for p, t in zip(pmf, table))
            var = sum(p * (t - mean) * (t - mean) for p, t in zip(pmf, table))
            zero = (mean == 0 or var == 0) if exact else (
                abs(mean) <= tol or abs(var) <= tol
            )
            if zero:
                return WitnessReport(
                    status="not-applicable",
                    observation=None,
                    conditional_mean=None,
                    function_mean=None,
                    joint_delta=None,
                )

    observation = []
    for i in range(system.n):
        exact = system.sources[i].exact and all(is_exact(t) for t in comp_tables[i])
        table = _lift_table(comp_tables[i], exact)
        overall, means = table_posterior_means(system.codes[i], system.sources[i], table)
        if _component_secure(system.codes[i], system.sources[i], comp_tables[i], tol):
            pick = next(j for j, mu in enumerate(means) if mu is not None)
        elif fn.form == "pure-sum":
            pick = max(
                (j for j, mu in enumerate(means) if mu is not None),
                key=lambda j: means[j],
            )
        else:
            pick = max(
                (j for j, mu in enumerate(means) if mu is not None),
                key=lambda j: abs(means[j]),
            )
        observation.append(pick)
    observation = tuple(observation)

    # Conditional mean at the chosen tuple, from the raw joint enumeration.
    report = joint_distortion(system, tol=tol, max_states=max_states)
    cond = _conditional_mean_at(system, observation)
    f_mean = _function_mean(system)
    return WitnessReport(
        status="found",
        observation=observation,
        conditional_mean=cond,
        function_mean=f_mean,
        joint_delta=report.delta,
    )


def _function_mean(system: JointSystem) -> Scalar:
    exact = system.exact
    total = 0
    for term in system.function.components:
        prod = 1
        for i in range(system.n):
            _, pmf = arithmetic_view(system.sources[i])
            table = _lift_table(term[i], exact)
            prod *= sum(p * t for p, t in zip(pmf, table))
        total += prod
    return total


def _conditional_mean_at(system: JointSystem, observation: tuple[int, ...]) -> Scalar:
    """E[f | g] at one tuple, accumulated directly from (value, key) pairs."""
    exact = system.exact
    pmfs = [arithmetic_view(a)[1] for a in system.sources]
    tables = [
        [_lift_table(term[i], exact) for i in range(system.n)]
        for term in system.function.components
    ]
    w_total = 0
    acc = 0
    for xs in product(*(range(a.m) for a in system.sources)):
        px = _prod(pmfs[i][x] for i, x in enumerate(xs))
        if px == 0:
            continue
        hits = 1
        for i, x in enumerate(xs):
            code = system.codes[i]
            count = sum(
                1
                for key in range(code.key_count)
                if code.assignment[key][x] == observation[i]
            )
            hits *= count
            if not count:
                break
        if not hits:
            continue
        w = px * hits
        f = sum(_prod(term[i][x] for i, x in enumerate(xs)) for term in tables)
        w_total += w
        acc += w * f
    if w_total == 0:
        raise ValueError(f"observation {observation} has probability zero")
    return acc / w_total
