"""Monte Carlo cross-check of the analytic distortion numbers.

Draws (value, key) pairs, encodes them, lets the eavesdropper apply her
optimal estimator (the analytic posterior mean of the observed bin or bin
tuple), and averages the squared error.  The empirical figure must sit
within sampling error of the analytic achievable distortion; the acceptance
suite checks four standard errors.

RNG: NumPy's PCG64 via ``default_rng``, a named 64-bit generator with a
published reference implementation.  Trials are split into fixed blocks of
16384; block s is seeded with the pair (seed, s), and block sums are merged
with compensated summation (math.fsum).  The block layout is independent of
any worker count, so a seed fixes the report bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import _BinMoments
from .model import CapExceededError, KeyedCode, Scalar, SourceAlphabet
from .multisource import JointSystem, _compose, product_function

STREAM_TRIALS = 1 << 14
# About 20 s of sampling for one source at some 5e6 trials/s; a typo in
# --trials beyond it would cost hours.
MAX_TRIALS = 10**8


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.

    ``target`` is either a (code, alphabet) pair or a JointSystem.  More
    than MAX_TRIALS trials raise CapExceededError before anything is drawn.
    """

    trials: int
    seed: int
    target: tuple[KeyedCode, SourceAlphabet] | JointSystem

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.trials > MAX_TRIALS:
            raise CapExceededError(
                f"{self.trials} trials exceed the cap of {MAX_TRIALS}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SimReport:
    trials: int
    seed: int
    analytic_dach: Scalar
    empirical_dach: float
    stderr: float


def _stream_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, STREAM_TRIALS)
    return [STREAM_TRIALS] * full + ([rest] if rest else [])


def _estimates(moments: _BinMoments) -> np.ndarray:
    """Posterior mean per bin as floats, NaN for bins never observed."""
    import numpy as np

    return np.array(
        [float(mu) if mu is not None else np.nan for mu in moments.posterior_means()]
    )


def simulate(config: SimConfig) -> SimReport:
    """Run the trials and report empirical vs analytic distortion.

    A (code, alphabet) target is the one-source system whose function is the
    value itself.  Her estimate of f = sum_l prod_i f_i^(l)(X_i) given the
    bin tuple (g_1, ..., g_n) is sum_l prod_i E[f_i^(l)(X_i) | g_i], read
    from one posterior table per (term, source) pair, and the analytic
    figure is the composed d_max - delta, which is ``bound_report``'s d_ach
    on one source.

    ``stderr`` is the sample standard deviation of the per-trial squared
    errors divided by sqrt(trials); with her estimator fixed to the analytic
    posterior mean, the empirical mean is unbiased for the analytic value.
    """
    import numpy as np  # on use: it is most of the package's import time

    system = config.target
    if not isinstance(system, JointSystem):
        code, alphabet = system
        if code.m != alphabet.m:
            raise ValueError(f"alphabet has {alphabet.m} values, code expects {code.m}")
        system = JointSystem((alphabet,), (code,), product_function([alphabet.values]))
    comp = _compose(system)
    analytic = comp.d_max - comp.delta
    estimates = [[_estimates(mom) for mom in row] for row in comp.moments]
    pmfs = [np.array([float(p) for p in a.pmf]) for a in system.sources]
    pmfs = [p / p.sum() for p in pmfs]
    tables = [np.array(code.assignment) for code in system.codes]
    factors = [
        [np.array([float(t) for t in term[i]]) for i in range(system.n)]
        for term in system.function.components
    ]

    sums, squares = [], []
    for s, size in enumerate(_stream_sizes(config.trials)):
        rng = np.random.default_rng([config.seed, s])
        draws, bins = [], []
        for i, (alpha, code) in enumerate(zip(system.sources, system.codes)):
            vals = rng.choice(alpha.m, size=size, p=pmfs[i])
            keys = rng.integers(0, code.key_count, size=size)
            draws.append(vals)
            bins.append(tables[i][keys, vals])
        f = sum(math.prod(t[x] for t, x in zip(term, draws)) for term in factors)
        guess = sum(math.prod(e[g] for e, g in zip(row, bins)) for row in estimates)
        err = (f - guess) ** 2
        sums.append(float(err.sum()))
        squares.append(float((err * err).sum()))
    n = config.trials
    s1 = math.fsum(sums)
    s2 = math.fsum(squares)
    empirical = s1 / n
    var = max(s2 - s1 * s1 / n, 0.0) / max(n - 1, 1)
    return SimReport(
        trials=n,
        seed=config.seed,
        analytic_dach=analytic,
        empirical_dach=empirical,
        stderr=math.sqrt(var / n),
    )
