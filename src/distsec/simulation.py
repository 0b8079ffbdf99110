"""Monte Carlo cross-check of the analytic distortion numbers.

Draws (value, key) pairs, encodes them, lets the eavesdropper apply her
optimal estimator (the analytic posterior mean of the observed bin or bin
tuple), and averages the squared error.  The empirical figure must sit
within sampling error of the analytic achievable distortion; the acceptance
suite checks four standard errors.

Cells.  A source's cell is a (key, value) pair, of probability
pmf[x] / 2**k; cells of probability zero are left out.  Consecutive sources
fold into one table of joint cells while it holds at most FOLD_CELLS cells.
Each joint cell carries, per term, the product of its sources' function
factors and of their posterior means, so a trial is a few lookups; with a
single table it is one lookup of the cell's precomputed squared error.

Draws.  Only ``random.Random(...).random()`` is used: Python keeps its
sequence for a seed the same in every release.  Trials are split into
fixed blocks of 16384, and block s draws from ``Random(seed << 32 | s)``.
A table draws its cell as one independent draw per group: consecutive
sources join a group while all its cell probabilities stay whole
multiples of 1 / B for some B <= FOLD_CELLS, and a source that cannot
join starts the next group.  Trial i of a block takes numbers
i*G ... i*G + G - 1 for the G groups of the system, in source order, and
a group maps its number u by inverse CDF over its cells, joint cells
x major:

- all n cells equally likely: cell int(u * n);
- probabilities p_j whole multiples of 1 / B, B <= FOLD_CELLS: the cell
  that owns bucket int(u * B), cell j owning p_j * B buckets in order;
- otherwise the first cell whose cumulative probability, rounded to a
  float, exceeds u; the last one is exactly 1, so u never passes the last
  cell, which is where ``random.choices`` clamps.

Block sums are plain sums, merged across blocks with compensated summation
(math.fsum); the spread sums are of each error's deviation from the
analytic figure.  The block layout is independent of any worker count, so a
seed fixes the report bit for bit.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect
from functools import partial, reduce
from itertools import accumulate, chain, islice, repeat, starmap
from operator import add, mul, sub
from random import Random

from .model import CapExceededError, KeyedCode, Scalar, SourceAlphabet, frozen
from .multisource import JointSystem, _compose, product_function

STREAM_TRIALS = 1 << 14
# The most cells a table folds and the most buckets a group's lookup holds.
# A table's cells are built once and kept, and each source folded in saves
# lookups per trial; 2**16 folds the composed bench systems of up to 36864
# cells into one table in a few megabytes.
FOLD_CELLS = 1 << 16
# About 26 s of sampling for a small source and 80 s for a four-source
# product of 786432 joint states; a typo in --trials beyond it would cost
# hours.
MAX_TRIALS = 10**8


@frozen
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


@frozen
class SimReport:
    trials: int
    seed: int
    analytic_dach: Scalar
    empirical_dach: float
    stderr: float


def _stream_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, STREAM_TRIALS)
    return [STREAM_TRIALS] * full + ([rest] if rest else [])


def _outer(xs, ys) -> list:
    """x * y for every pair, x major: a column of two folded tables."""
    return [x * y for x in xs for y in ys]


def _source(alphabet: SourceAlphabet, code: KeyedCode, factors, means):
    """A source's cells of positive probability, key major.

    Returns the cells' group, (integer weights proportional to their
    probabilities, B) with every probability a whole multiple of 1 / B, and
    per term the cells' function factors and posterior-mean factors.
    """
    nums, _ = alphabet.weights
    cells = [(x, g) for row in code.assignment for x, g in enumerate(row) if nums[x]]
    weights = [nums[x] for x, _ in cells]
    return (
        (weights, sum(weights) // math.gcd(*weights)),
        [[float(t[x]) for x, _ in cells] for t in factors],
        [[mu[g] for _, g in cells] for mu in means],
    )


def _drawer(weights, buckets):
    """uniforms -> the cells they draw by inverse CDF, lazily."""
    n = len(weights)
    if buckets > FOLD_CELLS and buckets != n:
        # Cumulative probabilities, each rounded once; the last is exactly
        # 1, above every u, so no draw passes the last cell.
        total = sum(weights)
        cum = [c / total for c in accumulate(weights)]
        return lambda us: map(bisect, repeat(cum), us)
    scale = float(buckets)

    def buckets_of(us):
        return map(math.floor, map(mul, us, repeat(scale)))

    if buckets == n:
        return buckets_of
    unit = math.gcd(*weights)
    owner = list(chain.from_iterable(map(repeat, range(n), [w // unit for w in weights])))
    return lambda us: map(owner.__getitem__, buckets_of(us))


class _Table:
    """Consecutive sources folded into one table of joint cells, x major.

    ``f[l]`` and ``est[l]`` list term l's function factor and posterior-mean
    factor over the table's sources, per cell.  ``groups`` are the runs of
    sources that draw together (see the module notes), each as its
    (weights, B).
    """

    def __init__(self, group, f, est):
        self.size = len(group[0])
        self.groups, self.f, self.est = [group], f, est

    def fold(self, group, f, est) -> None:
        self.size *= len(group[0])
        self.f = list(map(_outer, self.f, f))
        self.est = list(map(_outer, self.est, est))
        weights, buckets = self.groups[-1]
        if buckets * group[1] <= FOLD_CELLS:
            self.groups[-1] = (_outer(weights, group[0]), buckets * group[1])
        else:
            self.groups.append(group)

    def picker(self, column=None):
        """(uniforms per group) -> ``column`` at the drawn cells (the cells
        themselves when ``column`` is None), lazily."""
        draws = [_drawer(*g) for g in self.groups]
        strides, stride = [], self.size
        for weights, _ in self.groups:
            stride //= len(weights)
            strides.append(stride)

        def pick(uss):
            cells = reduce(partial(map, add), (
                map(mul, draw(us), repeat(stride)) if stride > 1 else draw(us)
                for draw, us, stride in zip(draws, uss, strides)
            ))
            return cells if column is None else map(column.__getitem__, cells)

        return pick


def _tables(system: JointSystem) -> tuple[Scalar, list[_Table]]:
    """The analytic achievable distortion and the system's tables."""
    comp = _compose(system)
    terms = system.function.components
    tables = []
    for i, (alphabet, code) in enumerate(zip(system.sources, system.codes)):
        group, f, est = _source(
            alphabet,
            code,
            [term[i] for term in terms],
            [[math.nan if mu is None else float(mu) for mu in row[i].posterior_means()]
             for row in comp.moments],
        )
        if tables and tables[-1].size * len(group[0]) <= FOLD_CELLS:
            tables[-1].fold(group, f, est)
        else:
            tables.append(_Table(group, f, est))
    return comp.d_max - comp.delta, tables


def _errors(tables: list[_Table]):
    """(uniforms per group) -> the trials' squared errors."""
    if len(tables) == 1:
        (t,) = tables
        e = map(sub, reduce(partial(map, add), t.f), reduce(partial(map, add), t.est))
        pick = t.picker(array("d", [x * x for x in e]))
        return lambda uss: list(pick(uss))

    picks = [(t.picker(), len(t.groups)) for t in tables]
    f_terms = list(zip(*(t.f for t in tables)))
    est_terms = list(zip(*(t.est for t in tables)))

    def product(columns, cells):
        return reduce(partial(map, mul), map(map, [c.__getitem__ for c in columns], cells))

    def errors(uss):
        uss = iter(uss)
        cells = [list(pick(list(islice(uss, k)))) for pick, k in picks]
        f = reduce(partial(map, add), (product(cols, cells) for cols in f_terms))
        est = reduce(partial(map, add), (product(cols, cells) for cols in est_terms))
        e = list(map(sub, f, est))
        return list(map(mul, e, e))

    return errors


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
    system = config.target
    if not isinstance(system, JointSystem):
        code, alphabet = system
        if code.m != alphabet.m:
            raise ValueError(f"alphabet has {alphabet.m} values, code expects {code.m}")
        system = JointSystem((alphabet,), (code,), product_function([alphabet.values]))
    analytic, tables = _tables(system)
    groups = sum(len(t.groups) for t in tables)
    errors = _errors(tables)
    del tables  # the per-term columns: only what ``errors`` reads stays

    # The spread is summed about a fixed shift near the mean: on errors near
    # 1e16, sum(e^2) - sum(e)^2 / n cancels to nothing.
    shift = float(analytic)
    sums, dev_sums, dev_squares = [], [], []
    for s, size in enumerate(_stream_sizes(config.trials)):
        draw = Random(config.seed << 32 | s).random
        us = list(starmap(draw, repeat((), size * groups)))
        err = errors([us[g::groups] for g in range(groups)])
        dev = list(map(sub, err, repeat(shift)))
        sums.append(sum(err))
        dev_sums.append(sum(dev))
        dev_squares.append(sum(map(mul, dev, dev)))
    n = config.trials
    d1 = math.fsum(dev_sums)
    empirical = math.fsum(sums) / n
    var = max(math.fsum(dev_squares) - d1 * d1 / n, 0.0) / max(n - 1, 1)
    return SimReport(
        trials=n,
        seed=config.seed,
        analytic_dach=analytic,
        empirical_dach=empirical,
        stderr=math.sqrt(var / n),
    )
