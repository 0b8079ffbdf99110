"""Exhaustive search for the code that minimizes the eavesdropper's advantage.

The advantage depends on a code only through its unordered bin contents, so
instead of walking per-key assignment tables the search walks binnings:
partitions of the multiset holding 2**k copies of every value index into bins
of at most 2**k elements.  The winning binning is completed to a decodable
code by proper edge coloring; the two views cover the same codes up to
relabeling of keys and bins, and the binning space is factorially smaller.

Partitions are generated as lexicographically sorted bin sequences (each bin
an ascending tuple, bins non-decreasing), which visits every partition
exactly once; the next bin always contains the smallest remaining index,
since any later bin containing it would sort in front.  A bin of n copies
with centred sum S scores S^2 / n.  Every alphabet, floats included (a float
is a binary rational), is scored in integers: with A_i / D the values over
their least common denominator, value i centred is (m A_i - sum_j A_j) / (m D)
and a bin scores (m D S)^2 (L // n) for L = lcm(1..2**k).  The walk divides
by L (m D)^2 once, at the end; a float alphabet reports float() of that.

Pruning (on by default) drops any partial partition with two bins of at most
2**(k-1) elements: two such bins can be merged into one legal bin, and
coarsening what the eavesdropper sees never increases her estimate's
accuracy, so some optimal binning always survives the rule.  Merging lowers
the bin count by one, so the rule applies only where the merged binning
stays in the requested range: always when its lower end is m (two light
bins force r > m), and otherwise only once the partial partition already
holds as many bins as that lower end.  The unpruned mode exists to test that
claim, not to find better codes.

Pruning also cuts by a bound.  With c copies still unplaced and R their
centred sum, Cauchy-Schwarz gives sum_j S_j^2 / n_j >= R^2 / c over the bins
still to come, so a child whose score plus R^2 / c reaches the incumbent's
score cannot lead to a strictly better leaf and is skipped; at an
incumbent of 0 every child is, and the walk ends.  The comparison is in
integers, so it is exact.  The unpruned mode applies no bound either: it
stays the exhaustive reference.

The search ranks binnings alone.  When r = m is in the requested range the
incumbent starts as the greedy code's binning, scored as the walk would
score it, and a leaf replaces the incumbent only with a strictly lower
score.  So the winner is the greedy code's binning when no binning scores
strictly lower, and otherwise the first optimal binning in walk order, the
lexicographically smallest one.  Only the winner is completed to a code.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .caps import MAX_K, MAX_M, MAX_UNPRUNED_COPIES, CapExceededError, check_construction
from .encoders import Binning, complete_key_assignment, greedy_code
from .model import KeyedCode, Scalar, SourceAlphabet, _centre_exact, frozen


@frozen
class StructureReport:
    """Shape properties expected of advantage-minimal codes, beyond the
    degree properties every KeyedCode enforces (one assignment per value
    and key, hence at most 2**k pairs per bin).

    at_most_one_light_bin: at most one nonempty bin holds <= 2**(k-1)
        elements (otherwise two light bins could be merged at no cost).
    bin_count_in_range: the nonempty bin count r satisfies m <= r < 2m
        (forced by the degree properties plus the light-bin rule).
    """

    at_most_one_light_bin: bool
    bin_count_in_range: bool


def verify_structure(code: KeyedCode) -> StructureReport:
    """Check a code against the structural fingerprint of optimal codes.

    Works from the assignment table alone.  Bin counts consider nonempty
    bins; declared-but-unused bins are unobservable and carry no structure.
    """
    load = [0] * code.r
    for row in code.assignment:
        for b in row:
            load[b] += 1
    nonempty = [n for n in load if n > 0]
    light = sum(1 for n in nonempty if 2 * n <= code.key_count)
    r = len(nonempty)
    return StructureReport(
        at_most_one_light_bin=light <= 1,
        bin_count_in_range=code.m <= r < 2 * code.m,
    )


@frozen
class SearchResult:
    """Outcome of a brute-force search.

    ``best_delta`` is exact (Fraction) for exact alphabets, and float() of
    the same exact optimum for float alphabets.
    ``candidates_examined`` counts the complete binnings the walk reaches;
    the greedy code's binning the walk starts from is not counted unless
    the walk reaches it.  ``pruned`` counts the subtrees cut by the
    light-bin rule, and ``bound_cuts`` the subtrees cut because their
    Cauchy-Schwarz lower bound reaches the incumbent's score (both zero
    when ``prune`` is off).
    """

    best_code: KeyedCode
    best_delta: Scalar
    candidates_examined: int
    pruned: int
    bound_cuts: int


def brute_force_optimal(
    alphabet: SourceAlphabet,
    k: int,
    r_range: tuple[int, int] | None = None,
    prune: bool = True,
    force: bool = False,
) -> SearchResult:
    """Minimize the eavesdropper's advantage over all decodable codes.

    Args:
        alphabet: must be uniform (the closed form the candidates are ranked
            by assumes it).
        k: key bits for every candidate.
        r_range: half-open (lo, hi) range of bin counts; None means (m, 2m),
            which is where minimal codes live.  Values of hi beyond 2m are
            legitimate in unpruned exploration.
        prune: apply the light-bin rule and the bound cut (default).
            Pruned and unpruned searches return the same best advantage for
            every r_range, because the light-bin rule cuts a second light
            bin only where merging two light bins keeps the bin count at or
            above the range's lower end.
        force: search beyond the caps m <= MAX_M and k <= MAX_K, and
            unpruned beyond m * 2**k <= MAX_UNPRUNED_COPIES.  The space
            grows factorially, so without it such instances raise
            CapExceededError.  Nothing lifts the construction cap: the
            winner's code holds m * 2**k (value, key) pairs, so a larger
            instance raises CapExceededError before the walk starts.

    Ties between equally good binnings go to the greedy code's binning when
    r = m is in range and no binning scores strictly lower, and otherwise to
    the lexicographically smallest optimal binning (bins sorted, contents
    ascending), making the result deterministic.
    """
    if k < 0:
        raise ValueError("key bit count must be >= 0")
    if not alphabet.is_uniform():
        raise ValueError("search requires a uniform alphabet")
    if (alphabet.m > MAX_M or k > MAX_K) and not force:
        raise CapExceededError(
            f"m={alphabet.m}, k={k} exceeds caps (max_m={MAX_M}, max_k={MAX_K}); "
            "pass force=True to search anyway"
        )
    m = alphabet.m
    cap = 2**k
    if not prune and m * cap > MAX_UNPRUNED_COPIES and not force:
        raise CapExceededError(
            f"m={m}, k={k} gives {m * cap} copies, above the unpruned cap of "
            f"{MAX_UNPRUNED_COPIES}; pass force=True to search anyway"
        )
    if r_range is None:
        r_range = (m, 2 * m)
    r_lo, r_hi = r_range
    if r_hi <= r_lo or r_hi <= m:
        raise ValueError(f"empty bin-count range {r_range} for m={m}")
    r_lo = max(r_lo, m)
    check_construction(m, k)

    # Ranked on values centred on their mean, value i being values[i] / denom
    # (the moment kernel's C_i over PD, with P = m under the uniform pmf):
    # they total 0, so for a complete binning (counts total m 2**k) the sum
    # of S_j^2 / n_j over centred bin sums is the advantage times m 2**k.
    _, _, values, denom, _, _ = _centre_exact(alphabet.values, alphabet)
    scale = lcm(*range(1, cap + 1))

    best = None  # (score, bins); only a strictly lower score replaces it
    if r_lo == m:
        held = [[] for _ in range(m)]
        for row in greedy_code(alphabet, k).assignment:
            for v, b in enumerate(row):
                held[b].append(v)
        start = tuple(sorted(tuple(sorted(content)) for content in held))
        q = sum(sum(values[v] for v in content) ** 2 for content in start)
        best = (q * (scale // cap), start)

    remaining = [cap] * m
    bins: list[tuple[int, ...]] = []
    examined = pruned = bound_cuts = 0

    def contents(grown: tuple[int, ...], s, prev: tuple[int, ...]):
        """Ascending tuples extending ``grown`` within the remaining counts,
        in lexicographic order and at least ``prev``, with their value sums."""
        if grown >= prev:
            yield grown, s
        if len(grown) == cap:
            return
        for v in range(grown[-1], m):
            nxt = grown + (v,)
            if remaining[v] >= nxt.count(v) and nxt >= prev[: len(nxt)]:
                yield from contents(nxt, s + values[v], prev)

    def walk(left: int, q, light: int, rest) -> None:
        nonlocal examined, pruned, bound_cuts, best
        if left == 0:
            if len(bins) < r_lo:
                return  # below the requested bin-count range
            examined += 1
            if best is None or q < best[0]:
                best = (q, tuple(bins))
            return
        if len(bins) >= r_hi - 1:
            return  # bin budget exhausted with copies still unplaced
        lowest = next(v for v in range(m) if remaining[v] > 0)
        prev = bins[-1] if bins else ()
        for content, s in contents((lowest,), values[lowest], prev):
            n = len(content)
            new_light = light + (1 if 2 * n <= cap else 0)
            if prune and new_light > 1 and (r_lo == m or len(bins) >= r_lo):
                pruned += 1
                continue
            if left - n > (r_hi - 1 - len(bins) - 1) * cap:
                continue  # remaining copies cannot fit behind this choice
            child = q + s * s * (scale // n)
            c, r = left - n, rest - s
            # the c unplaced copies, summing to r, add at least r^2 / c
            if prune and c and best is not None and c * child + r * r * scale >= c * best[0]:
                bound_cuts += 1
                continue
            for v in content:
                remaining[v] -= 1
            bins.append(content)
            walk(c, child, new_light, r)
            bins.pop()
            for v in content:
                remaining[v] += 1

    walk(m * cap, 0, 0, 0)
    if best is None:
        raise ValueError(f"no decodable code exists within bin-count range {r_range}")
    best_q, best_bins = best
    best_delta = Fraction(best_q, scale * denom * denom * cap * m)
    return SearchResult(
        best_code=complete_key_assignment(Binning(m=m, bins=best_bins), k),
        best_delta=best_delta if alphabet.exact else float(best_delta),
        candidates_examined=examined,
        pruned=pruned,
        bound_cuts=bound_cuts,
    )
