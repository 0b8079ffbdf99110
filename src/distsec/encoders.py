"""Code constructions: greedy balancing, random-partition-plus-exchange,
identity, and completion of a bare binning into a decodable keyed code.

Both constructions aim at the same target: spread each value's 2**k copies
over bins so every bin's value sum sits close to the common mean, because an
eavesdropper's best estimate inside a bin is the bin's mean and her squared
loss grows with how uneven the bin sums are.
"""

from __future__ import annotations

from bisect import insort
from random import Random

from .caps import check_construction
from .model import KeyedCode, SourceAlphabet, frozen, integer_view

_SWAP_LIMIT = 1_000_000


def _seeded_permutation(m: int, copies: int, seed: int) -> list[int]:
    """``copies`` copies of each of 0..m-1, in a seeded Fisher-Yates order.

    For i = n-1 down to 1, slot i swaps with slot j = int(u * (i + 1)), u
    the next ``random.Random(seed).random()``.  Python keeps that stream
    fixed for a given seed across releases; it promises no such thing for
    ``shuffle`` or ``getrandbits``, so neither is used.  Each u is a multiple
    of 2**-53, so for n <= 2**32 every j has probability within a factor
    1 ± 2**-21 of 1 / (i + 1).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = m * copies
    if n > 1 << 32:
        raise ValueError(f"{n} copies exceed the 2**32 the seeded shuffle supports")
    items = [v for v in range(m) for _ in range(copies)]
    draw = Random(seed).random
    for i in range(n - 1, 0, -1):
        j = int(draw() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


@frozen
class Binning:
    """Bin contents without a key assignment.

    ``bins[j]`` holds the value indices placed in bin j, ascending, with
    multiplicity: the same index appearing twice means two of that value's
    copies share the bin.  A binning fixes everything the eavesdropper can
    see; turning it into a decodable code is a separate completion step.
    """

    m: int
    bins: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one value")
        for j, content in enumerate(self.bins):
            if not content:
                raise ValueError(f"bin {j} is empty")
            if list(content) != sorted(content):
                raise ValueError(f"bin {j} contents must be sorted ascending")
            for v in content:
                if not 0 <= v < self.m:
                    raise ValueError(f"bin {j}: value index {v} outside [0, {self.m})")

    @property
    def r(self) -> int:
        return len(self.bins)


def identity_code(m: int) -> KeyedCode:
    """The keyless code: one key, value j goes to bin j.

    Offers no secrecy; the eavesdropper decodes exactly, so her achievable
    distortion is zero.  Useful as the k=0 baseline and as the deliberately
    insecure component in multi-source necessity experiments.  More than
    ``caps.CONSTRUCTION_CAP`` values raise CapExceededError.
    """
    check_construction(m, 0)
    return KeyedCode(m=m, k=0, r=m, assignment=(tuple(range(m)),))


def greedy_code(alphabet: SourceAlphabet, k: int) -> KeyedCode:
    """Balance bin sums one key at a time, largest values into lightest bins.

    The first key maps value j to bin j (values are stored descending).  Each
    later key ranks bins by their accumulated value sum, ties toward the
    lower bin index, and hands the j-th largest value to the bin with the
    j-th smallest sum.  With one key bit this reduces to pairing the j-th
    largest with the j-th smallest value, which balances every bin sum
    exactly when the values form an arithmetic progression.

    The result uses r = m bins and every bin receives exactly one value per
    key, so each bin ends up with 2**k elements.  The sums are exact for
    every alphabet, floats included: integers over the values' common
    denominator (``model.integer_view``), so a float alphabet gets the code
    of the exact numbers it holds.  A code of more than
    ``caps.CONSTRUCTION_CAP`` (value, key) pairs raises CapExceededError
    before anything is built.
    """
    check_construction(alphabet.m, k)
    if k < 0:
        raise ValueError("key bit count must be >= 0")
    m = alphabet.m
    values, _ = integer_view(alphabet.values)
    rows = [tuple(range(m))]
    partial = list(values)
    for _ in range(1, 2**k):
        # A stable sort of the ascending indices breaks ties toward the lower one.
        ranked = sorted(range(m), key=partial.__getitem__)
        # ranked[t] is the bin with the t-th smallest sum; it receives the
        # t-th largest value, so the row is the ranking itself.
        rows.append(tuple(ranked))
        for t, b in enumerate(ranked):
            partial[b] += values[t]
    return KeyedCode(m=m, k=k, r=m, assignment=tuple(rows))


def exchange_binning(
    alphabet: SourceAlphabet,
    k: int,
    r: int | None = None,
    seed: int = 0,
) -> Binning:
    """Randomly partition 2**k copies of the alphabet, then repair by swaps.

    Starts from a uniform random permutation of the m * 2**k value copies,
    chunked into m bins of 2**k.  The permutation is drawn from
    ``random.Random(seed).random()``, a stream Python keeps fixed for a given
    seed, so a seed gives the same binning on every Python release.  The
    guarantee below holds whatever the start.  While the largest and
    smallest bin sums differ by more than the value spread
    d = y_max - y_min, the largest value of the heaviest bin trades places
    with the smallest value of the lightest bin.  Each such swap strictly
    lowers the sum of squared bin sums: writing a, b for the swapped values
    and S_i, S_j for the bin sums, the change is -2(a-b)(S_i - S_j - (a-b)),
    and with equal bin sizes a - b is positive yet at most d < S_i - S_j.
    The state space is finite, so the loop terminates, with every final bin
    sum inside [mean_sum - d, mean_sum + d].  The sums are exact for every
    alphabet, floats included: integers over the values' common denominator
    (``model.integer_view``).  They are taken once up front, a swap moves
    the two it touches by -(a - b) and +(a - b), and two heaps find the
    heaviest and lightest bins, ties toward the lower index, in O(log m)
    per swap.

    Only r = m is supported: equal-size bins are what make the improving
    swap available, and r = m is the shape the completion step and the
    analysis bounds are stated for.

    Args:
        alphabet: must be uniform.
        k: key bits; each bin receives exactly 2**k copies.  More than
            ``caps.CONSTRUCTION_CAP`` copies in all raise CapExceededError
            before any other check.
        r: bin count; None means m, anything else is rejected.
        seed: a non-negative integer; fixes the initial random partition,
            and with it the result.
    """
    check_construction(alphabet.m, k)
    if k < 0:
        raise ValueError("key bit count must be >= 0")
    if not alphabet.is_uniform():
        raise ValueError("exchange binning requires a uniform alphabet")
    m = alphabet.m
    if r is None:
        r = m
    if r < m:
        raise ValueError(
            f"r={r} infeasible: {m} * 2**{k} copies cannot fit in {r} bins of capacity 2**{k}"
        )
    if r != m:
        raise ValueError(f"r={r} unsupported: only r = m bins")

    from heapq import heapify, heappop, heappush  # on use: only exchange needs it

    copies = 2**k
    shuffled = _seeded_permutation(m, copies, seed)
    bins = [sorted(shuffled[i * copies : (i + 1) * copies]) for i in range(m)]

    values, _ = integer_view(alphabet.values)
    d = values[0] - values[-1]
    sums = [sum(values[v] for v in content) for content in bins]
    # Entries go stale when their bin's sum changes and are dropped when
    # they surface; an entry that still holds its bin's sum is current.
    heavy = [(-s, j) for j, s in enumerate(sums)]
    light = [(s, j) for j, s in enumerate(sums)]
    heapify(heavy)
    heapify(light)
    for _ in range(_SWAP_LIMIT):
        while -heavy[0][0] != sums[heavy[0][1]]:
            heappop(heavy)
        while light[0][0] != sums[light[0][1]]:
            heappop(light)
        hi, lo = heavy[0][1], light[0][1]
        if sums[hi] - sums[lo] <= d:
            break
        a = bins[hi][0]  # smallest index = largest value
        b = bins[lo][-1]
        bins[hi].pop(0)
        bins[lo].pop()
        insort(bins[hi], b)
        insort(bins[lo], a)
        step = values[a] - values[b]
        sums[hi] -= step
        sums[lo] += step
        for j in (hi, lo):
            heappush(heavy, (-sums[j], j))
            heappush(light, (sums[j], j))
    else:
        raise RuntimeError("swap loop failed to settle within the iteration guard")
    return Binning(m=m, bins=tuple(tuple(content) for content in bins))


def complete_key_assignment(binning: Binning, k: int) -> KeyedCode:
    """Assign keys to a binning so the receiver can decode.

    Values and bins are the two sides of a multigraph whose edges are the
    value copies.  Key c is a perfect matching of it: it sends v to the bin
    at the far end of v's key-c edge, so each key is injective.  The 2**k
    matchings come from k rounds of Euler splits (Gabow 1976), one key bit
    per round.

    The graph is first made 2**k-regular: r - m dummy values take up each
    bin's spare capacity, 2**k - |bin|, which totals exactly (r - m) * 2**k.
    Padding is safe because dropping the dummies at the end only removes
    edges: every key stays injective and every bin keeps its contents.
    Exchange binnings have r = m and full bins, so they get no dummies.

    Each vertex owns 2**k slots.  Before round t, the low t bits of an
    edge's slot, at either end, are the key bits it has so far.  Round t
    pairs slot s with slot s ^ 2**t at every vertex: two edges with the same
    bits.  Following the pairs alternately at the bin end and the value end
    walks closed trails, of even length since the graph is bipartite, and
    alternate edges of a trail get bit t = 0 and 1.  So every pair splits,
    and each half is regular at half the degree.  After k rounds slot c of
    a value holds its key-c edge.

    The resulting code induces exactly the input binning.  Raises ValueError
    when the binning is malformed for k: a value with a copy count other
    than 2**k, or an overfull bin.
    """
    if k < 0:
        raise ValueError("key bit count must be >= 0")
    colors = 2**k
    m = binning.m
    mult = [0] * m
    for content in binning.bins:
        if len(content) > colors:
            raise ValueError(f"bin with {len(content)} elements exceeds capacity {colors}")
        for v in content:
            mult[v] += 1
    bad = [v for v in range(m) if mult[v] != colors]
    if bad:
        raise ValueError(
            f"value indices {bad} do not appear exactly {colors} times in the binning"
        )

    # vb[p] is the bin-side slot of the edge in value-side slot p, and bv
    # the inverse.  Value v owns slots v*2**k onward; fill[m] hands the
    # dummies' slots, m*2**k onward, to the spare bin slots in turn.
    fill = list(range(0, (m + 1) * colors, colors))
    vb, bv = [0] * (binning.r * colors), [0] * (binning.r * colors)
    padded = (v for content in binning.bins for v in [*content] + [m] * (colors - len(content)))
    for q, v in enumerate(padded):
        p = fill[v]
        fill[v] += 1
        vb[p], bv[q] = q, p
    for t in range(k):
        bit, low = 1 << t, ~(1 << t)
        nvb, nbv = [-1] * len(vb), [0] * len(vb)
        for start in range(len(vb)):
            if nvb[start] >= 0:
                continue  # on a trail already
            p = start
            while True:
                # Edge (p, q) takes bit 0, its partner at the bin end bit 1,
                # and that edge's partner at the value end is next.
                q = vb[p]
                p1 = bv[q ^ bit]
                nvb[p & low], nbv[q & low] = q & low, p & low
                nvb[p1 | bit], nbv[q | bit] = q | bit, p1 | bit
                p = p1 ^ bit
                if p == start:
                    break
        vb, bv = nvb, nbv
    return KeyedCode(
        m=m,
        k=k,
        r=binning.r,
        assignment=tuple(
            tuple(q // colors for q in vb[c : m * colors : colors]) for c in range(colors)
        ),
    )
