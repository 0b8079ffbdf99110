"""Desk-scale caps and the error that reports one exceeded.

Nothing here imports anything, so the command line can print the caps in
its help and report an exceeded cap without loading the library.  ``model``
re-exports the error, ``search`` the search caps, and the constructions in
``encoders`` and the search call ``check_construction``.
"""


class CapExceededError(RuntimeError):
    """Raised when an instance exceeds a configured desk-scale cap.

    Search is factorial and constructions are linear in m 2**k, which grows
    exponentially in k; the caps exist so a typo does not turn into an
    unbounded computation.  The caps are constants; only the search's
    ``force`` flag lets an instance past the search caps, and nothing lifts
    the construction cap.
    """


# Largest m * 2**k (value, key) table a construction may build.  At the cap,
# exchange plus completion takes under 20 s.
CONSTRUCTION_CAP = 1_000_000


def check_construction(m: int, k: int) -> None:
    """Refuse a construction of more than CONSTRUCTION_CAP (value, key) pairs
    before any table is built."""
    # 2**21 alone exceeds the cap, so a larger k is refused without forming 2**k.
    if k > 20 or m * 2 ** max(k, 0) > CONSTRUCTION_CAP:
        raise CapExceededError(
            f"construction needs m*2**k = {m}*2**{k} (value, key) states, "
            f"above the cap of {CONSTRUCTION_CAP}"
        )


# Search caps: the binning space grows factorially in m and in 2**k.
MAX_M = 8
MAX_K = 2
# The unpruned walk visits every binning: m * 2**k = 16 copies take seconds,
# a few more take hours.
MAX_UNPRUNED_COPIES = 16
