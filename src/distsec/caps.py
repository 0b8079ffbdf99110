"""Desk-scale caps and the error that reports one exceeded.

Nothing here imports anything, so the command line can print the caps in
its help and report an exceeded cap without loading the library.  ``model``
re-exports the error and ``search`` the search caps.
"""


class CapExceededError(RuntimeError):
    """Raised when an instance exceeds a configured desk-scale cap.

    Search is factorial and constructions are linear in m 2**k, which grows
    exponentially in k; the caps exist so a typo does not turn into an
    unbounded computation.  The caps are constants; only the search's
    ``force`` flag lets an instance past its caps.
    """


# Search caps: the binning space grows factorially in m and in 2**k.
MAX_M = 8
MAX_K = 2
# The unpruned walk visits every binning: m * 2**k = 16 copies take seconds,
# a few more take hours.
MAX_UNPRUNED_COPIES = 16
