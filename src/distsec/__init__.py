"""Distortion-based secrecy toolkit for discrete memoryless sources.

One symbol, one shared key of k bits, one transmitted bin index: the
receiver decodes exactly, while an eavesdropper without the key is held at a
mean-squared estimation error that the constructions here drive toward the
no-observation worst case.  The package provides the encoders, the exact
adversary analysis, a brute-force optimality search, composition of
independently keyed sources under separable functions, and a Monte Carlo
cross-check, plus the ``distsec`` command-line front end.
"""

from .analysis import (
    DistortionReport,
    achievable_distortion,
    bound_report,
    delta_closed_form,
    is_perfectly_secure,
    max_distortion,
)
from .encoders import (
    Binning,
    complete_key_assignment,
    exchange_binning,
    greedy_code,
    identity_code,
)
from .model import (
    CapExceededError,
    KeyedCode,
    SourceAlphabet,
    alphabet_from_dict,
    alphabet_to_dict,
    code_from_dict,
    code_to_dict,
    make_alphabet,
)
from .multisource import (
    JointSystem,
    SeparableFunction,
    WitnessReport,
    check_sufficiency,
    joint_distortion,
    necessity_witness,
    product_function,
    sum_function,
)
from .search import SearchResult, StructureReport, brute_force_optimal, verify_structure
from .simulation import SimConfig, SimReport, simulate

__version__ = "0.1.0"

__all__ = [
    "Binning",
    "CapExceededError",
    "DistortionReport",
    "JointSystem",
    "KeyedCode",
    "SearchResult",
    "SeparableFunction",
    "SimConfig",
    "SimReport",
    "SourceAlphabet",
    "StructureReport",
    "WitnessReport",
    "achievable_distortion",
    "alphabet_from_dict",
    "alphabet_to_dict",
    "bound_report",
    "brute_force_optimal",
    "check_sufficiency",
    "code_from_dict",
    "code_to_dict",
    "complete_key_assignment",
    "delta_closed_form",
    "exchange_binning",
    "greedy_code",
    "identity_code",
    "is_perfectly_secure",
    "joint_distortion",
    "make_alphabet",
    "max_distortion",
    "necessity_witness",
    "product_function",
    "simulate",
    "sum_function",
    "verify_structure",
]
