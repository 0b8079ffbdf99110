"""Distortion-based secrecy toolkit for discrete memoryless sources.

One symbol, one shared key of k bits, one transmitted bin index: the
receiver decodes exactly, while an eavesdropper without the key is held at a
mean-squared estimation error that the constructions here drive toward the
no-observation worst case.  The package provides the encoders, the exact
adversary analysis, a brute-force optimality search, composition of
independently keyed sources under separable functions, and a Monte Carlo
cross-check, plus the ``distsec`` command-line front end.
"""

# Each public name and the module that defines it.  ``import distsec`` loads
# no submodule: a name's module is imported on its first use (PEP 562), so a
# caller pays only for the layers it touches.
_EXPORTS = {
    "Binning": "encoders",
    "CapExceededError": "caps",
    "DistortionReport": "analysis",
    "JointSystem": "multisource",
    "KeyedCode": "model",
    "SearchResult": "search",
    "SeparableFunction": "multisource",
    "SimConfig": "simulation",
    "SimReport": "simulation",
    "SourceAlphabet": "model",
    "StructureReport": "search",
    "WitnessReport": "multisource",
    "achievable_distortion": "analysis",
    "alphabet_from_dict": "model",
    "alphabet_to_dict": "model",
    "bound_report": "analysis",
    "brute_force_optimal": "search",
    "check_sufficiency": "multisource",
    "code_from_dict": "model",
    "code_to_dict": "model",
    "complete_key_assignment": "encoders",
    "decay_bounds": "analysis",
    "delta_closed_form": "analysis",
    "exchange_binning": "encoders",
    "greedy_code": "encoders",
    "identity_code": "encoders",
    "is_perfectly_secure": "analysis",
    "joint_distortion": "multisource",
    "make_alphabet": "model",
    "max_distortion": "analysis",
    "necessity_witness": "multisource",
    "parse_rational": "model",
    "product_function": "multisource",
    "scalar_from_json": "model",
    "simulate": "simulation",
    "sum_function": "multisource",
    "system_from_dict": "multisource",
    "verify_structure": "search",
}

__version__ = "0.1.0"

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
