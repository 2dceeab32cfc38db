"""Axiomatic attribution of f(s) - f(r) for multilinear plus separable functions.

``import attrib`` loads `attrib.core` and `attrib.exact`, the model algebra
and the exact kernels.  `attrib.oracles`, `attrib.paths` and
`attrib.axioms` (order enumeration, quadrature and the axiom suite) load on
first use, through the module-level ``__getattr__``: the first lookup of
one of their names below, or of the submodule itself, imports it.  So a
program that uses none of them, such as an exact report run of the CLI,
never imports or compiles those modules.
"""

from .core import (
    AttributionResult,
    CharacteristicFunction,
    DomainError,
    MultilinearPoly,
    SeparableTerm,
    ValuePair,
    affine_reparameterize,
    combine,
    evaluate,
    from_terms,
    monomial,
    partial_derivative,
    permute_variables,
    permute_vector,
    product_function,
)
from .exact import attribute_ass, attribute_monomial, attribute_naive, shapley_weight, shapley_weights

__version__ = "0.1.0"

# Each name loaded on first use, with the submodule that defines it; each submodule loads on first use too.
_LAZY = {
    **dict.fromkeys(
        ("PermutationWeights", "hash_order_weights", "random_order_attribution", "shapley_shubik_bruteforce",
         "value_variant_attribution"),
        "oracles",
    ),
    **dict.fromkeys(
        ("BlackBoxFunction", "QuadratureConfig", "attribute_aumann_shapley", "attribute_path", "edge_walk",
         "straight_line"),
        "paths",
    ),
    **dict.fromkeys(
        ("AXIOM_IDS", "AxiomVerdict", "InstanceGenerator", "check_axiom", "divergence_witness", "run_axiom_suite"), "axioms"
    ),
}

__all__ = [
    "AttributionResult", "CharacteristicFunction", "DomainError", "MultilinearPoly", "SeparableTerm", "ValuePair",
    "affine_reparameterize", "combine", "evaluate", "from_terms", "monomial", "partial_derivative", "permute_variables",
    "permute_vector", "product_function",
    "attribute_ass", "attribute_monomial", "attribute_naive", "shapley_weight", "shapley_weights",
    *_LAZY,
]


def __getattr__(name: str):
    home = _LAZY.get(name, name)
    if home not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{home}", __name__)  # which also binds the submodule here, as `import attrib.paths` does
    if name == home:
        return module
    value = globals()[name] = getattr(module, name)  # later lookups find it without this call
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
