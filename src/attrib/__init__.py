"""Axiomatic attribution of f(s) - f(r) for multilinear plus separable functions."""

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
from .oracles import (
    PermutationWeights,
    hash_order_weights,
    random_order_attribution,
    shapley_shubik_bruteforce,
    value_variant_attribution,
)
from .paths import (
    BlackBoxFunction,
    QuadratureConfig,
    attribute_aumann_shapley,
    attribute_path,
    composite_gauss_legendre,
    edge_walk,
    straight_line,
    tabulated_path,
)
from .axioms import AXIOM_IDS, AxiomVerdict, InstanceGenerator, check_axiom, divergence_witness, run_axiom_suite

__version__ = "0.1.0"
