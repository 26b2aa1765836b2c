"""Locally repairable codes of length (q-1)^2 over GF(q) with design distance 5.

Construction, encoding, local repair, erasure decoding, and machine
verification of the distance, locality, and optimality claims at desk scale.
The verifier measures the distance the construction actually achieves
instead of assuming the design target.
"""

from .codec import (
    ERASED,
    HybridResult,
    correct_error,
    encode,
    erasure_decode,
    hybrid_decode,
    local_repair,
)
from .construct import Code, CodeParams, EvaluationDomain, Monomial, validate_params
from .errors import LrcError
from .field import Field, subgroup_of_order
from .verify import (
    VerificationReport,
    find_min_weight_codeword,
    optimality_equivalence_holds,
    singleton_like_bound,
    verify_constraint_matrix,
    verify_distance_at_least,
    verify_locality,
)

__version__ = "0.1.0"

__all__ = [
    "ERASED",
    "Code",
    "CodeParams",
    "EvaluationDomain",
    "Field",
    "HybridResult",
    "LrcError",
    "Monomial",
    "VerificationReport",
    "__version__",
    "correct_error",
    "encode",
    "erasure_decode",
    "find_min_weight_codeword",
    "hybrid_decode",
    "local_repair",
    "optimality_equivalence_holds",
    "singleton_like_bound",
    "subgroup_of_order",
    "validate_params",
    "verify_constraint_matrix",
    "verify_distance_at_least",
    "verify_locality",
]
