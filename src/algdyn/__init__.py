"""Certified computations for algebraic Z^d shift actions.

Exact group-ring arithmetic, certified Wiener-algebra inversion on the
dual torus, expansiveness and finite-entropy decision procedures, entropy
by quadrature / counting / packing, homoclinic-group construction, and
constructive independence and shadowing witnesses.
"""

__version__ = "0.1.0"

from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    parse_element,
    torus_distance,
)
from .torus import (
    MatrixL1Inverse,
    TorusCertificate,
    certify_invertible,
    certify_matrix_invertible,
    evaluate,
    l1_inverse,
    lipschitz_bound,
    matrix_l1_inverse,
)
from .expansive import (
    ExpansivenessReport,
    has_finite_entropy,
    is_expansive_principal,
    is_expansive_square,
)
from .entropy import (
    CompanionModule,
    EntropyEstimate,
    duality_check,
    mahler_measure,
    packing_lower_bound,
    peters_entropy,
)
from .homoclinic import (
    HomoclinicPoint,
    LiftedPoint,
    delta1_membership,
    fundamental_homoclinic,
    group_element,
    pairing_symmetry_check,
    psi,
    summable_metric_distance,
)
from .independence import (
    IndependenceReport,
    ShadowBlock,
    ShadowRequest,
    greedy_separated_subset,
    homoclinic_specification_check,
    independence_witnesses,
    shadow,
)
from .freegroup import verify_annihilator

__all__ = [
    "GroupRingElement",
    "GroupRingMatrix",
    "parse_element",
    "torus_distance",
    "MatrixL1Inverse",
    "TorusCertificate",
    "certify_invertible",
    "certify_matrix_invertible",
    "evaluate",
    "l1_inverse",
    "lipschitz_bound",
    "matrix_l1_inverse",
    "ExpansivenessReport",
    "has_finite_entropy",
    "is_expansive_principal",
    "is_expansive_square",
    "CompanionModule",
    "EntropyEstimate",
    "duality_check",
    "mahler_measure",
    "packing_lower_bound",
    "peters_entropy",
    "HomoclinicPoint",
    "LiftedPoint",
    "delta1_membership",
    "fundamental_homoclinic",
    "group_element",
    "pairing_symmetry_check",
    "psi",
    "summable_metric_distance",
    "IndependenceReport",
    "ShadowBlock",
    "ShadowRequest",
    "greedy_separated_subset",
    "homoclinic_specification_check",
    "independence_witnesses",
    "shadow",
    "verify_annihilator",
]
