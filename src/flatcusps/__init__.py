"""Exact rational arithmetic for flat-manifold groups.

Construction and verification, entirely over the rationals: Bieberbach
groups with holonomy and torsion oracles, holonomy-invariant quadratic
forms, embeddings into rational Lorentz groups stabilizing a null
direction, integralization by hyperbolic conjugation (which scales every
translation by the conjugator's integer scale, so it is a closed form on
each image's integer rows), congruence-prime certificates for
torsion-free finite-index containment, and seeded density experiments.
"""

from .bieberbach import (
    AffineMap,
    BieberbachGroup,
    DEFAULT_MAX_ORDER,
    HolonomyGroup,
    catalog,
    catalog_names,
    compose,
    holonomy,
    is_torsion_free,
    theta_average,
    translation_lattice,
)
from .density import (
    DensityRow,
    ExperimentConfig,
    Lcg,
    rows_to_csv,
    rows_to_json,
    run_experiment,
    sample_targets,
)
from .errors import (
    DimensionMismatch,
    HolonomyBound,
    InvariantViolation,
    NotFormIsometry,
    NotNilpotent,
    NotPositiveDefinite,
    RankDeficient,
    UnipotentViolation,
    UnknownName,
    ValidationError,
)
from .exactlin import (
    IntPolynomial,
    Matrix,
    SymmetricForm,
    char_poly,
    is_positive_definite,
    ldl_signature,
    nilpotent_exp,
)
from .lorentz import (
    LorentzEmbedding,
    LorentzModel,
    VerificationReport,
    embed_affine,
    embed_group,
    embed_translation,
    integralize,
    verify_embedding,
)
from .selberg import (
    MatrixGroupInput,
    SelbergCertificate,
    bad_primes,
    good_prime,
    torsion_polynomials,
    verify_certificate,
)
from .shapes import (
    ShapeDescriptor,
    is_arithmetic_shape,
    rationalize,
    shape_distance,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "BieberbachGroup",
    "DEFAULT_MAX_ORDER",
    "DensityRow",
    "DimensionMismatch",
    "ExperimentConfig",
    "HolonomyBound",
    "HolonomyGroup",
    "IntPolynomial",
    "InvariantViolation",
    "Lcg",
    "LorentzEmbedding",
    "LorentzModel",
    "Matrix",
    "MatrixGroupInput",
    "NotFormIsometry",
    "NotNilpotent",
    "NotPositiveDefinite",
    "RankDeficient",
    "SelbergCertificate",
    "ShapeDescriptor",
    "SymmetricForm",
    "UnipotentViolation",
    "UnknownName",
    "ValidationError",
    "VerificationReport",
    "bad_primes",
    "catalog",
    "catalog_names",
    "char_poly",
    "compose",
    "embed_affine",
    "embed_group",
    "embed_translation",
    "good_prime",
    "holonomy",
    "integralize",
    "is_arithmetic_shape",
    "is_positive_definite",
    "is_torsion_free",
    "ldl_signature",
    "nilpotent_exp",
    "rationalize",
    "rows_to_csv",
    "rows_to_json",
    "run_experiment",
    "sample_targets",
    "shape_distance",
    "theta_average",
    "torsion_polynomials",
    "translation_lattice",
    "verify_certificate",
    "verify_embedding",
]
