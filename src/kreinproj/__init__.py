"""kreinproj: extreme symmetries and verified decompositions for idempotent
complex matrices under an indefinite (Krein-space) inner product.

The package constructs, for a finite idempotent P, the symmetries J making
P contractive (``P* J P <= J``) or positive (``J P >= 0``), including the
least and greatest such J in the Loewner order, the splittings of P into
contractive/expansive and positive/negative pairs, the unitaries relating
P to its adjoint and complement, and a report model that certifies every
identity numerically.
"""

from .errors import (
    BadRank,
    ConstraintViolated,
    DimensionMismatch,
    FileFormatError,
    KreinProjError,
    NonFinite,
    NotHermitian,
    NotIdempotent,
    NotJProjection,
    NotOrthonormal,
    NotSymmetry,
    NotSymmetryParam,
)
from .linalg import (
    DEFAULT_TOL,
    SpectralParts,
    Tolerances,
    hermitian_eig,
    is_symmetry,
    loewner_geq,
    spectral_parts,
)
from .idempotents import (
    BlockForm,
    block_form,
    haar_unitary,
    kernel_projections,
    random_idempotent,
    random_symmetry_on,
    validate_idempotent,
)
from .symmetries import (
    ExtremalKind,
    SymmetryFamily,
    SymmetryParams,
    assemble_symmetry,
    extremal_symmetry,
    extremal_symmetry_via_blocks,
    nonexistence_witnesses,
    sample_params,
    sign_formula_symmetry,
)
from .decompositions import (
    SplitKind,
    SplitResult,
    adjoint_similarity,
    complement_sum_equivalence,
    contractive_expansive_split,
    extract_params,
    intertwining_unitaries,
    negative_part_projection_formula,
    positive_negative_split,
)
from .reporting import CheckResult, Report
from .verification import (
    ProjectionFlags,
    classify,
    contractive_positive_equivalence,
    extremal_checks,
    extremality_probe,
    full_report,
    spectral_projection_identities,
    split_checks,
    split_classification_margins,
    split_identity_residuals,
)

__version__ = "0.1.0"
