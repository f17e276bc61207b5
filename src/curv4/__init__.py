"""Curvature algebra of Einstein four-manifolds.

Normal forms of curvature operators, duality decomposition, the pointwise
pinching estimates in closed form, brute-force oracles for every bound, and
the sharp constants of the rigidity thresholds in exact arithmetic.
"""

from .berger import (
    BergerData,
    Frame,
    FrameReconstruction,
    berger_data,
    berger_to_operator,
    frame_functional_min,
    reconstruct_frame,
    sample_berger_data,
)
from .bivector import (
    BASIS_LABEL,
    BASIS_PAIRS,
    MODEL_INFO,
    MODEL_NAMES,
    CurvatureOperator,
    DualityDecomposition,
    SectionalExtrema,
    TangentPlane,
    WeylSpectrum,
    conjugate_operator,
    duality_decompose,
    extremize_sectional,
    hodge_star_matrix,
    model_space,
    sectional,
    static_weitzenbock_residual,
    wedge_coordinates,
)
from .classify import (
    CertificateRow,
    ClassificationVerdict,
    classify,
    wpm_discriminant,
    wpm_discriminant_oracle,
)
from .errors import (
    Curv4Error,
    DomainError,
    ExactnessError,
    InvalidBergerError,
    InvalidOperatorError,
    NotEinsteinError,
    UnknownModelError,
)
from .estimates import (
    GridReport,
    SharpConstant,
    a2a1_gap,
    dominance,
    hamilton_gap,
    kdiff_lower,
    kupper_lower,
    lemma_algebraic2_min,
    lemma_algebraic2_oracle,
    lemma_k3k1_bounds,
    lemma_k3k1_oracle,
    pointwise_bound_oracle,
    sharp_constants,
)
from .io import (
    BERGER_FORMAT,
    OPERATOR_FORMAT,
    berger_from_json,
    berger_to_json,
    load_any,
    operator_from_json,
    operator_to_json,
    read_document,
)
from .surd import QuadraticSurd
from .topology import (
    CHI_HARD_CAP,
    GaussBonnetDensities,
    TopologyReport,
    admissible_types,
    euler_upper_per_vol,
    gbc_integrands,
    hitchin_thorpe,
)

__version__ = "0.1.0"
