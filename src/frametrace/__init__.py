"""frametrace: admissible pairs, commutant traces and finite Gabor frames.

The package makes coherent-state admissibility on finite groups executable:
coefficient and frame operators, canonical duals, the natural trace on the
right group von Neumann algebra, traciality against the commutant, the finite
Plancherel decomposition with fiber projections, and finite Weyl-Heisenberg
systems with Wexler-Raz biorthogonality.
"""

from .commutant import (
    CommutantBasis,
    commutant_basis,
    commutant_of_matrices,
    generalized_biorthogonality,
    is_tracial_pair,
    reduced_commutant,
    regular_commutant_basis,
)
from .errors import (
    DimensionMismatch,
    FrametraceError,
    NotAFrame,
    NotAGroup,
    NotInvariant,
    NotInvertible,
    UnsupportedGroup,
)
from .frames import (
    CoefficientOperator,
    InvariantProjection,
    admissibility_defect,
    admissible_vector_for_projection,
    canonical_dual,
    coefficient_operator,
    dual_null_space,
    frame_operator,
    is_admissible_pair,
    is_frame_vector,
    natural_trace,
    projection_from_spanning,
    regular_coefficient_matrix,
    tighten,
    trace_of_projection,
)
from .gabor import (
    GaborSystem,
    WHGroup,
    adjoint_lattice_ops,
    gabor_canonical_dual,
    gabor_coefficient_map,
    gabor_frame_operator,
    gabor_reconstruction_check,
    lattice_ops,
    reference_window,
    wexler_raz_check,
    wh_bridge_check,
    wh_group_build,
    wh_rep,
    wr_fundamental_relation_check,
)
from .groups import (
    FiniteGroup,
    GroupVector,
    Rep,
    builtin_group,
    convolution_operator,
    convolve,
    delta,
    group_from_cayley,
    involution,
    left_regular_rep,
    restrict_rep,
)
from .numerics import (
    DEFAULT_TOL,
    EIG_FLOOR,
    HermEig,
    eig_hermitian,
    inv_psd,
    inv_sqrt_psd,
)
from .plancherel import (
    FiberProjectionField,
    Irrep,
    IrrepTable,
    PlancherelCoefficients,
    builtin_irreps,
    convolution_to_product_check,
    fiber_admissibility_check,
    fiber_projections,
    inverse_plancherel,
    isotypic_projection,
    plancherel_transform,
    projection_from_fibers,
    random_invariant_projection,
    rank_measure,
    validate_irreps,
)
from .reporting import CheckResult, RunReport

__version__ = "0.1.0"
