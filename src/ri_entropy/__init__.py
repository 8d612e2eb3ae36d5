"""Relative entropy of entanglement for rotationally invariant spin states."""

from .angular import (
    DenseOperator,
    Spin,
    clebsch_gordan,
    coupled_basis_vector,
    partial_time_reversal,
    projector,
    rotation_y_pi,
)
from .states import (
    AlphaVector,
    NormalizedCoords,
    RIState,
    kl_alpha,
    make_ri_state,
    maximally_mixed,
    normalized_to_raw,
    quantum_relative_entropy,
    raw_to_normalized,
    to_density,
    twirl,
)
from .geometry import (
    Point2,
    Region,
    classify_region,
    landmark_points,
    polygon_area_ratio,
    ppt_image_vertices,
    ppt_polygon,
    simplex_vertices,
)
from .closed_form import (
    REEResult,
    UnsupportedFamilyError,
    e_gamma_3xn_even,
    ree_2xn,
    ree_3x3,
    ree_3xn_odd,
    ree_dispatch,
    state_2xn,
)
from .oracle import (
    MinimizationReport,
    minimize_kl_over_interval,
    minimize_kl_over_polygon,
    ppt_min_eigenvalue,
    verify_closed_form,
)

__version__ = "0.1.0"
