"""Relative entropy of entanglement for rotationally invariant spin states.

Importing the package loads no numpy: the dense operators import it on their
first call, and the oracle's names load the oracle on first use (PEP 562).
"""

import importlib as _importlib

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

__version__ = "0.1.0"

_ORACLE_NAMES = ("MinimizationReport", "minimize_kl_over_interval",
                 "minimize_kl_over_polygon", "ppt_min_eigenvalue", "verify_closed_form")

__all__ = sorted({*(name for name in globals() if not name.startswith("_")),
                  "oracle", *_ORACLE_NAMES})


def __getattr__(name):
    """`oracle` and its names, imported on first use; each name is looked up
    in the module at every access, so a patched oracle attribute shows here."""
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = _importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
