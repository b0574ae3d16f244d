"""qpkam: invariant curves of planar mappings quasi-periodic in the angle.

Spectral construction of the conjugacy to a rigid rotation: Diophantine
certification, analytic smoothing of C^p map data, small-divisor difference
equations with residual postconditions, and the iterative invariant-curve
driver.

QPKAM_THREADS, when set, caps the BLAS thread pools; it is read here, before
the first numpy import of the package.
"""

import os

if "QPKAM_THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["QPKAM_THREADS"])

from .cohomology import solve_coupled, solve_single
from .diophantine import (
    RejectionReport,
    RotationNumber,
    certify_frequency,
    certify_rotation,
    divisor_sum_bound_check,
    sample_admissible,
)
from .errors import QpKamError
from .kam import (
    ConjugacyMap,
    InvariantCurve,
    KamSchedule,
    NormalizedMap,
    build_schedule,
    inductive_step,
    intersection_bound,
    normalize,
    run,
    smallness_check,
    solve_back,
)
from .maps import (
    CurveGraph,
    QpPlanarMap,
    exactness_defect,
    image_curve,
    intersection_witness,
    kicked_twist,
    model_from_config,
    pure_twist,
    rigid_shift,
)
from .qpfourier import (
    Frequency,
    ShellFunction,
    StripDomain,
    StripFunction,
    compose_angle,
    invert_angle_map,
)
from .smoothing import smooth

__version__ = "0.1.0"

__all__ = [
    "ConjugacyMap", "CurveGraph",
    "Frequency", "InvariantCurve", "KamSchedule", "NormalizedMap",
    "QpKamError", "QpPlanarMap", "RejectionReport", "RotationNumber",
    "ShellFunction", "StripDomain",
    "StripFunction", "build_schedule", "certify_frequency",
    "certify_rotation", "compose_angle", "divisor_sum_bound_check",
    "exactness_defect", "image_curve",
    "inductive_step", "intersection_bound", "intersection_witness",
    "invert_angle_map", "kicked_twist", "model_from_config",
    "normalize", "pure_twist", "rigid_shift", "run", "sample_admissible",
    "smallness_check", "smooth", "solve_back", "solve_coupled", "solve_single",
]
