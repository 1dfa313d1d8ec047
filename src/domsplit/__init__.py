"""Dominated-splitting analysis for bounded sequences of 2x2 complex matrices."""

__version__ = "0.1.0"

from .errors import (
    Degenerate,
    DomsplitError,
    InvalidSpec,
    KernelHit,
    NoConvergence,
    NotUnimodular,
    ProductVanished,
    SingularMatrix,
    WindowExceeded,
    ZeroMatrix,
    ZeroVector,
)
from .matrix2c import (
    IDENTITY,
    Mat2C,
    Svd2,
    adjoint,
    det,
    inv_singular_values,
    inverse,
    mul,
    singular_values,
    svd2,
    trace,
)
from .projective import (
    ProjPoint,
    act,
    contraction_factor,
    dist,
    dist_from_vectors,
    expanding_image,
    image_line,
    kernel_line,
    most_contracted,
    perp,
    project,
)
from .cocycle import (
    ConvergenceCert,
    MatrixSequence,
    ProductSweep,
    ScaledProduct,
    backward_scan,
    dump_sequence,
    estimate_fields,
    estimate_splitting,
    forward_scan,
    invariance_residual,
    invariance_residuals,
    load_sequence,
    product_sweep,
    sn,
    un,
    window_product,
)
from .conditions import (
    DominationReport,
    RateFit,
    Thresholds,
    check_domination,
    fi_profile,
    norm_floor,
    svg_profile,
    ueg_check,
)
from .avalanche import (
    ApReport,
    DriftTables,
    ap_conditions,
    ap_report,
    ap_residual,
    direction_drift,
    norm_angle_gap,
    telescoping_residual,
    unitary_overlap,
)
from .generators import (
    GeneratorSpec,
    GroundTruth,
    build_with_truth,
    example1,
    example1_closed_product,
)
