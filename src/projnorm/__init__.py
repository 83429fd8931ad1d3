"""Exact intersection-theory and Riemann-Roch toolkit for deciding when
Ulrich bundles on curves, surfaces and low-dimensional hypersurfaces can
(or provably cannot) be projectively normal.

All arithmetic is exact rational; every closed form is cross-checked
against a randomized splitting-principle oracle and an independent
Riemann-Roch pipeline.
"""

from .chern import (
    ChernVector,
    bundle_from_roots,
    chern_character,
    direct_sum,
    dual,
    segre_dual,
    sym2,
    sym3,
    sym_k_c1,
    tensor_square,
    twist,
    wedge2,
)
from .exactalg import (
    DEFAULT_SEED,
    DataError,
    GradedClass,
    ParityError,
    RankOneRing,
    RingMismatchError,
    SolverError,
    SurfaceLattice,
    divisor,
    parse_rational,
    ring_degree,
    splitting_oracle,
    unit,
)
from .normality import (
    CurveCase,
    NormalityVerdict,
    Witness,
    ci_example_scan,
    classify_p3_hypersurface,
    classify_p4_hypersurface,
    curve_thresholds,
    curve_verdicts,
    dimension_test,
    kko_audit,
    kko_curve_window,
    mrc_check,
    sectional_curve_criterion,
    surface_acm_criterion,
)
from .report import ScanReport
from .rr import (
    HypersurfaceP3,
    HypersurfaceP4,
    Surface,
    chi_surface,
    chi_threefold_hypersurface,
    solve_ulrich_chern,
    surface_model,
)
from .ulrich import (
    casnati_c2,
    chi_powers_p4_hypersurface,
    h0_powers_p3_hypersurface,
    h0_powers_surface,
    h0_powers_surface_det_special,
    ulrich_c3_p4_hypersurface,
)
from .verify import formula_suite

__version__ = "0.1.0"
