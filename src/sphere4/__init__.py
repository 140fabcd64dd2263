"""l4-norm maximization over the sphere for dictionary learning.

Maximizing ||A^T q||_4^4 over unit q (equivalently minimizing the
negated, normalized objectives in `objectives` and `cdl`) recovers
dictionary columns and convolutional filters one at a time. The package
provides the objectives with their Riemannian calculus, sphere solvers
with saddle escape, landscape diagnostics that check the geometry
numerically, recovery harnesses, and a CLI (`sphere4`) for reproducible
experiments.
"""

from .cdl import (
    CdlObjective,
    ConvProblem,
    Preconditioner,
    build_preconditioner,
    circ_embed,
    deprecondition,
    synth_cdl,
)
from .landscape import (
    LandscapeReport,
    RegionDecision,
    classify_region,
    critical_point_report,
    cubic_root_intervals,
)
from .model import (
    Dictionary,
    FilterBank,
    ObservationSet,
    SpherePoint,
    coherence,
    load_matrix,
    make_filter_bank,
    make_untf,
    retract,
    sample_bg,
    save_matrix,
    stream,
    synth_odl,
)
from .objectives import OdlObjective, TensorObjective
from .optimize import (
    EscapeConfig,
    SolveConfig,
    SolveResult,
    escape_saddle,
    init_cdl,
    power_step,
    rgd_step,
    solve,
    solve_batch,
    tangent_min_eig,
)
from .recovery import (
    DictionaryCoverage,
    FilterRecovery,
    RecoveryOutcome,
    align_shift,
    recover_filters,
    recover_full,
    recovery_error,
)

__version__ = "0.1.0"
