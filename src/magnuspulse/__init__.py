"""
magnuspulse: existence of the continuous-exponential propagator for weakly
coupled spin-1/2 systems under shaped RF pulses, plus the exact propagator,
its rotation-vector decomposition, and the expansion-form alternative.
"""

from .system import (
    ISpin,
    SpinSystem,
    assemble_full_matrix,
    load_system,
    offset_diagonal,
)
from .pulses import (
    CatalogEntry,
    PulseShape,
    SampledPulse,
    build_pulse,
    calibrate,
    list_catalog,
    load_pulse_file,
    midpoint_integrals,
    resolve_pulse,
    sample,
    scale_amplitude,
)
from .propagation import (
    BlockTrajectory,
    RefinementError,
    excitation_profile,
    propagate_interaction,
)
from .magnus import (
    CriterionReport,
    ExtractionError,
    MagnusSolution,
    explicit_criterion,
    extract_omega,
    gap_audit,
    magnus_partial_sums,
)
from .expansion import (
    angles_from_state,
    integrate_expansion,
)

__version__ = "0.1.0"
