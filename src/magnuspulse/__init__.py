"""
magnuspulse: existence of the continuous-exponential propagator for weakly
coupled spin-1/2 systems under shaped RF pulses, plus the exact propagator,
its rotation-vector decomposition, and the expansion-form alternative.
"""

from .system import (
    IConfiguration,
    ISpin,
    LongitudinalDiagonal,
    SpinSystem,
    assemble_full_matrix,
    energy_diagonal,
    enumerate_configurations,
    load_system,
    offset_diagonal,
)
from .pulses import (
    CatalogEntry,
    FourierPulseSpec,
    PulseShape,
    SampledPulse,
    abs_amplitude_integral,
    build_pulse,
    calibrate,
    flip_angle,
    list_catalog,
    load_pulse_file,
    resolve_pulse,
    sample,
    scale_amplitude,
    with_phase,
)
from .propagation import (
    BlockTrajectory,
    RefinementError,
    block_hamiltonian,
    excitation_profile,
    lab_frame_propagator,
    propagate_interaction,
    su2_step,
    unitarity_defect,
)
from .magnus import (
    CriterionReport,
    ExtractionError,
    MagnusSolution,
    angles_from_omega,
    explicit_criterion,
    extract_omega,
    magnus_gap_check,
    magnus_partial_sums,
    omega_eigenvalues,
)
from .expansion import (
    ExpansionState,
    angles_from_state,
    expansion_rhs,
    integrate_expansion,
    omega_hat_quadrature,
    reconstruct_propagator,
)

__version__ = "0.1.0"
