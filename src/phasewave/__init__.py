"""Surface waves on subsonic reversible phase boundaries.

The package computes the linearized normal-mode structure of a two-phase
interface, evaluates the Lopatinskii determinant and locates its surface-wave
root, builds the quadratic kernel of the weakly nonlinear amplitude equation
(with an exact-integration oracle for every closed form), and evolves the
resulting nonlocal Burgers equation on a truncated Hermitian spectral grid.
"""

__version__ = "0.1.0"

from .equilibrium import (
    EquationOfState,
    FluidState,
    PhaseBoundary,
    boundary_from_eos,
    make_phase_boundary,
    solve_reversible_boundary,
    vdw_eos,
)
from .errors import (
    DegeneracyError,
    DomainError,
    InconsistencyError,
    NoRootError,
    NoSolutionError,
    ParameterError,
    PhasewaveError,
)
from .expsum import ExpProfile
from .kernel import (
    Kernel,
    KernelConstants,
    alpha0_abstract,
    alpha0_closed,
    alpha0_fd,
    build_kernel,
    dual_profile,
    kernel_constants,
    oracle_vs_closed,
    q_oracle,
    trace_profile,
)
from .lopatinskii import (
    RootData,
    SigmaData,
    det_closed,
    det_raw,
    find_root,
)
from .modes import (
    BoundaryOperators,
    Frequency,
    ModeSet,
    TangentFrame,
    boundary_operators,
    d2_flux_normal,
    d2_flux_tangential,
    elliptic_eta0_max,
    flux_jacobians,
    normal_modes,
    tangent_frame,
)
from .simulate import (
    InitSpec,
    SimConfig,
    SpectralField,
    convolution_rhs,
    evolve,
    init_field,
    rk4_step,
)

__all__ = [
    "EquationOfState",
    "FluidState",
    "PhaseBoundary",
    "boundary_from_eos",
    "make_phase_boundary",
    "solve_reversible_boundary",
    "vdw_eos",
    "PhasewaveError",
    "ParameterError",
    "DegeneracyError",
    "InconsistencyError",
    "DomainError",
    "NoRootError",
    "NoSolutionError",
    "ExpProfile",
    "Kernel",
    "KernelConstants",
    "alpha0_abstract",
    "alpha0_closed",
    "alpha0_fd",
    "build_kernel",
    "dual_profile",
    "kernel_constants",
    "oracle_vs_closed",
    "q_oracle",
    "trace_profile",
    "RootData",
    "SigmaData",
    "det_closed",
    "det_raw",
    "find_root",
    "BoundaryOperators",
    "Frequency",
    "ModeSet",
    "TangentFrame",
    "boundary_operators",
    "d2_flux_normal",
    "d2_flux_tangential",
    "elliptic_eta0_max",
    "flux_jacobians",
    "normal_modes",
    "tangent_frame",
    "InitSpec",
    "SimConfig",
    "SpectralField",
    "convolution_rhs",
    "evolve",
    "init_field",
    "rk4_step",
]
