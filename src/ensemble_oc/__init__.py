"""Open-loop optimal control of ODE ensembles under uncertain initial data.

Monte Carlo multi-shooting transcription, exact ensemble gradients via
backward propagation over stored trajectories, a log-barrier / augmented
penalty solver, and verification of candidate controls through the sampled
minimum principle.
"""

from .chebyshev import ChebyshevOperators, chebyshev_operators
from .errors import (
    DomainError,
    EmptyEnsembleError,
    ParameterError,
    PropagationError,
    ShapeMismatchError,
)
from .grids import (
    ControlSchedule,
    EnsembleTrajectory,
    Segment,
    ShootingPlan,
    control_times,
    ensemble_mean,
    grid_times,
    uniform_plan,
)
from .gradients import backward_gradient, fd_gradient
from .integrators import StepScheme, propagate_segment, step_jacobians
from .models import (
    ChebyshevReactionDiffusion,
    DynamicsModel,
    FixedWingUav,
    UgvBicycle,
    UgvDifferentialDrive,
)
from .pontryagin import (
    AdjointTrajectory,
    OptimalityReport,
    adjoint_sweep,
    ensemble_argmin_control,
    hamiltonian,
    verify,
)
from .problems import build, catalog
from .sampling import (
    Dirac,
    Normal,
    RandomInputSpec,
    SphericalShell,
    Uniform,
    sample_initial_ensemble,
)
from .solver import (
    MinimizeResult,
    SolveReport,
    SolveStatus,
    SolverConfig,
    barrier_value_and_gradient,
    minimize_box,
    solve,
)
from .transcription import (
    CostSpec,
    NlpPoint,
    OcProblem,
    PathBound,
    clip_controls,
    continuity_residual,
    default_start,
    evaluate_objective,
    fd_objective_gradient,
    forward_pass,
    initial_ensemble,
    objective_gradient,
    path_constraint_values,
)

__version__ = "0.1.0"
