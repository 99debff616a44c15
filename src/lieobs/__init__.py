"""Geometry-free state and bias observers on matrix Lie groups.

The package simulates continuous-time observers that estimate both the
state of an invariant kinematic system ``dg/dt = g xi`` on a matrix Lie
group and a constant additive bias on the measured velocity. The
estimates evolve in the ambient matrix space, which is what buys global
exponential convergence; Lyapunov-certificate diagnostics and an SE(3)
benchmark scenario are included.
"""

from .analysis import (
    ConvergenceFit,
    ErrorSample,
    LyapunovParams,
    LyapunovReport,
    compute_errors,
    epsilon_bound,
    fit_exponential,
    lyapunov_decrease_check,
    lyapunov_value,
    project_se3,
    quadform_rates,
    suggested_epsilon,
)
from .errors import (
    ConfigurationError,
    ConstructionError,
    DegeneracyError,
    DimensionError,
    DomainError,
    FitError,
    GainFloorError,
    InadmissibleEpsilonError,
    NumericalError,
    SingularityError,
)
from .integrate import SimConfig, SimRecord, SimSample, rk4_step, simulate
from .kinematics import (
    AnalyticTruth,
    Bounds,
    LandmarkSet,
    MeasurementModel,
    TruthSample,
    VelocityTruth,
    build_F,
    measure,
    se3_benchmark_bias,
    se3_benchmark_landmarks,
    se3_benchmark_truth,
)
from .liegroup import (
    AlgebraElement,
    GroupSpec,
    algebra_basis_se3,
    algebra_basis_so3,
    hat_se3,
    hat_so3,
    project_matrix,
)
from .matcore import frob_norm, mat_exp, mat_inv, polar_so3, singular_extremes
from .observers import Gains, ObserverKind, ObserverState, gain_floor, observer_rhs

__version__ = "0.1.0"
