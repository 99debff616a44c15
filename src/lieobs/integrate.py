"""Fixed-step integration of the observer against a truth trajectory.

Given the truth, every observer is a plain ODE in ``A_bar`` and ``b_bar``,
integrated here as one ``(2, n, n)`` array; nothing is renormalized or
projected back, and the projected bias derivatives keep ``b_bar`` in the
algebra by themselves. The other inputs (``A``, the measured velocity,
``A^-1`` or the feed-through) depend on the truth alone and are built
vectorised, in chunks of ``CHUNK_STEPS`` steps, from one sampler that
the empirical bounds use as well. It evaluates the truth once per
distinct stage time and lays it out as the four stages of each step,
then the end node. A closed-form truth is evaluated at the stage times,
so no truth discretization error enters the error signal. A
velocity-profile truth is integrated first with the same Runge-Kutta
tableau; its four stage poses per step are what a joint integration
would feed the observer. Recorded samples read the grid's nodes as they
are.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from .analysis import ErrorSample, compute_errors, lyapunov_value, suggested_epsilon
from .errors import (
    ConfigurationError,
    DomainError,
    GainFloorError,
    NumericalError,
    SingularityError,
)
from .kinematics import (
    AnalyticTruth,
    Bounds,
    MeasurementModel,
    TruthSample,
    VelocityTruth,
    _bound_times,
    _stacked_bounds,
)
from .liegroup import AlgebraElement, project_matrix
from .matcore import frob_norm, mat_inv
from .observers import (
    Gains,
    ObserverKind,
    ObserverState,
    _rhs_factory,
    _truth_term,
    gain_floor,
)

__all__ = ["rk4_step", "SimConfig", "SimSample", "SimRecord", "simulate"]

# Steps per truth chunk. A chunk holds a few stacks of 4 * CHUNK_STEPS + 1
# matrices (four stages per step, then the end node), so the memory a run
# needs does not grow with its horizon.
CHUNK_STEPS = 256
# Grid spacing of the empirical bounds.
_BOUNDS_STEP = 0.01


def _rk4(f, y, h, s1, s2, s3, s4):
    """One classical fourth-order Runge-Kutta step of size ``h``.

    ``f(y, *s)`` is evaluated with the stage inputs ``s1 .. s4`` of the
    step's four stages.
    """
    k1 = f(y, *s1)
    k2 = f(y + (0.5 * h) * k1, *s2)
    k3 = f(y + (0.5 * h) * k2, *s3)
    k4 = f(y + h * k3, *s4)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    state: np.ndarray,
    t: float,
    h: float,
) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step.

    Parameters
    ----------
    rhs : callable
        ``rhs(t, y) -> dy/dt`` on real arrays.
    state : numpy.ndarray
        State at time ``t``.
    t, h : float
        Current time and step size, ``h > 0``.

    Raises
    ------
    NumericalError
        If the update contains non-finite entries; carries ``t``.
    """
    if h <= 0.0:
        raise ConfigurationError(f"step size must be positive, got {h}")

    def f(y, tt):
        return np.asarray(rhs(tt, y), dtype=float)

    tm = t + 0.5 * h
    out = _rk4(f, np.asarray(state, dtype=float), h, (t,), (tm,), (tm,), (t + h,))
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"non-finite state after step from t={t}", t=t)
    return out


# A step's four stages sit at its start node, its midpoint twice, and its
# end node: offsets into the distinct stage times node, midpoint, node, ...
_STAGE_TIMES = (0, 1, 1, 2)


def _sample_truth(
    truth: AnalyticTruth | VelocityTruth, first: int, n_steps: int, h: float,
    g0: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """The truth over steps ``first .. first + n_steps - 1`` of size ``h``.

    Returns ``(ts, pick, g, xi, g_inv)``. ``ts`` holds the distinct stage
    times (``2 n_steps + 1``). ``g``, ``xi`` and ``g_inv`` (None without a
    closed form) hold the four stages of each step in order, then the end
    node (``4 n_steps + 1`` entries); entry i sits at ``ts[pick[i]]``. A
    closed-form truth is one ``state_of`` call at ``ts``. A velocity
    profile is called once per time in ``ts``, and its pose is stepped
    from ``g0`` (the truth's own when None) with the observer's tableau.
    """
    nodes = np.arange(first, first + n_steps + 1) * h
    ts = np.empty(2 * n_steps + 1)
    ts[0::2] = nodes
    ts[1::2] = nodes[:-1] + 0.5 * h
    pick = np.append(np.add.outer(np.arange(0, 2 * n_steps, 2), _STAGE_TIMES), 2 * n_steps)
    if isinstance(truth, AnalyticTruth):
        g, xi, g_inv = truth.state_of(ts)
        return ts, pick, g[pick], xi[pick], None if g_inv is None else g_inv[pick]
    g = np.asarray(truth.g0 if g0 is None else g0, dtype=float)
    xi = np.stack([np.asarray(truth.velocity_of(float(t)), dtype=float) for t in ts])[pick]
    poses = []

    def f(pose, xi_t):
        poses.append(pose)
        return pose @ xi_t

    for k in range(0, 4 * n_steps, 4):
        g = _rk4(f, g, h, *[(x,) for x in xi[k:k + 4]])
    poses.append(g)
    return ts, pick, np.stack(poses), xi, None


@dataclass(frozen=True, eq=False)
class _TruthGrid:
    """The truth over a chunk of K steps.

    ``t``, ``g``, ``F`` and ``A`` hold the K + 1 step nodes (``F`` is one
    matrix for a constant model); ``steps[j]`` holds the inputs
    ``(A, xi_m, aux)`` of the four stages of step ``j``.
    """

    t: np.ndarray
    g: np.ndarray
    F: np.ndarray
    A: np.ndarray
    steps: list


def _truth_grid(
    config: SimConfig, first: int, n_steps: int, g0: np.ndarray | None
) -> _TruthGrid:
    """Evaluate the truth for steps ``first .. first + n_steps - 1``.

    ``g0`` is the pose at the chunk start for a velocity-profile truth
    (None at the run start). A singular matrix raises
    :class:`SingularityError` carrying its stage time.
    """
    kind, model, h = config.kind, config.model, config.step
    ts, pick, g, xi, g_inv = _sample_truth(config.truth, first, n_steps, h, g0)
    t = ts[pick]
    F = model.F
    F_dot = None
    if model.time_varying:
        F = np.stack([model.F_at(float(tt)) for tt in ts])[pick]
        if kind.time_varying:
            F_dot = np.stack([model.F_dot_at(float(tt)) for tt in ts])[pick]
    try:
        if model.side == "left":
            A = F @ g
        else:
            A = (mat_inv(g) if g_inv is None else g_inv) @ F
        aux = _truth_term(kind, A, F, F_dot)
    except SingularityError as exc:
        at = float(t[exc.member]) if isinstance(exc.member, int) else None
        raise SingularityError(
            f"{exc} at t={at}", sigma_min=exc.sigma_min, member=exc.member, t=at
        ) from None
    inputs = list(zip(A, xi + config.bias.matrix, repeat(None) if aux is None else aux))
    steps = [inputs[k:k + 4] for k in range(0, 4 * n_steps, 4)]
    return _TruthGrid(t[::4], g[::4], F if F.ndim == 2 else F[::4], A[::4], steps)


def _finite_real(x) -> bool:
    """A real number, not a bool, that a float holds finitely."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Everything one run needs, checked on construction.

    ``bounds`` may be a :class:`~lieobs.kinematics.Bounds`, the string
    ``"empirical"`` (sample the truth trajectory over the horizon), or
    None (same as empirical). ``lyapunov_epsilon`` selects the mixing
    weight for the recorded V: a number >= 0, ``"auto"`` (half the
    admissible bound, falling back to 0 when the gains admit none), or
    None for the plain decoupled quadratic (epsilon 0).

    The horizon is a whole number of steps; ``F`` (``F(0)`` if time
    varying), a velocity truth's ``g0`` and the finite initial estimates
    have the truth group's shape ``(n, n)``; the bias lies in its algebra,
    and so does the initial ``b_bar`` for every kind but I_mod.
    """

    kind: ObserverKind
    gains: Gains
    model: MeasurementModel
    bias: AlgebraElement
    initial_observer: ObserverState
    truth: AnalyticTruth | VelocityTruth
    horizon: float = 30.0
    step: float = 1e-3
    record_stride: int = 1
    bounds: Bounds | str | None = "empirical"
    lyapunov_epsilon: float | str | None = None
    strict_gains: bool = False

    def __post_init__(self):
        for name in ("horizon", "step"):
            if not _finite_real(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {getattr(self, name)!r}"
                )
        if self.step <= 0.0:
            raise ConfigurationError(f"step must be positive, got {self.step}")
        if self.horizon < self.step:
            raise ConfigurationError("horizon must be at least one step")
        n_steps = self.horizon / self.step
        if not (math.isfinite(n_steps)
                and abs(round(n_steps) * self.step - self.horizon) <= 1e-6 * self.step):
            raise ConfigurationError(
                f"horizon {self.horizon} is not an integer multiple of step {self.step}"
            )
        stride = self.record_stride
        if not (_finite_real(stride) and stride == int(stride) and stride >= 1):
            raise ConfigurationError(
                f"record_stride must be a positive integer, got {stride!r}"
            )
        if not (isinstance(self.bounds, Bounds) or self.bounds is None
                or self.bounds == "empirical"):
            raise ConfigurationError(f"unknown bounds mode {self.bounds!r}")
        eps = self.lyapunov_epsilon
        if not (eps is None or eps == "auto" or (_finite_real(eps) and eps >= 0.0)):
            raise ConfigurationError(
                f'lyapunov_epsilon must be a number >= 0, "auto" or None, got {eps!r}'
            )
        if not isinstance(self.strict_gains, bool):
            raise ConfigurationError(f"strict_gains must be a boolean, got {self.strict_gains!r}")

        group = self.truth.group
        n = group.ambient_n
        if self.bias.group is not group and (
            self.bias.group.name != group.name or self.bias.group.ambient_n != n
        ):
            raise ConfigurationError("bias algebra does not match the truth group")
        A_bar0, b0 = self.initial_observer.A_bar, self.initial_observer.b_matrix
        shapes = {"F": self.model.F_at(0.0), "initial A_bar": A_bar0, "initial b_bar": b0}
        if isinstance(self.truth, VelocityTruth):
            shapes["g0"] = self.truth.g0
        for name, m in shapes.items():
            if np.shape(m) != (n, n):
                raise ConfigurationError(f"{name} must have shape ({n}, {n}), got {np.shape(m)}")
        if not (np.isfinite(A_bar0).all() and np.isfinite(b0).all()):
            raise ConfigurationError("initial A_bar and b_bar must be finite")
        if self.kind.projected_bias and frob_norm(b0 - project_matrix(group, b0)) > 1e-8:
            raise ConfigurationError(
                "initial b_bar must lie in the algebra for this observer kind"
            )


@dataclass(frozen=True, eq=False)
class SimSample:
    """One recorded instant: truth, observer state, errors, diagnostics."""

    t: float
    g: np.ndarray
    A: np.ndarray
    A_bar: np.ndarray
    b_bar: np.ndarray
    errors: ErrorSample
    V: float | None = None

    @property
    def E_A(self) -> np.ndarray:
        return self.errors.E_A

    @property
    def e_b(self) -> np.ndarray:
        return self.errors.e_b

    @property
    def E_g(self) -> np.ndarray | None:
        return self.errors.E_g

    @property
    def script_E_A(self) -> np.ndarray | None:
        return self.errors.script_E_A


@dataclass(frozen=True, eq=False)
class SimRecord:
    """Simulation output: samples plus the resolved run constants."""

    config: SimConfig
    samples: list[SimSample]
    bounds: Bounds
    floor: float
    epsilon: float
    epsilon_fallback: bool = False


def _resolve_bounds(config: SimConfig) -> Bounds:
    if isinstance(config.bounds, Bounds):
        return config.bounds
    # The truth at the grid nodes, sampled as for the integration.
    n_steps = len(_bound_times(config.horizon, _BOUNDS_STEP)) - 1
    _, _, g, xi, _ = _sample_truth(config.truth, 0, n_steps, _BOUNDS_STEP, None)
    return _stacked_bounds(g[0::4], xi[0::4], bias_norm=frob_norm(config.bias.matrix))


def _resolve_epsilon(config: SimConfig, bounds: Bounds) -> tuple[float, bool]:
    """(epsilon, fallback_flag) for the recorded Lyapunov values."""
    eps = config.lyapunov_epsilon
    if eps is None:
        return 0.0, False
    if eps == "auto":
        if config.model.time_varying:
            return 0.0, True
        sug = suggested_epsilon(
            config.kind, config.gains, bounds, config.model.F_at(0.0)
        )
        if sug is None:
            return 0.0, True
        return sug, False
    return float(eps), False


def simulate(config: SimConfig) -> SimRecord:
    """Integrate one observer run and assemble its record.

    The gain floor is always computed; a proportional gain at or below it
    warns, or raises :class:`~lieobs.errors.GainFloorError` under
    ``strict_gains``. A singular ``A`` (kinds III/IV) or ``F`` raises
    :class:`~lieobs.errors.SingularityError` carrying its stage time.
    """
    kind = config.kind
    bounds = _resolve_bounds(config)
    floor = gain_floor(kind, bounds)
    if config.gains.k_P <= floor:
        msg = (
            f"k_P={config.gains.k_P} does not exceed the kind-{kind.value} "
            f"gain floor {floor:.6g}; convergence is not certified"
        )
        if config.strict_gains:
            raise GainFloorError(msg)
        warnings.warn(msg)
    epsilon, eps_fallback = _resolve_epsilon(config, bounds)

    b0_mat = config.initial_observer.b_matrix
    if kind.projected_bias:
        b0_mat = project_matrix(config.truth.group, b0_mat)
    n_steps = int(round(config.horizon / config.step))
    bias = config.bias
    samples: list[SimSample] = []

    def record(grid: _TruthGrid, k: int, Y: np.ndarray) -> None:
        t = float(grid.t[k])
        g = grid.g[k].copy()
        A = grid.A[k].copy()
        A_bar, b_mat = Y[0].copy(), Y[1].copy()
        F = grid.F if grid.F.ndim == 2 else grid.F[k]
        err = compute_errors(kind, TruthSample(t=t, g=g, b=bias, A=A),
                             ObserverState(A_bar, b_mat), F)
        try:
            V = lyapunov_value(kind, epsilon, err, A, config.gains)
        except DomainError:
            V = None
        samples.append(
            SimSample(t=t, g=g, A=A, A_bar=A_bar, b_bar=b_mat, errors=err, V=V)
        )

    rhs = _rhs_factory(kind, config.truth.group, config.gains.k_P, config.gains.k_I)
    stride = int(config.record_stride)
    h = config.step
    Y = np.array((config.initial_observer.A_bar, b0_mat), dtype=float)
    pose = None
    for first in range(0, n_steps, CHUNK_STEPS):
        grid = _truth_grid(config, first, min(CHUNK_STEPS, n_steps - first), pose)
        if first == 0:
            record(grid, 0, Y)
        for j, stages in enumerate(grid.steps):
            Y = _rk4(rhs, Y, h, *stages)
            if not np.isfinite(Y).all():
                t0 = float(grid.t[j])
                raise NumericalError(f"non-finite state after step from t={t0}", t=t0)
            if (first + j + 1) % stride == 0:
                record(grid, j + 1, Y)
        pose = grid.g[-1]

    return SimRecord(
        config=config,
        samples=samples,
        bounds=bounds,
        floor=floor,
        epsilon=epsilon,
        epsilon_fallback=eps_fallback,
    )
