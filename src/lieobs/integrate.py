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
would feed the observer. A run records columns, not samples: each chunk
copies its recorded nodes and observer states into the record, and the
errors and Lyapunov values of the whole record are computed in one call
each after the last step, with a NaN row wherever a sample's error is
absent. ``SimRecord.samples`` builds the per-sample objects from the
columns on first access.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable

import numpy as np

from .analysis import ErrorSample, compute_errors, lyapunov_value, suggested_epsilon
from .errors import (
    ConfigurationError,
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
    _stacked_bounds,
)
from .liegroup import AlgebraElement, project_matrix
from .matcore import _finite_real, frob_norm, mat_inv
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
# Grid spacing of the empirical bounds, unless the run's step is coarser.
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


def _truth_chunks(truth: AnalyticTruth | VelocityTruth, n_steps: int, h: float):
    """Yields ``(first, _sample_truth(...))`` for each chunk of ``n_steps``
    steps of size ``h`` (the start node alone for none), carrying a velocity
    truth's pose from each chunk's end node to the next."""
    pose = None
    for first in range(0, max(n_steps, 1), CHUNK_STEPS):
        sample = _sample_truth(truth, first, min(CHUNK_STEPS, n_steps - first), h, pose)
        yield first, sample
        pose = sample[2][-1]


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


def _truth_grid(config: SimConfig, sample: tuple) -> _TruthGrid:
    """The observer's inputs over one chunk ``sample`` of the truth; a
    singular matrix raises :class:`SingularityError` with its stage time."""
    kind, model = config.kind, config.model
    ts, pick, g, xi, g_inv = sample
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
    steps = [inputs[k:k + 4] for k in range(0, len(inputs) - 1, 4)]
    return _TruthGrid(t[::4], g[::4], F if F.ndim == 2 else F[::4], A[::4], steps)


def _kind_side(kind: ObserverKind, side: str) -> str:
    """A model's ``side``, which must be the kind's measurement side."""
    if side != kind.side:
        raise ConfigurationError(
            f"model side {side!r} conflicts with kind {kind.value} ({kind.side}-measurement)"
        )
    return side


def _strict_flag(value) -> bool:
    """A ``strict_gains`` value: a bool, nothing coerced."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"strict_gains must be a boolean, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Everything one run needs, checked on construction.

    ``bounds`` may be a :class:`~lieobs.kinematics.Bounds` or the string
    ``"empirical"`` (sample the truth trajectory over the horizon).
    ``lyapunov_epsilon``, the mixing weight for the recorded V, is a number
    >= 0 (0: the plain decoupled quadratic) or ``"auto"`` (half the
    admissible bound, falling back to 0 when the gains admit none).

    The horizon is a whole number of steps; the model measures on the
    kind's side and, for I_tv and II_tv on a time-varying model, has an
    ``F_dot``; ``F`` (``F(0)`` if time varying), a velocity truth's
    ``g0`` and ``velocity_of(0)`` and the finite initial estimates have
    the truth group's shape ``(n, n)``; the bias and ``velocity_of(0)``
    lie in its algebra, and so does the initial ``b_bar`` for every kind
    but I_mod.
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
    bounds: Bounds | str = "empirical"
    lyapunov_epsilon: float | str = 0.0
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
        if not (isinstance(self.bounds, Bounds) or self.bounds == "empirical"):
            raise ConfigurationError(f"unknown bounds mode {self.bounds!r}")
        eps = self.lyapunov_epsilon
        if not (eps == "auto" or (_finite_real(eps) and eps >= 0.0)):
            raise ConfigurationError(
                f'lyapunov_epsilon must be a number >= 0 or "auto", got {eps!r}'
            )
        _strict_flag(self.strict_gains)

        _kind_side(self.kind, self.model.side)
        if self.kind.time_varying and self.model.time_varying and self.model.F_dot is None:
            raise ConfigurationError(f"kind {self.kind.value} needs a model with F_dot")
        group = self.truth.group
        n = group.ambient_n
        if self.bias.group is not group and (
            self.bias.group.name != group.name or self.bias.group.ambient_n != n
        ):
            raise ConfigurationError("bias algebra does not match the truth group")
        A_bar0, b0 = self.initial_observer.A_bar, self.initial_observer.b_matrix
        shapes = {"F": self.model.F_at(0.0), "initial A_bar": A_bar0, "initial b_bar": b0}
        velocity = isinstance(self.truth, VelocityTruth)
        if velocity:
            shapes["g0"] = self.truth.g0
            shapes["velocity_of(0)"] = xi0 = np.asarray(self.truth.velocity_of(0.0), dtype=float)
        for name, m in shapes.items():
            if np.shape(m) != (n, n):
                raise ConfigurationError(f"{name} must have shape ({n}, {n}), got {np.shape(m)}")
        if velocity and not frob_norm(xi0 - project_matrix(group, xi0)) <= 1e-10:
            raise ConfigurationError("velocity_of(0) is not in the truth group's algebra")
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
    V: float


@dataclass(frozen=True, eq=False)
class SimRecord:
    """Simulation output: the recorded columns plus the resolved run constants.

    Row k of each column is the k-th recorded instant: ``t`` has shape
    ``(K,)``; ``g``, ``A``, ``A_bar`` and ``b_bar`` have ``(K, n, n)``;
    ``errors`` is a stacked :class:`~lieobs.analysis.ErrorSample`, and
    ``V`` holds the Lyapunov values, NaN where a sample has none.
    """

    config: SimConfig
    t: np.ndarray
    g: np.ndarray
    A: np.ndarray
    A_bar: np.ndarray
    b_bar: np.ndarray
    errors: ErrorSample
    V: np.ndarray
    bounds: Bounds
    floor: float
    epsilon: float
    epsilon_fallback: bool = False

    @cached_property
    def samples(self) -> list[SimSample]:
        """The columns as one :class:`SimSample` per row, built on first
        access. Each sample owns copies of its rows; an absent ``E_g``,
        script error or ``V`` stays NaN."""
        err = self.errors
        errs = (err.E_A, err.e_b, err.E_g, err.script_E_A)
        return [
            SimSample(
                t=t, g=self.g[k].copy(), A=self.A[k].copy(), A_bar=self.A_bar[k].copy(),
                b_bar=self.b_bar[k].copy(), V=V,
                errors=ErrorSample(t, *(col[k].copy() for col in errs)),
            )
            for k, (t, V) in enumerate(zip(self.t.tolist(), self.V.tolist()))
        ]


def _resolve_bounds(config: SimConfig) -> Bounds:
    if isinstance(config.bounds, Bounds):
        return config.bounds
    # The truth at the nodes 0, h, 2h, ... up to the horizon of a grid no
    # finer than the run's own, sampled as for the integration and reduced
    # chunk by chunk. The node count is np.arange's for that grid, with
    # both terms halved so that no horizon overflows.
    h = max(_BOUNDS_STEP, config.step)
    n_steps = math.ceil((0.5 * config.horizon + 0.25 * h) / (0.5 * h)) - 1
    bias_norm = frob_norm(config.bias.matrix)
    b_xi, l_g, u_g = 0.0, math.inf, 0.0
    for _, (_, _, g, xi, _) in _truth_chunks(config.truth, n_steps, h):
        part = _stacked_bounds(g[0::4], xi[0::4], bias_norm)
        b_xi, l_g, u_g = max(b_xi, part.B_xi), min(l_g, part.L_g), max(u_g, part.U_g)
    return Bounds(B_xi=b_xi, B_b=bias_norm, L_g=l_g, U_g=u_g)


def _resolve_epsilon(config: SimConfig, bounds: Bounds) -> tuple[float, bool]:
    """(epsilon, fallback_flag) for the recorded Lyapunov values."""
    eps = config.lyapunov_epsilon
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
    stride = int(config.record_stride)
    n = config.truth.group.ambient_n
    n_rows = n_steps // stride + 1
    t_col = np.empty(n_rows)
    g_col, A_col = np.empty((2, n_rows, n, n))
    F_col = np.empty((n_rows, n, n)) if config.model.time_varying else config.model.F
    Y_col = np.empty((n_rows, 2, n, n))

    rhs = _rhs_factory(kind, config.truth.group, config.gains.k_P, config.gains.k_I)
    h = config.step
    Y = np.array((config.initial_observer.A_bar, b0_mat), dtype=float)
    Y_col[0] = Y
    r = 1
    for first, sample in _truth_chunks(config.truth, n_steps, h):
        grid = _truth_grid(config, sample)
        nodes = [0] if first == 0 else []
        for j, stages in enumerate(grid.steps):
            Y = _rk4(rhs, Y, h, *stages)
            if not np.isfinite(Y).all():
                t0 = float(grid.t[j])
                raise NumericalError(f"non-finite state after step from t={t0}", t=t0)
            if (first + j + 1) % stride == 0:
                Y_col[r] = Y
                r += 1
                nodes.append(j + 1)
        rows = slice(r - len(nodes), r)
        t_col[rows], g_col[rows], A_col[rows] = grid.t[nodes], grid.g[nodes], grid.A[nodes]
        if config.model.time_varying:
            F_col[rows] = grid.F[nodes]

    errors = compute_errors(kind, TruthSample(t=t_col, g=g_col, b=config.bias, A=A_col),
                            ObserverState(Y_col[:, 0], Y_col[:, 1]), F_col)
    return SimRecord(
        config=config,
        t=t_col,
        g=g_col,
        A=A_col,
        A_bar=Y_col[:, 0],
        b_bar=Y_col[:, 1],
        errors=errors,
        V=lyapunov_value(kind, epsilon, errors, A_col, config.gains),
        bounds=bounds,
        floor=floor,
        epsilon=epsilon,
        epsilon_fallback=eps_fallback,
    )
