"""Fixed-step integration of the observer against a truth trajectory.

Given the truth, every observer is a linear ODE in the flat state
``y = (vec A_bar, beta, 1)``: ``dy/dt = y @ M(t)`` with the operator of
an :class:`~lieobs.observers._OperatorWorkspace`, where ``beta`` holds the
bias in the coordinates of its own space (the algebra basis for the projected
kinds, so their ``b_bar`` stays in the algebra by construction, and the
ambient unit matrices for I_mod). On a linear ODE one classical RK4 step
is one matrix, ``y_{k+1} = y_k @ Phi_k``; a run then costs one
vector-matrix product per step. Nothing is renormalized or projected
back.

The step map is a polynomial in the four stage operators, regrouped
around half-step maps. With ``X_i = h/2 M_i`` and ``N_i = I + X_i``, the
tableau evaluates its stages at ``y``, ``y N1``, ``y S3`` and ``y S4``,
where ``S3 = I + h/2 N1 M2 = I + N1 X2`` and
``S4 = I + h S3 M3 = I + 2 S3 X3``, and its update
``Phi = I + h/6 (M1 + 2 N1 M2 + 2 S3 M3 + S4 M4)`` reads, term by term,
``I + ((N1 - I) + 2 (S3 - I) + (S4 - I) + (S4 N4 - S4))/3``, that is
``Phi = (N1 + 2 S3 + S4 N4 - I)/3``. The operator builder, made once
per run with the scale ``h/2``, emits the ``X_i`` directly, scaled
through its small inputs, and
:func:`_rk4_maps` forms ``Phi`` for a whole block of steps from three
stacked products and four full-stack passes.

The operators' inputs (``A``, the measured velocity, ``A^-1`` from
``F^-1`` and the pose, or the feed-through) depend on the truth alone.
One walk of the truth, :func:`_truth_chunks`, yields them chunk by chunk,
vectorised over ``CHUNK_STEPS`` steps, and the empirical bounds reduce
the node entries of the same walk over their own grid. A closed-form
truth is evaluated at the stage times, so no truth discretization error
enters the error signal; a velocity-profile truth is co-integrated with
the observer's own tableau.

Once per chunk, the truth at its recorded nodes is copied into the
record. A block of ``_BLOCK_STEPS`` steps is then one contiguous slice
of the chunk's entries, and does three things, each in a workspace made
once per run: it builds the half-step maps of the slice in one pass, in
the run's :class:`~lieobs.observers._OperatorWorkspace`, which holds the
gains, the scale and the bias coordinates and writes its structural
zeros and identity ones outside the velocity term once, so the block
writes only the entries that the truth changes, and its first- and
last-stage entries come out as ``N = I + X``; it builds its step
maps, from strided views of the stages, in a :class:`_StepMaps` that
adds their identities through diagonal views made once per block size;
and it advances its rows of the chunk's state buffer, one
``ndarray.dot`` per step (the method skips the dispatch of ``np.dot``),
through lists of state rows and step maps made once per run. The
chunk's states are checked for non-finite values once,
after its last step, and its recorded states are copied into the record,
``A_bar`` into a contiguous column of its own and ``b_bar = beta C``,
formed from the bias coordinates ``beta`` of the chunk's nodes, into
another, one assignment each. A run records columns, not samples, and
the record holds no errors:
:meth:`SimRecord.errors_and_V` computes the errors and Lyapunov values
of any slice of its rows from the columns, with temporaries the size
of the slice and a NaN row wherever a sample's error is absent. A run
therefore needs memory for its record and its workspaces, and an export
that walks the record a block at a time a few blocks more.
``SimRecord.samples`` views the columns and one such call, row by row,
with the call's norms, anew on each access.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import ErrorSample, _error_rows, compute_errors, lyapunov_value, suggested_epsilon
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
from .matcore import _finite_real, _guarded_inv, frob_norm, mat_inv
from .observers import (
    Gains,
    ObserverKind,
    ObserverState,
    _OperatorWorkspace,
    _feed_factor,
    _run_frame,
    _truth_term,
    gain_floor,
)

__all__ = ["rk4_step", "SimConfig", "SimSample", "SimRecord", "simulate"]

# Steps per truth chunk. A chunk holds a few stacks of 4 * CHUNK_STEPS + 1
# matrices (four stages per step, then the end node), so the memory a run
# needs does not grow with its horizon.
CHUNK_STEPS = 256
# Steps per block of affine operators. One workspace per run holds a
# block's operators, at most 4 * _BLOCK_STEPS matrices of (n^2 + m + 1)^2
# entries, and another its step maps and stage maps, 4 * _BLOCK_STEPS more.
# A block costs three calls whatever its size; at 32 steps the buffers
# take 2.2 MB for I_mod on SE(3) (33 x 33), and at 64 a co-integrated
# time-varying run would peak at 4.07 MB, past the bounded-memory test's
# 4 MB limit.
_BLOCK_STEPS = 32
# Grid spacing of the empirical bounds, unless the run's step is coarser.
_BOUNDS_STEP = 0.01


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

    def f(tt, y):
        return np.asarray(rhs(tt, y), dtype=float)

    y = np.asarray(state, dtype=float)
    tm = t + 0.5 * h
    k1 = f(t, y)
    k2 = f(tm, y + (0.5 * h) * k1)
    k3 = f(tm, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    out = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"non-finite state after step from t={t}", t=t)
    return out


class _StepMaps:
    """A buffer ``(3, steps, d, d)`` for :func:`_rk4_maps`: the step maps
    and the two stage maps, with the diagonal views through which the
    identities are added, made once for each block size."""

    def __init__(self, steps: int, dim: int):
        self.buf = np.empty((3, steps, dim, dim))
        self._views = {}

    def views(self, J: int) -> tuple[np.ndarray, ...]:
        """``(phi, S3, S4)`` over the first ``J`` steps, then their
        diagonals."""
        views = self._views.get(J)
        if views is None:
            buf = self.buf[:, :J]
            views = self._views[J] = (*buf, *np.einsum("...ii->...i", buf))
        return views


def _rk4_maps(n1, x2, x3, n4, out: _StepMaps):
    """The classical RK4 steps of the linear ODE ``dy/dt = y @ M(t)`` as
    matrices, for a block of J steps at once, from half-step maps.

    With ``X_i = h/2 M_i`` for the operators ``M1 .. M4`` at the four
    stages of each step and ``N_i = I + X_i``, the inputs are stacks
    ``(J, d, d)`` of ``N1``, ``X2``, ``X3`` and ``N4``. Returns
    ``(phi, (2 S3, S4))``: the step maps, with ``y_{k+1} = y_k @ phi[k]``
    the RK4 update of ``y_k``, and the stage maps, with ``y_k @ S_i`` the
    state at which the step evaluates its i-th stage (the first is
    ``y_k`` itself and the second ``y_k @ N1``). ``S3`` comes doubled,
    as the step reads it; halving it is exact.

    The tableau's stages are ``K1 = M1``, ``K2 = N1 M2``,
    ``K3 = S3 M3`` with ``S3 = I + h/2 K2 = I + N1 X2``, and
    ``K4 = S4 M4`` with ``S4 = I + h K3 = I + 2 S3 X3``; the step is
    ``phi = I + h/6 (K1 + 2 K2 + 2 K3 + K4)``. In half-step maps,
    ``h/6 K1 = (N1 - I)/3``, ``h/6 2 K2 = 2 (S3 - I)/3``,
    ``h/6 2 K3 = (S4 - I)/3`` and ``h/6 K4 = (S4 N4 - S4)/3``, so
    ``phi = (N1 + 2 S3 + S4 N4 - I)/3``: the same three stacked products
    as the tableau, with four full-stack passes around them and three
    passes over diagonals. The results are views of ``out``, a
    :class:`_StepMaps` with room for J steps.
    """
    phi, s3, s4, phi_diag, s3_diag, s4_diag = out.views(len(n1))
    np.matmul(n1, x2, out=s3)
    s3_diag += 1.0
    s3 *= 2.0
    np.matmul(s3, x3, out=s4)
    s4_diag += 1.0
    np.matmul(s4, n4, out=phi)
    phi += s3
    phi += n1
    phi_diag -= 1.0
    phi *= 1.0 / 3.0
    return phi, (s3, s4)


def _rhs_factory(maps: list[np.ndarray]):
    """The observer's advance over a block of steps: ``advance(rows)``
    sets ``rows[k + 1] = rows[k] @ maps[k]`` in place, for a list
    ``maps`` of :func:`_rk4_maps` step maps and a list ``rows`` of state
    rows, one more than the maps. A run makes both lists once and passes
    slices of them. One block is one call, so this is where a run
    advances its state, and where the benchmark's tracer counts and times
    it."""

    def advance(rows):
        for y, y_next, phi in zip(rows, rows[1:], maps):
            y.dot(phi, out=y_next)

    return advance


# A step's four stages sit at its start node, its midpoint twice, and its
# end node: offsets into the distinct stage times node, midpoint, node, ...
_STAGE_TIMES = (0, 1, 1, 2)


def _per_step(truth: AnalyticTruth | VelocityTruth) -> int:
    """Entries per step of :func:`_truth_chunks`: a closed-form truth's
    node and midpoint, or a co-integrated one's four stage poses."""
    return 4 if isinstance(truth, VelocityTruth) else 2


def _each_time(fn: Callable[[float], np.ndarray], ts: np.ndarray) -> np.ndarray:
    """``fn(t)`` stacked over ``ts``, each ``t`` a float: the one loop over
    times of a truth callable. Outputs of differing shapes raise
    ``ValueError``."""
    return np.array([fn(t) for t in ts.tolist()], dtype=float)


def _truth_chunks(truth: AnalyticTruth | VelocityTruth, n_steps: int, h: float):
    """The truth over ``n_steps`` steps of size ``h`` (the start node alone
    for none), as ``(first, ts, at, g, xi, g_inv)`` per chunk of
    ``K <= CHUNK_STEPS`` steps from step ``first``.

    ``ts`` holds the ``2 K + 1`` distinct times, each node then its step's
    midpoint, and the end node. ``g``, ``xi`` and ``g_inv`` (None without a
    closed form) hold the entries in step order, :func:`_per_step` per step
    and the end node last, entry k at ``ts[at[k]]``. A closed-form truth
    has one entry per time, from one ``state_of`` call; a step's stages read
    them at offsets ``_STAGE_TIMES``. A velocity profile is called once per
    time, and its pose is stepped from ``g0``, and on from chunk to chunk,
    with the observer's tableau: a :func:`_rk4_maps` step map per step
    from the half-step maps of ``h/2 xi``, and one entry per stage pose.
    One workspace holds a chunk's step maps for the whole walk.
    """
    g = None if isinstance(truth, AnalyticTruth) else np.asarray(truth.g0, dtype=float)
    maps = None if g is None else _StepMaps(CHUNK_STEPS, len(g))
    for first in range(0, max(n_steps, 1), CHUNK_STEPS):
        K = min(CHUNK_STEPS, n_steps - first)
        nodes = np.arange(first, first + K + 1) * h
        ts = np.empty(2 * K + 1)
        ts[0::2] = nodes
        ts[1::2] = nodes[:-1] + 0.5 * h
        if g is None:
            yield (first, ts, np.arange(len(ts)), *truth.state_of(ts))
            continue
        xi = _each_time(truth.velocity_of, ts)
        half = (0.5 * h) * xi
        node_maps = half[0::2] + np.eye(len(g))
        phi, stages = _rk4_maps(node_maps[:-1], half[1::2], half[1::2], node_maps[1:], maps)
        poses = np.empty((4 * K + 1,) + g.shape)
        node_poses = poses[0::4]
        node_poses[0] = g
        for k in range(K):
            node_poses[k].dot(phi[k], out=node_poses[k + 1])
        for i, s in enumerate((node_maps[:-1], *stages), 1):
            np.matmul(node_poses[:-1], s, out=poses[i::4])
        # The third stage read 2 S3; halving its poses is exact.
        poses[2::4] *= 0.5
        at = np.append(np.add.outer(np.arange(0, 2 * K, 2), _STAGE_TIMES), 2 * K)
        yield first, ts, at, poses, xi[at], None
        g = poses[-1]


def _at_times(times: np.ndarray, build, *args):
    """``build(*args)``, with a :class:`SingularityError` re-raised naming
    the time ``times[member]`` of its singular member."""
    try:
        return build(*args)
    except SingularityError as exc:
        at_t = float(times[exc.member]) if isinstance(exc.member, int) else None
        raise SingularityError(
            f"{exc} at t={at_t}", sigma_min=exc.sigma_min, member=exc.member, t=at_t
        ) from None


def _truth_grid(config: SimConfig, chunk: tuple) -> tuple[np.ndarray, ...]:
    """The observer's inputs over one ``chunk`` of :func:`_truth_chunks`;
    a singular matrix raises :class:`SingularityError` with its stage time.

    Returns ``(t, g, F, A, xi_m, aux)`` per entry of the chunk: ``F`` is one
    matrix for a constant model, ``A`` the measurement, ``xi_m`` the
    measured velocity and ``aux`` the kind's truth term (or None), the last
    three in the frame of the one set of observer formulas
    (:func:`~lieobs.observers._run_frame`). ``t``, ``g`` and ``F`` stay in
    the user's frame.

    The measurement is formed once, as ``A = pose^-1 F`` with
    ``A^-1 = F^-1 pose`` and ``xi_m = xi + b``. A left kind's ``A = F g``
    runs as its transposed problem: it substitutes ``pose^-1 = g^T``,
    ``pose = g^-T``, ``F^T`` and ``Fdot^T`` for ``F`` and ``Fdot``, and
    ``-xi_m^T``. ``F`` is inverted once per distinct time, not per entry:
    once for a constant model, once per stage time for a time-varying one,
    for the feed-through of I_tv/II_tv or for kinds III/IV. ``A`` alone is
    inverted where there is no ``pose`` (a left kind on a truth without a
    closed-form ``g^-1``) or where a member of ``F`` fails its guard.
    Either way ``mat_inv``'s conditioning guard judges ``A`` itself, so a
    singular ``A`` raises at the same stage time and member.
    """
    kind, model = config.kind, config.model
    _, ts, at, g, xi, g_inv = chunk
    t = ts[at]
    F = model.F
    feed = F_inv = None
    if model.time_varying:
        F = _each_time(model.F_at, ts)
        if kind.time_varying:
            feed = _at_times(ts, _feed_factor, _run_frame(kind, F),
                             _run_frame(kind, _each_time(model.F_dot_at, ts)))[at]
    if kind.uses_inverse:
        F_inv, F_bad = _guarded_inv(_run_frame(kind, F))
        F_inv = None if F_bad.any() else F_inv[at] if model.time_varying else F_inv
    if model.time_varying:
        F = F[at]
    if kind.side == "left":
        pose_inv, pose = g.mT, None if g_inv is None else g_inv.mT
    else:
        pose_inv, pose = _at_times(t, mat_inv, g) if g_inv is None else g_inv, g
    A = pose_inv @ _run_frame(kind, F)
    A_inv = None if F_inv is None or pose is None else F_inv @ pose
    aux = _at_times(t, _truth_term, kind, A, feed, A_inv)
    return t, g, F, A, _run_frame(kind, xi + config.bias.matrix, algebra=True), aux


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
    """One recorded instant: its time, the truth pose and the errors."""

    t: float
    g: np.ndarray
    errors: ErrorSample


@dataclass(frozen=True, eq=False)
class SimRecord:
    """Simulation output: the recorded columns plus the resolved run constants.

    Row k of each column is the k-th recorded instant: ``t`` has shape
    ``(K,)``; ``g``, ``A``, ``A_bar`` and ``b_bar`` have ``(K, n, n)``;
    ``F`` is the model's one matrix, or ``(K, n, n)`` where it varies.
    The errors and Lyapunov values are functions of these columns and
    the constants, and :meth:`errors_and_V` is the one way to get them,
    for any slice of rows. The record keeps nothing it derives from its
    columns.
    """

    config: SimConfig
    t: np.ndarray
    g: np.ndarray
    A: np.ndarray
    A_bar: np.ndarray
    b_bar: np.ndarray
    F: np.ndarray
    bounds: Bounds
    floor: float
    epsilon: float
    epsilon_fallback: bool = False

    def errors_and_V(self, rows: slice = slice(None)) -> tuple[ErrorSample, np.ndarray]:
        """The errors, a stacked :class:`~lieobs.analysis.ErrorSample`, and
        the Lyapunov values (NaN where a row has none) of the rows ``rows``,
        each row's bit for bit the same whatever the slice. Both are
        computed on each call, with temporaries the size of the slice."""
        kind, A = self.config.kind, self.A[rows]
        F = self.F[rows] if self.config.model.time_varying else self.F
        errors = compute_errors(kind, TruthSample(t=self.t[rows], g=self.g[rows],
                                                  b=self.config.bias, A=A),
                                ObserverState(self.A_bar[rows], self.b_bar[rows]), F)
        return errors, lyapunov_value(kind, self.epsilon, errors, A, self.config.gains)

    @property
    def samples(self) -> list[SimSample]:
        """The rows as one :class:`SimSample` each, from one whole-record
        :meth:`errors_and_V` call on every access, so a caller reads it
        once. Each sample's arrays are views of ``g`` and of that call's
        stacks, and its norms are the stack's; an absent ``E_g`` or script
        error stays NaN."""
        err, _ = self.errors_and_V()
        return [SimSample(row.t, g, row) for row, g in zip(_error_rows(err), self.g)]


def _resolve_bounds(config: SimConfig) -> Bounds:
    if isinstance(config.bounds, Bounds):
        return config.bounds
    # The node entries of the run's own truth walk on a grid 0, h, 2h, ...
    # up to the horizon, no finer than the run's, reduced chunk by chunk.
    # The node count is np.arange's for that grid, with both terms halved
    # so that no horizon overflows.
    h = max(_BOUNDS_STEP, config.step)
    n_steps = math.ceil((0.5 * config.horizon + 0.25 * h) / (0.5 * h)) - 1
    bias_norm = frob_norm(config.bias.matrix)
    nodes = slice(0, None, _per_step(config.truth))
    b_xi, l_g, u_g = 0.0, math.inf, 0.0
    for _, _, _, g, xi, _ in _truth_chunks(config.truth, n_steps, h):
        part = _stacked_bounds(g[nodes], xi[nodes], bias_norm)
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


def _record_columns(config: SimConfig) -> tuple[np.ndarray, ...]:
    """The record's columns ``(t, g, A, A_bar, b_bar, F)``, in the order of
    :class:`SimRecord`'s fields, allocated for every recorded row: ``F`` is
    the model's constant matrix unless it varies. ``A_bar`` and ``b_bar``
    are contiguous columns of their own. A record past numpy's largest
    array raises ``MemoryError``, as one past the memory does."""
    n_rows = int(round(config.horizon / config.step)) // int(config.record_stride) + 1
    n = config.truth.group.ambient_n
    try:
        g_col, A_col = np.empty((2, n_rows, n, n))
    except ValueError as exc:  # "array is too big", "Maximum allowed dimension exceeded"
        raise MemoryError(f"a record of {n_rows:.4g} rows cannot be allocated: {exc}") from None
    F_col = np.empty((n_rows, n, n)) if config.model.time_varying else config.model.F
    return (np.empty(n_rows), g_col, A_col, np.empty((n_rows, n, n)), np.empty((n_rows, n, n)),
            F_col)


def _integrate(config: SimConfig, columns: tuple[np.ndarray, ...]) -> None:
    """Steps the observer of ``config`` over its horizon and fills the
    :func:`_record_columns` ``columns``, chunk by chunk: ``b_bar = beta C``
    is formed from the chunk's bias coordinates ``beta``.

    One workspace per run builds a block's operators and one holds its
    step maps; both lists that the advance reads, of state rows and of
    step maps, are made once per run too.
    """
    h = config.step
    n_steps = int(round(config.horizon / h))
    # A stride past the last step records the start node alone.
    stride = min(int(config.record_stride), n_steps + 1)
    # A closed-form truth's stages read its node and midpoint entries, and
    # its end node; a co-integrated one has an entry per stage. The first
    # and last stages take the identity: every node, or stages 1 and 4 of
    # every step.
    per = _per_step(config.truth)
    shared_mid = per == 2
    offsets = _STAGE_TIMES if shared_mid else range(4)
    first_last = (slice(0, None, 2),) if shared_mid else (slice(0, None, 4), slice(3, None, 4))
    ops = _OperatorWorkspace(config.kind, config.truth.group, config.gains,
                             per * _BLOCK_STEPS + shared_mid, first_last, 0.5 * h)
    t_col, g_col, A_col, A_bar_col, b_bar_col, F_col = columns
    n, dim = config.truth.group.ambient_n, ops.dim
    nn = n * n

    maps = _StepMaps(_BLOCK_STEPS, dim)
    ys = np.empty((CHUNK_STEPS + 1, dim))
    state_rows, phi_rows = list(ys), list(maps.buf[0])
    A_bar0 = np.asarray(config.initial_observer.A_bar, dtype=float)
    ys[0] = np.concatenate((np.ravel(_run_frame(config.kind, A_bar0)),
                            ops.coords @ config.initial_observer.b_matrix.ravel(), (1.0,)))
    for chunk in _truth_chunks(config.truth, n_steps, h):
        first = chunk[0]
        t, g, F, A, xi_m, aux = _truth_grid(config, chunk)
        n_chunk = len(t) // per
        nodes = np.arange(0 if first == 0 else 1, n_chunk + 1)
        nodes = nodes[(first + nodes) % stride == 0]
        rows, at = (first + nodes) // stride, per * nodes
        t_col[rows], g_col[rows], A_col[rows] = t[at], g[at], _run_frame(config.kind, A[at])
        if config.model.time_varying:
            F_col[rows] = F[at]
        # An overflowing state is reported by the check below, not by numpy.
        with np.errstate(over="ignore", invalid="ignore"):
            for j0 in range(0, n_chunk, _BLOCK_STEPS):
                J = min(_BLOCK_STEPS, n_chunk - j0)
                e0, e1 = per * j0, per * (j0 + J) + shared_mid
                X = ops.fill(A[e0:e1], xi_m[e0:e1], None if aux is None else aux[e0:e1])
                _rk4_maps(*(X[o:o + per * J:per] for o in offsets), out=maps)
                _rhs_factory(phi_rows[:J])(state_rows[j0:j0 + J + 1])
        bad = ~np.isfinite(ys[1:n_chunk + 1]).all(axis=1)
        if bad.any():
            t0 = float(t[per * int(bad.argmax())])
            raise NumericalError(f"non-finite state after step from t={t0}", t=t0)
        A_bar_col[rows] = _run_frame(config.kind, ys[nodes, :nn].reshape(len(nodes), n, n))
        # numpy rounds a one-row product on its vector path, which differs
        # from its matrix path; over every node of the chunk, at least two,
        # each row's b_bar is the same whatever the stride.
        b_bar_col[rows] = (ys[:n_chunk + 1, nn:-1] @ ops.coords)[nodes].reshape(len(nodes), n, n)
        ys[0] = ys[n_chunk]
        # The chunk is freed before the next one is made.
        del chunk, t, g, F, A, xi_m, aux


def simulate(config: SimConfig) -> SimRecord:
    """Integrate one observer run and assemble its record.

    The gain floor is always computed; a proportional gain at or below it
    warns, or raises :class:`~lieobs.errors.GainFloorError` under
    ``strict_gains``. A singular ``A`` (kinds III/IV) or ``F`` raises
    :class:`~lieobs.errors.SingularityError` carrying its stage time. The
    record is allocated first, so one too large to allocate raises
    ``MemoryError`` before the empirical bounds walk the horizon.
    """
    kind = config.kind
    columns = _record_columns(config)
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

    _integrate(config, columns)
    return SimRecord(config, *columns, bounds=bounds, floor=floor, epsilon=epsilon,
                     epsilon_fallback=eps_fallback)
