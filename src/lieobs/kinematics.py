"""True-system kinematics: trajectories, measurements, landmark maps.

The plant is ``dg/dt = g xi(t)`` on a matrix Lie group, measured either on
the left (``A = F g``) or on the right (``A = g^-1 F``) through a constant
or time-varying invertible matrix ``F``. Landmark-style measurements give
rise to ``F`` via weighted stacking of homogeneous landmark columns.

The module also carries the closed-form SE(3) benchmark used across the
test suite and the CLI presets: a figure-like tumbling trajectory with
bounded velocity, plus a constant twist bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, ConstructionError, DimensionError, DomainError,
                     SingularityError)
from .liegroup import AlgebraElement, GroupSpec, algebra_basis_se3, hat_se3
from .matcore import _finite_real, frob_norm, mat_inv, singular_extremes

__all__ = [
    "LandmarkSet",
    "build_F",
    "se3_benchmark_landmarks",
    "MeasurementModel",
    "measure",
    "TruthSample",
    "Bounds",
    "AnalyticTruth",
    "VelocityTruth",
    "se3_benchmark_truth",
    "se3_benchmark_bias",
]


@dataclass(frozen=True, eq=False)
class LandmarkSet:
    """Homogeneous landmark columns S with a weight matrix W.

    ``construction`` selects how the measurement matrix is assembled:
    ``"SW"`` gives ``F = S W`` (W maps measurements back to ambient size,
    shape m x n) and ``"SWST"`` gives ``F = S W S^T`` (W is m x m).
    """

    S: np.ndarray
    W: np.ndarray
    construction: str = "SWST"

    def __post_init__(self):
        s = np.asarray(self.S, dtype=float)
        w = np.asarray(self.W, dtype=float)
        if s.ndim != 2 or w.ndim != 2:
            raise DimensionError("S and W must be 2-D arrays")
        if self.construction not in ("SW", "SWST"):
            raise ConfigurationError(
                f"construction must be 'SW' or 'SWST', got {self.construction!r}"
            )
        n, m = s.shape
        if self.construction == "SW" and w.shape != (m, n):
            raise DimensionError(
                f"W must have shape ({m}, {n}) for 'SW', got {w.shape}"
            )
        if self.construction == "SWST" and w.shape != (m, m):
            raise DimensionError(
                f"W must have shape ({m}, {m}) for 'SWST', got {w.shape}"
            )
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "W", w)


def build_F(landmarks: LandmarkSet) -> np.ndarray:
    """Assemble the measurement matrix from a landmark set.

    Raises
    ------
    ConstructionError
        If the assembled matrix is rank deficient, which happens exactly
        when the landmark configuration fails to span the ambient space.
    """
    s, w = landmarks.S, landmarks.W
    f = s @ w if landmarks.construction == "SW" else s @ w @ s.T
    return _full_rank(f, "landmark configuration")


def _full_rank(f: np.ndarray, what: str) -> np.ndarray:
    """``f``, or ConstructionError where ``mat_inv`` rejects it."""
    try:
        mat_inv(f)
    except SingularityError as exc:
        raise ConstructionError(
            f"{what} is degenerate (sigma_min={exc.sigma_min:.3e})", sigma_min=exc.sigma_min
        ) from None
    return f


def se3_benchmark_landmarks() -> LandmarkSet:
    """Five-landmark benchmark set: four points and one bearing.

    Columns are homogeneous: ``(e1,1), (e2,1), (e3,1), (e1+e3,1), (-e3,0)``
    with identity weights, so ``F = S S^T``.
    """
    cols = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    ).T
    return LandmarkSet(cols, np.eye(5), "SWST")


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Measurement side and matrix, possibly time varying.

    ``F`` is either a constant matrix or a callable ``t -> F(t)``; give
    ``F_dot`` as well when an observer needs the derivative feed-through.
    """

    side: str
    F: np.ndarray | Callable[[float], np.ndarray]
    F_dot: Callable[[float], np.ndarray] | None = None
    time_varying: bool = False

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ConfigurationError(f"side must be 'left' or 'right', got {self.side!r}")
        if self.time_varying:
            if not callable(self.F):
                raise ConfigurationError("time-varying model needs a callable F")
        else:
            if callable(self.F):
                raise ConfigurationError("constant model needs a matrix F")
            f = np.asarray(self.F, dtype=float)
            if f.ndim != 2 or f.shape[0] != f.shape[1]:
                raise DimensionError(f"F must be square, got shape {f.shape}")
            if not np.isfinite(f).all():
                raise ConfigurationError("F contains non-finite entries")
            object.__setattr__(self, "F", f)

    def F_at(self, t: float) -> np.ndarray:
        if self.time_varying:
            return np.asarray(self.F(t), dtype=float)
        return self.F

    def F_dot_at(self, t: float) -> np.ndarray:
        if not self.time_varying:
            return np.zeros_like(self.F)
        if self.F_dot is None:
            raise ConfigurationError("model has no F_dot but one was requested")
        return np.asarray(self.F_dot(t), dtype=float)


def measure(model: MeasurementModel, g: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Measured matrix: ``F(t) g`` on the left side, ``g^-1 F(t)`` on the right."""
    gm = np.asarray(g, dtype=float)
    f = model.F_at(t)
    if gm.shape != f.shape:
        raise DimensionError(f"g shape {gm.shape} does not match F shape {f.shape}")
    if model.side == "left":
        return f @ gm
    return mat_inv(gm) @ f


@dataclass(frozen=True, eq=False)
class TruthSample:
    """True system state at one instant, with the measurement alongside.

    The true and measured velocities ``xi`` and ``xi_m`` are optional:
    :func:`~lieobs.analysis.compute_errors` reads only ``t``, ``g``, ``b``
    and ``A``.
    """

    t: float
    g: np.ndarray
    b: AlgebraElement
    A: np.ndarray
    xi: AlgebraElement | None = None
    xi_m: AlgebraElement | None = None


@dataclass(frozen=True, eq=False)
class Bounds:
    """Envelope constants for gain selection.

    ``B_xi`` bounds the true velocity norm, ``B_b`` the bias norm, and
    ``L_g <= sigma(g(t)) <= U_g`` bounds the trajectory's singular values.
    """

    B_xi: float
    B_b: float
    L_g: float
    U_g: float

    def __post_init__(self):
        values = (self.B_xi, self.B_b, self.L_g, self.U_g)
        if not all(_finite_real(x) for x in values):
            raise ConfigurationError(f"bounds must be finite numbers, got {values!r}")
        if not (self.B_xi >= 0.0 and self.B_b >= 0.0):
            raise ConfigurationError("velocity and bias bounds must be nonnegative")
        if not 0.0 < self.L_g <= self.U_g:
            raise ConfigurationError("need 0 < L_g <= U_g")
        # The certificate constants use L_g^2 and U_g^2.
        if not (0.0 < self.L_g * self.L_g and self.U_g * self.U_g < math.inf):
            raise ConfigurationError("L_g^2 and U_g^2 must be positive and finite")


def _stacked_bounds(g: np.ndarray, xi: np.ndarray, bias_norm: float = 0.0) -> Bounds:
    """Envelope constants of pose and velocity samples, stacks ``(K, n, n)``.

    The velocity bound gets a margin of 5% so that sampling between grid
    points cannot fall outside it; the singular value extremes come from
    one stacked SVD and are taken as observed.
    """
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(xi))):
        raise DomainError("trajectory samples contain non-finite entries")
    smin, smax = singular_extremes(g)
    return Bounds(
        B_xi=1.05 * float(np.max(frob_norm(xi))),
        B_b=bias_norm,
        L_g=float(np.min(smin)),
        U_g=float(np.max(smax)),
    )


@dataclass(frozen=True, eq=False)
class AnalyticTruth:
    """Trajectory known in closed form.

    ``state_of(t)`` takes one time or a 1-D array of K times. It returns
    ``(g, xi_matrix, g_inv)``: matrices for a scalar, stacks with shape
    ``(K, n, n)`` for an array. The inverse slot may be ``None`` when no
    closed form is available. The simulator calls it once per chunk of
    integrator steps with every stage time of the chunk, and the
    empirical bounds once per chunk of their grid with its nodes alone,
    so a long horizon never holds more than one chunk of truth in memory.
    """

    group: GroupSpec
    state_of: Callable[[float | np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray | None]]


@dataclass(frozen=True, eq=False)
class VelocityTruth:
    """Trajectory defined by a velocity profile and an initial pose.

    ``velocity_of(t)`` takes one time. The simulator integrates the pose
    with the observer's Runge-Kutta tableau before it feeds the observer.
    """

    group: GroupSpec
    velocity_of: Callable[[float], np.ndarray]
    g0: np.ndarray


def _benchmark_state(t):
    """Benchmark pose, body twist, and pose inverse at a time or times.

    Rotation is the product of three elementary rotations with a shared
    angle, R = Rx(t) Rz(t) Rx(t); position traces (cos t, sin t, cos t).
    The body-frame angular velocity then has the closed form below, and
    the body-frame linear velocity is R^T xdot. Every entry is one
    elementwise formula, so an array of times gives stacks that equal
    the one-time results bit for bit.
    """
    t = np.asarray(t, dtype=float)
    c, s = np.cos(t), np.sin(t)
    cc, ss, sc = c * c, s * s, s * c
    # R = Rx(t) Rz(t) Rx(t) expanded entrywise.
    r00, r01, r02 = c, -sc, ss
    r10, r11, r12 = sc, cc * c - ss, -(cc * s) - sc
    r20, r21, r22 = ss, sc * c + sc, cc - c * ss
    # Body-frame linear velocity R^T xdot with xdot = (-s, c, -s).
    v0 = -s * r00 + c * r10 - s * r20
    v1 = -s * r01 + c * r11 - s * r21
    v2 = -s * r02 + c * r12 - s * r22
    # Inverse-pose translation -R^T x with x = (c, s, c).
    u0 = -(r00 * c + r10 * s + r20 * c)
    u1 = -(r01 * c + r11 * s + r21 * c)
    u2 = -(r02 * c + r12 * s + r22 * c)
    w1, w2, w3 = 1.0 + c, s - sc, c + ss

    def mat(*entries):
        # Entry by entry into one zeroed contiguous stack; None is zero.
        out = np.zeros(t.shape + (16,))
        for k, entry in enumerate(entries):
            if entry is not None:
                out[..., k] = entry
        return out.reshape(t.shape + (4, 4))

    g = mat(r00, r01, r02, c, r10, r11, r12, s, r20, r21, r22, c, None, None, None, 1.0)
    g_inv = mat(r00, r10, r20, u0, r01, r11, r21, u1, r02, r12, r22, u2, None, None, None, 1.0)
    xi = mat(None, -w3, w2, v0, w3, None, -w1, v1, -w2, w1, None, v2)
    return g, xi, g_inv


def se3_benchmark_truth() -> AnalyticTruth:
    """The benchmark trajectory packaged for the simulator."""
    return AnalyticTruth(algebra_basis_se3(), _benchmark_state)


def se3_benchmark_bias() -> AlgebraElement:
    """Constant twist bias used by the benchmark scenarios."""
    return AlgebraElement(
        algebra_basis_se3(),
        hat_se3(np.array([1.0, 0.5, -1.0]), np.array([0.5, -0.5, 0.5])),
    )
