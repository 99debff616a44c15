"""Observer vector fields for state and constant-bias estimation.

Seven variants share one structure: an ambient-space estimate ``A_bar`` of
the measured matrix ``A`` driven by a copy of the plant plus proportional
injection ``k_p (A - A_bar)``, and a bias estimate ``b_bar`` driven by the
integral channel. They differ in the measurement side, in whether the
integral channel is projected onto the Lie algebra, in whether the bias
update sees ``A^T`` or ``A^-1``, and in a feed-through term for
time-varying measurement matrices:

===========  =====  =========================  =====================
kind         side   bias update                extra state term
===========  =====  =========================  =====================
``I``        left   ``-k_i P(A^T E)``
``I_mod``    left   ``-k_i A^T E`` (ambient)
``I_tv``     left   ``-k_i P(A^T E)``          ``+ Fdot F^-1 A``
``II``       right  ``+k_i P(E A^T)``
``II_tv``    right  ``+k_i P(E A^T)``          ``+ A F^-1 Fdot``
``III``      left   ``-k_i P(A^-1 E)``
``IV``       right  ``+k_i P(E A^-1)``
===========  =====  =========================  =====================

with ``E = A - A_bar`` and ``P`` the algebra projection. Given the truth,
each of these vector fields is affine in the flat state
``y = (vec A_bar, vec b_bar, 1)``, and one builder,
:func:`_affine_operator`, turns a stack of stage entries into the
matrices ``M`` with ``dy/dt = y @ M``; the kind is dispatched once per
stack, not once per evaluation. ``A^-1`` and the feed-through depend on
the truth alone, so they are inputs of the builder rather than part of
it: the integrator computes them for a whole chunk of stage times at
once, from the same grid entry as the ``A`` they go with, and
:func:`observer_rhs` computes them for its single instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DimensionError
from .kinematics import Bounds
from .liegroup import AlgebraElement, GroupSpec
from .matcore import _finite_real, mat_inv

__all__ = [
    "ObserverKind",
    "Gains",
    "ObserverState",
    "observer_rhs",
    "gain_floor",
]


class ObserverKind(Enum):
    I = "I"
    I_MOD = "I_mod"
    I_TV = "I_tv"
    II = "II"
    II_TV = "II_tv"
    III = "III"
    IV = "IV"

    @property
    def side(self) -> str:
        """Measurement side: 'left' means A = F g, 'right' means A = g^-1 F."""
        return "left" if self in (
            ObserverKind.I,
            ObserverKind.I_MOD,
            ObserverKind.I_TV,
            ObserverKind.III,
        ) else "right"

    @property
    def projected_bias(self) -> bool:
        """Whether the bias state lives in the algebra (all kinds but I_mod)."""
        return self is not ObserverKind.I_MOD

    @property
    def time_varying(self) -> bool:
        return self in (ObserverKind.I_TV, ObserverKind.II_TV)

    @property
    def uses_inverse(self) -> bool:
        return self in (ObserverKind.III, ObserverKind.IV)

    @classmethod
    def from_label(cls, label: str) -> "ObserverKind":
        for kind in cls:
            if kind.value == label:
                return kind
        raise ConfigurationError(f"unknown observer kind {label!r}")


@dataclass(frozen=True)
class Gains:
    """Proportional and integral gains, both finite and strictly positive."""

    k_P: float
    k_I: float

    def __post_init__(self):
        if not all(_finite_real(k) and k > 0.0 for k in (self.k_P, self.k_I)):
            raise ConfigurationError(
                f"gains must be finite positive numbers, got k_P={self.k_P!r}, k_I={self.k_I!r}"
            )


@dataclass(frozen=True, eq=False)
class ObserverState:
    """Observer state: ambient estimate plus bias estimate.

    ``b_bar`` is an :class:`AlgebraElement` for algebra-valued kinds and a
    plain ambient matrix for kind I_mod.
    """

    A_bar: np.ndarray
    b_bar: AlgebraElement | np.ndarray

    @property
    def b_matrix(self) -> np.ndarray:
        if isinstance(self.b_bar, AlgebraElement):
            return self.b_bar.matrix
        return np.asarray(self.b_bar, dtype=float)


def _truth_term(
    kind: ObserverKind,
    A: np.ndarray,
    F: np.ndarray | None = None,
    F_dot: np.ndarray | None = None,
) -> np.ndarray | None:
    """The right-hand-side input that depends on the truth alone.

    ``A^-1`` for kinds III/IV, the feed-through ``Fdot F^-1 A`` (I_tv) or
    ``A F^-1 Fdot`` (II_tv) when ``F_dot`` is given, None otherwise. Works
    on one matrix or on stacks ``(..., n, n)``; a singular ``A`` or ``F``
    raises :class:`~lieobs.errors.SingularityError` naming the member.
    """
    if kind.uses_inverse:
        return mat_inv(A)
    if kind.time_varying and F_dot is not None:
        if kind.side == "left":
            return F_dot @ mat_inv(F) @ A
        return A @ mat_inv(F) @ F_dot
    return None


def _affine_operator(
    kind: ObserverKind,
    group: GroupSpec,
    k_p: float,
    k_i: float,
    A: np.ndarray,
    xi_m: np.ndarray,
    aux: np.ndarray | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The observer as one affine map per stage entry.

    Given the truth, every kind's vector field is affine in the flat state
    ``y = (vec A_bar, vec b_bar, 1)`` (row-major ``vec``, ``2 n^2 + 1``
    entries). This builds the transposed augmented operators ``M``, shape
    ``(S, 2 n^2 + 1, 2 n^2 + 1)``, with ``dy/dt = y @ M[s]``, for stacks
    of ``S`` stage entries: ``A`` and ``xi_m`` of shape ``(S, n, n)``, and
    ``aux`` the kind's :func:`_truth_term` (None where it has none; the
    time-varying kinds then skip the feed-through, which is zero for a
    constant measurement map). ``out``, a buffer of the result's shape,
    is overwritten entirely. Member ``s`` of a stack equals the build for
    entry ``s`` alone bit for bit.

    With ``P`` the algebra projection (the identity for I_mod) and ``W``
    the bias channel's ``A^T`` or ``A^-1``, a left-side kind has
    ``dA_bar = A_bar (xi_m - k_P) - A b_bar + k_P A`` and
    ``db_bar = k_I P(W A_bar) - k_I P(W A)``; a right-side kind has
    ``dA_bar = -(xi_m + k_P) A_bar + b_bar A + k_P A`` and
    ``db_bar = k_I P(A W) - k_I P(A_bar W)``. The feed-through adds to the
    constant of ``dA_bar``.
    """
    S, n = A.shape[0], A.shape[-1]
    nn = n * n
    if out is None:
        out = np.empty((S, 2 * nn + 1, 2 * nn + 1))
    out[...] = 0.0
    # Diagonals of the (S, n, n, n, n) views of the two dA_bar blocks:
    # [s, i, k, i, j] holds kron(I, B), the map vec(X) -> vec(X B), and
    # [s, k, j, i, j] holds kron(C^T, I), the map vec(X) -> vec(C X).
    state_a = out[:, :nn, :nn].reshape(S, n, n, n, n)
    bias_a = out[:, nn:2 * nn, :nn].reshape(S, n, n, n, n)
    eye = np.eye(n)
    proj = k_i * (group._projector if kind.projected_bias else np.eye(nn))
    W = aux if kind.uses_inverse else A.mT
    if kind.side == "left":
        np.einsum("sikij->sikj", state_a)[...] = (xi_m - k_p * eye)[:, None]
        np.einsum("skjij->skij", bias_a)[...] = -A.mT[:, :, :, None]
        # vec(W X) P = vec(X) kron(W^T, I) P, row (k, j) = sum_i W_ik P_(i, j).
        out[:, :nn, nn:2 * nn] = (W.mT @ proj.reshape(n, n * nn)).reshape(S, nn, nn)
    else:
        np.einsum("skjij->skij", state_a)[...] = -(xi_m + k_p * eye).mT[:, :, :, None]
        np.einsum("sikij->sikj", bias_a)[...] = A[:, None]
        # vec(X W) P = vec(X) kron(I, W) P, row (i, k) = sum_j W_kj P_(i, j).
        out[:, :nn, nn:2 * nn] = -(W[:, None] @ proj.reshape(n, n, nn)).reshape(S, nn, nn)
    const_a = k_p * A
    if kind.time_varying and aux is not None:
        const_a = const_a + aux
    out[:, -1, :nn] = const_a.reshape(S, nn)
    # The bias constant is minus the operator applied to A_bar = A, by the
    # vector-matrix product that applies it. Where that product adds the
    # constant row after the rest, an estimate on the truth then gets an
    # exactly zero bias derivative, as E = A - A_bar = 0 gives in the
    # vector field; the stationarity tests of observer_rhs check it.
    on_truth = np.zeros((S, 1, 2 * nn + 1))
    on_truth[:, 0, :nn] = A.reshape(S, nn)
    out[:, -1, nn:2 * nn] = -(on_truth @ out)[:, 0, nn:2 * nn]
    return out


def observer_rhs(
    kind: ObserverKind,
    state: ObserverState,
    A: np.ndarray,
    xi_m: AlgebraElement,
    gains: Gains,
    aux: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives ``(dA_bar/dt, db_bar/dt)`` for one observer kind.

    Parameters
    ----------
    state : ObserverState
        Current estimates.
    A : numpy.ndarray
        Current measurement, same shape as ``state.A_bar``.
    xi_m : AlgebraElement
        Measured (biased) velocity; also supplies the group.
    gains : Gains
    aux : tuple or None
        ``(F, F_dot)`` matrices, required by the time-varying kinds.

    Returns
    -------
    (dA_bar, db_bar) : pair of numpy.ndarray
        The bias derivative is an algebra matrix except for kind I_mod,
        where it ranges over the full ambient space.
    """
    group = xi_m.group
    n = group.ambient_n
    A = np.asarray(A, dtype=float)
    A_bar = np.asarray(state.A_bar, dtype=float)
    if A.shape != (n, n) or A_bar.shape != (n, n):
        raise DimensionError(
            f"A and A_bar must have shape ({n}, {n}), got {A.shape} and {A_bar.shape}"
        )
    b_mat = state.b_matrix
    if b_mat.shape != (n, n):
        raise DimensionError(f"b_bar must have shape ({n}, {n}), got {b_mat.shape}")
    F = F_dot = None
    if kind.time_varying:
        if aux is None:
            raise ConfigurationError(f"kind {kind.value} needs aux=(F, F_dot)")
        F = np.asarray(aux[0], dtype=float)
        F_dot = np.asarray(aux[1], dtype=float)
    aux = _truth_term(kind, A, F, F_dot)
    M = _affine_operator(kind, group, gains.k_P, gains.k_I, A[None], xi_m.matrix[None],
                         None if aux is None else aux[None])
    dy = np.concatenate((A_bar.ravel(), b_mat.ravel(), (1.0,))) @ M[0]
    return dy[:n * n].reshape(n, n), dy[n * n:-1].reshape(n, n)


def gain_floor(kind: ObserverKind, bounds: Bounds) -> float:
    """Smallest proportional gain with a convergence guarantee.

    Kinds that feed the inverse of the measurement into the bias channel
    pay for it with a doubled velocity term.
    """
    if kind.uses_inverse:
        return 2.0 * bounds.B_xi + bounds.B_b
    return bounds.B_xi + bounds.B_b

