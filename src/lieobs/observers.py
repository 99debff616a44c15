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

with ``E = A - A_bar`` and ``P`` the algebra projection. ``A^-1`` and the
feed-through depend on the truth alone, so they are inputs of the kernels
rather than part of them: the integrator computes them for a whole chunk
of stage times at once, from the same grid entry as the ``A`` they go
with, and :func:`observer_rhs` computes them for its single instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DimensionError
from .kinematics import Bounds
from .liegroup import AlgebraElement, GroupSpec, project_matrix
from .matcore import mat_inv

__all__ = [
    "ObserverKind",
    "Gains",
    "ObserverState",
    "observer_rhs",
    "gain_floor",
    "estimate_g",
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
        if not (0.0 < self.k_P < math.inf and 0.0 < self.k_I < math.inf):
            raise ConfigurationError(
                f"gains must be finite and positive, got k_P={self.k_P}, k_I={self.k_I}"
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


@lru_cache(maxsize=256)
def _rhs_factory(kind: ObserverKind, group: GroupSpec, k_p: float, k_i: float):
    """Build the derivative kernel for one observer kind.

    Resolving the kind dispatch once matters: the integrator calls the
    result four times per step. Every kernel maps the stacked state
    ``Y = (A_bar, b_bar)``, shape ``(2, n, n)``, and the stage inputs
    ``(A, xi_m_mat, aux)`` to ``dY/dt`` of the same shape, where ``aux``
    is the kind's :func:`_truth_term`. The time-varying kinds skip their
    feed-through when ``aux`` is None, which callers use to signal a
    constant measurement map; the term is identically zero there. Every
    input may also be a stack, ``Y`` of shape ``(2, N, n, n)`` and the
    others ``(N, n, n)``, which gives each member's derivative bit for bit.
    """

    left, feed, inverse = kind.side == "left", kind.time_varying, kind.uses_inverse
    if kind.projected_bias:
        def proj(m):
            return project_matrix(group, m)
    else:
        def proj(m):
            return m

    def rhs(Y, A, xi_m_mat, aux=None):
        A_bar, b_mat = Y[0], Y[1]
        E = A - A_bar
        if left:
            dA = A_bar @ xi_m_mat - A @ b_mat + k_p * E
            db = -k_i * proj((aux if inverse else A.mT) @ E)
        else:
            dA = -(xi_m_mat @ A_bar) + b_mat @ A + k_p * E
            db = k_i * proj(E @ (aux if inverse else A.mT))
        if feed and aux is not None:
            dA = dA + aux
        return np.array((dA, db))

    return rhs


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
    rhs = _rhs_factory(kind, group, gains.k_P, gains.k_I)
    dY = rhs(np.array((A_bar, b_mat)), A, xi_m.matrix, _truth_term(kind, A, F, F_dot))
    return dY[0], dY[1]


def gain_floor(kind: ObserverKind, bounds: Bounds) -> float:
    """Smallest proportional gain with a convergence guarantee.

    Kinds that feed the inverse of the measurement into the bias channel
    pay for it with a doubled velocity term.
    """
    if kind.uses_inverse:
        return 2.0 * bounds.B_xi + bounds.B_b
    return bounds.B_xi + bounds.B_b


def estimate_g(kind: ObserverKind, A_bar: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Group-state estimate implied by the ambient estimate.

    Left-measurement kinds invert the known ``F``; right-measurement kinds
    must invert ``A_bar`` itself, which raises
    :class:`~lieobs.errors.SingularityError` whenever the estimate passes
    too close to singularity.
    """
    A_bar = np.asarray(A_bar, dtype=float)
    F = np.asarray(F, dtype=float)
    if A_bar.shape != F.shape:
        raise DimensionError(
            f"A_bar shape {A_bar.shape} does not match F shape {F.shape}"
        )
    if kind.side == "left":
        return mat_inv(F) @ A_bar
    return F @ mat_inv(A_bar)
