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

with ``E = A - A_bar`` and ``P`` the algebra projection. The left and
right kinds are transposes of one another: ``A^T = g^T F^T`` is a right
measurement of the pose ``g^-T``, whose velocity is ``-xi^T``, with the
bias ``-b^T``, the algebra basis ``-E_i^T`` and the same bias
coordinates. On the transposed problem kind I's vector field is II's,
I_mod's is II's with an ambient bias, I_tv's is II_tv's and III's is
IV's. So the code holds one set of formulas, the right kinds': a left
kind runs as the right-measurement mirror of its transposed problem, and
:func:`_run_frame` maps its matrices there and back where the state
meets the truth, the initial state and the record.

Given the truth, each of these vector fields is affine in the flat state
``y = (vec A_bar, beta, 1)``, with the bias held in the coordinates of
its own space: ``beta = C vec(b_bar)`` for ``C`` the group's orthonormal
algebra basis flattened to ``(m, n^2)``, and ``C`` the identity for
I_mod. A projected kind's ``b_bar = beta C`` then lies in the algebra by
construction. One builder per run, :class:`_OperatorWorkspace`, owns
``C`` and the factors that the kind, the group, the gains and the step
fix, and turns each stack of stage entries into the matrices ``M`` with
``dy/dt = y @ M``; the kind is dispatched once per stack, not once per
evaluation. ``A^-1`` and the feed-through depend on the truth alone, so
they are inputs of a fill rather than part of it: the integrator
computes them for a whole chunk of stage times at once, inverting ``F``
once per distinct time and taking ``A^-1`` from ``F^-1`` and the pose,
and :func:`observer_rhs` inverts ``A`` for its single instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DimensionError
from .kinematics import Bounds
from .liegroup import AlgebraElement, GroupSpec
from .matcore import _checked_inv, _finite_real, mat_inv

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
        try:
            return cls(label)
        except ValueError:
            raise ConfigurationError(f"unknown observer kind {label!r}") from None


@dataclass(frozen=True)
class Gains:
    """Proportional and integral gains, both finite and strictly positive,
    with ``k_I`` large enough that the Lyapunov weight ``1/(2 k_I)`` is
    finite (about 2.8e-309 and up)."""

    k_P: float
    k_I: float

    def __post_init__(self):
        if not all(_finite_real(k) and k > 0.0 for k in (self.k_P, self.k_I)):
            raise ConfigurationError(
                f"gains must be finite positive numbers, got k_P={self.k_P!r}, k_I={self.k_I!r}"
            )
        if not math.isfinite(1.0 / (2.0 * float(self.k_I))):
            raise ConfigurationError(f"k_I={self.k_I!r} is so small that 1/(2 k_I) overflows")


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


def _run_frame(kind: ObserverKind, matrix: np.ndarray, algebra: bool = False) -> np.ndarray:
    """``matrix``, one or a stack ``(..., n, n)``, in the frame of the
    right-measurement formulas: itself for a right kind; for a left kind
    its transpose, negated for an algebra element (a velocity, a bias or a
    basis element). The map is its own inverse."""
    if kind.side == "right":
        return matrix
    return -matrix.mT if algebra else matrix.mT


def _feed_factor(F: np.ndarray, F_dot: np.ndarray) -> np.ndarray:
    """The factor ``F^-1 Fdot`` of the time-varying kinds' feed-through,
    for one matrix or stacks ``(..., n, n)``. A singular ``F`` raises
    :class:`~lieobs.errors.SingularityError` naming the member."""
    return mat_inv(F) @ F_dot


def _truth_term(
    kind: ObserverKind, A: np.ndarray, feed: np.ndarray | None = None,
    A_inv: np.ndarray | None = None,
) -> np.ndarray | None:
    """The right-hand-side input that depends on the truth alone.

    ``A^-1`` for kinds III/IV, the feed-through ``A feed`` for the
    time-varying kinds when the :func:`_feed_factor` ``feed`` is given,
    None otherwise. Works on one matrix or on stacks ``(..., n, n)``; a
    singular ``A`` raises :class:`~lieobs.errors.SingularityError` naming
    the member. ``A^-1`` is :func:`~lieobs.matcore.mat_inv`'s, or
    ``A_inv`` when the caller formed it from known factors, under the same
    conditioning guard.
    """
    if kind.uses_inverse:
        return mat_inv(A) if A_inv is None else _checked_inv(A, A_inv)
    if kind.time_varying and feed is not None:
        return A @ feed
    return None


def _bias_basis(kind: ObserverKind, group: GroupSpec) -> np.ndarray:
    """The basis ``(m, n, n)`` of the bias state's coordinates: the group's
    orthonormal algebra basis, or for I_mod the ``n^2`` unit matrices."""
    if kind.projected_bias:
        return group.basis
    nn = group.ambient_n ** 2
    return np.eye(nn).reshape(nn, group.ambient_n, group.ambient_n)


def _state_dim(kind: ObserverKind, group: GroupSpec) -> int:
    """Entries of the flat state ``(vec A_bar, beta, 1)``: ``n^2 + m + 1``
    for the ``m`` bias coordinates of :func:`_bias_basis`."""
    return group.ambient_n ** 2 + len(_bias_basis(kind, group)) + 1


class _OperatorWorkspace:
    """The observer of one run as one affine map per stage entry, built in
    a buffer for ``size`` entries.

    Given the truth, every kind's vector field is affine in the flat state
    ``y = (vec A_bar, beta, 1)`` (row-major ``vec``), where ``beta`` holds
    the ``m`` coordinates of ``b_bar`` in the :func:`_bias_basis`
    ``E_1 .. E_m``: ``b_bar = sum_i beta_i E_i``, ``dim = n^2 + m + 1``
    entries in all. ``coords``, the basis flattened to ``(m, n^2)``, maps
    ``vec(b_bar)`` to ``beta`` and back. :meth:`fill` builds the transposed
    augmented operators ``scale M`` of a stack, with ``dy/dt = y @ M[s]``;
    member ``s`` of a stack equals the build for entry ``s`` alone bit for
    bit. The scale enters through the small inputs (the measured velocity,
    the gains, the basis and the feed-through) rather than by a pass over
    the result, so a power of two scales the build exactly.

    The kind, the group, the gains and ``scale`` fix the run's constant
    factors, which are computed here, once. So are the structural zeros
    and, on the entries that ``identity`` selects (a tuple of slices over
    the stack), the ones of the identity on the bias diagonal and on the
    last diagonal entry. A fill writes only what changes from one stage
    entry to the next: the velocity diagonal of the ``A_bar -> dA_bar``
    block, the two bias blocks and the constant row, so a workspace filled
    any number of times equals a fresh one filled once. On the identity
    entries a fill adds 1 to the diagonal of its ``n x n`` velocity term
    before it scatters that term, so they hold ``I + scale M``, rounded as
    an addition after the build.

    The build has one set of formulas, the right kinds'. With ``C'`` the
    basis the blocks are built on, flattened, and ``W`` the bias channel's
    ``A^T`` or ``A^-1``,
    ``dA_bar = -(xi_m + k_P) A_bar + b_bar A + k_P A`` and
    ``dbeta = k_I C' vec(A W) - k_I C' vec(A_bar W)``. For an orthonormal
    basis ``C'^T C'`` is the algebra projection, so these are the
    coordinates of the table's bias updates. The feed-through adds to the
    constant of ``dA_bar``. A left kind's blocks are built on the
    mirrored basis ``-E_i^T`` (:func:`_run_frame`), so a fill reads its
    ``A``, ``xi_m`` and truth term in the mirrored frame and its state
    holds ``vec A_bar^T``; the mirror keeps the bias coordinates, so
    ``coords`` is the user-frame basis for every kind, and ``beta`` and
    ``b_bar = beta C`` are the same in both frames.
    """

    def __init__(self, kind: ObserverKind, group: GroupSpec, gains: Gains, size: int,
                 identity: tuple[slice, ...] = (), scale: float = 1.0):
        self.kind, self.identity, self.scale = kind, identity, scale
        basis = _bias_basis(kind, group)
        m, n = len(basis), group.ambient_n
        self.coords = basis.reshape(m, n * n)
        basis = _run_frame(kind, basis, algebra=True)
        self.dim = _state_dim(kind, group)
        self.k_p = scale * gains.k_P
        self.k_p_eye = self.k_p * np.eye(n)
        # The bias blocks are one product per entry, with the basis laid
        # side by side and a minus sign carried by the small factor.
        self.basis_a = (scale * basis).reshape(m * n, n)
        self.coords_b = -((scale * gains.k_I) * basis.transpose(2, 1, 0)).reshape(n, n * m)
        self.ops = np.zeros((size, self.dim, self.dim))
        self.term = np.empty((size, n, n))
        for entries in identity:
            np.einsum("sii->si", self.ops)[entries, n * n:] = 1.0
        self._views = {}

    def views(self, S: int) -> tuple:
        """The views of the first ``S`` entries that a fill writes, made on
        the first fill of ``S`` entries: ``(ops, term, term_ones, velocity,
        bias_a, state_b, block_b, const_a, const_b)``. ``term`` holds the
        velocity terms, ``term_ones`` the diagonals of its identity entries,
        and ``state_b`` and ``block_b`` are two shapes of the
        ``A_bar -> dbeta`` block."""
        views = self._views.get(S)
        if views is None:
            m, nn = self.coords.shape
            n = self.term.shape[-1]
            ops, term = self.ops[:S], self.term[:S]
            # Diagonals of the (S, n, n, n, n) view of the A_bar -> dA_bar
            # block: [s, k, j, i, j] holds kron(D^T, I), the map
            # vec(X) -> vec(D X).
            state_a = ops[:, :nn, :nn].reshape(S, n, n, n, n)
            velocity = np.einsum("skjij->skij", state_a)
            # Row i of the beta -> dA_bar block is vec(E_i A), and the
            # (n, n, m) view of the A_bar -> dbeta block holds its row (i, k).
            block_b = ops[:, :nn, nn:-1]
            views = self._views[S] = (
                ops, term, tuple(np.einsum("sii->si", term)[entries] for entries in self.identity),
                velocity, ops[:, nn:-1, :nn].reshape(S, m, n, n),
                block_b.reshape(S, n, n, m), block_b, ops[:, -1, :nn], ops[:, -1, nn:-1],
            )
        return views

    def fill(self, A: np.ndarray, xi_m: np.ndarray, aux: np.ndarray | None) -> np.ndarray:
        """The operators ``scale M`` of ``S`` stage entries, a view of the
        first ``S`` of the buffer: ``A`` and ``xi_m`` of shape
        ``(S, n, n)``, and ``aux`` the kind's :func:`_truth_term` (None
        where it has none; the time-varying kinds then skip the
        feed-through, which is zero for a constant measurement map)."""
        S, n = A.shape[0], A.shape[-1]
        ops, term, term_ones, velocity, bias_a, state_b, block_b, const_a, const_b = self.views(S)
        m = len(self.coords)
        W = aux if self.kind.uses_inverse else A.mT
        # The velocity term is -(xi_m + k_P), whose transpose is scattered.
        np.multiply(xi_m, self.scale, out=term)
        term += self.k_p_eye
        np.negative(term, out=term)
        for diagonal in term_ones:
            diagonal += 1.0
        velocity[...] = term.mT[:, :, :, None]
        bias_a[...] = (self.basis_a @ A).reshape(S, m, n, n)
        # vec(X W) C^T = vec(X) kron(I, W) C^T, row (i, k) = sum_j W_kj C^T_(i, j).
        state_b[...] = (W @ self.coords_b).reshape(S, n, n, m).transpose(0, 2, 1, 3)
        const = self.k_p * A
        if self.kind.time_varying and aux is not None:
            const = const + self.scale * aux
        const_a[...] = const.reshape(S, n * n)
        # The bias constant is minus the A_bar -> dbeta block applied to
        # A_bar = A, the only block that feeds the bias columns besides the
        # zero beta -> dbeta block. Where the vector-matrix product that
        # applies the operator adds the constant row after the rest, an
        # estimate on the truth then gets an exactly zero bias derivative, as
        # E = A - A_bar = 0 gives in the vector field; the stationarity tests
        # of observer_rhs check it.
        const_b[...] = -(A.reshape(S, 1, n * n) @ block_b)[:, 0]
        return ops


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
        Current estimates. A projected kind reads ``b_bar`` through its
        algebra coordinates, so only its projection enters.
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
    feed = None
    if kind.time_varying:
        if aux is None:
            raise ConfigurationError(f"kind {kind.value} needs aux=(F, F_dot)")
        feed = _feed_factor(*(_run_frame(kind, np.asarray(m, dtype=float)) for m in aux))
    A = _run_frame(kind, A)
    aux = _truth_term(kind, A, feed)
    work = _OperatorWorkspace(kind, group, gains, 1)
    M = work.fill(A[None], _run_frame(kind, xi_m.matrix, algebra=True)[None],
                  None if aux is None else aux[None])
    dy = np.concatenate((_run_frame(kind, A_bar).ravel(), work.coords @ b_mat.ravel(),
                         (1.0,))) @ M[0]
    return _run_frame(kind, dy[:n * n].reshape(n, n)), (dy[n * n:-1] @ work.coords).reshape(n, n)


def gain_floor(kind: ObserverKind, bounds: Bounds) -> float:
    """Smallest proportional gain with a convergence guarantee.

    Kinds that feed the inverse of the measurement into the bias channel
    pay for it with a doubled velocity term.
    """
    if kind.uses_inverse:
        return 2.0 * bounds.B_xi + bounds.B_b
    return bounds.B_xi + bounds.B_b

