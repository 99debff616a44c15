"""Matrix Lie algebra bases, the algebra projection, and se(3)/so(3) helpers.

A group is described by a :class:`GroupSpec`: the ambient matrix size and
an orthonormal basis (Frobenius inner product) of its Lie algebra. The
orthogonal projection onto the algebra is the only group-specific
operation the observers need. For an orthonormal basis ``B``, flattened
to ``(dim, n^2)``, it is one fixed linear map ``vec(m) -> B^T B vec(m)``,
built once per group and applied the same way for every group. For
so(3) and se(3) it reproduces the block formulas (skew part of the
rotation block, translation column kept) bit for bit.

Algebra elements are wrapped in :class:`AlgebraElement`, which validates
membership on construction and holds a read-only copy of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError
from .matcore import frob_norm

__all__ = [
    "GroupSpec",
    "AlgebraElement",
    "project_matrix",
    "hat_so3",
    "hat_se3",
    "algebra_basis_so3",
    "algebra_basis_se3",
]


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """Ambient dimension plus an orthonormal Lie algebra basis.

    Parameters
    ----------
    name : str
        Human-readable label, e.g. ``"SE(3)"``.
    ambient_n : int
        Matrices live in R^(n x n).
    basis : numpy.ndarray
        Array of shape ``(dim, n, n)``, orthonormal in the Frobenius
        inner product and closed under the matrix commutator.

    The orthogonal projection onto the algebra is built once, on
    construction, as one ``(n^2, n^2)`` matrix ``B^T (B B^T)^-1 B`` of the
    flattened basis ``B`` (``B^T B`` in exact arithmetic);
    :func:`project_matrix` applies it.
    """

    name: str
    ambient_n: int
    basis: np.ndarray
    _projector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        n = self.ambient_n
        if basis.ndim != 3 or basis.shape[1:] != (n, n):
            raise DimensionError(
                f"basis must have shape (dim, {n}, {n}), got {basis.shape}"
            )
        basis = basis.copy()
        basis.setflags(write=False)
        basis2d = basis.reshape(basis.shape[0], n * n)
        gram = basis2d @ basis2d.T
        if np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e-12:
            raise ConfigurationError("algebra basis is not orthonormal")
        # B^T B up to the basis's rounding, which the Gram matrix removes:
        # entries of 1/sqrt(2) square to 0.5 - 2^-53, their projector's to 0.5.
        projector = basis2d.T @ np.linalg.solve(gram, basis2d)
        projector.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_projector", projector)
        for i in range(basis.shape[0]):
            for j in range(i + 1, basis.shape[0]):
                comm = basis[i] @ basis[j] - basis[j] @ basis[i]
                if frob_norm(comm - project_matrix(self, comm)) > 1e-10:
                    raise ConfigurationError(
                        "algebra basis is not closed under the commutator"
                    )

    @property
    def algebra_dim(self) -> int:
        return self.basis.shape[0]


def project_matrix(spec: GroupSpec, a: np.ndarray) -> np.ndarray:
    """Orthogonal projection of raw square matrices onto the algebra.

    Accepts one matrix or a stack with shape ``(..., n, n)`` and returns a
    plain ndarray of the same shape.
    """
    m = np.asarray(a, dtype=float)
    n = spec.ambient_n
    if m.shape[-2:] != (n, n):
        raise DimensionError(f"expected shape (..., {n}, {n}), got {m.shape}")
    return (m.reshape(m.shape[:-2] + (n * n,)) @ spec._projector).reshape(m.shape)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A matrix known to lie in a group's Lie algebra.

    Construction checks membership: the residual against the algebra
    projection must stay below 1e-10. The stored matrix is a read-only
    copy.
    """

    group: GroupSpec
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        n = self.group.ambient_n
        if m.shape != (n, n):
            raise DimensionError(f"algebra matrix must be ({n}, {n}), got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("algebra matrix contains non-finite entries")
        if frob_norm(m - project_matrix(self.group, m)) > 1e-10:
            raise DomainError(
                f"matrix is not in the {self.group.name} algebra "
                "(projection residual exceeds 1e-10)"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def hat_so3(v) -> np.ndarray:
    """Skew-symmetric 3x3 matrix with ``hat(v) w = v x w``."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def hat_se3(omega, v) -> np.ndarray:
    """Homogeneous 4x4 twist from angular and linear velocity vectors."""
    out = np.zeros((4, 4))
    out[:3, :3] = hat_so3(omega)
    out[:3, 3] = np.asarray(v, dtype=float)
    return out


@lru_cache(maxsize=None)
def algebra_basis_so3() -> GroupSpec:
    """SO(3) spec with the orthonormal basis ``hat(e_i)/sqrt(2)``."""
    basis = np.stack([hat_so3(e) / np.sqrt(2.0) for e in np.eye(3)])
    return GroupSpec("SO(3)", 3, basis)


@lru_cache(maxsize=None)
def algebra_basis_se3() -> GroupSpec:
    """SE(3) spec: rotational generators ``hat(e_i)/sqrt(2)`` then unit
    translational generators."""
    mats = [hat_se3(e, np.zeros(3)) / np.sqrt(2.0) for e in np.eye(3)]
    mats += [hat_se3(np.zeros(3), e) for e in np.eye(3)]
    return GroupSpec("SE(3)", 4, np.stack(mats))
