"""Matrix Lie algebra bases, projections, and se(3)/so(3) helpers.

A group is described by a :class:`GroupSpec`: the ambient matrix size and
an orthonormal basis (Frobenius inner product) of its Lie algebra. The
orthogonal projection onto the algebra is the workhorse operation; for
so(3) and se(3) it has a closed form that avoids the generic basis
contraction.

Algebra elements are wrapped in :class:`AlgebraElement`, which validates
membership on construction and keeps the coordinate vector alongside the
matrix.
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
    "project_algebra",
    "project_matrix",
    "hat_so3",
    "hat_se3",
    "vee_se3",
    "algebra_basis_so3",
    "algebra_basis_se3",
]


def _closed_form_weights(projection: str | None, n: int):
    """``(keep, swap)`` with ``P(m) = keep * m - swap * m^T`` for the
    closed-form projections: the antisymmetric part of the rotation block,
    plus the translation column for se(3). None for the generic basis
    contraction."""
    if projection is None:
        return None
    if n != {"so3": 3, "se3": 4}[projection]:
        raise ConfigurationError(f"{projection} projection does not fit ambient_n {n}")
    swap = np.zeros((n, n))
    swap[:3, :3] = 0.5
    keep = swap.copy()
    keep[:3, 3:] = 1.0
    return keep, swap


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
    projection : str or None
        ``"so3"`` or ``"se3"`` to use the closed-form projection,
        ``None`` for the generic basis contraction.
    """

    name: str
    ambient_n: int
    basis: np.ndarray
    projection: str | None = None
    _basis2d: np.ndarray = field(init=False, repr=False)
    _weights: tuple[np.ndarray, np.ndarray] | None = field(init=False, repr=False)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        n = self.ambient_n
        if basis.ndim != 3 or basis.shape[1:] != (n, n):
            raise DimensionError(
                f"basis must have shape (dim, {n}, {n}), got {basis.shape}"
            )
        if self.projection not in (None, "so3", "se3"):
            raise ConfigurationError(f"unknown projection tag {self.projection!r}")
        basis = basis.copy()
        basis.setflags(write=False)
        basis2d = basis.reshape(basis.shape[0], n * n)
        gram = basis2d @ basis2d.T
        if np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e-12:
            raise ConfigurationError("algebra basis is not orthonormal")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_basis2d", basis2d)
        object.__setattr__(self, "_weights", _closed_form_weights(self.projection, n))
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

    def coords_of(self, matrix: np.ndarray) -> np.ndarray:
        """Basis coordinates of an (already projected) algebra matrix."""
        return self._basis2d @ np.asarray(matrix, dtype=float).ravel()

    def matrix_of(self, coords: np.ndarray) -> np.ndarray:
        """Matrix with the given basis coordinates."""
        c = np.asarray(coords, dtype=float)
        if c.shape != (self.algebra_dim,):
            raise DimensionError(
                f"coords must have shape ({self.algebra_dim},), got {c.shape}"
            )
        return (c @ self._basis2d).reshape(self.ambient_n, self.ambient_n)


def project_matrix(spec: GroupSpec, a: np.ndarray) -> np.ndarray:
    """Orthogonal projection of raw square matrices onto the algebra.

    Accepts one matrix or a stack with shape ``(..., n, n)`` and returns a
    plain ndarray of the same shape; use :func:`project_algebra` for the
    wrapped form. The closed forms for so(3) and se(3) keep the result
    exactly in the algebra: its rotation block is exactly antisymmetric.
    """
    m = np.asarray(a, dtype=float)
    n = spec.ambient_n
    if m.shape[-2:] != (n, n):
        raise DimensionError(f"expected shape (..., {n}, {n}), got {m.shape}")
    if spec._weights is not None:
        keep, swap = spec._weights
        return keep * m - swap * m.swapaxes(-1, -2)
    flat = m.reshape(m.shape[:-2] + (n * n,))
    return ((flat @ spec._basis2d.T) @ spec._basis2d).reshape(m.shape)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A matrix known to lie in a group's Lie algebra.

    Construction checks membership: the residual against the algebra
    projection must stay below 1e-10, and when coordinates are supplied
    they must reproduce the matrix to 1e-12. Coordinates are filled in
    automatically when omitted.
    """

    group: GroupSpec
    matrix: np.ndarray
    coords: np.ndarray | None = None

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
        if self.coords is None:
            object.__setattr__(self, "coords", self.group.coords_of(m))
        else:
            c = np.asarray(self.coords, dtype=float)
            if c.shape != (self.group.algebra_dim,):
                raise DimensionError(
                    f"coords must have shape ({self.group.algebra_dim},), "
                    f"got {c.shape}"
                )
            if frob_norm(self.group.matrix_of(c) - m) > 1e-12:
                raise DomainError("coords do not reproduce the algebra matrix")
            object.__setattr__(self, "coords", c.copy())
        self.coords.setflags(write=False)

    @property
    def norm(self) -> float:
        return frob_norm(self.matrix)


def project_algebra(spec: GroupSpec, a: np.ndarray) -> AlgebraElement:
    """Project a raw matrix onto the algebra and wrap the result."""
    p = project_matrix(spec, a)
    return AlgebraElement(spec, p, spec.coords_of(p))


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


def vee_se3(a) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`hat_se3`.

    Raises DomainError when the matrix is farther than 1e-8 from se(3).
    """
    m = np.asarray(a, dtype=float)
    if m.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 matrix, got {m.shape}")
    spec = algebra_basis_se3()
    if frob_norm(m - project_matrix(spec, m)) > 1e-8:
        raise DomainError("matrix is not a twist (se(3) residual exceeds 1e-8)")
    skew = 0.5 * (m[:3, :3] - m[:3, :3].T)
    omega = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
    return omega, m[:3, 3].copy()


@lru_cache(maxsize=None)
def algebra_basis_so3() -> GroupSpec:
    """SO(3) spec with the orthonormal basis ``hat(e_i)/sqrt(2)``."""
    basis = np.stack([hat_so3(e) / np.sqrt(2.0) for e in np.eye(3)])
    return GroupSpec("SO(3)", 3, basis, projection="so3")


@lru_cache(maxsize=None)
def algebra_basis_se3() -> GroupSpec:
    """SE(3) spec: rotational generators ``hat(e_i)/sqrt(2)`` then unit
    translational generators."""
    mats = [hat_se3(e, np.zeros(3)) / np.sqrt(2.0) for e in np.eye(3)]
    mats += [hat_se3(np.zeros(3), e) for e in np.eye(3)]
    return GroupSpec("SE(3)", 4, np.stack(mats), projection="se3")
