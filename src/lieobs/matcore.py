"""Dense matrix primitives used throughout the package.

Matrices are plain ``numpy.ndarray`` objects with float64 entries. The
helpers here add the error discipline the rest of the code relies on:
shape checks raise :class:`~lieobs.errors.DimensionError`, non-finite
input raises :class:`~lieobs.errors.DomainError`, and near-singular input
raises :class:`~lieobs.errors.SingularityError` instead of silently
returning garbage.

All inner products and norms are Frobenius. The matrix exponential is a
scaling-and-squaring Taylor evaluation accurate to roughly 1e-13 relative
error for inputs with norm up to about ten, which covers every algebra
element this package produces.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import DegeneracyError, DimensionError, DomainError, SingularityError

__all__ = [
    "frob_inner",
    "frob_norm",
    "mat_exp",
    "mat_inv",
    "polar_so3",
    "singular_extremes",
]

_EXP_MAX_TERMS = 40


def _as_matrix(a, name: str = "a") -> np.ndarray:
    """Coerce to a float64 2-D array, checking shape and finiteness."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name} contains non-finite entries")
    return m


def _as_square(a, name: str = "a") -> np.ndarray:
    m = _as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def frob_inner(a, b) -> float:
    """Frobenius inner product ``trace(a^T b)``.

    Parameters
    ----------
    a, b : array_like
        Matrices of identical shape.

    Returns
    -------
    float
    """
    am = np.asarray(a, dtype=float)
    bm = np.asarray(b, dtype=float)
    if am.shape != bm.shape:
        raise DimensionError(
            f"frob_inner needs matching shapes, got {am.shape} and {bm.shape}"
        )
    return float(np.vdot(am, bm))


def frob_norm(a) -> float:
    """Frobenius norm, the square root of ``frob_inner(a, a)``."""
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    The argument is halved until its Frobenius norm is at most 1/2, the
    Taylor series is summed to machine precision, and the result is
    squared back up.

    Parameters
    ----------
    a : array_like
        Square matrix.

    Returns
    -------
    numpy.ndarray
        ``exp(a)``, same shape as ``a``. An entry or a Frobenius norm
        that is not finite raises DomainError.
    """
    m = _as_square(a)
    n = m.shape[0]
    nrm = float(np.linalg.norm(m))
    if not math.isfinite(nrm):
        raise DomainError("a has a norm too large to represent")
    s = 0
    if nrm > 0.5:
        s = int(math.ceil(math.log2(nrm / 0.5)))
        m = m / (2.0**s)

    acc = np.eye(n) + m
    term = m
    for k in range(2, _EXP_MAX_TERMS + 1):
        term = term @ m / k
        acc = acc + term
        if np.linalg.norm(term) <= 1e-17 * np.linalg.norm(acc):
            break

    for _ in range(s):
        acc = acc @ acc
    return acc


def singular_extremes(a) -> tuple[float, float]:
    """Smallest and largest singular values of a matrix.

    Returns
    -------
    (sigma_min, sigma_max) : tuple of float
    """
    m = _as_matrix(a)
    sv = np.linalg.svd(m, compute_uv=False)
    return float(sv[-1]), float(sv[0])


def _frob_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner products of two matrices, or of matching members of
    two stacks ``(..., n, n)``: a 0-d array for matrices, else one entry
    per member.

    Each is the dot product of the flattened pair, the one
    :func:`frob_inner` and :func:`frob_norm` take, so a stack gives the
    per-matrix values bit for bit.
    """
    if a.shape != b.shape:
        raise DimensionError(
            f"frob_inner needs matching shapes, got {a.shape} and {b.shape}"
        )
    rows = a.shape[:-2] + (-1,)
    return np.vecdot(a.reshape(rows), b.reshape(rows))


def _guarded_inv(a, rel_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """The conditioning guard of :func:`mat_inv`, in mask form.

    Returns ``(inv, bad)``: the inverse of a square matrix or of each
    member of a stack ``(..., n, n)``, and a boolean array of shape
    ``(...)`` that marks every matrix :func:`mat_inv` rejects, one that is
    singular or has ``sigma_min <= rel_tol * sigma_max``. Entries of
    ``inv`` under a marked member are meaningless. Shape and finiteness
    are checked as in :func:`mat_inv`.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"a must be square or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("a contains non-finite entries")
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        # An exactly singular member fails the whole stack: leave it NaN.
        inv = np.full_like(m, np.nan)
        for idx in np.ndindex(m.shape[:-2]):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[idx] = np.linalg.inv(m[idx])
    # 1/(||a||_F ||a^-1||_F) lower-bounds sigma_min/sigma_max, so clearly
    # well conditioned matrices never pay for an SVD here.
    denom = np.sqrt(np.sum(m * m, axis=(-2, -1)) * np.sum(inv * inv, axis=(-2, -1)))
    if np.all(denom * rel_tol < 1.0):
        return inv, np.zeros(m.shape[:-2], dtype=bool)
    sv = np.linalg.svd(m, compute_uv=False)
    return inv, ~np.isfinite(inv).all(axis=(-2, -1)) | (sv[..., -1] <= rel_tol * sv[..., 0])


def mat_inv(a, rel_tol: float = 1e-10) -> np.ndarray:
    """Inverse of a square matrix, or of a stack, with a conditioning guard.

    Parameters
    ----------
    a : array_like
        Square matrix, or a stack of them with shape ``(..., n, n)``.
    rel_tol : float
        Reject a matrix when ``sigma_min <= rel_tol * sigma_max``.

    Returns
    -------
    numpy.ndarray
        The inverse, same shape as ``a``.

    Raises
    ------
    SingularityError
        If a matrix is singular or its singular value ratio falls at or
        below ``rel_tol``. For a stack, the error names the first such
        member in its message and in ``member``.
    """
    inv, bad = _guarded_inv(a, rel_tol)
    if not bad.any():
        return inv
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    sv = np.linalg.svd(np.asarray(a, dtype=float)[idx], compute_uv=False)
    smin, smax = float(sv[-1]), float(sv[0])
    msg = (
        f"matrix is singular to working precision (sigma_min={smin:.3e}, "
        f"sigma_max={smax:.3e}, rel_tol={rel_tol:.1e})"
    )
    member = None
    if idx:
        member = idx[0] if len(idx) == 1 else idx
        msg = f"stack member {member}: {msg}"
    raise SingularityError(msg, sigma_min=smin, member=member)


def polar_so3(a) -> np.ndarray:
    """Special orthogonal polar factor of a 3x3 matrix, or of each member
    of a stack ``(..., 3, 3)``.

    Computes the rotation nearest to ``a`` in the Frobenius sense via the
    SVD, with the usual determinant correction so the result lands in
    SO(3) rather than O(3). A stack is one stacked SVD; each member's
    result equals its own call bit for bit.

    Parameters
    ----------
    a : array_like
        3x3 matrix of full rank, or a stack of them.

    Returns
    -------
    numpy.ndarray
        Rotation matrix, or a stack of them; a rank-deficient stack member
        comes back as NaN.

    Raises
    ------
    DegeneracyError
        If a single matrix is rank deficient, in which case no well
        defined nearest rotation exists.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (3, 3):
        raise DimensionError(f"polar_so3 expects a 3x3 matrix or a stack of them, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("a contains non-finite entries")
    u, sv, vt = np.linalg.svd(m)
    bad = (sv[..., 0] == 0.0) | (sv[..., -1] <= 1e-12 * sv[..., 0])
    if m.ndim == 2 and bad:
        raise DegeneracyError(
            f"rank-deficient matrix has no polar rotation (sigma_min={sv[-1]:.3e})",
            sigma_min=float(sv[-1]),
        )
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    r = u @ vt
    r[bad] = np.nan
    return r
