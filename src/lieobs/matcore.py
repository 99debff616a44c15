"""Dense matrix primitives used throughout the package.

Matrices are plain ``numpy.ndarray`` objects with float64 entries. The
helpers here add the error discipline the rest of the code relies on:
shape checks raise :class:`~lieobs.errors.DimensionError`, non-finite
input raises :class:`~lieobs.errors.DomainError`, and near-singular input
raises :class:`~lieobs.errors.SingularityError` instead of silently
returning garbage. The polar factor is a diagnostic and marks a
rank-deficient or non-finite input with NaN instead.

All inner products and norms are Frobenius. The matrix exponential is a
scaling-and-squaring Taylor evaluation accurate to roughly 1e-13 relative
error for inputs with norm up to about ten, which covers every algebra
element this package produces.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys

import numpy as np

from .errors import DimensionError, DomainError, SingularityError

__all__ = [
    "frob_norm",
    "mat_exp",
    "mat_inv",
    "polar_so3",
    "singular_extremes",
]

_EXP_MAX_TERMS = 40


def _finite_real(x) -> bool:
    """A real number, not a bool, that a float holds finitely."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _as_square(a) -> np.ndarray:
    """Coerce to a float64 square matrix or stack ``(..., n, n)``, checking
    shape and finiteness."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"a must be square or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("a contains non-finite entries")
    return m


def frob_norm(a):
    """Frobenius norm, the square root of ``trace(a^T a)``, of a matrix or
    of each member of a stack ``(..., m, n)``: an ``np.float64`` for a
    matrix, else one entry per member."""
    m = np.asarray(a, dtype=float)
    return np.sqrt(_frob_rows(m, m))


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
    if m.ndim != 2:
        raise DimensionError(f"mat_exp takes one matrix, got shape {m.shape}")
    n = m.shape[0]
    nrm = float(frob_norm(m))
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
        if frob_norm(term) <= 1e-17 * frob_norm(acc):
            break

    for _ in range(s):
        acc = acc @ acc
    return acc


def singular_extremes(a):
    """Smallest and largest singular values of a square matrix, or of each
    member of a stack ``(..., n, n)``.

    Returns
    -------
    (sigma_min, sigma_max)
        Two ``np.float64`` for a matrix, two arrays of shape ``(...)`` for
        a stack, from one stacked SVD. Shape and finiteness are checked as
        in :func:`mat_inv`.
    """
    sv = np.linalg.svd(_as_square(a), compute_uv=False)
    # [()] makes a 0-d result a scalar, which Bounds accepts, and leaves
    # a stack's arrays as they are.
    return sv[..., -1][()], sv[..., 0][()]


def _frob_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner products of two matrices, or of matching members of
    two stacks ``(..., m, n)``: an ``np.float64`` for matrices, else one
    entry per member.

    Each is one dot product of the flattened pair, so a stack gives the
    per-matrix values bit for bit. It is the only matrix inner product in
    the package: :func:`frob_norm` and the Lyapunov value are built on it.
    """
    if a.shape != b.shape:
        raise DimensionError(
            f"Frobenius inner product needs matching shapes, got {a.shape} and {b.shape}"
        )
    rows = a.shape[:-2] + (-1,)
    return np.vecdot(a.reshape(rows), b.reshape(rows))


def _guarded_inv(a) -> tuple[np.ndarray, np.ndarray]:
    """The conditioning guard of :func:`mat_inv`, in mask form.

    Returns ``(inv, bad)``: the inverse of a square matrix or of each
    member of a stack ``(..., n, n)``, and a boolean array of shape
    ``(...)`` that marks every matrix :func:`mat_inv` rejects, one that is
    singular or has ``sigma_min <= 1e-10 sigma_max``. Entries of ``inv``
    under a marked member are meaningless. Shape and finiteness are
    checked as in :func:`mat_inv`.
    """
    m = _as_square(a)
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
    if np.all(frob_norm(m) * frob_norm(inv) * 1e-10 < 1.0):
        return inv, np.zeros(m.shape[:-2], dtype=bool)
    smin, smax = singular_extremes(m)
    return inv, ~np.isfinite(inv).all(axis=(-2, -1)) | (smin <= 1e-10 * smax)


def mat_inv(a) -> np.ndarray:
    """Inverse of a square matrix, or of a stack, with a conditioning guard.

    Parameters
    ----------
    a : array_like
        Square matrix, or a stack of them with shape ``(..., n, n)``.

    Returns
    -------
    numpy.ndarray
        The inverse, same shape as ``a``.

    Raises
    ------
    SingularityError
        If a matrix is singular or has ``sigma_min <= 1e-10 sigma_max``.
        For a stack, the error names the first such member in its message
        and in ``member``.
    """
    inv, bad = _guarded_inv(a)
    if not bad.any():
        return inv
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    smin, smax = map(float, singular_extremes(np.asarray(a, dtype=float)[idx]))
    msg = (
        f"matrix is singular to working precision (sigma_min={smin:.3e}, "
        f"sigma_max={smax:.3e}, needs sigma_min > 1e-10 sigma_max)"
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
        3x3 matrix, or a stack of them.

    Returns
    -------
    numpy.ndarray
        Rotation matrix, or a stack of them. A rank-deficient or
        non-finite member has no well defined nearest rotation and comes
        back as NaN.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (3, 3):
        raise DimensionError(f"polar_so3 expects a 3x3 matrix or a stack of them, got {m.shape}")
    finite = np.isfinite(m).all(axis=(-2, -1))
    u, sv, vt = np.linalg.svd(np.where(finite[..., None, None], m, 0.0))
    bad = ~finite | (sv[..., -1] <= 1e-12 * sv[..., 0])
    # det(u vt) = +-1, read as the triple product of the rows of u vt.
    r = u @ vt
    u[..., 2] *= np.sign(np.vecdot(r[..., 0, :], np.cross(r[..., 1, :], r[..., 2, :])))[..., None]
    r = u @ vt
    r[bad] = np.nan
    return r
