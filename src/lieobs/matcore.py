"""Dense matrix primitives used throughout the package.

Matrices are plain ``numpy.ndarray`` objects with float64 entries. The
helpers here add the error discipline the rest of the code relies on:
shape checks raise :class:`~lieobs.errors.DimensionError`, non-finite
input raises :class:`~lieobs.errors.DomainError`, and near-singular input
raises :class:`~lieobs.errors.SingularityError` instead of silently
returning garbage. The polar factor is a diagnostic and marks a
rank-deficient or non-finite input with NaN instead.

Two helpers spare the common case a LAPACK call per matrix. The polar
factor runs a fixed count of Newton steps on the nine entries of each
matrix it can certify, and falls back to the SVD for the rest. The
guarded inverse judges an inverse its caller already formed from known
factors, such as ``A^-1 = F^-1 g`` for the measurement ``A = g^-1 F``.

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


@np.errstate(over="raise")
def _unscaled_norm(m: np.ndarray):
    return np.sqrt(_frob_rows(m, m))


def frob_norm(a):
    """Frobenius norm, the square root of ``trace(a^T a)``, of a matrix or
    of each member of a stack ``(..., m, n)``: an ``np.float64`` for a
    matrix or a 1-D vector, else one entry per member. A finite member
    whose sum of squares overflows is rescaled by its largest entry, so
    only a norm past the largest float is ``inf``, without a warning."""
    m = np.asarray(a, dtype=float)
    try:
        return _unscaled_norm(m)
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.sqrt(_frob_rows(m, m))
            scale = np.abs(m).max(axis=tuple(range(np.ndim(norm), m.ndim)), keepdims=True)
            unit = m / scale
            rescaled = scale.reshape(np.shape(norm)) * np.sqrt(_frob_rows(unit, unit))
            # A member with an infinite entry keeps its inf (rescaled, it is NaN).
            return np.where(np.isinf(norm) & ~np.isnan(rescaled), rescaled, norm)[()]


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
        ``exp(a)``, same shape as ``a``. An entry that is not finite, or
        a Frobenius norm past ``2**1022``, whose scaling factor ``2**s``
        would overflow, raises DomainError.
    """
    m = _as_square(a)
    if m.ndim != 2:
        raise DimensionError(f"mat_exp takes one matrix, got shape {m.shape}")
    n = m.shape[0]
    nrm = float(frob_norm(m))
    if not nrm <= 2.0**1022:
        raise DomainError(f"a has a norm too large to scale, {nrm}")
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
    rows = a.shape[:-2] + (math.prod(a.shape[-2:]),)
    return np.vecdot(a.reshape(rows), b.reshape(rows))


def _guarded_inv(a, inv=None) -> tuple[np.ndarray, np.ndarray]:
    """The conditioning guard of :func:`mat_inv`, in mask form.

    Returns ``(inv, bad)``: the inverse of a square matrix or of each
    member of a stack ``(..., n, n)``, and a boolean array of shape
    ``(...)`` that marks every matrix :func:`mat_inv` rejects, one that is
    singular or has ``sigma_min <= 1e-10 sigma_max``. Entries of ``inv``
    under a marked member are meaningless. Shape and finiteness are
    checked as in :func:`mat_inv`.

    ``inv``, when given, is the caller's inverse of ``a``, formed from
    factors it already holds; it is returned as it is, and the guard
    judges ``a`` by it as it would judge numpy's own inverse. A non-finite
    member of ``inv`` is marked.
    """
    m = _as_square(a)
    if inv is None:
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            # An exactly singular member fails the whole stack: leave it NaN.
            inv = np.full_like(m, np.nan)
            for idx in np.ndindex(m.shape[:-2]):
                with contextlib.suppress(np.linalg.LinAlgError):
                    inv[idx] = np.linalg.inv(m[idx])
    # 1/(||a||_F ||a^-1||_F) lower-bounds sigma_min/sigma_max, so clearly
    # well conditioned matrices never pay for an SVD here. The decision on
    # any other matrix is the SVD's, whichever inverse was given.
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
    return _checked_inv(a)


def _checked_inv(a, inv=None) -> np.ndarray:
    """:func:`mat_inv`, with the guard applied to ``inv``, the caller's
    inverse of ``a``, when it is given (see :func:`_guarded_inv`): the
    same matrices are rejected with the same error."""
    inv, bad = _guarded_inv(a, inv)
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


# Newton's polar iteration in polar_so3: its fixed step count, the
# certificate c of det(X) > c ||X||_F^3, which implies sigma_min > c
# sigma_max, a hundred times clear of the 1e-12 rank rule, and the bound on
# the squared Frobenius size of its last step.
_POLAR_STEPS = 6
_POLAR_CERT = 1e-10
_POLAR_TOL = 1e-18


def _polar_certified(x):
    """Whether Newton's iteration may decide the 3x3 matrix with the nine
    row-major entries ``x``: a positive ``det > c ||x||_F^3``, in squares.
    Floats give a bool, ``(K,)`` columns a mask."""
    x00, x01, x02, x10, x11, x12, x20, x21, x22 = x
    det = x00 * (x11 * x22 - x12 * x21) + x01 * (x12 * x20 - x10 * x22) + x02 * (
        x10 * x21 - x11 * x20)
    xx = (x00 * x00 + x01 * x01 + x02 * x02 + x10 * x10 + x11 * x11 + x12 * x12
          + x20 * x20 + x21 * x21 + x22 * x22)
    return (det > 0.0) & (det * det > _POLAR_CERT * _POLAR_CERT * xx * xx * xx)


def _polar_newton(x, sqrt):
    """``_POLAR_STEPS`` Frobenius-scaled Newton steps ``X <- (zeta X +
    X^-T / zeta) / 2``, ``zeta = (||X^-1||_F / ||X||_F)^(1/2)``, from the
    nine row-major entries ``x`` of a certified matrix, with ``X^-T`` its
    cofactors over its determinant.

    The entries are Python floats with ``math.sqrt``, or ``(K,)`` columns
    of a stack with ``np.sqrt``: the same IEEE operations in the same
    order, so a stack member's result is its single call's bit for bit.
    Returns the nine entries and the squared Frobenius size of the last
    step.
    """
    x00, x01, x02, x10, x11, x12, x20, x21, x22 = x
    for _ in range(_POLAR_STEPS):
        c00, c01, c02 = x11 * x22 - x12 * x21, x12 * x20 - x10 * x22, x10 * x21 - x11 * x20
        c10, c11, c12 = x02 * x21 - x01 * x22, x00 * x22 - x02 * x20, x01 * x20 - x00 * x21
        c20, c21, c22 = x01 * x12 - x02 * x11, x02 * x10 - x00 * x12, x00 * x11 - x01 * x10
        det = x00 * c00 + x01 * c01 + x02 * c02
        cc = (c00 * c00 + c01 * c01 + c02 * c02 + c10 * c10 + c11 * c11 + c12 * c12
              + c20 * c20 + c21 * c21 + c22 * c22)
        xx = (x00 * x00 + x01 * x01 + x02 * x02 + x10 * x10 + x11 * x11 + x12 * x12
              + x20 * x20 + x21 * x21 + x22 * x22)
        zeta = sqrt(sqrt(cc / xx) / det)
        a, b = 0.5 * zeta, 0.5 / (zeta * det)
        x00, x01, x02 = a * x00 + b * c00, a * x01 + b * c01, a * x02 + b * c02
        x10, x11, x12 = a * x10 + b * c10, a * x11 + b * c11, a * x12 + b * c12
        x20, x21, x22 = a * x20 + b * c20, a * x21 + b * c21, a * x22 + b * c22
    x = x00, x01, x02, x10, x11, x12, x20, x21, x22
    # The last step X - X_old is ((a - 1) X + b C)/a, from the new entries,
    # so the old ones need not be kept.
    step = 0.0
    for u, v in zip(x, (c00, c01, c02, c10, c11, c12, c20, c21, c22)):
        d = (a - 1.0) * u + b * v
        step = step + d * d
    return x, step / (a * a)


def _svd_polar(m: np.ndarray) -> np.ndarray:
    """:func:`polar_so3` by the SVD, for a 3x3 matrix or a stack of them:
    the decision for every member Newton's iteration does not certify."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    u, sv, vt = np.linalg.svd(np.where(finite[..., None, None], m, 0.0))
    bad = ~finite | (sv[..., -1] <= 1e-12 * sv[..., 0])
    # det(u vt) = +-1, read as the triple product of the rows of u vt.
    r = u @ vt
    u[..., 2] *= np.sign(np.vecdot(r[..., 0, :], np.cross(r[..., 1, :], r[..., 2, :])))[..., None]
    r = u @ vt
    r[bad] = np.nan
    return r


def polar_so3(a) -> np.ndarray:
    """Special orthogonal polar factor of a 3x3 matrix, or of each member
    of a stack ``(..., 3, 3)``.

    Computes the rotation nearest to ``a`` in the Frobenius sense. A
    finite matrix with ``det(a) > 1e-10 ||a||_F^3``, scaled by its largest
    entry, goes through a fixed count of Frobenius-scaled Newton steps
    toward its orthogonal polar factor, which for a positive determinant
    is that rotation; the certificate keeps ``sigma_min > 1e-10
    sigma_max``, so Newton never meets the rank rule below. Every other
    matrix, and every one whose last Newton step is not negligible, takes
    the SVD with the usual determinant correction, so the result lands in
    SO(3) rather than O(3): reflections, near rank-deficient and
    non-finite matrices. A single matrix runs Newton on Python floats, a
    stack on ``(K,)`` columns, the same operations either way, and the
    SVD fallback of a stack is one stacked SVD; each member's result
    equals its own call bit for bit. A stack is worked whole, with
    temporaries of its own size.

    Parameters
    ----------
    a : array_like
        3x3 matrix, or a stack of them.

    Returns
    -------
    numpy.ndarray
        Rotation matrix, or a stack of them. A member with ``sigma_min <=
        1e-12 sigma_max`` or a non-finite entry has no well defined
        nearest rotation and comes back as NaN.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (3, 3):
        raise DimensionError(f"polar_so3 expects a 3x3 matrix or a stack of them, got {m.shape}")
    if m.ndim == 2:
        e = m.ravel().tolist()
        if all(map(math.isfinite, e)) and (scale := max(map(abs, e))) > 0.0:
            x = [v / scale for v in e]
            if _polar_certified(x):
                x, step = _polar_newton(x, math.sqrt)
                if step <= _POLAR_TOL:
                    return np.array(x).reshape(3, 3)
        return _svd_polar(m)
    flat = m.reshape(-1, 9)
    out = np.empty(flat.shape)
    newton = np.zeros(len(flat), dtype=bool)
    scale = np.abs(flat).max(axis=1, initial=0.0)
    rows = np.flatnonzero(np.isfinite(flat).all(axis=1) & (scale > 0.0))
    cols = np.divide(flat[rows].T, scale[rows], order="C")
    keep = _polar_certified(cols)
    x, step = _polar_newton(cols[:, keep], np.sqrt)
    done = step <= _POLAR_TOL
    rows = rows[keep][done]
    out[rows] = np.stack(x, axis=1)[done]
    newton[rows] = True
    if not newton.all():
        out[~newton] = _svd_polar(flat[~newton].reshape(-1, 3, 3)).reshape(-1, 9)
    return out.reshape(m.shape)
