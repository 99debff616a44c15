"""Error metrics, Lyapunov diagnostics, rate fitting, SE(3) projection.

The convergence certificates all share one template. Writing x1 for the
state-error norm (``E_A`` for the transpose-feedback kinds, the script
error for the inverse-feedback kinds) and x2 for the bias-error norm,
three quadratic forms in (x1, x2) bracket the Lyapunov function V and its
decay: V1 <= V <= V2 and dV/dt <= -V3. Each observer family only changes
four scalars:

- ``u``: bound on the cross term magnitude per unit x1 x2,
- ``l2``: coefficient of the x2^2 decay term,
- ``a``: velocity drag subtracted from k_P,
- ``c = k_P + B_b + 2 B_xi``: cross coefficient of V3.

Positive definiteness of V3 holds iff epsilon < H with
``H = 4 (k_P - a) l2 / (u^2 (4 k_I l2 + c^2))`` and positivity of V1 iff
epsilon < ``1/(u sqrt(k_I))``. The decay rate beta and the overshoot
constant alpha come from 2x2 generalized eigenvalue problems, closed form
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    FitError,
    InadmissibleEpsilonError,
)
from .kinematics import Bounds, TruthSample
from .matcore import (
    _frob_rows,
    _guarded_inv,
    frob_norm,
    polar_so3,
    singular_extremes,
)
from .observers import Gains, ObserverKind, ObserverState, _run_frame, gain_floor

__all__ = [
    "ErrorSample",
    "LyapunovParams",
    "ConvergenceFit",
    "LyapunovReport",
    "compute_errors",
    "epsilon_bound",
    "suggested_epsilon",
    "lyapunov_value",
    "quadform_rates",
    "fit_exponential",
    "project_se3",
    "lyapunov_decrease_check",
]


@dataclass(frozen=True, eq=False)
class ErrorSample:
    """Observer errors at one instant, or at each of a stack of instants.

    ``E_A = A - A_bar`` and ``e_b = b - b_bar``. ``E_g`` is the
    group-estimate error and is absent when the estimate is not
    recoverable (near-singular ``A_bar`` on the right-measurement side).
    ``script_E_A`` is the multiplicative state error, ``A^-1 E_A`` on the
    left side and ``E_A A^-1`` on the right, absent when ``A`` is singular.
    The ``err_*`` fields are the Frobenius norms of ``E_A``, ``e_b`` and
    ``E_g``.

    One instant holds ``(n, n)`` matrices, a stack ``(K, n, n)`` arrays
    and ``K`` times. An absent error is NaN in either form: the whole
    matrix, or the member's row. The norms are ``np.float64`` for one
    instant and ``(K,)`` arrays for a stack, NaN where absent.
    """

    t: float | np.ndarray
    E_A: np.ndarray
    e_b: np.ndarray
    E_g: np.ndarray
    script_E_A: np.ndarray
    err_EA: float | np.ndarray
    err_eb: float | np.ndarray
    err_Eg: float | np.ndarray


def _error_rows(errors: ErrorSample) -> list[ErrorSample]:
    """The one-instant rows of a stacked sample. Row k views the stack's
    k-th matrices, holds its time as a float and carries the stack's k-th
    norms, which equal the row's own bit for bit."""
    return [ErrorSample(*row) for row in zip(
        errors.t.tolist(), errors.E_A, errors.e_b, errors.E_g, errors.script_E_A,
        errors.err_EA, errors.err_eb, errors.err_Eg)]


@dataclass(frozen=True)
class LyapunovParams:
    """Certificate constants: V2 <= alpha V1 and beta V2 <= V3."""

    epsilon: float
    H: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class ConvergenceFit:
    """Log-linear fit value(t) ~ C exp(-a t) over a time window."""

    C: float
    a: float
    window: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class LyapunovReport:
    """Outcome of the monotonicity and envelope checks along a run."""

    monotone_fraction: float
    max_violation: float
    envelope_ok: bool
    max_envelope_excess: float
    n_samples: int


def compute_errors(
    kind: ObserverKind, truth: TruthSample, state: ObserverState, F: np.ndarray
) -> ErrorSample:
    """All error quantities for one sample, or for a stack of samples.

    For a stack, ``truth.t`` holds K times, ``truth.g``, ``truth.A``,
    ``state.A_bar`` and the bias estimate hold ``(K, n, n)`` stacks, and
    ``F`` is one matrix or K of them; each member's errors equal its own
    call bit for bit. The four outputs are allocated once and written in
    place, but the guarded inverses are temporaries the size of the
    stack: a caller that must bound its memory passes slices of rows, as
    the CLI's export does.

    ``E_g = g - g_bar`` compares the pose with its estimate, ``g_bar =
    F^-1 A_bar`` on the left-measurement side and ``F A_bar^-1`` on the
    right. Degeneracies never raise: an absent error is NaN, for one
    sample as for a stack member. ``E_g`` is absent exactly
    when :func:`~lieobs.matcore.mat_inv` rejects the matrix the estimate
    inverts: ``F`` on the left, ``A_bar`` on the right, where ``A_bar``
    transits the ambient space and may pass near singularity during the
    transient (sigma_min <= 1e-10 sigma_max). The script error is absent
    exactly when ``mat_inv`` rejects ``A``. Only ``t``, ``g``, ``b`` and
    ``A`` of ``truth`` are read.
    """
    A_bar = np.asarray(state.A_bar, dtype=float)
    A = np.asarray(truth.A, dtype=float)
    F = np.asarray(F, dtype=float)
    if A_bar.shape[-2:] != F.shape[-2:]:
        raise DimensionError(
            f"A_bar shape {A_bar.shape} does not match F shape {F.shape}"
        )
    shape = np.broadcast_shapes(A.shape, A_bar.shape)
    E_A, e_b, E_g, script = (np.empty(shape) for _ in range(4))
    # A huge but finite estimate gives inf or NaN entries, with no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(A, A_bar, out=E_A)
        np.subtract(truth.b.matrix, state.b_matrix, out=e_b)
        A_inv, no_script = _guarded_inv(A)
        if kind.side == "left":
            F_inv, no_g = _guarded_inv(F)
            np.matmul(F_inv, A_bar, out=E_g)
            np.matmul(A_inv, E_A, out=script)
        else:
            A_bar_inv, no_g = _guarded_inv(A_bar)
            np.matmul(F, A_bar_inv, out=E_g)
            np.matmul(E_A, A_inv, out=script)
        np.subtract(truth.g, E_g, out=E_g)
    E_g[np.broadcast_to(no_g, shape[:-2])] = np.nan
    script[no_script] = np.nan
    return ErrorSample(truth.t, E_A, e_b, E_g, script,
                       frob_norm(E_A), frob_norm(e_b), frob_norm(E_g))


def _family_params(
    kind: ObserverKind, gains: Gains, bounds: Bounds, F: np.ndarray
) -> tuple[float, float, float, float]:
    """(u, l2, a, c) for the kind's quadratic-form template; the drag
    ``a`` is the kind's gain floor."""
    a = gain_floor(kind, bounds)
    c = gains.k_P + bounds.B_b + 2.0 * bounds.B_xi
    if kind.uses_inverse:
        return 1.0, 1.0, a, c
    f_norm = frob_norm(F)
    smin, _ = singular_extremes(F)
    # Extreme bounds or an extreme F give inf scale terms, with no warning.
    with np.errstate(over="ignore"):
        lam_min = smin * smin
        if kind.side == "left":
            return f_norm * bounds.U_g, lam_min * bounds.L_g**2, a, c
        return f_norm / bounds.L_g, lam_min / bounds.U_g**2, a, c


def epsilon_bound(
    kind: ObserverKind, gains: Gains, bounds: Bounds, F: np.ndarray
) -> tuple[float, float]:
    """Admissibility limits (H, cap) for the Lyapunov mixing weight.

    Admissible epsilons form the open interval (0, min(H, cap)). A gain
    below the kind's floor shows up as H <= 0; that is a return value,
    not an exception, so callers can report it. Bounds extreme enough
    that the scale terms overflow give a NaN ``H``, with no warning.

    For I_tv and II_tv the limits hold only for a constant ``F``: the
    cross coefficient ``c`` has no ``|F^-1 Fdot|`` term, which a
    time-varying ``F`` adds to the rate of V's cross term.
    """
    u, l2, a, _ = _family_params(kind, gains, bounds, F)
    # Scaling by a power of two is exact: s, from c's largest term, keeps c,
    # c^2 and 4 k_P finite and leaves H's bits as they are wherever all are.
    s = math.ldexp(1.0, -max(math.frexp(max(gains.k_P, bounds.B_b, bounds.B_xi))[1], 0))
    cs = gains.k_P * s + bounds.B_b * s + 2.0 * (bounds.B_xi * s)
    # A cap past the largest float is +inf.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den = 4.0 * gains.k_I * l2 * s * s + cs * cs
        H = 4.0 * ((gains.k_P - a) * s) * l2 / (u * u * den) * s
        cap = 1.0 / (u * math.sqrt(gains.k_I))
    return H, cap


def suggested_epsilon(
    kind: ObserverKind, gains: Gains, bounds: Bounds, F: np.ndarray
) -> float | None:
    """Default diagnostic epsilon: half the admissible bound, or None
    when it admits no positive epsilon: the gains are below the floor,
    or ``H`` is NaN. For I_tv and II_tv it holds only for a constant
    ``F``, as :func:`epsilon_bound`'s limits do."""
    H, cap = epsilon_bound(kind, gains, bounds, F)
    if not H > 0.0:
        return None
    return 0.5 * min(H, cap)


def lyapunov_value(
    kind: ObserverKind,
    epsilon: float,
    err: ErrorSample,
    A: np.ndarray,
    gains: Gains,
) -> float | np.ndarray:
    """The kind-appropriate Lyapunov function at one error sample, or at
    each member of a stacked one (with ``A`` stacked alike).

    With ``x`` the state error, ``E_A`` for the transpose-feedback kinds
    and the script error for the inverse-feedback kinds, ``V = |x|^2 / 2
    + |e_b|^2 / (2 k_I) - eps <x, e_b A>`` for a transpose kind and
    ``... - eps <x, e_b>`` for an inverse kind. These are the right
    kinds' formulas; a left kind's ``x``, ``e_b`` and ``A`` enter them in
    the frame of its transposed problem (:func:`~lieobs.observers._run_frame`),
    which gives ``+eps <E_A, A e_b>`` (I, I_mod, I_tv) and ``+eps <x, e_b>``
    (III) in the user's frame. A stack gives each member's value bit for
    bit, and the value is NaN where the script error is absent and +inf,
    with no warning, where the quadratic part overflows, whatever the
    cross term. Its temporaries are the size of the stack, as in
    :func:`compute_errors`.
    """
    x = _run_frame(kind, err.script_E_A if kind.uses_inverse else err.E_A)
    e_b = _run_frame(kind, err.e_b, algebra=True)
    with np.errstate(over="ignore", invalid="ignore"):
        y = e_b if kind.uses_inverse else e_b @ _run_frame(kind, np.asarray(A, dtype=float))
        quad = 0.5 * _frob_rows(x, x) + _frob_rows(e_b, e_b) / (2.0 * gains.k_I)
        return np.where(np.isinf(quad), quad, quad - epsilon * _frob_rows(x, y))[()]


def _min_eig_2x2(m: np.ndarray) -> float:
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = max(tr * tr - 4.0 * det, 0.0)
    return 0.5 * (tr - math.sqrt(disc))


def _min_gen_eig_2x2(ma: np.ndarray, mb: np.ndarray) -> float:
    """Smallest root of det(ma - lam mb) = 0 for symmetric ma, PD mb."""
    aa = mb[0, 0] * mb[1, 1] - mb[0, 1] ** 2
    mixed = ma[0, 0] * mb[1, 1] + ma[1, 1] * mb[0, 0] - 2.0 * ma[0, 1] * mb[0, 1]
    cc = ma[0, 0] * ma[1, 1] - ma[0, 1] ** 2
    disc = max(mixed * mixed - 4.0 * aa * cc, 0.0)
    return (mixed - math.sqrt(disc)) / (2.0 * aa)


def quadform_rates(
    kind: ObserverKind,
    epsilon: float,
    gains: Gains,
    bounds: Bounds,
    F: np.ndarray,
) -> LyapunovParams:
    """Certificate constants for a given epsilon.

    Rejects an epsilon at or past the positivity cap of the V1 form
    (which V1 and V2 stay positive definite below, as they share their
    trace and determinant) and one whose V3 form is strictly indefinite,
    and returns alpha = max generalized eigenvalue of (V2, V1) and beta =
    min generalized eigenvalue of (V3, V2). V3's positive semidefinite
    boundary is allowed: epsilon = 0 gives alpha = 1 and beta = 0.
    For I_tv and II_tv the constants hold only for a constant ``F``,
    because ``c`` has no ``|F^-1 Fdot|`` term.
    """
    if epsilon < 0.0:
        raise InadmissibleEpsilonError(f"epsilon must be nonnegative, got {epsilon}")
    u, l2, a, c = _family_params(kind, gains, bounds, F)
    H, _cap = epsilon_bound(kind, gains, bounds, F)
    p = 0.5
    r = 1.0 / (2.0 * gains.k_I)
    q = 0.5 * epsilon * u
    m2 = np.array([[p, q], [q, r]])
    a1 = gains.k_P - a - epsilon * gains.k_I * u * u
    bq = -0.5 * epsilon * u * c
    m3 = np.array([[a1, bq], [bq, epsilon * l2]])

    s = math.sqrt(p * r)
    if q >= s:
        raise InadmissibleEpsilonError(
            f"epsilon={epsilon!r} reaches the positivity cap of the V1 form"
        )
    if _min_eig_2x2(m3) < -1e-12 * max(1.0, float(np.max(np.abs(m3)))):
        raise InadmissibleEpsilonError(f"V3 form is indefinite at epsilon={epsilon!r}")
    alpha = (s + q) / (s - q)
    beta = _min_gen_eig_2x2(m3, m2)
    return LyapunovParams(epsilon=epsilon, H=H, alpha=alpha, beta=beta)


def fit_exponential(series, window: tuple[float, float]) -> ConvergenceFit:
    """Least-squares fit of ln(value) against t over a window.

    ``series`` is a ``(K, 2)`` array, or an iterable of (t, value) pairs.
    Samples outside the window, non-finite, or at/below the 1e-13
    validity floor are dropped; fewer than ten surviving points raise
    :class:`~lieobs.errors.FitError`.
    """
    arr = np.asarray(series if isinstance(series, np.ndarray) else list(series), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DimensionError(f"series must be (t, value) pairs, got shape {arr.shape}")
    t0, t1 = float(window[0]), float(window[1])
    if not t0 < t1:
        raise DomainError(f"window must satisfy t0 < t1, got ({t0}, {t1})")
    t, v = arr[:, 0], arr[:, 1]
    mask = (t >= t0) & (t <= t1) & np.isfinite(v) & (v > 1e-13)
    if int(np.count_nonzero(mask)) < 10:
        raise FitError(
            f"only {int(np.count_nonzero(mask))} usable samples in [{t0}, {t1}], need 10"
        )
    ts, logs = t[mask], np.log(v[mask])
    slope, intercept = np.polyfit(ts, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * ts + intercept)) ** 2)))
    return ConvergenceFit(
        C=float(np.exp(intercept)), a=float(-slope), window=(t0, t1), residual=resid
    )


def project_se3(g_bar: np.ndarray) -> np.ndarray:
    """Nearest SE(3) element in the factor sense: polar rotation of the
    top-left block, translation kept, homogeneous row restored.

    Takes one 4x4 matrix or a stack ``(..., 4, 4)``. A rank-deficient or
    non-finite rotation block gives a NaN member, as
    :func:`~lieobs.matcore.polar_so3` does.
    """
    m = np.asarray(g_bar, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (4, 4):
        raise DimensionError(f"expected a 4x4 matrix or a stack of them, got {m.shape}")
    out = np.zeros(m.shape)
    rot = polar_so3(m[..., :3, :3])
    out[..., :3, :3] = rot
    out[..., :3, 3] = m[..., :3, 3]
    out[..., 3, 3] = 1.0
    out[np.isnan(rot[..., 0, 0])] = np.nan
    return out


def lyapunov_decrease_check(
    errors: ErrorSample,
    V: np.ndarray,
    params: LyapunovParams,
    kind: ObserverKind,
    gains: Gains,
    bounds: Bounds,
    F: np.ndarray,
) -> LyapunovReport:
    """Monotonicity and envelope verdicts along a stack of samples.

    ``errors`` and ``V`` are what :meth:`~lieobs.integrate.SimRecord.errors_and_V`
    returns: a stacked :class:`ErrorSample` and one Lyapunov value per
    instant, with the times read from ``errors.t``. Checks (i) the fraction
    of consecutive samples with ``V(t+d) <= V(t) (1 + 1e-9)``, (ii) the
    largest absolute violation, and (iii) the pointwise envelope
    ``V(t) <= alpha V1(0) exp(-beta t) (1 + 1e-6)``, where V1 is evaluated
    on the first sample's error norms. An overflowed, ``+inf`` ``V`` is
    judged with no warning: a rise from a finite value to it is a
    violation of ``inf``, a step from ``inf`` to ``inf`` is no rise, and
    a row where ``V`` and the envelope are both ``inf`` has no excess.
    Where an overflowed ``V1(0)`` meets an ``exp(-beta t)`` that
    underflowed to 0, the envelope is taken in the log domain, not as
    their NaN product. Diagnostic only: a failed envelope is reported, never raised.
    """
    if np.ndim(errors.t) != 1:
        raise DimensionError("errors must be a stack of instants, got one instant")
    ts, vs = np.asarray(errors.t, dtype=float), np.asarray(V, dtype=float)
    if vs.shape != ts.shape:
        raise DimensionError(f"V has shape {vs.shape}, need one value per time {ts.shape}")
    if len(ts) == 0:
        raise DomainError("no samples to check")
    if np.isnan(vs).any():
        raise DomainError("Lyapunov values are missing")

    nxt = vs[1:]
    # A bound past the largest float is +inf, which nothing rises above.
    with np.errstate(over="ignore"):
        bound = vs[:-1] * (1.0 + 1e-9)
    ok = nxt <= bound
    monotone_fraction = float(np.count_nonzero(ok)) / float(len(ok)) if len(ok) else 1.0
    rise = np.subtract(nxt, bound, out=np.zeros(len(ok)), where=~ok)
    max_violation = float(np.max(rise, initial=0.0))

    x1 = frob_norm(errors.script_E_A[0] if kind.uses_inverse else errors.E_A[0])
    if math.isnan(x1):
        raise DomainError("first sample lacks the script error")
    x2 = frob_norm(errors.e_b[0])
    u, _l2, _a, _c = _family_params(kind, gains, bounds, F)
    # As in lyapunov_value, an overflowing quadratic part is V1(0) = +inf.
    with np.errstate(over="ignore", invalid="ignore"):
        quad = 0.5 * x1 * x1 + x2 * x2 / (2.0 * gains.k_I)
        v1_0 = quad if math.isinf(quad) else quad - params.epsilon * u * x1 * x2
    with np.errstate(invalid="ignore"):
        env = params.alpha * v1_0 * np.exp(-params.beta * ts) * (1.0 + 1e-6)
    # Only the NaN rows, inf * 0, are redone: V1(0) = s^2 q, s = max(x1, x2).
    lost = np.isnan(env)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = max(x1, x2)
        a, b = x1 / s, x2 / s
        q = 0.5 * a * a + b * b / (2.0 * gains.k_I) - params.epsilon * u * a * b
        env[lost] = np.exp(np.log(params.alpha) + 2.0 * np.log(s) + np.log(q)
                           - params.beta * ts[lost]) * (1.0 + 1e-6)
    excess = np.subtract(vs, env, out=np.zeros(len(vs)), where=vs != env)
    max_excess = float(np.max(excess))
    return LyapunovReport(
        monotone_fraction=monotone_fraction,
        max_violation=max_violation,
        envelope_ok=bool(max_excess <= 0.0),
        max_envelope_excess=max_excess,
        n_samples=len(ts),
    )
