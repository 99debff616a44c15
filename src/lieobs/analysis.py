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
from .matcore import _frob_rows, _guarded_inv, frob_inner, frob_norm, polar_so3, singular_extremes
from .observers import Gains, ObserverKind, ObserverState

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


def _norms(x: np.ndarray):
    """Frobenius norm of a matrix (a float) or of each member of a stack."""
    return frob_norm(x) if x.ndim == 2 else np.sqrt(_frob_rows(x, x))


@dataclass(frozen=True, eq=False)
class ErrorSample:
    """Observer errors at one instant, or at each of a stack of instants.

    ``E_A = A - A_bar`` and ``e_b = b - b_bar`` always exist. ``E_g`` is
    the group-estimate error and is absent when the estimate is not
    recoverable (near-singular ``A_bar`` on the right-measurement side).
    ``script_E_A`` is the multiplicative state error, ``I - A^-1 A_bar``
    on the left side and ``I - A_bar A^-1`` on the right, absent when
    ``A`` is singular.

    One instant holds ``(n, n)`` matrices and None for an absent field.
    A stack holds ``(K, n, n)`` arrays and ``K`` times, and an absent
    member is a row of NaN. The ``err_*`` norms are floats for one
    instant and ``(K,)`` arrays for a stack, NaN where ``E_g`` is absent.
    """

    t: float | np.ndarray
    E_A: np.ndarray
    e_b: np.ndarray
    E_g: np.ndarray | None = None
    script_E_A: np.ndarray | None = None

    @property
    def err_EA(self):
        return _norms(self.E_A)

    @property
    def err_eb(self):
        return _norms(self.e_b)

    @property
    def err_Eg(self):
        return _norms(self.E_g) if self.E_g is not None else math.nan


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
    call bit for bit.

    Degeneracies never raise: an optional field is None for one sample
    and a NaN row for a stack member. ``E_g`` is absent exactly when
    :func:`~lieobs.matcore.mat_inv` rejects the matrix
    :func:`~lieobs.observers.estimate_g` inverts: ``F`` on the
    left-measurement side, ``A_bar`` on the right, where ``A_bar`` transits
    the ambient space and may pass near singularity during the transient
    (sigma_min <= 1e-10 sigma_max). The script error is absent exactly
    when ``mat_inv`` rejects ``A``. Only ``t``, ``g``, ``b`` and ``A`` of
    ``truth`` are read.
    """
    A_bar = np.asarray(state.A_bar, dtype=float)
    A = np.asarray(truth.A, dtype=float)
    F = np.asarray(F, dtype=float)
    if A_bar.shape[-2:] != F.shape[-2:]:
        raise DimensionError(
            f"A_bar shape {A_bar.shape} does not match F shape {F.shape}"
        )
    E_A = A - A_bar
    e_b = truth.b.matrix - state.b_matrix
    left = kind.side == "left"
    if left:
        F_inv, no_g = _guarded_inv(F)
        E_g = truth.g - F_inv @ A_bar
    else:
        A_bar_inv, no_g = _guarded_inv(A_bar)
        E_g = truth.g - F @ A_bar_inv
    A_inv, no_script = _guarded_inv(A)
    eye = np.eye(A.shape[-1])
    script = eye - A_inv @ A_bar if left else eye - A_bar @ A_inv
    if E_A.ndim == 2:
        return ErrorSample(
            truth.t, E_A, e_b, None if no_g else E_g, None if no_script else script
        )
    E_g[np.broadcast_to(no_g, E_g.shape[:-2])] = np.nan
    script[no_script] = np.nan
    return ErrorSample(truth.t, E_A, e_b, E_g, script)


def _family_params(
    kind: ObserverKind, gains: Gains, bounds: Bounds, F: np.ndarray
) -> tuple[float, float, float, float]:
    """(u, l2, a, c) for the kind's quadratic-form template."""
    c = gains.k_P + bounds.B_b + 2.0 * bounds.B_xi
    if kind.uses_inverse:
        return 1.0, 1.0, 2.0 * bounds.B_xi + bounds.B_b, c
    f_norm = frob_norm(F)
    smin, _ = singular_extremes(F)
    lam_min = smin * smin
    a = bounds.B_xi + bounds.B_b
    if kind.side == "left":
        return f_norm * bounds.U_g, lam_min * bounds.L_g**2, a, c
    return f_norm / bounds.L_g, lam_min / bounds.U_g**2, a, c


def epsilon_bound(
    kind: ObserverKind, gains: Gains, bounds: Bounds, F: np.ndarray
) -> tuple[float, float]:
    """Admissibility limits (H, cap) for the Lyapunov mixing weight.

    Admissible epsilons form the open interval (0, min(H, cap)). A gain
    below the kind's floor shows up as H <= 0; that is a return value,
    not an exception, so callers can report it.
    """
    u, l2, a, c = _family_params(kind, gains, bounds, F)
    H = 4.0 * (gains.k_P - a) * l2 / (u * u * (4.0 * gains.k_I * l2 + c * c))
    cap = 1.0 / (u * math.sqrt(gains.k_I))
    return H, cap


def suggested_epsilon(
    kind: ObserverKind, gains: Gains, bounds: Bounds, F: np.ndarray
) -> float | None:
    """Default diagnostic epsilon: half the admissible bound, or None
    when the gains admit no positive epsilon."""
    H, cap = epsilon_bound(kind, gains, bounds, F)
    if H <= 0.0:
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

    Transpose-feedback kinds use the additive state error with the cross
    term ``+eps <E_A, A e_b>`` (left) or ``-eps <E_A, e_b A>`` (right);
    inverse-feedback kinds use the script error with ``+-eps <script, e_b>``.
    A stack gives each member's value bit for bit, and NaN where its
    script error is absent; one sample without it raises DomainError.
    """
    e_b = err.e_b
    inner = frob_inner if e_b.ndim == 2 else _frob_rows
    if kind.uses_inverse:
        if err.script_E_A is None:
            raise DomainError(
                f"kind {kind.value} Lyapunov value needs the script error, "
                "unavailable here (A singular)"
            )
        x = err.script_E_A
        cross = inner(x, e_b)
        sign = 1.0 if kind is ObserverKind.III else -1.0
    else:
        x = err.E_A
        A = np.asarray(A, dtype=float)
        if kind.side == "left":
            cross = inner(x, A @ e_b)
            sign = 1.0
        else:
            cross = inner(x, e_b @ A)
            sign = -1.0
    return (
        0.5 * inner(x, x)
        + inner(e_b, e_b) / (2.0 * gains.k_I)
        + sign * epsilon * cross
    )


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

    Builds the three 2x2 forms, rejects any strictly indefinite one, and
    returns alpha = max generalized eigenvalue of (V2, V1) and beta = min
    generalized eigenvalue of (V3, V2). The positive semidefinite
    boundary is allowed: epsilon = 0 gives alpha = 1 and beta = 0.
    """
    if epsilon < 0.0:
        raise InadmissibleEpsilonError(f"epsilon must be nonnegative, got {epsilon}")
    u, l2, a, c = _family_params(kind, gains, bounds, F)
    H, _cap = epsilon_bound(kind, gains, bounds, F)
    p = 0.5
    r = 1.0 / (2.0 * gains.k_I)
    q = 0.5 * epsilon * u
    m1 = np.array([[p, -q], [-q, r]])
    m2 = np.array([[p, q], [q, r]])
    a1 = gains.k_P - a - epsilon * gains.k_I * u * u
    bq = -0.5 * epsilon * u * c
    m3 = np.array([[a1, bq], [bq, epsilon * l2]])

    for label, m in (("V1", m1), ("V2", m2), ("V3", m3)):
        scale = max(1.0, float(np.max(np.abs(m))))
        if _min_eig_2x2(m) < -1e-12 * scale:
            raise InadmissibleEpsilonError(
                f"{label} form is indefinite at epsilon={epsilon!r}"
            )
    s = math.sqrt(p * r)
    if q >= s:
        raise InadmissibleEpsilonError(
            f"epsilon={epsilon!r} reaches the positivity cap of the V1 form"
        )
    alpha = (s + q) / (s - q)
    beta = _min_gen_eig_2x2(m3, m2)
    return LyapunovParams(epsilon=epsilon, H=H, alpha=alpha, beta=beta)


def fit_exponential(series, window: tuple[float, float]) -> ConvergenceFit:
    """Least-squares fit of ln(value) against t over a window.

    ``series`` is a sequence of (t, value) pairs. Samples outside the
    window or at/below the 1e-13 validity floor are dropped; fewer than
    ten surviving points raise :class:`~lieobs.errors.FitError`.
    """
    arr = np.asarray(list(series), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DimensionError(f"series must be (t, value) pairs, got shape {arr.shape}")
    t0, t1 = float(window[0]), float(window[1])
    if not t0 < t1:
        raise DomainError(f"window must satisfy t0 < t1, got ({t0}, {t1})")
    t, v = arr[:, 0], arr[:, 1]
    mask = (t >= t0) & (t <= t1) & (v > 1e-13)
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

    Takes one 4x4 matrix or a stack ``(..., 4, 4)``. A rank-deficient
    rotation block raises DegeneracyError for one matrix and gives a
    NaN member in a stack, as :func:`~lieobs.matcore.polar_so3` does.
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
    record,
    params: LyapunovParams,
    kind: ObserverKind,
    gains: Gains,
    bounds: Bounds,
    F: np.ndarray,
    step_tol: float = 1e-9,
    envelope_tol: float = 1e-6,
) -> LyapunovReport:
    """Monotonicity and envelope verdicts for a simulated record.

    Checks (i) the fraction of consecutive samples with
    ``V(t+d) <= V(t) (1 + step_tol)``, (ii) the largest absolute
    violation, and (iii) the pointwise envelope
    ``V(t) <= alpha V1(0) exp(-beta t) (1 + envelope_tol)``, where V1 is
    evaluated on the first sample's error norms. Diagnostic only: a
    failed envelope is reported, never raised.
    """
    samples = record.samples
    if not samples:
        raise DomainError("record has no samples")
    vs = []
    for s in samples:
        if s.V is None:
            raise DomainError("record is missing Lyapunov values")
        vs.append(s.V)
    vs = np.asarray(vs, dtype=float)
    ts = np.asarray([s.t for s in samples], dtype=float)

    if len(vs) > 1:
        prev, nxt = vs[:-1], vs[1:]
        ok = nxt <= prev * (1.0 + step_tol)
        monotone_fraction = float(np.count_nonzero(ok)) / float(len(ok))
        max_violation = float(np.max(np.maximum(nxt - prev * (1.0 + step_tol), 0.0)))
    else:
        monotone_fraction = 1.0
        max_violation = 0.0

    first = samples[0].errors
    if kind.uses_inverse:
        if first.script_E_A is None:
            raise DomainError("first sample lacks the script error")
        x1 = frob_norm(first.script_E_A)
    else:
        x1 = first.err_EA
    x2 = first.err_eb
    u, _l2, _a, _c = _family_params(kind, gains, bounds, F)
    v1_0 = (
        0.5 * x1 * x1
        + x2 * x2 / (2.0 * gains.k_I)
        - params.epsilon * u * x1 * x2
    )
    env = params.alpha * v1_0 * np.exp(-params.beta * ts) * (1.0 + envelope_tol)
    excess = vs - env
    max_excess = float(np.max(excess))
    return LyapunovReport(
        monotone_fraction=monotone_fraction,
        max_violation=max_violation,
        envelope_ok=bool(max_excess <= 0.0),
        max_envelope_excess=max_excess,
        n_samples=len(samples),
    )
