"""Per-call microbenchmarks of the public entry points behind ``*_us``.

Each entry point runs in a warm loop: ``REPEATS`` timed batches of a call
count sized so one batch takes about ``BATCH_S``, after one untimed batch.
The metric is the median batch time per call, in microseconds.
"""

from __future__ import annotations

import statistics
import timeit

import numpy as np

from lieobs.analysis import compute_errors, lyapunov_value
from lieobs.integrate import rk4_step
from lieobs.kinematics import MeasurementModel, TruthSample, measure, se3_benchmark_truth
from lieobs.liegroup import AlgebraElement, algebra_basis_se3, project_matrix
from lieobs.matcore import mat_inv, singular_extremes
from lieobs.observers import Gains, ObserverKind, ObserverState, observer_rhs

import scenario

REPEATS = 7
BATCH_S = 0.01


def per_call_us(fn) -> float:
    timer = timeit.Timer(fn)
    warm = 100
    number = max(1, int(warm * BATCH_S / timer.timeit(warm)))
    return 1e6 * statistics.median(timer.repeat(REPEATS, number)) / number


def run() -> dict[str, float]:
    group = algebra_basis_se3()
    truth = se3_benchmark_truth()
    f0 = scenario.landmark_F()
    tf = scenario.TwistingF(0.4, 1.0)
    t = 0.7
    g, xi_mat, _ = truth.state_of(t)
    bias = AlgebraElement(group, scenario.twist([1.0, 0.5, -1.0], [0.5, -0.5, 0.5]))
    xi_m = AlgebraElement(group, xi_mat + bias.matrix)
    gains = Gains(4.0, 0.75)
    g_bar = scenario.pose([0.3, -0.2, 0.5], [0.1, 0.2, -0.1])
    b_bar = AlgebraElement(group, scenario.twist([0.1, 0.0, -0.2], [0.0, 0.3, 0.1]))

    out = {"kinematics.truth_us": per_call_us(lambda: truth.state_of(t))}
    for label in scenario.KINDS:
        kind = ObserverKind.from_label(label)
        if kind.time_varying:
            model = MeasurementModel(kind.side, tf.F, tf.F_dot, time_varying=True)
        else:
            model = MeasurementModel(kind.side, f0)
        A = measure(model, g, t)
        state = ObserverState(
            measure(model, g_bar, t),
            b_bar.matrix.copy() if kind is ObserverKind.I_MOD else b_bar,
        )
        aux = (tf.F(t), tf.F_dot(t)) if kind.time_varying else None
        out[f"observers.rhs_us.{label}"] = per_call_us(
            lambda: observer_rhs(kind, state, A, xi_m, gains, aux)
        )

    # Kind II on the constant benchmark map: the stock scenario's sample.
    model = MeasurementModel("right", f0)
    A = measure(model, g, t)
    state = ObserverState(measure(model, g_bar, t), b_bar)
    sample = TruthSample(t=t, g=g, xi=AlgebraElement(group, xi_mat), b=bias, xi_m=xi_m, A=A)
    err = compute_errors(ObserverKind.II, sample, state, f0)
    raw = np.random.default_rng(0).standard_normal((4, 4))
    out["matcore.inv_us"] = per_call_us(lambda: mat_inv(A))
    out["matcore.svd_us"] = per_call_us(lambda: singular_extremes(A))
    out["liegroup.project_us"] = per_call_us(lambda: project_matrix(group, raw))
    out["liegroup.element_us"] = per_call_us(lambda: AlgebraElement(group, xi_mat))
    out["analysis.errors_us"] = per_call_us(
        lambda: compute_errors(ObserverKind.II, sample, state, f0)
    )
    out["analysis.lyapunov_us"] = per_call_us(
        lambda: lyapunov_value(ObserverKind.II, 0.01, err, A, gains)
    )
    # The tableau alone: a linear right-hand side on the 22-entry observer
    # state (16 for A_bar, 6 bias coordinates) keeps the RHS cost out.
    lin = -np.eye(22) + 0.1 * np.random.default_rng(1).standard_normal((22, 22))
    y0 = np.ones(22)
    out["integrate.rk4_us"] = per_call_us(lambda: rk4_step(lambda _t, y: lin @ y, y0, 0.0, 1e-3))
    return out
