"""End-to-end checks on the SE(3) benchmark.

One test per acceptance criterion; each prints a single [PASS]/[FAIL]
line with the measured numbers so the module output reads as a
checklist. Thresholds are fixed; loosening them is never the fix for a
failure here.
"""

import math
import time
import warnings

import numpy as np
import pytest
from conftest import scenario_a_config

from lieobs.analysis import (
    fit_exponential,
    lyapunov_decrease_check,
    project_se3,
    quadform_rates,
    suggested_epsilon,
)
from lieobs.errors import ConstructionError
from lieobs.integrate import simulate
from lieobs.kinematics import LandmarkSet, build_F, measure, se3_benchmark_landmarks
from lieobs.kinematics import MeasurementModel
from lieobs.liegroup import hat_so3, project_matrix
from lieobs.matcore import frob_norm, mat_exp, mat_inv, polar_so3, singular_extremes
from lieobs.observers import Gains, ObserverKind, ObserverState, gain_floor

STATIONARY_KINDS = (
    ObserverKind.I,
    ObserverKind.I_MOD,
    ObserverKind.I_TV,
    ObserverKind.II,
    ObserverKind.III,
    ObserverKind.IV,
)


def report(number, label, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number}: {label} ({detail})")
    assert ok, f"criterion {number}: {label}: {detail}"


def row_at(record, t):
    """The index of the recorded instant nearest ``t``."""
    return int(np.argmin(np.abs(record.t - t)))


def quiet_simulate(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate(cfg)


def test_criterion_1_stationarity(benchmark_truth, benchmark_bias, benchmark_F,
                                  benchmark_bounds):
    worst = 0.0
    start = time.perf_counter()
    for kind in STATIONARY_KINDS:
        model = MeasurementModel(kind.side, benchmark_F)
        g0, _, _ = benchmark_truth.state_of(0.0)
        a0 = measure(model, g0, 0.0)
        b0 = benchmark_bias.matrix.copy() if kind is ObserverKind.I_MOD else benchmark_bias
        cfg = scenario_a_config(
            benchmark_truth,
            benchmark_bias,
            benchmark_F,
            kind=kind,
            model=model,
            initial_observer=ObserverState(a0, b0),
            record_stride=100,
            bounds=benchmark_bounds,
            lyapunov_epsilon=0.0,
        )
        record = quiet_simulate(cfg)
        err, _ = record.errors_and_V()
        drift = float(np.max(err.err_EA + err.err_eb))
        worst = max(worst, drift)
    wall = time.perf_counter() - start
    ok = worst < 1e-8 and wall < 30.0
    report(
        1,
        "exactly initialized observers stay stationary for 30 s",
        ok,
        f"max drift {worst:.3e} over {len(STATIONARY_KINDS)} kinds, wall {wall:.1f}s",
    )


def test_criterion_2_benchmark_convergence(scenario_a):
    record, wall = scenario_a
    err, _ = record.errors_and_V()
    last_Eg, last_eb = err.err_Eg[-1], err.err_eb[-1]
    fit = fit_exponential(zip(record.t, err.err_Eg + err.err_eb), (5.0, 25.0))
    slope = -fit.a
    ok = (
        last_Eg < 1e-2
        and last_eb < 1e-2
        and slope <= -0.1
        and fit.residual < 0.5
        and wall < 10.0
    )
    report(
        2,
        "pose and bias errors converge exponentially",
        ok,
        f"final err_Eg {last_Eg:.2e}, err_eb {last_eb:.2e}, "
        f"slope {slope:.3f}, residual {fit.residual:.3f}, wall {wall:.1f}s",
    )


def test_criterion_3_fast_bias_variant(benchmark_truth, benchmark_bias, benchmark_F):
    cfg = scenario_a_config(
        benchmark_truth,
        benchmark_bias,
        benchmark_F,
        kind=ObserverKind.IV,
        gains=Gains(4.0, 4.0),
    )
    record = quiet_simulate(cfg)
    err_eb = record.errors_and_V()[0].err_eb
    eb2, eb10, eb30 = (err_eb[row_at(record, t)] for t in (2.0, 10.0, 30.0))
    ok = eb10 < eb2 and eb30 < 0.1
    report(
        3,
        "high-integral variant drives bias error down fast",
        ok,
        f"err_eb(2)={eb2:.3e}, err_eb(10)={eb10:.3e}, err_eb(30)={eb30:.3e}",
    )


def test_criterion_4_lyapunov_envelope(benchmark_truth, benchmark_bias,
                                       benchmark_F, benchmark_bounds):
    kind = ObserverKind.II
    floor = gain_floor(kind, benchmark_bounds)
    gains = Gains(1.1 * floor, 0.75)
    eps = suggested_epsilon(kind, gains, benchmark_bounds, benchmark_F)
    cfg = scenario_a_config(
        benchmark_truth,
        benchmark_bias,
        benchmark_F,
        gains=gains,
        bounds=benchmark_bounds,
        lyapunov_epsilon=eps,
    )
    record = simulate(cfg)
    params = quadform_rates(kind, eps, gains, benchmark_bounds, benchmark_F)
    rep = lyapunov_decrease_check(
        *record.errors_and_V(), params, kind, gains, benchmark_bounds, benchmark_F
    )
    ok = rep.monotone_fraction == 1.0 and rep.envelope_ok
    report(
        4,
        "certified energy decays monotonically inside its envelope",
        ok,
        f"k_P={gains.k_P:.4f}, eps={eps:.3e}, beta={params.beta:.3e}, "
        f"monotone {rep.monotone_fraction:.4f}, max step violation "
        f"{rep.max_violation:.1e}, envelope excess {rep.max_envelope_excess:.1e}",
    )


def test_criterion_5_projection_identities(se3):
    rng = np.random.default_rng(5)
    worst_closed = worst_idem = worst_adjoint = worst_polar = 0.0
    for _ in range(100):
        m = rng.normal(size=(4, 4))
        n = rng.normal(size=(4, 4))
        p = project_matrix(se3, m)
        # se(3) block formula: skew part of the rotation block, translation
        # column kept, last row zero.
        block = np.zeros((4, 4))
        block[:3, :3] = 0.5 * (m[:3, :3] - m[:3, :3].T)
        block[:3, 3] = m[:3, 3]
        worst_closed = max(worst_closed, frob_norm(p - block))
        worst_idem = max(worst_idem, frob_norm(project_matrix(se3, p) - p))
        worst_adjoint = max(
            worst_adjoint,
            abs(np.vdot(p, n) - np.vdot(m, project_matrix(se3, n))),
        )
        r = mat_exp(hat_so3(rng.normal(size=3)))
        worst_polar = max(worst_polar, frob_norm(polar_so3(r) - r))
    ok = max(worst_closed, worst_idem, worst_adjoint, worst_polar) < 1e-12
    report(
        5,
        "algebra projection and polar factor behave as orthogonal projections",
        ok,
        f"block formula {worst_closed:.1e}, idempotence {worst_idem:.1e}, "
        f"self-adjointness {worst_adjoint:.1e}, polar fix {worst_polar:.1e}",
    )


def test_criterion_6_rigid_factor_tracking(scenario_a):
    record, _ = scenario_a
    err, _ = record.errors_and_V()
    rows = (record.t >= 10.0) & ~np.isnan(err.E_g).all(axis=(1, 2))
    g = record.g[rows]
    g_hat = g - err.E_g[rows]
    proj = project_se3(g_hat)
    worst_gap = float(np.max(frob_norm(g_hat - proj), initial=0.0))
    bound = 2.0 * (frob_norm(g - g_hat) + 1e-3)
    worst_ratio = float(np.max(frob_norm(g - proj) / bound, initial=0.0))
    checked = int(np.count_nonzero(rows))
    ok = checked > 0 and worst_gap < 0.05 and worst_ratio < 1.0
    report(
        6,
        "estimates stay near the rigid-motion manifold once converged",
        ok,
        f"{checked} samples, max manifold gap {worst_gap:.3e}, "
        f"max projected/allowed ratio {worst_ratio:.3f}",
    )


def test_criterion_7_integrator_order(benchmark_truth, benchmark_bias,
                                      benchmark_F, benchmark_bounds):
    def endpoint(h):
        cfg = scenario_a_config(
            benchmark_truth,
            benchmark_bias,
            benchmark_F,
            horizon=1.0,
            step=h,
            record_stride=int(round(1.0 / h)),
            bounds=benchmark_bounds,
            lyapunov_epsilon=0.0,
        )
        record = quiet_simulate(cfg)
        return record.A_bar[-1], record.b_bar[-1]

    a_ref, b_ref = endpoint(1e-5)
    devs = []
    for h in (4e-3, 2e-3, 1e-3):
        a_h, b_h = endpoint(h)
        devs.append(frob_norm(a_h - a_ref) + frob_norm(b_h - b_ref))
    r1 = devs[0] / devs[1]
    r2 = devs[1] / devs[2]
    ok = 12.0 <= r1 <= 20.0 and 12.0 <= r2 <= 20.0
    report(
        7,
        "halving the step cuts the endpoint error sixteenfold",
        ok,
        f"ratios {r1:.2f}, {r2:.2f} (errors {devs[0]:.2e}, {devs[1]:.2e}, {devs[2]:.2e})",
    )


def bareiss_det(matrix):
    """Fraction-free integer determinant, independent of any solver."""
    a = [[int(round(x)) for x in row] for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def test_criterion_8_landmark_gram_matrix():
    landmarks = se3_benchmark_landmarks()
    f = build_F(landmarks)
    expected = np.array(
        [
            [2.0, 0.0, 1.0, 2.0],
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 3.0, 2.0],
            [2.0, 1.0, 2.0, 4.0],
        ]
    )
    exact = np.array_equal(f, expected)
    det = bareiss_det(f) if exact else None
    try:
        build_F(LandmarkSet(landmarks.S, np.diag([1.0, 1.0, 0.0, 0.0, 0.0])))
        rejected = False
    except ConstructionError:
        rejected = True
    ok = exact and det == 3 and rejected
    report(
        8,
        "benchmark landmarks produce the expected full-rank Gram matrix",
        ok,
        f"entries exact: {exact}, elimination det: {det}, "
        f"rank-deficient weights rejected: {rejected}",
    )


def test_criterion_9_norm_bracketing():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        smin, smax = singular_extremes(a)
        nb = frob_norm(b)
        nab = frob_norm(a @ b)
        worst = max(worst, smin * nb - nab, nab - smax * nb)

        f = rng.normal(size=(4, 4))
        while singular_extremes(f)[0] < 1e-2:
            f = rng.normal(size=(4, 4))
        e_g = rng.normal(size=(4, 4))
        e_a = f @ e_g
        ea, eg = frob_norm(e_a), frob_norm(e_g)
        f_norm = frob_norm(f)
        f_inv_norm = frob_norm(mat_inv(f))
        worst = max(worst, eg / f_inv_norm - ea, ea - f_norm * eg)
    ok = worst < 1e-10
    report(
        9,
        "products and measurement errors obey the singular-value brackets",
        ok,
        f"max bracket violation {worst:.2e} over 100 draws",
    )
