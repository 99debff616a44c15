"""The observers off SE(3): all seven kinds on SO(3) and on SL(2).

The paper claims its observers work on any matrix Lie group; nothing in
the kernels, the bounds or the errors is specific to SE(3). Each case is
a pose co-integrated from a bounded twist and measured through a
diagonal ``F``, with k_P = 8 and k_I = 2 above every kind's floor. SO(3)
is compact, so its pose has unit singular values. SL(2) is not, so its
pose envelope ``L_g < 1 < U_g`` enters the certificate, and both groups
check the certificate's Lyapunov envelope as acceptance criterion 4 does
on SE(3).
"""

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from lieobs.analysis import lyapunov_decrease_check, quadform_rates, suggested_epsilon
from lieobs.integrate import SimConfig, _resolve_bounds, simulate
from lieobs.kinematics import MeasurementModel, VelocityTruth, measure
from lieobs.liegroup import AlgebraElement, GroupSpec, algebra_basis_so3, hat_so3
from lieobs.matcore import mat_exp
from lieobs.observers import Gains, ObserverKind, ObserverState, gain_floor


class Case(NamedTuple):
    group: GroupSpec
    F: np.ndarray
    bias: np.ndarray
    g0: np.ndarray
    offset: np.ndarray  # from the true initial pose to the estimate's
    velocity_of: Callable[[float], np.ndarray]
    final_eb: dict  # upper limit on err_eb after 20 s at h = 0.01


SO3 = algebra_basis_so3()


def so3_velocity(t):
    return hat_so3([math.sin(t), 0.5 * math.cos(2.0 * t), 0.3 + 0.2 * math.sin(0.5 * t)])


# Final err_eb measured from 0.76 at t = 0: 7.5e-10 (I, I_tv), 5.4e-9
# (II, II_tv), 2.5e-5 (I_mod) and 4.6e-3 (III, IV). Each limit has a
# margin of 6-20x.
SO3_CASE = Case(
    group=SO3,
    F=np.diag([1.0, 2.0, 3.0]),
    bias=hat_so3([0.3, -0.2, 0.4]),
    g0=mat_exp(hat_so3([0.2, -0.1, 0.3])),
    offset=mat_exp(hat_so3([1.2, 0.0, -0.4])),
    velocity_of=so3_velocity,
    final_eb={
        ObserverKind.I: 1e-8,
        ObserverKind.I_TV: 1e-8,
        ObserverKind.II: 1e-7,
        ObserverKind.II_TV: 1e-7,
        ObserverKind.I_MOD: 3e-4,
        ObserverKind.III: 3e-2,
        ObserverKind.IV: 3e-2,
    },
)

# sl(2): traceless 2x2 matrices, with the orthonormal basis diag(1, -1)/sqrt(2),
# E12 and E21.
D = np.diag([1.0, -1.0])
ROT = np.array([[0.0, -1.0], [1.0, 0.0]])
SL2 = GroupSpec("SL(2)", 2, np.stack([D / math.sqrt(2.0), [[0.0, 1.0], [0.0, 0.0]],
                                      [[0.0, 0.0], [1.0, 0.0]]]))
SL2_A, SL2_W = 0.6, 0.8


def sl2_velocity(t):
    # Body twist of g(t) = exp(a sin t D) Q(t) with Q(t) = exp(w t ROT):
    # Q^T (a cos t D) Q + w ROT. The pose stretches by exp(+-a sin t), so
    # its singular values stay within [exp(-a), exp(a)].
    q = mat_exp(SL2_W * t * ROT)
    return q.T @ (SL2_A * math.cos(t) * D) @ q + SL2_W * ROT


# Final err_eb measured from 0.62 at t = 0: 1.6e-7 (I, I_tv), 1.1e-7
# (II, II_tv), 2.3e-4 (I_mod) and 4.5e-3 (III, IV). Each limit has a
# margin of 6-18x.
SL2_CASE = Case(
    group=SL2,
    F=np.diag([1.0, 2.0]),
    bias=np.array([[0.3, 0.2], [-0.4, -0.3]]),
    g0=np.eye(2),
    offset=mat_exp(np.array([[0.4, -0.7], [0.5, -0.4]])),
    velocity_of=sl2_velocity,
    final_eb={
        ObserverKind.I: 2e-6,
        ObserverKind.I_TV: 2e-6,
        ObserverKind.II: 2e-6,
        ObserverKind.II_TV: 2e-6,
        ObserverKind.I_MOD: 2e-3,
        ObserverKind.III: 3e-2,
        ObserverKind.IV: 3e-2,
    },
)


def case_config(case, kind, exact, **overrides):
    model = MeasurementModel(kind.side, case.F)
    if exact:
        a_bar0, b_bar0 = measure(model, case.g0), case.bias
    else:
        a_bar0, b_bar0 = measure(model, case.g0 @ case.offset), np.zeros_like(case.bias)
    if kind.projected_bias:
        b_bar0 = AlgebraElement(case.group, b_bar0)
    return SimConfig(
        kind=kind,
        gains=Gains(k_P=8.0, k_I=2.0),
        model=model,
        bias=AlgebraElement(case.group, case.bias),
        initial_observer=ObserverState(a_bar0, b_bar0),
        truth=VelocityTruth(case.group, case.velocity_of, case.g0),
        record_stride=100,
        strict_gains=True,
        **overrides,
    )


def assert_stationary(case, kind):
    # The step of the SE(3) stationarity criterion. At h = 0.01 the
    # right-side kinds drift by about 7e-8 on SO(3): A = g^-1 F of the
    # RK4-stepped pose is not the RK4 step of dA/dt = -xi A, an O(h^4)
    # difference.
    rec = simulate(case_config(case, kind, exact=True, horizon=1.0, step=1e-3))
    err, _ = rec.errors_and_V()
    assert np.max(err.err_EA + err.err_eb) < 1e-8
    return rec


def assert_bias_error_decays(case, kind):
    rec = simulate(case_config(case, kind, exact=False, horizon=20.0, step=0.01))
    err_eb = rec.errors_and_V()[0].err_eb
    assert err_eb[0] == pytest.approx(np.linalg.norm(case.bias), rel=1e-12)
    assert err_eb[-1] < case.final_eb[kind]


@pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
def test_exact_start_stays_stationary(kind):
    rec = assert_stationary(SO3_CASE, kind)
    # SO(3) is compact: every singular value of the pose is 1.
    assert abs(rec.bounds.L_g - 1.0) < 1e-9 and abs(rec.bounds.U_g - 1.0) < 1e-9


@pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
def test_bias_error_decays_from_offset_start(kind):
    assert_bias_error_decays(SO3_CASE, kind)


@pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
def test_sl2_exact_start_stays_stationary(kind):
    rec = assert_stationary(SL2_CASE, kind)
    # Over 1 s the stretch reaches exp(+-0.6 sin 1): L_g = 0.604 and
    # U_g = 1.657, which scale the transpose-feedback kinds' certificate.
    bounds = rec.bounds
    assert bounds.L_g < 1.0 < bounds.U_g
    assert bounds.L_g == pytest.approx(math.exp(-SL2_A * math.sin(1.0)), rel=1e-3)
    assert bounds.U_g == pytest.approx(math.exp(SL2_A * math.sin(1.0)), rel=1e-3)
    assert rec.floor == gain_floor(kind, bounds) < 8.0


@pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
def test_sl2_bias_error_decays_from_offset_start(kind):
    assert_bias_error_decays(SL2_CASE, kind)


@pytest.mark.parametrize("case", [SO3_CASE, SL2_CASE], ids=["SO(3)", "SL(2)"])
@pytest.mark.parametrize("kind", [k for k in ObserverKind if not k.time_varying],
                         ids=lambda k: k.value)
def test_lyapunov_envelope(case, kind):
    # Criterion 4 off SE(3), for the five kinds of a constant F: k_P =
    # 1.1 x floor of the run's own bounds, k_I = 0.75 and the suggested
    # epsilon, every step recorded. Measured: V never rises, and stays
    # below the envelope by 1.3e-3 (SL(2), I) to 3.3e-2 (SO(3), I).
    base = dataclasses.replace(case_config(case, kind, exact=False, horizon=10.0, step=0.01),
                               record_stride=1)
    bounds = _resolve_bounds(base)
    gains = Gains(k_P=1.1 * gain_floor(kind, bounds), k_I=0.75)
    eps = suggested_epsilon(kind, gains, bounds, case.F)
    rec = simulate(dataclasses.replace(base, gains=gains, bounds=bounds, lyapunov_epsilon=eps))
    params = quadform_rates(kind, eps, gains, bounds, case.F)
    assert params.beta > 0.0
    rep = lyapunov_decrease_check(*rec.errors_and_V(), params, kind, gains, bounds, case.F)
    assert rep.n_samples == 1001
    assert rep.monotone_fraction == 1.0 and rep.envelope_ok
