"""The observers off SE(3): all seven kinds on SO(3).

The paper claims its observers work on any matrix Lie group; nothing in
the kernels, the bounds or the errors is specific to SE(3). Here the
truth is a rotation co-integrated from a bounded twist, measured through
``F = diag(1, 2, 3)``, with k_P = 8 and k_I = 2 above every kind's floor.
"""

import math

import numpy as np
import pytest

from lieobs.integrate import SimConfig, simulate
from lieobs.kinematics import MeasurementModel, VelocityTruth, measure
from lieobs.liegroup import AlgebraElement, algebra_basis_so3, hat_so3
from lieobs.matcore import mat_exp
from lieobs.observers import Gains, ObserverKind, ObserverState

SO3 = algebra_basis_so3()
F = np.diag([1.0, 2.0, 3.0])
BIAS = AlgebraElement(SO3, hat_so3([0.3, -0.2, 0.4]))
G0 = mat_exp(hat_so3([0.2, -0.1, 0.3]))
# Rotation from the true initial attitude to the estimate's.
OFFSET = mat_exp(hat_so3([1.2, 0.0, -0.4]))

# Final err_eb after 20 s at h = 0.01 from OFFSET and a zero bias estimate,
# measured: 7.5e-10 (I, I_tv), 5.4e-9 (II, II_tv), 2.5e-5 (I_mod) and
# 4.6e-3 (III, IV), from 0.76 at t = 0. Each limit has a margin of 6-20x.
FINAL_EB = {
    ObserverKind.I: 1e-8,
    ObserverKind.I_TV: 1e-8,
    ObserverKind.II: 1e-7,
    ObserverKind.II_TV: 1e-7,
    ObserverKind.I_MOD: 3e-4,
    ObserverKind.III: 3e-2,
    ObserverKind.IV: 3e-2,
}


def velocity_of(t):
    return hat_so3([math.sin(t), 0.5 * math.cos(2.0 * t), 0.3 + 0.2 * math.sin(0.5 * t)])


def so3_config(kind, exact, **overrides):
    model = MeasurementModel(kind.side, F)
    if exact:
        a_bar0, b_bar0 = measure(model, G0), BIAS.matrix
    else:
        a_bar0, b_bar0 = measure(model, G0 @ OFFSET), np.zeros((3, 3))
    if kind.projected_bias:
        b_bar0 = AlgebraElement(SO3, b_bar0)
    return SimConfig(
        kind=kind,
        gains=Gains(k_P=8.0, k_I=2.0),
        model=model,
        bias=BIAS,
        initial_observer=ObserverState(a_bar0, b_bar0),
        truth=VelocityTruth(SO3, velocity_of, G0),
        record_stride=100,
        strict_gains=True,
        **overrides,
    )


@pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
def test_exact_start_stays_stationary(kind):
    # The step of the SE(3) stationarity criterion. At h = 0.01 the
    # right-side kinds drift by about 7e-8: A = g^-1 F of the RK4-stepped
    # pose is not the RK4 step of dA/dt = -xi A, an O(h^4) difference.
    rec = simulate(so3_config(kind, exact=True, horizon=1.0, step=1e-3))
    assert np.max(rec.errors.err_EA + rec.errors.err_eb) < 1e-8
    # SO(3) is compact: every singular value of the pose is 1.
    assert abs(rec.bounds.L_g - 1.0) < 1e-9 and abs(rec.bounds.U_g - 1.0) < 1e-9


@pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
def test_bias_error_decays_from_offset_start(kind):
    rec = simulate(so3_config(kind, exact=False, horizon=20.0, step=0.01))
    err_eb = rec.errors.err_eb
    assert err_eb[0] > 0.7
    assert err_eb[-1] < FINAL_EB[kind]
