"""Observer vector fields: stationarity, algebra membership, gain floors,
equivariance, and state-estimate extraction."""

import math

import numpy as np
import pytest

from lieobs.errors import ConfigurationError, DimensionError, SingularityError
from lieobs.integrate import SimConfig, simulate
from lieobs.kinematics import (
    Bounds,
    MeasurementModel,
    benchmark_trajectory_se3,
    biased_velocity,
    measure,
    se3_benchmark_bias,
    se3_benchmark_truth,
)
from lieobs.liegroup import (
    AlgebraElement,
    algebra_basis_se3,
    hat_se3,
    hat_so3,
    project_matrix,
)
from lieobs.matcore import frob_norm, mat_exp, mat_inv
from lieobs.observers import (
    Gains,
    ObserverKind,
    ObserverState,
    estimate_g,
    gain_floor,
    _rhs_factory,
    observer_rhs,
)

LEFT_KINDS = (ObserverKind.I, ObserverKind.I_MOD, ObserverKind.I_TV, ObserverKind.III)
RIGHT_KINDS = (ObserverKind.II, ObserverKind.II_TV, ObserverKind.IV)

GAINS = Gains(k_P=4.0, k_I=0.75)


def truth_at(t, side, f):
    g, xi = benchmark_trajectory_se3(t)
    b = se3_benchmark_bias()
    a = measure(MeasurementModel(side, f), g)
    return g, xi, b, biased_velocity(xi, b), a


def twisting_f(f0):
    """Time-varying measurement map: a rotating frame applied to f0."""
    jz = hat_se3([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])

    def rz(t):
        theta = 0.4 * math.sin(t)
        out = np.eye(4)
        c, s = math.cos(theta), math.sin(theta)
        out[0, 0] = out[1, 1] = c
        out[0, 1], out[1, 0] = -s, s
        return out

    def f_of(t):
        return rz(t) @ f0

    def f_dot_of(t):
        return 0.4 * math.cos(t) * (jz @ rz(t) @ f0)

    return MeasurementModel("right", f_of, f_dot_of, time_varying=True), f_of


def twisting_f_left(f0):
    model, f_of = twisting_f(f0)
    return MeasurementModel("left", f_of, model.F_dot, time_varying=True)


class TestObserverKind:
    def test_sides(self):
        for kind in LEFT_KINDS:
            assert kind.side == "left"
        for kind in RIGHT_KINDS:
            assert kind.side == "right"

    def test_projected_bias(self):
        assert not ObserverKind.I_MOD.projected_bias
        for kind in ObserverKind:
            if kind is not ObserverKind.I_MOD:
                assert kind.projected_bias

    def test_time_varying_flags(self):
        assert ObserverKind.I_TV.time_varying
        assert ObserverKind.II_TV.time_varying
        assert not ObserverKind.I.time_varying
        assert not ObserverKind.IV.time_varying

    def test_inverse_flags(self):
        assert ObserverKind.III.uses_inverse
        assert ObserverKind.IV.uses_inverse
        assert not ObserverKind.II.uses_inverse

    def test_label_round_trip(self):
        for kind in ObserverKind:
            assert ObserverKind.from_label(kind.value) is kind

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigurationError):
            ObserverKind.from_label("V")


class TestGains:
    def test_positive_accepted(self):
        g = Gains(k_P=4.0, k_I=0.75)
        assert g.k_P == 4.0 and g.k_I == 0.75

    def test_zero_proportional_rejected(self):
        with pytest.raises(ConfigurationError):
            Gains(k_P=0.0, k_I=1.0)

    def test_negative_integral_rejected(self):
        with pytest.raises(ConfigurationError):
            Gains(k_P=1.0, k_I=-0.5)


class TestObserverState:
    def test_b_matrix_from_algebra_element(self, se3):
        b = AlgebraElement(se3, hat_se3([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
        st = ObserverState(np.eye(4), b)
        assert np.array_equal(st.b_matrix, b.matrix)

    def test_b_matrix_from_ambient(self):
        m = np.arange(16.0).reshape(4, 4)
        st = ObserverState(np.eye(4), m)
        assert np.array_equal(st.b_matrix, m)


class TestStationarity:
    """Error-free initialization must reproduce the plant flow exactly."""

    @pytest.mark.parametrize("kind", [ObserverKind.I, ObserverKind.I_MOD, ObserverKind.III])
    def test_left_kinds(self, kind, benchmark_F):
        g, xi, b, xi_m, a = truth_at(0.8, "left", benchmark_F)
        d_a, d_b = observer_rhs(kind, ObserverState(a, b), a, xi_m, GAINS)
        assert np.abs(d_a - a @ xi.matrix).max() < 1e-12
        assert np.abs(d_b).max() == 0.0

    @pytest.mark.parametrize("kind", [ObserverKind.II, ObserverKind.IV])
    def test_right_kinds(self, kind, benchmark_F):
        g, xi, b, xi_m, a = truth_at(0.8, "right", benchmark_F)
        d_a, d_b = observer_rhs(kind, ObserverState(a, b), a, xi_m, GAINS)
        assert np.abs(d_a + xi.matrix @ a).max() < 1e-12
        assert np.abs(d_b).max() == 0.0

    def test_left_tv_kind(self, benchmark_F):
        model = twisting_f_left(benchmark_F)
        t = 0.8
        g, xi = benchmark_trajectory_se3(t)
        b = se3_benchmark_bias()
        a = measure(model, g, t)
        f, f_dot = model.F_at(t), model.F_dot_at(t)
        d_a, d_b = observer_rhs(
            ObserverKind.I_TV, ObserverState(a, b), a, biased_velocity(xi, b),
            GAINS, aux=(f, f_dot),
        )
        want = a @ xi.matrix + f_dot @ mat_inv(f) @ a
        assert np.abs(d_a - want).max() < 1e-12
        assert np.abs(d_b).max() == 0.0

    def test_right_tv_kind(self, benchmark_F):
        model, _ = twisting_f(benchmark_F)
        t = 0.8
        g, xi = benchmark_trajectory_se3(t)
        b = se3_benchmark_bias()
        a = measure(model, g, t)
        f, f_dot = model.F_at(t), model.F_dot_at(t)
        d_a, d_b = observer_rhs(
            ObserverKind.II_TV, ObserverState(a, b), a, biased_velocity(xi, b),
            GAINS, aux=(f, f_dot),
        )
        want = -(xi.matrix @ a) + a @ mat_inv(f) @ f_dot
        assert np.abs(d_a - want).max() < 1e-12
        assert np.abs(d_b).max() == 0.0

    @pytest.mark.parametrize("make_model", [twisting_f_left, lambda f0: twisting_f(f0)[0]])
    def test_tv_kinds_hold_station_through_simulate(self, make_model, benchmark_F,
                                                    benchmark_truth, benchmark_bias):
        model = make_model(benchmark_F)
        kind = ObserverKind.I_TV if model.side == "left" else ObserverKind.II_TV
        g0, _, _ = benchmark_truth.state_of(0.0)
        config = SimConfig(
            kind=kind,
            gains=Gains(k_P=6.0, k_I=1.0),
            model=model,
            bias=benchmark_bias,
            initial_observer=ObserverState(measure(model, g0, 0.0), benchmark_bias),
            truth=benchmark_truth,
            horizon=2.0,
            step=1e-3,
            record_stride=100,
            bounds=Bounds(B_xi=3.5, B_b=2.3, L_g=0.5, U_g=2.0),
        )
        rec = simulate(config)
        drift = max(
            frob_norm(s.E_A) + frob_norm(s.e_b) for s in rec.samples
        )
        assert drift < 1e-8


class TestBiasDerivativeMembership:
    def misaligned(self, kind, benchmark_F):
        t = 1.3
        g, xi = benchmark_trajectory_se3(t)
        b = se3_benchmark_bias()
        a = measure(MeasurementModel(kind.side, benchmark_F), g)
        rng = np.random.default_rng(50)
        a_bar = a + 0.3 * rng.normal(size=(4, 4))
        aux = (benchmark_F, np.zeros((4, 4))) if kind.time_varying else None
        return observer_rhs(
            kind, ObserverState(a_bar, b), a, biased_velocity(xi, b), GAINS, aux=aux
        )

    @pytest.mark.parametrize(
        "kind",
        [k for k in ObserverKind if k is not ObserverKind.I_MOD],
        ids=lambda k: k.value,
    )
    def test_projected_kinds_stay_in_algebra(self, kind, benchmark_F, se3):
        _, d_b = self.misaligned(kind, benchmark_F)
        assert frob_norm(d_b - project_matrix(se3, d_b)) < 1e-12

    def test_ambient_kind_leaves_algebra(self, benchmark_F, se3):
        _, d_b = self.misaligned(ObserverKind.I_MOD, benchmark_F)
        assert frob_norm(d_b - project_matrix(se3, d_b)) > 1e-6

    def test_ambient_and_projected_agree_on_algebra_preimage(self, benchmark_F):
        # choose E so that A^T E is already a twist; then the projection
        # in kind I is a no-op and I_mod must produce the same derivative
        t = 0.6
        g, xi = benchmark_trajectory_se3(t)
        b = se3_benchmark_bias()
        a = measure(MeasurementModel("left", benchmark_F), g)
        x = hat_se3([0.2, -0.7, 0.4], [1.0, 0.5, -0.5])
        e = mat_inv(a.T) @ x
        state = ObserverState(a - e, b)
        xi_m = biased_velocity(xi, b)
        _, db_proj = observer_rhs(ObserverKind.I, state, a, xi_m, GAINS)
        _, db_ambient = observer_rhs(ObserverKind.I_MOD, state, a, xi_m, GAINS)
        assert np.abs(db_proj - db_ambient).max() < 1e-12
        assert np.abs(db_proj + GAINS.k_I * x).max() < 1e-12


class TestObserverRhsErrors:
    def test_missing_aux_for_tv_kind(self, benchmark_F):
        _, xi, b, xi_m, a = truth_at(0.5, "left", benchmark_F)
        with pytest.raises(ConfigurationError):
            observer_rhs(ObserverKind.I_TV, ObserverState(a, b), a, xi_m, GAINS)

    def test_shape_mismatch(self, benchmark_F):
        _, xi, b, xi_m, a = truth_at(0.5, "left", benchmark_F)
        with pytest.raises(DimensionError):
            observer_rhs(ObserverKind.I, ObserverState(np.eye(3), b), a, xi_m, GAINS)

    @pytest.mark.parametrize("kind", [ObserverKind.III, ObserverKind.IV])
    def test_singular_measurement_rejected_for_inverse_kinds(self, kind, benchmark_F):
        _, xi, b, xi_m, a = truth_at(0.5, kind.side, benchmark_F)
        singular = np.zeros((4, 4))
        with pytest.raises(SingularityError):
            observer_rhs(kind, ObserverState(a, b), singular, xi_m, GAINS)


class TestEquivariance:
    def test_right_translation_of_f_orthogonal(self, benchmark_truth, benchmark_bias,
                                               benchmark_F, se3):
        q = np.eye(4)
        q[:3, :3] = mat_exp(hat_so3([0.3, -0.4, 0.2]))
        g0, _, g0_inv = benchmark_truth.state_of(0.0)
        offset = np.eye(4)
        offset[:3, :3] = mat_exp(hat_so3([0.0, 0.9, 0.0]))
        zero_bias = AlgebraElement(se3, np.zeros((4, 4)))
        bounds = Bounds(B_xi=3.5, B_b=2.3, L_g=0.5, U_g=2.0)

        def run(f_mat, a_bar0):
            config = SimConfig(
                kind=ObserverKind.II,
                gains=Gains(k_P=6.0, k_I=0.75),
                model=MeasurementModel("right", f_mat),
                bias=benchmark_bias,
                initial_observer=ObserverState(a_bar0, zero_bias),
                truth=benchmark_truth,
                horizon=2.0,
                step=1e-3,
                record_stride=100,
                bounds=bounds,
            )
            return simulate(config)

        a_bar0 = mat_inv(g0 @ offset) @ benchmark_F
        base = run(benchmark_F, a_bar0)
        translated = run(benchmark_F @ q, a_bar0 @ q)
        worst = 0.0
        for s_base, s_q in zip(base.samples, translated.samples):
            worst = max(worst, frob_norm(s_q.A_bar @ q.T - s_base.A_bar))
            worst = max(
                worst, abs(frob_norm(s_q.E_A) - frob_norm(s_base.E_A))
            )
        assert worst < 1e-10

    def test_right_translation_general_invertible_single_evaluation(self, benchmark_F):
        _, xi, b, xi_m, a = truth_at(0.9, "right", benchmark_F)
        rng = np.random.default_rng(51)
        q = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
        a_bar = a + 0.2 * rng.normal(size=(4, 4))
        d_a, _ = observer_rhs(ObserverKind.II, ObserverState(a_bar, b), a, xi_m, GAINS)
        d_a_q, _ = observer_rhs(
            ObserverKind.II, ObserverState(a_bar @ q, b), a @ q, xi_m, GAINS
        )
        assert np.abs(d_a_q - d_a @ q).max() < 1e-10


class TestGainFloor:
    def test_plain_kinds(self):
        b = Bounds(B_xi=3.0, B_b=2.0, L_g=1.0, U_g=1.0)
        for kind in (ObserverKind.I, ObserverKind.I_MOD, ObserverKind.I_TV,
                     ObserverKind.II, ObserverKind.II_TV):
            assert gain_floor(kind, b) == 5.0

    def test_inverse_kinds_pay_double(self):
        b = Bounds(B_xi=3.0, B_b=2.0, L_g=1.0, U_g=1.0)
        assert gain_floor(ObserverKind.III, b) == 8.0
        assert gain_floor(ObserverKind.IV, b) == 8.0

    def test_zero_bounds_floor_is_zero(self):
        b = Bounds(B_xi=0.0, B_b=0.0, L_g=1.0, U_g=1.0)
        assert gain_floor(ObserverKind.I, b) == 0.0
        assert gain_floor(ObserverKind.IV, b) == 0.0


class TestEstimateG:
    def test_left_identity_case(self, benchmark_F):
        got = estimate_g(ObserverKind.I, benchmark_F, benchmark_F)
        assert frob_norm(got - np.eye(4)) < 1e-12

    def test_right_identity_case(self, benchmark_F):
        got = estimate_g(ObserverKind.II, benchmark_F, benchmark_F)
        assert frob_norm(got - np.eye(4)) < 1e-12

    def test_left_composition_recovers_pose(self, benchmark_F):
        g, _ = benchmark_trajectory_se3(1.7)
        got = estimate_g(ObserverKind.III, benchmark_F @ g, benchmark_F)
        assert frob_norm(got - g) < 1e-12

    def test_right_composition_recovers_pose(self, benchmark_F):
        g, _ = benchmark_trajectory_se3(1.7)
        a = mat_inv(g) @ benchmark_F
        got = estimate_g(ObserverKind.IV, a, benchmark_F)
        assert frob_norm(got - g) < 1e-11

    def test_right_kind_singular_estimate_rejected(self, benchmark_F):
        with pytest.raises(SingularityError):
            estimate_g(ObserverKind.II, np.zeros((4, 4)), benchmark_F)

    def test_left_kind_tolerates_singular_estimate(self, benchmark_F):
        got = estimate_g(ObserverKind.I, np.zeros((4, 4)), benchmark_F)
        assert np.abs(got).max() == 0.0

    def test_shape_mismatch_rejected(self, benchmark_F):
        with pytest.raises(DimensionError):
            estimate_g(ObserverKind.I, np.eye(3), benchmark_F)


class TestStackedKernel:
    @pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
    def test_stack_equals_member_calls(self, kind):
        # A stack of N members, each with its own state and truth inputs:
        # Y is (2, N, n, n), the rest (N, n, n). A is not symmetric, so a
        # transpose over the stack axis would show.
        se3 = algebra_basis_se3()
        rng = np.random.default_rng(41)
        N = 6
        Y = rng.normal(size=(2, N, 4, 4))
        if kind.projected_bias:
            Y[1] = project_matrix(se3, Y[1])
        A = rng.normal(size=(N, 4, 4)) + 3.0 * np.eye(4)
        xi_m = project_matrix(se3, rng.normal(size=(N, 4, 4)))
        if kind.uses_inverse:
            aux = mat_inv(A)
        elif kind.time_varying:
            aux = rng.normal(size=(N, 4, 4))
        else:
            aux = None
        rhs = _rhs_factory(kind, se3, 4.0, 0.75)
        got = rhs(Y, A, xi_m, aux)
        assert got.shape == Y.shape
        for k in range(N):
            want = rhs(Y[:, k], A[k], xi_m[k], None if aux is None else aux[k])
            assert np.array_equal(got[:, k], want)
