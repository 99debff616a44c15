"""Truth trajectories, landmark measurement maps, and envelope bounds."""

import math

import numpy as np
import pytest

from lieobs.errors import (
    ConfigurationError,
    ConstructionError,
    DimensionError,
    DomainError,
    SingularityError,
)
from lieobs.kinematics import (
    Bounds,
    LandmarkSet,
    MeasurementModel,
    _stacked_bounds,
    build_F,
    measure,
    se3_benchmark_bias,
    se3_benchmark_landmarks,
    se3_benchmark_truth,
)
from lieobs.liegroup import AlgebraElement, algebra_basis_so3, hat_se3, hat_so3
from lieobs.matcore import frob_norm, mat_exp, singular_extremes


def rotation_products(t):
    """Independent R(t) = Rx(t) Rz(t) Rx(t) via explicit factor matrices."""
    c, s = math.cos(t), math.sin(t)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return rx @ rz @ rx


class TestBuildF:
    def test_benchmark_landmarks_give_exact_integer_matrix(self):
        f = build_F(se3_benchmark_landmarks())
        want = np.array(
            [
                [2.0, 0.0, 1.0, 2.0],
                [0.0, 1.0, 0.0, 1.0],
                [1.0, 0.0, 3.0, 2.0],
                [2.0, 1.0, 2.0, 4.0],
            ]
        )
        assert np.array_equal(f, want)
        assert np.linalg.det(f) == pytest.approx(3.0, rel=1e-12)

    def test_standard_basis_landmarks_give_identity(self):
        lm = LandmarkSet(np.eye(4), np.eye(4), "SW")
        assert np.array_equal(build_F(lm), np.eye(4))

    def test_zero_weights_rejected(self):
        lm = LandmarkSet(np.eye(4), np.zeros((4, 4)), "SW")
        with pytest.raises(ConstructionError) as exc_info:
            build_F(lm)
        assert exc_info.value.sigma_min == 0.0

    def test_rank_deficient_landmarks_rejected(self):
        # two copies of the same homogeneous point cannot span R^3
        s = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ConstructionError):
            build_F(LandmarkSet(s, np.eye(2), "SWST"))

    def test_success_implies_full_rank(self):
        f = build_F(se3_benchmark_landmarks())
        sv = np.linalg.svd(f, compute_uv=False)
        assert sv[-1] / sv[0] > 1e-10

    def test_weight_shape_checked(self):
        with pytest.raises(DimensionError):
            LandmarkSet(np.eye(4), np.eye(5), "SW")
        with pytest.raises(DimensionError):
            LandmarkSet(np.eye(4), np.eye(5, 4), "SWST")

    def test_one_dimensional_points_rejected(self):
        with pytest.raises(DimensionError, match="2-D"):
            LandmarkSet(np.ones(4), np.eye(4), "SW")

    def test_unknown_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            LandmarkSet(np.eye(4), np.eye(4), "WS")


class TestMeasurementModel:
    def test_side_validated(self):
        with pytest.raises(ConfigurationError):
            MeasurementModel("up", np.eye(4))

    def test_constant_model_requires_matrix(self):
        with pytest.raises(ConfigurationError):
            MeasurementModel("left", lambda t: np.eye(4))

    def test_time_varying_model_requires_callable(self):
        with pytest.raises(ConfigurationError):
            MeasurementModel("left", np.eye(4), time_varying=True)

    def test_non_square_f_rejected(self):
        with pytest.raises(DimensionError):
            MeasurementModel("left", np.zeros((3, 4)))

    def test_non_finite_f_rejected(self):
        with pytest.raises(ConfigurationError, match="non-finite"):
            MeasurementModel("right", np.diag([math.nan, 1.0, 1.0, 1.0]))

    def test_constant_derivative_is_zero(self):
        m = MeasurementModel("left", np.eye(4))
        assert np.array_equal(m.F_dot_at(1.7), np.zeros((4, 4)))

    def test_missing_derivative_provider_rejected(self):
        m = MeasurementModel("left", lambda t: math.exp(t) * np.eye(2), time_varying=True)
        assert m.F_at(0.0)[0, 0] == 1.0
        with pytest.raises(ConfigurationError):
            m.F_dot_at(0.0)


class TestMeasure:
    def test_identity_pose_returns_f(self):
        f = build_F(se3_benchmark_landmarks())
        for side in ("left", "right"):
            a = measure(MeasurementModel(side, f), np.eye(4))
            assert np.abs(a - f).max() < 1e-12

    def test_left_with_identity_f_returns_pose(self, benchmark_truth):
        g, _, _ = benchmark_truth.state_of(1.3)
        a = measure(MeasurementModel("left", np.eye(4)), g)
        assert np.array_equal(a, g)

    def test_right_side_residual_identity(self, benchmark_truth):
        # A = g^-1 F, so multiplying by g on the left recovers F
        f = build_F(se3_benchmark_landmarks())
        g, _, _ = benchmark_truth.state_of(0.0)
        a = measure(MeasurementModel("right", f), g)
        assert frob_norm(g @ a - f) < 1e-10

    def test_singular_pose_rejected_on_right(self):
        f = np.eye(4)
        with pytest.raises(SingularityError):
            measure(MeasurementModel("right", f), np.zeros((4, 4)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            measure(MeasurementModel("left", np.eye(3)), np.eye(4))

    def test_left_measurement_derivative(self, benchmark_truth):
        # A = F g follows dA/dt = A xi along the plant flow
        f = build_F(se3_benchmark_landmarks())
        model = MeasurementModel("left", f)
        t, h = 0.7, 1e-4
        gp, _, _ = benchmark_truth.state_of(t + h)
        gm, _, _ = benchmark_truth.state_of(t - h)
        g, xi, _ = benchmark_truth.state_of(t)
        fd = (measure(model, gp) - measure(model, gm)) / (2.0 * h)
        assert np.abs(fd - measure(model, g) @ xi).max() < 1e-6

    def test_right_measurement_derivative(self, benchmark_truth):
        # A = g^-1 F follows dA/dt = -xi A
        f = build_F(se3_benchmark_landmarks())
        model = MeasurementModel("right", f)
        t, h = 0.7, 1e-4
        gp, _, _ = benchmark_truth.state_of(t + h)
        gm, _, _ = benchmark_truth.state_of(t - h)
        g, xi, _ = benchmark_truth.state_of(t)
        fd = (measure(model, gp) - measure(model, gm)) / (2.0 * h)
        assert np.abs(fd + xi @ measure(model, g)).max() < 1e-6


class TestBiasedVelocity:
    """The measured velocity ``xi + b`` the simulator feeds the observer:
    as it is to a right kind, and as its mirror ``-(xi + b)^T`` to a left
    kind, which runs as its transposed problem."""

    @staticmethod
    def measured_at_zero(truth, bias, f, label="II"):
        from lieobs.integrate import SimConfig, _truth_chunks, _truth_grid
        from lieobs.observers import Gains, ObserverKind, ObserverState

        kind = ObserverKind.from_label(label)
        model = MeasurementModel(kind.side, f)
        config = SimConfig(
            kind=kind,
            gains=Gains(6.4, 1.0),
            model=model,
            bias=bias,
            initial_observer=ObserverState(measure(model, truth.state_of(0.0)[0]), bias),
            truth=truth,
            horizon=1e-3,
            step=1e-3,
        )
        _, _, _, _, xi_m, _ = _truth_grid(config, next(_truth_chunks(truth, 1, config.step)))
        return xi_m[0]

    def test_zero_bias_is_identity(self, benchmark_truth, benchmark_F, se3):
        zero = AlgebraElement(se3, np.zeros((4, 4)))
        got = self.measured_at_zero(benchmark_truth, zero, benchmark_F)
        assert np.array_equal(got, benchmark_truth.state_of(0.0)[1])

    def test_benchmark_sum_at_zero(self, benchmark_truth, benchmark_bias, benchmark_F):
        got = self.measured_at_zero(benchmark_truth, benchmark_bias, benchmark_F)
        want = hat_se3([3.0, 0.5, 0.0], [0.5, 0.5, 0.5])
        assert np.abs(got - want).max() < 1e-15

    def test_left_kind_reads_the_mirrored_sum(self, benchmark_truth, benchmark_bias,
                                              benchmark_F):
        got = self.measured_at_zero(benchmark_truth, benchmark_bias, benchmark_F, "I")
        right = self.measured_at_zero(benchmark_truth, benchmark_bias, benchmark_F)
        assert np.array_equal(got, -right.T)


class TestBenchmarkTrajectory:
    def test_initial_conditions(self, benchmark_truth):
        g, xi, _ = benchmark_truth.state_of(0.0)
        assert np.abs(g[:3, :3] - np.eye(3)).max() < 1e-15
        assert np.array_equal(g[:3, 3], np.array([1.0, 0.0, 1.0]))
        skew = xi[:3, :3]
        omega = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
        assert np.array_equal(omega, np.array([2.0, 0.0, 1.0]))
        assert np.array_equal(xi[:3, 3], np.array([0.0, 1.0, 0.0]))

    def test_rotation_matches_factor_product(self, benchmark_truth):
        for t in (0.0, 0.3, 0.7, 1.9, 4.2):
            g, _, _ = benchmark_truth.state_of(t)
            assert np.abs(g[:3, :3] - rotation_products(t)).max() < 1e-14

    def test_rotation_stays_orthogonal(self, benchmark_truth):
        for t in (0.5, 1.0, 2.0, 5.0):
            g, _, _ = benchmark_truth.state_of(t)
            r = g[:3, :3]
            assert frob_norm(r.T @ r - np.eye(3)) < 1e-10

    def test_pose_determinant_is_one(self, benchmark_truth):
        for t in np.linspace(0.0, 10.0, 37):
            g, _, _ = benchmark_truth.state_of(float(t))
            assert abs(np.linalg.det(g) - 1.0) < 1e-8

    def test_angular_velocity_against_finite_difference(self, benchmark_truth):
        t, h = 0.7, 1e-4
        gp, _, _ = benchmark_truth.state_of(t + h)
        gm, _, _ = benchmark_truth.state_of(t - h)
        g, xi, _ = benchmark_truth.state_of(t)
        rdot_fd = (gp[:3, :3] - gm[:3, :3]) / (2.0 * h)
        assert np.abs(rdot_fd - g[:3, :3] @ xi[:3, :3]).max() < 1e-6

    def test_pose_derivative_matches_twist(self, benchmark_truth):
        t, h = 1.3, 1e-4
        gp, _, _ = benchmark_truth.state_of(t + h)
        gm, _, _ = benchmark_truth.state_of(t - h)
        g, xi, _ = benchmark_truth.state_of(t)
        gdot_fd = (gp - gm) / (2.0 * h)
        assert np.abs(gdot_fd - g @ xi).max() < 1e-6

    def test_packaged_inverse_is_exact(self):
        truth = se3_benchmark_truth()
        for t in (0.0, 0.9, 2.7):
            g, _, g_inv = truth.state_of(t)
            assert frob_norm(g @ g_inv - np.eye(4)) < 1e-13

    def test_bias_twist_components(self):
        b = se3_benchmark_bias()
        want = hat_se3([1.0, 0.5, -1.0], [0.5, -0.5, 0.5])
        assert np.array_equal(b.matrix, want)


class TestBounds:
    def test_ordering_validated(self):
        with pytest.raises(ConfigurationError):
            Bounds(B_xi=1.0, B_b=1.0, L_g=2.0, U_g=1.0)

    def test_positive_envelope_required(self):
        with pytest.raises(ConfigurationError):
            Bounds(B_xi=1.0, B_b=1.0, L_g=0.0, U_g=1.0)

    def test_zero_velocity_bound_allowed(self):
        b = Bounds(B_xi=0.0, B_b=0.0, L_g=1.0, U_g=1.0)
        assert b.B_xi == 0.0

    def test_negative_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            Bounds(B_xi=-1.0, B_b=1.0, L_g=1.0, U_g=1.0)

    @pytest.mark.parametrize("values", [("1", 1, 1, 1), (True, 0, 1, 1)],
                             ids=["string", "bool"])
    def test_non_numbers_rejected(self, values):
        with pytest.raises(ConfigurationError):
            Bounds(*values)


class TestEmpiricalBounds:
    def test_pure_rotation_has_unit_envelope(self):
        so3 = algebra_basis_so3()
        spin = AlgebraElement(so3, hat_so3([0.3, -0.2, 0.5]))
        ts = np.arange(0.0, 5.0 + 0.025, 0.05)
        g = np.stack([mat_exp(t * spin.matrix) for t in ts])
        got = _stacked_bounds(g, np.broadcast_to(spin.matrix, g.shape))
        assert got.L_g == pytest.approx(1.0, abs=1e-12)
        assert got.U_g == pytest.approx(1.0, abs=1e-12)
        assert got.B_xi == pytest.approx(1.05 * frob_norm(spin.matrix), rel=1e-12)

    def test_benchmark_velocity_bound(self, benchmark_bounds):
        # independent oracle: twist norm^2 = 2|Omega|^2 + |V|^2 on the
        # same grid the sampler walks
        sup = 0.0
        for t in np.arange(0.0, 30.0 + 0.005, 0.01):
            c, s = math.cos(t), math.sin(t)
            omega = np.array([1.0 + c, s - s * c, c + s * s])
            r = rotation_products(float(t))
            v = r.T @ np.array([-s, c, -s])
            sup = max(sup, math.sqrt(2.0 * float(omega @ omega) + float(v @ v)))
        assert benchmark_bounds.B_xi == pytest.approx(1.05 * sup, rel=1e-10)
        assert benchmark_bounds.B_xi == pytest.approx(1.05 * math.sqrt(11.0), abs=2e-3)

    def test_benchmark_pose_envelope(self, benchmark_bounds):
        # extremes of the homogeneous pose singular values occur where
        # |x|^2 = 2, giving sigma^2 = 2 -+ sqrt(3)
        assert benchmark_bounds.L_g == pytest.approx(math.sqrt(2.0 - math.sqrt(3.0)), abs=1e-9)
        assert benchmark_bounds.U_g == pytest.approx(math.sqrt(2.0 + math.sqrt(3.0)), abs=1e-9)

    def test_bias_norm_passthrough(self, benchmark_bounds):
        assert benchmark_bounds.B_b == pytest.approx(frob_norm(se3_benchmark_bias().matrix), rel=1e-14)

    def test_short_horizon_uses_single_sample(self, benchmark_truth, benchmark_bias,
                                             benchmark_F):
        # A run shorter than half the 0.01 bounds grid spacing samples the
        # truth at t = 0 only.
        from lieobs.integrate import SimConfig, _resolve_bounds
        from lieobs.observers import Gains, ObserverKind, ObserverState

        g0 = benchmark_truth.state_of(0.0)[0]
        got = _resolve_bounds(SimConfig(
            kind=ObserverKind.I,
            gains=Gains(6.4, 1.0),
            model=MeasurementModel("left", benchmark_F),
            bias=benchmark_bias,
            initial_observer=ObserverState(benchmark_F @ g0, benchmark_bias),
            truth=benchmark_truth,
            horizon=1e-3,
            step=1e-3,
        ))
        assert got.B_xi == pytest.approx(1.05 * math.sqrt(11.0), rel=1e-12)
        assert got.B_b == frob_norm(benchmark_bias.matrix)
        sv = np.linalg.svd(g0, compute_uv=False)
        assert got.L_g == pytest.approx(float(sv[-1]), rel=1e-12)
        assert got.U_g == pytest.approx(float(sv[0]), rel=1e-12)

    def test_nonfinite_samples_rejected(self):
        g = np.stack([np.eye(4), np.full((4, 4), np.nan)])
        with pytest.raises(DomainError):
            _stacked_bounds(g, np.zeros_like(g))


class TestVectorisedTruth:
    TIMES = np.linspace(0.0, 30.0, 1201)

    def test_array_call_equals_stacked_scalar_calls(self):
        truth = se3_benchmark_truth()
        stacks = truth.state_of(self.TIMES)
        for got, want in zip(stacks, zip(*(truth.state_of(float(t)) for t in self.TIMES))):
            assert got.shape == (len(self.TIMES), 4, 4)
            assert np.array_equal(got, np.stack(want))

    def test_inverse_over_the_array(self):
        g, _, g_inv = se3_benchmark_truth().state_of(self.TIMES)
        assert np.abs(g @ g_inv - np.eye(4)).max() < 1e-13

    def test_pose_derivative_over_the_array(self):
        truth = se3_benchmark_truth()
        h = 1e-5
        g, xi, _ = truth.state_of(self.TIMES)
        gp = truth.state_of(self.TIMES + h)[0]
        gm = truth.state_of(self.TIMES - h)[0]
        assert np.abs((gp - gm) / (2.0 * h) - g @ xi).max() < 1e-8

    def test_stacked_bounds_equal_scalar_sampler(self, benchmark_truth, benchmark_bias,
                                                 benchmark_F, benchmark_bounds, se3):
        from lieobs.integrate import SimConfig, _resolve_bounds
        from lieobs.observers import Gains, ObserverKind, ObserverState

        # one matrix at a time, through the scalar primitives
        b_xi, l_g, u_g = 0.0, math.inf, 0.0
        for t in np.arange(0.0, 30.0 + 0.005, 0.01):
            g, xi, _ = benchmark_truth.state_of(float(t))
            smin, smax = singular_extremes(g)
            b_xi, l_g, u_g = max(b_xi, frob_norm(xi)), min(l_g, smin), max(u_g, smax)
        scalar = Bounds(1.05 * b_xi, frob_norm(benchmark_bias.matrix), l_g, u_g)
        g0 = benchmark_truth.state_of(0.0)[0]
        cfg = SimConfig(
            kind=ObserverKind.I,
            gains=Gains(6.4, 1.0),
            model=MeasurementModel("left", benchmark_F),
            bias=benchmark_bias,
            initial_observer=ObserverState(benchmark_F @ g0, benchmark_bias),
            truth=benchmark_truth,
            horizon=30.0,
        )
        got = _resolve_bounds(cfg)
        for name in ("B_xi", "B_b", "L_g", "U_g"):
            for want in (getattr(scalar, name), getattr(benchmark_bounds, name)):
                assert abs(getattr(got, name) - want) <= 1e-12 * want
