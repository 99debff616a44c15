"""Fixed-step integration: the RK4 kernel, configuration validation, and
simulate() behavior on closed-form and co-integrated truths."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieobs.integrate
import lieobs.observers
from conftest import paper_field
from lieobs.analysis import compute_errors, lyapunov_value, project_se3, suggested_epsilon
from lieobs.cli import _ROW_BLOCK, _columns
from lieobs.errors import (
    ConfigurationError,
    GainFloorError,
    NumericalError,
    SingularityError,
)
from lieobs.integrate import (
    _BLOCK_BYTES,
    CHUNK_STEPS,
    SimConfig,
    SimRecord,
    _each_time,
    _block_steps,
    _StepMaps,
    _resolve_bounds,
    _rk4_maps,
    _truth_chunks,
    rk4_step,
    simulate,
)
from lieobs.kinematics import (
    AnalyticTruth,
    Bounds,
    MeasurementModel,
    TruthSample,
    VelocityTruth,
    _stacked_bounds,
    measure,
    se3_benchmark_truth,
)
from lieobs.liegroup import (
    AlgebraElement,
    GroupSpec,
    algebra_basis_se3,
    algebra_basis_so3,
    hat_se3,
    hat_so3,
    project_matrix,
)
from lieobs.matcore import _guarded_inv, frob_norm, mat_exp, mat_inv, singular_extremes
from lieobs.observers import (
    Gains,
    ObserverKind,
    ObserverState,
    _OperatorWorkspace,
    gain_floor,
)
from test_groups import SL2_CASE, SO3_CASE, case_config

BOUNDS = Bounds(B_xi=3.5, B_b=2.3, L_g=0.5, U_g=2.0)
# Steps per block on SE(3) for every kind but I_mod (TestBlockSteps).
SE3_BLOCK_STEPS = 32


def short_config(se3_spec, truth, bias, f, **overrides):
    """1-second benchmark run with exact initialization, no gain warning."""
    kind = overrides.pop("kind", ObserverKind.I)
    model = overrides.pop("model", MeasurementModel(kind.side, f))
    g0, _, g0_inv = truth.state_of(0.0)
    a0 = model.F_at(0.0) @ g0 if model.side == "left" else g0_inv @ model.F_at(0.0)
    init = overrides.pop("initial_observer", ObserverState(a0, bias))
    base = dict(
        kind=kind,
        gains=Gains(k_P=6.4, k_I=1.0),
        model=model,
        bias=bias,
        initial_observer=init,
        truth=truth,
        horizon=1.0,
        step=1e-3,
        record_stride=100,
        bounds=BOUNDS,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestRk4Step:
    def test_scalar_decay(self):
        got = rk4_step(lambda t, y: -y, np.array([1.0]), 0.0, 0.1)
        assert got[0] == pytest.approx(0.9048375, abs=1e-12)
        assert abs(got[0] - math.exp(-0.1)) < 1e-7

    def test_local_order_of_accuracy(self):
        # x' = x^2, x(0) = 1 has x(t) = 1/(1 - t); one full step against
        # two half steps shows the h^5 local error, ratio near 16
        rhs = lambda t, y: y * y
        h = 0.1
        exact = 1.0 / (1.0 - h)
        full = rk4_step(rhs, np.array([1.0]), 0.0, h)[0]
        half = rk4_step(rhs, np.array([1.0]), 0.0, h / 2.0)
        half = rk4_step(rhs, half, h / 2.0, h / 2.0)[0]
        ratio = abs(full - exact) / abs(half - exact)
        assert 12.0 < ratio < 20.0

    def test_zero_rhs_keeps_state(self):
        y0 = np.array([1.5, -2.0, 0.25])
        got = rk4_step(lambda t, y: np.zeros_like(y), y0, 3.0, 0.5)
        assert np.array_equal(got, y0)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ConfigurationError):
            rk4_step(lambda t, y: -y, np.array([1.0]), 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            rk4_step(lambda t, y: -y, np.array([1.0]), 0.0, -0.1)

    def test_nonfinite_update_carries_time(self):
        def rhs(t, y):
            return np.array([np.inf])

        with pytest.raises(NumericalError) as exc_info:
            rk4_step(rhs, np.array([1.0]), 0.25, 0.1)
        assert exc_info.value.t == 0.25


SL2 = GroupSpec("SL(2)", 2, np.stack([np.diag([1.0, -1.0]) / math.sqrt(2.0),
                                      [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
GROUPS = {"SE(3)": algebra_basis_se3(), "SO(3)": algebra_basis_so3(), "SL(2)": SL2}


def rk4_stages(ms, y, h):
    """``rk4_step`` on ``dy/dt = y @ M`` with its four stages fed ``ms[0]``
    to ``ms[3]`` in order: the update and the states the stages saw."""
    seen, it = [], iter(ms)

    def rhs(_t, z):
        seen.append(z)
        return z @ next(it)

    return rk4_step(rhs, y, 0.0, h), seen


def half_step_inputs(x):
    """The :func:`_rk4_maps` inputs ``(N1, X2, X3, N4)`` from the half-step
    maps ``x``, a stack ``(4, J, d, d)`` of ``h/2`` times the four stages'
    operators, with ``N = I + X``."""
    eye = np.eye(x.shape[-1])
    return x[0] + eye, x[1], x[2], x[3] + eye


class TestStepMaps:
    """The precomposed RK4 step against the generic tableau of rk4_step."""

    @pytest.mark.parametrize("group", list(GROUPS), ids=str)
    @pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
    def test_step_map_matches_generic_tableau(self, kind, group):
        spec = GROUPS[group]
        n = spec.ambient_n
        rng = np.random.default_rng(7)
        J, h = 5, 0.01
        # Operators of random stage entries: four per step, all distinct.
        A = 3.0 * np.eye(n) + rng.normal(size=(4 * J, n, n))
        xi_m = project_matrix(spec, rng.normal(size=(4 * J, n, n)))
        aux = None
        if kind.uses_inverse:
            aux = mat_inv(A)
        elif kind.time_varying:
            aux = rng.normal(size=(4 * J, n, n))
        gains = Gains(k_P=4.0, k_I=0.75)
        ops = _OperatorWorkspace(kind, spec, gains, 4 * J).fill(A, xi_m, aux)
        dim = ops.shape[-1]
        ops = ops.reshape(4, J, dim, dim)
        # The half-step maps come from the builder, as in simulate.
        half = _OperatorWorkspace(kind, spec, gains, 4 * J, scale=0.5 * h).fill(A, xi_m, aux)
        phi, _ = _rk4_maps(*half_step_inputs(half.reshape(4, J, dim, dim)), _StepMaps(J, dim))
        for j in range(J):
            y = np.append(rng.normal(size=dim - 1), 1.0)
            want, _ = rk4_stages(ops[:, j], y, h)
            assert frob_norm(y @ phi[j] - want) <= 1e-14 * frob_norm(want)

    def test_reused_step_maps_equal_fresh_ones(self):
        # simulate fills one _StepMaps per run, whole blocks and then a
        # partial one; the identities go in through diagonal views made
        # once per block size, so each fill must equal a fresh buffer's.
        rng = np.random.default_rng(9)
        d, steps = 7, 6
        maps = _StepMaps(steps, d)
        for J in (steps, steps, 3):
            n1, x2, x3, n4 = half_step_inputs(0.05 * rng.normal(size=(4, J, d, d)))
            want = _rk4_maps(n1, x2, x3, n4, _StepMaps(J, d))
            got = _rk4_maps(n1, x2, x3, n4, maps)
            for w, g in zip((want[0], *want[1]), (got[0], *got[1])):
                assert np.array_equal(w.view(np.int64), g.view(np.int64))
            assert all(np.shares_memory(m, maps.buf) for m in (got[0], *got[1]))

    @pytest.mark.parametrize("group", list(GROUPS), ids=str)
    def test_stage_maps_give_the_stage_poses(self, group):
        # dg/dt = g xi: each row of the pose is a state of y @ M with M = xi.
        spec = GROUPS[group]
        n = spec.ambient_n
        rng = np.random.default_rng(8)
        J, h = 4, 0.05
        xi = project_matrix(spec, rng.normal(size=(4, J, n, n)))
        n1, x2, x3, n4 = half_step_inputs((0.5 * h) * xi)
        phi, (twice_s3, s4) = _rk4_maps(n1, x2, x3, n4, _StepMaps(J, n))
        s3 = 0.5 * twice_s3
        for j in range(J):
            g = mat_exp(project_matrix(spec, rng.normal(size=(n, n))))
            want, seen = rk4_stages(xi[:, j], g, h)
            assert np.array_equal(seen[0], g)
            for s, pose in zip((n1, s3, s4), seen[1:]):
                assert frob_norm(g @ s[j] - pose) <= 1e-14 * frob_norm(pose)
            assert frob_norm(g @ phi[j] - want) <= 1e-14 * frob_norm(want)

    @pytest.mark.parametrize("velocity", [False, True], ids=["closed-form", "velocity"])
    @pytest.mark.parametrize(
        "kind", [k for k in ObserverKind if k.projected_bias], ids=lambda k: k.value
    )
    def test_recorded_bias_stays_in_algebra(self, kind, velocity, benchmark_truth,
                                            benchmark_bias, benchmark_F, se3):
        # An offset start, so the bias estimate moves.
        g0 = benchmark_truth.state_of(0.3)[0]
        model = MeasurementModel(kind.side, benchmark_F)
        init = ObserverState(measure(model, g0), AlgebraElement(se3, np.zeros((4, 4))))
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F, kind=kind,
                           model=model, gains=Gains(k_P=10.0, k_I=2.0), horizon=0.3,
                           record_stride=10, initial_observer=init)
        if velocity:
            cfg = dataclasses.replace(cfg, truth=VelocityTruth(se3, twist_profile, g0))
        rec = simulate(cfg)
        b = rec.b_bar
        assert frob_norm(b[-1]) > 0.01
        residual = frob_norm(b - project_matrix(se3, b))
        assert (residual <= 1e-15 * frob_norm(b)).all()


class TestSimConfigValidation:
    def base_kwargs(self, benchmark_truth, benchmark_bias, benchmark_F):
        g0, _, g0_inv = benchmark_truth.state_of(0.0)
        return dict(
            kind=ObserverKind.I,
            gains=Gains(k_P=6.4, k_I=1.0),
            model=MeasurementModel("left", benchmark_F),
            bias=benchmark_bias,
            initial_observer=ObserverState(benchmark_F @ g0, benchmark_bias),
            truth=benchmark_truth,
            horizon=1.0,
            step=1e-3,
            record_stride=100,
            bounds=BOUNDS,
        )

    @pytest.mark.parametrize("name", ["horizon", "step"])
    def test_nan_horizon_or_step(self, name, benchmark_truth, benchmark_bias, benchmark_F):
        kw = self.base_kwargs(benchmark_truth, benchmark_bias, benchmark_F)
        kw[name] = math.nan
        with pytest.raises(ConfigurationError, match=f"{name} must be a finite number"):
            SimConfig(**kw)

    @pytest.mark.parametrize("part", ["A_bar", "b_bar"])
    def test_non_finite_initial_state(self, part, benchmark_truth, benchmark_bias,
                                      benchmark_F):
        kw = self.base_kwargs(benchmark_truth, benchmark_bias, benchmark_F)
        init = kw["initial_observer"]
        bad = np.full((4, 4), math.nan)
        kw["initial_observer"] = (ObserverState(bad, init.b_bar) if part == "A_bar"
                                  else ObserverState(init.A_bar, bad))
        with pytest.raises(ConfigurationError, match="must be finite"):
            SimConfig(**kw)

    def test_nonpositive_step(self, benchmark_truth, benchmark_bias, benchmark_F):
        kw = self.base_kwargs(benchmark_truth, benchmark_bias, benchmark_F)
        kw["step"] = 0.0
        with pytest.raises(ConfigurationError):
            SimConfig(**kw)

    def test_horizon_shorter_than_step(self, benchmark_truth, benchmark_bias, benchmark_F):
        kw = self.base_kwargs(benchmark_truth, benchmark_bias, benchmark_F)
        kw["horizon"] = 1e-4
        with pytest.raises(ConfigurationError):
            SimConfig(**kw)

    def test_bad_record_stride(self, benchmark_truth, benchmark_bias, benchmark_F):
        for stride in (0, 1.5):
            kw = self.base_kwargs(benchmark_truth, benchmark_bias, benchmark_F)
            kw["record_stride"] = stride
            with pytest.raises(ConfigurationError):
                SimConfig(**kw)

    def test_unknown_bounds_mode(self, benchmark_truth, benchmark_bias, benchmark_F):
        kw = self.base_kwargs(benchmark_truth, benchmark_bias, benchmark_F)
        kw["bounds"] = "exact"
        with pytest.raises(ConfigurationError):
            SimConfig(**kw)

    def test_unknown_epsilon_mode(self, benchmark_truth, benchmark_bias, benchmark_F):
        kw = self.base_kwargs(benchmark_truth, benchmark_bias, benchmark_F)
        kw["lyapunov_epsilon"] = "half"
        with pytest.raises(ConfigurationError):
            SimConfig(**kw)

    @pytest.mark.parametrize("kind,side", [(ObserverKind.II, "left"), (ObserverKind.I, "right")],
                             ids=["II-on-left", "I-on-right"])
    def test_model_side_must_match_kind(self, kind, side, benchmark_truth, benchmark_bias,
                                        benchmark_F):
        # The grid builds A from the model's side, the kernel assumes the
        # kind's: a kind-II run on a left model drifts from an exact start.
        kw = self.base_kwargs(benchmark_truth, benchmark_bias, benchmark_F)
        kw["kind"], kw["model"] = kind, MeasurementModel(side, benchmark_F)
        with pytest.raises(ConfigurationError, match="conflicts with kind"):
            SimConfig(**kw)

    @pytest.mark.parametrize("kind", [ObserverKind.I_TV, ObserverKind.II_TV], ids=["left", "right"])
    def test_time_varying_kind_needs_F_dot(self, kind, benchmark_truth, benchmark_bias,
                                           benchmark_F):
        # Rejected on construction, not from the first chunk of simulate.
        kw = self.base_kwargs(benchmark_truth, benchmark_bias, benchmark_F)
        kw["kind"] = kind
        kw["model"] = MeasurementModel(kind.side, lambda t: benchmark_F, time_varying=True)
        with pytest.raises(ConfigurationError, match="F_dot"):
            SimConfig(**kw)
        kw["model"] = MeasurementModel(kind.side, lambda t: benchmark_F,
                                       lambda t: np.zeros((4, 4)), time_varying=True)
        SimConfig(**kw)


class TestSimulate:
    def test_exact_init_stays_stationary(self, benchmark_truth, benchmark_bias,
                                         benchmark_F, se3):
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F))
        err, _ = rec.errors_and_V()
        drift = np.max(err.err_EA + err.err_eb)
        assert drift < 1e-8

    def test_determinism(self, benchmark_truth, benchmark_bias, benchmark_F, se3):
        offset = np.eye(4)
        offset[:3, 3] = [0.2, -0.1, 0.3]
        g0, _, _ = benchmark_truth.state_of(0.0)
        init = ObserverState(benchmark_F @ g0 @ offset, benchmark_bias)
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           initial_observer=init, lyapunov_epsilon=0.01)
        first = simulate(cfg)
        second = simulate(cfg)
        for name in ("t", "A_bar", "b_bar"):
            assert np.array_equal(getattr(first, name), getattr(second, name))
        assert np.array_equal(first.errors_and_V()[1], second.errors_and_V()[1])

    def test_truth_consistency_left(self, benchmark_truth, benchmark_bias,
                                    benchmark_F, se3):
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    horizon=2.0))
        assert np.max(frob_norm(rec.A - benchmark_F @ rec.g)) < 1e-10

    def test_truth_consistency_right(self, benchmark_truth, benchmark_bias,
                                     benchmark_F, se3):
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    kind=ObserverKind.II, horizon=2.0))
        assert np.max(frob_norm(rec.g @ rec.A - benchmark_F)) < 1e-10

    def test_co_integrated_truth_tracks_closed_form(self, benchmark_truth,
                                                    benchmark_bias, benchmark_F, se3):
        analytic = benchmark_truth

        def velocity_of(t):
            return analytic.state_of(t)[1]

        moving = VelocityTruth(se3, velocity_of, analytic.state_of(0.0)[0])
        g0, _, g0_inv = analytic.state_of(0.0)
        cfg = SimConfig(
            kind=ObserverKind.II,
            gains=Gains(k_P=6.4, k_I=1.0),
            model=MeasurementModel("right", benchmark_F),
            bias=benchmark_bias,
            initial_observer=ObserverState(g0_inv @ benchmark_F, benchmark_bias),
            truth=moving,
            horizon=2.0,
            step=1e-3,
            record_stride=100,
            bounds=BOUNDS,
        )
        rec = simulate(cfg)
        assert np.max(frob_norm(rec.g - analytic.state_of(rec.t)[0])) < 1e-8
        assert np.max(frob_norm(rec.g @ rec.A - benchmark_F)) < 1e-10

    def test_constant_twist_flow_oracle(self, se3):
        xi_mat = hat_se3([0.3, -0.2, 0.1], [0.5, 0.0, -0.4])
        truth = VelocityTruth(se3, lambda t: xi_mat, np.eye(4))
        zero = AlgebraElement(se3, np.zeros((4, 4)))
        cfg = SimConfig(
            kind=ObserverKind.I,
            gains=Gains(k_P=1.0, k_I=1.0),
            model=MeasurementModel("left", np.eye(4)),
            bias=zero,
            initial_observer=ObserverState(np.eye(4), zero),
            truth=truth,
            horizon=2.0,
            step=1e-3,
            record_stride=200,
        )
        rec = simulate(cfg)
        flow = np.stack([mat_exp(t * xi_mat) for t in rec.t])
        assert np.max(frob_norm(rec.A_bar - flow)) < 1e-9
        assert np.max(frob_norm(rec.b_bar)) < 1e-12

    def test_strict_gain_violation_raises(self, benchmark_truth, benchmark_bias,
                                          benchmark_F, se3):
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           gains=Gains(k_P=0.5, k_I=1.0), strict_gains=True)
        with pytest.raises(GainFloorError):
            simulate(cfg)

    def test_low_gain_warns_when_not_strict(self, benchmark_truth, benchmark_bias,
                                            benchmark_F, se3):
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           gains=Gains(k_P=0.5, k_I=1.0), horizon=0.01,
                           record_stride=10)
        with pytest.warns(UserWarning, match="gain floor"):
            simulate(cfg)

    def test_ambient_bias_state_for_i_mod(self, benchmark_truth, benchmark_bias,
                                          benchmark_F, se3):
        g0, _, _ = benchmark_truth.state_of(0.0)
        sym = np.zeros((4, 4))
        sym[0, 1] = sym[1, 0] = 0.3
        init = ObserverState(benchmark_F @ g0, sym)
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           kind=ObserverKind.I_MOD, initial_observer=init,
                           horizon=0.1, record_stride=10)
        rec = simulate(cfg)
        first_b = rec.b_bar[0]
        assert frob_norm(first_b - project_matrix(se3, first_b)) > 0.1

    def test_algebra_kinds_reject_ambient_initial_bias(self, benchmark_truth,
                                                       benchmark_bias, benchmark_F,
                                                       se3):
        g0, _, _ = benchmark_truth.state_of(0.0)
        sym = np.zeros((4, 4))
        sym[0, 1] = sym[1, 0] = 0.3
        init = ObserverState(benchmark_F @ g0, sym)
        with pytest.raises(ConfigurationError):
            short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                         initial_observer=init)

    def test_bias_group_mismatch_rejected(self, benchmark_truth, benchmark_F, se3):
        so3 = algebra_basis_so3()
        spin = AlgebraElement(so3, hat_so3([0.1, 0.0, 0.0]))
        g0, _, _ = benchmark_truth.state_of(0.0)
        with pytest.raises(ConfigurationError):
            SimConfig(
                kind=ObserverKind.I,
                gains=Gains(k_P=6.4, k_I=1.0),
                model=MeasurementModel("left", benchmark_F),
                bias=spin,
                initial_observer=ObserverState(benchmark_F @ g0, np.zeros((4, 4))),
                truth=benchmark_truth,
                horizon=1.0,
                step=1e-3,
                bounds=BOUNDS,
            )

    def test_horizon_must_be_step_multiple(self, benchmark_truth, benchmark_bias,
                                           benchmark_F, se3):
        with pytest.raises(ConfigurationError):
            short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                         horizon=0.0035)

    def test_initial_shape_validation(self, benchmark_truth, benchmark_bias,
                                      benchmark_F, se3):
        with pytest.raises(ConfigurationError):
            short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                         initial_observer=ObserverState(np.eye(3), benchmark_bias))

    def test_blowup_carries_failure_time(self, benchmark_truth, benchmark_bias,
                                         benchmark_F, se3):
        g0, _, _ = benchmark_truth.state_of(0.0)
        init = ObserverState(benchmark_F @ g0 + 1.0, benchmark_bias)
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           gains=Gains(k_P=1e308, k_I=1.0), initial_observer=init,
                           horizon=0.01, record_stride=10)
        with pytest.raises(NumericalError) as exc_info:
            simulate(cfg)
        assert exc_info.value.t == 0.0

    @pytest.mark.parametrize("k_P,past", [(1e4, SE3_BLOCK_STEPS), (5e3, CHUNK_STEPS)],
                             ids=["later-block", "second-chunk"])
    def test_later_blowup_carries_its_step_time(self, k_P, past, benchmark_truth,
                                                benchmark_bias, benchmark_F, se3):
        # k_P h = 10 and 5 make RK4 unstable, so an offset start overflows
        # after some steps: past the first block, and past the first chunk.
        # The contract: the error carries the node time its first
        # non-finite step starts from, so the run up to that time finishes
        # and the run one step longer fails there.
        g0, _, _ = benchmark_truth.state_of(0.0)
        init = ObserverState(benchmark_F @ g0 + 1.0, benchmark_bias)
        h = 1e-3

        def run(horizon):
            return simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                         gains=Gains(k_P=k_P, k_I=1.0), initial_observer=init,
                                         horizon=horizon, step=h, record_stride=1))

        with pytest.raises(NumericalError) as exc_info:
            run(0.5)
        t = exc_info.value.t
        n = round(t / h)
        assert t == n * h and n > past
        rec = run(t)
        assert rec.t[-1] == t
        for col in (rec.A_bar, rec.b_bar):
            assert np.isfinite(col).all()
        with pytest.raises(NumericalError) as exc_info:
            run(t + h)
        assert exc_info.value.t == t

    def test_record_grid(self, benchmark_truth, benchmark_bias, benchmark_F, se3):
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    record_stride=200))
        ts = rec.t.tolist()
        assert ts == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], abs=1e-12)
        diffs = np.diff(ts)
        assert np.all(diffs > 0.0)
        assert np.ptp(diffs) < 1e-12

    def test_resolved_constants_in_record(self, benchmark_truth, benchmark_bias,
                                          benchmark_F, se3):
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F))
        assert isinstance(rec.bounds, Bounds)
        assert rec.floor == gain_floor(ObserverKind.I, rec.bounds)

    def test_empirical_bounds_resolution(self, benchmark_truth, benchmark_bias,
                                         benchmark_F, se3, benchmark_bounds):
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           bounds="empirical", horizon=30.0, step=1e-2,
                           record_stride=3000)
        rec = simulate(cfg)
        assert rec.bounds.B_xi == pytest.approx(benchmark_bounds.B_xi, rel=1e-12)
        assert rec.bounds.B_b == pytest.approx(benchmark_bounds.B_b, rel=1e-12)

    def test_velocity_truth_pose_shape_checked(self, benchmark_truth, benchmark_bias,
                                               benchmark_F, se3):
        with pytest.raises(ConfigurationError, match="g0 must have shape"):
            dataclasses.replace(
                short_config(se3, benchmark_truth, benchmark_bias, benchmark_F),
                truth=VelocityTruth(se3, twist_profile, np.eye(3)),
            )

    def test_velocity_truth_twist_shape_checked(self, benchmark_truth, benchmark_bias,
                                                benchmark_F, se3):
        with pytest.raises(ConfigurationError, match=r"velocity_of\(0\) must have shape"):
            dataclasses.replace(
                short_config(se3, benchmark_truth, benchmark_bias, benchmark_F),
                truth=VelocityTruth(se3, lambda t: np.zeros((3, 3)), np.eye(4)),
            )

    def test_velocity_truth_twist_in_algebra(self, benchmark_truth, benchmark_bias,
                                             benchmark_F, se3):
        with pytest.raises(ConfigurationError, match="not in the truth group's algebra"):
            dataclasses.replace(
                short_config(se3, benchmark_truth, benchmark_bias, benchmark_F),
                truth=VelocityTruth(se3, lambda t: np.ones((4, 4)), np.eye(4)),
            )

    @pytest.mark.parametrize("ripple", [0.0, 0.1], ids=["smooth", "midpoint-ripple"])
    def test_empirical_bounds_of_velocity_truth(self, ripple, benchmark_truth,
                                                benchmark_bias, benchmark_F, se3):
        # The benchmark motion from t = pi - 3.005. Smooth, its largest
        # position norm, which sets L_g and U_g, falls on the step midpoint
        # 3.005. With a ripple, the twist is stronger at the step midpoints
        # than at the nodes. Either way a bound taken off the nodes differs
        # from one taken at other stage times.
        shift = math.pi - 3.005

        def velocity_of(t):
            scale = 1.0 - ripple * math.cos(200.0 * math.pi * t)
            return scale * benchmark_truth.state_of(t + shift)[1]

        g0 = benchmark_truth.state_of(shift)[0]
        cfg = dataclasses.replace(
            short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                         bounds="empirical", horizon=6.0),
            truth=VelocityTruth(se3, velocity_of, g0),
        )
        # The pose stepped on its own at the bounds grid spacing, sampled
        # at the nodes.
        h = 0.01
        g, poses, twists = g0, [g0], [velocity_of(0.0)]
        for i in range(600):
            g = rk4_step(lambda t, y: y @ velocity_of(t), g, i * h, h)
            poses.append(g)
            twists.append(velocity_of((i + 1) * h))
        sv = np.linalg.svd(np.stack(poses), compute_uv=False)
        got = _resolve_bounds(cfg)
        assert got.B_xi == pytest.approx(1.05 * max(map(frob_norm, twists)), rel=1e-12)
        assert got.L_g == pytest.approx(sv[:, -1].min(), rel=1e-12)
        assert got.U_g == pytest.approx(sv[:, 0].max(), rel=1e-12)
        assert got.B_b == frob_norm(benchmark_bias.matrix)


class TestEpsilonResolution:
    def test_default_is_decoupled(self, benchmark_truth, benchmark_bias,
                                  benchmark_F, se3):
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    horizon=0.1, record_stride=10))
        assert rec.epsilon == 0.0
        assert not rec.epsilon_fallback

    def test_auto_takes_half_the_admissible_bound(self, benchmark_truth,
                                                  benchmark_bias, benchmark_F, se3):
        gains = Gains(k_P=6.4, k_I=1.0)
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    gains=gains, lyapunov_epsilon="auto",
                                    horizon=0.1, record_stride=10))
        want = suggested_epsilon(ObserverKind.I, gains, BOUNDS, benchmark_F)
        assert rec.epsilon == want
        assert rec.epsilon > 0.0
        assert not rec.epsilon_fallback

    def test_auto_falls_back_below_floor(self, benchmark_truth, benchmark_bias,
                                         benchmark_F, se3):
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           gains=Gains(k_P=0.5, k_I=1.0), lyapunov_epsilon="auto",
                           horizon=0.01, record_stride=10)
        with pytest.warns(UserWarning):
            rec = simulate(cfg)
        assert rec.epsilon == 0.0
        assert rec.epsilon_fallback

    def test_auto_falls_back_on_a_time_varying_model(self, benchmark_truth, benchmark_bias,
                                                     benchmark_F, se3):
        model = MeasurementModel("left", lambda t: benchmark_F, lambda t: np.zeros((4, 4)),
                                 time_varying=True)
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    kind=ObserverKind.I_TV, model=model,
                                    lyapunov_epsilon="auto", horizon=0.01, record_stride=10))
        assert rec.epsilon == 0.0
        assert rec.epsilon_fallback

    def test_numeric_epsilon_passes_through(self, benchmark_truth, benchmark_bias,
                                            benchmark_F, se3):
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    lyapunov_epsilon=0.01, horizon=0.1,
                                    record_stride=10))
        assert rec.epsilon == 0.01


def _rot_z(theta, n):
    c, s = math.cos(theta), math.sin(theta)
    r = np.eye(n)
    r[:2, :2] = [[c, -s], [s, c]]
    return r


def rotating_model(side, f0, amp=0.4, freq=1.0):
    """F(t) = Rz(amp sin(freq t)) F0 with its exact derivative, Rz turning
    the first two of F0's n coordinates."""
    n = len(f0)

    def F(t):
        return _rot_z(amp * math.sin(freq * t), n) @ f0

    def F_dot(t):
        theta = amp * math.sin(freq * t)
        c, s = math.cos(theta), math.sin(theta)
        d = np.zeros((n, n))
        d[:2, :2] = [[-s, -c], [c, -s]]
        return (amp * freq * math.cos(freq * t)) * d @ f0

    return MeasurementModel(side, F, F_dot, time_varying=True)


def twist_profile(t):
    return hat_se3([0.3 * math.sin(t), 0.2, -0.1 * math.cos(2.0 * t)], [0.5, 0.1 * t, -0.3])


def reference_run(config):
    """The observer and, for a velocity-profile truth, the pose integrated
    jointly as one flat vector with the public rk4_step and measure and
    the paper's vector field (``paper_field``), in the user's frame: the
    plain form of what simulate computes, sharing none of its operator
    code. Returns (t, A_bar, b_bar) at the recorded steps."""
    kind, model, truth, bias = config.kind, config.model, config.truth, config.bias
    group = truth.group
    n = group.ambient_n
    nn = n * n
    co_int = isinstance(truth, VelocityTruth)
    ng = nn if co_int else 0

    def rhs(t, y):
        if co_int:
            g = y[:nn].reshape(n, n)
            xi = np.asarray(truth.velocity_of(t), dtype=float)
        else:
            g, xi, _ = truth.state_of(t)
        d_a, d_b = paper_field(kind, group, config.gains.k_P, config.gains.k_I,
                               measure(model, g, t), y[ng:ng + nn].reshape(n, n),
                               y[ng + nn:].reshape(n, n), xi + bias.matrix,
                               model.F_at(t), model.F_dot_at(t))
        return np.concatenate([(g @ xi).ravel() if co_int else [], d_a.ravel(), d_b.ravel()])

    y = np.concatenate([np.asarray(truth.g0, float).ravel() if co_int else [],
                        np.asarray(config.initial_observer.A_bar, float).ravel(),
                        config.initial_observer.b_matrix.ravel()])
    h = config.step
    out = [(0.0, y)]
    for i in range(int(round(config.horizon / h))):
        y = rk4_step(rhs, y, i * h, h)
        if (i + 1) % config.record_stride == 0:
            out.append(((i + 1) * h, y))
    return [(t, v[ng:ng + nn].reshape(n, n), v[ng + nn:].reshape(n, n)) for t, v in out]


REFERENCE_CASES = [(label, "closed-form") for label in
                   ("I", "I_mod", "I_tv", "II", "II_tv", "III", "IV")]
REFERENCE_CASES += [(label, "velocity") for label in
                    ("I", "I_mod", "I_tv", "II", "II_tv", "III", "IV")]
REFERENCE_CASES += [("I_tv", "rotating-F"), ("II_tv", "rotating-F")]


class TestReferenceEquivalence:
    """simulate against the plain joint integration, sample by sample."""

    @pytest.mark.parametrize("label,variant", REFERENCE_CASES)
    def test_matches_flat_state_integration(self, label, variant, benchmark_truth,
                                            benchmark_bias, benchmark_F, se3):
        self.check(label, variant, 200, 10, benchmark_truth, benchmark_bias, benchmark_F, se3)

    @pytest.mark.parametrize("label,variant", [("IV", "closed-form"), ("I_mod", "velocity")])
    def test_matches_across_a_chunk_boundary(self, label, variant, benchmark_truth,
                                             benchmark_bias, benchmark_F, se3):
        # 257 steps, one past a chunk: the run ends in a one-step block,
        # and every step is recorded.
        self.check(label, variant, CHUNK_STEPS + 1, 1, benchmark_truth, benchmark_bias,
                   benchmark_F, se3)

    @staticmethod
    def check(label, variant, n_steps, stride, benchmark_truth, benchmark_bias, benchmark_F,
              se3):
        kind = ObserverKind.from_label(label)
        if variant == "rotating-F":
            model = rotating_model(kind.side, benchmark_F)
        else:
            model = MeasurementModel(kind.side, benchmark_F)
        if variant == "velocity":
            truth = VelocityTruth(se3, twist_profile, benchmark_truth.state_of(0.3)[0])
        else:
            truth = benchmark_truth
        g_bar = np.eye(4)
        g_bar[:3, :3] = mat_exp(hat_so3([0.5, -0.3, 0.2]))
        g_bar[:3, 3] = [0.1, -0.2, 0.3]
        b0 = hat_se3([0.2, 0.0, -0.1], [0.0, 0.1, 0.0])
        if kind is ObserverKind.I_MOD:
            b0 = b0 + np.diag([0.1, 0.0, 0.0, -0.2])
        else:
            b0 = AlgebraElement(se3, b0)
        cfg = SimConfig(
            kind=kind,
            gains=Gains(k_P=10.0, k_I=2.0),
            model=model,
            bias=benchmark_bias,
            initial_observer=ObserverState(measure(model, g_bar, 0.0), b0),
            truth=truth,
            horizon=n_steps * 1e-3,
            step=1e-3,
            record_stride=stride,
            bounds=BOUNDS,
        )
        assert len(assert_matches_reference(cfg).t) == n_steps // stride + 1


def assert_matches_reference(cfg):
    """``simulate(cfg)``, which must record the times of ``reference_run(cfg)``
    and its states to 1e-12 of their largest norm (1 for a small bias)."""
    rec = simulate(cfg)
    t_ref, a_ref, b_ref = (np.array(col) for col in zip(*reference_run(cfg)))
    assert np.array_equal(rec.t, t_ref)
    a_scale = np.max(frob_norm(a_ref))
    b_scale = max(1.0, np.max(frob_norm(b_ref)))
    assert np.max(frob_norm(rec.A_bar - a_ref)) <= 1e-12 * a_scale
    assert np.max(frob_norm(rec.b_bar - b_ref)) <= 1e-12 * b_scale
    return rec


UNIT = st.floats(-1.0, 1.0)
VEC3 = st.lists(UNIT, min_size=3, max_size=3)
# A short run of any kind, on a closed-form (SE(3) only) or co-integrated
# truth, through a constant or rotating model, with k_P a margin above the
# kind's floor for BOUNDS (so no gain-floor warning), and a drawn start,
# bias and grid.
ORACLE_RUNS = st.fixed_dictionaries({
    "kind": st.sampled_from([kind.value for kind in ObserverKind]),
    "rotating_F": st.booleans(),
    "co_integrated_from": st.none() | UNIT,
    "k_P_margin": st.floats(0.1, 10.0),
    "k_I": st.floats(0.1, 5.0),
    "g_bar": st.tuples(VEC3, VEC3),
    "b_bar": st.tuples(VEC3, VEC3, st.lists(UNIT, min_size=4, max_size=4)),
    "bias": st.tuples(VEC3, VEC3),
    "step": st.sampled_from([1e-3, 2e-3]),
    "steps": st.integers(10, 40),
    "stride": st.sampled_from([1, 3, 7]),
})


def oracle_run_config(group_name, run, benchmark_truth, benchmark_F, se3):
    """The SimConfig of one :data:`ORACLE_RUNS` draw on the group named
    ``group_name``. On SE(3) the initial ``g_bar`` turns by up to 2.5 rad.
    SO(3) and SL(2) take the ``F`` and the co-integrated truth of
    ``tests/test_groups.py``'s cases, and their drawn ``g_bar``, ``b_bar``
    and bias are coordinates in the group's basis. I_mod's ``b_bar``
    leaves the algebra by a drawn diagonal."""
    kind = ObserverKind.from_label(run["kind"])
    case = {"SO(3)": SO3_CASE, "SL(2)": SL2_CASE}.get(group_name)
    group, F = (se3, benchmark_F) if case is None else (case.group, case.F)
    if run["rotating_F"]:
        model = rotating_model(kind.side, F)
    else:
        model = MeasurementModel(kind.side, F)
    omega, v, diag = run["b_bar"]
    if case is None:
        truth = benchmark_truth
        if run["co_integrated_from"] is not None:
            g0 = benchmark_truth.state_of(run["co_integrated_from"])[0]
            truth = VelocityTruth(se3, twist_profile, g0)
        g_bar = np.eye(4)
        g_bar[:3, :3] = mat_exp(hat_so3(2.5 * np.array(run["g_bar"][0])))
        g_bar[:3, 3] = run["g_bar"][1]
        b0, bias = hat_se3(omega, v), hat_se3(*run["bias"])
    else:
        def tangent(coords):
            return np.tensordot(coords, group.basis, 1)

        truth = VelocityTruth(group, case.velocity_of, case.g0)
        g_bar = mat_exp(tangent(run["g_bar"][0]))
        b0, bias = tangent(omega), tangent(run["bias"][0])
    n = group.ambient_n
    b0 = b0 + np.diag(diag[:n]) if kind is ObserverKind.I_MOD else AlgebraElement(group, b0)
    return SimConfig(
        kind=kind,
        gains=Gains(k_P=gain_floor(kind, BOUNDS) + run["k_P_margin"], k_I=run["k_I"]),
        model=model,
        bias=AlgebraElement(group, bias),
        initial_observer=ObserverState(measure(model, g_bar, 0.0), b0),
        truth=truth,
        horizon=run["steps"] * run["step"],
        step=run["step"],
        record_stride=run["stride"],
        bounds=BOUNDS,
    )


# Each draw runs on every group, so the 150 derandomized draws, which hold
# every kind, cover every kind on every group.
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(run=ORACLE_RUNS)
def test_simulate_matches_the_stage_form_oracle(run, benchmark_truth, benchmark_F, se3):
    """simulate against reference_run over drawn kinds, truths, models,
    gains, starts, biases and grids, on SE(3), SO(3) and SL(2), to
    TestReferenceEquivalence's 1e-12."""
    for group_name in ("SE(3)", "SO(3)", "SL(2)"):
        assert_matches_reference(oracle_run_config(group_name, run, benchmark_truth,
                                                   benchmark_F, se3))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(run=ORACLE_RUNS)
def test_halving_the_step_divides_the_run_difference_by_16(run, benchmark_truth,
                                                           benchmark_F, se3):
    """RK4's order over the same draws as the oracle property: 1 s at
    h = 0.01, 0.005 and 0.0025, recorded every 0.05 s. The largest
    difference of A_bar plus b_bar between two runs falls by 16 +- 4 when
    h halves (measured: 16.2 to 17.2), on closed-form and co-integrated
    truths alike. SL(2), whose co-integrated truth costs a matrix
    exponential per time, is left to the oracle property."""
    for group_name in ("SE(3)", "SO(3)"):
        cfg = oracle_run_config(group_name, run, benchmark_truth, benchmark_F, se3)
        recs = [simulate(dataclasses.replace(cfg, horizon=1.0, step=0.01 / 2**i,
                                             record_stride=5 * 2**i)) for i in range(3)]
        coarse, fine = (np.max(frob_norm(a.A_bar - b.A_bar) + frob_norm(a.b_bar - b.b_bar))
                        for a, b in zip(recs, recs[1:]))
        assert 12.0 <= coarse / fine <= 20.0, (group_name, coarse, fine)


class TestEachTime:
    """The one loop over times of a per-time truth callable."""

    def test_stacks_float_calls_bit_for_bit(self):
        ts = np.linspace(0.0, 1.3, 7)
        seen = []

        def fn(t):
            seen.append(t)
            return twist_profile(t) if t < 0.5 else twist_profile(t).tolist()

        out = _each_time(fn, ts)
        assert all(type(t) is float for t in seen) and seen == ts.tolist()
        want = np.stack([np.asarray(twist_profile(float(t)), dtype=float) for t in ts])
        assert np.array_equal(out, want) and out.dtype == np.float64
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("late", [np.ones((1, 4)), np.ones((4, 1)), np.eye(3), 1.0],
                             ids=["row", "column", "smaller", "scalar"])
    def test_changing_shape_raises(self, late):
        # A shape that broadcasts against the others is not broadcast.
        with pytest.raises(ValueError):
            _each_time(lambda t: np.eye(4) if t < 0.5 else late, np.linspace(0.0, 1.0, 5))


class TestBlockSteps:
    """Blocks sized by the bytes of their operators and step maps, not by a
    step count."""

    def test_blocks_fit_the_byte_budget(self, se3):
        # Per step, 2 operators on a closed-form truth or 4 on a
        # co-integrated one, and three step maps, all (d, d) doubles: 32
        # closed-form steps fill the budget at SE(3)'s d = 23, 15 at I_mod's
        # d = 33, and 22 and 11 co-integrated ones; SO(3) (d = 13, 19) and
        # SL(2) (d = 8, 9) take longer blocks, at most a chunk.
        assert _BLOCK_BYTES == (2 + 3) * SE3_BLOCK_STEPS * 23 * 23 * 8
        for group, per, (steps, i_mod) in [
                (se3, 2, (SE3_BLOCK_STEPS, 15)), (se3, 4, (22, 11)),
                (SO3_CASE.group, 2, (100, 46)), (SO3_CASE.group, 4, (71, 33)),
                (SL2_CASE.group, 2, (CHUNK_STEPS, 208)), (SL2_CASE.group, 4, (188, 149))]:
            for kind in ObserverKind:
                want = i_mod if kind is ObserverKind.I_MOD else steps
                assert _block_steps(kind, group, per) == want, (group.name, per, kind)

    @pytest.mark.parametrize("group,kind,velocity", [
        ("SE(3)", ObserverKind.I_MOD, False), ("SE(3)", ObserverKind.I_MOD, True),
        ("SE(3)", ObserverKind.II_TV, True),
        ("SO(3)", ObserverKind.II, True), ("SO(3)", ObserverKind.I_MOD, True),
    ], ids=["SE3-I_mod-closed-form", "SE3-I_mod-co-integrated", "SE3-II_tv-co-integrated",
            "SO3-II", "SO3-I_mod"])
    def test_outputs_do_not_depend_on_the_block_length(self, monkeypatch, group, kind,
                                                       velocity, benchmark_truth,
                                                       benchmark_bias, benchmark_F, se3):
        # 2 * 256 + 37 steps, every step recorded: a step's map and its
        # advance do not depend on where its block starts, so one-step
        # blocks give the default blocks' outputs bit for bit. II_tv reads
        # the per-time measured velocity and the feed-through of a rotating
        # model at every stage entry.
        n_steps = 2 * CHUNK_STEPS + 37
        if group == "SO(3)":
            cfg = case_config(SO3_CASE, kind, exact=False, horizon=n_steps * 1e-3, step=1e-3)
        else:
            model = (rotating_model(kind.side, benchmark_F) if kind.time_varying
                     else MeasurementModel(kind.side, benchmark_F))
            g_bar = np.eye(4)
            g_bar[:3, :3] = mat_exp(hat_so3([0.5, -0.3, 0.2]))
            cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F, kind=kind,
                               model=model, gains=Gains(k_P=10.0, k_I=2.0),
                               initial_observer=ObserverState(measure(model, g_bar, 0.0),
                                                              benchmark_bias),
                               horizon=n_steps * 1e-3)
            if velocity:
                cfg = dataclasses.replace(cfg, truth=VelocityTruth(
                    se3, twist_profile, benchmark_truth.state_of(0.3)[0]))
        cfg = dataclasses.replace(cfg, record_stride=1)
        default = simulate(cfg)
        monkeypatch.setattr(lieobs.integrate, "_BLOCK_BYTES", 1)
        assert _block_steps(kind, cfg.truth.group, 4 if velocity else 2) == 1
        rec = simulate(cfg)
        assert len(rec.t) == n_steps + 1
        for name in ("t", "g", "A", "A_bar", "b_bar"):
            assert np.array_equal(getattr(rec, name), getattr(default, name)), name


def co_integrated_run(kind, benchmark_truth, benchmark_bias, benchmark_F, se3):
    """2 s of ``kind`` on a co-integrated SE(3) truth at stride 10, through
    the rotating model for I_tv and II_tv and the constant one else."""
    g0 = benchmark_truth.state_of(0.3)[0]
    model = (rotating_model(kind.side, benchmark_F) if kind.time_varying
             else MeasurementModel(kind.side, benchmark_F))
    return SimConfig(
        kind=kind,
        gains=Gains(k_P=10.0, k_I=2.0),
        model=model,
        bias=benchmark_bias,
        initial_observer=ObserverState(measure(model, g0, 0.0), benchmark_bias),
        truth=VelocityTruth(se3, twist_profile, g0),
        horizon=2.0,
        step=1e-3,
        record_stride=10,
        bounds=BOUNDS,
    )


def traced_peak(cfg):
    """The traced peak of ``simulate(cfg)``, after one untraced run."""
    simulate(cfg)
    tracemalloc.start()
    try:
        simulate(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedTruth:
    @pytest.mark.parametrize("velocity", [False, True], ids=["closed-form", "velocity-profile"])
    def test_chunked_bounds_match_one_pass(self, monkeypatch, velocity, benchmark_truth,
                                           benchmark_bias, benchmark_F, se3):
        # 6 s on the 0.01 bounds grid is 600 steps, more than two chunks.
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           bounds="empirical", horizon=6.0)
        if velocity:
            g0 = benchmark_truth.state_of(0.0)[0]
            cfg = dataclasses.replace(cfg, truth=VelocityTruth(se3, twist_profile, g0))
        assert 600 > 2 * CHUNK_STEPS
        # One pass over every stage entry, reduced at the nodes (every
        # second pose entry, or every fourth of a co-integrated truth, and
        # every second velocity time), against the chunked walk whose node
        # entries the bounds reduce.
        with monkeypatch.context() as patch:
            patch.setattr(lieobs.integrate, "CHUNK_STEPS", 600)
            [(_, _, _, g, xi, _)] = _truth_chunks(cfg.truth, 600, 0.01)
        one_pass = _stacked_bounds(g[::4 if velocity else 2], xi[::2],
                                   bias_norm=frob_norm(benchmark_bias.matrix))
        assert dataclasses.astuple(_resolve_bounds(cfg)) == dataclasses.astuple(one_pass)

    @pytest.mark.parametrize("velocity", [False, True], ids=["closed-form", "co-integrated"])
    def test_bounds_are_the_recorded_pose_extremes(self, velocity, benchmark_truth,
                                                   benchmark_bias, benchmark_F, se3):
        # Every node recorded, at the bounds grid's own step, over 6 s
        # (three chunks): the bounds reduce the run's own walk, so they
        # are the singular value extremes of the recorded poses.
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           bounds="empirical", horizon=6.0, step=0.01, record_stride=1)
        if velocity:
            g0 = benchmark_truth.state_of(0.0)[0]
            cfg = dataclasses.replace(cfg, truth=VelocityTruth(se3, twist_profile, g0))
        assert 600 > 2 * CHUNK_STEPS
        smin, smax = singular_extremes(simulate(cfg).g)
        bounds = _resolve_bounds(cfg)
        assert (bounds.L_g, bounds.U_g) == (smin.min(), smax.max())

    def test_errors_and_V_computed_once_per_run(self, monkeypatch, benchmark_truth,
                                                benchmark_bias, benchmark_F, se3):
        # 600 steps are three chunks, and stride 7 records nodes in each.
        # The run computes no errors; each errors_and_V call computes both
        # once, and so does each access of samples, which caches nothing.
        # Its rows share the stack's norms: three calls, not three per row.
        calls = {"errors": 0, "V": 0, "norms": 0}

        def counted(key, f):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return f(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(lieobs.integrate, "compute_errors", counted("errors", compute_errors))
        monkeypatch.setattr(lieobs.integrate, "lyapunov_value", counted("V", lyapunov_value))
        monkeypatch.setattr(lieobs.analysis, "frob_norm", counted("norms", frob_norm))
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           horizon=0.6, record_stride=7)
        assert 600 > 2 * CHUNK_STEPS
        rec = simulate(cfg)
        assert calls == {"errors": 0, "V": 0, "norms": 0}
        for n in (1, 2):
            errors, V = rec.errors_and_V()
            assert calls == {"errors": n, "V": n, "norms": 0}
        rec.errors_and_V(slice(3, 9))
        assert calls == {"errors": 3, "V": 3, "norms": 0}
        for n in (4, 5):
            samples = rec.samples
            assert len(samples) == len(rec.t)
            assert calls == {"errors": n, "V": n, "norms": 3 * (n - 3)}
        norms = [(s.errors.err_EA, s.errors.err_eb, s.errors.err_Eg) for s in samples]
        assert len(norms) == len(rec.t) and calls == {"errors": 5, "V": 5, "norms": 6}
        assert rec.t.shape == V.shape == errors.E_A.shape[:1] == (600 // 7 + 1,)
        assert np.allclose(rec.t, np.arange(0, 601, 7) * 1e-3, rtol=0, atol=1e-12)

    def test_run_memory_stays_bounded(self, benchmark_truth, benchmark_bias, benchmark_F,
                                      se3):
        # A co-integrated time-varying run has the most stage entries per
        # block. One operator per stage entry for a whole chunk would take
        # 1025 x 23 x 23 doubles, 4.3 MB, on top of the rest; the run
        # peaks at about 1.74 MB.
        cfg = co_integrated_run(ObserverKind.I_TV, benchmark_truth, benchmark_bias,
                                benchmark_F, se3)
        assert traced_peak(cfg) < 2.0e6

    @pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda kind: kind.value)
    def test_widest_state_sets_no_peak(self, kind, benchmark_truth, benchmark_bias,
                                       benchmark_F, se3):
        # Blocks sized by the bytes of their operators and step maps keep
        # I_mod's 33 x 33 workspaces and a co-integrated truth's 4 operators
        # per step within a closed-form SE(3) block's, each chunk's truth is
        # freed before its blocks run, and the measured velocity is kept
        # once per time: every kind peaks below 1.75 MB. With step maps
        # alone in the budget and the velocity at every stage entry, II_tv
        # peaked at 2.43 MB; with 32-step blocks for every kind and the
        # truth held through them, I_mod peaked at 3.40 MB.
        cfg = co_integrated_run(kind, benchmark_truth, benchmark_bias, benchmark_F, se3)
        assert traced_peak(cfg) < 2.0e6

    def test_record_too_large_fails_before_the_bounds_walk(self, monkeypatch, benchmark_truth,
                                                           benchmark_bias, benchmark_F, se3):
        # 1e14 recorded rows: the record is allocated, and fails, first.
        def walk(config):
            pytest.fail("the empirical bounds were walked")

        monkeypatch.setattr(lieobs.integrate, "_resolve_bounds", walk)
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           horizon=1e14, step=1.0, record_stride=1, bounds="empirical")
        with pytest.raises(MemoryError):
            simulate(cfg)

    @pytest.mark.parametrize("horizon", [5.0, 20.0])
    def test_record_memory_is_record_plus_constant(self, horizon, benchmark_truth,
                                                   benchmark_bias, benchmark_F, se3):
        # Every step recorded: 5,001 and 20,001 rows of 520 bytes. The run
        # computes no errors, so the traced peak exceeds the states' own
        # bytes by the chunk and block workspaces alone, about 1.45 MB
        # whatever the length. The whole record's errors and V would add as
        # much again as the states, 2.6 MB and 10.4 MB.
        model = MeasurementModel("right", benchmark_F)
        g_bar = np.eye(4)
        g_bar[:3, :3] = mat_exp(hat_so3([0.5, -0.3, 0.2]))
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           kind=ObserverKind.IV, model=model, gains=Gains(k_P=10.0, k_I=2.0),
                           initial_observer=ObserverState(measure(model, g_bar, 0.0),
                                                          benchmark_bias),
                           horizon=horizon, record_stride=1)
        simulate(dataclasses.replace(cfg, horizon=0.1))
        tracemalloc.start()
        try:
            rec = simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = sum(a.nbytes for a in (rec.t, rec.g, rec.A, rec.A_bar, rec.b_bar))
        assert len(rec.t) == round(horizon * 1000) + 1
        assert peak - own < 1.5e6

    def test_A_bar_is_its_own_column(self, benchmark_truth, benchmark_bias, benchmark_F,
                                      se3):
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    horizon=0.6, record_stride=7))
        assert rec.A_bar.flags.c_contiguous and rec.A_bar.flags.owndata
        err, _ = rec.errors_and_V()
        for other in (rec.g, rec.A, rec.b_bar, err.E_A, err.E_g):
            assert not np.shares_memory(rec.A_bar, other)

    def test_F_inverted_once_per_distinct_time(self, monkeypatch, benchmark_truth,
                                               benchmark_bias, benchmark_F, se3):
        # A co-integrated truth has 4 K + 1 entries per chunk of K steps
        # but 2 K + 1 distinct stage times; F(t) depends on the time alone.
        sizes = []

        def counted(a):
            sizes.append(len(a))
            return mat_inv(a)

        monkeypatch.setattr(lieobs.observers, "mat_inv", counted)
        monkeypatch.setattr(lieobs.integrate, "mat_inv", counted)
        g0 = benchmark_truth.state_of(0.3)[0]
        model = rotating_model("left", benchmark_F)
        simulate(SimConfig(
            kind=ObserverKind.I_TV,
            gains=Gains(k_P=10.0, k_I=2.0),
            model=model,
            bias=benchmark_bias,
            initial_observer=ObserverState(measure(model, g0, 0.0), benchmark_bias),
            truth=VelocityTruth(se3, twist_profile, g0),
            horizon=1.0,
            step=1e-3,
            bounds=BOUNDS,
        ))
        chunks = [CHUNK_STEPS] * 3 + [1000 - 3 * CHUNK_STEPS]
        assert sizes == [2 * k + 1 for k in chunks]

    @pytest.mark.parametrize("stride", [7, 300])
    @pytest.mark.parametrize("velocity", [False, True], ids=["closed-form", "velocity-profile"])
    def test_strided_rows_equal_stride_one_rows(self, velocity, stride, benchmark_truth,
                                                benchmark_bias, benchmark_F, se3):
        # 2 * 256 + 37 steps: the last chunk is partial, and so is its
        # last block. The states are recorded once per chunk.
        n_steps = 2 * CHUNK_STEPS + 37
        assert n_steps % SE3_BLOCK_STEPS and (n_steps % CHUNK_STEPS) % SE3_BLOCK_STEPS
        model = MeasurementModel("right", benchmark_F)
        g_bar = np.eye(4)
        g_bar[:3, :3] = mat_exp(hat_so3([0.5, -0.3, 0.2]))
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                           kind=ObserverKind.II, model=model,
                           initial_observer=ObserverState(measure(model, g_bar, 0.0),
                                                          benchmark_bias),
                           horizon=n_steps * 1e-3, record_stride=1)
        if velocity:
            cfg = dataclasses.replace(
                cfg, truth=VelocityTruth(se3, twist_profile, benchmark_truth.state_of(0.3)[0]))
        every = simulate(cfg)
        rec = simulate(dataclasses.replace(cfg, record_stride=stride))
        assert len(every.t) == n_steps + 1
        assert len(rec.t) == n_steps // stride + 1
        for name in ("t", "g", "A", "A_bar", "b_bar"):
            assert np.array_equal(getattr(rec, name), getattr(every, name)[::stride],
                                  equal_nan=True), name
        assert np.array_equal(rec.errors_and_V()[1], every.errors_and_V()[1][::stride])

    def test_stride_past_the_horizon_records_the_start(self, benchmark_truth, benchmark_bias,
                                                        benchmark_F, se3):
        cfg = short_config(se3, benchmark_truth, benchmark_bias, benchmark_F, horizon=0.01,
                           record_stride=10**19)
        rec = simulate(cfg)
        every = simulate(dataclasses.replace(cfg, record_stride=1))
        assert rec.t.tolist() == [0.0]
        for name in ("g", "A", "A_bar", "b_bar"):
            assert np.array_equal(getattr(rec, name), getattr(every, name)[:1],
                                  equal_nan=True), name
        assert np.array_equal(rec.errors_and_V()[1], every.errors_and_V(slice(1))[1])

    @pytest.mark.parametrize("kind", [ObserverKind.III, ObserverKind.IV], ids=lambda k: k.value)
    def test_no_stage_entries_inverted(self, kind, monkeypatch, benchmark_truth,
                                       benchmark_bias, benchmark_F, se3):
        # A closed-form run on a constant model takes A^-1 from the constant
        # F^-1, inverted once per chunk, and the closed-form pose. What
        # numpy still inverts is compute_errors' work on the recorded rows,
        # A and either A_bar or F, and a few single matrices; never one of
        # a chunk's 2 K + 1 stage entries.
        sizes = []
        inv = np.linalg.inv

        def counted(a):
            sizes.append(int(np.prod(np.shape(a)[:-2])))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        n_steps = 2 * CHUNK_STEPS + 37
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    kind=kind, gains=Gains(k_P=10.0, k_I=2.0),
                                    horizon=n_steps * 1e-3))
        n_rows, n_chunks = len(rec.t), 3
        assert max(sizes) <= n_rows < 2 * 37 + 1
        assert sum(sizes) <= 2 * n_rows + n_chunks + 2

    def test_samples_do_not_share_chunk_memory(self, monkeypatch, benchmark_truth,
                                               benchmark_bias, benchmark_F, se3):
        # Each sample views the record's g and the stacks of the one
        # errors_and_V call its access makes, not a chunk's buffers.
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    horizon=0.6, record_stride=50))
        results, errors_and_V = [], SimRecord.errors_and_V

        def kept(self, rows=slice(None)):
            results.append(errors_and_V(self, rows))
            return results[-1]

        monkeypatch.setattr(SimRecord, "errors_and_V", kept)
        samples = rec.samples
        [(errors, _)] = results
        names = ("E_A", "e_b", "E_g", "script_E_A")
        assert len(samples) == len(rec.t) == 13
        for k, s in enumerate(samples):
            assert np.shares_memory(s.g, rec.g) and np.array_equal(s.g, rec.g[k])
            for name in names:
                assert np.shares_memory(getattr(s.errors, name), getattr(errors, name))

    def test_singular_measurement_carries_stage_time(self, benchmark_truth,
                                                     benchmark_bias, benchmark_F, se3):
        # F(t) loses rank at t = 0.3, a node of the step grid, so the kind-IV
        # innovation A^-1 does as well.
        def F(t):
            return benchmark_F @ np.diag([1.0, 1.0, 1.0, max(0.0, 1.0 - t / 0.3)])

        model = MeasurementModel("right", F, time_varying=True)
        g0, _, g0_inv = benchmark_truth.state_of(0.0)
        cfg = SimConfig(
            kind=ObserverKind.IV,
            gains=Gains(k_P=10.0, k_I=2.0),
            model=model,
            bias=benchmark_bias,
            initial_observer=ObserverState(g0_inv @ F(0.0), benchmark_bias),
            truth=benchmark_truth,
            horizon=0.5,
            step=1e-3,
            record_stride=10,
            bounds=BOUNDS,
        )
        with pytest.raises(SingularityError) as exc_info:
            simulate(cfg)
        assert exc_info.value.t == pytest.approx(0.3, abs=1e-12)
        assert "t=0.3" in str(exc_info.value)


def _exp_truth(group, xi, g0):
    """The closed-form truth ``g(t) = g0 exp(t xi)`` for a constant ``xi``
    in the algebra, with ``g^-1 = exp(-t xi) g0^-1``."""
    g0_inv = mat_inv(g0)

    def state_of(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        g = np.stack([g0 @ mat_exp(tt * xi) for tt in ts])
        g_inv = np.stack([mat_exp(-tt * xi) @ g0_inv for tt in ts])
        xis = np.broadcast_to(xi, g.shape).copy()
        if np.ndim(t) == 0:
            return g[0], xis[0], g_inv[0]
        return g, xis, g_inv

    return AnalyticTruth(group, state_of)


def _translating_truth(group, p0, rate):
    """The closed-form SE(3) truth ``g(t) = (I, p0 exp(rate t))``, whose
    body twist is the translation rate ``(0, rate p(t))``."""

    def state_of(t):
        p = np.multiply.outer(np.exp(rate * np.asarray(t, dtype=float)), p0)
        g, xi, g_inv = np.zeros((3,) + p.shape[:-1] + (4, 4))
        g[..., :3, :3] = g_inv[..., :3, :3] = np.eye(3)
        g[..., 3, 3] = g_inv[..., 3, 3] = 1.0
        g[..., :3, 3], g_inv[..., :3, 3], xi[..., :3, 3] = p, -p, rate * p
        return g, xi, g_inv

    return AnalyticTruth(group, state_of)


def _factor_case(group):
    """``(g0, xi, velocity_of, F, F(t))`` for a group of GROUPS: a pose
    moving on a constant and on a varying twist, and a well conditioned
    measurement map, constant and time-varying."""
    n = GROUPS[group].ambient_n
    rng = np.random.default_rng(61)
    basis = GROUPS[group].basis
    xi = np.tensordot(rng.normal(size=len(basis)), basis, axes=1)
    g0 = mat_exp(0.5 * np.tensordot(rng.normal(size=len(basis)), basis, axes=1))
    F = np.eye(n) + 0.3 * rng.normal(size=(n, n))

    def velocity_of(t):
        return (1.0 + 0.5 * math.sin(t)) * xi

    def F_of(t):
        return F @ mat_exp(0.4 * math.sin(t) * np.diag(np.arange(1.0, n + 1.0)) / n)

    return g0, xi, velocity_of, F, F_of


class TestFactorInverse:
    """Kinds III/IV take A^-1 from F^-1 and the pose, not from A."""

    @staticmethod
    def grid_config(kind, group, truth, model):
        spec = GROUPS[group]
        g0 = np.asarray(truth.g0 if isinstance(truth, VelocityTruth)
                        else truth.state_of(0.0)[0])
        bias = AlgebraElement(spec, np.zeros_like(g0))
        return SimConfig(kind=kind, gains=Gains(k_P=10.0, k_I=2.0), model=model, bias=bias,
                         initial_observer=ObserverState(measure(model, g0), bias),
                         truth=truth, horizon=2.0, step=0.05, bounds=BOUNDS)

    @pytest.mark.parametrize("varying", [False, True], ids=["constant-F", "varying-F"])
    @pytest.mark.parametrize("velocity", [False, True], ids=["closed-form", "co-integrated"])
    @pytest.mark.parametrize("group", list(GROUPS), ids=str)
    @pytest.mark.parametrize("kind", [ObserverKind.III, ObserverKind.IV], ids=lambda k: k.value)
    def test_stage_inverse_matches_mat_inv(self, kind, group, velocity, varying):
        g0, xi, velocity_of, F, F_of = _factor_case(group)
        truth = (VelocityTruth(GROUPS[group], velocity_of, g0) if velocity
                 else _exp_truth(GROUPS[group], xi, g0))
        model = (MeasurementModel(kind.side, F_of, time_varying=True) if varying
                 else MeasurementModel(kind.side, F))
        cfg = self.grid_config(kind, group, truth, model)
        _, _, _, A, _, aux = lieobs.integrate._truth_grid(
            cfg, next(_truth_chunks(truth, 40, cfg.step)))
        want = mat_inv(A)
        scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
        assert A.shape[0] == (4 if velocity else 2) * 40 + 1
        assert np.all(np.abs(aux - want) <= 1e-13 * scale)

    def test_ill_conditioned_F_leaves_A_to_its_own_inverse(self):
        # F = R1 diag(1, 5e-11) R2 fails the guard (condition 2e10), while
        # the hyperbolic pose g = R1 diag(e^s, e^-s) R1^T brings A = g^-1 F
        # down to 2e10 e^-2s: F^-1 g would carry F's rounding, so A is
        # inverted itself, as mat_inv would.
        r1, r2 = mat_exp(0.7 * np.array([[0.0, -1.0], [1.0, 0.0]])), mat_exp(
            -0.3 * np.array([[0.0, -1.0], [1.0, 0.0]]))
        xi = r1 @ np.diag([1.0, -1.0]) @ r1.T
        truth = _exp_truth(SL2, xi, mat_exp(2.0 * xi))
        model = MeasurementModel("right", r1 @ np.diag([1.0, 5e-11]) @ r2)
        assert _guarded_inv(model.F)[1]
        cfg = self.grid_config(ObserverKind.IV, "SL(2)", truth, model)
        _, _, _, A, _, aux = lieobs.integrate._truth_grid(
            cfg, next(_truth_chunks(truth, 40, cfg.step)))
        assert np.array_equal(aux, mat_inv(A))

    @staticmethod
    def parent_raise(config):
        """(t, member) of the first stage entry, chunk by chunk, whose A
        the guard rejects when A itself is inverted, as before A^-1 came
        from its factors; None if there is none."""
        n_steps = int(round(config.horizon / config.step))
        for _, ts, at, g, _, g_inv in _truth_chunks(config.truth, n_steps, config.step):
            F = config.model.F
            A = F @ g if config.model.side == "left" else g_inv @ F
            _, bad = _guarded_inv(A)
            if bad.any():
                member = int(np.argmax(bad))
                return float(ts[at][member]), member
        return None

    @pytest.mark.parametrize("case", ["SL(2) hyperbolic", "SE(3) translation"])
    def test_ill_conditioned_pose_raises_as_before(self, case):
        # The pose's condition number passes 1e10 between stage times of
        # the second chunk while F stays well conditioned.
        if case == "SL(2) hyperbolic":
            kind, spec = ObserverKind.IV, SL2
            xi, g0, F = 1.5 * np.diag([1.0, -1.0]), np.eye(2), np.array([[2.0, 0.5], [0.3, 1.0]])
            truth = _exp_truth(spec, xi, g0)
        else:
            kind, spec = ObserverKind.III, algebra_basis_se3()
            g0 = np.eye(4)
            F = np.eye(4) + np.diag([0.5, 0.0, 0.2, 0.0])
            truth = _translating_truth(spec, np.array([1.0, 0.5, -0.2]), 1.6)
        model = MeasurementModel(kind.side, F)
        bias = AlgebraElement(spec, np.zeros_like(g0))
        cfg = SimConfig(kind=kind, gains=Gains(k_P=10.0, k_I=2.0), model=model, bias=bias,
                        initial_observer=ObserverState(measure(model, g0), bias),
                        truth=truth, horizon=12.0, step=0.02, record_stride=50,
                        bounds=BOUNDS)
        want = self.parent_raise(cfg)
        assert want is not None and want[1] not in (0, 2 * CHUNK_STEPS)
        with pytest.raises(SingularityError) as exc_info:
            simulate(cfg)
        assert (exc_info.value.t, exc_info.value.member) == want


def per_sample_columns(rec):
    """Every recorded sample recomputed on its own with the scalar
    compute_errors, lyapunov_value and project_se3: the per-sample errors
    and the CSV columns t, err_EA, err_eb, err_Eg, err_Eg_proj, V."""
    cfg = rec.config
    errors, rows = [], []
    for k, t in enumerate(rec.t.tolist()):
        err = compute_errors(
            cfg.kind, TruthSample(t=t, g=rec.g[k], b=cfg.bias, A=rec.A[k]),
            ObserverState(rec.A_bar[k], rec.b_bar[k]), cfg.model.F_at(t),
        )
        V = lyapunov_value(cfg.kind, rec.epsilon, err, rec.A[k], cfg.gains)
        proj = frob_norm(rec.g[k] - project_se3(rec.g[k] - err.E_g))
        errors.append(err)
        rows.append([t, err.err_EA, err.err_eb, err.err_Eg, proj, V])
    return errors, np.array(rows)


def assert_columns_match_samples(rec):
    errors, want = per_sample_columns(rec)
    assert np.array_equal(_columns(rec), want, equal_nan=True)
    names = ("E_A", "e_b", "E_g", "script_E_A")
    whole, V = rec.errors_and_V()
    assert np.array_equal(V, want[:, 5], equal_nan=True)
    samples = rec.samples
    assert len(samples) == len(errors)
    for k, (err, s) in enumerate(zip(errors, samples)):
        assert s.t == rec.t[k] and np.array_equal(s.g, rec.g[k])
        for name in names:
            one = getattr(err, name)
            assert np.array_equal(getattr(whole, name)[k], one, equal_nan=True)
            assert np.array_equal(getattr(s.errors, name), one, equal_nan=True)
        for name in ("err_EA", "err_eb", "err_Eg"):
            one = getattr(err, name)
            assert type(getattr(s.errors, name)) is type(one) is np.float64
            assert np.array_equal(getattr(s.errors, name), one, equal_nan=True)
            assert np.array_equal(getattr(whole, name)[k], one, equal_nan=True)


class TestColumns:
    """The recorded columns against a per-sample recomputation, bit for bit."""

    @pytest.mark.parametrize("label,variant", REFERENCE_CASES)
    def test_columns_equal_per_sample_oracle(self, label, variant, benchmark_truth,
                                             benchmark_bias, benchmark_F, se3):
        kind = ObserverKind.from_label(label)
        if variant == "rotating-F":
            model = rotating_model(kind.side, benchmark_F)
        else:
            model = MeasurementModel(kind.side, benchmark_F)
        if variant == "velocity":
            truth = VelocityTruth(se3, twist_profile, benchmark_truth.state_of(0.3)[0])
        else:
            truth = benchmark_truth
        g_bar = np.eye(4)
        g_bar[:3, :3] = mat_exp(hat_so3([0.5, -0.3, 0.2]))
        g_bar[:3, 3] = [0.1, -0.2, 0.3]
        b0 = np.zeros((4, 4)) if kind is ObserverKind.I_MOD else AlgebraElement(
            se3, hat_se3([0.2, 0.0, -0.1], [0.0, 0.1, 0.0]))
        # 600 steps in three chunks; a stride of 7 records steps 252 and
        # 259 on either side of the first chunk boundary.
        rec = simulate(SimConfig(
            kind=kind,
            gains=Gains(k_P=10.0, k_I=2.0),
            model=model,
            bias=benchmark_bias,
            initial_observer=ObserverState(measure(model, g_bar, 0.0), b0),
            truth=truth,
            horizon=0.6,
            step=1e-3,
            record_stride=7,
            bounds=BOUNDS,
            lyapunov_epsilon=0.01,
        ))
        assert 600 > 2 * CHUNK_STEPS and len(rec.t) == 600 // 7 + 1
        assert_columns_match_samples(rec)

    def test_near_singular_estimate_rows_are_nan(self, benchmark_truth, benchmark_bias,
                                                 benchmark_F, se3):
        # A_bar(0) has sigma ratio 0.99e-10, just inside the guard, and
        # leaves it within a few steps.
        init = ObserverState(2.0 * np.diag([1.0, 1.0, 1.0, 0.99e-10]), benchmark_bias)
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    kind=ObserverKind.II, initial_observer=init,
                                    horizon=0.01, step=1e-4, record_stride=1))
        errors, _ = per_sample_columns(rec)
        no_g = [bool(np.isnan(err.E_g).all()) for err in errors]
        assert no_g[0] and not all(no_g)
        assert np.isnan(rec.errors_and_V()[0].err_Eg).tolist() == no_g
        assert_columns_match_samples(rec)

    @pytest.mark.parametrize("label", ["II", "IV", "I_tv"])
    def test_columns_by_block_equal_the_whole_record(self, label, benchmark_truth,
                                                     benchmark_bias, benchmark_F, se3):
        # 2,501 rows are two full row blocks and a partial one. Rows with a
        # singular F (left side) or A_bar (right side) have no E_g, and rows
        # with a singular A no script error, in each block.
        kind = ObserverKind.from_label(label)
        model = (rotating_model(kind.side, benchmark_F) if kind.time_varying
                 else MeasurementModel(kind.side, benchmark_F))
        g_bar = np.eye(4)
        g_bar[:3, :3] = mat_exp(hat_so3([0.5, -0.3, 0.2]))
        rec = simulate(short_config(se3, benchmark_truth, benchmark_bias, benchmark_F,
                                    kind=kind, model=model, gains=Gains(k_P=10.0, k_I=2.0),
                                    initial_observer=ObserverState(measure(model, g_bar, 0.0),
                                                                   benchmark_bias),
                                    horizon=0.25, step=1e-4, record_stride=1,
                                    lyapunov_epsilon=0.01))
        assert len(rec.t) == 2501 and len(rec.t) % _ROW_BLOCK
        no_g = [3, _ROW_BLOCK + 5, 2 * _ROW_BLOCK + 7]
        no_script = [10, _ROW_BLOCK, 2500]
        singular = np.diag([1.0, 1.0, 1.0, 0.0])
        A = rec.A.copy()
        A[no_script] = singular
        changed = {"A": A}
        if kind.side == "left":
            changed["F"] = rec.F.copy()
            changed["F"][no_g] = singular
        else:
            changed["A_bar"] = rec.A_bar.copy()
            changed["A_bar"][no_g] = singular
        rec = dataclasses.replace(rec, **changed)
        err, V = rec.errors_and_V()
        assert np.isnan(err.err_Eg).nonzero()[0].tolist() == no_g
        assert np.isnan(err.script_E_A).all(axis=(1, 2)).nonzero()[0].tolist() == no_script
        assert np.isnan(V).any() == kind.uses_inverse
        whole = np.column_stack((rec.t, err.err_EA, err.err_eb, err.err_Eg,
                                 frob_norm(rec.g - project_se3(rec.g - err.E_g)), V))
        assert np.array_equal(_columns(rec), whole, equal_nan=True)
