"""Error metrics, admissibility bounds, Lyapunov diagnostics, rate fits,
and the SE(3) projection."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import paper_field
from lieobs.analysis import (
    ConvergenceFit,
    ErrorSample,
    LyapunovParams,
    _family_params,
    compute_errors,
    epsilon_bound,
    fit_exponential,
    lyapunov_decrease_check,
    lyapunov_value,
    project_se3,
    quadform_rates,
    suggested_epsilon,
)
from lieobs.cli import _ROW_BLOCK, _build_sim_config, load_config
from lieobs.errors import (
    DimensionError,
    DomainError,
    FitError,
    InadmissibleEpsilonError,
)
from lieobs.integrate import SimConfig, simulate
from lieobs.kinematics import (
    Bounds,
    MeasurementModel,
    TruthSample,
    measure,
    se3_benchmark_bias,
    se3_benchmark_truth,
)
from lieobs.liegroup import (
    AlgebraElement,
    algebra_basis_se3,
    algebra_basis_so3,
    hat_se3,
    hat_so3,
)
from lieobs.matcore import frob_norm, mat_exp, mat_inv, singular_extremes
from lieobs.observers import Gains, ObserverKind, ObserverState, gain_floor
from test_groups import SL2

BOUNDS = Bounds(B_xi=3.5, B_b=2.3, L_g=0.5, U_g=2.0)


def benchmark_pose(t):
    return se3_benchmark_truth().state_of(t)[0]


def truth_sample(t, side, f):
    g, xi_mat, _ = se3_benchmark_truth().state_of(t)
    b = se3_benchmark_bias()
    a = measure(MeasurementModel(side, f), g)
    xi, xi_m = AlgebraElement(b.group, xi_mat), AlgebraElement(b.group, xi_mat + b.matrix)
    return TruthSample(t=t, g=g, xi=xi, b=b, xi_m=xi_m, A=a)


def random_twist(rng, scale=1.0):
    return scale * hat_se3(rng.normal(size=3), rng.normal(size=3))


def error_sample(t, e_a, e_b, script=None):
    """An ErrorSample with the given errors, no ``E_g``, and no script
    error unless given: absent errors are NaN."""
    absent = np.full(np.shape(e_a), math.nan)
    return ErrorSample(t, e_a, e_b, absent, absent if script is None else script)


class TestComputeErrors:
    def test_error_free_state(self, benchmark_F):
        truth = truth_sample(0.9, "left", benchmark_F)
        err = compute_errors(
            ObserverKind.I, truth, ObserverState(truth.A, truth.b), benchmark_F
        )
        assert err.err_EA == 0.0
        assert err.err_eb == 0.0
        assert frob_norm(err.E_g) < 1e-12
        assert frob_norm(err.script_E_A) < 1e-12

    def test_left_group_error_formula(self, benchmark_F):
        truth = truth_sample(1.2, "left", benchmark_F)
        rng = np.random.default_rng(60)
        a_bar = truth.A + 0.4 * rng.normal(size=(4, 4))
        err = compute_errors(
            ObserverKind.I, truth, ObserverState(a_bar, truth.b), benchmark_F
        )
        want = truth.g - mat_inv(benchmark_F) @ a_bar
        assert frob_norm(err.E_g - want) < 1e-12

    def test_right_group_error_formula(self, benchmark_F):
        truth = truth_sample(1.2, "right", benchmark_F)
        rng = np.random.default_rng(61)
        a_bar = truth.A + 0.1 * rng.normal(size=(4, 4))
        err = compute_errors(
            ObserverKind.II, truth, ObserverState(a_bar, truth.b), benchmark_F
        )
        want = truth.g - benchmark_F @ mat_inv(a_bar)
        assert frob_norm(err.E_g - want) < 1e-11

    def test_script_error_forms(self, benchmark_F):
        rng = np.random.default_rng(62)
        for side, kind in (("left", ObserverKind.III), ("right", ObserverKind.IV)):
            truth = truth_sample(0.7, side, benchmark_F)
            a_bar = truth.A + 0.2 * rng.normal(size=(4, 4))
            err = compute_errors(kind, truth, ObserverState(a_bar, truth.b), benchmark_F)
            a_inv = mat_inv(truth.A)
            want = (
                np.eye(4) - a_inv @ a_bar if side == "left" else np.eye(4) - a_bar @ a_inv
            )
            assert frob_norm(err.script_E_A - want) < 1e-12

    def test_singular_estimate_suppresses_group_error(self, benchmark_F):
        truth = truth_sample(0.7, "right", benchmark_F)
        err = compute_errors(
            ObserverKind.II, truth, ObserverState(np.zeros((4, 4)), truth.b), benchmark_F
        )
        assert np.isnan(err.E_g).all()
        assert math.isnan(err.err_Eg)
        assert np.isfinite(err.script_E_A).all()

    def test_ill_conditioned_estimate_suppresses_group_error(self, benchmark_F):
        truth = truth_sample(0.7, "right", benchmark_F)
        a_bar = np.diag([1.0, 1.0, 1.0, 1e-12])
        err = compute_errors(
            ObserverKind.II, truth, ObserverState(a_bar, truth.b), benchmark_F
        )
        assert np.isnan(err.E_g).all()

    @pytest.mark.parametrize("s,kept", [(1.01e-10, True), (0.99e-10, False)])
    def test_group_error_threshold_at_cond_1e10(self, benchmark_F, s, kept):
        truth = truth_sample(0.7, "right", benchmark_F)
        a_bar = np.diag([1.0, 1.0, 1.0, s])
        err = compute_errors(
            ObserverKind.II, truth, ObserverState(a_bar, truth.b), benchmark_F
        )
        assert bool(np.isfinite(err.E_g).all()) is kept
        assert bool(np.isnan(err.E_g).all()) is not kept

    def test_velocity_fields_are_optional(self, benchmark_F):
        full = truth_sample(0.7, "right", benchmark_F)
        bare = TruthSample(t=full.t, g=full.g, b=full.b, A=full.A)
        assert bare.xi is None and bare.xi_m is None
        state = ObserverState(np.eye(4), full.b)
        want = compute_errors(ObserverKind.II, full, state, benchmark_F)
        got = compute_errors(ObserverKind.II, bare, state, benchmark_F)
        for name in ("E_A", "e_b", "E_g", "script_E_A"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_singular_measurement_suppresses_script_error(self, benchmark_F):
        full = truth_sample(0.7, "left", benchmark_F)
        truth = TruthSample(t=0.7, g=full.g, xi=full.xi, b=full.b, xi_m=full.xi_m,
                            A=np.zeros((4, 4)))
        err = compute_errors(
            ObserverKind.I, truth, ObserverState(np.eye(4), full.b), benchmark_F
        )
        assert np.isnan(err.script_E_A).all()
        assert np.isfinite(err.E_g).all()

    def test_state_group_error_sandwich(self, benchmark_F):
        # |E_g|/|F^-1| <= |E_A| <= |F| |E_g| on the left side
        rng = np.random.default_rng(63)
        truth = truth_sample(1.5, "left", benchmark_F)
        f_inv_norm = frob_norm(mat_inv(benchmark_F))
        f_norm = frob_norm(benchmark_F)
        for _ in range(25):
            a_bar = truth.A + rng.normal(size=(4, 4))
            err = compute_errors(
                ObserverKind.I, truth, ObserverState(a_bar, truth.b), benchmark_F
            )
            ea, eg = frob_norm(err.E_A), frob_norm(err.E_g)
            assert eg / f_inv_norm <= ea + 1e-9
            assert ea <= f_norm * eg + 1e-9


class TestEpsilonBound:
    def test_left_family_worked_example(self):
        bounds = Bounds(B_xi=1.0, B_b=1.0, L_g=1.0, U_g=1.0)
        h, cap = epsilon_bound(ObserverKind.I, Gains(k_P=4.0, k_I=1.0), bounds, np.eye(3))
        assert h == pytest.approx(8.0 / 159.0, rel=1e-12)
        assert cap == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    def test_floor_gain_gives_zero_h(self):
        bounds = Bounds(B_xi=1.0, B_b=1.0, L_g=1.0, U_g=1.0)
        h, _ = epsilon_bound(ObserverKind.I, Gains(k_P=2.0, k_I=1.0), bounds, np.eye(3))
        assert h == 0.0

    def test_below_floor_gain_gives_negative_h(self):
        bounds = Bounds(B_xi=1.0, B_b=1.0, L_g=1.0, U_g=1.0)
        h, _ = epsilon_bound(ObserverKind.I, Gains(k_P=1.0, k_I=1.0), bounds, np.eye(3))
        assert h < 0.0

    def test_inverse_family_worked_example(self):
        bounds = Bounds(B_xi=2.0, B_b=1.0, L_g=1.0, U_g=1.0)
        h, cap = epsilon_bound(ObserverKind.III, Gains(k_P=10.0, k_I=1.0), bounds, np.eye(4))
        assert h == pytest.approx(20.0 / 229.0, rel=1e-12)
        assert cap == 1.0

    def test_left_cap_structure(self, benchmark_F):
        gains = Gains(k_P=8.0, k_I=0.5)
        _, cap = epsilon_bound(ObserverKind.I, gains, BOUNDS, benchmark_F)
        want = 1.0 / (frob_norm(benchmark_F) * BOUNDS.U_g * math.sqrt(gains.k_I))
        assert cap == pytest.approx(want, rel=1e-12)

    def test_right_cap_structure(self, benchmark_F):
        gains = Gains(k_P=8.0, k_I=0.5)
        _, cap = epsilon_bound(ObserverKind.II, gains, BOUNDS, benchmark_F)
        want = BOUNDS.L_g / (frob_norm(benchmark_F) * math.sqrt(gains.k_I))
        assert cap == pytest.approx(want, rel=1e-12)

    def test_suggested_epsilon_is_half_the_bound(self, benchmark_F):
        gains = Gains(k_P=8.0, k_I=0.5)
        h, cap = epsilon_bound(ObserverKind.I, gains, BOUNDS, benchmark_F)
        assert suggested_epsilon(ObserverKind.I, gains, BOUNDS, benchmark_F) == (
            0.5 * min(h, cap)
        )

    def test_suggested_epsilon_none_below_floor(self, benchmark_F):
        gains = Gains(k_P=1.0, k_I=0.5)
        assert suggested_epsilon(ObserverKind.I, gains, BOUNDS, benchmark_F) is None

    @pytest.mark.parametrize("k_p", [1e200, 1e308])
    @pytest.mark.parametrize("kind", [ObserverKind.II, ObserverKind.IV])
    def test_large_gain_keeps_positive_h(self, kind, k_p):
        # c = k_P + B_b + 2 B_xi squares past the float range, and 4 k_P
        # may too; H is 4 (k_P - a) l2 / (u c)^2 to rounding, not 0
        bounds = Bounds(B_xi=1.0, B_b=1.0, L_g=1.0, U_g=1.0)
        gains = Gains(k_P=k_p, k_I=1.0)
        h, cap = epsilon_bound(kind, gains, bounds, np.eye(4))
        u, l2, a, c = _family_params(kind, gains, bounds, np.eye(4))
        assert h == pytest.approx((k_p - a) / c * 4.0 * l2 / (u * u) / c, rel=1e-12, abs=0)
        assert suggested_epsilon(kind, gains, bounds, np.eye(4)) == 0.5 * min(h, cap)

    def test_h_equals_plain_formula_bit_for_bit(self, benchmark_F):
        rng = np.random.default_rng(70)
        for kind in ObserverKind:
            for _ in range(50):
                k_p, k_i, b_xi, b_b = np.exp(rng.uniform(-3.0, 4.0, size=4))
                bounds = Bounds(B_xi=b_xi, B_b=b_b, L_g=0.5, U_g=2.0)
                gains = Gains(k_P=float(k_p), k_I=float(k_i))
                u, l2, a, c = _family_params(kind, gains, bounds, benchmark_F)
                want = 4.0 * (k_p - a) * l2 / (u * u * (4.0 * k_i * l2 + c * c))
                assert epsilon_bound(kind, gains, bounds, benchmark_F)[0] == want


class TestOneInstantIsAStackRow:
    """Each one-instant call equals the matching row of the stacked call
    bit for bit, NaN positions included."""

    def stacks(self, side, f):
        rng = np.random.default_rng(72)
        truths = [truth_sample(t, side, f) for t in (0.3, 0.9, 1.4, 2.0)]
        a = np.stack([s.A for s in truths])
        a_bar = a + 0.3 * rng.normal(size=a.shape)
        a_bar[1] = np.diag([1.0, 1.0, 1.0, 1e-12])  # no E_g on the right
        a[2] = 0.0  # no script error
        b_bar = np.stack([random_twist(rng) for _ in truths])
        g = np.stack([s.g for s in truths])
        t = np.array([s.t for s in truths])
        return TruthSample(t=t, g=g, b=truths[0].b, A=a), ObserverState(a_bar, b_bar)

    @pytest.mark.parametrize("kind", list(ObserverKind))
    def test_errors_and_lyapunov(self, kind, benchmark_F):
        truth, state = self.stacks(kind.side, benchmark_F)
        err = compute_errors(kind, truth, state, benchmark_F)
        V = lyapunov_value(kind, 0.01, err, truth.A, Gains(k_P=4.0, k_I=0.75))
        assert np.isnan(err.script_E_A[2]).all() and math.isnan(V[2]) == kind.uses_inverse
        assert np.isnan(err.E_g[1]).all() == (kind.side == "right")
        for k in range(len(truth.t)):
            one = compute_errors(
                kind, TruthSample(t=truth.t[k], g=truth.g[k], b=truth.b, A=truth.A[k]),
                ObserverState(state.A_bar[k], state.b_bar[k]), benchmark_F,
            )
            for name in ("E_A", "e_b", "E_g", "script_E_A"):
                assert np.array_equal(getattr(one, name), getattr(err, name)[k], equal_nan=True)
            for name in ("err_EA", "err_eb", "err_Eg"):
                got = getattr(one, name)
                assert isinstance(got, float)
                assert np.array_equal(got, getattr(err, name)[k], equal_nan=True)
            v = lyapunov_value(kind, 0.01, one, truth.A[k], Gains(k_P=4.0, k_I=0.75))
            assert np.array_equal(v, V[k], equal_nan=True)

    def test_project_se3(self):
        rng = np.random.default_rng(73)
        g = np.eye(4) + 0.3 * rng.normal(size=(4, 4, 4))
        g[1, :3, :3] = np.outer([1.0, 0.0, 2.0], [0.0, 1.0, 1.0])
        g[2] = math.nan
        got = project_se3(g)
        assert np.isnan(got[[1, 2]]).all() and np.isfinite(got[[0, 3]]).all()
        for k in range(len(g)):
            assert np.array_equal(project_se3(g[k]), got[k], equal_nan=True)


class TestRowBlocks:
    """A stack longer than two export blocks equals its one-instant calls
    bit for bit, with its NaN rows exactly at the singular members, each
    in an export block of its own."""

    K = 2 * _ROW_BLOCK + 37
    ILL_A_BAR, SINGULAR_A, SINGULAR_A_BAR, SINGULAR_F = 5, _ROW_BLOCK + 3, 2 * _ROW_BLOCK + 1, 700

    def stacks(self):
        rng = np.random.default_rng(74)
        shape = (self.K, 4, 4)
        a = np.eye(4) + 0.3 * rng.normal(size=shape)
        a_bar = a + 0.3 * rng.normal(size=shape)
        a_bar[self.ILL_A_BAR] = np.diag([1.0, 1.0, 1.0, 1e-12])
        a_bar[self.SINGULAR_A_BAR] = 0.0
        a[self.SINGULAR_A] = 0.0
        g = np.eye(4) + 0.1 * rng.normal(size=shape)
        t = np.arange(self.K) * 1e-3
        truth = TruthSample(t=t, g=g, b=se3_benchmark_bias(), A=a)
        return truth, ObserverState(a_bar, 0.5 * rng.normal(size=shape))

    @pytest.mark.parametrize("stacked_F", [False, True], ids=["constant-F", "stacked-F"])
    @pytest.mark.parametrize("kind", [ObserverKind.I, ObserverKind.II, ObserverKind.III,
                                      ObserverKind.IV], ids=lambda k: k.value)
    def test_blocks_equal_one_instant_calls(self, kind, stacked_F, benchmark_F):
        truth, state = self.stacks()
        F = benchmark_F
        if stacked_F:
            F = benchmark_F + 0.1 * np.random.default_rng(75).normal(size=(self.K, 4, 4))
            F[self.SINGULAR_F] = np.diag([1.0, 1.0, 1.0, 0.0])
        gains = Gains(k_P=4.0, k_I=0.75)
        err = compute_errors(kind, truth, state, F)
        V = lyapunov_value(kind, 0.01, err, truth.A, gains)
        names = ("E_A", "e_b", "E_g", "script_E_A")
        one = {name: np.empty((self.K, 4, 4)) for name in names}
        one_V = np.empty(self.K)
        for k in range(self.K):
            sample = compute_errors(
                kind, TruthSample(t=truth.t[k], g=truth.g[k], b=truth.b, A=truth.A[k]),
                ObserverState(state.A_bar[k], state.b_bar[k]), F[k] if stacked_F else F)
            for name in names:
                one[name][k] = getattr(sample, name)
            one_V[k] = lyapunov_value(kind, 0.01, sample, truth.A[k], gains)
        for name in names:
            assert np.array_equal(getattr(err, name), one[name], equal_nan=True), name
        assert np.array_equal(V, one_V, equal_nan=True)
        if kind.side == "right":
            no_g = [self.ILL_A_BAR, self.SINGULAR_A_BAR]
        else:
            no_g = [self.SINGULAR_F] if stacked_F else []
        assert np.flatnonzero(np.isnan(err.E_g).any(axis=(1, 2))).tolist() == no_g
        assert np.isnan(err.E_g[no_g]).all()
        assert np.flatnonzero(np.isnan(err.script_E_A).any(axis=(1, 2))).tolist() == [
            self.SINGULAR_A]
        assert np.flatnonzero(np.isnan(V)).tolist() == (
            [self.SINGULAR_A] if kind.uses_inverse else [])


class TestLyapunovValue:
    GAINS = Gains(k_P=4.0, k_I=0.75)

    def test_zero_errors(self, benchmark_F):
        err = error_sample(0.0, np.zeros((4, 4)), np.zeros((4, 4)))
        v = lyapunov_value(ObserverKind.I, 0.02, err, benchmark_F, self.GAINS)
        assert v == 0.0

    def test_epsilon_zero_decouples(self, benchmark_F):
        rng = np.random.default_rng(64)
        e_a = rng.normal(size=(4, 4))
        e_b = random_twist(rng)
        err = error_sample(0.0, e_a, e_b)
        v = lyapunov_value(ObserverKind.I, 0.0, err, benchmark_F, self.GAINS)
        want = 0.5 * frob_norm(e_a) ** 2 + frob_norm(e_b) ** 2 / (2.0 * self.GAINS.k_I)
        assert v == pytest.approx(want, rel=1e-12)

    def test_left_cross_term_sign(self, benchmark_F):
        rng = np.random.default_rng(65)
        a = measure(MeasurementModel("left", benchmark_F), benchmark_pose(0.4))
        e_a = rng.normal(size=(4, 4))
        e_b = random_twist(rng)
        err = error_sample(0.0, e_a, e_b)
        eps = 0.01
        v = lyapunov_value(ObserverKind.I, eps, err, a, self.GAINS)
        base = lyapunov_value(ObserverKind.I, 0.0, err, a, self.GAINS)
        assert v - base == pytest.approx(eps * np.vdot(e_a, a @ e_b), rel=1e-10)

    def test_right_cross_term_sign(self, benchmark_F):
        rng = np.random.default_rng(66)
        a = measure(MeasurementModel("right", benchmark_F), benchmark_pose(0.4))
        e_a = rng.normal(size=(4, 4))
        e_b = random_twist(rng)
        err = error_sample(0.0, e_a, e_b)
        eps = 0.01
        v = lyapunov_value(ObserverKind.II, eps, err, a, self.GAINS)
        base = lyapunov_value(ObserverKind.II, 0.0, err, a, self.GAINS)
        assert v - base == pytest.approx(-eps * np.vdot(e_a, e_b @ a), rel=1e-10)

    def test_inverse_family_cross_terms(self, benchmark_F):
        rng = np.random.default_rng(67)
        script = rng.normal(size=(4, 4))
        e_b = random_twist(rng)
        err = error_sample(0.0, np.zeros((4, 4)), e_b, script)
        eps = 0.05
        cross = np.vdot(script, e_b)
        base = 0.5 * frob_norm(script) ** 2 + frob_norm(e_b) ** 2 / (2.0 * self.GAINS.k_I)
        v3 = lyapunov_value(ObserverKind.III, eps, err, np.eye(4), self.GAINS)
        v4 = lyapunov_value(ObserverKind.IV, eps, err, np.eye(4), self.GAINS)
        assert v3 == pytest.approx(base + eps * cross, rel=1e-12)
        assert v4 == pytest.approx(base - eps * cross, rel=1e-12)

    def test_inverse_family_needs_script_error(self, benchmark_F):
        # without the script error (A singular) the value is NaN
        err = error_sample(0.0, np.zeros((4, 4)), np.zeros((4, 4)))
        for kind in (ObserverKind.III, ObserverKind.IV):
            assert math.isnan(lyapunov_value(kind, 0.01, err, benchmark_F, self.GAINS))

    @pytest.mark.parametrize("kind,side", [
        (ObserverKind.I, "left"),
        (ObserverKind.II, "right"),
    ])
    def test_sandwich_between_quadratic_forms(self, kind, side, benchmark_bounds,
                                              benchmark_F):
        gains = Gains(k_P=7.0, k_I=1.0)
        eps = suggested_epsilon(kind, gains, benchmark_bounds, benchmark_F)
        assert eps is not None
        u, _, _, _ = _family_params(kind, gains, benchmark_bounds, benchmark_F)
        rng = np.random.default_rng(68)
        r = 1.0 / (2.0 * gains.k_I)
        for _ in range(1000):
            t = float(rng.uniform(0.0, 30.0))
            a = measure(MeasurementModel(side, benchmark_F), benchmark_pose(t))
            e_a = rng.normal(size=(4, 4)) * rng.uniform(0.1, 3.0)
            e_b = random_twist(rng, scale=rng.uniform(0.1, 3.0))
            err = error_sample(t, e_a, e_b)
            v = lyapunov_value(kind, eps, err, a, gains)
            x1, x2 = frob_norm(e_a), frob_norm(e_b)
            v1 = 0.5 * x1 * x1 + r * x2 * x2 - eps * u * x1 * x2
            v2 = 0.5 * x1 * x1 + r * x2 * x2 + eps * u * x1 * x2
            assert v1 - 1e-10 <= v <= v2 + 1e-10

    def test_positivity_under_admissible_epsilon(self, benchmark_bounds, benchmark_F):
        gains = Gains(k_P=7.0, k_I=1.0)
        eps = suggested_epsilon(ObserverKind.I, gains, benchmark_bounds, benchmark_F)
        rng = np.random.default_rng(69)
        a = measure(MeasurementModel("left", benchmark_F), benchmark_pose(2.2))
        for _ in range(1000):
            e_a = rng.normal(size=(4, 4)) * rng.uniform(0.01, 2.0)
            e_b = random_twist(rng, scale=rng.uniform(0.01, 2.0))
            err = error_sample(0.0, e_a, e_b)
            assert lyapunov_value(ObserverKind.I, eps, err, a, gains) > 0.0


class TestQuadformRates:
    BOUNDS_EX = Bounds(B_xi=1.0, B_b=1.0, L_g=1.0, U_g=1.0)
    GAINS_EX = Gains(k_P=4.0, k_I=1.0)

    def test_epsilon_zero_collapses(self):
        params = quadform_rates(ObserverKind.I, 0.0, self.GAINS_EX, self.BOUNDS_EX, np.eye(3))
        assert params.alpha == 1.0
        assert params.beta == 0.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(InadmissibleEpsilonError):
            quadform_rates(ObserverKind.I, -0.01, self.GAINS_EX, self.BOUNDS_EX, np.eye(3))

    def test_above_bound_rejected(self):
        h, cap = epsilon_bound(ObserverKind.I, self.GAINS_EX, self.BOUNDS_EX, np.eye(3))
        with pytest.raises(InadmissibleEpsilonError):
            quadform_rates(
                ObserverKind.I, 1.01 * min(h, cap), self.GAINS_EX, self.BOUNDS_EX, np.eye(3)
            )

    def test_epsilon_at_the_positivity_cap_rejected(self):
        # H = cap = 1 here, and epsilon = 1 makes the V1 form semidefinite.
        with pytest.raises(InadmissibleEpsilonError, match="reaches the positivity cap"):
            quadform_rates(ObserverKind.III, 1.0, Gains(2.0, 1.0),
                           Bounds(0.0, 0.0, 1.0, 1.0), np.eye(4))

    def test_boundary_epsilon_allowed(self):
        h, cap = epsilon_bound(ObserverKind.I, self.GAINS_EX, self.BOUNDS_EX, np.eye(3))
        params = quadform_rates(
            ObserverKind.I, min(h, cap), self.GAINS_EX, self.BOUNDS_EX, np.eye(3)
        )
        assert params.beta >= 0.0

    def test_h_echoes_bound(self):
        h, _ = epsilon_bound(ObserverKind.I, self.GAINS_EX, self.BOUNDS_EX, np.eye(3))
        params = quadform_rates(ObserverKind.I, 0.02, self.GAINS_EX, self.BOUNDS_EX, np.eye(3))
        assert params.H == h

    def test_positive_rates_inside_interval(self):
        eps = suggested_epsilon(ObserverKind.I, self.GAINS_EX, self.BOUNDS_EX, np.eye(3))
        params = quadform_rates(ObserverKind.I, eps, self.GAINS_EX, self.BOUNDS_EX, np.eye(3))
        assert params.alpha > 1.0
        assert params.beta > 0.0

    def test_form_dominations_on_random_points(self):
        gains, bounds, f = self.GAINS_EX, self.BOUNDS_EX, np.eye(3)
        eps = suggested_epsilon(ObserverKind.I, gains, bounds, f)
        params = quadform_rates(ObserverKind.I, eps, gains, bounds, f)
        u, l2, a, c = _family_params(ObserverKind.I, gains, bounds, f)
        q = 0.5 * eps * u
        r = 1.0 / (2.0 * gains.k_I)
        m1 = np.array([[0.5, -q], [-q, r]])
        m2 = np.array([[0.5, q], [q, r]])
        m3 = np.array(
            [
                [gains.k_P - a - eps * gains.k_I * u * u, -0.5 * eps * u * c],
                [-0.5 * eps * u * c, eps * l2],
            ]
        )
        rng = np.random.default_rng(70)
        for _ in range(100):
            x = rng.normal(size=2)
            v1, v2, v3 = x @ m1 @ x, x @ m2 @ x, x @ m3 @ x
            assert v2 <= params.alpha * v1 + 1e-10
            assert params.beta * v2 <= v3 + 1e-10

    def test_rates_match_dense_eigensolver(self):
        # closed-form 2x2 generalized eigenvalues against numpy's dense
        # solver on the explicitly built pencils
        gains, bounds, f = self.GAINS_EX, self.BOUNDS_EX, np.eye(3)
        eps = suggested_epsilon(ObserverKind.I, gains, bounds, f)
        params = quadform_rates(ObserverKind.I, eps, gains, bounds, f)
        u, l2, a, c = _family_params(ObserverKind.I, gains, bounds, f)
        q = 0.5 * eps * u
        r = 1.0 / (2.0 * gains.k_I)
        m1 = np.array([[0.5, -q], [-q, r]])
        m2 = np.array([[0.5, q], [q, r]])
        m3 = np.array(
            [
                [gains.k_P - a - eps * gains.k_I * u * u, -0.5 * eps * u * c],
                [-0.5 * eps * u * c, eps * l2],
            ]
        )
        alpha_dense = float(np.max(np.real(np.linalg.eigvals(np.linalg.inv(m1) @ m2))))
        beta_dense = float(np.min(np.real(np.linalg.eigvals(np.linalg.inv(m2) @ m3))))
        assert params.alpha == pytest.approx(alpha_dense, rel=1e-10)
        assert params.beta == pytest.approx(beta_dense, rel=1e-10)


class TestFitExponential:
    def test_pure_exponential(self):
        ts = np.arange(0.0, 3.0, 0.01)
        series = [(t, 3.0 * math.exp(-2.0 * t)) for t in ts]
        fit = fit_exponential(series, (0.0, 3.0))
        assert fit.C == pytest.approx(3.0, abs=1e-6)
        assert fit.a == pytest.approx(2.0, abs=1e-6)
        assert fit.residual < 1e-10

    def test_constant_series(self):
        series = [(t, 5.0) for t in np.arange(0.0, 2.0, 0.05)]
        fit = fit_exponential(series, (0.0, 2.0))
        assert fit.a == pytest.approx(0.0, abs=1e-12)
        assert fit.C == pytest.approx(5.0, rel=1e-12)

    def test_window_excludes_noise_floor(self):
        ts = np.arange(0.0, 20.0, 0.01)
        series = [(t, 3.0 * math.exp(-2.0 * t) + 1e-12) for t in ts]
        fit = fit_exponential(series, (0.0, 5.0))
        assert fit.a == pytest.approx(2.0, abs=1e-3)
        assert fit.window == (0.0, 5.0)

    def test_validity_floor_masks_dead_samples(self):
        ts = np.arange(0.0, 20.0, 0.01)
        raw = [3.0 * math.exp(-2.0 * t) for t in ts]
        series = [(t, v if v > 1e-13 else 0.0) for t, v in zip(ts, raw)]
        fit = fit_exponential(series, (0.0, 20.0))
        assert fit.a == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_sample_is_dropped(self, bad):
        ts = np.arange(0.0, 1.0, 0.05)
        series = np.column_stack((ts, 3.0 * np.exp(-2.0 * ts) * (1.0 + 0.01 * np.sin(7 * ts))))
        with_bad = series.copy()
        with_bad[4, 1] = bad
        assert fit_exponential(with_bad, (0.0, 1.0)) == fit_exponential(
            np.delete(series, 4, axis=0), (0.0, 1.0))

    def test_too_few_samples(self):
        series = [(t, math.exp(-t)) for t in np.arange(0.0, 0.09, 0.01)]
        with pytest.raises(FitError):
            fit_exponential(series, (0.0, 1.0))

    def test_empty_window(self):
        series = [(t, math.exp(-t)) for t in np.arange(0.0, 2.0, 0.01)]
        with pytest.raises(FitError):
            fit_exponential(series, (10.0, 11.0))

    def test_bad_window_rejected(self):
        series = [(t, 1.0) for t in np.arange(0.0, 2.0, 0.01)]
        with pytest.raises(DomainError):
            fit_exponential(series, (1.0, 1.0))

    def test_bad_series_shape_rejected(self):
        with pytest.raises(DimensionError):
            fit_exponential([1.0, 2.0, 3.0], (0.0, 1.0))


class TestProjectSe3:
    def test_fixes_group_members(self):
        for t in (0.0, 0.8, 2.3):
            g = benchmark_pose(t)
            assert frob_norm(project_se3(g) - g) < 1e-12

    def test_strips_rotation_scale(self):
        r = mat_exp(hat_so3([0.2, -0.5, 1.0]))
        g = np.eye(4)
        g[:3, :3] = 1.1 * r
        g[:3, 3] = [1.0, 2.0, 3.0]
        got = project_se3(g)
        assert frob_norm(got[:3, :3] - r) < 1e-12
        assert np.array_equal(got[:3, 3], np.array([1.0, 2.0, 3.0]))

    def test_restores_homogeneous_row(self):
        g = benchmark_pose(1.0).copy()
        g[3, :] = [0.1, -0.2, 0.3, 0.9]
        got = project_se3(g)
        assert np.array_equal(got[3, :], np.array([0.0, 0.0, 0.0, 1.0]))

    def test_output_is_rigid(self):
        rng = np.random.default_rng(71)
        m = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
        got = project_se3(m)
        r = got[:3, :3]
        assert frob_norm(r.T @ r - np.eye(3)) < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionError):
            project_se3(np.eye(3))

    def test_degenerate_block_is_nan(self):
        g = np.zeros((4, 4))
        g[3, 3] = 1.0
        assert np.isnan(project_se3(g)).all()
        g = np.eye(4)
        g[0, 1] = math.nan
        assert np.isnan(project_se3(g)).all()


def synthetic_record(vs, x1_0=0.0, x2_0=0.0):
    """``(errors, V)`` as ``SimRecord.errors_and_V`` returns them, with
    prescribed V values and first-sample error norms."""
    k = len(vs)
    e_a = np.zeros((k, 4, 4))
    e_b = np.zeros((k, 4, 4))
    if k:
        e_a[0, 0, 1] = x1_0
        e_b[0, 0, 3] = x2_0
    return error_sample(0.1 * np.arange(k), e_a, e_b), np.array(vs, dtype=float)


class TestLyapunovDecreaseCheck:
    GAINS = Gains(k_P=4.0, k_I=1.0)

    def params(self, eps=0.0, alpha=1.0, beta=0.0):
        return LyapunovParams(epsilon=eps, H=1.0, alpha=alpha, beta=beta)

    def test_monotone_sequence(self):
        rec = synthetic_record([1.0, 0.5, 0.25, 0.125], x1_0=math.sqrt(2.0))
        rep = lyapunov_decrease_check(
            *rec, self.params(), ObserverKind.I, self.GAINS, BOUNDS, np.eye(4)
        )
        assert rep.monotone_fraction == 1.0
        assert rep.max_violation == 0.0
        assert rep.n_samples == 4

    def test_single_violation_detected(self):
        rec = synthetic_record([1.0, 0.5, 0.7, 0.2], x1_0=math.sqrt(2.0))
        rep = lyapunov_decrease_check(
            *rec, self.params(), ObserverKind.I, self.GAINS, BOUNDS, np.eye(4)
        )
        assert rep.monotone_fraction == pytest.approx(2.0 / 3.0)
        assert rep.max_violation == pytest.approx(0.2, abs=1e-8)

    def test_envelope_failure_reported_not_raised(self):
        # V exceeds alpha V1(0) from the start; diagnostic only
        rec = synthetic_record([1.0, 1.0, 1.0], x1_0=0.1)
        rep = lyapunov_decrease_check(
            *rec, self.params(), ObserverKind.I, self.GAINS, BOUNDS, np.eye(4)
        )
        assert not rep.envelope_ok
        assert rep.max_envelope_excess > 0.0

    def test_one_sample_is_monotone(self):
        rec = synthetic_record([0.5], x1_0=1.0)
        rep = lyapunov_decrease_check(
            *rec, self.params(), ObserverKind.I, self.GAINS, BOUNDS, np.eye(4)
        )
        assert rep.monotone_fraction == 1.0
        assert rep.max_violation == 0.0
        assert rep.n_samples == 1

    def test_stationary_zero_run(self):
        rec = synthetic_record([0.0, 0.0, 0.0])
        rep = lyapunov_decrease_check(
            *rec, self.params(), ObserverKind.I, self.GAINS, BOUNDS, np.eye(4)
        )
        assert rep.monotone_fraction == 1.0
        assert rep.envelope_ok

    def test_missing_v_rejected(self):
        rec = synthetic_record([1.0, math.nan])
        with pytest.raises(DomainError):
            lyapunov_decrease_check(
                *rec, self.params(), ObserverKind.I, self.GAINS, BOUNDS, np.eye(4)
            )

    def test_empty_record_rejected(self):
        rec = synthetic_record([])
        with pytest.raises(DomainError, match="no samples"):
            lyapunov_decrease_check(
                *rec, self.params(), ObserverKind.I, self.GAINS, BOUNDS, np.eye(4)
            )

    def test_one_instant_rejected(self):
        errors, V = synthetic_record([1.0, 0.5], x1_0=1.0)
        one = ErrorSample(0.0, *(getattr(errors, name)[0]
                                 for name in ("E_A", "e_b", "E_g", "script_E_A")))
        with pytest.raises(DimensionError):
            lyapunov_decrease_check(
                one, V[:1], self.params(), ObserverKind.I, self.GAINS, BOUNDS, np.eye(4)
            )

    @pytest.mark.parametrize("V", [[1.0], [1.0, 0.5, 0.25], [[1.0, 0.5]]])
    def test_V_of_another_length_rejected(self, V):
        errors, _ = synthetic_record([1.0, 0.5], x1_0=1.0)
        with pytest.raises(DimensionError):
            lyapunov_decrease_check(
                errors, np.array(V), self.params(), ObserverKind.I, self.GAINS, BOUNDS,
                np.eye(4)
            )

    def test_inf_to_inf_is_no_rise(self):
        rep = lyapunov_decrease_check(
            *synthetic_record([math.inf, math.inf, 1.0], x1_0=1.0), self.params(),
            ObserverKind.I, self.GAINS, BOUNDS, np.eye(4)
        )
        assert rep.monotone_fraction == 1.0
        assert rep.max_violation == 0.0

    def test_finite_to_inf_is_an_infinite_violation(self):
        rep = lyapunov_decrease_check(
            *synthetic_record([1.0, math.inf], x1_0=1.0), self.params(),
            ObserverKind.I, self.GAINS, BOUNDS, np.eye(4)
        )
        assert rep.monotone_fraction == 0.0
        assert rep.max_violation == math.inf
        assert not rep.envelope_ok and rep.max_envelope_excess == math.inf

    def underflowing_envelope(self, V=None):
        """The report on E_A[0, 0] = 1e300 exp(-3 t), t = 0 .. 0.9, with
        beta = 1000, under warnings as errors: V1(0) = 5e599 overflows, and
        exp(-beta t) underflows to 0 from t = 0.8, where the envelope is
        5e599 exp(-800), about 1.8e252. ``V`` defaults to lyapunov_value's."""
        t = 0.1 * np.arange(10)
        e_a = np.zeros((10, 4, 4))
        e_a[:, 0, 0] = 1e300 * np.exp(-3.0 * t)
        errors = error_sample(t, e_a, np.zeros((10, 4, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if V is None:
                V = lyapunov_value(ObserverKind.I, 0.0, errors, np.eye(4), self.GAINS)
            return lyapunov_decrease_check(errors, V, self.params(beta=1000.0),
                                           ObserverKind.I, self.GAINS, BOUNDS, np.eye(4))

    def test_overflowed_V1_meets_underflowed_decay(self):
        # V is +inf on every row, above the finite envelope at t = 0.8 and 0.9
        rep = self.underflowing_envelope()
        assert not any(map(math.isnan, dataclasses.astuple(rep)))
        assert not rep.envelope_ok and rep.max_envelope_excess == math.inf

    def test_envelope_in_log_domain_admits_small_V(self):
        # V is +inf at t = 0 only, where the envelope is +inf too
        rep = self.underflowing_envelope(np.array([math.inf] + [1e-300] * 9))
        assert rep.envelope_ok and rep.max_envelope_excess == 0.0

    def test_envelope_of_an_ordinary_run_is_the_linear_product(self):
        # No row loses its envelope, so no row goes through the log domain.
        x1, t = 1.5, 0.1 * np.arange(4)
        V = 0.5 * x1 * x1 * np.exp(-2.0 * t)
        rep = lyapunov_decrease_check(
            *synthetic_record(V, x1_0=x1), self.params(alpha=1.0, beta=1.0),
            ObserverKind.I, self.GAINS, BOUNDS, np.eye(4)
        )
        env = 1.0 * (0.5 * x1 * x1) * np.exp(-1.0 * t) * (1.0 + 1e-6)
        assert rep.max_envelope_excess == np.max(V - env)

    def test_run_with_overflowing_V_reports_no_nan(self):
        # lyapunov_value documents +inf where the quadratic part overflows;
        # a huge initial A_bar gives it on every row, and V1(0) overflows
        cfg = load_config("se3-observer2")
        cfg.update(horizon=0.01, record_stride=1, gains={"k_P": 10.0, "k_I": 0.75},
                   bounds={"B_xi": 3.5, "B_b": 2.3, "L_g": 0.5, "U_g": 2.0},
                   initial_observer={"A_bar": np.diag([1e300, 1.0, 1.0, 1.0]).tolist(),
                                     "b_bar": {"omega": [0.0] * 3, "v": [0.0] * 3}})
        rec = simulate(_build_sim_config(cfg)[0])
        errors, V = rec.errors_and_V()
        assert np.isposinf(V).all()
        kind, gains, bounds, F = rec.config.kind, rec.config.gains, rec.bounds, rec.config.model.F
        params = quadform_rates(kind, rec.epsilon, gains, bounds, F)
        rep = lyapunov_decrease_check(errors, V, params, kind, gains, bounds, F)
        assert not any(map(math.isnan, dataclasses.astuple(rep)))
        assert rep.monotone_fraction == 1.0 and rep.max_violation == 0.0
        assert rep.envelope_ok and rep.max_envelope_excess == 0.0


class TestCertifiedDecayAlongRun:
    """Short gain-satisfying run: V must decrease and obey the step bound."""

    def run(self, benchmark_truth, benchmark_bias, benchmark_F):
        gains = Gains(k_P=6.4, k_I=1.0)
        eps = suggested_epsilon(ObserverKind.I, gains, BOUNDS, benchmark_F)
        g0, _, _ = benchmark_truth.state_of(0.0)
        offset = np.eye(4)
        offset[:3, :3] = mat_exp(hat_so3([0.6, 0.0, 0.0]))
        zero = AlgebraElement(algebra_basis_se3(), np.zeros((4, 4)))
        cfg = SimConfig(
            kind=ObserverKind.I,
            gains=gains,
            model=MeasurementModel("left", benchmark_F),
            bias=benchmark_bias,
            initial_observer=ObserverState(benchmark_F @ g0 @ offset, zero),
            truth=benchmark_truth,
            horizon=5.0,
            step=1e-3,
            record_stride=10,
            bounds=BOUNDS,
            lyapunov_epsilon=eps,
        )
        return simulate(cfg), gains, eps

    def test_monotone_and_enveloped(self, benchmark_truth, benchmark_bias, benchmark_F):
        rec, gains, eps = self.run(benchmark_truth, benchmark_bias, benchmark_F)
        params = quadform_rates(ObserverKind.I, eps, gains, BOUNDS, benchmark_F)
        rep = lyapunov_decrease_check(
            *rec.errors_and_V(), params, ObserverKind.I, gains, BOUNDS, benchmark_F
        )
        assert rep.monotone_fraction == 1.0
        assert rep.max_violation == 0.0
        assert rep.envelope_ok

    def test_decay_rate_dominates_quadratic_form(self, benchmark_truth,
                                                 benchmark_bias, benchmark_F):
        # white box: between consecutive samples the mean slope of V must
        # fall below -V3 evaluated at the step's start, up to a margin for
        # the variation of V3 across the step
        rec, gains, eps = self.run(benchmark_truth, benchmark_bias, benchmark_F)
        u, l2, a, c = _family_params(ObserverKind.I, gains, BOUNDS, benchmark_F)
        m3 = np.array(
            [
                [gains.k_P - a - eps * gains.k_I * u * u, -0.5 * eps * u * c],
                [-0.5 * eps * u * c, eps * l2],
            ]
        )
        err, V = rec.errors_and_V()
        # the steps before the first whose start has V < 1e-12
        checked = int(np.argmax(np.append(V[:-1] < 1e-12, True)))
        x = np.stack((err.err_EA, err.err_eb), axis=1)[:checked]
        v3 = np.einsum("ki,ij,kj->k", x, m3, x)
        slope = (np.diff(V) / np.diff(rec.t))[:checked]
        assert (slope <= -0.8 * v3 + 1e-9).all()
        assert checked > 100


# One instant of the truth and the estimate, for the pointwise certificate:
# a group and a kind, coordinates of the pose, velocity, bias and errors,
# their sizes over many decades, bounds that hold the truth with a drawn slack,
# gains a drawn margin above the floor, and epsilon a drawn fraction of
# min(H, cap). The time-varying kinds read a drawn F(t) and Fdot(t), Fdot
# over many decades too, the others a constant F.
GROUPS = {"SO(3)": algebra_basis_so3(), "SE(3)": algebra_basis_se3(), "SL(2)": SL2}
COORDS = st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16)
SLACK = st.floats(0.0, 1.0)
INSTANTS = st.fixed_dictionaries({
    "group": st.sampled_from(list(GROUPS)),
    "kind": st.sampled_from([kind.value for kind in ObserverKind]),
    "pose": COORDS,
    "xi": st.tuples(COORDS, st.floats(0.0, 5.0)),
    "b": st.tuples(COORDS, st.floats(0.0, 3.0)),
    "F": st.tuples(COORDS, st.floats(-1.0, 1.0)),
    "F_dot": st.tuples(COORDS, st.floats(-3.0, 3.0)),
    "E": st.tuples(COORDS, st.floats(-4.0, 4.0)),
    "e_b": st.tuples(COORDS, st.floats(-4.0, 4.0)),
    "slack": st.tuples(SLACK, SLACK, SLACK, SLACK),
    "k_P_margin": st.floats(1e-3, 20.0),
    "k_I": st.floats(0.05, 20.0),
    "epsilon_fraction": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
})

# The instant at which the coded template, whose c has no term in Fdot,
# fails for II_tv: F = I, g a rotation by 2 rad, xi = b = 0, Fdot = 10 at
# one off-diagonal entry, and E and e_b each one unit coordinate.
_ZERO, _UNIT = [0.0] * 16, [0.0, 1.0] + [0.0] * 14
FAST_F_INSTANT = {
    "group": "SO(3)", "kind": "II_tv", "pose": [0.0, -1.0] + [0.0] * 14,
    "xi": (_ZERO, 0.0), "b": (_ZERO, 0.0), "F": (_ZERO, 0.0), "F_dot": (_UNIT, 1.0),
    "E": (_UNIT, 0.0), "e_b": (_UNIT, 0.0), "slack": (0.0, 0.0, 0.0, 0.0),
    "k_P_margin": 1.0, "k_I": 1.0, "epsilon_fraction": 0.5,
}


def _inner(x, y):
    return float(np.sum(x * y))


def lyapunov_rate(kind, group, gains, epsilon, A, A_dot, A_bar, b, b_bar, xi, F, F_dot):
    """``(V, dV/dt, size, x1, x2)`` at one state: V as the docstring of
    ``lyapunov_value`` states it, and its exact time derivative along
    ``paper_field`` and the truth's ``dA/dt``, by the chain rule. ``size``
    bounds the terms of dV/dt, x1 is the state error's norm (the script
    error's for the inverse kinds) and x2 the bias error's."""
    d_a, d_b = paper_field(kind, group, gains.k_P, gains.k_I, A, A_bar, b_bar, xi + b,
                           F, F_dot)
    E, E_dot = A - A_bar, A_dot - d_a
    e_b, e_b_dot = b - b_bar, -d_b
    if kind.uses_inverse:
        # The script error I - A^-1 A_bar (left) or I - A_bar A^-1 (right),
        # formed from E so that it keeps its relative accuracy, as E does.
        A_inv = mat_inv(A)
        if kind.side == "left":
            x = A_inv @ E
            x_dot = A_inv @ E_dot - A_inv @ A_dot @ x
        else:
            x = E @ A_inv
            x_dot = E_dot @ A_inv - x @ A_dot @ A_inv
        sign = 1.0 if kind is ObserverKind.III else -1.0
        cross, cross_dot = _inner(x, e_b), _inner(x_dot, e_b) + _inner(x, e_b_dot)
    elif kind.side == "left":
        x, x_dot, sign = E, E_dot, 1.0
        cross = _inner(E, A @ e_b)
        cross_dot = _inner(E_dot, A @ e_b) + _inner(E, A_dot @ e_b + A @ e_b_dot)
    else:
        x, x_dot, sign = E, E_dot, -1.0
        cross = _inner(E, e_b @ A)
        cross_dot = _inner(E_dot, e_b @ A) + _inner(E, e_b_dot @ A + e_b @ A_dot)
    V = 0.5 * _inner(x, x) + _inner(e_b, e_b) / (2.0 * gains.k_I) + sign * epsilon * cross
    dV = _inner(x, x_dot) + _inner(e_b, e_b_dot) / gains.k_I + sign * epsilon * cross_dot
    # The rounding of dV is relative to the size of its terms. dE/dt is the
    # difference of dA/dt and the field's d_a, and rounds relative to them.
    rate = frob_norm(A_dot) + frob_norm(d_a)
    if kind.uses_inverse:
        rate = (rate + frob_norm(x) * frob_norm(A_dot)) * frob_norm(A_inv)
    x1, x2, rate_b = frob_norm(x), frob_norm(e_b), frob_norm(e_b_dot)
    size = (x1 * rate + x2 * rate_b / gains.k_I
            + epsilon * (rate * x2 + x1 * rate_b + x1 * x2 * frob_norm(A_dot))
            * max(1.0, frob_norm(A)))
    return V, dV, size, x1, x2


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(draw=INSTANTS)
@example(draw=FAST_F_INSTANT)
def test_lyapunov_rate_is_below_minus_V3_pointwise(draw):
    """The certificate's dV/dt <= -V3 at drawn instants whose truth lies
    inside the bounds, for every kind on SO(3), SE(3) and SL(2), with
    dV/dt taken exactly along the paper's vector field.

    The template bounds the rate of ``A`` through ``B_xi`` alone. A
    time-varying ``F`` adds ``A F^-1 Fdot`` (right) or ``Fdot F^-1 A``
    (left) to ``dA/dt``: the feed-through cancels it in ``dE/dt``, but
    not in the derivative of V's cross term, where it adds at most
    ``epsilon u |F^-1 Fdot| x1 x2``. So V3 here takes ``c`` raised by
    that factor's norm, which is zero for a constant ``F``. With the
    coded ``c``, II_tv at :data:`FAST_F_INSTANT` has dV/dt = -0.14
    against -V3 = -0.50."""
    kind, group = ObserverKind.from_label(draw["kind"]), GROUPS[draw["group"]]
    n = group.ambient_n

    def tangent(coords, scale=1.0):
        return scale * np.tensordot(coords[:group.algebra_dim], group.basis, 1)

    def ambient(coords, scale=1.0):
        return scale * np.reshape(coords[:n * n], (n, n))

    g = mat_exp(tangent(draw["pose"], 2.0))
    xi, b = tangent(*draw["xi"]), tangent(*draw["b"])
    F = 10.0 ** draw["F"][1] * mat_exp(ambient(draw["F"][0], 0.5))
    F_dot = (ambient(draw["F_dot"][0], 10.0 ** draw["F_dot"][1]) if kind.time_varying
             else np.zeros((n, n)))
    smin, smax = singular_extremes(g)
    s_xi, s_b, s_l, s_u = draw["slack"]
    bounds = Bounds(B_xi=frob_norm(xi) * (1.0 + s_xi), B_b=frob_norm(b) * (1.0 + s_b),
                    L_g=smin / (1.0 + s_l), U_g=smax * (1.0 + s_u))
    gains = Gains(k_P=gain_floor(kind, bounds) + draw["k_P_margin"], k_I=draw["k_I"])
    H, cap = epsilon_bound(kind, gains, bounds, F)
    epsilon = draw["epsilon_fraction"] * min(H, cap)

    # The truth's measurement and its rate: A = F g with dg/dt = g xi on
    # the left, A = g^-1 F on the right.
    if kind.side == "left":
        A, A_dot = F @ g, F_dot @ g + F @ g @ xi
    else:
        A = mat_inv(g) @ F
        A_dot = -xi @ A + mat_inv(g) @ F_dot
    # The drawn state error is the one V reads: E = A - A_bar, or the
    # script error I - A^-1 A_bar (left) or I - A_bar A^-1 (right).
    x = ambient(draw["E"][0], 10.0 ** draw["E"][1])
    if not kind.uses_inverse:
        A_bar = A - x
    elif kind.side == "left":
        A_bar = A - A @ x
    else:
        A_bar = A - x @ A
    e_b = (tangent if kind.projected_bias else ambient)(draw["e_b"][0], 10.0 ** draw["e_b"][1])
    b_bar = b - e_b
    V, dV, size, x1, x2 = lyapunov_rate(kind, group, gains, epsilon, A, A_dot, A_bar, b,
                                        b_bar, xi, F, F_dot)

    bias = AlgebraElement(group, b)
    errors = compute_errors(kind, TruthSample(t=0.0, g=g, b=bias, A=A),
                            ObserverState(A_bar, b_bar if kind is ObserverKind.I_MOD
                                          else AlgebraElement(group, b_bar)), F)
    # The library forms the script error as I - A^-1 A_bar, which rounds
    # by up to about 1e-16 |A^-1| |A_bar| whatever its size.
    rounding = 1e-13 * frob_norm(mat_inv(A)) * frob_norm(A_bar) if kind.uses_inverse else 0.0
    assert lyapunov_value(kind, epsilon, errors, A, gains) == pytest.approx(
        V, rel=1e-9, abs=rounding * (x1 + rounding + epsilon * x2) + 1e-300)
    u, l2, a, c = _family_params(kind, gains, bounds, F)
    # The term in Fdot that the coded c lacks (see the docstring).
    c += frob_norm(F_dot @ mat_inv(F) if kind.side == "left" else mat_inv(F) @ F_dot)
    m3 = np.array([[gains.k_P - a - epsilon * gains.k_I * u * u, -0.5 * epsilon * u * c],
                   [-0.5 * epsilon * u * c, epsilon * l2]])
    norms = np.array([x1, x2])
    V3 = norms @ m3 @ norms
    assert dV <= -V3 + 1e-9 * (size + abs(V3)), (dV, -V3)
