"""Observer vector fields: stationarity, algebra membership, gain floors,
equivariance, and state-estimate extraction."""

import math

import numpy as np
import pytest

from lieobs.analysis import compute_errors
from lieobs.errors import ConfigurationError, DimensionError, SingularityError
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
    GroupSpec,
    algebra_basis_se3,
    algebra_basis_so3,
    hat_se3,
    hat_so3,
    project_matrix,
)
from lieobs.matcore import frob_norm, mat_exp, mat_inv
from lieobs.observers import (
    Gains,
    ObserverKind,
    ObserverState,
    gain_floor,
    _OperatorWorkspace,
    _bias_basis,
    _feed_factor,
    _truth_term,
    observer_rhs,
)

LEFT_KINDS = (ObserverKind.I, ObserverKind.I_MOD, ObserverKind.I_TV, ObserverKind.III)
RIGHT_KINDS = (ObserverKind.II, ObserverKind.II_TV, ObserverKind.IV)

GAINS = Gains(k_P=4.0, k_I=0.75)


def truth_at(t, side, f):
    """Benchmark pose, twist, bias, measured twist and measurement at t."""
    g, xi_mat, _ = se3_benchmark_truth().state_of(t)
    b = se3_benchmark_bias()
    a = measure(MeasurementModel(side, f), g)
    return g, AlgebraElement(b.group, xi_mat), b, AlgebraElement(b.group, xi_mat + b.matrix), a


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

    @pytest.mark.parametrize("k_P", ["4", True], ids=["string", "bool"])
    def test_non_numbers_rejected(self, k_P):
        with pytest.raises(ConfigurationError):
            Gains(k_P, 1)


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
        g, xi, b, xi_m, _ = truth_at(t, "left", benchmark_F)
        a = measure(model, g, t)
        f, f_dot = model.F_at(t), model.F_dot_at(t)
        d_a, d_b = observer_rhs(
            ObserverKind.I_TV, ObserverState(a, b), a, xi_m, GAINS, aux=(f, f_dot),
        )
        want = a @ xi.matrix + f_dot @ mat_inv(f) @ a
        assert np.abs(d_a - want).max() < 1e-12
        assert np.abs(d_b).max() == 0.0

    def test_right_tv_kind(self, benchmark_F):
        model, _ = twisting_f(benchmark_F)
        t = 0.8
        g, xi, b, xi_m, _ = truth_at(t, "right", benchmark_F)
        a = measure(model, g, t)
        f, f_dot = model.F_at(t), model.F_dot_at(t)
        d_a, d_b = observer_rhs(
            ObserverKind.II_TV, ObserverState(a, b), a, xi_m, GAINS, aux=(f, f_dot),
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
        err, _ = rec.errors_and_V()
        drift = np.max(err.err_EA + err.err_eb)
        assert drift < 1e-8


class TestBiasDerivativeMembership:
    def misaligned(self, kind, benchmark_F):
        _, _, b, xi_m, a = truth_at(1.3, kind.side, benchmark_F)
        rng = np.random.default_rng(50)
        a_bar = a + 0.3 * rng.normal(size=(4, 4))
        aux = (benchmark_F, np.zeros((4, 4))) if kind.time_varying else None
        return observer_rhs(kind, ObserverState(a_bar, b), a, xi_m, GAINS, aux=aux)

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
        _, _, b, xi_m, a = truth_at(0.6, "left", benchmark_F)
        x = hat_se3([0.2, -0.7, 0.4], [1.0, 0.5, -0.5])
        e = mat_inv(a.T) @ x
        state = ObserverState(a - e, b)
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
        with pytest.raises(DimensionError, match="b_bar"):
            observer_rhs(ObserverKind.I_MOD, ObserverState(a, np.zeros((3, 3))), a, xi_m, GAINS)

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
                worst, abs(s_q.errors.err_EA - s_base.errors.err_EA)
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
    """The pose estimate behind ``E_g = g - g_bar``: ``g_bar = F^-1 A_bar``
    on the left side, ``F A_bar^-1`` on the right."""

    @staticmethod
    def group_error(kind, g, a_bar, f):
        b = se3_benchmark_bias()
        truth = TruthSample(t=0.0, g=g, b=b, A=np.eye(4))
        return compute_errors(kind, truth, ObserverState(a_bar, b), f).E_g

    def test_left_identity_case(self, benchmark_F):
        e_g = self.group_error(ObserverKind.I, np.eye(4), benchmark_F, benchmark_F)
        assert frob_norm(e_g) < 1e-12

    def test_right_identity_case(self, benchmark_F):
        e_g = self.group_error(ObserverKind.II, np.eye(4), benchmark_F, benchmark_F)
        assert frob_norm(e_g) < 1e-12

    def test_left_composition_recovers_pose(self, benchmark_truth, benchmark_F):
        g, _, _ = benchmark_truth.state_of(1.7)
        e_g = self.group_error(ObserverKind.III, g, benchmark_F @ g, benchmark_F)
        assert frob_norm(e_g) < 1e-12

    def test_right_composition_recovers_pose(self, benchmark_truth, benchmark_F):
        g, _, _ = benchmark_truth.state_of(1.7)
        a = mat_inv(g) @ benchmark_F
        e_g = self.group_error(ObserverKind.IV, g, a, benchmark_F)
        assert frob_norm(e_g) < 1e-11

    def test_right_kind_singular_estimate_rejected(self, benchmark_F):
        e_g = self.group_error(ObserverKind.II, np.eye(4), np.zeros((4, 4)), benchmark_F)
        assert np.isnan(e_g).all()

    def test_left_kind_tolerates_singular_estimate(self, benchmark_truth, benchmark_F):
        g, _, _ = benchmark_truth.state_of(1.7)
        e_g = self.group_error(ObserverKind.I, g, np.zeros((4, 4)), benchmark_F)
        assert np.array_equal(e_g, g)

    def test_shape_mismatch_rejected(self, benchmark_F):
        with pytest.raises(DimensionError):
            self.group_error(ObserverKind.I, np.eye(4), np.eye(3), benchmark_F)


SL2 = GroupSpec("SL(2)", 2, np.stack([np.diag([1.0, -1.0]) / math.sqrt(2.0),
                                      [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
GROUPS = {"SE(3)": algebra_basis_se3(), "SO(3)": algebra_basis_so3(), "SL(2)": SL2}


def paper_field(kind, group, k_p, k_i, A, A_bar, b, xi_m, F, F_dot):
    """The observer's vector field as the paper writes it, for one instant:
    the oracle of the affine operator."""
    E = A - A_bar
    W = mat_inv(A) if kind.uses_inverse else A.T

    def proj(m):
        return project_matrix(group, m) if kind.projected_bias else m

    if kind.side == "left":
        d_a = A_bar @ xi_m - A @ b + k_p * E
        d_b = -k_i * proj(W @ E)
        feed = F_dot @ mat_inv(F) @ A
    else:
        d_a = -(xi_m @ A_bar) + b @ A + k_p * E
        d_b = k_i * proj(E @ W)
        feed = A @ mat_inv(F) @ F_dot
    if kind.time_varying:
        d_a = d_a + feed
    return d_a, d_b


def operator_inputs(kind, group, rng, count):
    """``count`` random stage entries and states on ``group``:
    ``(A, A_bar, b, xi_m, F, F_dot)``, each a stack. ``A`` is not
    symmetric, so a transpose in the wrong place shows."""
    n = group.ambient_n
    F = rng.normal(size=(count, n, n)) + 3.0 * np.eye(n)
    g = F @ (np.eye(n) + 0.2 * rng.normal(size=(count, n, n)))
    A = g if kind.side == "left" else mat_inv(g)
    A_bar = A + 0.3 * rng.normal(size=(count, n, n))
    b = rng.normal(size=(count, n, n))
    if kind.projected_bias:
        b = project_matrix(group, b)
    xi_m = project_matrix(group, rng.normal(size=(count, n, n)))
    return A, A_bar, b, xi_m, F, rng.normal(size=(count, n, n))


def flat(kind, group, A_bar, b):
    """The flat state ``(vec A_bar, beta, 1)`` and the basis ``C`` of the
    bias coordinates, ``beta = C vec(b)``, flattened to ``(m, n^2)``."""
    C = _bias_basis(kind, group).reshape(-1, A_bar.size)
    return np.concatenate((A_bar.ravel(), C @ b.ravel(), (1.0,))), C


class TestAffineOperator:
    """``dy = y @ M`` with ``y = (vec A_bar, beta, 1)``: ``n^2 + m + 1``
    entries, with ``m`` the algebra dimension, or ``n^2`` for I_mod."""

    @pytest.mark.parametrize("group", list(GROUPS), ids=str)
    @pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
    def test_matches_paper_vector_field(self, kind, group):
        spec = GROUPS[group]
        n = spec.ambient_n
        m = spec.algebra_dim if kind.projected_bias else n * n
        rng = np.random.default_rng(43)
        for A, A_bar, b, xi_m, F, F_dot in zip(*operator_inputs(kind, spec, rng, 5)):
            feed = _feed_factor(kind.side, F, F_dot) if kind.time_varying else None
            aux = _truth_term(kind, A, feed)
            work = _OperatorWorkspace(kind, spec, GAINS, 1)
            M = work.fill(A[None], xi_m[None], None if aux is None else aux[None])
            assert M.shape == (1, n * n + m + 1, n * n + m + 1) and work.dim == n * n + m + 1
            y, C = flat(kind, spec, A_bar, b)
            assert np.array_equal(work.coords, C)
            dy = y @ M[0]
            assert dy[-1] == 0.0
            want = paper_field(kind, spec, 4.0, 0.75, A, A_bar, b, xi_m, F, F_dot)
            for got, w in zip((dy[:n * n], dy[n * n:-1] @ C), want):
                assert np.abs(got - w.ravel()).max() <= 1e-13 * np.abs(w).max()

    @pytest.mark.parametrize("group", list(GROUPS), ids=str)
    @pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
    def test_scaled_build_is_the_scaled_operator(self, kind, group):
        # Scaling by a power of two is exact, so the scale the build
        # applies to its inputs must give the scaled operator bit for bit.
        spec = GROUPS[group]
        A, _, _, xi_m, F, F_dot = operator_inputs(kind, spec, np.random.default_rng(47), 5)
        feed = _feed_factor(kind.side, F, F_dot) if kind.time_varying else None
        aux = _truth_term(kind, A, feed)
        full = _OperatorWorkspace(kind, spec, GAINS, 5).fill(A, xi_m, aux)
        half = _OperatorWorkspace(kind, spec, GAINS, 5, scale=0.5).fill(A, xi_m, aux)
        assert np.array_equal(half, 0.5 * full)


class TestStackedKernel:
    """The operator builder on a stack of stage entries."""

    @pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
    def test_stack_equals_member_calls(self, kind):
        se3 = GROUPS["SE(3)"]
        A, _, _, xi_m, F, F_dot = operator_inputs(kind, se3, np.random.default_rng(41), 6)
        feed = _feed_factor(kind.side, F, F_dot) if kind.time_varying else None
        aux = _truth_term(kind, A, feed)
        # I_mod keeps the 16 ambient bias entries, the others the 6
        # coordinates in se(3).
        dim = 2 * 16 + 1 if kind is ObserverKind.I_MOD else 16 + 6 + 1
        out = _OperatorWorkspace(kind, se3, GAINS, 6)
        stack = out.fill(A, xi_m, aux)
        assert stack.shape == (6, dim, dim) and np.shares_memory(stack, out.ops)
        for k in range(6):
            one = _OperatorWorkspace(kind, se3, GAINS, 1).fill(
                A[k:k + 1], xi_m[k:k + 1], None if aux is None else aux[k:k + 1])
            assert np.array_equal(stack[k], one[0])


def bits(a):
    """The bit patterns of a float stack, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


class TestOperatorWorkspace:
    """A workspace writes its structural zeros and identity ones once; a
    fill writes only the blocks that depend on the stage entry."""

    # The entries that take the identity in simulate: every node of a
    # closed-form truth (two entries per step and the end node), or stages
    # 1 and 4 of a co-integrated one (four entries per step).
    FIRST_LAST = {2: (slice(0, None, 2),), 4: (slice(0, None, 4), slice(3, None, 4))}

    @pytest.mark.parametrize("per", [2, 4])
    @pytest.mark.parametrize("group", list(GROUPS), ids=str)
    @pytest.mark.parametrize("kind", list(ObserverKind), ids=lambda k: k.value)
    def test_refilled_workspace_equals_a_fresh_build(self, kind, group, per):
        spec = GROUPS[group]
        identity = self.FIRST_LAST[per]
        rng = np.random.default_rng(53)
        steps, scale = 4, 0.5e-2
        work = _OperatorWorkspace(kind, spec, GAINS, per * steps + (per == 2), identity, scale)
        # Two whole blocks with different stacks, then a partial one.
        for count in (steps, steps, 3):
            S = per * count + (per == 2)
            A, _, _, xi_m, F, F_dot = operator_inputs(kind, spec, rng, S)
            # Zero velocities give the right side's term signed zeros.
            xi_m[::3] = 0.0
            feed = _feed_factor(kind.side, F, F_dot) if kind.time_varying else None
            aux = _truth_term(kind, A, feed)
            got = work.fill(A, xi_m, aux)
            fresh = _OperatorWorkspace(kind, spec, GAINS, S, identity, scale).fill(A, xi_m, aux)
            assert np.array_equal(bits(got), bits(fresh))
            # The identity entries are the plain build plus I, rounded as
            # an addition after the build.
            want = _OperatorWorkspace(kind, spec, GAINS, S, scale=scale).fill(A, xi_m, aux)
            for entries in identity:
                np.einsum("sii->si", want)[entries] += 1.0
            assert np.array_equal(bits(got), bits(want))
