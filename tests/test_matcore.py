"""Dense-matrix utility layer: inner products, exponential, polar factor,
singular extremes, guarded inversion."""

import math

import numpy as np
import pytest

from lieobs.cli import _ROW_BLOCK
from lieobs.errors import DimensionError, DomainError, SingularityError
from lieobs.liegroup import hat_so3
from lieobs.matcore import (
    _POLAR_CERT,
    _frob_rows,
    _guarded_inv,
    _polar_certified,
    _svd_polar,
    frob_norm,
    mat_exp,
    mat_inv,
    polar_so3,
    singular_extremes,
)


def random_rotation(rng):
    return mat_exp(hat_so3(rng.normal(size=3)))


class TestFrobInner:
    """The Frobenius inner product ``_frob_rows`` of two matrices."""

    def test_identity_trace(self):
        assert _frob_rows(np.eye(3), np.eye(3)) == pytest.approx(3.0, abs=1e-15)

    def test_skew_embedding_doubles_the_square(self):
        a = hat_so3(np.array([1.0, 0.5, -1.0]))
        assert _frob_rows(a, a) == pytest.approx(4.5, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        assert abs(_frob_rows(a, b) - _frob_rows(b, a)) < 1e-14

    def test_bilinearity(self):
        rng = np.random.default_rng(8)
        a, b, c = rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        lhs = _frob_rows(2.0 * a + b, c)
        rhs = 2.0 * _frob_rows(a, c) + _frob_rows(b, c)
        assert abs(lhs - rhs) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            _frob_rows(np.eye(3), np.eye(4))


class TestFrobNorm:
    def test_zero(self):
        assert frob_norm(np.zeros((4, 4))) == 0.0

    def test_identity(self):
        assert frob_norm(np.eye(4)) == pytest.approx(2.0, abs=1e-15)

    def test_skew_embedding(self):
        assert frob_norm(hat_so3(np.array([1.0, 0.5, -1.0]))) == pytest.approx(
            math.sqrt(4.5), abs=1e-14
        )

    def test_matches_inner_product(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 3))
        assert frob_norm(a) == pytest.approx(math.sqrt(np.vdot(a, a)), rel=1e-14)

    def test_one_matrix_gives_a_number(self):
        got = frob_norm(np.eye(4))
        assert isinstance(got, np.float64) and got == 2.0

    def test_empty_stack_gives_an_empty_array(self):
        got = frob_norm(np.zeros((0, 4, 4)))
        assert got.shape == (0,) and got.dtype == np.float64

    def test_stack_equals_member_calls(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(3, 7, 4, 5))
        a[1, 2, 0, 0] = np.nan
        got = frob_norm(a)
        assert got.shape == (3, 7)
        for idx in np.ndindex(3, 7):
            assert np.array_equal(got[idx], frob_norm(a[idx]), equal_nan=True)

    def test_squares_past_the_largest_float(self):
        # The sum of squares overflows, the norm does not: 1e300 in, 1e300
        # out, in a stack as in a member call, with no warning.
        assert frob_norm(np.diag([1e300, 1.0, 1.0, 1.0])) == 1e300
        assert frob_norm(np.array([1e300, 1.0])) == 1e300
        a = np.random.default_rng(5).normal(size=(4, 3, 3))
        a[1, 0, 0], a[2, 2, 1], a[3, 0, 0] = 1e300, np.inf, np.nan
        got = frob_norm(a)
        assert got[1] == 1e300 and got[2] == np.inf and np.isnan(got[3])
        for k in range(4):
            assert np.array_equal(got[k], frob_norm(a[k]), equal_nan=True)

    def test_norm_past_the_largest_float_is_inf(self):
        assert frob_norm(np.diag([1e308, 1e308, 1e308, 1e308])) == np.inf


class TestMatExp:
    def test_zero_gives_identity(self):
        assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_quarter_turn_about_e1(self):
        got = mat_exp((math.pi / 2.0) * hat_so3(np.array([1.0, 0.0, 0.0])))
        want = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.abs(got - want).max() < 1e-14

    def test_diagonal_reduces_to_scalar_exp(self):
        d = np.array([0.3, -1.2, 2.5])
        got = mat_exp(np.diag(d))
        assert np.abs(got - np.diag(np.exp(d))).max() < 1e-13

    def test_nilpotent_truncates_exactly(self):
        n = np.array([[0.0, 3.7], [0.0, 0.0]])
        got = mat_exp(n)
        assert np.array_equal(got, np.eye(2) + n)

    def test_random_so3_exponentials_are_rotations(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            r = mat_exp(hat_so3(rng.normal(size=3)))
            assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_is_exp_of_negation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            a *= 5.0 / max(frob_norm(a), 1e-12)
            prod = mat_exp(a) @ mat_exp(-a)
            assert np.abs(prod - np.eye(4)).max() < 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            mat_exp(np.zeros((2, 3)))

    def test_stack_rejected(self):
        with pytest.raises(DimensionError, match="one matrix"):
            mat_exp(np.zeros((2, 3, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            mat_exp(np.full((2, 2), np.inf))

    def test_overflowing_norm_rejected(self):
        # finite entries whose Frobenius norm overflows to inf
        with pytest.raises(DomainError):
            mat_exp(hat_so3([1e308, 1e308, 0.0]))

    def test_norm_past_the_scaling_range_rejected(self):
        # A finite norm of 1.4e308, whose scaling factor 2**1025 overflows.
        with pytest.raises(DomainError, match="too large to scale"):
            mat_exp(hat_so3([1e308, 0.0, 0.0]))
        # At the limit 2**1022 the factor is 2**1023; this exponential is exact.
        nilpotent = np.array([[0.0, 2.0**1022], [0.0, 0.0]])
        assert np.array_equal(mat_exp(nilpotent), np.eye(2) + nilpotent)

    def test_against_scipy_expm(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(17)
        worst = 0.0
        for n in (3, 4):
            for norm in np.logspace(-3, 2, 6):
                for _ in range(20):
                    a = rng.normal(size=(n, n))
                    a *= norm / frob_norm(a)
                    want = linalg.expm(a)
                    worst = max(worst, frob_norm(mat_exp(a) - want) / frob_norm(want))
        assert worst <= 5e-11

    def test_large_norm_accuracy_against_eigendecomposition(self):
        # symmetric input so an eigendecomposition gives an independent oracle
        rng = np.random.default_rng(12)
        s = rng.normal(size=(4, 4))
        s = s + s.T
        s *= 10.0 / frob_norm(s)
        w, v = np.linalg.eigh(s)
        want = (v * np.exp(w)) @ v.T
        got = mat_exp(s)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12


class TestPolarSo3:
    def test_fixes_rotations(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            r = random_rotation(rng)
            assert np.abs(polar_so3(r) - r).max() < 1e-12

    def test_strips_positive_scale(self):
        assert np.abs(polar_so3(2.0 * np.eye(3)) - np.eye(3)).max() < 1e-14

    def test_reflection_maps_to_nearest_rotation(self):
        a = np.diag([1.0, 1.0, -1.0])
        q = polar_so3(a)
        assert np.abs(q @ q.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)
        # brute force over sampled rotations: nothing sampled beats q
        best = frob_norm(a - q)
        rng = np.random.default_rng(14)
        for _ in range(500):
            r = random_rotation(rng)
            assert frob_norm(a - r) >= best - 1e-9

    def test_left_equivariance(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            q = random_rotation(rng)
            a = rng.normal(size=(3, 3)) + 0.1 * np.eye(3)
            lhs = polar_so3(q @ a)
            rhs = q @ polar_so3(a)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_rank_deficient_is_nan(self):
        for a in (np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]), np.zeros((3, 3))):
            assert np.isnan(polar_so3(a)).all()

    def test_non_finite_is_nan(self):
        for bad in (math.nan, math.inf):
            a = np.eye(3)
            a[1, 2] = bad
            assert np.isnan(polar_so3(a)).all()

    def test_wrong_shape_raises(self):
        with pytest.raises(DimensionError):
            polar_so3(np.eye(4))


def conditioned(rng, count, kappa):
    """``count`` random 3x3 matrices ``Q1 diag(1, s, 1/kappa) Q2`` with
    rotations ``Q1``, ``Q2``, ``s`` log-uniform in ``[1/kappa, 1]`` and
    scales over ten decades: positive determinant, condition ``kappa``."""
    s = np.exp(rng.uniform(-math.log(kappa), 0.0, size=count))
    spectra = np.stack([np.ones(count), s, np.full(count, 1.0 / kappa)], axis=1)
    q1 = np.stack([random_rotation(rng) for _ in range(count)])
    q2 = np.stack([random_rotation(rng) for _ in range(count)])
    scale = np.exp(rng.uniform(-11.5, 11.5, size=(count, 1, 1)))
    return q1 @ (spectra[:, :, None] * q2) * scale


def certified(a):
    """Whether Newton's certificate admits each member of a stack."""
    return _polar_certified(list(a.reshape(-1, 9).T))


class TestNewtonPolar:
    """Newton's iteration against the SVD path it replaces where it can
    certify a member, and the SVD path itself everywhere else."""

    @pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6, 1e9])
    def test_agrees_with_svd(self, kappa):
        # The polar factor's sensitivity grows with the condition number,
        # and so does the distance between two backward-stable methods.
        a = conditioned(np.random.default_rng(int(math.log10(kappa))), 300, kappa)
        got, want = polar_so3(a), _svd_polar(a)
        assert certified(a).any()
        assert np.all(np.isfinite(got))
        assert np.abs(got - want).max() <= 1e-14 * math.sqrt(kappa)

    def test_reflections_take_the_svd_path(self):
        a = conditioned(np.random.default_rng(31), 40, 10.0)
        a[::2] = a[::2] @ np.diag([1.0, 1.0, -1.0])
        got = polar_so3(a)
        assert np.array_equal(got[::2], _svd_polar(a[::2]))
        assert np.abs(got[1::2] - _svd_polar(a[1::2])).max() < 1e-14

    def test_members_past_either_threshold(self):
        # diag(1, 1, d) has det(a) = c ||a||_F^3 at d = c (2 + d^2)^(3/2),
        # about 2.83e-10 for c = 1e-10. Below that, and on both sides of the
        # 1e-12 rank rule, the member is the SVD path's bit for bit; just
        # above it, Newton decides, with a finite rotation.
        rng = np.random.default_rng(32)
        q1, q2 = random_rotation(rng), random_rotation(rng)
        edge = _POLAR_CERT * 2.0 ** 1.5
        below = [0.99 * edge, 0.5 * edge, 1.01e-12, 0.99e-12, 0.0]
        above = [1.01 * edge, 3.0 * edge]
        a = np.stack([q1 @ np.diag([1.0, 1.0, d]) @ q2 for d in below + above])
        assert certified(a).tolist() == [False] * len(below) + [True] * len(above)
        got = polar_so3(a)
        for k in range(len(a)):
            assert np.array_equal(got[k], polar_so3(a[k]), equal_nan=True)
        n = len(below)
        assert np.array_equal(got[:n], _svd_polar(a[:n]), equal_nan=True)
        assert np.isnan(got[n - 2:n]).all() and not np.isnan(got[:n - 2]).any()
        assert np.abs(got[n:] - _svd_polar(a[n:])).max() < 1e-12

    def test_nested_stack_equals_member_calls(self):
        rng = np.random.default_rng(33)
        a = np.concatenate([conditioned(rng, 6, 1e4), rng.normal(size=(4, 3, 3))])
        a[1] = a[1] @ np.diag([1.0, -1.0, 1.0])
        a[7, 2, 2] = math.inf
        a = a.reshape(2, 5, 3, 3)
        got = polar_so3(a)
        assert got.shape == (2, 5, 3, 3)
        for i in range(2):
            for j in range(5):
                assert np.array_equal(got[i, j], polar_so3(a[i, j]), equal_nan=True)

    def test_stack_across_blocks_equals_member_calls(self):
        rng = np.random.default_rng(34)
        a = rng.normal(size=(_ROW_BLOCK + 7, 3, 3))
        a[::3] *= -1.0
        a[5] = np.outer([1.0, 2.0, 0.0], [0.0, 1.0, 1.0])
        a[_ROW_BLOCK + 2, 1, 1] = math.nan
        got = polar_so3(a)
        assert np.isnan(got[[5, _ROW_BLOCK + 2]]).all()
        for k in range(len(a)):
            assert np.array_equal(got[k], polar_so3(a[k]), equal_nan=True)

    def test_identity_scales_are_exact(self):
        for s in (1.0, 2.0, 1e-200, 1e200):
            assert np.array_equal(polar_so3(s * np.eye(3)), np.eye(3))


class TestSingularExtremes:
    def test_identity(self):
        smin, smax = singular_extremes(np.eye(5))
        assert smin == pytest.approx(1.0, abs=1e-14)
        assert smax == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        smin, smax = singular_extremes(np.diag([3.0, 1.0, 0.5]))
        assert smin == pytest.approx(0.5, abs=1e-14)
        assert smax == pytest.approx(3.0, abs=1e-14)

    def test_norm_bracketing_of_products(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
            smin, smax = singular_extremes(a)
            nb, nab = frob_norm(b), frob_norm(a @ b)
            assert smin * nb <= nab + 1e-12
            assert nab <= smax * nb + 1e-12

    def test_matches_gram_eigenvalues(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(4, 4))
        smin, smax = singular_extremes(a)
        w = np.linalg.eigvalsh(a.T @ a)
        assert smin**2 == pytest.approx(w[0], abs=1e-10)
        assert smax**2 == pytest.approx(w[-1], abs=1e-10)

    def test_one_matrix_gives_two_numbers(self):
        smin, smax = singular_extremes(np.diag([3.0, 1.0, 0.5]))
        assert isinstance(smin, np.float64) and isinstance(smax, np.float64)

    def test_stack_equals_member_calls(self):
        rng = np.random.default_rng(24)
        a = rng.normal(size=(4, 6, 3, 3))
        a[2, 1] = np.diag([1.0, 0.0, 2.0])
        smin, smax = singular_extremes(a)
        assert smin.shape == smax.shape == (4, 6)
        for idx in np.ndindex(4, 6):
            assert (smin[idx], smax[idx]) == singular_extremes(a[idx])

    def test_non_square_and_non_finite_rejected(self):
        with pytest.raises(DimensionError):
            singular_extremes(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            singular_extremes(np.full((2, 2, 2), np.nan))

    def test_squared_values_sum_to_squared_norm(self):
        rng = np.random.default_rng(18)
        a = rng.normal(size=(3, 3))
        s = np.linalg.svd(a, compute_uv=False)
        assert frob_norm(a) ** 2 == pytest.approx(float(np.sum(s**2)), rel=1e-12)


class TestMatInv:
    def test_identity(self):
        assert np.abs(mat_inv(np.eye(4)) - np.eye(4)).max() < 1e-15

    def test_diagonal(self):
        got = mat_inv(np.diag([2.0, 4.0]))
        assert np.abs(got - np.diag([0.5, 0.25])).max() < 1e-15

    def test_residual_on_random_matrices(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            a = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
            res = a @ mat_inv(a) - np.eye(4)
            assert frob_norm(res) < 1e-10 * max(1.0, frob_norm(a))

    def test_singular_raises_with_sigma_min(self):
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        with pytest.raises(SingularityError) as exc_info:
            mat_inv(a)
        assert exc_info.value.sigma_min == pytest.approx(0.0, abs=1e-15)

    def test_near_singular_raises(self):
        a = np.diag([1.0, 1.0, 1e-14])
        with pytest.raises(SingularityError):
            mat_inv(a)


class TestStackedMatInv:
    def stack(self):
        rng = np.random.default_rng(20)
        return rng.normal(size=(2, 5, 4, 4)) + 3.0 * np.eye(4)

    def test_equals_member_inverses(self):
        a = self.stack()
        got = mat_inv(a)
        assert got.shape == a.shape
        for idx in np.ndindex(2, 5):
            assert np.array_equal(got[idx], mat_inv(a[idx]))

    def test_near_singular_member_is_named(self):
        a = self.stack()[0]
        a[3] = np.diag([1.0, 1.0, 1.0, 1e-12])
        with pytest.raises(SingularityError) as exc_info:
            mat_inv(a)
        assert exc_info.value.member == 3
        assert "member 3" in str(exc_info.value)
        assert exc_info.value.sigma_min == pytest.approx(1e-12, rel=1e-9)

    def test_exactly_singular_member_is_named(self):
        a = self.stack()
        a[1, 2] = np.diag([1.0, 1.0, 0.0, 1.0])
        with pytest.raises(SingularityError) as exc_info:
            mat_inv(a)
        assert exc_info.value.member == (1, 2)

    def test_same_relative_tolerance_rule(self):
        # a sigma ratio of 1e-9 clears the fixed 1e-10 rule and 1e-11 does
        # not, in a stack exactly as for one matrix
        clears, fails = np.diag([1.0, 1.0, 1e-9]), np.diag([1.0, 1.0, 1e-11])
        assert np.isfinite(mat_inv(np.stack([np.eye(3), clears]))).all()
        assert np.isfinite(mat_inv(clears)).all()
        with pytest.raises(SingularityError) as exc_info:
            mat_inv(np.stack([np.eye(3), clears, fails]))
        assert exc_info.value.member == 2
        with pytest.raises(SingularityError):
            mat_inv(fails)

    def test_non_square_stack_rejected(self):
        with pytest.raises(DimensionError):
            mat_inv(np.zeros((2, 3, 4)))

    def test_mask_form_marks_what_mat_inv_rejects(self):
        # sigma ratios just above and below the default 1e-10, and an
        # exactly singular member, among well conditioned ones
        good = self.stack()[0]
        members = [good[0], np.diag([1.0, 1.0, 1.0, 1.01e-10]), good[1],
                   np.diag([1.0, 1.0, 1.0, 0.99e-10]), np.diag([1.0, 1.0, 0.0, 1.0]), good[2]]
        a = np.stack(members)
        inv, bad = _guarded_inv(a)
        rejected = []
        for m in members:
            try:
                mat_inv(m)
                rejected.append(False)
            except SingularityError:
                rejected.append(True)
        assert bad.tolist() == rejected == [False, False, False, True, True, False]
        for k in np.flatnonzero(~bad):
            assert np.array_equal(inv[k], mat_inv(a[k]))
        with pytest.raises(SingularityError) as exc_info:
            mat_inv(a)
        assert exc_info.value.member == 3

    def test_mask_of_one_matrix_is_a_scalar(self):
        inv, bad = _guarded_inv(np.diag([2.0, 4.0]))
        assert bad.shape == () and not bad
        assert np.array_equal(inv, np.diag([0.5, 0.25]))


class TestStackedPolar:
    def test_members_equal_single_calls(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(50, 3, 3))
        a[::7] *= -1.0
        got = polar_so3(a)
        for k in range(len(a)):
            assert np.array_equal(got[k], polar_so3(a[k]))

    def test_rank_deficient_member_is_nan(self):
        a = np.stack([np.eye(3), np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]), 2.0 * np.eye(3)])
        got = polar_so3(a)
        assert np.isnan(got[1]).all()
        assert np.array_equal(got[[0, 2]], np.stack([np.eye(3), np.eye(3)]))

    def test_degenerate_members_equal_single_calls(self):
        # rank-deficient and non-finite members among regular ones: every
        # member, NaN positions included, is its own call bit for bit
        rng = np.random.default_rng(23)
        a = rng.normal(size=(6, 3, 3))
        a[1] = np.outer([1.0, 2.0, 0.0], [0.0, 1.0, 1.0])
        a[3, 0, 0] = math.nan
        a[4, 2, 1] = -math.inf
        got = polar_so3(a)
        assert np.isnan(got[[1, 3, 4]]).all() and np.isfinite(got[[0, 2, 5]]).all()
        for k in range(len(a)):
            assert np.array_equal(got[k], polar_so3(a[k]), equal_nan=True)
