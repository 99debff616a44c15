"""Dense-matrix utility layer: inner products, exponential, polar factor,
singular extremes, guarded inversion."""

import math

import numpy as np
import pytest

from lieobs.errors import DegeneracyError, DimensionError, DomainError, SingularityError
from lieobs.liegroup import hat_so3
from lieobs.matcore import (
    _guarded_inv,
    frob_inner,
    frob_norm,
    mat_exp,
    mat_inv,
    polar_so3,
    singular_extremes,
)


def random_rotation(rng):
    return mat_exp(hat_so3(rng.normal(size=3)))


class TestFrobInner:
    def test_identity_trace(self):
        assert frob_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0, abs=1e-15)

    def test_skew_embedding_doubles_the_square(self):
        a = hat_so3(np.array([1.0, 0.5, -1.0]))
        assert frob_inner(a, a) == pytest.approx(4.5, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        assert abs(frob_inner(a, b) - frob_inner(b, a)) < 1e-14

    def test_bilinearity(self):
        rng = np.random.default_rng(8)
        a, b, c = rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        lhs = frob_inner(2.0 * a + b, c)
        rhs = 2.0 * frob_inner(a, c) + frob_inner(b, c)
        assert abs(lhs - rhs) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            frob_inner(np.eye(3), np.eye(4))


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
        assert frob_norm(a) == pytest.approx(math.sqrt(frob_inner(a, a)), rel=1e-14)


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

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            mat_exp(np.full((2, 2), np.inf))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_norm_rejected(self):
        # finite entries whose Frobenius norm overflows to inf
        with pytest.raises(DomainError):
            mat_exp(hat_so3([1e308, 1e308, 0.0]))

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

    def test_rank_deficient_raises(self):
        a = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DegeneracyError):
            polar_so3(a)

    def test_wrong_shape_raises(self):
        with pytest.raises(DimensionError):
            polar_so3(np.eye(4))


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
        # sigma ratio 1e-9 clears the default 1e-10 but not 1e-8, in a
        # stack exactly as for one matrix
        a = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-9])])
        assert np.isfinite(mat_inv(a)).all()
        with pytest.raises(SingularityError) as exc_info:
            mat_inv(a, rel_tol=1e-8)
        assert exc_info.value.member == 1
        with pytest.raises(SingularityError):
            mat_inv(a[1], rel_tol=1e-8)

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
