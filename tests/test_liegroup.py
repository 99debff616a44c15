"""Algebra bases, the orthogonal projection, and the se(3)/so(3) hat maps."""

import numpy as np
import pytest

from lieobs.errors import ConfigurationError, DimensionError, DomainError
from lieobs.liegroup import (
    AlgebraElement,
    GroupSpec,
    algebra_basis_se3,
    algebra_basis_so3,
    hat_se3,
    hat_so3,
    project_matrix,
)
from lieobs.matcore import frob_norm


@pytest.fixture(scope="module")
def se3():
    return algebra_basis_se3()


@pytest.fixture(scope="module")
def so3():
    return algebra_basis_so3()


class TestGroupSpec:
    def test_se3_basis_is_orthonormal(self, se3):
        dim = se3.algebra_dim
        gram = np.array(
            [
                [np.vdot(se3.basis[i], se3.basis[j]) for j in range(dim)]
                for i in range(dim)
            ]
        )
        assert np.abs(gram - np.eye(dim)).max() < 1e-14

    def test_se3_dimension(self, se3):
        assert se3.algebra_dim == 6
        assert se3.ambient_n == 4

    def test_so3_dimension(self, so3):
        assert so3.algebra_dim == 3
        assert so3.ambient_n == 3

    def test_non_orthonormal_basis_rejected(self):
        # hat(e1) has Frobenius norm sqrt(2), so the unnormalized stack
        # fails the Gram check
        basis = np.stack([hat_so3(e) for e in np.eye(3)])
        with pytest.raises(ConfigurationError):
            GroupSpec("bad", basis)

    def test_basis_not_closed_under_commutator_rejected(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        b = np.zeros((2, 2))
        b[0, 1] = b[1, 0] = 1.0 / np.sqrt(2.0)
        with pytest.raises(ConfigurationError):
            GroupSpec("open", np.stack([a, b]))

    def test_bad_basis_shape_rejected(self):
        with pytest.raises(DimensionError):
            GroupSpec("bad", np.zeros((3, 3, 4)))

    def test_ambient_size_is_the_basis_size(self):
        sl2 = GroupSpec("SL(2)", np.stack([np.diag([1.0, -1.0]) / np.sqrt(2.0),
                                           [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
        assert sl2.ambient_n == 2 and sl2.algebra_dim == 3


class TestProjection:
    def test_se3_block_formula(self, se3):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(4, 4))
        got = project_matrix(se3, a)
        b = a[:3, :3]
        assert np.abs(got[:3, :3] - 0.5 * (b - b.T)).max() < 1e-15
        assert np.array_equal(got[:3, 3], a[:3, 3])
        assert np.array_equal(got[3, :], np.zeros(4))

    def test_fixes_algebra_members(self, se3):
        rng = np.random.default_rng(24)
        for _ in range(20):
            x = hat_se3(rng.normal(size=3), rng.normal(size=3))
            assert frob_norm(project_matrix(se3, x) - x) < 1e-12

    def test_idempotence(self, se3):
        rng = np.random.default_rng(25)
        for _ in range(100):
            a = rng.normal(size=(4, 4))
            p = project_matrix(se3, a)
            assert frob_norm(project_matrix(se3, p) - p) < 1e-12

    def test_self_adjointness_on_basis(self, se3):
        rng = np.random.default_rng(26)
        a = rng.normal(size=(4, 4))
        p = project_matrix(se3, a)
        for e in se3.basis:
            assert abs(np.vdot(p, e) - np.vdot(a, e)) < 1e-12

    def test_residual_orthogonal_to_projection(self, se3):
        rng = np.random.default_rng(27)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            p = project_matrix(se3, a)
            assert abs(np.vdot(a - p, p)) < 1e-10

    def test_contraction(self, se3):
        rng = np.random.default_rng(28)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            assert frob_norm(project_matrix(se3, a)) <= frob_norm(a) + 1e-14

    def test_generic_path_on_so2(self):
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        spec = GroupSpec("SO(2)", np.stack([j / np.sqrt(2.0)]))
        rng = np.random.default_rng(29)
        m = rng.normal(size=(2, 2))
        assert frob_norm(project_matrix(spec, m) - 0.5 * (m - m.T)) < 1e-14

    def test_so3_projection_is_skew_part(self, so3):
        rng = np.random.default_rng(30)
        m = rng.normal(size=(3, 3))
        assert frob_norm(project_matrix(so3, m) - 0.5 * (m - m.T)) < 1e-15

    def test_shape_mismatch_rejected(self, se3):
        with pytest.raises(DimensionError):
            project_matrix(se3, np.eye(3))

    def test_wrapped_form_carries_coords(self, se3):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4))
        el = AlgebraElement(se3, project_matrix(se3, a))
        assert np.array_equal(el.matrix, project_matrix(se3, a))

    @pytest.mark.parametrize("shape", [(5,), (2, 5)])
    def test_stack_matches_members(self, se3, shape):
        rng = np.random.default_rng(32)
        a = rng.normal(size=shape + (4, 4))
        got = project_matrix(se3, a)
        assert got.shape == a.shape
        for idx in np.ndindex(*shape):
            assert np.array_equal(got[idx], project_matrix(se3, a[idx]))

    @pytest.mark.parametrize("spec_name", ["so3", "se3"])
    def test_rotated_basis_projects_alike(self, spec_name, request):
        # Any orthonormal basis of the same algebra gives the same projector.
        spec = request.getfixturevalue(spec_name)
        rng = np.random.default_rng(33)
        q, _ = np.linalg.qr(rng.normal(size=(spec.algebra_dim, spec.algebra_dim)))
        mixed = GroupSpec("mixed", np.einsum("ij,jkl->ikl", q, spec.basis))
        n = spec.ambient_n
        for a in rng.normal(size=(20, n, n)):
            assert np.abs(project_matrix(mixed, a) - project_matrix(spec, a)).max() < 1e-14


class TestAlgebraElement:
    def test_membership_enforced(self, se3):
        with pytest.raises(DomainError):
            AlgebraElement(se3, np.eye(4))

    def test_wrong_shape_rejected(self, se3):
        with pytest.raises(DimensionError):
            AlgebraElement(se3, np.zeros((3, 3)))

    def test_nonfinite_rejected(self, se3):
        m = np.zeros((4, 4))
        m[0, 3] = np.nan
        with pytest.raises(DomainError):
            AlgebraElement(se3, m)

    def test_matrix_is_immutable(self, se3):
        el = AlgebraElement(se3, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            el.matrix[0, 0] = 1.0


class TestHatMaps:
    def test_hat_so3_on_e1(self):
        want = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(hat_so3([1.0, 0.0, 0.0]), want)

    def test_hat_so3_zero(self):
        assert np.array_equal(hat_so3(np.zeros(3)), np.zeros((3, 3)))

    def test_hat_so3_is_cross_product(self):
        got = hat_so3([1.0, 0.5, -1.0]) @ np.array([1.0, 1.0, 1.0])
        assert np.abs(got - np.array([1.5, -2.0, 0.5])).max() < 1e-15

    def test_hat_so3_random_cross_products(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            v, w = rng.normal(size=3), rng.normal(size=3)
            assert np.abs(hat_so3(v) @ w - np.cross(v, w)).max() < 1e-13

    def test_hat_so3_skew(self):
        rng = np.random.default_rng(33)
        m = hat_so3(rng.normal(size=3))
        assert np.array_equal(m, -m.T)

    def test_hat_se3_zero(self):
        assert np.array_equal(hat_se3(np.zeros(3), np.zeros(3)), np.zeros((4, 4)))

    def test_hat_se3_structure(self):
        omega = np.array([1.0, 0.5, -1.0])
        v = np.array([0.5, -0.5, 0.5])
        m = hat_se3(omega, v)
        assert np.array_equal(m[:3, :3], hat_so3(omega))
        assert np.array_equal(m[:, 3], np.array([0.5, -0.5, 0.5, 0.0]))
        assert np.array_equal(m[3, :], np.zeros(4))

