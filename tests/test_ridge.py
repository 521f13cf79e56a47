"""Ridge functions, the semi-empirical split, and constancy directions."""

import numpy as np
import pytest

from ridgelaw.errors import ModelError, NumericalError
from ridgelaw.pigroups import build_dimension_matrix
from ridgelaw.subspace import constancy_directions


class TestRidgeEval:
    """Evaluating a ridge function profile(A^T x)."""

    def test_constant_along_orthogonal_directions(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 2))

        def ridge(x):
            y = x @ A
            return np.cos(y[..., 0]) + y[..., 1] ** 2

        x = rng.normal(size=4)
        U = constancy_directions(A)
        u = U @ rng.normal(size=U.shape[1])
        assert ridge(x + u) == pytest.approx(ridge(x), rel=1e-12)


class TestSemiEmpiricalEval:
    """The built-in velocities in the semi-empirical form exp(w . log q) * g(W^T log q)."""

    def test_reproduces_laminar_velocity(self, laminar_model):
        # the laminar model is the semi-empirical form with a constant profile:
        # V = exp(w . log q) / 32 with Poiseuille's exponents w
        w = np.array([0.0, -1.0, 2.0, 0.0, 1.0])
        x = np.log([[0.12, 1e-5, 1.0, 0.01, 3.2e-8], [0.1, 2e-6, 0.3, 0.05, 1e-9]])
        assert laminar_model.f(x) == pytest.approx(np.exp(x @ w) / 32.0, rel=1e-13)
        assert laminar_model.f(x)[0] == pytest.approx(1e-4, rel=1e-13)

    def test_homogeneous_scaling_splits_off_the_prefactor(self, laminar_model, turbulent_model):
        # rescale q by c with log c orthogonal to the pi-group exponents: the
        # built-in velocity must scale by exactly the monomial factor exp(w . log c)
        rng = np.random.default_rng(11)
        for model in (laminar_model, turbulent_model):
            w = model.decomposition.A_float()[:, 0]
            lo, hi = np.array(model.spec.log_bounds()).T
            x = lo + (hi - lo) * rng.uniform(0.3, 0.7, size=(20, 5))
            # rows of D are orthogonal to null columns, so log c = D^T y works
            D = build_dimension_matrix(model.spec.quantities)
            Df = np.array([[float(e) for e in row] for row in D.entries])
            log_c = Df.T @ rng.uniform(-0.4, 0.4, size=3)
            expected = np.exp(w @ log_c) * model.f(x)
            assert model.f(x + log_c) == pytest.approx(expected, rel=1e-11)


class TestConstancyDirections:
    def test_single_axis(self):
        U = constancy_directions(np.array([[1.0], [0.0]]))
        assert U.shape == (2, 1)
        assert abs(abs(U[1, 0]) - 1.0) < 1e-14
        assert abs(U[0, 0]) < 1e-14

    def test_one_dimensional_A_is_one_column(self):
        U = constancy_directions(np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(U, constancy_directions(np.array([[1.0], [0.0], [0.0]])))
        assert U.shape == (3, 2)

    def test_pipe_flow_A_gives_two_directions(self, laminar_model):
        A = laminar_model.decomposition.A_float()
        U = constancy_directions(A)
        assert U.shape == (5, 2)
        assert np.max(np.abs(A.T @ U)) < 1e-12
        assert np.allclose(U.T @ U, np.eye(2), atol=1e-12)

    def test_square_invertible_gives_empty_basis(self):
        U = constancy_directions(np.array([[2.0, 1.0], [0.0, 1.0]]))
        assert U.shape == (2, 0)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ModelError):
            constancy_directions(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_A_is_a_numerical_error(self, entry):
        # the one QR routine checks its factors: no NaN basis, no misleading rank message
        with pytest.raises(NumericalError, match="A basis has a non-finite QR factor"):
            constancy_directions(np.array([[entry], [1.0], [0.0]]))

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ModelError, match=r"A has more columns \(3\) than rows \(2\)"):
            constancy_directions(np.ones((2, 3)))

    def test_no_columns_leave_every_direction_invariant(self):
        U = constancy_directions(np.zeros((3, 0)))
        assert np.array_equal(np.abs(U), np.eye(3))

    def test_same_bits_as_the_complete_qr(self, turbulent_model):
        A = turbulent_model.decomposition.A_float()
        assert np.array_equal(constancy_directions(A), np.linalg.qr(A, mode="complete")[0][:, A.shape[1]:])


def test_pipe_flow_bulk_velocity_is_a_ridge_function(laminar_model, turbulent_model):
    # the log-space velocity must be invariant along directions orthogonal to
    # the dimensional-analysis subspace, on both regime boxes
    rng = np.random.default_rng(19)
    for model in (laminar_model, turbulent_model):
        A = model.decomposition.A_float()
        U = constancy_directions(A)
        lo = np.array([b[0] for b in model.spec.log_bounds()])
        hi = np.array([b[1] for b in model.spec.log_bounds()])
        for _ in range(25):
            x = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=5)
            u = U @ rng.uniform(-0.5, 0.5, size=U.shape[1])
            fx = model.f(x)
            fxu = model.f(x + u)
            assert abs(fxu - fx) <= 1e-9 * (1.0 + abs(fx))
