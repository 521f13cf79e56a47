"""Ridge evaluation, the semi-empirical split, and constancy directions."""

import numpy as np
import pytest

from ridgelaw.errors import ModelError
from ridgelaw.ridge import (
    RidgeModel,
    SemiEmpiricalModel,
    constancy_directions,
    ridge_eval,
    semi_empirical_eval,
)


class TestRidgeEval:
    def test_coordinate_projection(self):
        model = RidgeModel(A=np.eye(3)[:, :2], profile=lambda y: float(np.sum(y)))
        assert ridge_eval(model, [3.0, 4.0, 7.0]) == 7.0

    def test_constant_along_orthogonal_directions(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 2))
        model = RidgeModel(A=A, profile=lambda y: float(np.cos(y[0]) + y[1] ** 2))
        x = rng.normal(size=4)
        U = constancy_directions(A)
        u = U @ rng.normal(size=U.shape[1])
        assert ridge_eval(model, x + u) == pytest.approx(ridge_eval(model, x), rel=1e-12)

    def test_quadratic_profile(self):
        model = RidgeModel(A=np.array([[1.0], [1.0]]), profile=lambda y: float(y[0] ** 2))
        assert ridge_eval(model, [1.0, 2.0]) == pytest.approx(9.0)

    def test_dimension_mismatch_rejected(self):
        model = RidgeModel(A=np.eye(2), profile=lambda y: 0.0)
        with pytest.raises(ModelError):
            ridge_eval(model, [1.0, 2.0, 3.0])

    def test_rank_deficient_A_rejected(self):
        with pytest.raises(ModelError):
            RidgeModel(A=np.array([[1.0, 2.0], [2.0, 4.0]]), profile=lambda y: 0.0)


class TestSemiEmpiricalEval:
    w = np.array([0.0, -1.0, 2.0, 0.0, 1.0])  # laminar monomial exponents

    def test_monomial_part_alone(self):
        model = SemiEmpiricalModel(w=self.w, W=np.zeros((5, 0)), g=lambda y: 1.0)
        q = np.array([123.0, 1.0, 1.0, 0.7, 32.0])
        assert semi_empirical_eval(model, q) == pytest.approx(32.0, rel=1e-14)

    def test_reproduces_laminar_velocity(self):
        model = SemiEmpiricalModel(w=self.w, W=np.zeros((5, 0)), g=lambda y: 1.0 / 32.0)
        q = np.array([0.12, 1e-5, 1.0, 0.01, 3.2e-8])
        assert semi_empirical_eval(model, q) == pytest.approx(1e-4, rel=1e-13)

    def test_all_ones_input_returns_g_at_zero(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        model = SemiEmpiricalModel(w=self.w, W=W, g=lambda y: 5.0 + float(np.sum(y)))
        assert semi_empirical_eval(model, np.ones(5)) == pytest.approx(5.0)

    def test_nonpositive_input_rejected(self):
        model = SemiEmpiricalModel(w=self.w, W=np.zeros((5, 0)), g=lambda y: 1.0)
        with pytest.raises(ModelError):
            semi_empirical_eval(model, np.array([1.0, 0.0, 1.0, 1.0, 1.0]))

    def test_homogeneous_scaling_splits_off_the_prefactor(self, laminar_model):
        # rescale q by c with log c orthogonal to the pi-group exponents: the
        # output must scale by exactly the monomial factor exp(w . log c)
        decomp = laminar_model.decomposition
        w = decomp.w_float()
        W = decomp.W_float()
        model = SemiEmpiricalModel(w=w, W=W, g=lambda y: 1.3 + 0.2 * float(np.sin(y[0]) + y[1]))
        rng = np.random.default_rng(11)
        q = np.exp(rng.uniform(-1.0, 1.0, size=5))
        # rows of D are orthogonal to null columns, so log c = D^T y works
        from ridgelaw.pigroups import build_dimension_matrix

        Df = build_dimension_matrix(laminar_model.spec.quantities).to_float()
        log_c = Df.T @ rng.uniform(-0.4, 0.4, size=3)
        c = np.exp(log_c)
        expected = np.exp(w @ log_c) * semi_empirical_eval(model, q)
        assert semi_empirical_eval(model, c * q) == pytest.approx(expected, rel=1e-11)


class TestConstancyDirections:
    def test_single_axis(self):
        U = constancy_directions(np.array([[1.0], [0.0]]))
        assert U.shape == (2, 1)
        assert abs(abs(U[1, 0]) - 1.0) < 1e-14
        assert abs(U[0, 0]) < 1e-14

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
