"""Finite-difference gradients, C estimation, and the Jacobi eigensolver."""

import math

import numpy as np
import pytest

from ridgelaw.activesubspace import (
    GradientConfig,
    active_subspace,
    eigendecompose,
    estimate_C,
    estimate_subspace,
    estimate_subspaces,
    fd_gradient,
    pullback_T,
    _gradient_outer_sums,
    _jacobi_eigh,
)
from ridgelaw.errors import EvaluationError, NumericalError
from ridgelaw.quadrature import TensorGrid, tensor_grid
from ridgelaw.subspace import inclusion_residual

CFG = GradientConfig(h=1e-5)


class TestFdGradient:
    def test_constant_function(self):
        g = fd_gradient(lambda x: 4.2, np.zeros(3), CFG)
        assert np.array_equal(g, np.zeros(3))

    def test_linear_function_is_exact(self):
        a = np.array([2.0, -0.5, 0.25])
        g = fd_gradient(lambda x: float(a @ x), np.array([0.5, 0.25, -1.0]), CFG)
        assert g == pytest.approx(a, abs=1e-10)

    def test_quadratic_has_first_order_bias(self):
        cfg = GradientConfig(h=1e-3)
        g = fd_gradient(lambda x: float(x[0] ** 2), np.array([1.0]), cfg)
        assert g[0] == pytest.approx(2.001, abs=1e-10)

    def test_nonfinite_value_carries_the_point(self):
        def f(x):
            return math.inf if x[0] > 0.5 else 1.0

        with pytest.raises(EvaluationError) as err:
            fd_gradient(f, np.array([0.5 - 1e-6, 0.0]), GradientConfig(h=1e-3))
        assert err.value.point is not None
        assert err.value.point[0] > 0.5

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            GradientConfig(h=0.0)


class TestEstimateC:
    def test_linear_function_gives_rank_one_outer_product(self):
        a = np.array([1.0, -2.0, 0.5])
        grid = tensor_grid(3, [(-1.0, 1.0)] * 3)
        C = estimate_C(lambda x: x @ a, grid, CFG)
        assert C == pytest.approx(np.outer(a, a), abs=1e-9)

    def test_ridge_function_energy_stays_in_span(self):
        rng = np.random.default_rng(5)
        A = np.linalg.qr(rng.normal(size=(4, 2)))[0]

        def f(x):
            y = np.asarray(x) @ A
            return np.sin(y[..., 0]) + y[..., 1] ** 2 + 0.3 * y[..., 0] * y[..., 1]

        grid = tensor_grid(5, [(-1.0, 1.0)] * 4)
        est = eigendecompose(estimate_C(f, grid, GradientConfig(h=1e-6)))
        lam = est.eigenvalues
        assert lam[2] / lam[0] < 1e-9  # rank at most n = 2 up to FD noise
        basis = est.eigenvectors[:, :2]
        assert inclusion_residual(basis, A).total < 1e-9

    def test_additive_squares_give_diagonal_C(self):
        grid = tensor_grid(6, [(-1.0, 1.0), (-1.0, 1.0)])
        C = estimate_C(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2, grid, CFG)
        assert abs(C[0, 1]) < 1e-9
        assert C[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-3)  # E[(2x)^2], x uniform

    def test_scalar_only_functions_are_supported(self):
        a = np.array([1.0, 2.0])
        grid = tensor_grid(3, [(0.0, 1.0)] * 2)

        def scalar_f(x):
            assert np.asarray(x).ndim == 1
            return float(a @ x)

        C = estimate_C(scalar_f, grid, CFG)
        assert C == pytest.approx(np.outer(a, a), abs=1e-9)

    def test_deterministic_and_thread_count_invariant(self):
        def f(x):
            return np.exp(0.3 * x[..., 0]) * np.cos(x[..., 1]) + x[..., 2] ** 3

        grid = tensor_grid(7, [(-1.0, 1.0)] * 3)
        c1 = estimate_C(f, grid, CFG, threads=1, chunk_size=64)
        c2 = estimate_C(f, grid, CFG, threads=1, chunk_size=64)
        c3 = estimate_C(f, grid, CFG, threads=4, chunk_size=64)
        assert np.array_equal(c1, c2)
        assert np.array_equal(c1, c3)

    def test_symmetric_by_construction(self):
        grid = tensor_grid(4, [(-1.0, 1.0)] * 3)
        C = estimate_C(lambda x: np.sin(x[..., 0] * x[..., 1]) + x[..., 2], grid, CFG)
        assert np.array_equal(C, C.T)


class TestMultiStepPass:
    STEPS = (1e-2, 1e-3, 1e-2, 1e-5)  # 1e-2 repeats

    @staticmethod
    def f(x):
        return np.exp(0.3 * x[..., 0]) * np.cos(x[..., 1]) + x[..., 2] ** 3

    @pytest.mark.parametrize("threads", [1, 4])
    def test_each_step_equals_its_one_step_estimate(self, threads):
        grid = tensor_grid(7, [(-1.0, 1.0)] * 3)
        sums = _gradient_outer_sums(self.f, grid, self.STEPS, None, threads, 64)
        ests = estimate_subspaces(self.f, grid, self.STEPS, threads=threads, chunk_size=64)
        assert len(ests) == len(self.STEPS)
        for h, C, est in zip(self.STEPS, sums, ests):
            cfg = GradientConfig(h=h)
            assert np.array_equal(C, estimate_C(self.f, grid, cfg, threads=1, chunk_size=64))
            one = estimate_subspace(self.f, grid, cfg, threads=1, chunk_size=64)
            assert np.array_equal(est.eigenvalues, one.eigenvalues)
            assert np.array_equal(est.eigenvectors, one.eigenvectors)
            assert est.grid_meta == one.grid_meta
        assert ests[0] is ests[2]

    def test_lifted_steps_equal_pullback(self):
        grid = tensor_grid(5, [(-1.0, 1.0)] * 3)
        A = np.linalg.qr(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))[0]
        g = lambda y: np.sin(y[..., 0]) * y[..., 1] ** 2
        sums = _gradient_outer_sums(g, grid, [1e-3, 1e-6], A, 1, 64)
        for h, T in zip([1e-3, 1e-6], sums):
            assert np.array_equal(T, pullback_T(g, A, grid, GradientConfig(h=h), chunk_size=64))

    def test_one_chunk_call_and_one_plus_m_s_evaluations_per_chunk(self, monkeypatch):
        grid = tensor_grid(3, [(-1.0, 1.0)] * 3)  # 27 points: chunks of 8, 8, 8, 3
        chunk_calls = []
        original_chunk = TensorGrid.chunk

        def counting_chunk(grid_self, start, stop):
            chunk_calls.append((start, stop))
            return original_chunk(grid_self, start, stop)

        monkeypatch.setattr(TensorGrid, "chunk", counting_chunk)
        rows = []

        def counting_f(x):
            rows.append(x.shape[0])
            return self.f(x)

        estimate_subspaces(counting_f, grid, self.STEPS, chunk_size=8)
        assert chunk_calls == [(0, 8), (8, 16), (16, 24), (24, 27)]
        per_chunk = 1 + grid.ndim * 3  # three distinct steps
        assert rows == [8] * (3 * per_chunk) + [3] * per_chunk

    def test_nonpositive_step_rejected(self):
        grid = tensor_grid(3, [(-1.0, 1.0)] * 2)
        with pytest.raises(ValueError, match="positive"):
            estimate_subspaces(lambda x: x[..., 0], grid, [1e-3, 0.0])


class TestEigendecompose:
    def test_identity(self):
        est = eigendecompose(np.eye(3))
        assert est.eigenvalues == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)
        assert np.allclose(est.eigenvectors.T @ est.eigenvectors, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        est = eigendecompose(np.diag([4.0, 1.0]))
        assert est.eigenvalues == pytest.approx([4.0, 1.0], abs=1e-14)
        assert abs(abs(est.eigenvectors[0, 0]) - 1.0) < 1e-14

    def test_two_by_two_hand_solved(self):
        est = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert est.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-12)
        u = est.eigenvectors[:, 0]
        assert abs(abs(u @ [1 / math.sqrt(2), 1 / math.sqrt(2)]) - 1.0) < 1e-12

    def test_three_by_three_hand_solved(self):
        # eigenvalues of [[2,1,0],[1,2,0],[0,0,5]] are 5, 3, 1
        C = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        est = eigendecompose(C)
        assert est.eigenvalues == pytest.approx([5.0, 3.0, 1.0], abs=1e-12)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_tiny_negative_eigenvalues_are_clamped(self):
        rng = np.random.default_rng(2)
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        C = Q @ np.diag([1.0, 1e-16, -1e-16]) @ Q.T
        C = (C + C.T) / 2.0
        est = eigendecompose(C)
        assert est.clamped
        assert np.all(est.eigenvalues >= 0.0)

    def test_genuinely_negative_eigenvalue_aborts(self):
        with pytest.raises(NumericalError, match="not PSD"):
            eigendecompose(np.diag([1.0, -0.5]))

    def test_jacobi_matches_lapack_on_random_psd(self):
        rng = np.random.default_rng(8)
        for m in (2, 3, 5, 8):
            B = rng.normal(size=(m, m))
            C = B.T @ B
            values, vectors = _jacobi_eigh(C)
            ref = np.sort(np.linalg.eigvalsh(C))[::-1]
            got = np.sort(values)[::-1]
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
            assert np.allclose(vectors.T @ vectors, np.eye(m), atol=1e-10)
            for lam, u in zip(values, vectors.T):
                assert np.linalg.norm(C @ u - lam * u) <= 1e-10 * max(ref[0], 1.0)

    def test_eigen_residuals_on_estimated_matrix(self):
        grid = tensor_grid(5, [(-1.0, 1.0)] * 3)
        C = estimate_C(lambda x: np.cos(x[..., 0]) + x[..., 1] * x[..., 2], grid, CFG)
        est = eigendecompose(C)
        for lam, u in zip(est.eigenvalues, est.eigenvectors.T):
            assert np.linalg.norm(C @ u - lam * u) <= 1e-10 * est.eigenvalues[0]


class TestActiveSubspace:
    def test_leading_direction_of_diagonal(self):
        est = eigendecompose(np.diag([4.0, 1.0]))
        U = active_subspace(est, 1)
        assert abs(abs(U[0, 0]) - 1.0) < 1e-14

    def test_no_gap_is_rejected_with_advice(self):
        est = eigendecompose(np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(NumericalError, match="different k"):
            active_subspace(est, 1)

    def test_k_bounds(self):
        est = eigendecompose(np.diag([4.0, 1.0]))
        with pytest.raises(ValueError):
            active_subspace(est, 2)
        with pytest.raises(ValueError):
            active_subspace(est, 0)


class TestPullbackT:
    def test_linear_profile_gives_rank_one(self):
        rng = np.random.default_rng(4)
        A = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        grid = tensor_grid(3, [(-1.0, 1.0)] * 4)
        T = pullback_T(lambda y: y @ np.array([1.0, 2.0]), A, grid, CFG)
        assert T == pytest.approx(np.outer([1.0, 2.0], [1.0, 2.0]), abs=1e-9)

    def test_one_dimensional_pullback_matches_lifted_lambda1(self):
        rng = np.random.default_rng(6)
        A = np.linalg.qr(rng.normal(size=(3, 1)))[0]

        def g(y):
            y = np.asarray(y)
            return np.sin(y[..., 0]) + 0.5 * y[..., 0] ** 2

        def f(x):
            return g(np.asarray(x) @ A)

        grid = tensor_grid(7, [(-1.0, 1.0)] * 3)
        cfg = GradientConfig(h=1e-7)  # FD bias differs between the two routes at O(h)
        T = pullback_T(g, A, grid, cfg)
        est = eigendecompose(estimate_C(f, grid, cfg))
        assert T[0, 0] == pytest.approx(est.eigenvalues[0], rel=1e-5)

    def test_non_orthonormal_A_rejected(self):
        grid = tensor_grid(2, [(-1.0, 1.0)] * 2)
        with pytest.raises(ValueError, match="orthonormal"):
            pullback_T(lambda y: y[..., 0], np.array([[2.0], [0.0]]), grid, CFG)


def test_forward_difference_error_is_first_order():
    # on a smooth function the FD error must shrink linearly in h
    point = np.array([0.3, -0.2])

    def f(x):
        return math.exp(0.5 * x[0]) * math.cos(x[1])

    exact = np.array(
        [0.5 * math.exp(0.5 * point[0]) * math.cos(point[1]),
         -math.exp(0.5 * point[0]) * math.sin(point[1])]
    )
    steps = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    errors = []
    for h in steps:
        g = fd_gradient(f, point, GradientConfig(h=h))
        errors.append(np.linalg.norm(g - exact))
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert abs(slope - 1.0) <= 0.15


def test_trailing_eigenvalues_stay_under_fd_noise_envelope(laminar_model, turbulent_model):
    # bulk velocity is a ridge of n+1 = 3 linear combinations (one for the
    # laminar monomial), so eigenvalues past that rank are pure FD noise;
    # c = 20 is the empirical envelope constant with 2x headroom
    c = 20.0
    for model, rank in ((laminar_model, 1), (turbulent_model, 3)):
        grid = model.grid(7)
        for h in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            lam = estimate_subspace(model.f, grid, GradientConfig(h=h)).eigenvalues
            assert lam[rank] / lam[0] <= c * h, (model.name, h, lam)


def test_estimate_subspace_records_grid_metadata():
    grid = tensor_grid(3, [(-1.0, 1.0)] * 2)
    est = estimate_subspace(lambda x: x[..., 0] + 2.0 * x[..., 1], grid, CFG)
    assert est.grid_meta.quad_order == 3
    assert est.grid_meta.fd_step == CFG.h
    assert est.grid_meta.point_count == 9
