"""Inclusion residuals and the convergence sweep."""

import numpy as np
import pytest

from ridgelaw.activesubspace import _estimate_subspaces, _shifted_values, eigendecompose, estimate_C
from ridgelaw.errors import ModelError, NumericalError
from ridgelaw.models import load_model
from ridgelaw.pipeflow import BuiltinModel, _terms, bind_builtin, combine
from ridgelaw.subspace import (
    SweepResult,
    convergence_sweep,
    fit_loglog_slope,
    inclusion_residual,
)


class TestInclusionResidual:
    def test_self_inclusion_is_zero(self):
        rng = np.random.default_rng(1)
        B2 = rng.normal(size=(5, 3))
        report = inclusion_residual(B2[:, :1], B2)
        assert report.total <= 1e-30

    def test_orthogonal_complement_has_unit_residual(self):
        B1 = np.array([[0.0], [0.0], [1.0]])
        B2 = np.eye(3)[:, :2]
        report = inclusion_residual(B1, B2)
        assert report.total == pytest.approx(1.0, abs=1e-15)

    def test_one_dimensional_basis_is_one_column(self):
        a = np.array([1.0, 0.0, 0.0])
        for B1, B2 in ((a, np.eye(3)[:, :2]), (a[:, None], a), (a, a)):
            report = inclusion_residual(B1, B2)
            assert report == inclusion_residual(np.reshape(B1, (3, -1)), np.reshape(B2, (3, -1)))
        assert inclusion_residual(np.array([0.0, 0.0, 1.0]), np.eye(3)[:, :2]).total == 1.0

    def test_total_is_sum_of_columns(self):
        rng = np.random.default_rng(2)
        B1 = rng.normal(size=(6, 2))
        B2 = rng.normal(size=(6, 3))
        report = inclusion_residual(B1, B2)
        assert report.total == pytest.approx(sum(report.per_column_residuals), rel=1e-15)
        assert report.total >= 0.0

    def test_invariant_under_enclosing_basis_change(self):
        rng = np.random.default_rng(3)
        B1 = rng.normal(size=(7, 2))
        B2 = rng.normal(size=(7, 4))
        M = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        r_a = inclusion_residual(B1, B2).total
        r_b = inclusion_residual(B1, B2 @ M).total
        assert abs(r_a - r_b) <= 1e-12 * max(1.0, r_a)

    def test_residual_orthogonal_to_enclosing_span(self):
        rng = np.random.default_rng(4)
        B1 = rng.normal(size=(6, 2))
        B2 = rng.normal(size=(6, 3))
        Q1 = np.linalg.qr(B1)[0]
        Q2 = np.linalg.qr(B2)[0]
        residual = Q1 - Q2 @ (Q2.T @ Q1)
        for i in range(residual.shape[1]):
            assert np.linalg.norm(B2.T @ residual[:, i]) <= 1e-12 * np.linalg.norm(Q1[:, i]) * np.linalg.norm(B2)

    def test_rank_deficient_enclosing_rejected(self):
        B1 = np.eye(3)[:, :1]
        B2 = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        with pytest.raises(ModelError, match="rank deficient"):
            inclusion_residual(B1, B2)

    @pytest.mark.parametrize("entry", [1e308, np.inf, np.nan])
    def test_non_finite_qr_factor_is_a_numerical_error(self, entry):
        # 1e308 entries overflow the Householder norm, so Q comes back non-finite
        B = np.array([[entry, 1e308], [1e308, -1e308]])
        with pytest.raises(NumericalError, match="candidate basis has a non-finite QR factor"):
            inclusion_residual(B, np.eye(2))
        with pytest.raises(NumericalError, match="enclosing basis has a non-finite QR factor"):
            inclusion_residual(np.eye(2)[:, :1], B)

    @pytest.mark.parametrize("side", ["candidate", "enclosing"])
    def test_three_dimensional_basis_rejected(self, side):
        bases = {"candidate": np.eye(2)[:, :1], "enclosing": np.eye(2)}
        bases[side] = np.ones((2, 2, 1))
        with pytest.raises(ModelError, match="^bases must be 2-d arrays with basis vectors as columns$"):
            inclusion_residual(bases["candidate"], bases["enclosing"])

    def test_candidate_larger_than_enclosing_rejected(self):
        with pytest.raises(ModelError):
            inclusion_residual(np.eye(3), np.eye(3)[:, :2])

    def test_equal_dimension_spaces_allowed(self):
        rng = np.random.default_rng(5)
        B = rng.normal(size=(4, 2))
        M = rng.normal(size=(2, 2)) + 3.0 * np.eye(2)
        assert inclusion_residual(B, B @ M).total <= 1e-28

    def test_per_column_residuals_follow_the_candidate_column_order(self):
        # each residual is that of a column of the candidate's Q factor; only the total is order-free
        rng = np.random.default_rng(4)
        B1 = rng.normal(size=(5, 2))
        B2 = rng.normal(size=(5, 3))
        forward, reversed_ = inclusion_residual(B1, B2), inclusion_residual(B1[:, ::-1], B2)
        assert forward.total == pytest.approx(reversed_.total, rel=1e-14)
        assert forward.per_column_residuals == pytest.approx((0.43243, 0.05752), abs=1e-5)
        assert reversed_.per_column_residuals == pytest.approx((0.01395, 0.47600), abs=1e-5)


def test_exact_ridge_with_analytic_gradients_has_rounding_level_residual():
    # bypass finite differences entirely: accumulate outer products of the
    # analytic gradient A grad g; the active subspace must then sit inside
    # span(A) at rounding level regardless of any step size
    rng = np.random.default_rng(7)
    A = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    points = rng.uniform(-1.0, 1.0, size=(400, 5))
    weights = np.full(400, 1.0 / 400.0)
    C = np.zeros((5, 5))
    for x, w in zip(points, weights):
        y = A.T @ x
        grad_g = np.array([np.cos(y[0]), 2.0 * y[1]])
        g = A @ grad_g
        C += w * np.outer(g, g)
    C = (C + C.T) / 2.0
    est = eigendecompose(C)
    basis = est.eigenvectors[:, :2]
    assert inclusion_residual(basis, A).total <= 1e-20


class TestFitLoglogSlope:
    def test_recovers_power_law(self):
        pairs = [(h, 3.0 * h**2) for h in (1e-2, 1e-3, 1e-4)]
        assert fit_loglog_slope(pairs) == pytest.approx(2.0, abs=1e-12)

    def test_rounding_floor_points_excluded(self):
        pairs = [(1e-2, 1e-4), (1e-3, 1e-6), (1e-4, 1e-30)]
        assert fit_loglog_slope(pairs) == pytest.approx(2.0, abs=1e-12)

    def test_too_few_points_gives_none(self):
        assert fit_loglog_slope([(1e-2, 1e-30), (1e-3, 1e-31)]) is None


class TestConvergenceSweep:
    def test_laminar_residuals_shrink_with_h(self):
        result = convergence_sweep(bind_builtin(load_model("laminar")), [1e-3, 1e-5], quad_order=5)
        assert isinstance(result, SweepResult)
        assert result.subspace_dim == 1
        (h1, r1), (h2, r2) = result.entries
        assert h1 > h2 and r1 > r2
        assert result.slope is not None and result.slope > 0.0

    def test_turbulent_uses_three_directions(self):
        result = convergence_sweep(bind_builtin(load_model("turbulent")), [1e-4, 1e-5], quad_order=5)
        assert result.subspace_dim == 3
        assert result.entries[0][1] > result.entries[1][1]

    def test_steps_must_be_positive_descending(self):
        # a bad step is a ValueError, the kernel's class, never a ModelError
        cases = [([1e-5, 1e-3], "strictly descending"), ([1e-3, -1e-5], "must be positive"), ([], r"got \[\]")]
        for steps, message in cases:
            with pytest.raises(ValueError, match=message) as excinfo:
                convergence_sweep(bind_builtin(load_model("laminar")), steps, quad_order=3)
            assert excinfo.type is ValueError

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError, match="neither a file nor one of the shipped models"):
            convergence_sweep(bind_builtin(load_model("plasma")), [1e-3], quad_order=3)

    def test_fd_step_estimate_comes_from_the_same_pass(self):
        model = bind_builtin(load_model("turbulent"))
        result = convergence_sweep(model, [1e-3, 1e-5], quad_order=3, fd_step=1e-4)
        alone = eigendecompose(estimate_C(model.f, model.grid(3), 1e-4))
        assert np.array_equal(result.estimate.eigenvalues, alone.eigenvalues)
        assert np.array_equal(result.estimate.eigenvectors, alone.eigenvectors)
        assert convergence_sweep(model, [1e-3, 1e-5], quad_order=3).estimate is None
        assert result.entries == convergence_sweep(model, [1e-3, 1e-5], quad_order=3).entries

    def test_sweep_uses_the_models_critical_reynolds_number(self):
        # at Re_c = 2000 no order-5 stencil straddles the switch at h = 1e-2,
        # so r2 there drops from O(1) to the O(h^2) forward-difference level
        default = convergence_sweep(bind_builtin(load_model("turbulent")), [1e-2], quad_order=5)
        lowered = convergence_sweep(bind_builtin(load_model("turbulent"), 2000.0), [1e-2], quad_order=5)
        assert default.entries[0][1] == pytest.approx(0.719, rel=1e-3)
        assert lowered.entries[0][1] == pytest.approx(3.80e-5, rel=1e-3)

    def test_the_re_crit_probes_route_a_mixed_box_and_no_turbulent_point(self):
        # the two --re-crit probes below, counted by the pass that the sweep runs
        laminar = bind_builtin(load_model("laminar"), 1e-300)
        turbulent = bind_builtin(load_model("turbulent"), 1e300)
        assert _estimate_subspaces(laminar.f, laminar.grid(3), [1e-3])[1] == 132  # of 243
        assert _estimate_subspaces(turbulent.f, turbulent.grid(3), [1e-3])[1] == 0

    # --re-crit moves the routing, and k follows it: the rank of the law's rows that the routed branches read
    def test_a_laminar_box_with_turbulent_points_tests_three_directions(self):
        result = convergence_sweep(bind_builtin(load_model("laminar"), 1e-300), [1e-3, 1e-5], quad_order=3)
        assert result.subspace_dim == 3
        assert result.slope == pytest.approx(2.0, abs=1e-2)

    def test_a_turbulent_box_without_turbulent_points_tests_one_direction(self):
        result = convergence_sweep(bind_builtin(load_model("turbulent"), 1e300), [1e-3, 1e-5], quad_order=3)
        assert result.subspace_dim == 1
        assert result.slope == pytest.approx(2.0, abs=1e-2)

    def test_a_model_function_that_reports_no_count_has_no_k(self):
        base = bind_builtin(load_model("laminar"))
        plain = BuiltinModel(base.spec, lambda x: base.f(x))
        with pytest.raises(ModelError, match=r"^model 'pipeflow_laminar': its function reports no routing count"):
            convergence_sweep(plain, [1e-3, 1e-5], quad_order=3)

    @pytest.mark.parametrize("regime, floor", [("laminar", 4.9e-3), ("turbulent", 9.7e-2)])
    def test_inhomogeneous_model_keeps_a_residual(self, regime, floor):
        # negative control: f * rho^0.3 is not dimensionally homogeneous, so its
        # active subspace leaves span(A) and r2 stays put as h shrinks, while
        # the homogeneous model's r2 falls to rounding level
        base = bind_builtin(load_model(regime))

        class Lurking:
            def __call__(self, x):
                return base.f(x) * np.exp(0.3 * x[..., 0])

            def fd_values(self, Y, steps, rows):
                # the plain path's values, with the routing count of the law it scales
                yield from _shifted_values(self, Y, steps, rows)
                return int(np.count_nonzero(combine(_terms(Y), base.f.re_critical)[1]))

        lurking = BuiltinModel(base.spec, Lurking())
        steps = [1e-4, 1e-5, 1e-6]
        r2 = [r for _, r in convergence_sweep(lurking, steps, quad_order=5).entries]
        assert r2[-1] >= 1e-3
        assert r2 == pytest.approx([floor] * 3, rel=2e-2)
        homogeneous = convergence_sweep(base, steps, quad_order=5).entries
        assert homogeneous[-1][1] <= 1e-12
