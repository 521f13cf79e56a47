"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the status lines.

Two criteria are implemented exactly as stated and are expected to FAIL,
because the stated bounds contradict what the model family actually does;
the analysis lives next to each test:

* criterion 4 pins the log-log slope of the squared inclusion residual to
  ~1, but the squared residual provably decays at second order (the residual
  norm itself is the first-order quantity);
* criterion 5 demands 1e-8 eigenvalue stabilization between quadrature
  orders 9 and 11 on the turbulent box, but the laminar/turbulent branch
  discontinuity inside that box limits stabilization to ~1e-2..1e-4 (the
  same pipeline stabilizes to ~1e-11 when the switch is disabled, so the
  quadrature itself is not the limit).
"""

import time

import numpy as np
import pytest

from ridgelaw.activesubspace import (
    eigendecompose,
    estimate_C,
    fd_gradient,
    pullback_T,
)
from ridgelaw.models import load_model
from ridgelaw.pigroups import build_dimension_matrix, pi_decomposition
from ridgelaw.pipeflow import RE_CRITICAL, bind_builtin
from ridgelaw.quadrature import tensor_grid
from ridgelaw.subspace import constancy_directions, convergence_sweep, inclusion_residual
from tests.conftest import CLASSICAL_PIPE_W, exact_matvec

H_DEFAULT = 1e-5
SWEEP_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

# -- baselines frozen from an initial oracle run of this exact pipeline ------
# turbulent lambda_4 / lambda_1 at quadrature order 11, h = 1e-5
LAMBDA4_RATIO_BASELINE = 3.18e-15
# fraction of order-11 turbulent-box points routed to the turbulent branch
TURBULENT_FRACTION_BASELINE = 0.97572


def v_turbulent(rho, mu, diam, eps, dpdl):
    """The explicit Colebrook-derived velocity, written out here as an oracle."""
    prefactor = -2.0 * np.sqrt(2.0 * diam * dpdl / rho)
    return prefactor * np.log10(eps / (3.7 * diam) + 2.51 * mu / diam**1.5 / np.sqrt(2.0 * rho * dpdl))


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} [{detail}]")


@pytest.fixture(scope="module")
def est11_laminar(laminar_model):
    return eigendecompose(estimate_C(laminar_model.f, laminar_model.grid(11), H_DEFAULT))


@pytest.fixture(scope="module")
def est11_turbulent(turbulent_model):
    return eigendecompose(estimate_C(turbulent_model.f, turbulent_model.grid(11), H_DEFAULT))


def test_criterion_1_exact_pi_decomposition(laminar_model):
    started = time.perf_counter()
    quantities = laminar_model.spec.quantities
    D = build_dimension_matrix(quantities)
    target = laminar_model.spec.qoi
    decomp = pi_decomposition(D, target)
    w, W = decomp.w, decomp.W
    elapsed_ms = (time.perf_counter() - started) * 1e3

    display = (
        tuple(map(int, (1, 1, 0, 0, 1))),
        tuple(map(int, (-3, -1, 1, 1, -2))),
        tuple(map(int, (0, -1, 0, 0, -2))),
    )
    entries_match = tuple(tuple(int(x) for x in row) for row in D.entries) == display
    rank_ok = decomp.rank == 3
    dw_exact = exact_matvec(D.entries, w) == list(target.exponents)
    dW_exact = all(
        exact_matvec(D.entries, [row[j] for row in W]) == [0, 0, 0] for j in range(2)
    )
    Wf = np.array([[float(x) for x in row] for row in W])
    r_forward = inclusion_residual(Wf, CLASSICAL_PIPE_W).total
    r_backward = inclusion_residual(CLASSICAL_PIPE_W, Wf).total
    spaces_ok = r_forward <= 1e-24 and r_backward <= 1e-24

    ok = entries_match and rank_ok and dw_exact and dW_exact and spaces_ok
    report(
        1,
        "exact pi decomposition",
        ok,
        f"rank=3 exact, directed r2 = {r_forward:.2e}/{r_backward:.2e}, {elapsed_ms:.1f} ms",
    )
    assert entries_match, "dimension matrix does not match the reference display"
    assert rank_ok
    assert dw_exact and dW_exact, "exact arithmetic identities violated"
    assert spaces_ok, (r_forward, r_backward)
    assert elapsed_ms < 1000.0


def test_criterion_2_laminar_spectrum(laminar_model, est11_laminar):
    lam11 = est11_laminar.eigenvalues
    ratio_h5 = lam11[1] / lam11[0]
    est11_h7 = eigendecompose(estimate_C(laminar_model.f, laminar_model.grid(11), 1e-7))
    ratio_h7 = est11_h7.eigenvalues[1] / est11_h7.eigenvalues[0]

    started = time.perf_counter()
    est7_h5 = eigendecompose(estimate_C(laminar_model.f, laminar_model.grid(7), 1e-5))
    est7_h7 = eigendecompose(estimate_C(laminar_model.f, laminar_model.grid(7), 1e-7))
    order7_seconds = time.perf_counter() - started
    ratio7_h5 = est7_h5.eigenvalues[1] / est7_h5.eigenvalues[0]
    ratio7_h7 = est7_h7.eigenvalues[1] / est7_h7.eigenvalues[0]

    ok = (
        ratio_h5 <= 1e-6
        and ratio_h7 <= 1e-8
        and ratio7_h5 <= 1e-5
        and ratio7_h7 <= 1e-7
        and order7_seconds < 60.0
    )
    report(
        2,
        "laminar spectrum",
        ok,
        f"l2/l1 = {ratio_h5:.2e} (h=1e-5), {ratio_h7:.2e} (h=1e-7), "
        f"order-7 variants {ratio7_h5:.2e}/{ratio7_h7:.2e} in {order7_seconds:.1f}s",
    )
    assert lam11[0] > 0.0
    assert ratio_h5 <= 1e-6
    assert ratio_h7 <= 1e-8
    # desk-scale variant: same ratios within a factor of 10
    assert ratio7_h5 <= 1e-5
    assert ratio7_h7 <= 1e-7
    assert order7_seconds < 60.0


def test_criterion_3_turbulent_spectrum(turbulent_model, est11_turbulent):
    lam = est11_turbulent.eigenvalues
    ratio3 = lam[2] / lam[0]
    ratio4 = lam[3] / lam[0]
    est_h6 = eigendecompose(estimate_C(turbulent_model.f, turbulent_model.grid(11), 1e-6))
    ratio4_h6 = est_h6.eigenvalues[3] / est_h6.eigenvalues[0]

    ok = (
        ratio3 >= 1e-6
        and ratio4 <= 1e-8
        and ratio4_h6 < ratio4
        and ratio4 <= 2.0 * LAMBDA4_RATIO_BASELINE
    )
    report(
        3,
        "turbulent spectrum",
        ok,
        f"l3/l1 = {ratio3:.2e}, l4/l1 = {ratio4:.2e} (baseline {LAMBDA4_RATIO_BASELINE:.2e}), "
        f"l4/l1 = {ratio4_h6:.2e} at h=1e-6",
    )
    assert ratio3 >= 1e-6, "need three genuinely active directions"
    assert ratio4 <= 1e-8, "fourth eigenvalue must sit at the noise floor"
    assert ratio4_h6 < ratio4, "noise floor must tighten as h decreases"
    assert ratio4 <= 2.0 * LAMBDA4_RATIO_BASELINE, "fourth-eigenvalue floor regressed"


def test_criterion_4_inclusion_convergence():
    # Stated requirement: log-log slope of r2(h) in [0.8, 1.2] for both
    # regimes. The squared residual cannot do that: for the laminar monomial
    # the forward-difference gradient is exactly f(x) * (exp(h a_i) - 1) / h,
    # a fixed direction with an O(h) angle error, so r2 = sin^2(angle) falls
    # at slope 2 (the residual NORM falls at slope 1). Measured slopes are
    # ~2.0 (laminar) and ~3.6 (turbulent, whose large-h points are inflated
    # by finite-difference stencils straddling the regime switch). This test
    # keeps the stated bounds and is expected to fail; the monotonicity part
    # holds.
    results = {}
    for regime in ("laminar", "turbulent"):
        results[regime] = convergence_sweep(bind_builtin(load_model(regime)), SWEEP_STEPS, quad_order=11)
    slopes = {regime: res.slope for regime, res in results.items()}
    monotone = {
        regime: all(r_a > r_b for (_, r_a), (_, r_b) in zip(res.entries, res.entries[1:]))
        for regime, res in results.items()
    }
    ok = all(monotone.values()) and all(0.8 <= s <= 1.2 for s in slopes.values())
    report(
        4,
        "inclusion convergence O(h)",
        ok,
        f"slopes: laminar {slopes['laminar']:.3f}, turbulent {slopes['turbulent']:.3f} "
        f"(required [0.8, 1.2]); monotone: {monotone}",
    )
    assert all(monotone.values()), f"r2 must decrease across the sweep: {results}"
    for regime, slope in slopes.items():
        assert 0.8 <= slope <= 1.2, (
            f"{regime}: slope of log r2 vs log h is {slope:.3f}, outside [0.8, 1.2]; "
            f"r2 decays at second order (the residual norm at first order), "
            f"entries: {[(h, f'{r2:.3e}') for h, r2 in results[regime].entries]}"
        )


def test_criterion_5_quadrature_stabilization(turbulent_model, est11_turbulent):
    # Stated requirement: top-3 turbulent eigenvalues change by <= 1e-8
    # between quadrature orders 9 and 11. The turbulent box contains a
    # laminar corner (~2.4% of points) and the branch switch makes the
    # integrand discontinuous, which caps tensor Gauss-Legendre agreement
    # near 1e-2..1e-4 for these eigenvalues. With the switch removed the
    # same pipeline agrees to ~1e-11, so the limit is the model's
    # discontinuity, not the quadrature. Expected to fail as stated.
    est9 = eigendecompose(estimate_C(turbulent_model.f, turbulent_model.grid(9), H_DEFAULT))
    top11 = est11_turbulent.eigenvalues[:3]
    top9 = est9.eigenvalues[:3]
    rel_changes = np.abs(top11 - top9) / top11
    ok = bool(np.all(rel_changes <= 1e-8))
    report(
        5,
        "quadrature stabilization",
        ok,
        "rel changes 9->11: " + ", ".join(f"{r:.2e}" for r in rel_changes) + " (required <= 1e-8)",
    )
    assert np.all(rel_changes <= 1e-8), (
        f"top-3 eigenvalue changes between orders 9 and 11 are {rel_changes}, "
        "limited by the regime-switch discontinuity rather than quadrature accuracy"
    )


def test_criterion_6_turbulent_occupancy(turbulent_model):
    grid = turbulent_model.grid(11)
    X, _ = grid.chunk(0, len(grid))
    q = np.exp(X)
    v_tur = v_turbulent(q[:, 0], q[:, 1], q[:, 2], q[:, 3], q[:, 4])
    re = q[:, 0] * v_tur * q[:, 2] / q[:, 1]
    fraction = float(np.mean(re > RE_CRITICAL))
    ok = 0.95 <= fraction <= 1.0 and abs(fraction - TURBULENT_FRACTION_BASELINE) <= 0.01
    report(
        6,
        "turbulent occupancy",
        ok,
        f"fraction = {fraction:.5f} (band [0.95, 1.00], pinned {TURBULENT_FRACTION_BASELINE} +/- 0.01)",
    )
    assert 0.95 <= fraction <= 1.0
    assert abs(fraction - TURBULENT_FRACTION_BASELINE) <= 0.01


def test_criterion_7_physics_oracles(laminar_model, turbulent_model):
    # laminar box: every point must satisfy f * Re = 64 exactly up to rounding
    grid = laminar_model.grid(11)
    X, _ = grid.chunk(0, len(grid))
    q = np.exp(X)
    rho, mu, diam, eps, dpdl = (q[:, i] for i in range(5))
    v_tur = v_turbulent(rho, mu, diam, eps, dpdl)
    assert np.all(rho * v_tur * diam / mu <= RE_CRITICAL), "laminar box leaked turbulent points"
    v = laminar_model.f(X)
    f_re = (dpdl * diam / (0.5 * rho * v * v)) * (rho * v * diam / mu)
    poiseuille_err = float(np.max(np.abs(f_re - 64.0) / 64.0))

    # turbulent box: every point routed to the turbulent branch must satisfy
    # the implicit Colebrook relation after back-substitution
    grid = turbulent_model.grid(11)
    X, _ = grid.chunk(0, len(grid))
    q = np.exp(X)
    rho, mu, diam, eps, dpdl = (q[:, i] for i in range(5))
    v_tur = v_turbulent(rho, mu, diam, eps, dpdl)
    mask = rho * v_tur * diam / mu > RE_CRITICAL
    v = turbulent_model.f(X)[mask]
    rho, mu, diam, eps, dpdl = rho[mask], mu[mask], diam[mask], eps[mask], dpdl[mask]
    friction = dpdl * diam / (0.5 * rho * v * v)
    re = rho * v * diam / mu
    lhs = 1.0 / np.sqrt(friction)
    rhs = -2.0 * np.log10(eps / (3.7 * diam) + 2.51 / (re * np.sqrt(friction)))
    colebrook_err = float(np.max(np.abs(lhs - rhs)))

    ok = poiseuille_err <= 1e-12 and colebrook_err <= 1e-12
    report(
        7,
        "physics oracles",
        ok,
        f"max |f Re - 64| / 64 = {poiseuille_err:.2e}, max Colebrook residual = {colebrook_err:.2e}",
    )
    assert poiseuille_err <= 1e-12
    assert colebrook_err <= 1e-12


def test_criterion_8_property_suites(laminar_model):
    # quadrature polynomial exactness, degree <= 2 * order - 1
    rng = np.random.default_rng(123)
    order = 5
    grid = tensor_grid(order, [(-1.0, 2.0), (0.5, 1.5)])
    X, w = grid.chunk(0, len(grid))
    quad_err = 0.0
    for _ in range(10):
        degs = rng.integers(0, 2 * order, size=2)
        estimate = float(w @ (X[:, 0] ** degs[0] * X[:, 1] ** degs[1]))
        exact = 1.0
        for (lo, hi), d in zip(grid.bounds, degs):
            exact *= (hi ** (d + 1) - lo ** (d + 1)) / ((d + 1) * (hi - lo))
        quad_err = max(quad_err, abs(estimate - exact) / max(1.0, abs(exact)))

    # eigensolver against hand-solved cases
    vals2 = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]])).eigenvalues
    eig_err = float(np.max(np.abs(np.sort(vals2) - np.array([1.0, 3.0]))))
    vals3 = eigendecompose(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])).eigenvalues
    eig_err = max(eig_err, float(np.max(np.abs(np.sort(vals3) - np.array([1.0, 3.0, 5.0])))))

    # ridge constancy on the pipe model in log space
    A = laminar_model.decomposition.A_float()
    U = constancy_directions(A)
    lo = np.array([b[0] for b in laminar_model.spec.log_bounds()])
    hi = np.array([b[1] for b in laminar_model.spec.log_bounds()])
    ridge_err = 0.0
    for _ in range(10):
        x = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=5)
        u = U @ rng.uniform(-0.5, 0.5, size=2)
        fx = laminar_model.f(x)
        ridge_err = max(ridge_err, abs(laminar_model.f(x + u) - fx) / (1.0 + abs(fx)))

    # forward differences are exact on (affine-)linear functions
    a = np.array([1.5, -2.0, 0.5])
    g = fd_gradient(lambda x: float(a @ x) + 3.0, np.array([0.2, -0.4, 1.0]), 1e-5)
    fd_err = float(np.max(np.abs(g - a)))

    # inclusion metric is invariant under enclosing-basis changes
    B1 = rng.normal(size=(6, 2))
    B2 = rng.normal(size=(6, 3))
    M = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    basis_err = abs(
        inclusion_residual(B1, B2).total - inclusion_residual(B1, B2 @ M).total
    )

    ok = (
        quad_err <= 1e-11
        and eig_err <= 1e-12
        and ridge_err <= 1e-9
        and fd_err <= 1e-9
        and basis_err <= 1e-12
    )
    report(
        8,
        "property suites",
        ok,
        f"quad {quad_err:.1e}, eig {eig_err:.1e}, ridge {ridge_err:.1e}, "
        f"fd {fd_err:.1e}, basis-invariance {basis_err:.1e}",
    )
    assert quad_err <= 1e-11
    assert eig_err <= 1e-12
    assert ridge_err <= 1e-9
    assert fd_err <= 1e-9
    assert basis_err <= 1e-12


def test_criterion_9_pullback_cross_check(laminar_model, turbulent_model, est11_laminar, est11_turbulent):
    # the finite-difference bias scale h * lambda_1 is the accuracy floor of
    # both estimates; the two routes must agree within 10x of it
    details = []
    ok = True
    for model, est in ((laminar_model, est11_laminar), (turbulent_model, est11_turbulent)):
        Q = np.linalg.qr(model.decomposition.A_float())[0]

        def profile(y, Q=Q, f=model.f):
            return f(np.asarray(y) @ Q.T)

        T = pullback_T(profile, Q, model.grid(11), H_DEFAULT)
        estT = eigendecompose(T)
        n = T.shape[0]
        diffs = np.abs(estT.eigenvalues - est.eigenvalues[:n])
        floor = H_DEFAULT * est.eigenvalues[0]
        ok = ok and bool(np.all(diffs <= 10.0 * floor))
        details.append(f"{model.name}: max diff {diffs.max():.2e} vs floor {10.0 * floor:.2e}")
        assert np.all(diffs <= 10.0 * floor), (model.name, diffs, floor)
    report(9, "pullback cross-check", ok, "; ".join(details))
