"""The pipe-flow virtual laboratory: velocity laws, regime switch, built-in models."""

import collections
import itertools
import json
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from ridgelaw import activesubspace, pipeflow, quadrature
from ridgelaw.activesubspace import estimate_C, estimate_subspaces, pullback_T
from ridgelaw.errors import ModelError
from ridgelaw.models import SHIPPED_MODELS, ModelSpec, load_model
from ridgelaw.pipeflow import (
    RE_CRITICAL,
    LogSpaceVelocity,
    _terms,
    bind_builtin,
    combine,
    evaluate_state,
)
from tests.conftest import exact_matvec


# a pipe state, in evaluate_state's argument order
State = collections.namedtuple("State", "rho mu diam eps dpdl")


# the package's two branches, each forced by an unreachable critical Reynolds number
def laminar(s):
    return evaluate_state(*s, re_critical=math.inf)[0]


def turbulent(s):
    return evaluate_state(*s, re_critical=-math.inf)[0]


def v_laminar(s):
    return laminar(s)["V"]


def v_turbulent(s):
    return turbulent(s)["V"]


def physical_terms(rho, mu, diam, eps, dpdl):
    """The pipe law's terms written out by hand: an oracle independent of PIPE_LAW."""
    return (
        math.sqrt(2.0 * diam * dpdl / rho),
        eps / (3.7 * diam),
        2.51 * mu / diam**1.5 / math.sqrt(2.0 * rho * dpdl),
        dpdl * diam * diam / (32.0 * mu),
        rho * diam / mu,
    )


def colebrook_residual(s):
    """Implicit Colebrook relation evaluated at the (f, Re) of the turbulent branch."""
    numbers = turbulent(s)
    f, re = numbers["f"], numbers["Re"]
    lhs = 1.0 / math.sqrt(f)
    rhs = -2.0 * math.log10(s.eps / (3.7 * s.diam) + 2.51 / (re * math.sqrt(f)))
    return abs(lhs - rhs)


class TestPipeState:
    def test_nonpositive_field_named(self):
        with pytest.raises(ModelError, match="mu"):
            evaluate_state(rho=1.0, mu=0.0, diam=1.0, eps=0.1, dpdl=1.0)

    def test_roughness_must_stay_below_diameter(self):
        with pytest.raises(ModelError, match="relative roughness must be below 1"):
            evaluate_state(rho=1.0, mu=1.0, diam=0.1, eps=0.1, dpdl=1.0)


class TestVLaminar:
    def test_closed_form_value(self):
        s = State(rho=0.12, mu=1e-5, diam=1.0, eps=0.01, dpdl=3.2e-8)
        assert v_laminar(s) == pytest.approx(1e-4, rel=1e-14)

    def test_doubling_diameter_quadruples_velocity(self):
        s1 = State(rho=0.1, mu=1e-5, diam=0.25, eps=0.01, dpdl=1e-8)
        s2 = State(rho=0.1, mu=1e-5, diam=0.5, eps=0.01, dpdl=1e-8)
        assert v_laminar(s2) == pytest.approx(4.0 * v_laminar(s1), rel=1e-14)

    def test_independent_of_density_and_roughness(self):
        base = State(rho=0.1, mu=1e-5, diam=0.5, eps=0.01, dpdl=1e-8)
        other = State(rho=0.14, mu=1e-5, diam=0.5, eps=0.05, dpdl=1e-8)
        assert v_laminar(base) == v_laminar(other)


class TestVTurbulent:
    def test_colebrook_back_substitution_oracle(self):
        s = State(rho=0.12, mu=5e-6, diam=0.5, eps=0.01, dpdl=1.0)
        assert colebrook_residual(s) <= 1e-12

    def test_colebrook_oracle_over_random_turbulent_states(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            s = State(
                rho=rng.uniform(0.1, 0.14),
                mu=rng.uniform(1e-6, 1e-5),
                diam=rng.uniform(0.1, 1.0),
                eps=rng.uniform(1e-3, 0.09),
                dpdl=rng.uniform(0.1, 10.0),
            )
            assert colebrook_residual(s) <= 1e-12

    def test_velocity_increases_as_roughness_vanishes(self):
        kwargs = dict(rho=0.12, mu=5e-6, diam=0.5, dpdl=1.0)
        velocities = [v_turbulent(State(eps=e, **kwargs)) for e in (0.05, 0.01, 1e-4, 1e-7)]
        assert all(a < b for a, b in zip(velocities, velocities[1:]))

    def test_log_factor_invariant_when_rho_dpdl_product_fixed(self):
        # the log argument depends on (rho * dPdL) only, so scaling rho by c
        # and dPdL by 1/c leaves it fixed and scales V by the prefactor ratio
        s1 = State(rho=0.12, mu=5e-6, diam=0.5, eps=0.01, dpdl=1.0)
        c = 1.15
        s2 = State(rho=0.12 * c, mu=5e-6, diam=0.5, eps=0.01, dpdl=1.0 / c)
        assert v_turbulent(s2) == pytest.approx(v_turbulent(s1) / c, rel=1e-13)

    def test_out_of_validity_state_is_flagged(self):
        # huge viscosity with a tiny pressure gradient pushes the log argument
        # past 1, where the formula stops producing a positive velocity; the
        # regime switch then routes the state to Poiseuille
        s = State(rho=0.1, mu=1e-5, diam=0.1, eps=1e-3, dpdl=1e-9)
        assert v_turbulent(s) <= 0.0
        assert evaluate_state(*s) == (laminar(s), "laminar")


class TestPipeLaw:
    def test_terms_match_the_physical_formulas(self, laminar_model, turbulent_model):
        rng = np.random.default_rng(5)
        for model in (laminar_model, turbulent_model):
            for _ in range(50):
                q = [rng.uniform(lo, hi) for lo, hi in model.spec.ranges()]
                got = [float(t) for t in _terms(np.log(q))]
                assert got == pytest.approx(physical_terms(*q), rel=1e-13)

    def test_terms_equal_the_multiplied_exponent_sums_within_rounding(self):
        # the terms' exponent sums are one matrix product, which BLAS may reassociate or fuse;
        # the bound is 4 ulps of the sum's magnitude |c| + sum |e_i x_i| (measured: 1.6)
        X = np.random.default_rng(6).uniform(-30.0, 30.0, size=(257, 5))
        X[0] = [0.0, -0.0, 1.0, -1.0, 1e-300]
        for x in (X, X[0], X[7]):
            got = _terms(x)
            assert got.shape == (5,) + np.shape(x)[:-1]
            for t, (_, log_coef, exponents, _) in zip(got, pipeflow.PIPE_LAW):
                s, magnitude = log_coef, abs(log_coef)
                for e, col in zip(exponents, np.asarray(x).T):
                    if e:
                        s, magnitude = s + e * col, magnitude + abs(e * col)
                assert np.all(np.abs(t / np.exp(s) - 1.0) <= 4 * np.finfo(float).eps * magnitude)

    def test_a_zero_quantity_gives_nan_in_the_terms_it_does_not_enter(self):
        # log(eps) = -inf enters only t1; the matrix product multiplies it by the other terms' zero exponents
        x = np.log([1.0, 1e-3, 0.1, 1e-4, 10.0])
        x[3] = -np.inf
        with np.errstate(invalid="ignore"):
            P, t1, t2, v_lam, re_per_v = _terms(x)
        assert t1 == 0.0
        assert np.isnan([P, t2, v_lam, re_per_v]).all()

    def test_combine_gives_the_bits_of_np_where(self):
        X = np.random.default_rng(7).uniform(-3.0, 3.0, size=(300, 5))
        for x in (X, X[0], X[1]):  # one point gives a 0-d V
            terms = _terms(x)
            P, t1, t2, v_lam, re_per_v = terms
            v_tur = -2.0 * P * np.log10(t1 + t2)
            want = np.where(re_per_v * v_tur > 1.0, v_tur, v_lam)
            v, turbulent = combine(terms, 1.0)
            assert v.shape == np.shape(x)[:-1] and v.tobytes() == want.tobytes()
            assert np.array_equal(turbulent, re_per_v * v_tur > 1.0)

    def test_velocity_matches_the_physical_formulas(self, turbulent_model):
        grid = turbulent_model.grid(5)
        X, _ = grid.chunk(0, len(grid))
        values = LogSpaceVelocity()(X)
        for x, v in zip(X, values):
            P, t1, t2, v_lam, re_per_v = physical_terms(*np.exp(x))
            v_tur = -2.0 * P * math.log10(t1 + t2)
            assert v == pytest.approx(v_tur if re_per_v * v_tur > RE_CRITICAL else v_lam, rel=1e-13)


class TestFdValues:
    STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

    def test_shifted_values_equal_direct_evaluations(self, laminar_model, turbulent_model):
        for model in (laminar_model, turbulent_model):
            grid = model.grid(5)
            Y, _ = grid.chunk(0, len(grid))
            given = np.empty(Y.shape[::-1])
            values = model.f.fd_values(Y, self.STEPS, given)
            assert np.array_equal(next(values), model.f(Y))
            for h in self.STEPS:
                rows = next(values)
                assert rows is given  # filled, not made
                for i in range(Y.shape[1]):
                    shifted = Y.copy()
                    shifted[:, i] += h
                    P, t1, t2, v_lam, re_per_v = _terms(shifted)
                    v_tur = -2.0 * P * np.log10(t1 + t2)
                    direct, _ = combine((P, t1, t2, v_lam, re_per_v), RE_CRITICAL)
                    # the branches differ everywhere, so agreeing with the direct
                    # value also means taking its regime routing
                    assert np.all(np.abs(v_tur - v_lam) > 1e-10 * np.abs(v_lam))
                    assert np.all(np.abs(rows[i] - direct) <= 1e-13 * np.abs(direct))
            assert next(values, None) is None  # exactly 1 + len(steps) arrays

    @staticmethod
    def per_shift_values(f, Y, steps):
        """The shifted values as fresh copies: each term times the scalar np.exp(h * e_i), combined anew."""
        yield f(Y)
        terms = _terms(Y)
        for h in steps:
            for i in range(Y.shape[1]):
                shifted = [
                    t * np.exp(h * exponents[i]) if exponents[i] else t
                    for t, (_, _, exponents, _) in zip(terms, pipeflow.PIPE_LAW)
                ]
                yield combine(shifted, f.re_critical)[0]

    def test_shifted_values_equal_the_per_shift_scaling_bit_for_bit(self, laminar_model, turbulent_model):
        for model in (laminar_model, turbulent_model):
            grid = model.grid(5)
            Y, _ = grid.chunk(0, len(grid))
            values = model.f.fd_values(Y, self.STEPS, np.empty(Y.shape[::-1]))
            # each step's array may be reused by the next, so its rows are copied as it arrives
            got = [next(values)] + [row.copy() for rows in values for row in rows]
            want = list(self.per_shift_values(model.f, Y, self.STEPS))
            assert len(got) == len(want) == 1 + Y.shape[1] * len(self.STEPS)
            for count, (value, expected) in enumerate(zip(got, want)):
                assert value.tobytes() == expected.tobytes(), count

    def test_later_values_leave_f_at_Y_alone(self, turbulent_model):
        # f(Y) is the caller's to keep while the shifted values are drawn
        grid = turbulent_model.grid(3)
        Y, _ = grid.chunk(0, len(grid))
        values = turbulent_model.f.fd_values(Y, self.STEPS, np.empty(Y.shape[::-1]))
        f0 = next(values)
        kept = f0.copy()
        for rows in values:
            rows[...] = np.nan  # the caller differences each step's array in place
        assert f0.tobytes() == kept.tobytes()

    def test_f_at_Y_and_the_step_arrays_share_no_memory_with_Y_or_each_other(self, turbulent_model):
        # the step arrays may be one reused array, which the caller writes: it must not be Y or f(Y)
        grid = turbulent_model.grid(3)
        Y, _ = grid.chunk(0, len(grid))
        f0, *steps = turbulent_model.f.fd_values(Y, self.STEPS, np.empty(Y.shape[::-1]))
        assert not np.shares_memory(f0, Y)
        for k, rows in enumerate(steps):
            assert not np.shares_memory(rows, Y), k
            assert not np.shares_memory(rows, f0), k

    def test_terms_are_computed_once_per_chunk(self, turbulent_model, monkeypatch):
        rows = []
        original_terms = pipeflow._terms

        def counting_terms(x):
            rows.append(len(x))
            return original_terms(x)

        monkeypatch.setattr(pipeflow, "_terms", counting_terms)
        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", 16)
        grid = turbulent_model.grid(3)  # 243 points: 15 chunks of 16 and one of 3
        estimate_subspaces(turbulent_model.f, grid, [1e-2, 1e-4, 1e-6])
        assert rows == [16] * 15 + [3]

    def test_rho_and_dpdl_share_one_log_per_step(self, turbulent_model, monkeypatch):
        # both scale t2 by (.)^-1/2 and leave t1 alone, so t1 + t2 is the same sum for both
        calls = []
        original = np.log10

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        grid = turbulent_model.grid(3)
        Y, _ = grid.chunk(0, len(grid))
        monkeypatch.setattr(np, "log10", counting)
        for _ in turbulent_model.f.fd_values(Y, self.STEPS, np.empty(Y.shape[::-1])):
            pass
        assert len(calls) == 1 + 4 * len(self.STEPS)  # f(Y), then one per step for each of 4 groups

    def test_later_steps_allocate_no_array(self, turbulent_model):
        # every shifted value is written into one reused array through buffers made once per call
        grid = turbulent_model.grid(5)
        Y, _ = grid.chunk(0, len(grid))
        values = turbulent_model.f.fd_values(Y, self.STEPS, np.empty(Y.shape[::-1]))
        tracemalloc.start()
        try:
            next(values), next(values)  # f(Y) and the first step: every buffer is made
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in values:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 8 * len(Y), (base, peak)  # less than one fresh row of values

    def test_the_steps_allocate_less_than_one_step_array(self, turbulent_model):
        # the caller owns the (m, n) step array: the steps' scales and buffers take less than it
        grid = turbulent_model.grid(5)
        Y, _ = grid.chunk(0, len(grid))
        rows = np.empty(Y.shape[::-1])
        values = turbulent_model.f.fd_values(Y, self.STEPS, rows)
        tracemalloc.start()
        try:
            next(values)  # f(Y), from the terms at Y
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in values:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < rows.nbytes, (base, peak)


def plain_values(f, Y, steps):
    """f(Y), then f at each shifted copy of Y, for each step and dimension in turn."""
    yield f(Y)
    for h in steps:
        for i in range(Y.shape[1]):
            shifted = Y.copy()
            shifted[:, i] += h
            yield f(shifted)


def reference_pass(f, chunks, steps):
    """The finite-difference pass written out plainly.

    A model with fd_values gets its shifted values by per-shift scaling; any
    other f is called on each shifted copy of the chunk. Each step's
    difference array is values - f(Y) and each chunk adds one
    (D * (w / (h * h))) @ D.T, summed in chunk order, then the lower triangle
    is mirrored.
    """
    sums = [0.0] * len(steps)
    for Y, w in chunks:
        n, m = Y.shape
        values = (TestFdValues.per_shift_values if hasattr(f, "fd_values") else plain_values)(f, Y, steps)
        f0 = next(values)
        for k, h in enumerate(steps):
            D = np.array([next(values) for _ in range(m)]) - f0
            sums[k] += (D * (w / (h * h))) @ D.T
    return [np.tril(S) + np.tril(S, -1).T for S in sums]


class TestPassOracle:
    """The estimators give the bits of reference_pass over the grid's chunks()."""

    STEPS = (1e-2, 1e-4, 1e-6)

    @staticmethod
    def assert_same_bits(got, want):
        assert len(got) == len(want)
        for k, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), k

    @pytest.mark.parametrize("order", [3, 9, 13])  # 243, 59 049 and 371 293 points: no multiple of a chunk
    @pytest.mark.parametrize("regime", ["laminar", "turbulent"])
    def test_estimates_equal_the_reference(self, regime, order):
        model = bind_builtin(load_model(regime))
        grid = model.grid(order)
        want = reference_pass(model.f, grid.chunks(), self.STEPS)
        got, _ = activesubspace._gradient_outer_sums(model.f, grid.chunks(), self.STEPS)
        self.assert_same_bits(got, want)
        for est, C in zip(estimate_subspaces(model.f, grid, self.STEPS), want):
            one = activesubspace.eigendecompose(C)
            assert est.eigenvalues.tobytes() == one.eigenvalues.tobytes()
            assert est.eigenvectors.tobytes() == one.eigenvectors.tobytes()

    def test_a_step_whose_stencils_straddle_the_switch_equals_the_reference(self, turbulent_model):
        grid = turbulent_model.grid(9)
        (C,) = reference_pass(turbulent_model.f, grid.chunks(), [1e-4])
        # ~6.3e5 with the two straddling stencils, ~312 without them
        assert activesubspace.eigendecompose(C).eigenvalues[0] > 1e5
        assert estimate_C(turbulent_model.f, grid, 1e-4).tobytes() == C.tobytes()

    def test_a_plain_callable_equals_the_reference(self, turbulent_model):
        f = lambda x: turbulent_model.f(x)  # no fd_values: f is called on each shifted chunk
        grid = turbulent_model.grid(9)
        want = reference_pass(f, grid.chunks(), self.STEPS)
        self.assert_same_bits(activesubspace._gradient_outer_sums(f, grid.chunks(), self.STEPS)[0], want)

    @pytest.mark.parametrize("profile", ["plain", "model"])
    def test_pullback_equals_the_reference(self, turbulent_model, profile):
        A = np.linalg.qr(turbulent_model.decomposition.A_float())[0]
        if profile == "model":
            # the model takes all 5 inputs: a rotation near the identity, which routes points to both regimes
            A = np.linalg.qr(np.eye(5) + 0.05 * np.ones((5, 5)))[0]
            A *= np.sign(np.diag(A))
        plain = lambda y: np.sin(y[..., 0]) * y[..., 1] + np.exp(0.1 * y[..., 2])
        g = {"plain": plain, "model": turbulent_model.f}[profile]
        grid = turbulent_model.grid(9)
        (T,) = reference_pass(g, ((X @ A, w) for X, w in grid.chunks()), [1e-3])
        assert pullback_T(g, A, grid, 1e-3).tobytes() == T.tobytes()


def law_dimension_error(law, spec):
    """A message naming the first term of law whose exponents e give D e != power * v(QoI), else None.

    D and v(QoI) are spec's, compared in exact rationals; a float exponent
    converts to a rational without rounding.
    """
    units = spec.system.unit_names
    D = [[q.dimension.exponents[u] for q in spec.quantities] for u in range(len(units))]

    def show(exponents):
        return {label: str(x) for label, x in zip(units, exponents) if x} or "dimensionless"

    for name, _, exponents, power in law:
        got, want = exact_matvec(D, exponents), [power * x for x in spec.qoi.exponents]
        if got != want:
            return f"pipe law term {name!r} has dimension {show(got)}, expected {show(want)}"
    return None


class TestLawCheck:
    """Each PIPE_LAW term has the dimension its last field states, in both shipped model files."""

    def test_every_term_has_its_stated_dimension_in_both_shipped_files(self):
        for model_id in SHIPPED_MODELS:
            assert law_dimension_error(pipeflow.PIPE_LAW, load_model(model_id)) is None, model_id

    def test_shipped_law_passes_for_both_ids_and_a_range_only_variant(self, tmp_path):
        for model_id in ("laminar", "turbulent"):
            assert bind_builtin(load_model(model_id)).f == LogSpaceVelocity()
        doc = json.loads(resources.files("ridgelaw.models").joinpath("pipeflow_laminar.json").read_text())
        doc["unit_system"] = ["s", "kg", "m"]
        doc["quantities"][0]["range"] = [0.11, 0.13]
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(doc))
        assert bind_builtin(load_model(str(path))).name == "pipeflow_laminar"

    @pytest.mark.parametrize(
        "term, column, value, message",
        [
            (2, 1, 1.5, "term 't2' has dimension {'kg': '1/2', 'm': '-1/2', 's': '-1/2'}, expected dimensionless"),
            (0, 0, -1.0, "term 'P' has dimension {'kg': '-1/2', 'm': '5/2', 's': '-1'}, expected {'m': '1', 's': '-1'}"),
            (4, 3, 0.1, "term 'Re/v'"),
            (1, 3, 2.0, "term 't1' has dimension {'m': '1'}, expected dimensionless"),  # eps^2 / (3.7 D)
        ],
    )
    def test_one_wrong_exponent_is_named(self, term, column, value, message):
        law = [list(row) for row in pipeflow.PIPE_LAW]
        law[term][2] = tuple(value if i == column else e for i, e in enumerate(law[term][2]))
        for model_id in SHIPPED_MODELS:
            error = law_dimension_error(law, load_model(model_id))
            assert error.startswith(f"pipe law {message}"), error


class TestReynoldsAndFriction:
    def test_unit_state(self):
        numbers, _ = evaluate_state(rho=1.0, mu=1.0, diam=1.0, eps=0.5, dpdl=1.0)
        assert numbers["Re"] == numbers["V"]
        assert numbers["f"] == pytest.approx(2.0 / numbers["V"] ** 2, rel=1e-15)

    def test_doubling_viscosity_halves_re(self):
        # Re per unit velocity, rho D / mu
        s1 = State(rho=0.12, mu=5e-6, diam=0.5, eps=0.01, dpdl=1.0)
        s2 = s1._replace(mu=1e-5)
        ratios = [numbers["Re"] / numbers["V"] for numbers in (turbulent(s1), turbulent(s2))]
        assert ratios[1] == pytest.approx(0.5 * ratios[0], rel=1e-15)

    def test_laminar_branch_satisfies_poiseuille(self):
        numbers = laminar(State(rho=0.12, mu=1e-5, diam=0.5, eps=0.01, dpdl=1e-8))
        assert numbers["f"] * numbers["Re"] == pytest.approx(64.0, rel=1e-12)

    def test_turbulent_branch_satisfies_colebrook(self):
        s = State(rho=0.1, mu=2e-6, diam=0.8, eps=0.005, dpdl=2.0)
        assert colebrook_residual(s) <= 1e-12

    def test_doubling_velocity_quarters_friction(self):
        # on the laminar branch, halving mu doubles V and changes f only through V
        s1 = State(rho=0.12, mu=1e-5, diam=0.5, eps=0.01, dpdl=1e-8)
        n1, n2 = laminar(s1), laminar(s1._replace(mu=5e-6))
        assert n2["V"] == pytest.approx(2.0 * n1["V"], rel=1e-14)
        assert n2["f"] == pytest.approx(n1["f"] / 4.0, rel=1e-14)

    def test_zero_velocity_rejected(self):
        # Re and f are computed only for 0 < V < inf
        underflow = State(rho=1.0, mu=1.0, diam=1e-200, eps=1e-201, dpdl=1e-300)
        overflow = State(rho=1e-300, mu=1e-300, diam=1e300, eps=1e299, dpdl=1e300)
        assert evaluate_state(*underflow) == ({"V": 0.0}, "laminar")
        assert evaluate_state(*overflow)[0] == {"V": np.inf}


class TestBulkVelocity:
    def test_laminar_box_interior_routes_to_poiseuille(self, laminar_model):
        rng = np.random.default_rng(31)
        for _ in range(50):
            s = State(*[rng.uniform(lo, hi) for lo, hi in laminar_model.spec.ranges()])
            numbers, regime = evaluate_state(*s)
            assert regime == "laminar"
            assert numbers == laminar(s)

    def test_most_of_turbulent_box_routes_to_colebrook(self, turbulent_model):
        grid = turbulent_model.grid(5)
        X, _ = grid.chunk(0, len(grid))
        q = np.exp(X)
        routed = 0
        for row in q:
            s = State(*row)
            numbers, regime = evaluate_state(*s)
            if regime == "turbulent":
                routed += 1
                assert numbers == turbulent(s)
        assert routed / len(q) >= 0.95

    def test_exact_critical_reynolds_stays_laminar(self):
        # the switch requires Re to strictly exceed the threshold
        s = State(rho=0.12, mu=5e-6, diam=0.5, eps=0.01, dpdl=1.0)
        re_per_v = _terms(np.log(s))[4]
        re_at_v_tur = float(re_per_v * v_turbulent(s))  # the Reynolds number the switch compares
        numbers, regime = evaluate_state(*s, re_critical=re_at_v_tur)
        assert regime == "laminar"
        assert numbers == laminar(s)
        assert evaluate_state(*s, re_critical=re_at_v_tur * (1.0 - 1e-12))[1] == "turbulent"

    def test_positive_over_both_regime_boxes(self, laminar_model, turbulent_model):
        for model in (laminar_model, turbulent_model):
            grid = model.grid(5)
            X, _ = grid.chunk(0, len(grid))
            values = model.f(X)
            assert np.all(values > 0.0)

    def test_laminar_corners_keep_re_below_critical(self, laminar_model):
        # the corner maximizing Re over the laminar box must stay laminar
        worst = 0.0
        for corner in itertools.product(*laminar_model.spec.ranges()):
            s = State(*corner)
            if not s.eps < s.diam:
                continue  # eps = diam corners are outside the state space
            numbers = turbulent(s)
            if numbers["V"] <= 0.0:
                continue  # negative turbulent velocity: definitely laminar
            worst = max(worst, numbers["Re"])
        assert worst < RE_CRITICAL


class TestInputColumns:
    """The law takes five log inputs per point; any other count is a model error on every path."""

    @pytest.mark.parametrize("m", [4, 6])
    def test_rows_of_another_width_are_a_model_error(self, turbulent_model, m):
        Y, _ = turbulent_model.grid(3).chunk(0, 3)
        Y = np.hstack([Y, Y])[:, :m]
        message = rf"^the pipe law takes 5 log inputs .* per point, got shape \(3, {m}\)$"
        with pytest.raises(ModelError, match=message):
            turbulent_model.f(Y)
        with pytest.raises(ModelError, match=message):
            next(turbulent_model.f.fd_values(Y, [1e-3], np.empty(Y.shape[::-1])))

    def test_a_point_of_another_width_is_a_model_error(self, turbulent_model):
        x = turbulent_model.grid(3).chunk(0, 1)[0][0]
        assert turbulent_model.f(x) == turbulent_model.f(x[None, :])[0]
        with pytest.raises(ModelError, match=r"got shape \(4,\)$"):
            turbulent_model.f(x[:4])

    def test_inputs_that_are_neither_a_point_nor_rows_are_a_model_error(self, turbulent_model):
        Y, _ = turbulent_model.grid(3).chunk(0, 3)
        for x, shape in ((Y[None], r"\(1, 3, 5\)"), (Y[0, 0], r"\(\)")):
            with pytest.raises(ModelError, match=rf"^the pipe law takes 5 log inputs .* got shape {shape}$"):
                turbulent_model.f(x)


def test_log_laminar_velocity_has_constant_gradient(laminar_model):
    # log V_lam is affine in the log quantities, so its FD gradient is the
    # same at every box point up to O(h); this is why the laminar C has rank 1
    from ridgelaw.activesubspace import fd_gradient

    h = 1e-6
    log_f = lambda x: math.log(laminar_model.f(x))
    lo = np.array([b[0] for b in laminar_model.spec.log_bounds()])
    hi = np.array([b[1] for b in laminar_model.spec.log_bounds()])
    rng = np.random.default_rng(41)
    exponents = np.array([0.0, -1.0, 2.0, 0.0, 1.0])
    for _ in range(10):
        x = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=5)
        g = fd_gradient(log_f, x, h)
        assert np.max(np.abs(g - exponents)) <= 10.0 * h


def test_order_9_turbulent_lambda_1_keeps_its_straddling_stencils(turbulent_model):
    # at h = 1e-4 two stencils of the order-9 grid cross the regime switch and raise lambda_1 from
    # ~312 (h = 1e-6) to ~6.3e5: a node or model-value change that moves one across Re_c fails here
    est = estimate_subspaces(turbulent_model.f, turbulent_model.grid(9), [1e-4])[0]
    assert est.eigenvalues[0] == pytest.approx(628958.5863950638, rel=1e-9)


class TestBuiltinModel:
    def test_laminar_table_values(self, laminar_model):
        assert laminar_model.spec.ranges() == (
            (1.0e-1, 1.4e-1),
            (1.0e-6, 1.0e-5),
            (1.0e-1, 1.0e0),
            (1.0e-3, 1.0e-1),
            (1.0e-9, 1.0e-7),
        )

    def test_turbulent_table_differs_only_in_pressure_gradient(self, laminar_model, turbulent_model):
        assert turbulent_model.spec.ranges()[:4] == laminar_model.spec.ranges()[:4]
        assert turbulent_model.spec.ranges()[4] == (1.0e-1, 1.0e1)

    def test_dimension_matrix_rows(self, laminar_model):
        from ridgelaw.pigroups import build_dimension_matrix

        D = build_dimension_matrix(laminar_model.spec.quantities)
        Df = np.array([[float(x) for x in row] for row in D.entries])
        expected = np.array(
            [[1, 1, 0, 0, 1], [-3, -1, 1, 1, -2], [0, -1, 0, 0, -2]], dtype=float
        )
        assert np.array_equal(Df, expected)

    def test_decomposition_runs_once_per_bound_model_through_pipeflows_binding(self, monkeypatch):
        from ridgelaw import pigroups

        calls = []

        def counted(D, qoi):
            calls.append(qoi)
            return pigroups.pi_decomposition(D, qoi)

        monkeypatch.setattr(pipeflow, "pi_decomposition", counted)
        spec = load_model("turbulent")
        model = bind_builtin(spec)
        first = model.decomposition
        assert model.decomposition is first
        assert calls == [spec.qoi]
        expected = pigroups.pi_decomposition(pigroups.build_dimension_matrix(spec.quantities), spec.qoi)
        assert (first.rank, first.n, first.A) == (expected.rank, expected.n, expected.A)

    def test_log_bounds_are_logs_of_table(self, turbulent_model):
        spec = turbulent_model.spec
        for (lo, hi), (llo, lhi) in zip(spec.ranges(), spec.log_bounds()):
            assert llo == pytest.approx(math.log(lo))
            assert lhi == pytest.approx(math.log(hi))

    def test_model_function_matches_bulk_velocity(self, laminar_model):
        s = State(0.12, 5e-6, 0.5, 0.01, 1e-8)
        # the same evaluation of the law: bit for bit
        assert laminar_model.f(np.log(s)).tobytes() == evaluate_state(*s)[0]["V"].tobytes()

    def test_vectorized_and_scalar_paths_agree(self, turbulent_model):
        f = LogSpaceVelocity()
        rng = np.random.default_rng(17)
        X = np.log(
            np.column_stack(
                [
                    rng.uniform(lo, hi, size=8)
                    for lo, hi in turbulent_model.spec.ranges()
                ]
            )
        )
        batch = f(X)
        scalar = np.array([f(row) for row in X])
        assert np.array_equal(batch, scalar)

    def test_unknown_regime_rejected(self):
        with pytest.raises(ModelError, match="neither a file nor one of the shipped models"):
            bind_builtin(load_model("transitional"))

    def test_an_unshipped_builtin_id_is_a_model_error_that_names_the_shipped_ids(self):
        laminar = load_model("laminar")
        spec = ModelSpec(
            laminar.name, laminar.system, laminar.quantities, laminar.qoi, "pipeflow_plasma", laminar.source, laminar.text
        )
        with pytest.raises(
            ModelError,
            match=r"^model 'pipeflow_laminar': unknown builtin id 'pipeflow_plasma'; "
            r"expected one of \['pipeflow_laminar', 'pipeflow_turbulent'\]$",
        ):
            bind_builtin(spec)

    @pytest.mark.parametrize(
        "name, re_critical, order, routed",
        [
            ("turbulent", RE_CRITICAL, 3, 240),
            ("laminar", RE_CRITICAL, 3, 0),
            ("turbulent", 1e300, 3, 0),
            ("laminar", 1e-300, 3, 132),
            ("turbulent", RE_CRITICAL, 15, 740_071),  # of 759 375
        ],
    )
    def test_the_pass_counts_the_points_routed_turbulent(self, name, re_critical, order, routed):
        model = bind_builtin(load_model(name), re_critical)
        grid = model.grid(order)
        _, turbulent = activesubspace._gradient_outer_sums(model.f, grid.chunks(), [1e-2])
        assert turbulent == routed
        # the base mask of every chunk, evaluated apart from the pass
        assert sum(int(combine(_terms(Y), re_critical)[1].sum()) for Y, _ in grid.chunks()) == routed

    def test_fd_values_returns_its_chunks_count_after_the_last_step(self, turbulent_model, monkeypatch):
        grid = turbulent_model.grid(3)
        Y, _ = grid.chunk(0, len(grid))
        values = turbulent_model.f.fd_values(Y, [1e-2, 1e-4], np.empty(Y.shape[::-1]))
        assert len(list(itertools.islice(values, 3))) == 3  # f(Y) and two steps
        assert activesubspace._returned(values) == 240
        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", 16)  # 15 chunks of 16 and one of 3, summed in order
        assert activesubspace._gradient_outer_sums(turbulent_model.f, grid.chunks(), [1e-2])[1] == 240

    def test_a_plain_callable_reports_no_count(self, turbulent_model):
        grid = turbulent_model.grid(3)
        assert activesubspace._gradient_outer_sums(lambda x: turbulent_model.f(x), grid.chunks(), [1e-2])[1] is None

    def test_k_is_the_rank_of_the_exponent_rows_the_routed_branches_read(self):
        assert [pipeflow.active_dim(turbulent, 243) for turbulent in (0, 1, 132, 242, 243)] == [1, 3, 3, 3, 3]
        # the laminar branch's row lies in the span of the turbulent branch's: v_lam = P / t2
        E = pipeflow._EXPONENTS
        assert np.array_equal(E[3], E[0] - E[2])
        assert np.linalg.matrix_rank(E[:3]) == 3

    def test_shipped_models_is_the_tuple_of_ids(self):
        assert SHIPPED_MODELS == ("pipeflow_laminar", "pipeflow_turbulent")
