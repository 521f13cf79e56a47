"""The pipe-flow virtual laboratory: velocity laws, regime switch, built-in models."""

import collections
import itertools
import json
import math
import re
from importlib import resources

import numpy as np
import pytest

from ridgelaw import activesubspace, pipeflow
from ridgelaw.activesubspace import estimate_subspaces
from ridgelaw.errors import ModelError
from ridgelaw.models import load_model
from ridgelaw.pipeflow import (
    RE_CRITICAL,
    LogSpaceVelocity,
    _terms,
    bind_builtin,
    builtin_model,
    combine,
    evaluate_state,
)


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
            values = model.f.fd_values(Y, self.STEPS)
            assert np.array_equal(next(values), model.f(Y))
            for h in self.STEPS:
                for i in range(Y.shape[1]):
                    shifted = Y.copy()
                    shifted[:, i] += h
                    P, t1, t2, v_lam, re_per_v = _terms(shifted)
                    v_tur = -2.0 * P * np.log10(t1 + t2)
                    direct, _ = combine((P, t1, t2, v_lam, re_per_v), RE_CRITICAL)
                    # the branches differ everywhere, so agreeing with the direct
                    # value also means taking its regime routing
                    assert np.all(np.abs(v_tur - v_lam) > 1e-10 * np.abs(v_lam))
                    got = next(values)
                    assert np.all(np.abs(got - direct) <= 1e-13 * np.abs(direct))
            assert next(values, None) is None  # exactly 1 + m * len(steps) arrays

    def test_model_is_called_once_per_chunk(self, turbulent_model, monkeypatch):
        rows = []
        original_call = LogSpaceVelocity.__call__

        def counting_call(f_self, x):
            rows.append(len(x))
            return original_call(f_self, x)

        monkeypatch.setattr(LogSpaceVelocity, "__call__", counting_call)
        monkeypatch.setattr(activesubspace, "DEFAULT_CHUNK", 8)
        grid = turbulent_model.grid(3)  # 243 points: 30 chunks of 8 and one of 3
        estimate_subspaces(turbulent_model.f, grid, [1e-2, 1e-4, 1e-6])
        assert rows == [8] * 30 + [3]


class TestLawCheck:
    """Binding checks each term's dimension against the model file, exactly."""

    def test_shipped_law_passes_for_both_ids_and_a_range_only_variant(self, tmp_path):
        for model_id in ("laminar", "turbulent"):
            assert builtin_model(model_id).f == LogSpaceVelocity()
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
        ],
    )
    def test_one_wrong_exponent_is_named(self, monkeypatch, term, column, value, message):
        law = [list(row) for row in pipeflow.PIPE_LAW]
        law[term][2] = tuple(value if i == column else e for i, e in enumerate(law[term][2]))
        monkeypatch.setattr(pipeflow, "PIPE_LAW", tuple(tuple(row) for row in law))
        with pytest.raises(ModelError, match=re.escape(message)):
            builtin_model("turbulent")


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
            builtin_model("transitional")

    def test_expected_active_dimensions(self, laminar_model, turbulent_model):
        assert laminar_model.active_dim == 1
        assert turbulent_model.active_dim == 3
