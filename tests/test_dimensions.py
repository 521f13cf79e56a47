"""Unit-system and dimension-vector algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ridgelaw.dimensions import (
    DimensionVector,
    QuantityDecl,
    UnitSystem,
    as_fraction,
    is_dimensionless,
    make_dimension,
)
from ridgelaw.errors import ModelError

MSK = UnitSystem(("m", "s", "kg"))
KMS = UnitSystem(("kg", "m", "s"))


def frac_vec(v):
    return tuple(Fraction(x) for x in v)


class TestMakeDimension:
    def test_velocity_in_m_s_kg(self):
        v = make_dimension(MSK, [("m", 1), ("s", -1)])
        assert v.exponents == frac_vec([1, -1, 0])

    def test_empty_pairs_is_dimensionless(self):
        v = make_dimension(MSK, [])
        assert v.exponents == frac_vec([0, 0, 0])

    def test_density_in_kg_m_s(self):
        v = make_dimension(KMS, [("kg", 1), ("m", -3)])
        assert v.exponents == frac_vec([1, -3, 0])

    def test_unknown_label_is_named_in_error(self):
        with pytest.raises(ModelError, match="furlong"):
            make_dimension(MSK, [("furlong", 1)])

    def test_repeated_labels_accumulate(self):
        v = make_dimension(MSK, [("m", 1), ("m", 2)])
        assert v.exponents[0] == 3

    def test_rational_string_exponents(self):
        v = make_dimension(MSK, [("m", "3/2")])
        assert v.exponents[0] == Fraction(3, 2)


class TestAsFraction:
    @pytest.mark.parametrize("text, value", [("3/2", Fraction(3, 2)), ("-3/2", Fraction(-3, 2)), ("+4", 4)])
    def test_integer_and_ratio_strings_accepted(self, text, value):
        assert as_fraction(text) == value

    @pytest.mark.parametrize("text", ["1e200000", "1.5", "1_0", " 3", "3/-2", "0x10", ""])
    def test_other_strings_rejected(self, text):
        with pytest.raises(ModelError, match="integer or 'p/q'"):
            as_fraction(text)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ModelError):
            as_fraction("1/0")

    @pytest.mark.parametrize("value, kind", [(1.5, "float"), (None, "NoneType")])
    def test_other_types_rejected(self, value, kind):
        with pytest.raises(ModelError, match=f"^exponent must be an int, Fraction, or 'p/q' string, got {kind}$"):
            as_fraction(value)


class TestDimensionVector:
    def test_wrong_exponent_count_rejected(self):
        with pytest.raises(ModelError, match="^dimension vector has 2 exponents but the system has 3 units$"):
            DimensionVector(frac_vec([1, -1]), MSK)


class TestIsDimensionless:
    def test_zero_vector(self):
        assert is_dimensionless(DimensionVector(frac_vec([0, 0, 0]), MSK))

    def test_velocity_is_not(self):
        assert not is_dimensionless(DimensionVector(frac_vec([1, -1, 0]), MSK))

    def test_reynolds_combination_is_dimensionless(self):
        # rho * V * D / mu, exponents accumulated per unit
        re = make_dimension(
            KMS,
            [("kg", 1), ("m", -3)]  # rho
            + [("m", 1), ("s", -1)]  # V
            + [("m", 1)]  # D
            + [("kg", -1), ("m", 1), ("s", 1)],  # 1 / mu
        )
        assert is_dimensionless(re)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(v=st.lists(rationals, min_size=3, max_size=3))
def test_self_cancellation_is_dimensionless(v):
    pairs = list(zip(MSK.unit_names, v))
    assert is_dimensionless(make_dimension(MSK, pairs + [(u, -e) for u, e in pairs]))


@given(exps=st.lists(rationals, min_size=3, max_size=3))
def test_make_dimension_round_trips(exps):
    pairs = list(zip(MSK.unit_names, exps))
    v = make_dimension(MSK, pairs)
    assert v.exponents == tuple(as_fraction(e) for e in exps)


class TestUnitSystem:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ModelError):
            UnitSystem(("m", "m"))

    def test_empty_label_rejected(self):
        with pytest.raises(ModelError):
            UnitSystem(("m", ""))

    def test_more_than_seven_units_rejected(self):
        with pytest.raises(ModelError):
            UnitSystem(tuple(f"u{i}" for i in range(8)))

    def test_seven_units_allowed(self):
        assert UnitSystem(tuple(f"u{i}" for i in range(7))).k == 7


class TestQuantityDecl:
    def test_valid_range(self):
        q = QuantityDecl("rho", make_dimension(KMS, [("kg", 1), ("m", -3)]), 0.1, 0.14)
        assert q.has_range

    def test_negative_range_rejected(self):
        with pytest.raises(ModelError, match="rho"):
            QuantityDecl("rho", make_dimension(KMS, []), -1.0, 2.0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ModelError):
            QuantityDecl("rho", make_dimension(KMS, []), 2.0, 1.0)

    def test_range_is_optional(self):
        assert not QuantityDecl("rho", make_dimension(KMS, [])).has_range

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError, match="^quantity name must be non-empty$"):
            QuantityDecl("", make_dimension(KMS, []))

    def test_half_range_rejected(self):
        with pytest.raises(ModelError):
            QuantityDecl("rho", make_dimension(KMS, []), 1.0, None)
