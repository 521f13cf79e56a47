"""Unit-system and dimension-vector algebra."""

import abc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ridgelaw.dimensions import (
    DimensionVector,
    QuantityDecl,
    UnitSystem,
    _RATIONAL_STRING,
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

    def test_repeated_labels_add_up_including_a_sum_that_cancels(self):
        v = make_dimension(MSK, [("m", "1/2"), ("kg", 0), ("s", -1), ("m", "-1/2"), ("kg", "2/3"), ("kg", "1/3")])
        assert v.exponents == frac_vec([0, -1, 1])
        assert all(type(e) is Fraction for e in v.exponents)
        assert is_dimensionless(make_dimension(MSK, [("s", 2), ("s", "-4/2")]))

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

    @pytest.mark.parametrize("value, expected", [(True, 1), (False, 0), (-7, -7), (2**80, 2**80)])
    def test_ints_and_bools_coerce_as_ints(self, value, expected):
        got = as_fraction(value)
        assert type(got) is Fraction and got == expected

    def test_a_fraction_is_returned_as_it_is(self):
        value = Fraction(-3, 4)
        assert as_fraction(value) is value

    def test_strings_and_ints_skip_the_abc_instance_check(self, monkeypatch):
        calls = []
        check = abc.ABCMeta.__instancecheck__
        monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", lambda cls, obj: calls.append(cls) or check(cls, obj))
        assert [as_fraction(v) for v in ("3/2", -1, True)] == [Fraction(3, 2), -1, 1]
        assert Fraction not in calls  # Fraction itself checks bools against numbers.Rational

    @pytest.mark.parametrize("value, kind", [(1.5, "float"), (None, "NoneType")])
    def test_other_types_rejected(self, value, kind):
        with pytest.raises(ModelError, match=f"^exponent must be an int, Fraction, or 'p/q' string, got {kind}$"):
            as_fraction(value)


# any string that the exponent pattern accepts: signs, leading zeros, zero numerators and denominators
rational_strings = st.builds(
    lambda sign, p, q: sign + p + (f"/{q}" if q is not None else ""),
    st.sampled_from(["", "+", "-"]),
    st.text("0123456789", min_size=1, max_size=25),
    st.none() | st.text("0123456789", min_size=1, max_size=25),
)


@given(text=rational_strings)
@example(text="0/5")
@example(text="-007/0014")
@example(text="+0")
@example(text="3/0")
@example(text="9" * 5000)
@example(text="1/" + "9" * 5000)
def test_as_fraction_of_a_pattern_string_is_fraction_of_it(text):
    assert _RATIONAL_STRING.fullmatch(text)
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ModelError, match="^cannot parse rational exponent"):
            as_fraction(text)
    else:
        got = as_fraction(text)
        assert type(got) is Fraction and (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


@pytest.mark.parametrize("text", ["3/0", "-0/00", "9" * 5000, "1/" + "9" * 5000])
def test_a_zero_denominator_or_an_integer_past_the_digit_limit_is_a_model_error(text):
    with pytest.raises(ModelError, match="^cannot parse rational exponent"):
        as_fraction(text)


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
