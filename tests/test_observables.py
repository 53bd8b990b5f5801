import math
from fractions import Fraction

import pytest

from betalab.errors import BudgetExceeded, UsageError
from betalab.observables import (
    Observable,
    block_indicator,
    constant,
    digit_frequency,
    parse_observable,
)


def test_digit_frequency_average():
    phi = digit_frequency(1, 1)
    assert phi.average_on_word((1, 0, 1, 0)) == 0.5
    assert phi.average_on_word((0, 0, 0, 0)) == 0.0
    assert phi.sup_norm == 1.0
    assert phi.oscillation == 1.0


def test_constant_observable():
    phi = constant(0.25, 2)
    assert phi.average_on_word((0, 1, 2)) == 0.25
    assert phi.oscillation == 0.0


def test_block_indicator_truncated_average():
    phi = block_indicator((1, 0), 1)
    # windows of 1010: 10, 01, 10 -> average 2/3
    assert phi.average_on_word((1, 0, 1, 0)) == pytest.approx(2 / 3)


def test_periodic_average_exact():
    phi = block_indicator((1, 0), 1)
    assert phi.periodic_average((1, 0)) == 0.5
    freq = digit_frequency(1, 1)
    assert freq.periodic_average((1, 0, 0)) == pytest.approx(1 / 3)


def test_periodic_average_rejects_empty_period():
    with pytest.raises(UsageError):
        digit_frequency(1, 1).periodic_average(())


def test_word_shorter_than_range_rejected():
    phi = block_indicator((1, 0, 1), 1)
    with pytest.raises(UsageError):
        phi.average_on_word((1, 0))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Observable("r0", 0, {(): 1}),
                 "observable range must be >= 1", id="range-0"),
    pytest.param(lambda: Observable("empty", 1, {}),
                 "observable table is empty", id="empty-table"),
    pytest.param(lambda: Observable("partial", 1, {(0,): 1})
                 .average_on_word((0, 1)),
                 r"observable partial undefined on block \(1,\)",
                 id="block-off-table"),
])
def test_observable_refusals(call, message):
    with pytest.raises(UsageError, match=message):
        call()


def test_block_table_past_the_bound_is_a_resource_error():
    """(b + 1)^r entries past 2^16 raise before the table is built; a
    10^6-entry table took seconds, and 256^4 entries ran out of memory."""
    assert len(parse_observable("block:" + "1" * 16, 1).numerators) == 2 ** 16
    for spec, bound in (("block:" + "1" * 17, 1), ("block:101", 99),
                        ("block:1010", 255)):
        with pytest.raises(BudgetExceeded, match="exceeds 65536"):
            parse_observable(spec, bound)


def test_parse_observable():
    assert parse_observable("freq:1", 2).name == "freq:1"
    assert parse_observable("const:0.5", 1).sup_norm == 0.5
    assert parse_observable("block:101", 1).range_r == 3
    with pytest.raises(UsageError):
        parse_observable("nope:1", 1)


def test_table_values_are_read_as_decimal_literals():
    """0.1, 0.2 and 0.3 are 1/10, 2/10 and 3/10, so their average is
    exactly 1/5, which a float sum misses."""
    phi = Observable("mix", 1, {(0,): 0.1, (1,): 0.2, (2,): 0.3})
    assert phi.den == 10 and phi.numerators == {(0,): 1, (1,): 2, (2,): 3}
    assert (0.1 + 0.2 + 0.3) / 3 != 0.2
    assert phi.average_on_word((0, 1, 2)) == Fraction(1, 5)
    assert phi.sup_norm == Fraction(3, 10)
    assert phi.oscillation == Fraction(1, 5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1/0",
                                   "x"])
def test_non_finite_table_value_is_a_usage_error(value):
    with pytest.raises(UsageError):
        constant(value, 1)
