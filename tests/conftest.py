import pytest

from betalab.beta_core import BetaNumber


@pytest.fixture(scope="session")
def beta_two():
    return BetaNumber.from_decimal("2")


@pytest.fixture(scope="session")
def beta_golden():
    return BetaNumber.from_polynomial([1, -1, -1])


@pytest.fixture(scope="session")
def beta_tribonacci():
    return BetaNumber.from_polynomial([1, -1, -1, -1])


@pytest.fixture(scope="session")
def beta_figure():
    # root of x^6 - 2x^5 - x^3 - 2, expansion of 1 = (201001)^inf
    return BetaNumber.from_digit_string("(201001)")


@pytest.fixture(scope="session")
def battery(beta_two, beta_golden, beta_tribonacci, beta_figure):
    return {
        "two": beta_two,
        "golden": beta_golden,
        "tribonacci": beta_tribonacci,
        "figure": beta_figure,
    }


@pytest.fixture(scope="session")
def bench_bases(battery):
    """The battery plus two rational bases whose w(beta) is not periodic."""
    return {**battery,
            "three_halves": BetaNumber.from_decimal("3/2"),
            "one_seven": BetaNumber.from_decimal("1.7")}
