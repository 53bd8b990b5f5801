import copy
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from betalab.beta_core import (
    AlgebraicContext,
    BetaNumber,
    _check_self_admissible_ep,
    _greedy_step,
    _point,
    beta_from_expansion,
    beta_orbit,
    expansion_of_one,
    greedy_expansion,
    make_beta_with_gaps,
    simple_beta_approx,
)
from betalab.errors import (
    DegenerateRoot,
    InvalidBeta,
    NotSelfAdmissible,
    UndecidableAtPrecision,
    UsageError,
)

PHI = (1 + math.sqrt(5)) / 2


def oracle_greedy_fraction(x, beta, n):
    """Digits and orbit enclosures of x by the greedy step on Fractions.

    An independent check of the integer kernel: the remainder is a Fraction
    (rational beta) or a Fraction vector in Q[x]/(p) multiplied by beta
    through p / lead, and floors come from an interval Horner on the
    Fraction endpoints of the root enclosure, refined by 2^8 until they
    agree.  Before each enclosure the root is refined to 2^-64, as
    beta_orbit does.
    """
    r = Fraction(x)
    digits, orbit = [], []
    if beta.is_rational():
        for _ in range(n):
            orbit.append((r, r))
            t = beta._frac * r
            digits.append(math.floor(t))
            r = t - digits[-1]
        return digits, orbit
    ctx = beta._ctx
    poly = ctx.poly_asc
    vec = [r] + [Fraction(0)] * (len(poly) - 2)

    def enclose(v):
        lo = hi = v[-1]
        for c in reversed(v[:-1]):
            ps = (lo * ctx.lo, lo * ctx.hi, hi * ctx.lo, hi * ctx.hi)
            lo, hi = min(ps) + c, max(ps) + c
        return lo, hi

    def floor(v):
        width = ctx.hi - ctx.lo
        while True:
            lo, hi = enclose(v)
            if math.floor(lo) == math.floor(hi):
                return math.floor(lo)
            if math.floor(lo) + 1 == hi:
                return math.floor(lo)
            assert width >= Fraction(1, 2 ** 256)
            width /= 2 ** 8
            ctx.refine_to(width)

    for _ in range(n):
        ctx.refine_to(Fraction(1, 2 ** 64))
        orbit.append(enclose(vec))
        top = vec[-1]
        vec = [Fraction(0)] + vec[:-1]
        vec = [a - top * Fraction(c, poly[-1]) for a, c in zip(vec, poly)]
        digits.append(floor(vec))
        vec[0] -= digits[-1]
    return digits, orbit


def test_rejects_beta_at_most_one():
    with pytest.raises(InvalidBeta):
        BetaNumber.from_decimal("1")
    with pytest.raises(InvalidBeta):
        BetaNumber.from_decimal("0.5")


def test_rejects_garbage_literal():
    with pytest.raises(InvalidBeta):
        BetaNumber.from_decimal("abc")


def test_integer_beta_digit_bound(beta_two):
    # for integer beta the alphabet is {0, ..., beta - 1}
    assert beta_two.digit_bound == 1
    assert beta_two.digits(5) == (1, 1, 1, 1, 1)


def test_golden_value_and_digits(beta_golden):
    assert abs(beta_golden.value - PHI) < 1e-12
    assert beta_golden.digit_bound == 1
    assert beta_golden.digits(6) == (1, 0, 1, 0, 1, 0)
    pre, period = beta_golden.periodic_form()
    assert (tuple(pre), tuple(period)) in (((), (1, 0)), ((1, 0), (1, 0)))


def test_tribonacci_digits(beta_tribonacci):
    assert beta_tribonacci.digits(6) == (1, 1, 0, 1, 1, 0)
    assert abs(beta_tribonacci.value - 1.8392867552141612) < 1e-12


def test_figure_beta(beta_figure):
    assert abs(beta_figure.value - 2.235836917776796) < 1e-9
    assert beta_figure.digits(12) == (2, 0, 1, 0, 0, 1) * 2
    assert beta_figure.digit_bound == 2


def test_rational_beta_digits():
    b = BetaNumber.from_decimal("9/5")
    w = b.digits(20)
    assert all(0 <= d <= 1 for d in w)
    # partial sums of w_j beta^-j approach 1 from below
    partial = sum(Fraction(d) * Fraction(9, 5) ** -j
                  for j, d in enumerate(w, start=1))
    assert 1 - Fraction(9, 5) ** -19 < partial <= 1


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure"])
def test_expansion_of_one_partial_sums(battery, name):
    beta = battery[name]
    n = 24
    w = expansion_of_one(beta, n)
    lo, hi = beta.enclosure(Fraction(1, 2 ** 80))
    x = float((lo + hi) / 2)
    partial = sum(d * x ** -j for j, d in enumerate(w, start=1))
    assert partial <= 1 + 1e-9
    assert partial > 1 - 2 * x ** -(n - 1)


def test_greedy_expansion_reconstructs(beta_golden):
    x = Fraction(3, 10)
    n = 40
    w = greedy_expansion(x, beta_golden, n)
    v = sum(d * PHI ** -j for j, d in enumerate(w, start=1))
    assert abs(v - 0.3) < PHI ** -n * 2


def test_greedy_expansion_domain(beta_golden):
    with pytest.raises(UsageError):
        greedy_expansion(Fraction(3, 2), beta_golden, 8)


def test_beta_orbit_stays_in_unit_interval(beta_golden):
    orbit = beta_orbit(Fraction(3, 10), beta_golden, 16)
    assert len(orbit) == 16
    for lo, hi in orbit:
        assert 0 <= lo <= hi < 1 + Fraction(1, 1000)


def test_beta_from_expansion_round_trip(beta_golden):
    again = beta_from_expansion((), (1, 0))
    assert abs(again.value - PHI) < 1e-12


def test_beta_from_expansion_rejects_non_self_admissible():
    with pytest.raises(NotSelfAdmissible):
        beta_from_expansion((1, 0, 1, 1), ())


def oracle_self_admissible_loop(prefix, period):
    """sigma^k(w) <= w for k = 1 .. p + max(q, 1), each shift compared
    digit by digit over p + 2 max(q, 1) + 4 digits of w = prefix period
    period ... (zeros after the prefix when the period is empty)."""
    def digit(j):
        if j <= len(prefix):
            return prefix[j - 1]
        if not period:
            return 0
        return period[(j - len(prefix) - 1) % len(period)]

    p, q = len(prefix), max(len(period), 1)
    horizon = p + 2 * q + 4
    base = [digit(j) for j in range(1, horizon + 1)]
    for k in range(1, p + q + 1):
        for j, b in enumerate(base, start=k + 1):
            if digit(j) != b:
                if digit(j) > b:
                    return False
                break
    return True


def test_self_admissible_check_matches_the_digit_loop():
    """Seeded random prefixes and periods of length <= 4 over {0, 1, 2}."""
    rng = random.Random(1960)
    verdicts = set()
    for _ in range(4000):
        prefix, period = (tuple(rng.randint(0, 2)
                                for _ in range(rng.randint(0, 4)))
                          for _ in range(2))
        verdict = _check_self_admissible_ep(prefix, period)
        assert verdict == oracle_self_admissible_loop(prefix, period), \
            (prefix, period)
        verdicts.add(verdict)
    assert verdicts == {False, True}


@pytest.mark.parametrize("period, verdict", [
    ((0,) * 1999 + (1,), True),
    ((0,) * 1000 + (1,) + (0,) * 998 + (1,), False),
])
def test_self_admissible_check_on_a_long_period(period, verdict):
    """A 2,000-digit period gets the digit loop's verdict, and the check
    holds O(p + q) digits: repeating the period n times for n digits
    would allocate about 12 million entries here."""
    prefix = (1,)
    assert oracle_self_admissible_loop(prefix, period) is verdict
    tracemalloc.start()
    try:
        assert _check_self_admissible_ep(prefix, period) is verdict
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, peak


@pytest.mark.parametrize("period, verdict", [
    ((1,) * 9999 + (0,), True),
    ((2, 1) * 5000, True),
    ((1,) * 9998 + (0, 1), False),
])
def test_self_admissible_check_on_a_30004_digit_word(period, verdict):
    """A 10,000-digit period is checked over 30,004 digits in linear time:
    a slice per shift took about ten seconds here.  The verdicts follow
    by hand: every shift of (1^9999 0)^inf meets its 0 first, every shift
    of (21)^inf is (21)^inf or (12)^inf, and the shift of
    (1^9998 0 1)^inf past its first 0 starts with 1^9999."""
    started = time.perf_counter()
    assert _check_self_admissible_ep((), period) is verdict
    assert time.perf_counter() - started < 2.0


def test_beta_from_digit_string_figure():
    b = BetaNumber.from_digit_string("(201001)")
    assert abs(b.value ** 6 - (2 * b.value ** 5 + b.value ** 3 + 2)) < 1e-6


def oracle_largest_root(factors):
    """Largest real root > 1 of a product, from numpy.roots of each factor
    (a repeated root of the expanded product is ill-conditioned)."""
    return max(r.real for f in factors for r in numpy.roots(f)
               if abs(r.imag) < 1e-9 and r.real > 1)


@pytest.mark.parametrize("factors", [
    ([1, 0, -3], [1, -1, -1]),
    ([1, -1, -1], [1, 0, -3]),
    ([1, -1, -1], [1, -3, 1]),
    ([1, -2], [1, -1, -1]),
    ([1, -1, -1], [1, -1, -1]),
])
def test_from_polynomial_is_largest_root_of_product(factors):
    """beta is the largest real root > 1 whatever the factorization: for
    (x^2 - 3)(x^2 - x - 1) it is sqrt(3), not the golden mean."""
    beta = BetaNumber.from_polynomial(
        [int(c) for c in numpy.polymul(*factors)])
    assert abs(beta.value - oracle_largest_root(factors)) < 1e-9
    assert beta.is_rational() == (factors[0] == [1, -2])


def test_digit_string_bases_sum_to_one(battery):
    """sum of d_j beta^-j over w(beta) is 1 at the float root."""
    bases = [b for b in battery.values() if b.source == "digit-sequence"]
    bases += [BetaNumber.from_digit_string(t)
              for t in ("10(10)", "201001", "11", "(1)", "2(01)")]
    for beta in bases:
        x = beta.value
        pre, per = beta.periodic_form()
        head = sum(d * x ** -j for j, d in enumerate(pre, start=1))
        tail = sum(d * x ** -j for j, d in enumerate(per, start=1))
        total = head + x ** -len(pre) * tail / (1 - x ** -len(per))
        assert abs(total - 1) < 1e-9


def test_simple_beta_approx_monotone(beta_golden):
    prev = 1.0
    for n in (3, 5, 7, 9):  # nonzero-digit indices of (10)^inf
        bn = simple_beta_approx(beta_golden, n)
        assert bn.value <= beta_golden.value + 1e-12
        assert bn.value >= prev - 1e-12
        prev = bn.value
    assert bn.info["requested_n"] == 9


def test_simple_beta_approx_trailing_zeros(beta_golden):
    # truncating (1,0,1,0) strips the trailing zero
    bn = simple_beta_approx(beta_golden, 4)
    assert bn.info["effective_n"] == 3


def test_simple_beta_approx_degenerate(beta_two):
    with pytest.raises(DegenerateRoot):
        simple_beta_approx(beta_two, 1)


def test_make_beta_with_gaps():
    w = make_beta_with_gaps([1, 2])
    digits = tuple(w)
    assert digits[0] >= 1
    assert 0 in digits


def test_compare(beta_two, beta_golden):
    assert beta_two.compare(beta_golden) > 0
    assert beta_golden.compare(beta_golden) == 0


def test_enclosure_shrinks(beta_tribonacci):
    lo1, hi1 = beta_tribonacci.enclosure(Fraction(1, 2 ** 20))
    lo2, hi2 = beta_tribonacci.enclosure(Fraction(1, 2 ** 60))
    assert hi2 - lo2 <= hi1 - lo1
    assert lo1 <= lo2 <= hi2 <= hi1


def test_random_rational_betas_digit_range():
    rng = random.Random(11)
    for _ in range(10):
        num = rng.randint(11, 40)
        beta = BetaNumber.from_decimal(Fraction(num, 10))
        w = beta.digits(24)
        assert all(0 <= d <= beta.digit_bound for d in w)


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven"])
@settings(max_examples=10, deadline=None)
@given(k=st.integers(min_value=0, max_value=10 ** 6 - 1),
       n=st.integers(min_value=1, max_value=128))
def test_greedy_step_matches_fraction_oracle(bench_bases, name, k, n):
    # each run starts from a copy of the same root enclosure, so the
    # refinements, and with them the orbit enclosures, happen identically
    x = Fraction(k, 10 ** 6)
    digits, orbit = oracle_greedy_fraction(
        x, copy.deepcopy(bench_bases[name]), n)
    word = greedy_expansion(x, copy.deepcopy(bench_bases[name]), n)
    assert list(word.digits) == digits
    assert beta_orbit(x, copy.deepcopy(bench_bases[name]), n) == orbit


def test_non_monic_base_matches_fraction_oracle():
    # 2x^2 - 3x - 1: the state denominator grows by 2 and is gcd-reduced
    beta = BetaNumber.from_polynomial([2, -3, -1])
    for x in (Fraction(0), Fraction(3, 10), Fraction(999999, 10 ** 6)):
        digits, orbit = oracle_greedy_fraction(x, copy.deepcopy(beta), 48)
        assert list(greedy_expansion(x, copy.deepcopy(beta), 48).digits) == digits
        assert beta_orbit(x, copy.deepcopy(beta), 48) == orbit
        r = _point(beta, x)
        for _ in range(48):
            _, r = _greedy_step(beta, r)
            assert math.gcd(r[1], *r[0]) == 1  # equal values, equal states


def test_floor_on_closed_upper_endpoint_needs_no_refinement():
    # phi in [12/8, 13/8]: 8 * phi has the enclosure [12, 13], whose upper
    # end is an integer the irrational value cannot reach
    ctx = AlgebraicContext((-1, -1, 1), Fraction(3, 2), Fraction(13, 8))
    assert ctx.floor_vector((0, 8), 1) == 12
    assert (ctx.lo, ctx.hi) == (Fraction(3, 2), Fraction(13, 8))
    assert ctx.floor_vector((-1, 8), 1) == 11


def _fib_lucas(n):
    f_prev, f = 0, 1  # F_0, F_1
    for _ in range(n - 1):
        f_prev, f = f, f_prev + f
    return f_prev, f, f_prev + f + f_prev  # F_(n-1), F_n, L_n


@pytest.mark.parametrize("n, cap, lucas_minus_one", [
    (40, None, True), (200, None, False), (400, 1024, True)])
def test_floor_vector_precision_cap(monkeypatch, n, cap, lucas_minus_one):
    # phi^n = F_(n-1) + F_n * phi lies 1/phi^n below the Lucas number L_n
    # (n even), so the floor needs about 1.4 n bits of the root
    monkeypatch.delenv("BETALAB_PRECISION_BITS", raising=False)
    ctx = BetaNumber.from_polynomial([1, -1, -1])._ctx
    f_prev, f, lucas = _fib_lucas(n)
    if lucas_minus_one:
        assert ctx.floor_vector((f_prev, f), 1, cap_bits=cap) == lucas - 1
    else:
        with pytest.raises(UndecidableAtPrecision):
            ctx.floor_vector((f_prev, f), 1, cap_bits=cap)


@pytest.mark.parametrize("text", ["2(10)", "3(12)", "2(01)", "11(10)",
                                  "3(21)", "2(1)", "22(10)", "31(20)",
                                  "2(011)", "3(102)", "32(20)", "211(10)"])
def test_w_period_found_on_fresh_polynomial_base(text):
    # the same beta from its polynomial has no stored w(beta): the greedy
    # orbit of 1 must find the preperiod and the period itself
    given_form = BetaNumber.from_digit_string(text)
    fresh = BetaNumber.from_polynomial(list(reversed(given_form._ctx.poly_asc)))
    assert fresh.periodic_form() is None
    assert fresh.digits(64) == given_form.digits(64)
    assert fresh.periodic_form() == given_form.periodic_form()
