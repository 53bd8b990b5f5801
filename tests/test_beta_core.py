import copy
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from betalab.beta_core import (
    AlgebraicContext,
    BetaNumber,
    _check_self_admissible_ep,
    _greedy_step,
    _point,
    beta_from_expansion,
    expansion_of_one,
    greedy_expansion,
    simple_beta_approx,
)
from betalab.errors import UndecidableAtPrecision, UsageError
from betalab.words import format_periodic

PHI = (1 + math.sqrt(5)) / 2


def oracle_greedy_fraction(x, beta, n):
    """Greedy digits of x by the greedy step on Fractions.

    An independent check of the integer kernel: the remainder is a Fraction
    (rational beta) or a Fraction vector in Q[x]/(p) multiplied by beta
    through p / lead, and floors come from an interval Horner on the
    Fraction endpoints of the root enclosure, refined by 2^8 until they
    agree.
    """
    r = Fraction(x)
    digits = []
    if beta.is_rational():
        for _ in range(n):
            t = beta.enclosure()[0] * r
            digits.append(math.floor(t))
            r = t - digits[-1]
        return digits
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
        top = vec[-1]
        vec = [Fraction(0)] + vec[:-1]
        vec = [a - top * Fraction(c, poly[-1]) for a, c in zip(vec, poly)]
        digits.append(floor(vec))
        vec[0] -= digits[-1]
    return digits


def test_rejects_beta_at_most_one():
    with pytest.raises(UsageError, match="beta must exceed 1, got 1$"):
        BetaNumber.from_decimal("1")
    with pytest.raises(UsageError, match="beta must exceed 1, got 1/2"):
        BetaNumber.from_decimal("0.5")


def test_rejects_garbage_literal():
    with pytest.raises(UsageError, match="cannot parse beta literal 'abc'"):
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


def test_digits_rejects_negative_length():
    """A negative n once returned the cached digits but the last |n|."""
    beta = BetaNumber.from_digit_string("10(10)")
    assert beta.digits(8) == (1, 0, 1, 0, 1, 0, 1, 0)
    assert beta.digits(0) == ()
    with pytest.raises(UsageError):
        beta.digits(-1)


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


def test_greedy_expansion_of_zero_is_all_zeros(bench_bases):
    """The zero state is a constant vector, whose interval Horner enclosure
    is one point: every floor is 0, decided without refining beta."""
    for beta in bench_bases.values():
        beta = copy.deepcopy(beta)
        enclosure = (beta._ctx.lo, beta._ctx.hi)
        assert greedy_expansion(0, beta, 64).digits == bytes(64)
        assert (beta._ctx.lo, beta._ctx.hi) == enclosure


def test_beta_from_expansion_round_trip(beta_golden):
    again = beta_from_expansion((), (1, 0))
    assert abs(again.value - PHI) < 1e-12


def test_beta_from_expansion_rejects_non_self_admissible():
    with pytest.raises(UsageError, match=r"fails sigma\^k\(w\) <= w"):
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
    ([1, -2], [1, 0, -5]),
])
def test_from_polynomial_is_largest_root_of_product(factors):
    """beta is the largest real root > 1 whatever the factorization: for
    (x^2 - 3)(x^2 - x - 1) it is sqrt(3), not the golden mean, and for
    (x - 2)(x^2 - 5) it is sqrt(5), not the rational root 2 below it."""
    beta = BetaNumber.from_polynomial(
        [int(c) for c in numpy.polymul(*factors)])
    root = oracle_largest_root(factors)
    assert abs(beta.value - root) < 1e-9
    assert beta.is_rational() == (abs(root - round(root)) < 1e-9)


def sympy_largest_root(coeffs_desc):
    """sympy's largest real root R of the polynomial when R > 1, else
    None: (poly, R, a, b) with poly the square-free part and [a, b]
    sympy's isolating interval of R.  The test extra's oracle, independent
    of betalab's Sturm chain."""
    from sympy import Poly, Symbol

    poly = Poly(coeffs_desc, Symbol("x")).sqf_part()
    roots = poly.real_roots()
    if not roots:
        return None
    (a, b), _ = poly.intervals()[-1]
    if roots[-1].is_Rational:
        a = b = roots[-1]
    while a < 1 < b:  # R is irrational, so it is not 1
        a, b = poly.refine_root(a, b, steps=8)
    if a < 1 or a == b == 1:
        return None
    return poly, roots[-1], Fraction(str(a)), Fraction(str(b))


def assert_root_matches_sympy(oracle, beta):
    """is_rational agrees with sympy, and beta's enclosure holds sympy's
    root: exactly, or where it meets sympy's isolating interval the
    square-free part changes sign."""
    poly, root, a, b = oracle
    lo, hi = beta.enclosure()
    assert beta.is_rational() == root.is_Rational
    if root.is_Rational:
        assert lo == hi == Fraction(root.p, root.q)
        return
    lo, hi = max(lo, a), min(hi, b)
    assert lo <= hi and poly.eval(lo) * poly.eval(hi) <= 0


polynomial_factors = st.lists(
    st.lists(st.integers(-3, 3), min_size=2, max_size=4).filter(
        lambda f: f[0] != 0),
    min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(factors=polynomial_factors, repeat=st.booleans())
# Sturm chains whose degree drops by two, where a pseudo-remainder taken
# with a negative multiplier flips a sign and miscounts the roots
@example(factors=[[-2, 0, 1], [1, 0, 2]], repeat=False)
@example(factors=[[-1, 3, 0, 0, 0, -4, -4]], repeat=False)
# the rational root 13/5 of 5x^2 - 13x: an enclosure only narrower than
# 1/(2c) = 1/10 puts 5/2 nearer its midpoint
@example(factors=[[5, -13], [3, 0, 0]], repeat=False)
def test_root_isolation_matches_sympy(factors, repeat):
    """Integer polynomials of degree <= 8 with small coefficients, as
    products of up to three factors, the first repeated when asked: the
    enclosure holds sympy's largest real root > 1, is_rational agrees with
    sympy, and "no real root above 1" is raised exactly when sympy finds
    none."""
    if repeat:
        factors = [factors[0]] + factors
    coeffs = [1]
    for f in factors:
        coeffs = [int(c) for c in numpy.polymul(coeffs, f)]
    if len(coeffs) > 9:
        return
    oracle = sympy_largest_root(coeffs)
    if oracle is None:
        with pytest.raises(UsageError, match="no real root above 1"):
            BetaNumber.from_polynomial(coeffs)
    else:
        assert_root_matches_sympy(oracle, BetaNumber.from_polynomial(coeffs))


def test_simple_approximations_match_sympy():
    """The 77 simple approximations beta(n) of 1.7 and 3/2, n = 2..40
    (3/2 at n = 2 truncates to (1)), of degree up to 39: each root agrees
    with sympy's, from the digit string and from its polynomial."""
    from sympy import Poly, Symbol

    checked = reducible = 0
    for text in ("1.7", "3/2"):
        beta = BetaNumber.from_decimal(text)
        for n in range(2, 41):
            trunc = list(beta.digits(n))
            while trunc[-1] == 0:
                trunc.pop()
            if trunc == [1]:
                continue
            coeffs = [1] + [-d for d in trunc]
            oracle = sympy_largest_root(coeffs)
            assert_root_matches_sympy(oracle, simple_beta_approx(beta, n))
            assert_root_matches_sympy(oracle,
                                      BetaNumber.from_polynomial(coeffs))
            checked += 1
            reducible += not Poly(coeffs, Symbol("x")).is_irreducible
    assert (checked, reducible) == (77, 22)


@pytest.mark.parametrize("coeffs, form", [
    ([1, 0, -5, -2], ((), (2, 0))),
    ([1, 1, -3, -2], ((), (1, 0))),
    ([2, -1, -3, -1], ((), (1, 0))),
    ([1, -1, -1, 0, 0], ((), (1, 0))),
    ([1, -2, 0, 0, 1], ((), (1, 1, 0))),
    ([2, -3, -6, 2, 2], ((2,), (1, 0))),
])
def test_reducible_products_keep_their_expansion_of_one(coeffs, form):
    """(x^2 - 2x - 1)(x + 2), (x^2 - x - 1)(x + 2), (x^2 - x - 1)(2x + 1),
    x^2 (x^2 - x - 1), (x^3 - x^2 - x - 1)(x - 1), and the root of
    x^3 - 2x^2 - 2x + 2, w = 2(10)^inf, times 2x + 1.  beta's vectors live
    in Q[x]/(p) for the reducible squarefree part p, where they do not fix
    a value, so the floors on an integer, the finite expansion (21 for
    1 + sqrt 2, 11 for the golden mean) and the eventual period of the
    last orbit, whose p is not monic, are seen only by a zero test by
    value."""
    beta = BetaNumber.from_polynomial(coeffs)
    beta.digits(40)
    assert beta.periodic_form() == form
    digits = BetaNumber.from_digit_string(format_periodic(*form))
    assert beta.compare(digits) == 0 and digits.compare(beta) == 0


def test_rational_root_of_a_reducible_product():
    # (2x - 3)(x^2 + 1): the rational root 3/2 gives the degree-1 context
    beta = BetaNumber.from_polynomial([2, -3, 2, -3])
    assert beta.is_rational()
    assert beta.enclosure() == (Fraction(3, 2), Fraction(3, 2))
    beta.digits(40)
    assert beta.periodic_form() is None
    assert beta.compare(BetaNumber.from_decimal("3/2")) == 0


def test_zero_test_shrinks_the_polynomial():
    """The gcd that finds the finite expansion 11 of the golden mean from
    (x^2 - x - 1)(2x + 1) is x^2 - x - 1, which replaces the polynomial;
    the enclosure still isolates beta."""
    beta = BetaNumber.from_polynomial([2, -1, -3, -1])
    assert beta._ctx.poly_asc == (-1, -3, -1, 2)
    beta.digits(2)
    assert beta._ctx.poly_asc == (-1, -1, 1)
    lo, hi = beta.enclosure(Fraction(1, 2 ** 80))
    assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1
    assert abs(beta.value - PHI) < 1e-15


def test_is_zero_needs_the_gcd_to_carry_beta():
    """r = (x + 2)(10^7 x - 16180340) shares the factor x + 2 with
    p = (x^2 - x - 1)(x + 2), and its enclosure at 2^-16 holds 0, yet
    r(phi) != 0: only a gcd that changes sign on the enclosure vanishes
    at beta."""
    beta = BetaNumber.from_polynomial([1, 1, -3, -2])
    r = (-32360680, 3819660, 10 ** 7)
    lo, hi, _ = beta._ctx.enclose(r, 1)
    assert lo < 0 < hi
    assert not beta._ctx.is_zero(r)
    assert beta._ctx.poly_asc == (-2, -3, 1, 1)


def test_value_is_rounded_from_beta_not_from_a_midpoint():
    """beta = b - 2^-80 or so, b = 3/2 + 2^-53 halfway between two
    floats, from (x - b)(x - b - 1) - 2^-80 times 2^106, enclosed in
    [b - 2^-62, b + 3 * 2^-62]: the enclosure's midpoint rounds up, beta
    rounds down."""
    big = 3 * 2 ** 52 + 1
    coeffs = (big * (big + 2 ** 53) - 2 ** 26, -(2 ** 53) * (2 * big + 2 ** 53),
              2 ** 106)
    b = Fraction(big, 2 ** 53)
    lo, hi = b - Fraction(1, 2 ** 62), b + Fraction(3, 2 ** 62)
    beta = BetaNumber(AlgebraicContext(coeffs, lo, hi))
    assert float((lo + hi) / 2) == 1.5 + 2 ** -52
    assert beta.value == 1.5


@pytest.mark.parametrize("coeffs, lo, hi", [
    ((-1, -1, 1), Fraction(3, 2), Fraction(13, 8)),
    ((-1, -1, 1), Fraction(1), Fraction(2)),
    ((-1, -1, 1), Fraction(161803, 100000), Fraction(161804, 100000)),
    ((-3, 0, 1), Fraction(17, 10), Fraction(7, 4)),
])
def test_value_does_not_depend_on_the_starting_enclosure(coeffs, lo, hi):
    """value is beta rounded to the nearest float, whatever enclosure the
    isolation started from."""
    beta = BetaNumber(AlgebraicContext(coeffs, lo, hi))
    same = BetaNumber.from_polynomial(list(reversed(coeffs)))
    ends = beta.enclosure(Fraction(1, 2 ** 200))
    assert beta.value == same.value == float(ends[0]) == float(ends[1])


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


def test_simple_beta_approx_trailing_zeros(beta_golden):
    # truncating (1,0,1,0) strips the trailing zero: w(beta(4)) = (100)^inf
    bn = simple_beta_approx(beta_golden, 4)
    assert bn.periodic_form() == ((), (1, 0, 0))


def test_simple_beta_approx_degenerate(beta_two):
    with pytest.raises(UsageError, match=r"truncation \(1\) gives beta\(n\)"):
        simple_beta_approx(beta_two, 1)


def test_compare(beta_two, beta_golden):
    assert beta_two.compare(beta_golden) > 0
    assert beta_golden.compare(beta_two) == -1
    assert beta_golden.compare(beta_golden) == 0


def test_compare_equal_minimal_polynomials_needs_no_refinement():
    """The same root from its polynomial and from its digits: the two
    polynomials' gcd changes sign where the enclosures overlap, which gives
    0 before either enclosure is refined far."""
    poly = BetaNumber.from_polynomial([1, -1, -1])
    digits = BetaNumber.from_digit_string("(10)")
    assert poly.compare(digits) == 0 and digits.compare(poly) == 0
    for beta in (poly, digits):
        assert beta._ctx.hi - beta._ctx.lo > Fraction(1, 2 ** 100)


def test_non_monic_linear_root_is_rational():
    """The root 5/3 of 3x - 5: once the enclosure is narrower than 1/3^2,
    its one fraction with denominator <= 3 is tested, and it is the root."""
    beta = BetaNumber.from_polynomial([3, -5])
    assert beta.is_rational()
    assert beta.enclosure() == (Fraction(5, 3), Fraction(5, 3))
    assert beta.digit_bound == 1


def test_context_of_a_linear_polynomial_is_its_exact_root():
    # a rational root is its own enclosure, whatever enclosure is given
    ctx = AlgebraicContext((-3, 2), 1, 2)
    assert ctx.lo == ctx.hi == Fraction(3, 2)
    ctx.refine_to(Fraction(1, 2 ** 64))
    assert ctx.lo == ctx.hi == Fraction(3, 2)


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
    # each run starts from a copy of the same root enclosure
    x = Fraction(k, 10 ** 6)
    digits = oracle_greedy_fraction(x, copy.deepcopy(bench_bases[name]), n)
    word = greedy_expansion(x, copy.deepcopy(bench_bases[name]), n)
    assert list(word.digits) == digits


def test_non_monic_base_matches_fraction_oracle():
    # the state denominator grows by the leading coefficient each step; a
    # non-monic beta is no algebraic integer, so w(beta) never repeats
    for coeffs in ([2, -3, -1], [3, -5, -1], [5, -7, -3]):
        beta, lead = BetaNumber.from_polynomial(coeffs), coeffs[0]
        for x in (Fraction(0), Fraction(3, 10), Fraction(999999, 10 ** 6)):
            digits = oracle_greedy_fraction(x, copy.deepcopy(beta), 48)
            word = greedy_expansion(x, copy.deepcopy(beta), 48)
            assert list(word.digits) == digits
            r = _point(beta, x)
            den0 = r[1]
            for k in range(1, 49):
                _, r = _greedy_step(beta, r)
                assert r[1] == lead ** k * den0
        beta.digits(300)
        assert beta.periodic_form() is None


def test_floor_on_closed_upper_endpoint_needs_no_refinement():
    # phi in [12/8, 13/8]: 8 * phi has the enclosure [12, 13], whose upper
    # end is an integer the irrational value cannot reach
    ctx = AlgebraicContext((-1, -1, 1), Fraction(3, 2), Fraction(13, 8))
    assert ctx.floor_vector((0, 8), 1) == 12
    assert (ctx.lo, ctx.hi) == (Fraction(3, 2), Fraction(13, 8))
    assert ctx.floor_vector((-1, 8), 1) == 11


def four_product_enclose(ctx, nums, den):
    """The interval Horner that forms all four products [lo, hi] * [a, b]
    at each step and keeps their min and max, on the same integer
    numerators over den * D^(len(nums) - 1), [a/D, b/D] the root
    enclosure.  Also returns the sign patterns of [lo, hi] it met."""
    D = math.lcm(ctx.lo.denominator, ctx.hi.denominator)
    a, b = int(ctx.lo * D), int(ctx.hi * D)
    lo = hi = nums[-1]
    patterns = set()
    for k in range(1, len(nums)):
        patterns.add((lo >= 0, hi >= 0))
        ps = (lo * a, lo * b, hi * a, hi * b)
        c = nums[-1 - k] * D ** k
        lo, hi = min(ps) + c, max(ps) + c
    return (lo, hi, den * D ** (len(nums) - 1)), patterns


@pytest.mark.parametrize("coeffs", [
    [1, -1, -1],  # golden
    [1, -1, -1, -1],  # tribonacci
    [1, -2, 0, -1, 0, 0, -2],  # (201001)
    [2, -3, -1],  # non-monic
    [2, -1, -3, -1],  # (x^2 - x - 1)(2x + 1), reducible
    None,  # golden on [0, 2]: a = 0
], ids=["golden", "tribonacci", "201001", "2x2-3x-1", "reducible",
        "golden-from-0"])
def test_enclose_is_the_four_product_interval(coeffs):
    """The two sign-chosen products per step give exactly the interval of
    all four, on random vectors with negative, zero and positive entries,
    at the starting enclosure and after refining it to 2^-100."""
    if coeffs is None:
        ctx = AlgebraicContext((-1, -1, 1), Fraction(0), Fraction(2))
    else:
        ctx = BetaNumber.from_polynomial(coeffs)._ctx
    rng = random.Random(22)
    patterns = set()
    for width in (None, Fraction(1, 2 ** 100)):
        if width is not None:
            ctx.refine_to(width)
        for _ in range(300):
            nums = [rng.choice((0, rng.randint(-9, 9),
                                rng.randint(-10 ** 30, 10 ** 30)))
                     for _ in range(ctx.degree)]
            if rng.random() < 0.3:
                # the first step's interval holds 0 when |nums[-1]| is
                # past the inverse enclosure width
                nums[-2] = -math.floor(nums[-1] * (ctx.lo + ctx.hi) / 2)
            nums = tuple(nums)
            den = rng.randint(1, 10 ** 6)
            expected, seen = four_product_enclose(ctx, nums, den)
            assert ctx.enclose(nums, den) == expected, (nums, den)
            patterns |= seen
    # at degree 2 the one step starts from lo = hi, which cannot straddle 0
    straddle = {(False, True)} if ctx.degree > 2 else set()
    assert patterns == {(True, True), (False, False)} | straddle


def test_context_refuses_an_enclosure_below_zero():
    """Above degree 1 the enclosure must lie in [0, inf), where the sign
    of each Horner end picks its product; [-1/2, 2] straddles only the
    root phi of x^2 - x - 1, yet it is refused."""
    with pytest.raises(UsageError,
                       match=r"must lie in \[0, inf\), got lo = -1/2"):
        AlgebraicContext((-1, -1, 1), Fraction(-1, 2), Fraction(2))
    with pytest.raises(UsageError, match="must straddle the root"):
        AlgebraicContext((-1, -1, 1), Fraction(2), Fraction(3))
    ctx = AlgebraicContext((-1, -1, 1), Fraction(0), Fraction(2))
    assert ctx.floor_vector((0, 1), 1) == 1


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
    if cap is None:
        monkeypatch.delenv("BETALAB_PRECISION_BITS", raising=False)
    else:
        monkeypatch.setenv("BETALAB_PRECISION_BITS", str(cap))
    ctx = BetaNumber.from_polynomial([1, -1, -1])._ctx
    f_prev, f, lucas = _fib_lucas(n)
    if lucas_minus_one:
        assert ctx.floor_vector((f_prev, f), 1) == lucas - 1
    else:
        with pytest.raises(UndecidableAtPrecision):
            ctx.floor_vector((f_prev, f), 1)


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
