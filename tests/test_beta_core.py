import contextlib
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
    DEFAULT_PRECISION_BITS,
    AlgebraicContext,
    BetaNumber,
    _advance,
    _check_self_admissible_ep,
    _greedy_digits,
    _greedy_step,
    _largest_root_above_one,
    _sign_at,
    _point,
    _rational_digits,
    _times_beta,
    beta_from_expansion,
    expansion_of_one,
    greedy_expansion,
    precision_cap,
    simple_beta_approx,
)
from betalab.errors import UndecidableAtPrecision, UsageError
from betalab.words import format_periodic

PHI = (1 + math.sqrt(5)) / 2


def set_cap(monkeypatch, bits=None):
    """Patch the precision cap, which precision_cap reads from the
    environment once per process; None stands for the default."""
    monkeypatch.setattr("betalab.beta_core.precision_cap",
                        lambda: bits or DEFAULT_PRECISION_BITS)


def longest_block(ctx, r, cap=None):
    """The longest block _block_digits takes from the state r: the largest
    k with ceil(k log2 beta) + guard within the cap, the guard being 64
    bits plus the state's magnitude and _log2 / 2^10 standing for log2
    beta; below 1 when none fits."""
    cap = cap or DEFAULT_PRECISION_BITS
    nums, den = r
    guard = 64 + max(0, max(map(abs, nums)).bit_length() - den.bit_length()
                     + (ctx.degree * ctx._log2 >> 10) + 1)
    return ((cap - guard) << 10) // ctx._log2


def oracle_greedy_fraction(x, beta, n, cap=256):
    """Greedy digits of x by the greedy step on Fractions.

    An independent check of the integer kernel: the remainder is a Fraction
    (rational beta) or a Fraction vector in Q[x]/(p) multiplied by beta
    through p / lead, and floors come from an interval Horner on the
    Fraction endpoints of the root enclosure, refined by 2^8 until they
    agree; a floor still undecided once the enclosure is narrower than
    2^-cap raises UndecidableAtPrecision.
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
            if width < Fraction(1, 2 ** cap):
                raise UndecidableAtPrecision(f"oracle floor at {cap} bits")
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


@pytest.mark.parametrize("make", [
    lambda: BetaNumber.from_digit_string("21(01)"),
    lambda: BetaNumber.from_digit_string("(201001)"),
    lambda: BetaNumber.from_polynomial([1, -1, -1]),
    lambda: BetaNumber.from_decimal("2"),
    lambda: BetaNumber.from_decimal("1.7"),
], ids=["21(01)", "(201001)", "golden", "two", "1.7"])
def test_digit_matches_digits(make):
    """digit(i) is the i-th of digits(n), read first digit by digit on a
    fresh base (a digit-string base knows its periodic form before any
    digit exists, so the preperiod is read from it), then sliced."""
    beta, n = make(), 40
    by_digit = [beta.digit(i) for i in range(1, n + 1)]
    assert by_digit == list(beta.digits(n)) == list(make().digits(n))
    for i in (1, n // 2, n):
        assert beta.digit(i) == beta.digits(n)[i - 1]


def test_digit_rejects_index_below_one(beta_golden):
    for i in (0, -1):
        with pytest.raises(UsageError):
            beta_golden.digit(i)


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
    # not a number: once a ValueError from the Fraction parse
    with pytest.raises(UsageError, match="x must be a number, got 'abc'"):
        greedy_expansion("abc", beta_golden, 4)


def test_greedy_expansion_of_zero_is_all_zeros(bench_bases):
    """Above degree 1 the zero state's fixed-point enclosure is the one
    point 0, and on a rational base the exact step is one integer
    division: every floor is 0, decided without refining beta."""
    for beta in bench_bases.values():
        beta = copy.deepcopy(beta)
        enclosure = (beta._ctx.lo, beta._ctx.hi)
        assert greedy_expansion(0, beta, 64).digits == bytes(64)
        assert (beta._ctx.lo, beta._ctx.hi) == enclosure


def test_beta_from_expansion_round_trip(beta_golden):
    again = beta_from_expansion((), (1, 0))
    assert abs(again.value - PHI) < 1e-12


def test_beta_from_expansion_rejects_non_self_admissible():
    """The given digits are checked, not their quasi-greedy form: 1011
    fails where (1010)^inf passes."""
    with pytest.raises(UsageError, match=r"fails sigma\^k\(w\) <= w"):
        beta_from_expansion((1, 0, 1, 1), ())
    assert _check_self_admissible_ep((), (1, 0, 1, 0))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: BetaNumber.from_polynomial([0, 0, 5]),
                 "polynomial must be non-constant", id="constant-polynomial"),
    pytest.param(lambda: beta_from_expansion((0, 1)),
                 "leading digit must be >= 1", id="leading-zero"),
    pytest.param(lambda: beta_from_expansion((2, -1, 1)),
                 "digits must be nonnegative", id="negative-digit"),
    pytest.param(lambda: beta_from_expansion((1, 0, 0)),
                 r"sequence \(1,0,0,...\) gives beta = 1", id="one-zeros"),
    pytest.param(lambda: beta_from_expansion((1,), (0,)),
                 r"sequence \(1,0,0,...\) gives beta = 1",
                 id="one-zero-period"),
])
def test_constructors_refuse(call, message):
    with pytest.raises(UsageError, match=message):
        call()


@pytest.mark.parametrize("padded, plain", [
    pytest.param(lambda: BetaNumber.from_polynomial([0, 0, 1, -1, -1]),
                 lambda: BetaNumber.from_polynomial([1, -1, -1]),
                 id="leading-zero-coefficients"),
    pytest.param(lambda: beta_from_expansion((1, 1, 0, 0)),
                 lambda: beta_from_expansion((1, 1)), id="trailing-zeros"),
])
def test_constructors_strip_zero_padding(padded, plain):
    """Zero padding names the same base: the same polynomial and root."""
    a, b = padded(), plain()
    assert a._ctx.poly_asc == b._ctx.poly_asc and a.compare(b) == 0
    assert a.digits(12) == b.digits(12)


def oracle_cleared_form(prefix, period):
    """Ascending coefficients of the polynomial written out digit by digit:
    (x^q - 1)(x^p - sum_j a_j x^(p-j)) - sum_i c_i x^(q-i) for a period
    c_1 .. c_q after the prefix a_1 .. a_p, and x^p - sum_j a_j x^(p-j)
    for a finite expansion."""
    p, q = len(prefix), len(period)
    if period:
        coeffs = [0] * (p + q + 1)
        coeffs[p + q] += 1
        coeffs[p] -= 1
        for j, a in enumerate(prefix, start=1):
            coeffs[p + q - j] -= a
            coeffs[p - j] += a
        for i, c in enumerate(period, start=1):
            coeffs[q - i] -= c
    else:
        coeffs = [0] * (p + 1)
        coeffs[p] = 1
        for j, a in enumerate(prefix, start=1):
            coeffs[p - j] -= a
    return tuple(coeffs)


def test_beta_from_expansion_matches_the_cleared_form():
    """Seeded random self-admissible (prefix, period) pairs over {0..3},
    finite and periodic: the base has the polynomial and enclosure of the
    cleared form's largest root, and w(beta) is the quasi-greedy form of
    the digits."""
    rng = random.Random(1994)
    kinds = {"finite": 0, "periodic": 0}
    while min(kinds.values()) < 120:
        prefix, period = (tuple(rng.randint(0, 3)
                                for _ in range(rng.randint(0, 5)))
                          for _ in range(2))
        if period and not any(period):
            continue  # an all-zero period is trimmed away
        if not period and (not prefix or prefix[-1] == 0 or prefix == (1,)):
            continue  # trailing zeros are trimmed, and (1) is refused
        if (prefix + period)[0] == 0 or not _check_self_admissible_ep(
                prefix, period):
            continue
        kinds["periodic" if period else "finite"] += 1
        beta = beta_from_expansion(prefix, period)
        oracle = BetaNumber(_largest_root_above_one(
            oracle_cleared_form(prefix, period)))
        assert (beta._ctx.poly_asc, beta._ctx.lo, beta._ctx.hi) == \
            (oracle._ctx.poly_asc, oracle._ctx.lo, oracle._ctx.hi), \
            (prefix, period)
        assert beta.periodic_form() == (
            (prefix, period) if period
            else ((), prefix[:-1] + (prefix[-1] - 1,)))


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
    """r = (x + 2)(10^7 x - 16180340) and s = (x + 2)(F_60 x - F_61) share
    the factor x + 2 with p = (x^2 - x - 1)(x + 2), yet neither vanishes
    at phi: only a gcd that changes sign on the enclosure vanishes at beta.
    s(phi) is about -10^-12, so its 64-bit fixed-point enclosure holds 0
    and the gcd is reached."""
    beta = BetaNumber.from_polynomial([1, 1, -3, -2])
    f60, f61, _ = _fib_lucas(61)
    r = (-32360680, 3819660, 10 ** 7)
    s = (-2 * f61, 2 * f60 - f61, f60)
    vl, vh = beta._ctx._fixed_enclose(s, 1, 64)
    assert vl < 0 < vh
    assert not beta._ctx.is_zero(r)
    assert not beta._ctx.is_zero(s)
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


@pytest.mark.parametrize("n, bits", [(60, 48), (200, 144)])
def test_compare_refines_until_the_enclosures_separate(monkeypatch, n, bits):
    """beta(n), the simple base of golden's first n digits, lies about
    golden^-n below golden: the enclosures overlap at width 2^-32 and are
    refined by 2^-16 steps until they separate at 2^-bits.  With the cap
    at 64 bits, 2^-144 is out of reach and the comparison is refused."""
    golden = BetaNumber.from_polynomial([1, -1, -1])
    approx = simple_beta_approx(BetaNumber.from_polynomial([1, -1, -1]), n)
    assert golden.compare(approx) == 1 and approx.compare(golden) == -1
    for beta in (golden, approx):
        assert Fraction(1, 2 ** (bits + 16)) < \
            beta._ctx.hi - beta._ctx.lo <= Fraction(1, 2 ** bits)
    set_cap(monkeypatch, 64)
    golden = BetaNumber.from_polynomial([1, -1, -1])
    approx = simple_beta_approx(BetaNumber.from_polynomial([1, -1, -1]), n)
    if bits > 64:
        with pytest.raises(UndecidableAtPrecision, match="undecided at cap"):
            golden.compare(approx)
    else:
        assert golden.compare(approx) == 1


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


rational_bases = st.one_of(
    st.integers(2, 255).map(str),
    st.integers(2, 1000).flatmap(lambda q: st.integers(q + 1, 256 * q - 1).map(
        lambda p: str(Fraction(p, q)))),
    st.builds("{}.{:02d}0".format, st.integers(1, 255), st.integers(0, 99)
              ).filter(lambda b: Fraction(b) > 1))


@settings(max_examples=60, deadline=None)
@given(base=rational_bases,
       x=st.builds(lambda b, a: Fraction(a % b, b), st.integers(1, 10 ** 9),
                   st.integers(0, 10 ** 9)),
       n=st.integers(1, 2000))
@example(base="2", x=Fraction(0), n=1)
@example(base="3/2", x=Fraction(0), n=2000)
@example(base="255.990", x=Fraction(999, 1000), n=1)
def test_rational_loop_matches_oracle_and_steps(base, x, n):
    """On rational bases p/q with digits up to 255 (integers, reduced
    fractions and decimal literals with a trailing zero), the loop gives
    the Fraction oracle's digits, and the digits and final state of n
    chained _greedy_step calls."""
    beta = BetaNumber.from_decimal(base)
    assert beta.digit_bound <= 255
    r = _point(beta, x)
    digits, state = _rational_digits(beta._ctx.poly_asc, r, n)
    assert list(greedy_expansion(x, beta, n).digits) == digits
    assert digits == oracle_greedy_fraction(x, beta, n)
    steps = []
    for _ in range(n):
        d, r = _greedy_step(beta, r)
        steps.append(d)
    assert (steps, r) == (digits, state)


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
    # phi in [12/8, 13/8]: 8 * phi lies in [12, 13], whose upper end is an
    # integer the irrational value cannot reach; the floor comes from the
    # fixed-point bounds of phi, bisected apart from the root enclosure
    ctx = AlgebraicContext((-1, -1, 1), Fraction(3, 2), Fraction(13, 8))
    assert ctx.floor_vector((0, 8), 1) == 12
    assert (ctx.lo, ctx.hi) == (Fraction(3, 2), Fraction(13, 8))
    assert ctx.floor_vector((-1, 8), 1) == 11


def four_product_enclose(ref, nums, den):
    """(lo, hi, q) with the value sum nums[i] * beta^i / den in [lo/q,
    hi/q]: the interval Horner over the root enclosure [a/D, b/D] of the
    context ref that forms all four products [lo, hi] * [a, b] at each
    step and keeps their min and max, on integer numerators over
    q = den * D^(len(nums) - 1)."""
    D = math.lcm(ref.lo.denominator, ref.hi.denominator)
    a, b = int(ref.lo * D), int(ref.hi * D)
    lo = hi = nums[-1]
    for k in range(1, len(nums)):
        ps = (lo * a, lo * b, hi * a, hi * b)
        c = nums[-1 - k] * D ** k
        lo, hi = min(ps) + c, max(ps) + c
    return lo, hi, den * D ** (len(nums) - 1)


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
    set_cap(monkeypatch, cap)
    ctx = BetaNumber.from_polynomial([1, -1, -1])._ctx
    f_prev, f, lucas = _fib_lucas(n)
    if lucas_minus_one:
        assert ctx.floor_vector((f_prev, f), 1) == lucas - 1
    else:
        with pytest.raises(UndecidableAtPrecision):
            ctx.floor_vector((f_prev, f), 1)


@pytest.fixture(scope="module")
def block_bases(bench_bases):
    """bench_bases plus a non-monic, a reducible, a preperiodic and a
    degree-9 simple base."""
    return {**bench_bases,
            "2x2-3x-1": BetaNumber.from_polynomial([2, -3, -1]),
            # (x^2 - 3)(x^2 - x - 1): beta = sqrt 3, conjugate -sqrt 3
            "reducible": BetaNumber.from_polynomial([1, -1, -4, 3, 3]),
            "21(01)": BetaNumber.from_digit_string("21(01)"),
            "simple-1.7": simple_beta_approx(BetaNumber.from_decimal("1.7"), 12)}


@pytest.mark.parametrize("cap", [None, 96, 64],
                         ids=["default-cap", "cap-96", "cap-64"])
@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven", "2x2-3x-1",
                                  "reducible", "21(01)", "simple-1.7"])
def test_blocks_match_fraction_oracle(monkeypatch, block_bases, name, cap):
    """Digits from fixed-point blocks equal the Fraction oracle's at the
    lengths 1, k - 1, k, k + 1 and 700, k the block length of x's state;
    where the oracle's floor is undecided at the cap, greedy_expansion
    raises UndecidableAtPrecision too.  At 96 bits a block is a few dozen
    digits; at 64 none fits the 64-bit guard, so only the exact step runs.
    """
    set_cap(monkeypatch, cap)
    beta = block_bases[name]
    rng = random.Random(26)
    for _ in range(2):
        x = Fraction(rng.randrange(10 ** 6), 10 ** 6)
        k = 0
        if not beta.is_rational():
            k = longest_block(beta._ctx, _point(beta, x), cap)
            assert {None: k > 100, 96: 10 <= k <= 60, 64: k < 1}[cap], k
        for n in sorted({n for n in (1, k - 1, k, k + 1, 700) if n >= 1}):
            try:
                expected = oracle_greedy_fraction(
                    x, copy.deepcopy(beta), n, cap or 256)
            except UndecidableAtPrecision:
                with pytest.raises(UndecidableAtPrecision):
                    greedy_expansion(x, copy.deepcopy(beta), n)
            else:
                word = greedy_expansion(x, copy.deepcopy(beta), n)
                assert list(word.digits) == expected, (x, n)


@pytest.mark.parametrize("n, undecided", [(150, True), (151, False)])
def test_block_hands_an_undecided_floor_to_the_exact_step(n, undecided):
    """r = (phi^n - L_n + [n even]) / phi = F_(n-2) + L_n - [n even] +
    (F_(n-1) - L_n + [n even]) phi has phi r = 1 - phi^-n (n even) or
    phi^-n (n odd), 2^-104 from an integer.  A one-digit block cannot
    decide the floor below 1, and the exact step gives the digit; the one
    above 0 is decided from the clamped lower end.  Later digits agree
    with the exact step's too."""
    beta = BetaNumber.from_polynomial([1, -1, -1])
    exact = copy.deepcopy(beta)
    f_prev, f, lucas = _fib_lucas(n)
    s = 1 - n % 2
    r = ((f - f_prev + lucas - s, f_prev - lucas + s), 1)
    assert beta._ctx._block_digits(*r, 1) == ([] if undecided else [0], 1)
    digits, state = [], r
    for _ in range(40):
        d, state = _greedy_step(exact, state)
        digits.append(d)
    assert digits[0] == 0
    assert _greedy_digits(beta, r, 40) == digits


@pytest.mark.parametrize("nums", [(0, 1, 0, 0), (0, -8, 0, 3)])
def test_block_leaves_an_integer_floor_to_the_gcd(nums):
    """On (x^2 - 3)(x^2 - x - 1), beta = sqrt 3, both vectors over 3 are
    sqrt 3 / 3, so beta r = 1 exactly: no outward-rounded interval decides
    that floor, whatever its P, and the exact step's gcd test gives 1, then
    the zeros of remainder 0."""
    beta = BetaNumber.from_polynomial([1, -1, -4, 3, 3])
    exact = copy.deepcopy(beta)
    r = (nums, 3)
    # blocks of 1 to 40 digits: P and the rounding vary with the length
    for n in range(1, 41):
        assert beta._ctx._block_digits(*r, n) == ([], n)
    digits, state = [], r
    for _ in range(20):
        d, state = _greedy_step(exact, state)
        digits.append(d)
    assert digits == [1] + [0] * 19
    assert _greedy_digits(beta, r, 20) == digits


def per_digit_advance(poly, r, digits):
    """The greedy state after the given digits of r, one exact step per
    digit: the oracle for _advance's one jump per block."""
    nums, den = r
    for d in digits:
        nums, den = _times_beta(poly, nums, den)
        nums[0] -= d * den
    return tuple(nums), den


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven", "2x2-3x-1",
                                  "reducible", "21(01)", "simple-1.7"])
def test_jump_matches_per_digit_advance(monkeypatch, block_bases, name):
    """One jump by k digits gives the state that k exact steps give, for
    k = 0, 1, a full block and lengths that extend the table of powers,
    from states with negative, zero and large numerators and random
    digits, and from greedy states with their own digits."""
    set_cap(monkeypatch)
    beta = copy.deepcopy(block_bases[name])
    ctx = beta._ctx
    rng = random.Random(28)
    x = Fraction(rng.randrange(10 ** 6), 10 ** 6)
    k_max = longest_block(ctx, _point(beta, x)) if ctx.degree > 1 else 300
    grown = []
    for k in (0, 1, k_max, 7, k_max + 40, 2 * k_max + 3, 5):
        nums = tuple(rng.choice((0, rng.randint(-9, 9),
                                 rng.randint(-10 ** 30, 10 ** 30)))
                     for _ in range(ctx.degree))
        r = (nums, rng.choice((1, rng.randint(1, 10 ** 6))))
        digits = [rng.randint(0, beta.digit_bound) for _ in range(k)]
        assert _advance(ctx, r, digits) == per_digit_advance(
            ctx.poly_asc, r, digits), (k, r)
        grown.append(len(ctx._powers[2]))
    assert grown == sorted(grown) and grown[-1] >= 2 * k_max + 3
    r = _point(beta, x)
    digits = _greedy_digits(copy.deepcopy(beta), r, k_max + 1)
    assert _advance(ctx, r, digits) == per_digit_advance(
        ctx.poly_asc, r, digits)


def test_jump_follows_a_shrunk_polynomial():
    """Once is_zero shrinks (x^2 - 3)(x^2 - x - 1) to x^2 - 3, the next
    jump reads a table of the new p's powers, not the old one."""
    beta = BetaNumber.from_polynomial([1, -1, -4, 3, 3])
    ctx = beta._ctx
    r = ((1, 2, -3, 4), 5)
    digits = [1, 0, 1, 1, 0, 0, 1] * 20
    assert _advance(ctx, r, digits) == per_digit_advance(
        ctx.poly_asc, r, digits)
    assert ctx._powers[0] == (3, 3, -4, -1, 1)
    assert ctx.is_zero((-3, 0, 1)) and ctx.poly_asc == (-3, 0, 1)
    r = ((1, 2), 5)
    assert _advance(ctx, r, digits) == per_digit_advance(
        ctx.poly_asc, r, digits)
    assert ctx._powers[0] == (-3, 0, 1)
    assert ctx._powers[1][1][:4] == [0, 1, 0, 3]


def test_power_table_stays_one_block_long(monkeypatch):
    """A 10,000-digit golden expansion advances block by block, and the
    table of powers holds at most the longest block plus the degree plus
    one rows, however many digits the expansion asks for."""
    set_cap(monkeypatch)
    beta = BetaNumber.from_polynomial([1, -1, -1])
    ctx = beta._ctx
    block_digits = AlgebraicContext._block_digits
    lengths = []

    def recorded(*args):
        block, k = block_digits(*args)
        lengths.append(len(block))
        return block, k

    monkeypatch.setattr(AlgebraicContext, "_block_digits", recorded)
    x = Fraction(3, 10)
    word = greedy_expansion(x, beta, 10_000)
    assert len(lengths) > 20 and max(lengths) < 1000
    rows = len(ctx._powers[2])
    assert rows <= max(lengths) + ctx.degree + 1
    assert list(word.digits[:700]) == oracle_greedy_fraction(
        x, copy.deepcopy(beta), 700)
    greedy_expansion(x, beta, 20_000)
    assert len(ctx._powers[2]) == rows


def oracle_floor(ctx, nums, den):
    """floor(sum nums[i] * beta^i / den) by four_product_enclose on a copy
    of ctx whose root enclosure narrows by 2^64 until both ends floor
    alike."""
    ref = copy.deepcopy(ctx)
    width = ref.hi - ref.lo
    while True:
        lo, hi, q = four_product_enclose(ref, nums, den)
        if lo // q == hi // q:
            return lo // q
        width /= 2 ** 64
        assert width > Fraction(1, 2 ** 4096), (nums, den)
        ref.refine_to(width)


def sqrt3_floor(ctx, nums, den):
    """floor((a + b sqrt 3) / den) for beta = sqrt 3, where a and b sum
    the even- and odd-indexed nums[i] 3^(i // 2): exact on integers, so it
    decides the integer values that no enclosure decides."""
    a = sum(c * 3 ** (i // 2) for i, c in enumerate(nums) if i % 2 == 0)
    b = sum(c * 3 ** (i // 2) for i, c in enumerate(nums) if i % 2)
    root = math.isqrt(3 * b * b)  # floor(|b| sqrt 3), irrational for b != 0
    return (a + root if b >= 0 else a - root - 1) // den


def floor_battery(ctx, name):
    """(nums, den) pairs for floor_vector: 200 random vectors with
    negative, zero and positive entries up to 10^30 and denominators 1 to
    10^6, plus on the reducible base beta times the two vectors for sqrt 3
    / 3 of test_block_leaves_an_integer_floor_to_the_gcd, 1 exactly."""
    rng = random.Random(27)
    cases = []
    for _ in range(200):
        nums = tuple(rng.choice((0, rng.randint(-9, 9),
                                 rng.randint(-10 ** 30, 10 ** 30)))
                     for _ in range(ctx.degree))
        cases.append((nums, rng.choice((1, rng.randint(1, 10 ** 6)))))
    if name == "reducible":
        for nums in ((0, 1, 0, 0), (0, -8, 0, 3)):
            t, den = _times_beta(ctx.poly_asc, nums, 3)
            cases.append((tuple(t), den))
    return cases


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven", "2x2-3x-1",
                                  "reducible", "21(01)", "simple-1.7"])
def test_floor_vector_matches_fraction_oracle(monkeypatch, block_bases, name):
    """floor_vector equals the Fraction oracle's floor on random vectors
    with negative, zero and positive entries up to 10^30 and denominators
    1 to 10^6, without calling refine_to or moving the root enclosure.  On
    (x^2 - 3)(x^2 - x - 1), beta = sqrt 3, where a vector with zero odd
    entries is an integer, the oracle is sqrt3_floor; there beta times the
    two vectors for sqrt 3 / 3 of
    test_block_leaves_an_integer_floor_to_the_gcd is 1 exactly too.  No
    enclosure decides such a floor, and the gcd at the cap does."""
    set_cap(monkeypatch)
    ctx = copy.deepcopy(block_bases[name]._ctx)
    oracle = sqrt3_floor if name == "reducible" else oracle_floor
    cases = [(nums, den, oracle(ctx, nums, den))
             for nums, den in floor_battery(ctx, name)]
    if name == "reducible":
        assert [c[2] for c in cases[-2:]] == [1, 1]
    before = (ctx.lo, ctx.hi)
    refine_to, root_factor = (AlgebraicContext.refine_to,
                              AlgebraicContext._root_factor)
    refines, gcds = [], []
    monkeypatch.setattr(AlgebraicContext, "refine_to",
                        lambda *a: refines.append(a) or refine_to(*a))
    monkeypatch.setattr(AlgebraicContext, "_root_factor",
                        lambda *a: gcds.append(a) or root_factor(*a))
    for nums, den, expected in cases:
        assert ctx.floor_vector(nums, den) == expected, (nums, den)
    assert (ctx.lo, ctx.hi) == before and refines == []
    assert bool(gcds) == (name == "reducible")


def test_undecidable_figure_expansion_still_raises(monkeypatch, beta_figure):
    """On (201001) the state's numerators grow, and x = 0.123457 meets a
    floor the default cap cannot decide before 10,000 digits: the blocks
    stop below the cap, so the exact step raises as it always did."""
    set_cap(monkeypatch)
    with pytest.raises(UndecidableAtPrecision):
        greedy_expansion(Fraction(123457, 10 ** 6),
                         copy.deepcopy(beta_figure), 10_000)


def test_no_block_is_asked_for_once_none_fits(monkeypatch, beta_figure):
    """The refusal above, with every _block_digits call recorded: blocks
    run while the state fits the guard, and once one call reports that no
    block fits (k = 0), the state having outgrown the cap, the expansion
    asks for no other block, and the exact step still raises."""
    set_cap(monkeypatch)
    block_digits = AlgebraicContext._block_digits
    ks = []

    def recorded(*args):
        block, k = block_digits(*args)
        ks.append(k)
        return block, k

    monkeypatch.setattr(AlgebraicContext, "_block_digits", recorded)
    with pytest.raises(UndecidableAtPrecision):
        greedy_expansion(Fraction(123457, 10 ** 6),
                         copy.deepcopy(beta_figure), 10_000)
    assert ks[0] > 0 and ks[-1] == 0 and 0 not in ks[:-1], ks[-5:]


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven", "2x2-3x-1",
                                  "reducible", "21(01)", "simple-1.7",
                                  "x2-1000x-1"])
def test_log2_bound_matches_the_power_oracle(block_bases, name):
    """_log2, from ten squarings of beta's 64-bit upper bound bh over a
    power of two, each rounded up, equals the bit length of bh^1024 less
    64 * 1024, so log2 beta < _log2 / 2^10; a fresh context has it from
    construction, with beta's bounds bisected at the cap."""
    beta = (BetaNumber.from_polynomial([1, -1000, -1]) if name == "x2-1000x-1"
            else block_bases[name])
    ctx = beta._ctx
    bh = ctx._beta_bounds(64)[1]
    assert ctx._log2 == (bh ** 1024).bit_length() - 64 * 1024
    fresh = AlgebraicContext(ctx.poly_asc, *beta.enclosure(Fraction(1, 4)))
    assert fresh._fixed[0] == precision_cap() and fresh._log2 == ctx._log2


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven", "2x2-3x-1",
                                  "reducible", "21(01)", "simple-1.7"])
def test_bounds_are_bisected_once_at_the_cap(monkeypatch, block_bases, name):
    """A fresh context leaves construction with beta's bounds bisected at
    the cap, and neither a 700-digit expansion nor the floor_vector
    battery bisects them again: every later P is a shift of them."""
    set_cap(monkeypatch)
    ctx = block_bases[name]._ctx
    beta = BetaNumber(AlgebraicContext(ctx.poly_asc, ctx.lo, ctx.hi))
    fixed = beta._ctx._fixed
    assert fixed[0] == DEFAULT_PRECISION_BITS
    with contextlib.suppress(UndecidableAtPrecision):  # an integer floor
        greedy_expansion(Fraction(3, 10), beta, 700)
    for nums, den in floor_battery(beta._ctx, name):
        beta._ctx.floor_vector(nums, den)
    assert beta._ctx._fixed is fixed


def test_a_decided_floor_is_one_enclosure_at_the_cap(monkeypatch):
    """phi^100 = F_99 + F_100 phi lies phi^-100 below L_100, so its floor
    needs about 140 bits: it takes one _fixed_enclose, at the cap, and no
    try at a smaller P first."""
    set_cap(monkeypatch)
    ctx = BetaNumber.from_polynomial([1, -1, -1])._ctx
    fixed_enclose = AlgebraicContext._fixed_enclose
    scales = []

    def recorded(self, nums, den, P):
        scales.append(P)
        return fixed_enclose(self, nums, den, P)

    monkeypatch.setattr(AlgebraicContext, "_fixed_enclose", recorded)
    f_prev, f, lucas = _fib_lucas(100)
    assert ctx.floor_vector((f_prev, f), 1) == lucas - 1
    assert scales == [DEFAULT_PRECISION_BITS]


def test_a_non_byte_alphabet_is_refused_before_any_digit(monkeypatch):
    """beta = 300.5 has digits up to 300, which no byte holds: both
    expansions refuse it at once instead of computing the digits first."""
    beta = BetaNumber.from_decimal("300.5")

    def no_digits(*args):
        raise AssertionError("a digit was computed")

    monkeypatch.setattr(BetaNumber, "digits", no_digits)
    monkeypatch.setattr("betalab.beta_core._greedy_digits", no_digits)
    with pytest.raises(UsageError, match=r"alphabet \{0..300\} does not fit"):
        expansion_of_one(beta, 200_000)
    with pytest.raises(UsageError, match=r"alphabet \{0..300\} does not fit"):
        greedy_expansion(Fraction(1, 3), beta, 200_000)


def test_precision_cap_is_read_once(monkeypatch):
    """precision_cap reads BETALAB_PRECISION_BITS the first time only, so a
    later change of the variable leaves the cap as it was."""
    precision_cap.cache_clear()
    monkeypatch.setenv("BETALAB_PRECISION_BITS", "300")
    try:
        assert precision_cap() == 300
        monkeypatch.setenv("BETALAB_PRECISION_BITS", "abc")
        assert precision_cap() == 300
    finally:
        precision_cap.cache_clear()


def test_blocks_leave_the_shared_enclosure_untouched(monkeypatch):
    """A 700-digit expansion in blocks neither refines the root enclosure
    nor calls floor_vector, and the cap means the same afterwards: the
    Lucas floor at n = 200 still raises on that context."""
    set_cap(monkeypatch)
    beta = BetaNumber.from_polynomial([1, -1, -1])
    ctx = beta._ctx
    before = (ctx.lo, ctx.hi)
    oracle = oracle_greedy_fraction(Fraction(3, 10), copy.deepcopy(beta), 700)
    floor_vector = AlgebraicContext.floor_vector
    calls = []
    monkeypatch.setattr(AlgebraicContext, "floor_vector",
                        lambda *a: calls.append(a) or floor_vector(*a))
    word = greedy_expansion(Fraction(3, 10), beta, 700)
    assert list(word.digits) == oracle
    assert (ctx.lo, ctx.hi) == before and calls == []
    f_prev, f, _ = _fib_lucas(200)
    with pytest.raises(UndecidableAtPrecision):
        ctx.floor_vector((f_prev, f), 1)


@pytest.mark.parametrize("coeffs", [
    [1, -1, -1], [1, -1, -1, -1], [1, -2, 0, -1, 0, 0, -2], [2, -3, -1],
    [1, -1, -4, 3, 3]],
    ids=["golden", "tribonacci", "201001", "2x2-3x-1", "reducible"])
def test_fixed_point_enclosure_holds_the_value(coeffs):
    """_fixed_enclose(nums, den, P) holds 2^P times the value, on random
    vectors with negative, zero and positive entries up to 10^30 and
    denominators 1 or up to 10^6: the exact interval Horner of a 2^-(P +
    200)-wide root enclosure lies inside it, and it is at most a few units
    wider than that interval needs."""
    ctx = BetaNumber.from_polynomial(coeffs)._ctx
    rng = random.Random(26)
    for P in (64, 97, 200, 256, 320):
        ref = copy.deepcopy(ctx)
        ref.refine_to(Fraction(1, 2 ** (P + 200)))
        for _ in range(60):
            nums = tuple(rng.choice((0, rng.randint(-9, 9),
                                     rng.randint(-10 ** 30, 10 ** 30)))
                         for _ in range(ctx.degree))
            den = rng.choice((1, rng.randint(1, 10 ** 6)))
            vl, vh = ctx._fixed_enclose(nums, den, P)
            lo, hi, q = four_product_enclose(ref, nums, den)
            assert vl * q <= lo << P and hi << P <= vh * q, (P, nums, den)
            slack = max(map(abs, nums)).bit_length() + 3 * ctx.degree + 2
            assert vh - vl <= 2 ** slack, (P, nums, den)


@pytest.mark.parametrize("coeffs", [
    [1, -1, -1], [1, -2, 0, -1, 0, 0, -2], [2, -3, -1], [1, -1, -4, 3, 3]],
    ids=["golden", "201001", "2x2-3x-1", "reducible"])
def test_beta_bounds_are_floor_and_ceiling(coeffs):
    """_beta_bounds(P) is (floor(beta 2^P), floor(beta 2^P) + 1), whether
    bisected, extended from a smaller cached P or shifted down from a
    larger one, and the shared enclosure stays as it was."""
    ctx = BetaNumber.from_polynomial(coeffs)._ctx
    before = (ctx.lo, ctx.hi)
    ref = copy.deepcopy(ctx)
    ref.refine_to(Fraction(1, 2 ** 400))
    for P in (200, 64, 300, 120, 1):
        bl, bh = ctx._beta_bounds(P)
        assert math.floor(ref.lo * 2 ** P) == bl == math.floor(ref.hi * 2 ** P)
        assert bh == bl + 1
        assert _sign_at(ref.poly_asc, Fraction(bl, 2 ** P)) != 0
    assert (ctx.lo, ctx.hi) == before


def bisected_bounds(ctx, P):
    """(bl, bh) with bl <= beta 2^P <= bh = bl + 1 by plain bisection from
    floor(lo 2^P) to ceil(hi 2^P), each midpoint placed against beta by the
    sign of p there: the search _beta_bounds made before its Newton guess."""
    l = math.floor(ctx.lo * 2 ** P)
    h = math.ceil(ctx.hi * 2 ** P)
    while h - l > 1:
        m = (l + h) // 2
        if (_sign_at(ctx.poly_asc, Fraction(m, 2 ** P)) > 0) == ctx._sign_lo:
            l = m
        else:
            h = m
    return l, h


def bounds_battery():
    """(name, coeffs) of the battery's irrational bases, two with a
    conjugate 2^-21 and 2^-41 from beta (the second too close for the
    Newton guess to settle, so the bounds come from bisection), and 40
    seeded random integer polynomials of degree 2 to 9 with a real root
    above 1, taken squarefree by the context."""
    named = [("golden", [1, -1, -1]), ("tribonacci", [1, -1, -1, -1]),
             ("201001", [1, -2, 0, -1, 0, 0, -2]), ("2x2-3x-1", [2, -3, -1]),
             ("reducible", [1, -1, -4, 3, 3]),
             ("x2-1000x-1", [1, -1000, -1]),
             ("near-2^-21", [10 ** 6, 0, -4 * 10 ** 6 - 1, 0, 4 * 10 ** 6 + 2]),
             ("near-2^-41", [10 ** 12, 0, -6 * 10 ** 12 - 1, 0,
                             9 * 10 ** 12 + 3])]
    rng = random.Random(28)
    while len(named) < 48:
        coeffs = [rng.randint(1, 6)] + [rng.randint(-6, 6)
                                        for _ in range(rng.randint(2, 9))]
        try:
            beta = BetaNumber.from_polynomial(coeffs)
        except UsageError:
            continue
        if not beta.is_rational():
            named.append((f"random-{len(named)}", coeffs))
    return named


@pytest.mark.parametrize("name, coeffs", [
    pytest.param(name, coeffs, id=name) for name, coeffs in bounds_battery()])
def test_beta_bounds_equal_full_bisection(name, coeffs):
    """From the enclosure a polynomial base leaves construction with,
    _beta_bounds(P) equals plain bisection at P = 1, 64, the cap and 300,
    each found afresh, and the shared enclosure stays as it was."""
    ctx = BetaNumber.from_polynomial(coeffs)._ctx
    before = (ctx.lo, ctx.hi)
    for P in (1, 64, precision_cap(), 300):
        ctx._fixed = None
        assert ctx._beta_bounds(P) == bisected_bounds(ctx, P), P
    assert (ctx.lo, ctx.hi) == before
    if name == "near-2^-41":  # the guess is off: bisection decides
        guess = ctx._newton(ctx._beta_bounds(64)[0], 300)
        assert abs(guess - ctx._beta_bounds(300)[0]) > 2


@pytest.mark.parametrize("coeffs", [
    [1, -1, -1], [1, -1, -1, -1], [1, -2, 0, -1, 0, 0, -2], [2, -3, -1],
    [1, -1, -4, 3, 3]],
    ids=["golden", "tribonacci", "201001", "2x2-3x-1", "reducible"])
def test_newton_guess_settles_and_never_decides(monkeypatch, coeffs):
    """On the battery the Newton guess lies within two units of floor(beta
    2^P) from 65 to 4,096 bits, so four sign tests settle the bounds; a
    guess that is off, by a little or by far past the 64-bit bounds, gives
    the same bounds, which the sign tests and bisection decide."""
    ctx = BetaNumber.from_polynomial(coeffs)._ctx
    bl = ctx._beta_bounds(64)[0]
    for P in (65, 97, 300, 1024, 4096):
        floor = ctx._beta_bounds(P)[0]
        assert abs(ctx._newton(bl, P) - floor) <= 2, P
    newton = AlgebraicContext._newton
    for P in (97, 300):
        ctx._fixed = None
        expected = ctx._beta_bounds(P)
        for offset in (-3, 5, 2 ** P, -(2 ** (2 * P))):
            monkeypatch.setattr(
                AlgebraicContext, "_newton",
                lambda self, x, P, offset=offset: newton(self, x, P) + offset)
            ctx._fixed = None
            assert ctx._beta_bounds(P) == expected, (P, offset)


def test_factor_x_is_divided_out():
    """z^(p+q) D(1/z) for 21(01) has the factor z, and so has a polynomial
    given as x(x^2 - x - 1); the root 0 is never beta, so x goes, and the
    bases have the cubic's and the golden mean's polynomial, enclosure and
    digits.  The polynomial x alone has no root above 1."""
    digits = BetaNumber.from_digit_string("21(01)")
    cubic = BetaNumber.from_polynomial([1, -2, -2, 2])
    golden = BetaNumber.from_polynomial([1, -1, -1, 0])
    assert digits._ctx.poly_asc == cubic._ctx.poly_asc == (2, -2, -2, 1)
    assert golden._ctx.poly_asc == (-1, -1, 1)
    for beta, same in ((digits, cubic),
                       (golden, BetaNumber.from_polynomial([1, -1, -1]))):
        assert (beta._ctx.lo, beta._ctx.hi) == (same._ctx.lo, same._ctx.hi)
        assert beta.digits(40) == same.digits(40)
        for x in (Fraction(0), Fraction(3, 10), Fraction(999999, 10 ** 6)):
            assert (greedy_expansion(x, beta, 300).digits
                    == greedy_expansion(x, same, 300).digits)
    for coeffs in ([1, 0], [1, 0, 0]):
        with pytest.raises(UsageError, match="no real root above 1"):
            BetaNumber.from_polynomial(coeffs)


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
