"""Controlled-precision arithmetic for beta, expansions, and digit recovery.

A base beta > 1 is read from a decimal literal, an integer polynomial or a
self-admissible digit sequence, and held one way: as a squarefree integer
polynomial p with p(beta) = 0 and a root enclosure holding no other root
of p, a rational p/q being the root of qx - p.  Roots are isolated by a
Sturm chain on integers, and p need not be minimal: a zero test that an
enclosure cannot settle is decided by a gcd with p, which also shrinks p
toward beta's minimal polynomial (dynamic evaluation).  All digit
decisions are exact and run on integers: the greedy state is integer
numerators over one denominator, a vector in Q[x]/(p).  Dyadic root
enclosures, exact for a rational root, resolve floors by an interval
Horner on integer numerators, two products per step, chosen by sign.  A
comparison that cannot be resolved below the precision cap raises
UndecidableAtPrecision instead of guessing.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Sequence

from .errors import UndecidableAtPrecision, UsageError
from .words import (
    SymbolWord,
    format_periodic,
    parse_digit_string,
    self_admissible,
)

DEFAULT_PRECISION_BITS = 256


def precision_cap() -> int:
    return int(os.environ.get("BETALAB_PRECISION_BITS", DEFAULT_PRECISION_BITS))


# --- integer polynomials: ascending coefficients, no trailing zeros --------

def _sign_at(poly_asc: Sequence[int], x: Fraction) -> int:
    """Sign of poly(x), on integers: the sign of d^deg poly(n/d), x = n/d."""
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for c in reversed(poly_asc):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _primitive(poly) -> tuple[int, ...]:
    """poly divided by its positive content, trailing zeros dropped."""
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    g = math.gcd(*poly)
    return tuple(c // g for c in poly)


def _prem(a, b) -> list[int]:
    """A remainder of a by b times a positive constant: m*a = q*b + r with
    m > 0 and deg r < deg b, so that r keeps the sign Sturm chains need."""
    r = list(a)
    lead, sign, db = abs(b[-1]), (b[-1] > 0) - (b[-1] < 0), len(b) - 1
    while len(r) > db:
        top = r.pop()
        if top:
            shift = len(r) - db
            r = [lead * c for c in r]
            for i, c in enumerate(b[:-1]):
                r[shift + i] -= sign * top * c
    return r


def _gcd(a, b) -> tuple[int, ...]:
    """Primitive gcd of two integer polynomials, leading coefficient > 0."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a if a[-1] > 0 else tuple(-c for c in a)


def _squarefree(poly) -> tuple[int, ...]:
    """p / gcd(p, p'), primitive with leading coefficient > 0.  The exact
    integer division holds since the gcd is primitive (Gauss's lemma)."""
    g = _gcd(poly, [i * c for i, c in enumerate(poly)][1:])
    r = list(_primitive(poly))
    q = [0] * (len(r) - len(g) + 1)
    for k in reversed(range(len(q))):
        q[k] = r[k + len(g) - 1] // g[-1]
        for i, c in enumerate(g):
            r[k + i] -= q[k] * c
    return tuple(q) if q[-1] > 0 else tuple(-c for c in q)


def _variations(chain, x: Fraction) -> int:
    """Sign changes of a Sturm chain at x, zeros skipped."""
    signs = [s for s in (_sign_at(f, x) for f in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class AlgebraicContext:
    """A squarefree integer polynomial p with p(beta) = 0 (leading
    coefficient > 0) plus a refinable root enclosure holding no other root.

    The root of a linear polynomial is its own enclosure, lo = hi.  Above
    degree 1 the endpoints are dyadic rationals carrying opposite signs of
    p, so bisection refines them exactly; the root is irrational, so no
    midpoint ever hits it.
    """

    def __init__(self, poly_asc: tuple[int, ...], lo: Fraction, hi: Fraction):
        self.poly_asc = poly_asc
        self._grid = None
        if len(poly_asc) == 2:
            self.lo = self.hi = Fraction(-poly_asc[0], poly_asc[1])
            return
        self.lo, self.hi = lo, hi
        if lo < 0:
            raise UsageError(f"enclosure must lie in [0, inf), got lo = {lo}")
        s_lo = _sign_at(poly_asc, lo)
        if s_lo * _sign_at(poly_asc, hi) >= 0:
            raise UsageError("enclosure endpoints must straddle the root")
        self._sign_lo = s_lo > 0

    @property
    def degree(self) -> int:
        return len(self.poly_asc) - 1

    def refine_to(self, width: Fraction) -> None:
        while self.hi - self.lo > width:
            self._grid = None
            mid = (self.lo + self.hi) / 2
            if (_sign_at(self.poly_asc, mid) > 0) == self._sign_lo:
                self.lo = mid
            else:
                self.hi = mid

    def enclose(self, nums: tuple[int, ...], den: int) -> tuple[int, int, int]:
        """(l, h, q) with sum nums[i] * beta^i / den in [l/q, h/q].

        Interval Horner over [lo, hi] = [a/D, b/D], on integer numerators
        over the common denominator den * D^(degree-1); (a, b, powers of D)
        is cached until refine_to moves the enclosure.  Every enclosure the
        library builds lies above 1, so 0 < a <= b, and the sign of each
        end of [l, h] picks the one product of [l, h] * [a, b] that bounds
        it (Moore 1966): two products per step, the same interval as the
        min and max of all four.  The rule needs only a >= 0, which
        __init__ checks.
        """
        if self._grid is None:
            D = math.lcm(self.lo.denominator, self.hi.denominator)
            self._grid = (self.lo.numerator * (D // self.lo.denominator),
                          self.hi.numerator * (D // self.hi.denominator),
                          [D ** k for k in range(self.degree)])
        a, b, powers = self._grid
        lo = hi = nums[-1]
        for k in range(1, len(nums)):
            c = nums[-1 - k] * powers[k]
            lo, hi = ((lo * a if lo >= 0 else lo * b) + c,
                      (hi * b if hi >= 0 else hi * a) + c)
        return lo, hi, den * powers[len(nums) - 1]

    def _root_factor(self, nums):
        """gcd(sum nums[i] x^i, p) when beta is its root, so that
        sum nums[i] beta^i = 0; else None.  The zero vector needs no gcd,
        and neither does an enclosure without 0."""
        if not any(nums):
            return self.poly_asc
        lo, hi, _ = self.enclose(nums, 1)
        if lo > 0 or hi < 0:
            return None
        g = _gcd(nums, self.poly_asc)
        # g divides p, so the enclosure holds no root of g but beta
        return g if _sign_at(g, self.lo) * _sign_at(g, self.hi) <= 0 else None

    def is_zero(self, nums) -> bool:
        """Whether sum nums[i] beta^i is 0.  A proper factor of p that
        decides it replaces p (dynamic evaluation; Della Dora, Dicrescenzo
        and Duval 1985), so a state built before a True answer is void."""
        g = self._root_factor(nums)
        if g is not None and len(g) < len(self.poly_asc):
            self.poly_asc, self._grid = g, None
            self._sign_lo = _sign_at(g, self.lo) > 0
        return g is not None

    def floor_vector(self, nums: tuple[int, ...], den: int) -> int:
        """Exact floor of sum nums[i] * beta^i / den (integers, den > 0).

        The enclosure is the interval Horner of the root enclosure, evaluated
        on integers; it is the same rational interval a Fraction evaluation
        gives, so floors, the closed upper endpoint and the precision cap
        decide exactly as they would there.
        """
        width = None
        while True:
            lo, hi, q = self.enclose(nums, den)
            f_lo, f_hi = lo // q, hi // q
            if f_lo == f_hi:
                return f_lo
            if f_lo + 1 == f_hi and hi == f_hi * q:
                # closed upper endpoint touching an integer exactly
                return f_lo
            if width is None:
                cap = precision_cap()
                width = self.hi - self.lo
            if width < Fraction(1, 2 ** cap):
                # a vector in Q[x]/(p) for a reducible p can equal an
                # integer without being constant: the gcd decides that
                if f_lo + 1 == f_hi and self._root_factor(
                        (nums[0] - f_hi * den, *nums[1:])) is not None:
                    return f_hi
                raise UndecidableAtPrecision(
                    f"floor undecided at {cap} bits: value in [{lo / q}, {hi / q}]"
                )
            width /= 2 ** 8
            self.refine_to(width)


class BetaNumber:
    """A real beta > 1 with digit bound and lazily computed expansion of 1."""

    def __init__(self, ctx: AlgebraicContext, source: str = "decimal-literal"):
        self._ctx = ctx
        self.source = source
        ctx.refine_to(Fraction(1, 2 ** 16))
        if ctx.hi <= 1:
            raise UsageError(f"beta must exceed 1, got {ctx.hi}")
        # the first greedy digit of 1, less one when it ends the expansion:
        # beta - 1 for an integer beta, floor(beta) otherwise
        digit, (nums, _) = _greedy_step(self, _point(self, Fraction(1)))
        self.digit_bound = digit if any(nums) else digit - 1
        # quasi-greedy expansion cache
        self._w: list[int] = []
        self._w_periodic = None
        self._orbit = None  # lazy greedy-orbit state for w(beta)
        self._brent = None  # Brent's (saved state, power, steps since saved)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_decimal(cls, text) -> "BetaNumber":
        try:
            frac = Fraction(text) if not isinstance(text, Fraction) else text
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse beta literal {text!r}") from exc
        return cls(AlgebraicContext((-frac.numerator, frac.denominator),
                                    frac, frac))

    @classmethod
    def from_polynomial(cls, coeffs_desc: Sequence[int]) -> "BetaNumber":
        """Largest real root > 1 of the integer polynomial (descending coeffs)."""
        coeffs_desc = [int(c) for c in coeffs_desc]
        while coeffs_desc and coeffs_desc[0] == 0:
            coeffs_desc.pop(0)
        if len(coeffs_desc) < 2:
            raise UsageError("polynomial must be non-constant")
        return cls(_largest_root_above_one(tuple(reversed(coeffs_desc))),
                   source="polynomial-root")

    @classmethod
    def from_digit_string(cls, text: str) -> "BetaNumber":
        prefix, period = parse_digit_string(text)
        return beta_from_expansion(prefix, period)

    # -- numeric access ----------------------------------------------------

    def enclosure(self, width: Fraction = Fraction(1, 2 ** 60)) -> tuple[Fraction, Fraction]:
        self._ctx.refine_to(width)
        return self._ctx.lo, self._ctx.hi

    @property
    def value(self) -> float:
        """beta rounded to the nearest float: the enclosure is refined until
        both ends round alike, so the float does not depend on where the
        isolation started."""
        lo, hi = self.enclosure()
        while float(lo) != float(hi):
            lo, hi = self.enclosure((hi - lo) / 2 ** 8)
        return float(lo)

    @property
    def log(self) -> float:
        return math.log(self.value)

    def is_rational(self) -> bool:
        return self._ctx.degree == 1

    def compare(self, other: "BetaNumber") -> int:
        """-1, 0, 1 ordering: 0 once the enclosures overlap where the gcd of
        the two polynomials changes sign (its one root there is both bases),
        else both enclosures are refined until they separate."""
        common = _gcd(self._ctx.poly_asc, other._ctx.poly_asc)
        width = Fraction(1, 2 ** 32)
        cap = Fraction(1, 2 ** precision_cap())
        while True:
            a_lo, a_hi = self.enclosure(width)
            b_lo, b_hi = other.enclosure(width)
            if a_hi < b_lo:
                return -1
            if b_hi < a_lo:
                return 1
            if _sign_at(common, max(a_lo, b_lo)) * _sign_at(
                    common, min(a_hi, b_hi)) <= 0:
                return 0
            if width < cap:
                raise UndecidableAtPrecision("comparison undecided at cap")
            width /= 2 ** 16

    def __repr__(self):
        return f"BetaNumber({self.value:.10g}, source={self.source})"

    # -- expansion of 1 ----------------------------------------------------

    def digits(self, n: int) -> tuple[int, ...]:
        """First n digits of w(beta), the quasi-greedy expansion of 1."""
        if n < 0:
            raise UsageError("n must be >= 0")
        while len(self._w) < n:
            if self._w_periodic is not None:
                pre, per = self._w_periodic
                i = len(self._w)
                if i < len(pre):
                    self._w.append(pre[i])
                else:
                    self._w.append(per[(i - len(pre)) % len(per)])
            else:
                self._step_w()
        return tuple(self._w[:n])

    def periodic_form(self):
        """(preperiod, period) of w(beta) if known, else None."""
        return self._w_periodic

    def _step_w(self) -> None:
        """Append one greedy digit of 1 and look for a repeated orbit state.

        A rational beta never cycles: an integer's expansion is finite, and
        an eventually periodic w(beta) makes beta an algebraic integer
        (Parry 1960).  On every other base Brent's cycle detection compares
        orbit states by value, O(1) memory and no cap.  Both tests are
        `is_zero`, since p need not be minimal and a vector in Q[x]/(p)
        then does not fix its value.
        """
        if self._orbit is None:
            self._orbit = _point(self, Fraction(1))
            self._brent = (self._orbit, 1, 0)
        ctx = self._ctx
        digit, r_new = _greedy_step(self, self._orbit)
        if ctx.is_zero(r_new[0]):
            # finite greedy expansion: switch to the quasi-greedy periodic form
            period = tuple(self._w) + (digit - 1,)
            if all(d == 0 for d in period):
                raise UsageError("degenerate expansion (beta would be 1)")
            self._w_periodic = (tuple(), period)
            self._w.append(period[-1])
            self._orbit = None
            return
        self._w.append(digit)
        self._orbit = r_new
        if ctx.degree == 1:
            return
        saved, power, lam = self._brent
        (nums, den), (s_nums, s_den) = r_new, saved
        if ctx.is_zero([a * s_den - b * den for a, b in zip(nums, s_nums)]):
            self._w_periodic = self._split_period(lam + 1)
        else:
            lam += 1
            self._brent = (r_new, 2 * power, 0) if lam == power else (saved, power, lam)

    def _split_period(self, lam: int):
        """(preperiod, period) of w(beta) once the orbit state after the
        last digit equals the one lam digits earlier.  Equal states have
        equal digit tails, and a state is fixed by its digit and successor,
        so a backward scan finds the least mu from which the digits repeat
        with period lam."""
        w = self._w
        mu = len(w) - lam
        while mu and w[mu - 1] == w[mu - 1 + lam]:
            mu -= 1
        return tuple(w[:mu]), tuple(w[mu:mu + lam])


# --- operations -----------------------------------------------------------

def _point(beta: BetaNumber, x: Fraction):
    """x in the exact integer state _greedy_step works on."""
    return (x.numerator,) + (0,) * (beta._ctx.degree - 1), x.denominator


def _greedy_step(beta: BetaNumber, r):
    """(digit, remainder) = (floor(beta*r), beta*r - floor(beta*r)), exact.

    The state is (nums, den), the value sum nums[i] * beta^i / den in
    Q[x]/(poly): multiplying by beta shifts nums up and subtracts the top
    coefficient times the polynomial, and the leading coefficient scales
    den.  For beta = p/q this is N/M -> pN/(qM), floored by one integer
    division.
    """
    ctx = beta._ctx
    nums, den = r
    poly = ctx.poly_asc
    if len(poly) == 2:
        t, den = -poly[0] * nums[0], poly[1] * den
        d = t // den
        return d, ((t - d * den,), den)
    lead, top = poly[-1], nums[-1]
    t = [lead * a - top * c for a, c in zip((0, *nums[:-1]), poly)]
    den *= lead
    d = ctx.floor_vector(t, den)
    t[0] -= d * den
    return d, (tuple(t), den)


def expansion_of_one(beta: BetaNumber, n: int) -> SymbolWord:
    """First n digits of w(beta) (lexicographic supremum / quasi-greedy form)."""
    if n < 1:
        raise UsageError("n must be >= 1")
    return SymbolWord(beta.digits(n), beta.digit_bound)


def greedy_expansion(x, beta: BetaNumber, n: int) -> SymbolWord:
    """Greedy digits of x in [0, 1) under the base-beta partition."""
    if n < 1:
        raise UsageError("n must be >= 1")
    x = Fraction(x)
    if not 0 <= x < 1:
        raise UsageError(f"x must lie in [0, 1), got {x}")
    r = _point(beta, x)
    digits = []
    for _ in range(n):
        d, r = _greedy_step(beta, r)
        digits.append(d)
    return SymbolWord(tuple(digits), beta.digit_bound)


def _check_self_admissible_ep(prefix, period):
    """Parry's condition sigma^k(w) <= w for w = prefix period period ...

    With p, q the lengths of prefix and period, two sequences of period q
    from index p + 1 on agree everywhere once they agree on their first
    p + q digits.  So one prefix of 2p + 3q + 4 digits compares every shift
    k <= p + q over at least p + 2q + 4 digits, and later shifts repeat
    earlier ones.  An empty period stands for the period (0).  The period
    is repeated only as often as those digits need, so memory stays linear
    in p + q.
    """
    period = period or (0,)
    n = 2 * len(prefix) + 3 * len(period) + 4
    return self_admissible((prefix + period * (n // len(period) + 1))[:n])


def beta_from_expansion(prefix, period=()) -> BetaNumber:
    """Recover beta from an eventually periodic self-admissible digit sequence."""
    prefix = tuple(int(d) for d in prefix)
    period = tuple(int(d) for d in period)
    if period and all(d == 0 for d in period):
        period = ()
    if not period:
        while prefix and prefix[-1] == 0:
            prefix = prefix[:-1]
    digits_all = prefix + period
    if not digits_all:
        raise UsageError("empty digit sequence")
    if digits_all[0] < 1:
        raise UsageError("leading digit must be >= 1")
    if any(d < 0 for d in digits_all):
        raise UsageError("digits must be nonnegative")
    if not _check_self_admissible_ep(prefix, period):
        raise UsageError(
            f"sequence {format_periodic(prefix, period)} fails sigma^k(w) <= w"
        )
    if not period and prefix == (1,):
        raise UsageError("sequence (1,0,0,...) gives beta = 1")

    # integer polynomial vanishing at the encoded beta
    p, q = len(prefix), len(period)
    if period:
        # (x^q - 1) * (x^p - sum a_j x^{p-j}) = sum c_i x^{q-i}  (cleared form)
        size = p + q + 1
        coeffs = [0] * size  # ascending
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
    # a self-admissible sequence has exactly one root above 1 (Parry 1960)
    beta = BetaNumber(_largest_root_above_one(tuple(coeffs)),
                      source="digit-sequence")
    # store the quasi-greedy normalization of the given digits as w(beta)
    if period:
        beta._w_periodic = (prefix, period)
    else:
        quasi = prefix[:-1] + (prefix[-1] - 1,)
        if all(d == 0 for d in quasi):
            raise UsageError("quasi-greedy form degenerates to all zeros")
        beta._w_periodic = (tuple(), quasi)
    return beta


def _largest_root_above_one(asc) -> AlgebraicContext:
    """The largest real root > 1 of an integer polynomial (ascending
    coefficients), as a context on the polynomial's squarefree part p.

    A Sturm chain of p (Sturm 1829; positive contents only, so that its
    signs survive) counts the roots in (1, B], B a power of two above
    Cauchy's bound, and bisection keeps the largest one until it is alone
    in (lo, hi] with p(lo) != 0.  A rational root a/b has b | c, the
    leading coefficient, and two such fractions lie 1/c^2 apart, so once
    the enclosure is narrower only its fraction nearest the midpoint with
    denominator <= c can be the root.
    """
    p = _squarefree(asc)
    chain = [p, _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        chain.append(_primitive([-c for c in _prem(chain[-2], chain[-1])]))
    lo, hi = Fraction(1), Fraction(2)
    while hi <= 1 + Fraction(max(map(abs, p[:-1])), p[-1]):
        hi *= 2
    v_lo, v_hi = _variations(chain, lo), _variations(chain, hi)
    if v_lo == v_hi:
        raise UsageError("polynomial has no real root above 1")
    while v_lo - v_hi > 1 or _sign_at(p, lo) == 0:
        mid = (lo + hi) / 2
        v_mid = _variations(chain, mid)
        if v_mid > v_hi:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    root = hi
    if _sign_at(p, hi):
        ctx = AlgebraicContext(p, lo, hi)
        c = p[-1]
        ctx.refine_to(Fraction(1, 2 * c * c))
        root = ((ctx.lo + ctx.hi) / 2).limit_denominator(c)
        if not (ctx.lo < root < ctx.hi and _sign_at(p, root) == 0):
            return ctx
    return AlgebraicContext((-root.numerator, root.denominator), root, root)


def simple_beta_approx(beta: BetaNumber, n: int) -> BetaNumber:
    """The simple base beta(n) encoded by the truncated expansion of 1,
    with its trailing zero digits dropped."""
    if n < 1:
        raise UsageError("n must be >= 1")
    trunc = list(beta.digits(n))
    while trunc and trunc[-1] == 0:
        trunc.pop()
    if not trunc:
        raise UsageError("truncation is all zeros")
    if tuple(trunc) == (1,):
        raise UsageError("truncation (1) gives beta(n) = 1")
    return beta_from_expansion(tuple(trunc), ())

