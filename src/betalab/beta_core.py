"""Controlled-precision arithmetic for beta, expansions, and digit recovery.

A base beta > 1 is read from a decimal literal, an integer polynomial or a
self-admissible digit sequence, and held one way: as a squarefree integer
polynomial p with p(beta) = 0 and a root enclosure holding no other root
of p, a rational p/q being the root of qx - p.  Roots are isolated by a
Sturm chain on integers, and p need not be minimal: a zero test that an
enclosure cannot settle is decided by a gcd with p, which also shrinks p
toward beta's minimal polynomial (dynamic evaluation).  All digit
decisions are exact and run on integers: the greedy state is integer
numerators over one denominator, a vector in Q[x]/(p).  One evaluator
encloses such a value: a fixed-point Horner at scale 2^P on integer bounds
of beta * 2^P, each end rounded outward, two products per step, chosen by
sign.  Beta's bounds are found once at the cap, as the context is built:
Newton's method on integers guesses them and sign tests of p settle them,
with bisection behind.  A floor is one enclosure at the cap; a floor or
comparison undecided at the cap raises UndecidableAtPrecision.

On a rational base p/q the greedy step is N/M -> pN/(qM), floored by one
integer division, and greedy expansions run it in one loop on integers.
Above degree 1, greedy expansions decide their digits in fixed-point
blocks: the exact state is enclosed once, P never above the cap, and each
digit is then two products on an outward-rounded integer interval.  The
exact state jumps over each block at once, by a table of lead^m x^m mod p
kept for the longest block; a floor a block leaves undecided goes to the
exact step, with its gcd test, and once no block fits, every digit does.
"""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import UndecidableAtPrecision, UsageError
from .words import (
    SymbolWord,
    check_byte_alphabet,
    format_periodic,
    parse_digit_string,
    self_admissible,
)

DEFAULT_PRECISION_BITS = 256


@functools.cache
def precision_cap() -> int:
    """BETALAB_PRECISION_BITS, read and checked once per process."""
    bits = os.getenv("BETALAB_PRECISION_BITS", str(DEFAULT_PRECISION_BITS))
    if bits.isdecimal() and int(bits) >= 1:
        return int(bits)
    raise UsageError(f"BETALAB_PRECISION_BITS={bits!r} is not an integer >= 1")


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
        self._fixed = None  # (P, bl, bh): bl <= beta * 2^P <= bh = bl + 1
        self._powers = None  # (p, columns of lead^m x^m mod p, lead^m)
        if len(poly_asc) == 2:
            lo = hi = Fraction(-poly_asc[0], poly_asc[1])
        elif lo < 0:
            raise UsageError(f"enclosure must lie in [0, inf), got lo = {lo}")
        elif _sign_at(poly_asc, lo) * _sign_at(poly_asc, hi) >= 0:
            raise UsageError("enclosure endpoints must straddle the root")
        self.lo, self.hi = lo, hi
        self._sign_lo = _sign_at(poly_asc, lo) > 0
        self._beta_bounds(precision_cap())  # once; a P up to the cap shifts
        # log2 beta < _log2 / 2^10: ten squarings of bh / 2^e, rounded up
        bh = self._beta_bounds(64)[1]
        e = max(0, bh.bit_length() - 65)
        bh = -(-bh >> e)
        for _ in range(10):
            bh = -(-bh * bh >> 64)
        self._log2 = (e << 10) + bh.bit_length() - 64

    @property
    def degree(self) -> int:
        return len(self.poly_asc) - 1

    def refine_to(self, width: Fraction) -> None:
        while self.hi - self.lo > width:
            mid = (self.lo + self.hi) / 2
            if (_sign_at(self.poly_asc, mid) > 0) == self._sign_lo:
                self.lo = mid
            else:
                self.hi = mid

    def _root_factor(self, nums):
        """gcd(sum nums[i] x^i, p) when beta is its root, so that
        sum nums[i] beta^i = 0; else None.  The zero vector needs no gcd,
        and neither does a value whose 64-bit fixed-point enclosure
        leaves out 0."""
        if not any(nums):
            return self.poly_asc
        if len(nums) == 1:  # a nonzero constant, as on a rational base
            return None
        lo, hi = self._fixed_enclose(nums, 1, 64)
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
            self.poly_asc = g
            self._sign_lo = _sign_at(g, self.lo) > 0
        return g is not None

    def _beta_bounds(self, P: int) -> tuple[int, int]:
        """(bl, bh) with bl <= beta * 2^P <= bh: found once at the cap as
        the context is built and shifted outward for a smaller P; a larger
        P (64 under a smaller cap, or a test's) is found afresh.  The search
        runs between floor(lo 2^P) and ceil(hi 2^P), so every m it tests
        lies in (lo, hi), where the sign of 2^(P deg) p(m / 2^P) places it
        against beta.  Above 64 bits it starts inside the 64-bit bounds and
        tests _newton's guess and then, at most three times, the next m
        toward the sign change, which gives bh = bl + 1 when the guess is
        within two units; bisection closes whatever these tests leave, so
        the bounds never depend on the guess."""
        if self._fixed is None or self._fixed[0] < P:
            one = 1 << P
            l = self.lo.numerator * one // self.lo.denominator
            h = -(-self.hi.numerator * one // self.hi.denominator)
            coeffs = self.poly_asc[::-1]
            walk = 0
            if h - l > 1 and P > 64:
                bl, bh = self._beta_bounds(64)
                l, h = max(l, bl << (P - 64)), min(h, bh << (P - 64))
                m, walk = self._newton(bl, P), 4
            while h - l > 1:
                if walk:
                    walk -= 1
                    m = min(max(m, l + 1), h - 1)
                else:
                    m = (l + h) >> 1
                # 2^(P deg) p(m / 2^P) by shifts: a Fraction, or products
                # with powers of 2^P, cost two to four times as much
                acc = shift = 0
                for c in coeffs:
                    acc = acc * m + (c << shift)
                    shift += P
                if (acc > 0) == self._sign_lo:
                    l, m = m, m + 1
                else:
                    h, m = m, m - 1
            self._fixed = (P, l, h)
        Q, bl, bh = self._fixed
        return bl >> (Q - P), -(-bh >> (Q - P))

    def _newton(self, x: int, P: int) -> int:
        """A guess at beta * 2^P from x, about beta * 2^64: Newton's step
        x - p(x) / p'(x) in fixed point, at precisions that double up to
        P + 32 guard bits (Brent 1976), each half the next plus 16 bits of
        margin for rounding and the curvature of p.  A step where p' rounds
        to 0 is skipped."""
        steps = []
        k = P + 32
        while k > 64:
            steps.append(k)
            k = (k >> 1) + 16
        k = 64
        for step in reversed(steps):
            x <<= step - k
            k = step
            v = d = 0  # p(x) 2^k and p'(x) 2^k, one Horner
            for c in reversed(self.poly_asc):
                d = (d * x >> k) + v
                v = (v * x >> k) + (c << k)
            if d:
                x -= (v << k) // d
        return x >> (k - P)

    def _fixed_enclose(self, nums, den, P: int) -> tuple[int, int]:
        """(vl, vh) with vl <= 2^P * sum nums[i] beta^i / den <= vh: a
        fixed-point Horner on the bounds of beta * 2^P, each end rounded
        outward.  The bounds are nonnegative, the enclosure lying in [0,
        inf), so the sign of each end picks the one product that bounds it
        (Moore 1966): two products per step.
        """
        bl, bh = self._beta_bounds(P)
        lo = hi = nums[-1] << P
        for c in reversed(nums[:-1]):
            c <<= P
            lo = ((lo * (bl if lo >= 0 else bh)) >> P) + c
            hi = -((-hi * (bh if hi >= 0 else bl)) >> P) + c
        return lo // den, -(-hi // den)

    def _block_digits(self, nums, den, n: int) -> tuple[list[int], int]:
        """(digits, k): k <= n greedy digits of the state (nums, den), each
        proved on integers, or fewer when a floor is undecided.

        The state is enclosed once, as [vl, vh] at scale 2^P, by
        _fixed_enclose on bl <= beta * 2^P <= bh; a digit then costs two
        products: it is (vl * bl) >> 2P, kept only when (vh * bh) >> 2P
        agrees.  The width grows by beta per digit, so P = ceil(k log2 beta)
        + a guard of 64 bits plus the state's magnitude keeps it near 2^-64
        or less through the block; k_max is the largest k whose P fits the
        precision cap, 0 when none does.  Of n > k_max digits, the first
        block takes the remainder and the later ones k_max, so the last
        block, after which the exact state need not advance, is the longest;
        _advance jumps the exact state over each.
        """
        guard = 64 + max(0, max(map(abs, nums)).bit_length() - den.bit_length()
                         + (self.degree * self._log2 >> 10) + 1)
        k_max = ((precision_cap() - guard) << 10) // self._log2
        if k_max < 1:
            return [], 0
        k = (n - 1) % k_max + 1
        P = -(-k * self._log2 >> 10) + guard
        vl, vh = self._fixed_enclose(nums, den, P)
        vl, vh = max(vl, 0), min(vh, 1 << P)  # the state lies in [0, 1)
        bl, bh = self._beta_bounds(P)
        P2 = 2 * P
        mask = (1 << P2) - 1
        digits = []
        for _ in range(k):
            pl, ph = vl * bl, vh * bh
            d = pl >> P2
            if ph >> P2 != d:
                break
            digits.append(d)
            vl, vh = (pl & mask) >> P, ((ph & mask) >> P) + 1
        return digits, k

    def _power_table(self, rows: int):
        """(columns, leads) for m < rows at least: column i lists coordinate
        i of W[m] = lead^m x^m mod p, the integer vector that m _times_beta
        steps give from 1 over 1, and leads lists lead^m, lead being p's
        leading coefficient.  The table grows on demand and belongs to the
        current p, so a shrink in is_zero starts a new one."""
        poly = self.poly_asc
        if self._powers is None or self._powers[0] is not poly:
            self._powers = (poly, [[int(i == 0)] for i in range(self.degree)],
                            [1])
        _, columns, leads = self._powers
        row = [c[-1] for c in columns]
        while len(leads) < rows:
            row, lead_m = _times_beta(poly, row, leads[-1])
            for c, a in zip(columns, row):
                c.append(a)
            leads.append(lead_m)
        return columns, leads

    def floor_vector(self, nums: tuple[int, ...], den: int) -> int:
        """Exact floor of sum nums[i] * beta^i / den (integers, den > 0),
        from one _fixed_enclose at the precision cap, on beta's bounds there;
        the root enclosure is never refined.  A vector in Q[x]/(p) for a
        reducible p can equal an integer without being constant, and the gcd
        decides that; any other undecided floor raises UndecidableAtPrecision.
        """
        cap = precision_cap()
        vl, vh = self._fixed_enclose(nums, den, cap)
        f_lo, f_hi = vl >> cap, vh >> cap
        if f_lo == f_hi:
            return f_lo
        if f_lo + 1 == f_hi and self._root_factor(
                (nums[0] - f_hi * den, *nums[1:])) is not None:
            return f_hi
        raise UndecidableAtPrecision(
            f"floor undecided at {cap} bits: value in "
            f"[{Fraction(vl, 1 << cap)}, {Fraction(vh, 1 << cap)}]")


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

    def digit(self, i: int) -> int:
        """The i-th digit of w(beta), the quasi-greedy expansion of 1,
        counted from 1.  The one place the stored expansion grows: by greedy
        steps until its periodic form is known, and from that form after."""
        if i < 1:
            raise UsageError(f"digit index must be >= 1, got {i}")
        w = self._w
        while len(w) < i:
            if self._w_periodic is None:
                self._step_w()
            else:
                pre, per = self._w_periodic
                j = len(w) - len(pre)
                w.append(pre[j] if j < 0 else per[j % len(per)])
        return w[i - 1]

    def digits(self, n: int) -> tuple[int, ...]:
        """First n digits of w(beta)."""
        if n < 0:
            raise UsageError("n must be >= 0")
        if n:
            self.digit(n)
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
            self._w_periodic = (tuple(), period)
            self._w.append(period[-1])
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
    den.  For beta = p/q it is one digit of _rational_digits.
    """
    ctx = beta._ctx
    poly = ctx.poly_asc
    if len(poly) == 2:
        (d,), r = _rational_digits(poly, r, 1)
        return d, r
    t, den = _times_beta(poly, *r)
    d = ctx.floor_vector(t, den)
    t[0] -= d * den
    return d, (tuple(t), den)


def _rational_digits(poly, r, n: int):
    """(digits, state): n greedy digits of the state r = ((N,), M) on beta =
    p/q, the root of poly = (-p, q), and the state after them.  A digit is
    N/M -> pN/(qM) floored by one integer division, in one loop on integer
    locals, so it costs no call and no tuple."""
    p, q = -poly[0], poly[1]
    (N,), M = r
    digits = []
    append = digits.append
    for _ in range(n):
        t = p * N
        M *= q
        d = t // M
        N = t - d * M
        append(d)
    return digits, ((N,), M)


def _times_beta(poly, nums, den):
    """beta * (nums, den) in Q[x]/(poly), degree >= 2, as (list, den)."""
    lead, top = poly[-1], nums[-1]
    t = [lead * a - top * c for a, c in zip((0, *nums[:-1]), poly)]
    return t, den * lead


def _advance(ctx: AlgebraicContext, r, digits):
    """The greedy state after the k given digits d_1 .. d_k of r = (nums,
    den), exact, in one jump: beta^k r - sum_i d_i beta^(k-i) is

        nums' = sum_l nums_l W[k+l] / lead^l - den sum_i d_i lead^i W[k-i]

    over den' = den lead^k, the state that k exact steps give.  Each
    W[k+l] / lead^l = lead^k x^(k+l) mod p is an integer vector, so the
    first sum is taken over lead^(deg-1) and divided exactly."""
    nums, den = r
    k, deg = len(digits), len(nums)
    columns, leads = ctx._power_table(k + deg)
    top = leads[deg - 1]
    scaled = [a * leads[deg - 1 - l] for l, a in enumerate(nums)]
    # d_i lead^i for i = k down to 1, against W[0], W[1], ...
    weighted = list(map(mul, reversed(digits), reversed(leads[1:k + 1])))
    return (tuple(sum(map(mul, scaled, c[k:k + deg])) // top
                  - den * sum(map(mul, weighted, c)) for c in columns),
            den * leads[k])


def expansion_of_one(beta: BetaNumber, n: int) -> bytes:
    """First n digits of w(beta) (lexicographic supremum / quasi-greedy form)."""
    check_byte_alphabet(beta.digit_bound)
    if n < 1:
        raise UsageError("n must be >= 1")
    return bytes(beta.digits(n))


def greedy_expansion(x, beta: BetaNumber, n: int) -> SymbolWord:
    """Greedy digits of x in [0, 1) under the base-beta partition.

    A rational beta runs the exact step in one loop on integer locals
    (_rational_digits), each digit one integer division.  Above degree 1 the
    digits come in fixed-point blocks (AlgebraicContext._block_digits),
    each digit proved by outward-rounded integers; the exact state jumps
    over each block, and a floor a block cannot decide takes the exact step.
    Both enclose on the fixed-point bounds of beta, so neither refines the
    shared root enclosure or goes past the precision cap.
    """
    check_byte_alphabet(beta.digit_bound)
    if n < 1:
        raise UsageError("n must be >= 1")
    try:
        x = Fraction(x)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"x must be a number, got {x!r}") from exc
    if not 0 <= x < 1:
        raise UsageError(f"x must lie in [0, 1), got {x}")
    return SymbolWord(_greedy_digits(beta, _point(beta, x), n))


def _greedy_digits(beta: BetaNumber, r, n: int) -> list[int]:
    """n greedy digits of the state r: on a rational base one loop of the
    exact step (_rational_digits); above degree 1 in fixed-point blocks,
    the exact state jumping over each block's digits by _advance, with the
    exact step for each floor a block leaves undecided, and for every digit
    once no block fits the cap (k = 0), the state past the guard."""
    ctx = beta._ctx
    if ctx.degree == 1:
        return _rational_digits(ctx.poly_asc, r, n)[0]
    blocks = True
    digits = []
    while len(digits) < n:
        if blocks:
            block, k = ctx._block_digits(*r, n - len(digits))
            digits += block
            if len(digits) == n:
                break
            if block:
                r = _advance(ctx, r, block)
                if len(block) == k:
                    continue
            blocks = k > 0
        d, r = _greedy_step(beta, r)
        digits.append(d)
    return digits


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


def renewal_denominator(prefix, period) -> tuple[int, ...]:
    """Ascending coefficients of D = (1 - z^q)(1 - P) - z^p Q, where P and
    Q are the digit polynomials sum_j a_j z^j of prefix (length p) and
    period (length q).  For w(beta) = prefix period^inf the word counts
    #L_n have generating function N/D with N = 1 + .. + z^(q-1) (Flatto,
    Lagarias & Poonen 1994), and z^(p+q) D(1/z) vanishes at beta.  An empty
    period drops the z^q term: D = 1 - P gives Parry's renewal on digits
    whose period lies beyond the counts wanted."""
    p, q = len(prefix), len(period)
    d = [1, *(-a for a in prefix), *(-c for c in period)]  # 1 - P - z^p Q
    if q:  # minus z^q (1 - P)
        for k, c in enumerate(d[:p + 1]):
            d[k + q] -= c
    return tuple(d)


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
    if not period:  # the quasi-greedy form of a finite expansion
        prefix, period = (), prefix[:-1] + (prefix[-1] - 1,)
    # z^(p+q) D(1/z) vanishes at beta, its one root above 1 (Parry 1960)
    beta = BetaNumber(_largest_root_above_one(
        renewal_denominator(prefix, period)[::-1]), source="digit-sequence")
    # w(beta)'s minimal form: the shortest period, then the shortest preperiod
    period = next(period[:q] for q in range(1, len(period) + 1)
                  if period[:q] * (len(period) // q) == period)
    while prefix and prefix[-1] == period[-1]:
        prefix, period = prefix[:-1], period[-1:] + period[:-1]
    beta._w_periodic = (prefix, period)
    return beta


def _largest_root_above_one(asc) -> AlgebraicContext:
    """The largest real root > 1 of an integer polynomial (ascending
    coefficients), as a context on the squarefree part p of the polynomial
    with its factor x^k divided out, the root 0 never being beta.

    A Sturm chain of p (Sturm 1829; positive contents only, so that its
    signs survive) counts the roots in (1, B], B a power of two above
    Cauchy's bound, and bisection keeps the largest one until it is alone
    in (lo, hi] with p(lo) != 0.  A rational root a/b has b | c, the
    leading coefficient, and two such fractions lie 1/c^2 apart, so once
    the enclosure is narrower only its fraction nearest the midpoint with
    denominator <= c can be the root.
    """
    while asc[0] == 0 and len(asc) > 2:  # x itself stays, refused below
        asc = asc[1:]
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
    if tuple(trunc) == (1,):
        raise UsageError("truncation (1) gives beta(n) = 1")
    return beta_from_expansion(tuple(trunc), ())

