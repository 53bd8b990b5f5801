"""Output checks that do not go through betalab.

Each check returns None when the output is right and a short reason when it
is wrong.  They rely on closed forms and brute force written here: the
golden shift's language is "no factor 11", admissibility is Parry's lex
criterion on a known w(beta), counts are 2^n, Fibonacci numbers or Renyi's
bounds beta^n <= #L_n <= beta^(n+1)/(beta-1), and real values of beta come
from mpmath at high precision (imported lazily, so that the timed set-up
pays for the mpmath import exactly as a user importing sympy does).
"""

from __future__ import annotations

import hashlib
import math
import re
from fractions import Fraction
from itertools import product

# w(beta) of the battery bases, purely periodic: (period digits).
BATTERY_W = {"two": (1,), "golden": (1, 0), "tribonacci": (1, 1, 0),
             "figure": (2, 0, 1, 0, 0, 1)}

# Minimal polynomials (descending coefficients) of the algebraic bases.
POLYS = {"golden": (1, -1, -1), "tribonacci": (1, -1, -1, -1),
         "figure": (1, -2, 0, -1, 0, 0, -2),
         # beta(3) of the golden mean: w(phi) truncated to 101, 1 = b^-1 + b^-3
         "golden_markov3": (1, -1, 0, -1)}

RATIONAL = {"two": Fraction(2), "three_halves": Fraction(3, 2),
            "one_seven": Fraction(17, 10)}

_PREC_BITS = 600


def no_11(digits) -> bool:
    return b"\x01\x01" not in bytes(digits)


def real_root(name: str):
    """Largest real root of POLYS[name] at _PREC_BITS bits."""
    import mpmath

    with mpmath.workprec(_PREC_BITS):
        roots = mpmath.polyroots(POLYS[name], maxsteps=200, extraprec=_PREC_BITS)
        return max(mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-30)


def greedy_digits_ok(digits, x: Fraction, base) -> str | None:
    """0 <= x - sum d_j base^-j < base^-L, exactly for rational bases."""
    L = len(digits)
    if isinstance(base, Fraction):
        s = Fraction(0)
        for d in reversed(digits):
            s = (s + d) / base
        ok = 0 <= x - s < base ** -L
    else:
        import mpmath

        with mpmath.workprec(_PREC_BITS):
            s = mpmath.mpf(0)
            for d in reversed(digits):
                s = (s + d) / base
            gap = mpmath.mpf(x.numerator) / x.denominator - s
            ok = -mpmath.mpf(2) ** (-_PREC_BITS // 2) <= gap < base ** -L
    return None if ok else f"greedy remainder out of [0, beta^-{L})"


def forbidden_regex(w_period: tuple, n: int, bound: int) -> re.Pattern:
    """Lex criterion as factors, on words written as bytes: u is admissible
    iff no factor of u reads w_1..w_{i-1} b with b > w_i, for i <= n
    (w = w_period^inf).  The alternatives share the prefixes of w, so they
    are nested: w_1 (?: [>w_2] | w_2 (?: ...)) costs O(depth) per position."""
    w = (w_period * (n // len(w_period) + 1))[:n]

    def level(i):
        parts = []
        if w[i] < bound:
            parts.append("[" + "".join(f"\\x{b:02x}"
                                       for b in range(w[i] + 1, bound + 1))
                         + "]")
        if i + 1 < n:
            inner = level(i + 1)
            if inner:
                parts.append(f"\\x{w[i]:02x}(?:{inner})")
        return "|".join(parts)

    return re.compile((level(0) or "(?!)").encode())


def words_admissible(words, w_period: tuple, bound: int) -> str | None:
    if not words:
        return "no words"
    pattern = forbidden_regex(w_period, len(words[0]), bound)
    for chunk in _byte_chunks(words):
        hit = pattern.search(chunk)
        if hit is not None:
            return f"inadmissible factor {list(hit.group())}"
    return None


def words_digest(words) -> str:
    digest = hashlib.sha256()
    for chunk in _byte_chunks(words):
        digest.update(chunk)
    return digest.hexdigest()


def _byte_chunks(words, size=1 << 16):
    """Words as bytes joined by 0xff, a bounded number at a time, so that
    checking a million-word list adds little to the peak RSS."""
    for i in range(0, len(words), size):
        yield b"\xff".join(map(bytes, words[i:i + size]))


def count_rows_ok(rows, name: str, log_beta: float, beta: float) -> str | None:
    """Exact counts for 2 and golden; Renyi bounds for every base."""
    fib_a, fib_b = 1, 2  # Fib(2), Fib(3)
    for n, count, _rate in rows:
        fib_a, fib_b = fib_b, fib_a + fib_b
        if name == "two" and count != 2 ** n:
            return f"count {count} != 2^{n}"
        if name == "golden" and count != fib_a:
            return f"count {count} != Fib({n + 2})"
        lc = math.log(count)
        if not (n * log_beta - 1e-9 <= lc
                <= (n + 1) * log_beta - math.log(beta - 1) + 1e-9):
            return f"count at n={n} outside Renyi bounds"
    return None


def window_bad(a: int, b: int, window: int, n: int) -> int:
    """Positions j < n whose window [j, j+window) holds a disagreement."""
    d = a ^ b
    spread = 0
    for s in range(window):
        spread |= d >> s
    return bin(spread & ((1 << n) - 1)).count("1")


def as_mask(word) -> int:
    return sum(d << p for p, d in enumerate(word))


def golden_words(n: int) -> list[tuple[int, ...]]:
    """Binary words of length n without factor 11, by brute force."""
    return [w for w in product((0, 1), repeat=n) if no_11(w)]


def exotic_level1_brute(n1: int, n: int) -> int:
    runs = ((1,) * n1, (0,) * n1)
    return sum(1 for w in product((0, 1), repeat=n)
               if all(w[i:i + n1] not in runs for i in range(n - n1 + 1)))


def repair_ok(word, rep: dict, patterns) -> str | None:
    """One edit, and no forbidden pattern covers the edited position."""
    cand = tuple(rep["repaired"])
    diff = [i for i, (a, b) in enumerate(zip(word, cand)) if a != b]
    if len(cand) != len(word) or len(diff) != 1:
        return f"repair changed {len(diff)} positions"
    pos = diff[0]
    for p in patterns:
        for i in range(max(0, pos - len(p) + 1), min(pos, len(cand) - len(p)) + 1):
            if cand[i:i + len(p)] == p:
                return f"forbidden {p} still covers position {pos}"
    return None
