"""Finite and lazily-extended digit sequences over the alphabet {0, ..., b}.

Serialization follows the compact digit-string convention: single digits are
written as-is ("201001"), digits above 9 are bracketed ("[10]3[11]"), and an
eventually periodic sequence is written "prefix(period)", e.g. "10(10)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import AlphabetMismatch, UsageError


@dataclass(frozen=True)
class SymbolWord:
    """A finite digit sequence together with its alphabet bound."""

    digits: tuple[int, ...]
    alphabet_bound: int

    def __post_init__(self):
        for d in self.digits:
            if not 0 <= d <= self.alphabet_bound:
                raise AlphabetMismatch(
                    f"digit {d} outside alphabet {{0..{self.alphabet_bound}}}"
                )

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __getitem__(self, idx):
        return self.digits[idx]

    def __str__(self) -> str:
        return format_digits(self.digits)

    def concat(self, other: "SymbolWord") -> "SymbolWord":
        bound = max(self.alphabet_bound, other.alphabet_bound)
        return SymbolWord(self.digits + other.digits, bound)

    def shift(self, k: int) -> "SymbolWord":
        return SymbolWord(self.digits[k:], self.alphabet_bound)

    def hamming(self, other: "SymbolWord") -> int:
        if len(self) != len(other):
            raise UsageError("hamming distance needs equal lengths")
        return sum(a != b for a, b in zip(self.digits, other.digits))


class SymbolStream:
    """Infinite digit sequence backed by a generator, with a materialized prefix."""

    def __init__(self, generator: Iterable[int], alphabet_bound: int):
        self._it = iter(generator)
        self.alphabet_bound = alphabet_bound
        self._prefix: list[int] = []

    def digit(self, j: int) -> int:
        """1-based digit access."""
        while len(self._prefix) < j:
            d = next(self._it)
            if not 0 <= d <= self.alphabet_bound:
                raise AlphabetMismatch(f"stream digit {d} out of range")
            self._prefix.append(d)
        return self._prefix[j - 1]

    def prefix(self, n: int) -> SymbolWord:
        self.digit(n)
        return SymbolWord(tuple(self._prefix[:n]), self.alphabet_bound)


def periodic_stream(prefix: tuple[int, ...], period: tuple[int, ...], bound: int) -> SymbolStream:
    def gen():
        yield from prefix
        while True:
            yield from period
    return SymbolStream(gen(), bound)


def lex_le_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """a <= b compared position by position over len(a) positions.

    b must supply at least len(a) digits.  Equality through the end of a
    counts as <= (the admissibility comparison is non-strict).
    """
    for x, y in zip(a, b):
        if x < y:
            return True
        if x > y:
            return False
    return True


def self_admissible(digits: tuple[int, ...]) -> bool:
    """sigma^k(w) <= w for all 0 < k < len(w), prefix-compared.

    One Z-function pass, linear in len(w): z[k] is the length of the
    longest common prefix of w and sigma^k(w), and the digit after it
    decides the comparison.
    """
    n = len(digits)
    z = [0] * n
    left = right = 0  # the match [left, right) reaching furthest right
    for k in range(1, n):
        lcp = min(right - k, z[k - left]) if k < right else 0
        while k + lcp < n and digits[lcp] == digits[k + lcp]:
            lcp += 1
        if k + lcp < n and digits[k + lcp] > digits[lcp]:
            return False
        z[k] = lcp
        if k + lcp > right:
            left, right = k, k + lcp
    return True


# --- digit-string parsing -------------------------------------------------

def parse_digit_string(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse "prefix(period)" digit notation; returns (prefix, period).

    The period part is empty for a plain finite string.
    """
    text = text.strip()
    if not text:
        raise UsageError("empty digit string")
    prefix_part, period_part = text, ""
    if "(" in text:
        if not text.endswith(")") or text.count("(") != 1:
            raise UsageError(f"malformed periodic digit string: {text!r}")
        prefix_part, period_part = text[:-1].split("(")
    return _parse_plain(prefix_part), _parse_plain(period_part)


def _parse_plain(text: str) -> tuple[int, ...]:
    digits = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "[":
            j = text.index("]", i)
            digits.append(int(text[i + 1:j]))
            i = j + 1
        elif c.isdigit():
            digits.append(int(c))
            i += 1
        elif c in ", ":
            i += 1
        else:
            raise UsageError(f"bad character {c!r} in digit string")
    return tuple(digits)


def format_digits(digits: Iterable[int]) -> str:
    return "".join(str(d) if d <= 9 else f"[{d}]" for d in digits)


def format_periodic(prefix: Iterable[int], period: Iterable[int]) -> str:
    period = tuple(period)
    out = format_digits(prefix)
    if period:
        out += f"({format_digits(period)})"
    return out
