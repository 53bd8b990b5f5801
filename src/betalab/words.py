"""Finite digit sequences over the alphabet {0, ..., b}, held as bytes.

A word is ``bytes``, one digit per byte (so b <= 255): it sorts like the
digit tuple, concatenates with ``+`` and is not tracked by the cyclic GC.

Serialization follows the compact digit-string convention: single digits are
written as-is ("201001"), digits above 9 are bracketed ("[10]3[11]"), and an
eventually periodic sequence is written "prefix(period)", e.g. "10(10)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import AlphabetMismatch, UsageError


def as_word(digits) -> bytes:
    """Any int sequence or SymbolWord as a bytes word (bytes as they are);
    AlphabetMismatch for a digit outside 0..255."""
    try:
        return bytes(digits)
    except (TypeError, ValueError) as exc:
        raise AlphabetMismatch(f"word digits must lie in 0..255: {exc}") \
            from exc


@dataclass(frozen=True)
class SymbolWord:
    """A finite digit sequence, stored as bytes, with its alphabet bound."""

    digits: bytes
    alphabet_bound: int

    def __post_init__(self):
        if self.alphabet_bound > 255:
            raise UsageError(f"alphabet {{0..{self.alphabet_bound}}} does "
                             "not fit in a byte")
        digits = as_word(self.digits)
        if digits and max(digits) > self.alphabet_bound:
            raise AlphabetMismatch(f"digit {max(digits)} outside alphabet "
                                   f"{{0..{self.alphabet_bound}}}")
        object.__setattr__(self, "digits", digits)

    def __bytes__(self) -> bytes:
        return self.digits

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __getitem__(self, idx):
        return self.digits[idx]

    def __str__(self) -> str:
        return format_digits(self.digits)

    def shift(self, k: int) -> "SymbolWord":
        return SymbolWord(self.digits[k:], self.alphabet_bound)

    def hamming(self, other: "SymbolWord") -> int:
        if len(self) != len(other):
            raise UsageError("hamming distance needs equal lengths")
        return sum(a != b for a, b in zip(self.digits, other.digits))


def self_admissible(digits) -> bool:
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
    return parse_digits(prefix_part), parse_digits(period_part)


def parse_digits(text: str) -> tuple[int, ...]:
    """Digits of a plain digit string ("201", "[10]3"); commas and spaces
    between digits are skipped."""
    digits = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "[":
            j = text.find("]", i)
            if j < 0 or not text[i + 1:j].isdecimal():
                raise UsageError(f"malformed bracketed digit in {text!r}")
            digits.append(int(text[i + 1:j]))
            i = j + 1
        elif c.isdecimal():
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
