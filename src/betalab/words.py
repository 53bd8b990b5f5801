"""Finite digit sequences over the alphabet {0, ..., b}, held as bytes.

A word is ``bytes``, one digit per byte (each at most 255): it sorts like the
digit tuple, concatenates with ``+`` and is not tracked by the cyclic GC.

Serialization follows the compact digit-string convention: single digits are
written as-is ("201001"), digits above 9 are bracketed ("[10]3[11]"), and an
eventually periodic sequence is written "prefix(period)", e.g. "10(10)".
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import UsageError


def check_byte_alphabet(bound: int) -> None:
    """UsageError unless the alphabet {0..bound} fits in a byte."""
    if bound > 255:
        raise UsageError(f"alphabet {{0..{bound}}} does not fit in a byte")


def as_word(digits) -> bytes:
    """Any int sequence as a bytes word (bytes as they are); UsageError for
    a digit outside 0..255."""
    try:
        return bytes(digits)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"word digits must lie in 0..255: {exc}") from exc


class SymbolWord(bytes):
    """The bytes word `greedy_expansion` returns, unchecked: the read that
    decides a word (`parry.is_admissible`) refuses a digit outside {0..b}.
    `digits` and `hamming` are what the benchmark in perfbench/ reads."""

    __slots__ = ()

    @property
    def digits(self) -> bytes:  # as plain bytes
        return bytes(self)

    def hamming(self, other) -> int:
        if len(self) != len(other):
            raise UsageError("hamming distance needs equal lengths")
        return sum(a != b for a, b in zip(self, other))


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
    """Digits of a plain digit string ("201", "[10]3"): single decimal
    digits and bracketed numbers, with commas and spaces between them
    skipped."""
    if not re.fullmatch(r"(?:\[\d+\]|\d|[, ])*", text):
        raise UsageError(f"malformed digit string {text!r}")
    return tuple(int(big or small)
                 for big, small in re.findall(r"\[(\d+)\]|(\d)", text))


def format_digits(digits: Iterable[int]) -> str:
    return "".join(str(d) if d <= 9 else f"[{d}]" for d in digits)


def format_periodic(prefix: Iterable[int], period: Iterable[int]) -> str:
    period = tuple(period)
    out = format_digits(prefix)
    if period:
        out += f"({format_digits(period)})"
    return out
