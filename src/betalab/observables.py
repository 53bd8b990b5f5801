"""Locally constant observables on digit sequences, held exactly: each
table value is read once, as its decimal literal, and kept as an integer
numerator over one common denominator, so averages are exact Fractions."""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import product

from .errors import BudgetExceeded, UsageError
from .words import check_byte_alphabet

BLOCK_TABLE = 1 << 16  # bound on the entries of a block indicator's table


def exact(value, what: str) -> Fraction:
    """value read exactly as its decimal literal; UsageError unless finite."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{what} must be finite, got {value!r}") from exc


@dataclass(frozen=True)
class Observable:
    """A range-r observable given by a table on length-r digit blocks,
    stored as `numerators`: each value times the common denominator `den`."""

    name: str
    range_r: int
    table: InitVar[dict]
    den: int = field(init=False)
    numerators: dict = field(init=False, hash=False)

    def __post_init__(self, table):
        if self.range_r < 1:
            raise UsageError("observable range must be >= 1")
        if not table:
            raise UsageError("observable table is empty")
        values = {b: exact(v, f"observable {self.name} value")
                  for b, v in table.items()}
        den = math.lcm(*(v.denominator for v in values.values()))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "numerators", {
            b: v.numerator * (den // v.denominator) for b, v in values.items()})

    @property
    def sup_norm(self) -> Fraction:
        return Fraction(max(map(abs, self.numerators.values())), self.den)

    @property
    def oscillation(self) -> Fraction:
        nums = self.numerators.values()
        return Fraction(max(nums) - min(nums), self.den)

    def numerator(self, block: tuple[int, ...]) -> int:
        try:
            return self.numerators[block]
        except KeyError:
            raise UsageError(f"observable {self.name} undefined on block {block}")

    def average_on_word(self, digits) -> Fraction:
        """Exact truncated Birkhoff average over the materialized prefix.

        A range-r observable only sees the first len - r + 1 windows, read
        by zipping r shifted slices; the discarded tail is accounted for in
        callers' boundary terms.
        """
        r = self.range_r
        if len(digits) < r:
            raise UsageError(f"word shorter than observable range {r}")
        windows = zip(*(digits[i:] for i in range(r)))
        return Fraction(sum(map(self.numerator, windows)),
                        (len(digits) - r + 1) * self.den)

    def periodic_average(self, period_digits) -> Fraction:
        """Exact Birkhoff average of the periodic stream period_digits^inf:
        the average over one period's cyclic extension by r - 1 digits."""
        period = tuple(period_digits)
        if not period:
            raise UsageError("empty period")
        extended = period * (self.range_r // len(period) + 2)
        return self.average_on_word(extended[:len(period) + self.range_r - 1])


def digit_frequency(digit: int, alphabet_bound: int) -> Observable:
    table = {(i,): int(i == digit) for i in range(alphabet_bound + 1)}
    return Observable(name=f"freq:{digit}", range_r=1, table=table)


def constant(value: float, alphabet_bound: int) -> Observable:
    table = {(i,): value for i in range(alphabet_bound + 1)}
    return Observable(name=f"const:{value}", range_r=1, table=table)


def block_indicator(block: tuple[int, ...], alphabet_bound: int) -> Observable:
    r = len(block)
    if (alphabet_bound + 1) ** r > BLOCK_TABLE:
        raise BudgetExceeded(f"block table of {alphabet_bound + 1}^{r} "
                             f"entries exceeds {BLOCK_TABLE}")
    table = {b: int(b == tuple(block))
             for b in product(range(alphabet_bound + 1), repeat=r)}
    return Observable(name=f"block:{''.join(map(str, block))}", range_r=r, table=table)


def parse_observable(spec: str, alphabet_bound: int) -> Observable:
    """Parse CLI observable specs: "freq:1", "const:0.5", "block:101"."""
    check_byte_alphabet(alphabet_bound)  # one entry per digit
    kind, _, arg = spec.partition(":")
    try:
        if kind == "freq":
            return digit_frequency(int(arg), alphabet_bound)
        if kind == "const":
            return constant(float(arg), alphabet_bound)
        if kind == "block":
            return block_indicator(tuple(int(c) for c in arg), alphabet_bound)
    except ValueError as exc:
        raise UsageError(f"cannot parse observable spec {spec!r}") from exc
    raise UsageError(f"unknown observable spec {spec!r}")
