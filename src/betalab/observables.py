"""Locally constant observables on digit sequences."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UsageError


@dataclass(frozen=True)
class Observable:
    """A range-r observable given by a table on length-r digit blocks."""

    name: str
    range_r: int
    table: dict = field(hash=False)

    def __post_init__(self):
        if self.range_r < 1:
            raise UsageError("observable range must be >= 1")
        if not self.table:
            raise UsageError("observable table is empty")

    @property
    def sup_norm(self) -> float:
        return max(abs(v) for v in self.table.values())

    @property
    def oscillation(self) -> float:
        return max(self.table.values()) - min(self.table.values())

    def block_value(self, block: tuple[int, ...]) -> float:
        try:
            return self.table[block]
        except KeyError:
            raise UsageError(f"observable {self.name} undefined on block {block}")

    def average_on_word(self, digits) -> float:
        """Truncated Birkhoff average over the materialized prefix.

        A range-r observable only sees the first len - r + 1 windows, read
        by zipping r shifted slices; the discarded tail is accounted for in
        callers' boundary terms.
        """
        digits = tuple(digits)
        r = self.range_r
        if len(digits) < r:
            raise UsageError(f"word shorter than observable range {r}")
        windows = zip(*(digits[i:] for i in range(r)))
        return sum(map(self.block_value, windows)) / (len(digits) - r + 1)

    def periodic_average(self, period_digits) -> float:
        """Exact Birkhoff average of the periodic stream period_digits^inf:
        the average over one period's cyclic extension by r - 1 digits."""
        period = tuple(period_digits)
        if not period:
            raise UsageError("empty period")
        extended = period * (self.range_r // len(period) + 2)
        return self.average_on_word(extended[:len(period) + self.range_r - 1])


def digit_frequency(digit: int, alphabet_bound: int) -> Observable:
    table = {(i,): 1.0 if i == digit else 0.0 for i in range(alphabet_bound + 1)}
    return Observable(name=f"freq:{digit}", range_r=1, table=table)


def constant(value: float, alphabet_bound: int) -> Observable:
    table = {(i,): float(value) for i in range(alphabet_bound + 1)}
    return Observable(name=f"const:{value}", range_r=1, table=table)


def block_indicator(block: tuple[int, ...], alphabet_bound: int) -> Observable:
    from itertools import product

    r = len(block)
    table = {b: 1.0 if b == tuple(block) else 0.0
             for b in product(range(alphabet_bound + 1), repeat=r)}
    return Observable(name=f"block:{''.join(map(str, block))}", range_r=r, table=table)


def parse_observable(spec: str, alphabet_bound: int) -> Observable:
    """Parse CLI observable specs: "freq:1", "const:0.5", "block:101"."""
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
