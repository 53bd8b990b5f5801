"""Admissibility, the labelled presentation graph, word counting and repair.

The language of a beta-shift is read in the labelled graph whose vertex i
carries one forward edge labelled w_i(beta) plus back-edges to vertex 1
labelled 0 .. w_i(beta)-1 (Parry 1960).  `Automaton` presents that graph
to the generic reader, counter and enumerator of `betalab.automata`; the
tests keep Parry's lexicographic shift criterion on w(beta) as an
independent oracle for it on every base in the battery.  The n-step Markov
approximation is the `Automaton` of the simple base beta(n).  This module
is also the one home of the distances z_n to the next nonzero digit of
w(beta) and of the one-symbol repair that glues admissible words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import automata
from .beta_core import BetaNumber, simple_beta_approx
from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    NotAdmissibleInput,
    NotFound,
    UsageError,
)
from .observables import Observable
from .words import SymbolWord

STREAM_COPY_CAP = 256


class Automaton:
    """Deterministic reader for the labelled graph of a beta-shift.

    States are 1-based vertex indices; once w(beta) is known to be
    eventually periodic, states are canonicalized into the periodic window
    so arbitrarily long words can be read in bounded memory.  The periodic
    form is read at each use, because the base finds it lazily while
    computing digits.
    """

    initial = 1

    def __init__(self, beta: BetaNumber):
        self.beta = beta
        self.alphabet_bound = beta.digit_bound

    def digit_at(self, i: int) -> int:
        if len(self.beta._w) < i:
            self.beta.digits(i)
        return self.beta._w[i - 1]

    def canon(self, i: int) -> int:
        pf = self.beta.periodic_form()
        if pf is None:
            return i
        p, q = len(pf[0]), len(pf[1])
        if i <= p + q:
            return i
        return p + ((i - p - 1) % q) + 1

    def step(self, state: int, symbol: int) -> Optional[int]:
        w = self.digit_at(state)
        if symbol == w:
            return self.canon(state + 1)
        if 0 <= symbol < w:
            return 1
        return None

    def is_universal_state(self, state: int) -> bool:
        """True when every admissible word is readable from this state.

        That holds exactly when the digit stream seen from the state equals
        w(beta) itself; decidable when the expansion is eventually periodic,
        and conservatively False otherwise.
        """
        if state == 1:
            return True
        pf = self.beta.periodic_form()
        if pf is None:
            return False
        horizon = len(pf[0]) + 2 * len(pf[1])
        return all(self.digit_at(state + j) == self.digit_at(1 + j)
                   for j in range(horizon))


def is_admissible(word, beta: BetaNumber) -> bool:
    """Parry's criterion, decided by one read of the labelled graph; word is
    a SymbolWord or any int sequence, read without a copy.

    Raises AlphabetMismatch for any digit outside {0..b}, wherever it sits.
    Such a digit has no edge, so the alphabet is checked only when the read
    fails.
    """
    if automata.read(Automaton(beta), word) is not None:
        return True
    if min(word) < 0 or max(word) > beta.digit_bound:
        raise AlphabetMismatch(
            f"word uses digits outside {{0..{beta.digit_bound}}}")
    return False


def count_admissible(beta: BetaNumber, n: int) -> int:
    """Exact number of admissible words of length n (big-integer DP)."""
    if n < 1:
        raise UsageError("n must be >= 1")
    return automata.count(Automaton(beta), n)


def count_profile(beta: BetaNumber, n_max: int):
    """(n, count, log(count)/n) rows for n = 1..n_max."""
    return [(n, c, math.log(c) / n) for n, c in
            enumerate(automata.path_counts(Automaton(beta), n_max), start=1)]


@dataclass
class ZReport:
    z: list[int]
    ratio_sup: Fraction
    ratio_argmax: int
    max_z: int
    spec_flag: bool
    window: int


def z_values_from_digits(digits, n_max: int) -> ZReport:
    """z_n over 1..n_max computed from an explicit digit sequence.

    digits must extend far enough that a nonzero digit exists at or after
    every position up to n_max.
    """
    digits = tuple(digits)
    z: list[int] = []
    nz_positions = [i + 1 for i, d in enumerate(digits) if d != 0]
    import bisect
    for n in range(1, n_max + 1):
        j = bisect.bisect_left(nz_positions, n)
        if j == len(nz_positions):
            raise UsageError(
                f"digit prefix too short: no nonzero digit at or after {n}")
        z.append(nz_positions[j] - n)
    ratio_sup = Fraction(0)
    argmax = 1
    for n, zn in enumerate(z, start=1):
        r = Fraction(zn, n)
        if r > ratio_sup:
            ratio_sup, argmax = r, n
    max_z = max(z)
    half = max(1, n_max // 2)
    non_growing = max(z[half:], default=0) <= max(z[:half])
    small = max_z <= max(4, int(math.log2(n_max)) + 1)
    return ZReport(z=z, ratio_sup=ratio_sup, ratio_argmax=argmax,
                   max_z=max_z, spec_flag=non_growing and small, window=n_max)


def z_values(beta: BetaNumber, n_max: int) -> ZReport:
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    # extend digits until a nonzero exists at or after n_max; the budget
    # reaches the zero run of w(beta) for beta >= 1.0005 (15,205 zeros)
    need = n_max
    cap = max(4 * n_max, n_max + (1 << 14))
    while True:
        digits = beta.digits(need)
        if any(d != 0 for d in digits[n_max - 1:]):
            break
        if need >= cap:
            raise BudgetExceeded(
                f"no nonzero digit found up to {cap}; gap too long for window")
        need = min(2 * need, cap)
    return z_values_from_digits(digits, n_max)


def zero_last_nonzero(word: bytes):
    """The one-symbol repair: (word with the last nonzero digit zeroed, its
    position), or (word, None) when every digit is 0.  A repaired
    admissible word concatenates admissibly with every admissible word."""
    i = len(word.rstrip(b"\0")) - 1
    if i < 0:
        return word, None
    return word[:i] + b"\0" + word[i + 1:], i


def repair_word(word: SymbolWord, beta: BetaNumber) -> SymbolWord:
    """The one-symbol repair (`zero_last_nonzero`) of an admissible word."""
    if not is_admissible(word, beta):
        raise NotAdmissibleInput(f"word {word} is not admissible")
    return SymbolWord(zero_last_nonzero(word.digits)[0], word.alphabet_bound)


@dataclass
class MarkovApprox(Automaton):
    """n-step Markov subsystem: the labelled graph of the simple base
    beta(n), whose vertices are the first effective_order vertices of
    beta's graph, read as the Automaton of approx_beta."""

    base_beta: BetaNumber
    order: int            # requested truncation index
    effective_order: int  # after dropping trailing zero digits
    approx_beta: BetaNumber
    confined_labels: tuple[int, ...]

    def __post_init__(self):
        super().__init__(self.approx_beta)
        # the labels, not approx_beta's digit bound: at effective order 1,
        # beta(n) = w_1 is an integer whose digit bound is w_1 - 1
        self.alphabet_bound = max(self.confined_labels)

    def count(self, n: int) -> int:
        return automata.count(self, n)

    @property
    def entropy(self) -> float:
        return self.approx_beta.log

    def enumerate_words(self, n: int):
        """All accepted words of length n, lexicographic order."""
        return automata.enumerate_words(self, n)


def markov_approx(beta: BetaNumber, n: int) -> MarkovApprox:
    approx = simple_beta_approx(beta, n)
    m = approx.info["effective_n"]
    labels = beta.digits(m)
    return MarkovApprox(base_beta=beta, order=n, effective_order=m,
                        approx_beta=approx, confined_labels=labels)


def enumerate_admissible(beta: BetaNumber, n: int, budget: int = 10 ** 6):
    """All admissible words of length n via graph DFS, lexicographic order."""
    return automata.enumerate_words(Automaton(beta), n, budget)


def periodic_stream_admissible(beta: BetaNumber, period_digits) -> bool:
    """Whether the periodic stream period_digits^inf lies in the shift.

    Exact when w(beta) is eventually periodic (the canonical state space is
    finite); otherwise a finite-depth check over STREAM_COPY_CAP copies.
    """
    auto = Automaton(beta)
    state = 1
    seen = {1}
    for _ in range(STREAM_COPY_CAP):
        state = automata.read(auto, period_digits, start=state)
        if state is None:
            return False
        if state in seen and beta.periodic_form() is not None:
            return True
        seen.add(state)
    return True


def periodic_witnesses(beta: BetaNumber, observable: Observable,
                       max_period: int):
    """Two admissible periodic words whose per-period averages realize the
    extreme gap found up to max_period."""
    best_lo = best_hi = None
    val_lo = math.inf
    val_hi = -math.inf
    for p in range(max(1, observable.range_r), max_period + 1):
        for word in enumerate_admissible(beta, p, budget=10 ** 6):
            if not periodic_stream_admissible(beta, word):
                continue
            avg = observable.periodic_average(word)
            if avg < val_lo:
                val_lo, best_lo = avg, word
            if avg > val_hi:
                val_hi, best_hi = avg, word
    if best_lo is None or val_hi - val_lo <= 1e-12:
        raise NotFound(
            "all periodic averages coincide up to the searched period")
    return (SymbolWord(best_lo, beta.digit_bound), val_lo,
            SymbolWord(best_hi, beta.digit_bound), val_hi)
