"""Admissibility, the labelled presentation graph, word counting and repair.

The language of a beta-shift is read in the labelled graph whose vertex i
carries one forward edge labelled w_i(beta) plus back-edges to vertex 1
labelled 0 .. w_i(beta)-1 (Parry 1960).  `Automaton` presents that graph
to the generic reader and enumerator of `betalab.automata`; the tests keep
Parry's lexicographic shift criterion on w(beta) as an independent oracle
for it on every base in the battery.  Words are counted by Parry's renewal
on w(beta), with the generic count DP as the tests' oracle.  The n-step
Markov approximation is the `Automaton` of the simple base beta(n).  This
module is also the one home of the distances z_n to the next nonzero digit
of w(beta) and of the one-symbol repair that glues admissible words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, groupby
from operator import mul
from typing import Optional

from . import automata
from .beta_core import BetaNumber, renewal_denominator, simple_beta_approx
from .errors import BudgetExceeded, UsageError
from .observables import Observable
from .words import as_word, check_byte_alphabet, format_digits


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

    def canon(self, i: int) -> int:
        pf = self.beta.periodic_form()
        if pf is None:
            return i
        p, q = len(pf[0]), len(pf[1])
        if i <= p + q:
            return i
        return p + ((i - p - 1) % q) + 1

    def step(self, state: int, symbol: int) -> Optional[int]:
        w = self.beta.digit(state)
        if symbol == w:
            return self.canon(state + 1)
        if 0 <= symbol < w:
            return 1
        return None


def is_admissible(word, beta: BetaNumber) -> bool:
    """Parry's criterion, decided by one read of the labelled graph; word is
    any int sequence, read without a copy.

    Raises UsageError for any digit outside {0..b}, a non-number among
    them, wherever it sits.  Such a digit has no edge, so the alphabet is
    checked only when the read fails.
    """
    if automata.read(Automaton(beta), word) is not None:
        return True
    try:
        outside = min(word) < 0 or max(word) > beta.digit_bound
    except TypeError:  # a digit that does not compare with integers
        outside = True
    if outside:
        raise UsageError(
            f"word uses digits outside {{0..{beta.digit_bound}}}")
    return False


def _word_counts(beta: BetaNumber, n_max: int) -> list[int]:
    """#L_1 .. #L_n_max as the coefficients of N/D, D the
    `renewal_denominator` of w(beta) and N = 1 + .. + z^(q-1): c_n =
    [n < q] - sum_j D_j c_{n-j} over D's nonzero terms.  While no periodic
    form is known, the first n_max digits stand for w(beta) with
    q = n_max + 1, which is Parry's renewal #L_n = 1 + sum_i w_i #L_{n-i}."""
    digits = beta.digits(n_max)
    prefix, period = beta.periodic_form() or (digits, ())
    neg_d = [-x for x in renewal_denominator(prefix, period)[1:]]
    q = len(period) or n_max + 1
    coef = [x for x in neg_d if x]
    c = [1]
    for n in range(1, n_max + 1):
        c.append((n < q) + sum(map(mul, coef, compress(reversed(c), neg_d))))
    return c[1:]


def count_admissible(beta: BetaNumber, n: int) -> int:
    """Exact number of admissible words of length n."""
    if n < 1:
        raise UsageError("n must be >= 1")
    return _word_counts(beta, n)[-1]


def count_profile(beta: BetaNumber, n_max: int):
    """(n, count, log(count)/n) rows for n = 1..n_max."""
    if n_max < 1:
        raise UsageError("n must be >= 1")
    return [(n, c, math.log(c) / n)
            for n, c in enumerate(_word_counts(beta, n_max), start=1)]


@dataclass
class ZReport:
    z: list[int]
    ratio_sup: Fraction
    ratio_argmax: int
    max_z: int  # a lower bound on the longest zero run of w(beta)
    gap: Optional[int]  # the specification gap, None when undecided
    window: int


def z_values(beta: BetaNumber, n_max: int) -> ZReport:
    """z_n, the distance from n to the next nonzero digit of w(beta) at or
    after n, over 1..n_max, with the ratio summaries.  Given w(beta)'s
    periodic form, with M its longest zero run over the preperiod and two
    periods, u 0^(M+1) v is admissible for all admissible u and v (0^(M+1)
    ends at vertex 1): the specification gap is M + 1 (Bertrand-Mathis)."""
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    # the first nonzero digit at or after n_max; the budget reaches the
    # zero run of w(beta) for beta >= 1.0005 (15,205 zeros)
    cap = max(4 * n_max, n_max + (1 << 14))
    nxt = next((i for i in range(n_max, cap + 1) if beta.digit(i)), None)
    if nxt is None:
        raise BudgetExceeded(
            f"no nonzero digit found up to {cap}; gap too long for window")
    z = [0] * n_max
    for n in range(n_max, 0, -1):  # nxt: next nonzero position >= n
        nxt = n if beta.digit(n) else nxt
        z[n - 1] = nxt - n
    # the first n attaining sup z_n / n: max keeps the first of equal keys
    argmax = max(range(1, n_max + 1), key=lambda n: Fraction(z[n - 1], n))
    ratio_sup = Fraction(z[argmax - 1], argmax)
    gap, form = None, beta.periodic_form()
    if form is not None:
        gap = 1 + max((len(list(run)) for d, run in
                       groupby(form[0] + 2 * form[1]) if d == 0), default=0)
    return ZReport(z=z, ratio_sup=ratio_sup, ratio_argmax=argmax,
                   max_z=max(z), gap=gap, window=n_max)


def zero_last_nonzero(word: bytes):
    """The one-symbol repair: (word with the last nonzero digit zeroed, its
    position), or (word, None) when every digit is 0.  A repaired
    admissible word concatenates admissibly with every admissible word."""
    i = len(word.rstrip(b"\0")) - 1
    if i < 0:
        return word, None
    return word[:i] + b"\0" + word[i + 1:], i


def repair_word(word, beta: BetaNumber) -> bytes:
    """The one-symbol repair (`zero_last_nonzero`) of an admissible word,
    any int sequence."""
    if not is_admissible(word, beta):
        raise UsageError(f"word {format_digits(word)} is not admissible")
    return zero_last_nonzero(as_word(word))[0]


@dataclass
class MarkovApprox(Automaton):
    """n-step Markov subsystem: the labelled graph of the simple base
    beta(n), read as the Automaton of approx_beta; its vertices are the
    first m of beta's graph, m the last index of a nonzero in w_1 .. w_n."""

    base_beta: BetaNumber
    approx_beta: BetaNumber

    def __post_init__(self):
        super().__init__(self.approx_beta)
        # the labels' bound w_1, not approx_beta's digit bound: at m = 1,
        # beta(n) = w_1 is an integer whose digit bound is w_1 - 1
        self.alphabet_bound = self.base_beta.digit_bound

    @property
    def entropy(self) -> float:
        return self.approx_beta.log

    def enumerate_words(self, n: int):
        """All accepted words of length n in lexicographic order, as a lazy
        ranked sequence (`betalab.automata.Words`)."""
        return automata.enumerate_words(self, n)


def markov_approx(beta: BetaNumber, n: int) -> MarkovApprox:
    return MarkovApprox(base_beta=beta,
                        approx_beta=simple_beta_approx(beta, n))


def enumerate_admissible(beta: BetaNumber, n: int):
    """All admissible words of length n in lexicographic order, as a lazy
    ranked sequence (`betalab.automata.Words`); BudgetExceeded, before
    enumerating, past 10^6 words.  After the alphabet checks of `Words`,
    in its order, Renyi's bound beta^n <= #L_n (1957) on the lower end of
    beta's enclosure, rounded down in 64-bit fixed point, refuses a long n
    before the counts, which take O(n^2) edge reads while w(beta) has no
    known periodic form."""
    automata.check_labels(beta.digit_bound)
    check_byte_alphabet(beta.digit_bound)
    lo = beta.enclosure(1)[0]  # the enclosure as it stands, not refined
    step, power = (lo.numerator << 64) // lo.denominator, 1 << 64
    for _ in range(n):
        power = power * step >> 64  # at most lo^k 2^64 after k steps
        if power > 10 ** 6 << 64:
            break
    else:
        words = automata.enumerate_words(Automaton(beta), n)
        if len(words) <= 10 ** 6:
            return words
    raise BudgetExceeded("more than 1000000 words")


def periodic_stream_admissible(beta: BetaNumber, period_digits) -> bool:
    """Whether the periodic stream period_digits^inf lies in the shift, read
    copy by copy until the state after a copy repeats.  State i means the
    last i - 1 digits read are w_1 .. w_{i-1}, so states stay bounded unless
    w(beta) is periodic, and then `Automaton.canon` folds them."""
    auto = Automaton(beta)
    state, seen = 1, set()
    while state not in seen:
        seen.add(state)
        state = automata.read(auto, period_digits, start=state)
        if state is None:
            return False
    return True


def periodic_witnesses(beta: BetaNumber, observable: Observable,
                       max_period: int):
    """The first admissible periodic words, by period then lexicographically,
    whose exact per-period averages realize the extreme gap up to max_period;
    only the running extremes are kept, not the words scanned."""
    r = observable.range_r  # at least 1
    if max_period < r:
        raise UsageError(f"max_period must be >= {r}, the observable's range")
    lo = hi = None  # first (average, word) of least and of greatest average
    for p in range(r, max_period + 1):
        for word in enumerate_admissible(beta, p):
            if periodic_stream_admissible(beta, word):
                found = (observable.periodic_average(word), word)
                if lo is None or found[0] < lo[0]:
                    lo = found
                if hi is None or found[0] > hi[0]:
                    hi = found
    if lo is None or lo[0] == hi[0]:
        raise UsageError(
            "all periodic averages coincide up to the searched period")
    return lo[1], lo[0], hi[1], hi[0]
