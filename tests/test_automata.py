import copy
import gc
import random
import tracemalloc
from fractions import Fraction
from functools import cache, partial
from itertools import chain, islice, product

import pytest

from betalab.automata import (TAIL_WORDS, edges, enumerate_words,
                              iter_words, path_counts, read)
from betalab.beta_core import BetaNumber, greedy_expansion
from betalab.errors import AlphabetMismatch, BudgetExceeded, UsageError
from betalab.exotic import build_nested
from betalab.irregular import _LevelSet
from betalab.observables import digit_frequency
from betalab.parry import Automaton, is_admissible, markov_approx

PRESENTATIONS = {
    "beta-golden": lambda b: Automaton(b["golden"]),
    "beta-figure": lambda b: Automaton(b["figure"]),
    "beta-three-halves": lambda b: Automaton(b["three_halves"]),
    "markov-figure": lambda b: markov_approx(b["figure"], 4),
    "markov-tribonacci": lambda b: markov_approx(b["tribonacci"], 2),
    "nested": lambda b: build_nested((4, 6)).automata[1],
    "markov-figure-6": lambda b: markov_approx(b["figure"], 6),
    "level-set-14": lambda b: _LevelSet(Automaton(b["golden"]),
                                        digit_frequency(1, 1), 0.3, 0.1, 14),
}


def oracle_iter_words(pres, n):
    """The per-word DFS without tail tables: one list per run of words
    that differ only in the last symbol."""
    if n == 0:
        return iter([()])
    edges_of = cache(partial(edges, pres))

    def runs():
        word = []
        stack = [iter(edges_of(pres.initial))]
        while stack:
            if len(stack) < n:
                edge = next(stack[-1], None)
                if edge is not None:
                    word.append(edge[0])
                    stack.append(iter(edges_of(edge[1])))
                    continue
            else:
                head = tuple(word)
                yield [head + (s,) for s, _ in stack[-1]]
            stack.pop()
            if word:
                word.pop()
    return chain.from_iterable(runs())


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_path_count_equals_enumeration(bench_bases, name):
    """Counter, enumerator, word stream and reader agree with brute force
    over all words and with the per-word DFS, past the tail length: up to
    n = 14 on a binary alphabet and n = 10 on a ternary one, so words come
    from a prefix walk and a shared tail list.  Every word is exactly
    bytes, which the cyclic garbage collector does not track."""
    pres = PRESENTATIONS[name](bench_bases)
    n_max = 14 if pres.alphabet_bound == 1 else 10
    assert (pres.alphabet_bound + 1) ** n_max > TAIL_WORDS
    counts = path_counts(pres, n_max)
    symbols = range(pres.alphabet_bound + 1)
    for n in range(1, n_max + 1):
        words = enumerate_words(pres, n)
        assert len(words) == counts[n - 1]
        assert words == [bytes(w) for w in product(symbols, repeat=n)
                         if read(pres, w) is not None]
        assert words == list(map(bytes, oracle_iter_words(pres, n)))
        streamed = list(iter_words(pres, n))
        assert streamed == words
        assert all(type(w) is bytes and not gc.is_tracked(w)
                   for w in streamed)


def test_iter_words_is_lazy(beta_golden):
    """Golden words of length 60 number F_62 > 4 * 10^12; the first three
    in lexicographic order come without walking the rest."""
    words = iter_words(Automaton(beta_golden), 60)
    assert [next(words) for _ in range(3)] == \
        [bytes(60), bytes(59) + b"\x01", bytes(58) + b"\x01\x00"]
    assert list(iter_words(Automaton(beta_golden), 0)) == [b""]


class _WideAlphabet:
    """Every word over {0..256}: one symbol more than a byte holds."""

    initial = 0
    alphabet_bound = 256

    def step(self, state, sym):
        return 0


def test_words_wider_than_a_byte_are_refused():
    """Enumeration refuses an alphabet past 255 instead of wrapping its
    digits; counting and reading need no bytes and still work."""
    pres = _WideAlphabet()
    with pytest.raises(UsageError):
        iter_words(pres, 1)
    with pytest.raises(UsageError):
        enumerate_words(pres, 2)
    assert path_counts(pres, 2) == [257, 257 ** 2]
    assert read(pres, (256, 300)) is None and read(pres, (256, 0)) == 0


def test_enumeration_budget(beta_golden):
    auto = Automaton(beta_golden)
    assert len(enumerate_words(auto, 5, budget=13)) == 13
    with pytest.raises(BudgetExceeded):
        enumerate_words(auto, 5, budget=12)


def _traced(fn):
    """fn's result, with the peak and the still-allocated bytes that
    tracemalloc saw above what was allocated before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, now - before


def test_budget_is_checked_before_enumerating(bench_bases):
    """2^40 words exceed a budget of 10^6: the count says so before any
    word is built."""
    def over_budget():
        with pytest.raises(BudgetExceeded):
            enumerate_words(Automaton(bench_bases["two"]), 40, budget=10 ** 6)
    _, peak, _ = _traced(over_budget)
    assert peak < 256 * 1024, peak


def test_iter_words_memory_is_bounded_and_freed(beta_golden):
    """The first 1,000 golden words of length 2,000 cost a 1,988-deep
    prefix walk and a tail list per end state, not the F_2002 words, and
    dropping the stream frees everything it built without a collector
    pass."""
    auto = Automaton(beta_golden)

    def first_words():
        words = iter_words(auto, 2000)
        return {len(w) for w in islice(words, 1000)}
    first_words()  # warms the allocator before the measured call
    lengths, peak, left = _traced(first_words)
    assert lengths == {2000}
    assert peak < 4 * 1024 * 1024, peak
    assert left < 1024, left


READERS = {
    **PRESENTATIONS,
    "beta-two": lambda b: Automaton(b["two"]),
    "beta-tribonacci": lambda b: Automaton(b["tribonacci"]),
    "beta-one-seven": lambda b: Automaton(b["one_seven"]),
    "level-set": lambda b: _LevelSet(Automaton(b["golden"]),
                                     digit_frequency(1, 1), 0.3, 0.1, 40),
}


def oracle_read(pres, digits, start=None):
    """The reader without a successor table: one step call per symbol, and
    no edge for a symbol outside {0..b}."""
    state = pres.initial if start is None else start
    for s in digits:
        if not 0 <= s <= pres.alphabet_bound:
            return None
        state = pres.step(state, s)
        if state is None:
            return None
    return state


def _walk(pres, rng, length):
    """Labels of a seeded random path of up to length edges."""
    word, state = [], pres.initial
    for _ in range(length):
        out = edges(pres, state)
        if not out:
            break
        s, state = rng.choice(out)
        word.append(s)
    return tuple(word)


def _read_cases(pres, rng):
    """Random walks up to 500 symbols, some with one symbol replaced by a
    random one in {-2..b+2}, plus greedy expansions on a beta base."""
    b = pres.alphabet_bound
    for _ in range(40):
        word = list(_walk(pres, rng, rng.randint(0, 500)))
        if word and rng.random() < 0.5:
            word[rng.randrange(len(word))] = rng.randint(-2, b + 2)
        yield tuple(word)
    if isinstance(pres, Automaton):
        for _ in range(10):
            x = Fraction(rng.randrange(1000), 1000)
            yield greedy_expansion(x, pres.beta, 300).digits


@pytest.mark.parametrize("name", sorted(READERS))
def test_read_matches_oracle(bench_bases, name):
    """The table read ends in the oracle's state, from initial and from a
    state reached by a prefix, on bases whose period is already known."""
    pres = READERS[name](bench_bases)
    if isinstance(pres, Automaton):
        pres.beta.digits(64)  # past every battery base's period
    rng = random.Random(f"read-{name}")
    for word in _read_cases(pres, rng):
        assert read(pres, word) == oracle_read(pres, word)
        k = rng.randint(0, len(word))
        start = oracle_read(pres, word[:k])
        if start is not None:
            assert read(pres, word[k:], start=start) == \
                oracle_read(pres, word[k:], start=start)


FRESH_BASES = {
    "golden": [1, -1, -1],
    "figure": [1, -2, 0, -1, 0, 0, -2],
    # w = 1(1100)^inf: Brent's detection finds the period two digits late
    "late-period": [1, -2, 1, -2, 1],
}


@pytest.mark.parametrize("name", sorted(FRESH_BASES))
def test_read_on_fresh_base_matches_oracle_up_to_canon(name):
    """On a fresh base the period is found during the read, so states are
    compared after canonicalization into the periodic window.  Each read
    gets its own deep copy of a base that has computed no digit yet."""
    pristine = BetaNumber.from_polynomial(FRESH_BASES[name])
    warm = Automaton(copy.deepcopy(pristine))
    rng = random.Random(f"fresh-{name}")
    for length in [rng.randint(1, 30) for _ in range(100)] + [500] * 5:
        word = _walk(warm, rng, length)
        a = read(Automaton(copy.deepcopy(pristine)), word)
        b = oracle_read(Automaton(copy.deepcopy(pristine)), word)
        assert warm.canon(a) == warm.canon(b)


@pytest.mark.parametrize("name", sorted(READERS))
def test_out_of_alphabet_symbols_read_as_none(bench_bases, name):
    """A symbol below 0 or above b has no edge on any presentation; a
    negative one never wraps to another symbol's entry."""
    pres = READERS[name](bench_bases)
    b = pres.alphabet_bound
    for s in (-b - 1, -2, -1, b + 1, b + 2):
        assert read(pres, (s,)) is None
        assert read(pres, (0, s)) is None
        assert read(pres, (0, s, 0)) is None


def test_is_admissible_checks_alphabet_after_inadmissible_prefix(
        beta_golden):
    with pytest.raises(AlphabetMismatch):
        is_admissible((1, 1, 2), beta_golden)
    with pytest.raises(AlphabetMismatch):
        is_admissible((1, 1, -1), beta_golden)
    assert is_admissible((1, 0, 1), beta_golden)
    assert not is_admissible((1, 1, 0), beta_golden)
