import copy
import gc
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import chain, islice, product

import pytest

from betalab.automata import (TAIL_WORDS, Words, _tail_length, edges,
                              enumerate_words, path_counts, read)
from betalab.beta_core import BetaNumber, greedy_expansion
from betalab.errors import BudgetExceeded, UsageError
from betalab.exotic import build_nested
from betalab.irregular import _LevelSet
from betalab.observables import digit_frequency
from betalab.parry import (Automaton, enumerate_admissible, is_admissible,
                           markov_approx)

PRESENTATIONS = {
    "beta-golden": lambda b: Automaton(b["golden"]),
    "beta-figure": lambda b: Automaton(b["figure"]),
    "beta-three-halves": lambda b: Automaton(b["three_halves"]),
    "markov-figure": lambda b: markov_approx(b["figure"], 4),
    "markov-tribonacci": lambda b: markov_approx(b["tribonacci"], 2),
    "nested": lambda b: build_nested((4, 6)).automata[1],
    "markov-figure-6": lambda b: markov_approx(b["figure"], 6),
    "level-set-14": lambda b: _LevelSet(Automaton(b["golden"]),
                                        digit_frequency(1, 1), Fraction(3, 10),
                                        Fraction(1, 10), 14),
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


def brute_force_words(pres, n):
    """Every word over {0..b} of length n that the reader accepts, in
    lexicographic order."""
    symbols = range(pres.alphabet_bound + 1)
    return [bytes(w) for w in product(symbols, repeat=n)
            if read(pres, w) is not None]


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
    for n in range(1, n_max + 1):
        words = enumerate_words(pres, n)
        assert len(words) == counts[n - 1]
        assert words == brute_force_words(pres, n)
        assert words == list(map(bytes, oracle_iter_words(pres, n)))
        streamed = list(enumerate_words(pres, n))
        assert streamed == words
        assert all(type(w) is bytes and not gc.is_tracked(w)
                   for w in streamed)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_words_rank_like_the_list(bench_bases, name):
    """Words answers len, indices, slices, == and random.choice as the list
    of its words does: the brute-force list up to n_max, where a slice
    skips subtrees at most a few edges deep, and the streamed list four
    symbols further, where it skips deeper.  On one binary and one ternary
    presentation, slices also start at the first, a middle and the last
    word of a prefix's tail list, so the rank left at that prefix is 0,
    inside the list or at its end."""
    pres = PRESENTATIONS[name](bench_bases)
    n_max = 14 if pres.alphabet_bound == 1 else 10
    counts = [1, *path_counts(pres, n_max + 4)]
    rng = random.Random(f"words-{name}")
    for n in [*range(n_max + 1), n_max + 4]:
        words = enumerate_words(pres, n)
        expected = (brute_force_words(pres, n) if n <= n_max
                    else list(enumerate_words(pres, n)))
        size = len(expected)
        assert isinstance(words, Words) and len(words) == size == counts[n]
        assert words == expected and expected == words
        assert words == tuple(expected) and not words != expected
        if expected:
            assert words != expected[:-1] and expected[1:] != words
            assert words != [*expected[:-1], bytes(n + 1)]
            assert random.Random(n).choice(words) == \
                random.Random(n).choice(expected)
            for i in (0, -1, size - 1, -size,
                      *(rng.randrange(-size, size) for _ in range(40))):
                assert words[i] == expected[i], i
        for i in (size, -size - 1, size + 7, -size - 7):
            with pytest.raises(IndexError):
                words[i]
        for _ in range(30):
            a, b = (rng.randint(-size - 3, size + 3) for _ in range(2))
            step = rng.choice((None, 1, 1, 2, 3, -1, -2))
            assert words[a:b:step] == expected[a:b:step], (a, b, step)
        assert words[size:] == words[5:5] == words[:-size - 1] == []
        if name in ("beta-golden", "beta-figure"):
            cut = n - _tail_length(pres, n)  # the prefix length
            heads = [i for i in range(size)
                     if i == 0 or expected[i][:cut] != expected[i - 1][:cut]]
            for a, b in islice(zip(heads, [*heads[1:], size]), None, None,
                               max(1, len(heads) // 6)):
                for i in (a, (a + b) // 2, b - 1):
                    assert words[i:i + 5] == expected[i:i + 5], (n, i)
                    assert words[i:i + 9:4] == expected[i:i + 9:4], (n, i)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_negative_length_is_refused(bench_bases, name):
    """n = -1 once gave the length-1 words; every enumeration refuses it."""
    pres = PRESENTATIONS[name](bench_bases)
    with pytest.raises(UsageError, match="n must be >= 0"):
        enumerate_words(pres, -1)
    for beta in bench_bases.values():
        with pytest.raises(UsageError, match="n must be >= 0"):
            enumerate_admissible(beta, -1)


def test_iter_words_is_lazy(beta_golden):
    """Golden words of length 60 number F_62 > 4 * 10^12; the first three
    in lexicographic order come without walking the rest."""
    words = iter(enumerate_words(Automaton(beta_golden), 60))
    assert [next(words) for _ in range(3)] == \
        [bytes(60), bytes(59) + b"\x01", bytes(58) + b"\x01\x00"]
    assert list(enumerate_words(Automaton(beta_golden), 0)) == [b""]


def oracle_golden_word(i, n):
    """Word i, in lexicographic order, of the binary words of length n
    without 11 (the golden shift's words): F_(m+2) words have length m, so
    word i starts with 0 when i < F_(n+1) and with 10 otherwise."""
    fib = [0, 1]
    while len(fib) < n + 2:
        fib.append(fib[-1] + fib[-2])
    out = []
    while n > 0:
        if i < fib[n + 1]:
            out.append(0)
            n -= 1
        else:
            i -= fib[n + 1]
            out += [1, 0][:n]
            n -= 2
    return bytes(out)


def test_words_past_sys_maxsize(beta_golden):
    """Golden words of length 100 number F_102 ~ 9.3 * 10^20, more than
    sys.maxsize: len, and a slice or reversed walk over all of them, raise
    BudgetExceeded, while bool, indices and short slices answer from the
    exact count as the unranking oracle does."""
    words = enumerate_words(Automaton(beta_golden), 100)
    size = path_counts(Automaton(beta_golden), 100)[-1]
    assert size > sys.maxsize
    for call in (len, lambda w: w[:], lambda w: next(reversed(w))):
        with pytest.raises(BudgetExceeded):
            call(words)
    assert words
    assert words[-1] == b"\x01\x00" * 50 == oracle_golden_word(size - 1, 100)
    for i in (0, 10 ** 20, size // 3, -10 ** 20):
        assert words[i] == oracle_golden_word(i % size, 100), i
    assert words[10 ** 20:10 ** 20 + 3] == \
        [oracle_golden_word(10 ** 20 + k, 100) for k in range(3)]
    assert words[size - 2:] == words[-2:] == \
        [oracle_golden_word(size - k, 100) for k in (2, 1)]
    assert [oracle_golden_word(i, 4) for i in range(8)] == \
        list(enumerate_words(Automaton(beta_golden), 4))


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
        enumerate_words(pres, 1)
    with pytest.raises(UsageError):
        enumerate_words(pres, 2)
    assert path_counts(pres, 2) == [257, 257 ** 2]
    assert read(pres, (256, 300)) is None and read(pres, (256, 0)) == 0


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
    """2^40 words exceed enumerate_admissible's budget of 10^6: the count
    says so before any word is built."""
    def over_budget():
        with pytest.raises(BudgetExceeded):
            enumerate_admissible(bench_bases["two"], 40)
    _, peak, _ = _traced(over_budget)
    assert peak < 256 * 1024, peak


def test_iter_words_memory_is_bounded_and_freed(beta_golden):
    """The first 1,000 golden words of length 2,000 cost a 1,988-deep
    prefix walk and a tail list per end state, not the F_2002 words, and
    dropping the stream frees everything it built without a collector
    pass.

    The small lists, dicts and tuples a call frees go to CPython's free
    lists, which tracemalloc still counts as allocated.  After one warm-up
    call the measured call left 1,068 bytes when run alone (1,300 after
    the rest of this file); after three it leaves 308, its result and the
    (now, peak) tuple, as the free lists are at steady state."""
    auto = Automaton(beta_golden)

    def first_words():
        words = iter(enumerate_words(auto, 2000))
        return {len(w) for w in islice(words, 1000)}
    for _ in range(3):
        first_words()
    lengths, peak, left = _traced(first_words)
    assert lengths == {2000}
    assert peak < 4 * 1024 * 1024, peak
    assert left < 1024, left


def test_words_memory_grows_with_states_times_n(bench_bases):
    """markov_approx((201001)^inf, 6) has 2,551,913 words of length 18,
    about 160 MB as a list of bytes; Words counts them and ranks the last,
    the quasi-greedy (201000)^3, in under 1 MiB.  At n = 14 a full pass in
    slices of 65,536 words, each checked against the stream, holds about
    two slices at a time."""
    approx = markov_approx(bench_bases["figure"], 6)

    def count_and_last():
        words = enumerate_words(approx, 18)
        return len(words), words[-1]
    (size, last), peak, _ = _traced(count_and_last)
    assert size == path_counts(approx, 18)[-1] == 2_551_913
    assert last == bytes((2, 0, 1, 0, 0, 0) * 3)
    assert peak < 1 << 20, peak

    stream, chunk = iter(enumerate_words(approx, 14)), 1 << 16

    def full_pass():
        words = enumerate_words(approx, 14)
        return [len(words)] + [
            words[i:i + chunk] == list(islice(stream, chunk))
            for i in range(0, len(words), chunk)]
    (size, *same), peak, _ = _traced(full_pass)
    assert size == path_counts(approx, 14)[-1] > chunk
    assert all(same) and next(stream, None) is None
    assert peak < 16 << 20, peak


READERS = {
    **PRESENTATIONS,
    "beta-two": lambda b: Automaton(b["two"]),
    "beta-tribonacci": lambda b: Automaton(b["tribonacci"]),
    "beta-one-seven": lambda b: Automaton(b["one_seven"]),
    "level-set": lambda b: _LevelSet(Automaton(b["golden"]),
                                     digit_frequency(1, 1), Fraction(3, 10),
                                     Fraction(1, 10), 40),
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
    with pytest.raises(UsageError, match=r"digits outside \{0\.\.1\}"):
        is_admissible((1, 1, 2), beta_golden)
    with pytest.raises(UsageError, match=r"digits outside \{0\.\.1\}"):
        is_admissible((1, 1, -1), beta_golden)
    # a digit that is not a number: once a TypeError from the comparison
    with pytest.raises(UsageError, match=r"digits outside \{0\.\.1\}"):
        is_admissible(("a",), beta_golden)
    assert is_admissible((1, 0, 1), beta_golden)
    assert not is_admissible((1, 1, 0), beta_golden)


class _CountingSteps:
    """A presentation that counts the step calls on each state of another."""

    def __init__(self, pres):
        self.initial, self.alphabet_bound = pres.initial, pres.alphabet_bound
        self.inner, self.calls = pres, Counter()

    def step(self, state, sym):
        self.calls[state] += 1
        return self.inner.step(state, sym)


def test_words_walk_never_steps_from_a_dead_state(beta_golden):
    """The level set leaves its dead ends to the counts: at n = 40 many
    product states have no path into the window, yet a walk over Words
    (a stream, slices and indices, read with a fresh edge cache) never
    calls step on one of them, since each subtree of count 0 is skipped
    also at rank 0."""
    pres = _CountingSteps(_LevelSet(Automaton(beta_golden),
                                    digit_frequency(1, 1), Fraction(1, 5),
                                    Fraction(1, 50), 40))
    words = enumerate_words(pres, 40)
    dead = {state for level in words._below
            for state, count in level.items() if count == 0}
    assert len(dead) > 100 and dead <= pres.calls.keys()
    words._edges_of.cache_clear()
    pres.calls.clear()
    size = len(words)
    assert size == 13_884_156
    head = list(islice(words, 5000))
    assert words[:5000] == head
    assert [words[size // 2]] == words[size // 2:size // 2 + 1]
    assert words[-3:] == [words[i] for i in range(size - 3, size)]
    assert words[10 ** 6:10 ** 6 + 50:7] == \
        [words[i] for i in range(10 ** 6, 10 ** 6 + 50, 7)]
    entered = dead & pres.calls.keys()
    assert pres.calls and not entered, len(entered)
