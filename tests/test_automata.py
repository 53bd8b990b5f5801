import copy
import random
from fractions import Fraction
from itertools import product

import pytest

from betalab.automata import (edges, enumerate_words, iter_words,
                              path_counts, read)
from betalab.beta_core import BetaNumber, greedy_expansion
from betalab.errors import AlphabetMismatch, BudgetExceeded
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
}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_path_count_equals_enumeration(bench_bases, name):
    """Counter, enumerator, word stream and reader agree with brute force
    over all words."""
    pres = PRESENTATIONS[name](bench_bases)
    counts = path_counts(pres, 6)
    symbols = range(pres.alphabet_bound + 1)
    for n in range(1, 7):
        words = enumerate_words(pres, n)
        assert len(words) == counts[n - 1]
        assert words == [w for w in product(symbols, repeat=n)
                         if read(pres, w) is not None]
        assert list(iter_words(pres, n)) == words


def test_iter_words_is_lazy(beta_golden):
    """Golden words of length 60 number F_62 > 4 * 10^12; the first three
    in lexicographic order come without walking the rest."""
    words = iter_words(Automaton(beta_golden), 60)
    assert [next(words) for _ in range(3)] == \
        [(0,) * 60, (0,) * 59 + (1,), (0,) * 58 + (1, 0)]
    assert list(iter_words(Automaton(beta_golden), 0)) == [()]


def test_enumeration_budget(beta_golden):
    auto = Automaton(beta_golden)
    assert len(enumerate_words(auto, 5, budget=13)) == 13
    with pytest.raises(BudgetExceeded):
        enumerate_words(auto, 5, budget=12)


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
