from itertools import product

import pytest

from betalab.automata import enumerate_words, iter_words, path_counts, read
from betalab.errors import BudgetExceeded
from betalab.exotic import build_nested
from betalab.parry import Automaton, markov_approx

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
