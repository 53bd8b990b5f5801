import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from betalab.automata import count, enumerate_words, read
from betalab.beta_core import BetaNumber
from betalab.errors import (
    AlphabetMismatch,
    DegenerateRoot,
    NotAdmissibleInput,
    NotFound,
    UsageError,
)
from betalab.observables import constant, digit_frequency
from betalab.parry import (
    Automaton,
    count_admissible,
    count_profile,
    enumerate_admissible,
    is_admissible,
    markov_approx,
    periodic_stream_admissible,
    periodic_witnesses,
    repair_word,
    z_values,
)
from betalab.words import SymbolWord


def oracle_admissible_golden(word):
    """Independent oracle: the golden shift forbids the factor 11."""
    return all(not (a == 1 and b == 1) for a, b in zip(word, word[1:]))


def oracle_admissible_lex(word, beta, horizon=64):
    """Independent oracle: every shifted suffix is lexicographically at most
    the quasi-greedy expansion of 1."""
    w = beta.digits(horizon)
    n = len(word)
    for k in range(n):
        suffix = tuple(word[k:])
        if suffix > w[:n - k]:
            return False
    return True


def test_admissible_golden_matches_forbidden_factor_oracle(beta_golden):
    for n in range(1, 11):
        for word in product((0, 1), repeat=n):
            assert is_admissible(word, beta_golden) == \
                oracle_admissible_golden(word)


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure"])
def test_graph_agrees_with_criterion(battery, name):
    """Exhaustive: the labelled-graph read against the lex oracle."""
    beta = battery[name]
    bound = beta.digit_bound
    for n in range(1, 6):
        for word in product(range(bound + 1), repeat=n):
            assert is_admissible(word, beta) == \
                oracle_admissible_lex(word, beta), word


def test_fresh_base_reads_in_canonical_states():
    """The periodic form is found while reading; states fold into it."""
    beta = BetaNumber.from_decimal("2")
    assert read(Automaton(beta), (1,) * 100) <= 2


def test_alphabet_mismatch(beta_golden):
    with pytest.raises(AlphabetMismatch):
        is_admissible((2, 0), beta_golden)


def test_counts_exact(beta_two, beta_golden):
    assert [count_admissible(beta_two, n) for n in (1, 5, 10)] == \
        [2, 32, 1024]
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    for n in (1, 5, 12, 20):
        assert count_admissible(beta_golden, n) == fib[n + 1]


def test_count_matches_enumeration(beta_figure):
    for n in (3, 5):
        words = enumerate_admissible(beta_figure, n)
        assert len(words) == count_admissible(beta_figure, n)
        assert len(set(words)) == len(words)
        assert all(is_admissible(w, beta_figure) for w in words)


def test_count_profile_rates_non_increasing(battery):
    for beta in battery.values():
        rows = count_profile(beta, 20)
        rates = [r for _, _, r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        assert abs(rates[-1] - beta.log) < 0.05


@pytest.mark.parametrize("n_max", [0, -1])
def test_count_profile_rejects_n_below_1(beta_two, n_max):
    """An empty profile once passed as a non-increasing one."""
    with pytest.raises(UsageError):
        count_profile(beta_two, n_max)


def test_z_values_golden(beta_golden):
    rep = z_values(beta_golden, 12)
    assert rep.z == [0, 1] * 6
    assert rep.max_z == 1
    assert rep.spec_flag


def test_z_values_two(beta_two):
    rep = z_values(beta_two, 10)
    assert rep.z == [0] * 10
    assert rep.spec_flag


def test_z_values_match_a_digit_scan(bench_bases):
    """z_n is the number of zeros of w(beta) from position n on before the
    next nonzero digit."""
    for beta in bench_bases.values():
        w = beta.digits(200)
        scan = [next(j for j in range(n - 1, len(w)) if w[j]) - (n - 1)
                for n in range(1, 41)]
        for n_max in range(1, 41):
            assert z_values(beta, n_max).z == scan[:n_max]


def test_repair_word(beta_golden):
    repaired = repair_word(SymbolWord((1, 0, 1), 1), beta_golden)
    assert repaired.digits == b"\x01\x00\x00"


def test_repair_rejects_inadmissible(beta_golden):
    with pytest.raises(NotAdmissibleInput):
        repair_word(SymbolWord((1, 1, 0), 1), beta_golden)


def test_repair_universal_concatenation(beta_golden, beta_figure):
    """Repaired prefixes accept every admissible continuation."""
    for beta, max_u, max_v in ((beta_golden, 7, 5), (beta_figure, 4, 3)):
        conts = [w for n in range(1, max_v + 1)
                 for w in enumerate_admissible(beta, n)]
        for n in range(1, max_u + 1):
            for u in enumerate_admissible(beta, n):
                ru = repair_word(SymbolWord(u, beta.digit_bound), beta)
                for v in conts:
                    assert is_admissible(ru.digits + v, beta), (u, v)


def test_markov_approx_inclusion(beta_golden, beta_figure):
    for beta in (beta_golden, beta_figure):
        approx = markov_approx(beta, 4)
        for n in range(1, 8):
            for w in approx.enumerate_words(n):
                assert is_admissible(w, beta)


def test_markov_approx_counts(beta_two):
    # truncating 111... at 2 gives the golden base
    approx = markov_approx(beta_two, 2)
    fib = [1, 1]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    for n in (3, 8):
        assert count(approx, n) == fib[n + 1]


class OracleMarkov:
    """Paths confined to the first m vertices of beta's graph, m the order
    without trailing zero labels, stepped on the labels w_1 .. w_m."""

    initial = 1

    def __init__(self, beta, order):
        labels = list(beta.digits(order))
        while labels and labels[-1] == 0:
            labels.pop()
        self.labels = tuple(labels)
        self.alphabet_bound = max(labels)

    def step(self, state, symbol):
        w = self.labels[state - 1]
        if symbol == w and state < len(self.labels):
            return state + 1
        if 0 <= symbol < w:
            return 1
        return None


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven"])
def test_markov_approx_is_the_confined_graph(bench_bases, name):
    """The graph of beta(n) has the words, read states and alphabet of the
    confined graph at orders 1-8 (an all-zero or (1) truncation has no
    beta(n))."""
    beta = bench_bases[name]
    for order in range(1, 9):
        try:
            approx = markov_approx(beta, order)
        except DegenerateRoot:
            continue
        oracle = OracleMarkov(beta, order)
        assert approx.alphabet_bound == oracle.alphabet_bound
        assert approx.effective_order == len(oracle.labels)
        for n in range(1, 9):
            assert approx.enumerate_words(n) == enumerate_words(oracle, n)
        for n in range(1, 6):
            for w in product(range(oracle.alphabet_bound + 1), repeat=n):
                assert read(approx, w) == read(oracle, w)


def test_periodic_stream_admissible(beta_golden):
    assert periodic_stream_admissible(beta_golden, (1, 0))
    assert periodic_stream_admissible(beta_golden, (0,))
    assert not periodic_stream_admissible(beta_golden, (1, 1))
    assert not periodic_stream_admissible(beta_golden, (1,))


def test_periodic_witnesses_golden(beta_golden):
    phi = digit_frequency(1, 1)
    lo_w, lo_v, hi_w, hi_v = periodic_witnesses(beta_golden, phi, 4)
    assert lo_v == 0.0
    assert hi_v == 0.5
    assert tuple(lo_w) == (0,)


def test_periodic_witnesses_degenerate(beta_golden):
    with pytest.raises(NotFound):
        periodic_witnesses(beta_golden, constant(1.0, 1), 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                max_size=12))
def test_prefix_closed(word):
    import betalab.beta_core as bc
    beta = bc.BetaNumber.from_polynomial([1, -1, -1])
    if is_admissible(tuple(word), beta):
        assert is_admissible(tuple(word[:-1]) or (0,), beta)


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lex_oracle_agreement(bench_bases, name, data):
    beta = bench_bases[name]
    word = tuple(data.draw(st.lists(
        st.integers(min_value=0, max_value=beta.digit_bound),
        min_size=1, max_size=10)))
    assert is_admissible(word, beta) == oracle_admissible_lex(word, beta)
