import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import compress, product
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from betalab.automata import enumerate_words, path_counts, read
from betalab.beta_core import (BetaNumber, _check_self_admissible_ep,
                               renewal_denominator)
from betalab.errors import BudgetExceeded, UsageError
from betalab.observables import constant, digit_frequency
from betalab.parry import (
    Automaton,
    _word_counts,
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
from betalab.words import SymbolWord, format_periodic


def oracle_admissible_golden(word):
    """Independent oracle: the golden shift forbids the factor 11."""
    return all(not (a == 1 and b == 1) for a, b in zip(word, word[1:]))


def oracle_admissible_lex(word, beta, horizon=None):
    """Independent oracle: every shifted suffix is lexicographically at most
    the quasi-greedy expansion of 1, read to horizon (default len(word))
    digits."""
    w = beta.digits(len(word) if horizon is None else horizon)
    n = len(word)
    for k in range(n):
        suffix = tuple(word[k:])
        if suffix > w[:n - k]:
            return False
    return True


def test_lex_oracle_reads_long_words(beta_golden):
    """The oracle reads w(beta) to the word's length: with 64 digits it
    once rejected (10)^40 on golden."""
    assert oracle_admissible_lex((1, 0) * 40, beta_golden)
    assert not oracle_admissible_lex((1, 0) * 40 + (1, 1), beta_golden)


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
    with pytest.raises(UsageError, match=r"digits outside \{0\.\.1\}"):
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


@pytest.fixture(scope="module")
def renewal_bases(bench_bases):
    """The bench bases, 21(01) and 1 + sqrt(3) with w = (21)^inf, and
    seeded random self-admissible eventually periodic bases that have a
    preperiod."""
    bases = {**bench_bases,
             "21(01)": BetaNumber.from_digit_string("21(01)"),
             "1+sqrt3": BetaNumber.from_polynomial([1, -2, -2])}
    rng = random.Random(20)
    while len(bases) < len(bench_bases) + 10:
        prefix = tuple(rng.choices(range(3), k=rng.randint(1, 3)))
        period = tuple(rng.choices(range(3), k=rng.randint(1, 3)))
        if (prefix[0] >= 1 and any(period)
                and _check_self_admissible_ep(prefix, period)):
            text = format_periodic(prefix, period)
            try:
                bases[text] = BetaNumber.from_digit_string(text)
            except UsageError as exc:
                assert "(1,0,0,...) gives beta = 1" in str(exc)
    return bases


def test_word_counts_equal_the_count_dp(renewal_bases):
    """Parry's renewal against the generic state DP on the labelled graph,
    up to n = 300, on bases with and without a periodic w(beta)."""
    for name, beta in renewal_bases.items():
        assert _word_counts(beta, 300) == \
            path_counts(Automaton(beta), 300), name
    forms = [beta.periodic_form() for beta in renewal_bases.values()]
    assert None in forms and any(form and form[0] for form in forms)


def test_word_counts_at_larger_n(bench_bases):
    """The direct renewal over w(beta)'s nonzero digits, on the bases
    whose w(beta) has no periodic form, against the state DP to n = 1000."""
    for name in ("three_halves", "one_seven"):
        beta = bench_bases[name]
        assert _word_counts(beta, 1000) == \
            path_counts(Automaton(beta), 1000), name
        assert beta.periodic_form() is None


def oracle_word_counts(beta, n_max):
    """`_word_counts` as it was before its -1 terms of D were summed
    without a product: one product for every nonzero term."""
    digits = beta.digits(n_max)
    prefix, period = beta.periodic_form() or (digits, ())
    neg_d = [-x for x in renewal_denominator(prefix, period)[1:]]
    q = len(period) or n_max + 1
    coef = [x for x in neg_d if x]
    c = [1]
    for n in range(1, n_max + 1):
        c.append((n < q) + sum(map(mul, coef, compress(reversed(c), neg_d))))
    return c[1:]


def test_word_counts_equal_the_multiply_every_term_renewal(renewal_bases):
    """Against the renewal that multiplies every term, up to n = 300: on
    the bench bases, on 5/2 and 1000.5, whose digits go above 1, and on
    preperiodic digit strings, whose D has -1, +1 and +-2 terms."""
    bases = {**renewal_bases,
             "5/2": BetaNumber.from_decimal("5/2"),
             "1000.5": BetaNumber.from_decimal("1000.5")}
    terms = set()
    for name, beta in bases.items():
        for n in (1, 2, 7, 300):
            assert _word_counts(beta, n) == oracle_word_counts(beta, n), \
                (name, n)
        terms.update(renewal_denominator(
            *(beta.periodic_form() or (beta.digits(300), ()))))
    assert {-1000, -2, -1, 1, 2} <= terms


def test_word_counts_equal_the_lex_criterion(renewal_bases):
    """Brute force: the words that pass the lex oracle, grown one digit at
    a time from the admissible words one shorter (the language is closed
    under prefixes), up to n = 12 or past 10,000 words."""
    for name, beta in renewal_bases.items():
        words, counts = [()], []
        while len(counts) < 12 and len(words) <= 10_000:
            words = [w + (d,) for w in words
                     for d in range(beta.digit_bound + 1)
                     if oracle_admissible_lex(w + (d,), beta)]
            counts.append(len(words))
        assert len(counts) >= 8, name
        assert _word_counts(beta, len(counts)) == counts, name


def test_word_counts_before_and_after_the_periodic_form():
    """(201001) read from its polynomial finds its periodic form at the
    sixth digit: counts to n = 5 from the first five digits then 0^inf
    equal those from the form."""
    beta = BetaNumber.from_polynomial([1, -2, 0, -1, 0, 0, -2])
    before = _word_counts(beta, 5)
    assert beta.periodic_form() is None
    beta.digits(6)
    assert beta.periodic_form() == ((), (2, 0, 1, 0, 0, 1))
    assert _word_counts(beta, 5) == before
    assert _word_counts(beta, 40) == \
        path_counts(Automaton(BetaNumber.from_digit_string("(201001)")), 40)


def test_enumerate_admissible_budget(beta_golden):
    """The 10^6-word budget is decided from the count, before enumerating:
    F_30 = 832,040 golden words of length 28 fit it, and the F_31 =
    1,346,269 of length 29 do not."""
    assert len(enumerate_admissible(beta_golden, 5)) == 13
    assert count_admissible(beta_golden, 28) == 832_040
    assert count_admissible(beta_golden, 29) == 1_346_269
    with pytest.raises(BudgetExceeded, match="more than 1000000 words"):
        enumerate_admissible(beta_golden, 29)


def test_budget_holds_every_length_the_count_allows(bench_bases):
    """Renyi's refusal never comes before the count's: on every base of
    the bench battery each length whose exact count is at most 10^6
    enumerates, with that many words, and the first length past it is
    refused; for beta = 2 those are n = 19 (2^19 words) and n = 20."""
    for name, beta in bench_bases.items():
        n = 1
        while (size := count_admissible(beta, n)) <= 10 ** 6:
            assert len(enumerate_admissible(beta, n)) == size, (name, n)
            n += 1
        with pytest.raises(BudgetExceeded, match="more than 1000000 words"):
            enumerate_admissible(beta, n)
        if name == "two":
            assert n == 20


@pytest.mark.parametrize("n_max", [0, -1])
def test_count_profile_rejects_n_below_1(beta_two, n_max):
    """An empty profile once passed as a non-increasing one."""
    with pytest.raises(UsageError):
        count_profile(beta_two, n_max)


def test_z_values_golden(beta_golden):
    rep = z_values(beta_golden, 12)
    assert rep.z == [0, 1] * 6
    assert rep.max_z == 1
    assert rep.gap == 1


def test_z_values_two(beta_two):
    rep = z_values(beta_two, 10)
    assert rep.z == [0] * 10
    assert rep.gap == 0
    with pytest.raises(UsageError, match="n_max"):
        z_values(beta_two, 0)


def _periodic_strings(seed, count):
    """Seeded self-admissible eventually periodic digit strings over
    {0, 1} or {0, 1, 2}, about half of them in a non-minimal form: a
    repeated period, or a preperiod that ends with a copy of the period."""
    rng = random.Random(seed)
    texts = set()
    while len(texts) < count:
        b = rng.randint(1, 2)
        prefix = tuple(rng.choices(range(b + 1), k=rng.randint(0, 2)))
        period = tuple(rng.choices(range(b + 1), k=rng.randint(1, 3)))
        if rng.random() < 0.5:
            if rng.random() < 0.5:
                period *= 2
            else:
                prefix += period
        if ((prefix + period)[0] >= 1 and any(period)
                and _check_self_admissible_ep(prefix, period)):
            texts.add(format_periodic(prefix, period))
    return sorted(texts)


def test_specification_gap_is_exact(battery):
    """Brute force with the lex oracle, on admissible words u, v of length
    L = p + q for w(beta)'s periodic form (p, q): u 0^gap v is admissible
    for every pair, and u 0^(gap-1) v fails for some pair.  On the
    battery, on bases given in a non-minimal form, and on seeded random
    eventually periodic strings."""
    digits = {"(10000000)": 7, "(200)": 2, "(201001)": 3, "21(01)": 2,
              "(1010)": 1, "(10)": 1, "(111)": 0, "1(11)": 0}
    want = {"two": 0, "golden": 1, "tribonacci": 1, "figure": 3, "3": 0,
            **digits}
    bases = {**battery, "3": BetaNumber.from_decimal("3")}
    for text in [*digits, *_periodic_strings(7, 16)]:
        bases[text] = BetaNumber.from_digit_string(text)
    for name, beta in bases.items():
        gap = z_values(beta, 8).gap
        assert gap == want.get(name, gap), name
        words = list(enumerate_admissible(beta, sum(map(
            len, beta.periodic_form()))))
        assert all(oracle_admissible_lex(u + bytes(gap) + v, beta)
                   for u in words for v in words), name
        if gap:
            assert not all(oracle_admissible_lex(u + bytes(gap - 1) + v, beta)
                           for u in words for v in words), name
    # on (201001) the 6-words need three zeros: two fail for 162 pairs
    figure = battery["figure"]
    words = enumerate_admissible(figure, 6)
    for k, failures in ((2, 162), (3, 0)):
        assert sum(not oracle_admissible_lex(u + bytes(k) + v, figure)
                   for u in words for v in words) == failures


def test_specification_gap_does_not_depend_on_the_window(bench_bases):
    """(10000000) has gap 7 at every window; a base whose w(beta) has no
    known periodic form leaves the gap undecided."""
    beta = BetaNumber.from_digit_string("(10000000)")
    assert [z_values(beta, n).gap for n in (4, 16, 64)] == [7, 7, 7]
    for name in ("three_halves", "one_seven"):
        rep = z_values(bench_bases[name], 32)
        assert rep.gap is None and rep.max_z >= 1


def test_specification_gap_walk_is_linear():
    """The gap walk keeps the zeros each vertex needs, so (1 0^2000), with
    2,001 vertices and gap 2,000, answers in under 0.1 s; stepping every
    vertex's zeros one at a time took about 0.6 s.  The base's build is
    not timed."""
    beta = BetaNumber.from_digit_string("(1" + "0" * 2000 + ")")
    started = time.perf_counter()
    gap = z_values(beta, 8).gap
    assert time.perf_counter() - started < 0.1
    assert gap == 2000


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
    for word in (SymbolWord((1, 0, 1)), (1, 0, 1), b"\x01\x00\x01"):
        repaired = repair_word(word, beta_golden)
        assert type(repaired) is bytes and repaired == b"\x01\x00\x00"


def test_repair_rejects_inadmissible(beta_golden):
    for word in (SymbolWord((1, 1, 0)), (1, 1, 0)):
        with pytest.raises(UsageError, match="word 110 is not admissible"):
            repair_word(word, beta_golden)


def test_repair_universal_concatenation(beta_golden, beta_figure):
    """Repaired prefixes accept every admissible continuation."""
    for beta, max_u, max_v in ((beta_golden, 7, 5), (beta_figure, 4, 3)):
        conts = [w for n in range(1, max_v + 1)
                 for w in enumerate_admissible(beta, n)]
        for n in range(1, max_u + 1):
            for u in enumerate_admissible(beta, n):
                ru = repair_word(u, beta)
                for v in conts:
                    assert is_admissible(ru + v, beta), (u, v)


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
        assert path_counts(approx, n)[-1] == fib[n + 1]


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
        except UsageError as exc:
            assert "truncation" in str(exc)
            continue
        oracle = OracleMarkov(beta, order)
        assert approx.alphabet_bound == oracle.alphabet_bound
        # w(beta(n)) = (w_1 .. w_m - 1)^inf, m the confined graph's order
        assert len(approx.approx_beta.periodic_form()[1]) == len(oracle.labels)
        for n in range(1, 9):
            assert approx.enumerate_words(n) == enumerate_words(oracle, n)
        for n in range(1, 6):
            for w in product(range(oracle.alphabet_bound + 1), repeat=n):
                assert read(approx, w) == read(oracle, w)


class PeriodicBase:
    """A stand-in base with w(beta) = period^inf, exposing what `Automaton`
    reads; a long period's polynomial is too costly to isolate a root of."""

    def __init__(self, period):
        self.period, self.digit_bound = period, max(period)

    def digit(self, i):
        return self.period[(i - 1) % len(self.period)]

    def periodic_form(self):
        return (), self.period


def test_periodic_stream_reads_until_a_state_repeats():
    """w = ((10)^300 00)^inf: (10)^inf fails at digit 601, past 256 copies
    of its period, while (100)^inf and 0^inf are admissible."""
    beta = PeriodicBase((1, 0) * 300 + (0, 0))
    assert not periodic_stream_admissible(beta, (1, 0))
    assert is_admissible((1, 0) * 300, beta)
    assert periodic_stream_admissible(beta, (1, 0, 0))
    assert periodic_stream_admissible(beta, (0,))


@pytest.mark.parametrize("literal", ["3/2", "1.7"])
def test_first_read_along_w_is_linear(literal):
    """w(beta) of a rational base is never periodic, so a read along it
    extends w(beta) one digit per state; the prefix comes from a second
    instance, so the read starts on a base that knows no digit.  When each
    new state copied every digit known so far, this read took about 10 s."""
    word = BetaNumber.from_decimal(literal).digits(50_000)
    beta = BetaNumber.from_decimal(literal)
    start = time.perf_counter()
    assert is_admissible(word, beta)
    assert time.perf_counter() - start < 3.0


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
    assert (lo_w, hi_w) == (b"\x00", b"\x00\x01")
    assert type(lo_w) is type(hi_w) is bytes


def test_periodic_witnesses_memory_does_not_grow_with_the_words(beta_golden):
    """Up to period 16 the search scans 6,762 golden words; it keeps only
    the running extremes, so its peak stays far below the 0.8 MiB that
    the list of every (average, word) pair took."""
    phi = digit_frequency(1, 1)
    periodic_witnesses(beta_golden, phi, 16)  # warm the base's digit cache
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        found = periodic_witnesses(beta_golden, phi, 16)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert found == (b"\x00", 0, b"\x00\x01", Fraction(1, 2))
    assert peak < 256 * 1024, peak


def test_periodic_witnesses_degenerate(beta_golden):
    with pytest.raises(UsageError, match="all periodic averages coincide"):
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


@settings(max_examples=40, deadline=None)
@given(prefix=st.lists(st.integers(min_value=0, max_value=2), max_size=3),
       period=st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                       max_size=3),
       data=st.data())
def test_lex_oracle_agreement_on_random_bases(prefix, period, data):
    """A random self-admissible eventually periodic w(beta) gives a base;
    the automaton agrees with the lex oracle on random words there."""
    prefix, period = tuple(prefix), tuple(period)
    assume((prefix + period)[0] >= 1 and any(period)
           and _check_self_admissible_ep(prefix, period))
    try:
        beta = BetaNumber.from_digit_string(format_periodic(prefix, period))
    except UsageError as exc:
        assert "(1,0,0,...) gives beta = 1" in str(exc)
        assume(False)
    for _ in range(10):
        word = tuple(data.draw(st.lists(
            st.integers(min_value=0, max_value=beta.digit_bound),
            min_size=1, max_size=16)))
        assert is_admissible(word, beta) == oracle_admissible_lex(word, beta)
