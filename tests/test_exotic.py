import math
import random
from itertools import product

import pytest

from betalab.automata import read
from betalab.errors import BudgetExceeded, UsageError
from betalab.exotic import (
    FORBIDDEN_LIST_BUDGET,
    FactorAutomaton,
    build_nested,
    nested_entropy_report,
    no_short_periodics,
    single_edit_repair,
)


def admissible(shift, word, level=None):
    """The nested shift's admissibility: one read of its level matcher."""
    return read(shift.automata[(level or shift.levels) - 1], word) is not None


def oracle_contains(word, patterns):
    return any(tuple(word[i:i + len(p)]) == tuple(p)
               for p in patterns for i in range(len(word) - len(p) + 1))


def oracle_occurrences(word, patterns):
    """Every (start, end, pattern) occurrence, by rescanning each pattern at
    every offset."""
    word = tuple(word)
    return [(i, i + len(p), p) for p in map(tuple, patterns)
            for i in range(len(word) - len(p) + 1) if word[i:i + len(p)] == p]


def test_factor_automaton_matches_oracle():
    patterns = [(1, 1, 1, 1), (0, 0, 0, 0), (0, 1, 0, 1, 0, 1)]
    auto = FactorAutomaton(patterns)
    for n in range(1, 10):
        for w in product((0, 1), repeat=n):
            assert (read(auto, w) is None) == oracle_contains(w, patterns)


@pytest.mark.parametrize("patterns", [
    [(1, 1, 1, 1), (0, 0, 0, 0), (0, 1, 0, 1, 0, 1)],
    [(0, 1, 1), (1, 1), (1, 0, 1), (0, 1)],  # suffixes and overlaps
    build_nested((4, 6)).automata[1].patterns,
])
def test_one_pass_queries_match_naive_scan(patterns):
    """occurrences, one scan of the matcher's table, agrees with rescanning
    every pattern at every offset, and its first entry is the earliest
    ending occurrence (of several ending there, the pattern listed first)."""
    auto = FactorAutomaton(patterns)
    for n in range(1, 12):
        for w in product((0, 1), repeat=n):
            naive = oracle_occurrences(w, patterns)
            found = auto.occurrences(w)
            assert set(found) == set(naive)
            assert len(found) == len(naive)
            first = sorted(naive, key=lambda o: (o[1], patterns.index(o[2])))
            assert found[:1] == first[:1]


@pytest.mark.parametrize("word", [(2, 2, 1, 1, 1, 1), (1, -1, 0), (0, 3)])
def test_occurrences_reject_digits_outside_the_alphabet(word):
    # a complete table over {0, 1} has no column for 2 and would read -1
    # as its 1-column
    with pytest.raises(UsageError, match=r"digits outside \{0, 1\}"):
        build_nested((4, 6)).automata[1].occurrences(word)


def test_single_edit_repair_rejects_digits_outside_the_alphabet():
    with pytest.raises(UsageError, match=r"digits outside \{0, 1\}"):
        single_edit_repair((2,) * 7, build_nested((4, 6)), 1)


def test_build_nested_level_1():
    shift = build_nested((4,))
    assert shift.forbidden_sets[0] == [(1, 1, 1, 1), (0, 0, 0, 0)]
    assert admissible(shift, (0, 1, 0, 1, 0, 1))
    assert not admissible(shift, (1, 1, 1, 1, 0))


def test_build_nested_level_2_forbidden_set():
    shift = build_nested((4, 6))
    powers = shift.forbidden_sets[1]
    assert len(powers) == 4  # all four length-2 words survive level 1
    assert (0, 1) * 6 in powers
    assert (1, 1) * 6 in powers


def test_admissible_refuses_symbols_off_the_alphabet():
    shift = build_nested((4, 6))
    assert not admissible(shift, (2,) * 7)
    assert not admissible(shift, (0, 1, 2))
    assert not admissible(shift, (0, 1, -1), level=1)


@pytest.mark.parametrize("N_seq", [(4, 6, 8), (3, 5, 9, 12)])
def test_level_words_match_product_and_filter(N_seq):
    """F_k lists, in lexicographic order, the N_k-th powers of the length-k
    binary words with no factor forbidden at levels below k."""
    shift = build_nested(N_seq)
    cumulative = [(1,) * N_seq[0], (0,) * N_seq[0]]
    assert shift.forbidden_sets[0] == cumulative
    for k in range(2, len(N_seq) + 1):
        F_k = [v * N_seq[k - 1] for v in product((0, 1), repeat=k)
               if not oracle_contains(v, cumulative)]
        assert shift.forbidden_sets[k - 1] == F_k
        cumulative = cumulative + F_k


def test_build_nested_input_guards():
    with pytest.raises(UsageError):
        build_nested((2,))
    with pytest.raises(UsageError):
        build_nested((6, 4))


@pytest.mark.parametrize("call", [
    pytest.param(lambda shift, k: no_short_periodics(shift, k),
                 id="periodics"),
    pytest.param(lambda shift, k: single_edit_repair((1,) * 5, shift, k),
                 id="repair"),
    pytest.param(lambda shift, k: nested_entropy_report(shift, k, 5),
                 id="entropy-report"),
    pytest.param(lambda shift, k: shift.enumerate(4, k), id="enumerate"),
])
@pytest.mark.parametrize("level", [0, 3])
def test_level_outside_the_shift_is_refused(call, level):
    """Level 0 once read the last level's matcher and answered vacuously
    (no rows, no drops); level 3 of two raised IndexError."""
    with pytest.raises(UsageError, match=rf"^level {level} outside 1\.\.2$"):
        call(build_nested((4, 6)), level)


def test_build_nested_past_the_forbidden_list_budget():
    """The four length-2 words, each to a power past an eighth of the
    budget, are more forbidden symbols than FORBIDDEN_LIST_BUDGET."""
    with pytest.raises(BudgetExceeded, match="forbidden lists exceed budget"):
        build_nested((3, FORBIDDEN_LIST_BUDGET // 8 + 1))


def test_nesting_chain_exhaustive():
    shift = build_nested((4, 6))
    for n in (6, 10, 14):
        level2 = set(shift.enumerate(n, 2))
        level1 = set(shift.enumerate(n, 1))
        assert level2 <= level1


def test_no_short_periodics_level_1():
    shift = build_nested((4,))
    rep = no_short_periodics(shift, 1)
    assert rep["all_excluded"]
    by_word = {r["period_word"]: r for r in rep["rows"]}
    assert by_word[(0,)]["breaking_factor"] == (0, 0, 0, 0)
    assert by_word[(1,)]["breaking_factor"] == (1, 1, 1, 1)


def test_no_short_periodics_level_2():
    shift = build_nested((4, 6))
    rep = no_short_periodics(shift, 2)
    assert rep["all_excluded"]
    assert len(rep["rows"]) == 2 + 4
    by_word = {r["period_word"]: r for r in rep["rows"]}
    assert by_word[(0, 1)]["breaking_factor"] == (0, 1) * 6


def test_single_edit_repair_constant_power():
    shift = build_nested((4, 6))
    rep = single_edit_repair((1, 1, 1, 1), shift, 1)
    assert rep["working_positions"] == 4
    assert admissible(shift, rep["repaired"], level=1)


def test_single_edit_repair_alternating_power():
    shift = build_nested((4, 6))
    rep = single_edit_repair((0, 1) * 6, shift, 2)
    assert rep["working_positions"] >= 12 * (1 - 2 / 4)
    assert rep["edit"] is not None


def test_single_edit_repair_abundance_on_all_powers():
    shift = build_nested((4, 6))
    for w in shift.forbidden_sets[0] + shift.forbidden_sets[1]:
        rep = single_edit_repair(w, shift, 2)
        assert rep["working_positions"] >= len(w) * (1 - 2 / 4), w


def oracle_working_positions(word, patterns):
    """Positions p whose edit 1 - word[p] leaves no occurrence over p and
    adds none, by rescanning every pattern after every edit."""
    before = set(oracle_occurrences(word, patterns))
    works = []
    for pos in range(len(word)):
        cand = word[:pos] + (1 - word[pos],) + word[pos + 1:]
        after = oracle_occurrences(cand, patterns)
        if set(after) <= before and not any(a <= pos < b for a, b, _ in after):
            works.append(pos)
    return works


@pytest.mark.parametrize("level", [1, 2, 3])
def test_single_edit_repair_matches_brute_force(level):
    """The working count and the first fix agree with the oracle on random
    binary words: short ones, and ones holding a forbidden power with a
    few digits around it and a few flipped, many of which have a position
    whose edit fails."""
    shift = build_nested((4, 6, 8))
    patterns = [p for f in shift.forbidden_sets[:level] for p in f]
    rng = random.Random(level)
    bits = lambda n: tuple(rng.randrange(2) for _ in range(n))
    failing = 0
    for _ in range(300):
        if rng.random() < 0.5:
            word = bits(rng.randrange(4, 17))
        else:
            word = list(bits(rng.randrange(4)) + rng.choice(patterns)
                        + bits(rng.randrange(4)))
            for _ in range(rng.randrange(3)):
                word[rng.randrange(len(word))] ^= 1
            word = tuple(word)
        rep = single_edit_repair(word, shift, level)
        if not oracle_occurrences(word, patterns):
            assert rep["already_admissible"]
            continue
        works = oracle_working_positions(word, patterns)
        assert rep["working_positions"] == len(works)
        pos, fixed = works[0], list(word)
        fixed[pos] = 1 - word[pos]
        assert rep["edit"] == (pos, fixed[pos])
        assert rep["repaired"] == tuple(fixed)
        failing += len(works) < len(word)
    assert failing > 0


@pytest.mark.parametrize("level", [1, 2, 3])
def test_no_short_periodics_horizon_is_exact(level):
    """Reading longest // p + 2 copies of v finds the same first breaking
    factor as a read of 4 * longest + 1 copies."""
    shift = build_nested((4, 6, 8))
    patterns = shift.automata[level - 1].patterns
    longest = max(map(len, patterns))
    rep = no_short_periodics(shift, level)
    assert rep["all_excluded"]
    for row in rep["rows"]:
        v = row["period_word"]
        occ = oracle_occurrences(v * (4 * longest + 1), patterns)
        first = min(occ, key=lambda o: (o[1], patterns.index(o[2])))
        assert row["breaking_factor"] == first[2]


def test_single_edit_repair_identity_on_admissible():
    shift = build_nested((4, 6))
    rep = single_edit_repair((0, 1, 0, 1), shift, 2)
    assert rep["already_admissible"]
    assert rep["repaired"] == (0, 1, 0, 1)


def test_counts_match_brute_force():
    shift = build_nested((4, 6))
    forbidden = [(1, 1, 1, 1), (0, 0, 0, 0)]
    for n in (8, 12):
        brute = sum(1 for w in product((0, 1), repeat=n)
                    if not oracle_contains(w, forbidden))
        assert shift.automata[0].count_words(n) == brute
        assert len(shift.enumerate(n, 1)) == brute


def test_entropy_report_level_0_is_log_2():
    shift = build_nested((4, 6))
    rep = nested_entropy_report(shift, 2, 14)
    assert rep["rates"][0] == math.log(2)
    assert rep["rates"][1] < rep["rates"][0]
    assert rep["rates"][2] <= rep["rates"][1]
    for drop in rep["drops"]:
        assert drop["within"], drop


def test_entropy_drop_decreases_with_larger_powers():
    drops = []
    for N2 in (6, 8, 12):
        shift = build_nested((4, N2))
        rep = nested_entropy_report(shift, 2, 14)
        drops.append(rep["drops"][1]["drop"])
    assert drops[0] >= drops[1] >= drops[2]


def test_entropy_positivity_proxy():
    shift = build_nested((4, 6))
    rep = nested_entropy_report(shift, 2, 14)
    slack = 0.05
    eps_sum = sum(math.log(2) / 2 ** (i + 1) for i in (1, 2))
    assert rep["rates"][2] >= math.log(2) - eps_sum - slack
