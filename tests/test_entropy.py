import json
import math
import random
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from betalab.entropy import (
    CylinderTree,
    MistakeFunction,
    SeparationInstance,
    bowen_entropy,
    box_dimension_estimate,
    cover_cost,
    cylinder_diameter_bounds,
    dimension_bounds,
    katok_entropy_estimate,
    max_separated,
    min_spanning,
    mistake_ball_contains,
    uniform_admissible_sampler,
)
from betalab.beta_core import BetaNumber
from betalab.errors import UsageError
from betalab.parry import markov_approx
from betalab.words import SymbolWord

PHI = (1 + math.sqrt(5)) / 2


# --- oracle helpers ---------------------------------------------------------

def oracle_bad_count(x, y, m):
    n = len(x)
    bad = 0
    for j in range(n):
        if any(x[i] != y[i] for i in range(j, min(j + m, n))):
            bad += 1
    return bad


def window_bad_count(x, y, window):
    """The count oracle_bad_count gives, read in one left-to-right scan: a
    disagreement at i, after the last one at i' (i' = -1 at the start),
    makes the min(window, i - i') positions j in (max(i', i - window), i]
    bad.  mistake_ball_contains budgets this scan."""
    bad, last = 0, -1
    for i, (a, b) in enumerate(zip(x, y)):
        if a != b:
            bad += min(window, i - last)
            last = i
    return bad


def pairwise_greedy_separated(words, threshold, m):
    """First fit: each word, in order, joins when it lies outside the ball
    of every word taken so far."""
    chosen = []
    for z in words:
        if all(oracle_bad_count(z, w, m) > threshold for w in chosen):
            chosen.append(z)
    return chosen


def pairwise_greedy_spanning(words, threshold, m):
    """The first ball of largest gain, until every word is covered."""
    k = len(words)
    balls = [{z for z in range(k)
              if oracle_bad_count(words[c], words[z], m) <= threshold}
             for c in range(k)]
    chosen, covered = [], set()
    while len(covered) < k:
        best = max(range(k), key=lambda c: len(balls[c] - covered))
        chosen.append(words[best])
        covered |= balls[best]
    return chosen


def oracle_max_separated(words, threshold, m):
    best = 0
    for size in range(len(words), 0, -1):
        for combo in combinations(range(len(words)), size):
            if all(oracle_bad_count(words[i], words[j], m) > threshold
                   for i, j in combinations(combo, 2)):
                return size
    return best


def oracle_spanning_witness(words, threshold, m):
    """The first cover of least size, trying every subset by size and then
    in the lexicographic order of its indices."""
    for size in range(1, len(words) + 1):
        for combo in combinations(range(len(words)), size):
            if all(any(oracle_bad_count(words[c], words[z], m) <= threshold
                       for c in combo) for z in range(len(words))):
                return [words[c] for c in combo]
    raise AssertionError("unreachable")


def oracle_min_spanning(words, threshold, m):
    return len(oracle_spanning_witness(words, threshold, m))


# --- mistake functions and balls ---------------------------------------------

def test_mistake_function_parse_and_values():
    assert MistakeFunction.parse("zero")(100) == 0
    assert MistakeFunction.parse("const:3")(5) == 3
    assert MistakeFunction.parse("log")(14) == 4
    with pytest.raises(UsageError):
        MistakeFunction.parse("cubic")


def test_log_mistake_function_is_the_integer_ceiling():
    """g(n) = ceil(log2 n) is the least e with 2^e >= n, decided on
    integers: a float log2 gives 49 at n = 2^49 + 1, and errs at every
    2^k + 1 from k = 49 on."""
    g = MistakeFunction.log2()
    assert [g(n) for n in range(-2, 2)] == [0, 0, 0, 0]
    for k in range(1, 301):
        for n in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            e = 0
            while 2 ** e < n:
                e += 1
            assert g(n) == e, n


def test_window_bad_count_matches_oracle():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10)
        m = rng.randint(1, 4)
        x = tuple(rng.randint(0, 1) for _ in range(n))
        y = tuple(rng.randint(0, 1) for _ in range(n))
        want = oracle_bad_count(x, y, m)
        assert window_bad_count(x, y, m) == want
        for limit in range(n + 2):
            assert mistake_ball_contains(
                x, y, MistakeFunction.constant(limit), window=m) == (
                    want <= limit)


def test_window_bad_count_length_mismatch():
    """The pairwise ball test refuses words of two lengths."""
    with pytest.raises(UsageError, match="^1 vs 2$"):
        mistake_ball_contains((1,), (1, 0), MistakeFunction.zero())


def _word_pairs(max_digit):
    """Two digit lists of one length in 0..40, digits up to max_digit."""
    def pair(n):
        digits = st.lists(st.integers(0, max_digit), min_size=n, max_size=n)
        return st.tuples(digits, digits)
    return st.integers(0, 40).flatmap(pair)


def _as_form(form, digits):
    return {"tuple": tuple, "bytes": bytes,
            "symbol": SymbolWord}[form](digits)


_FORMS = st.sampled_from(("tuple", "bytes", "symbol"))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_word_pairs(300), st.just(("tuple", "tuple"))),
                 st.tuples(_word_pairs(255), st.tuples(_FORMS, _FORMS))),
       st.integers(1, 5))
def test_window_bad_count_stops_at_the_budget(case, m):
    """The budgeted scan of mistake_ball_contains answers, at every budget
    0..n + 1, whether the oracle's count is within it; digits past a byte
    are read as tuples, the rest as any mix of word types."""
    (xd, yd), (fx, fy) = case
    x, y = _as_form(fx, xd), _as_form(fy, yd)
    want = oracle_bad_count(xd, yd, m)
    assert window_bad_count(x, y, m) == want
    for limit in range(len(xd) + 2):
        got = mistake_ball_contains(x, y, MistakeFunction.constant(limit),
                                    window=m)
        assert got == (want <= limit), limit


def test_mistake_ball_edge_is_g_of_n():
    """n = 9, window 2, g(9) = 4: disagreements at 1 and 3 make exactly
    g(9) bad positions, and a third at 4 makes g(9) + 1."""
    g = MistakeFunction.log2()
    x = (0,) * 9
    at = (0, 1, 0, 1, 0, 0, 0, 0, 0)
    over = (0, 1, 0, 1, 1, 0, 0, 0, 0)
    assert oracle_bad_count(x, at, 2) == g(9) == 4
    assert oracle_bad_count(x, over, 2) == g(9) + 1
    assert mistake_ball_contains(x, at, g, window=2)
    assert not mistake_ball_contains(x, over, g, window=2)
    for limit in range(11):
        gl = MistakeFunction.constant(limit)
        assert mistake_ball_contains(x, at, gl, window=2) == (limit >= 4)
        assert mistake_ball_contains(x, over, gl, window=2) == (limit >= 5)


def test_budget_does_not_skip_the_length_check():
    """The first digits already pass the budget, and the lengths still
    decide the error."""
    with pytest.raises(UsageError, match="^1 vs 2$"):
        mistake_ball_contains((1,), (0, 0), MistakeFunction.zero())
    with pytest.raises(UsageError, match="^2 vs 1$"):
        mistake_ball_contains((1, 1), (0,), MistakeFunction.zero())


def test_ball_counts_match_integer_masks():
    """The benchmark's check: for 20 seeded centres among the golden
    12-words, the ball count at window 2 equals the number of words whose
    integer-mask window bad count is at most g(12)."""
    n, m = 12, 2
    words = [w for w in product((0, 1), repeat=n)
             if all(not (a and b) for a, b in zip(w, w[1:]))]
    masks = [sum(d << p for p, d in enumerate(w)) for w in words]
    g = MistakeFunction.log2()
    rng = random.Random(12)
    for c in (rng.randrange(len(words)) for _ in range(20)):
        want = 0
        for mask in masks:
            d = masks[c] ^ mask
            spread = d | (d >> 1)
            want += bin(spread & ((1 << n) - 1)).count("1") <= g(n)
        assert sum(mistake_ball_contains(words[c], z, g, window=m)
                   for z in words) == want


def test_mistake_function_computes_each_value_once():
    calls = []

    def fn(n):
        calls.append(n)
        return n // 2

    g = MistakeFunction("half", fn)
    assert [g(n) for n in (4, 5, 4, 6, 5, 4)] == [2, 2, 2, 3, 2, 2]
    assert calls == [4, 5, 6]


def test_negative_mistake_function_raises_every_time():
    calls = []

    def fn(n):
        calls.append(n)
        return -1

    g = MistakeFunction("neg", fn)
    for _ in range(2):
        with pytest.raises(UsageError, match="mistake function neg went negative"):
            g(4)
    assert calls == [4, 4]


def test_parsed_mistake_functions_keep_their_values():
    """The values before the cache: zero, a constant and the least e with
    2^e >= n (0 for n <= 1), for n = -2 .. 2^10, read twice."""
    expected = {"log": lambda n: next(e for e in range(11) if 2 ** e >= n),
                "const:3": lambda n: 3, "zero": lambda n: 0}
    for spec, want in expected.items():
        g = MistakeFunction.parse(spec)
        for _ in range(2):
            assert [g(n) for n in range(-2, 2 ** 10 + 1)] == [
                want(n) for n in range(-2, 2 ** 10 + 1)], spec


def test_mistake_ball_identity_and_threshold():
    g1 = MistakeFunction.constant(1)
    assert mistake_ball_contains((1, 0, 1), (1, 0, 1), MistakeFunction.zero())
    assert mistake_ball_contains((1, 0, 1), (1, 1, 1), g1)
    assert not mistake_ball_contains((1, 0, 1), (0, 1, 1), g1)


# --- separated / spanning -----------------------------------------------------

def all_binary(n):
    return tuple(product((0, 1), repeat=n))


def test_hamming_instance_length_3():
    words = all_binary(3)
    zero = SeparationInstance(words, g=MistakeFunction.zero())
    assert max_separated(zero).size == 8
    # words are read as given, and a bytes copy of a word is the same word
    mixed = words + tuple(map(bytes, words))
    for g in (MistakeFunction.zero(), MistakeFunction.constant(1)):
        assert max_separated(SeparationInstance(mixed, g=g)).size == \
            max_separated(SeparationInstance(words, g=g)).size
    g1 = SeparationInstance(words, g=MistakeFunction.constant(1))
    assert max_separated(g1).size == 4
    assert min_spanning(g1).size == 2
    g2 = SeparationInstance(words, g=MistakeFunction.constant(2))
    assert max_separated(g2).size == 2
    # {000, 111} is a radius-1 cover
    span = min_spanning(g1)
    assert span.exact


def test_random_instances_match_oracle_and_lemmas():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(2, 6)
        k = rng.randint(2, 7)
        words = tuple({tuple(rng.randint(0, 1) for _ in range(n))
                       for _ in range(k)})
        m = rng.randint(1, 2)
        for gval in (0, 1, 2):
            g = MistakeFunction.constant(gval)
            inst = SeparationInstance(words, window=m, g=g)
            s = max_separated(inst)
            r = min_spanning(inst)
            assert s.exact and r.exact
            assert s.size == oracle_max_separated(words, gval, m)
            assert r.size == oracle_min_spanning(words, gval, m)
            # chain r <= s <= s(zero)
            s0 = max_separated(SeparationInstance(words, window=m,
                                                  g=MistakeFunction.zero()))
            assert r.size <= s.size <= s0.size
            # duality s(2g) <= r(g)
            s2g = max_separated(SeparationInstance(
                words, window=m, g=MistakeFunction.constant(2 * gval)))
            assert s2g.size <= r.size
            # every maximal separated witness also spans
            witness = s.witness
            for z in words:
                assert any(window_bad_count(z, w, m) <= gval
                           for w in witness)


def test_nonbinary_instances_match_oracle():
    rng = random.Random(29)
    for _ in range(60):
        b = rng.randint(2, 3)
        n = rng.randint(2, 5)
        words = tuple({tuple(rng.randint(0, b) for _ in range(n))
                       for _ in range(rng.randint(2, 7))})
        for m in (1, 2, 3):
            for gval in (0, 1, 2):
                inst = SeparationInstance(words, window=m,
                                          g=MistakeFunction.constant(gval))
                for i, j in product(range(len(words)), repeat=2):
                    assert (inst.ball(i) >> j & 1) == (oracle_bad_count(
                        words[i], words[j], m) <= gval)
                s = max_separated(inst)
                r = min_spanning(inst)
                assert s.exact and r.exact
                assert s.size == oracle_max_separated(words, gval, m)
                assert r.size == oracle_min_spanning(words, gval, m)


def _random_instances(seed, count):
    """Seeded word sets: k = 1 to 9 words (repeats kept) of length 0 to 9,
    digits up to 1, 2 or 255 (the widest a byte holds), windows 1-5 or
    above n, and g zero, const:c (c up to n + 1, so t >= n too) or log."""
    rng = random.Random(seed)
    for _ in range(count):
        n, k = rng.randint(0, 9), rng.randint(1, 9)
        b = rng.choice((1, 2, 255))
        words = [tuple(rng.randint(0, b) for _ in range(n))
                 for _ in range(k)]
        for _ in range(rng.randint(0, 2)):  # repeated words
            words.append(rng.choice(words))
        rng.shuffle(words)
        m = rng.choice((1, 2, 3, 4, 5, n + 1, n + 7, 10 ** 9))
        g = rng.choice((MistakeFunction.zero(), MistakeFunction.log2(),
                        MistakeFunction.constant(rng.randint(0, n + 1))))
        yield words, m, g


def _kernels(words, **kw):
    """One instance per kernel: as its shape picks, bit sliced, packed."""
    for sliced in (None, True, False):
        inst = SeparationInstance(words, **kw)
        if sliced is not None:
            inst.sliced = sliced
        yield inst


def test_ball_matches_oracle():
    """On either kernel, bit z >= start of ball(c, start) is set exactly
    when the oracle's bad count of words c and z is at most g(n), and
    cover_masks holds one ball per word."""
    for words, m, g in _random_instances(31, 400):
        t = g(len(words[0]))
        balls = [sum(1 << z for z, y in enumerate(words)
                     if oracle_bad_count(x, y, m) <= t) for x in words]
        for inst in _kernels(words, window=m, g=g):
            for c, want in enumerate(balls):
                for start in range(len(words)):
                    assert inst.ball(c, start) == want >> start << start, (
                        words, m, g.name, inst.sliced, c, start)
            assert inst.cover_masks == balls
    assert SeparationInstance([(3, 1)], g=MistakeFunction.zero()).ball(0) == 1


def test_greedy_witnesses_match_the_pairwise_greedy():
    """Past the exact budget the ball greedies answer, on either kernel,
    with the witnesses of a greedy that tests one pair at a time."""
    rng = random.Random(43)
    for words, m, g in _random_instances(47, 60):
        words = words + [tuple(rng.randint(0, 2) for _ in words[0])
                         for _ in range(22)]
        t = g(len(words[0]))
        if t == 0:
            continue  # the distinct words, checked elsewhere
        want_sep = pairwise_greedy_separated(words, t, m)
        want_span = pairwise_greedy_spanning(words, t, m)
        for inst in _kernels(words, window=m, g=g):
            sep, span = max_separated(inst), min_spanning(inst)
            assert not sep.exact and not span.exact
            assert sep.witness == list(map(bytes, want_sep))
            assert span.witness == list(map(bytes, want_span))


def test_a_huge_window_reads_as_window_n():
    """A look-ahead stops at position n, so on either kernel a window of
    10^9 gives the masks, counts and witnesses of window n, and answers at
    once."""
    rng = random.Random(53)
    for n, k in ((6, 12), (6, 40), (9, 30)):
        words = [tuple(rng.randint(0, 2) for _ in range(n))
                 for _ in range(k)]
        for g in (MistakeFunction.constant(2), MistakeFunction.log2()):
            for at_n, huge in zip(_kernels(words, window=n, g=g),
                                  _kernels(words, window=10 ** 9, g=g)):
                assert huge.cover_masks == at_n.cover_masks
                for search in (max_separated, min_spanning):
                    assert search(huge) == search(at_n)
    sampler = uniform_admissible_sampler(BetaNumber.from_decimal("2"))
    for method in ("separated", "spanning"):
        at_n, huge = (katok_entropy_estimate(
            sampler, MistakeFunction.log2(), 0.1, [6], window=m,
            method=method) for m in (6, 10 ** 9))
        assert huge == at_n


def test_the_kernel_follows_the_shape():
    """Many short words take the bit-sliced kernel; few long words or a
    large g(n) take the packed one.  Any digit a byte holds is sliced, and
    a digit past a byte is refused."""
    kept = list(product((0, 1), repeat=14))[1638:]  # Katok's kept 14-words
    for k, g, sliced in ((len(kept), MistakeFunction.log2(), True),
                         (100, MistakeFunction.log2(), True),
                         (100, MistakeFunction.constant(12), False),
                         (20, MistakeFunction.log2(), False)):
        assert SeparationInstance(kept[:k], g=g).sliced == sliced, (k, g.name)
    wide = [(d, 0) for d in range(256)] * 20
    assert SeparationInstance(wide, g=MistakeFunction.constant(1)).sliced
    with pytest.raises(UsageError, match="0..255"):
        SeparationInstance([(d, 0) for d in range(300)] * 20,
                           g=MistakeFunction.constant(1))


def test_each_kernel_builds_only_its_own_table():
    """A bit-sliced instance never packs a word into codes, and a packed
    one never builds the columns, whichever search runs."""
    kept = list(product((0, 1), repeat=14))[1638:]  # Katok's kept 14-words
    inst = SeparationInstance(kept, g=MistakeFunction.log2())
    assert inst.sliced
    max_separated(inst)
    min_spanning(inst)
    assert len(inst.cover_masks) == len(kept) == 14746
    assert "codes" not in vars(inst)
    rng = random.Random(61)
    for k in (10, 23):  # the exact searches, then the greedy ones
        words = [bytes(rng.getrandbits(1) for _ in range(200))
                 for _ in range(k)]
        inst = SeparationInstance(words, g=MistakeFunction.constant(50))
        assert not inst.sliced
        max_separated(inst)
        min_spanning(inst)
        assert len(inst.cover_masks) == k
        assert "columns" not in vars(inst)


def test_a_tuple_word_and_its_bytes_copy_are_one_word():
    """Words are read as bytes, so a tuple and its bytes copy are one
    word: one ball, and one entry among the distinct words."""
    words = [(0, 1, 2), b"\0\1\2", (2, 1, 0)]
    for g in (MistakeFunction.zero(), MistakeFunction.constant(1)):
        inst = SeparationInstance(words, g=g)
        assert inst.words == (b"\0\1\2", b"\0\1\2", b"\2\1\0")
        assert inst.ball(0) == inst.ball(1) == 0b011
        for search in (max_separated, min_spanning):
            assert search(inst).witness == [b"\0\1\2", b"\2\1\0"]


@pytest.mark.parametrize("n, g", [(10_000, MistakeFunction.constant(5000)),
                                  (100_000, MistakeFunction.log2())])
def test_few_long_words_answer_at_once(n, g):
    """20 words of length 10^4 at g = const:5000, or 10^5 at g = log, are
    a few hundred pair tests on the packed codes (the bit-sliced counter
    would take about n g(n) steps a ball); a window of 10^9 costs no more
    than window 1.  The answers match a first-fit scan by
    mistake_ball_contains."""
    rng = random.Random(59)
    words = [bytes(rng.getrandbits(1) for _ in range(n)) for _ in range(20)]
    words += words[:3]  # 23 words: past the exact budget, so greedy
    for m in (1, 10 ** 9):
        start = time.perf_counter()
        inst = SeparationInstance(words, window=m, g=g)
        sep, span = max_separated(inst), min_spanning(inst)
        assert time.perf_counter() - start < 5
        assert not inst.sliced
    chosen = []
    for z in words:
        if not any(mistake_ball_contains(w, z, g, window=m) for w in chosen):
            chosen.append(z)
    assert sep.witness == chosen
    assert len(span.witness) <= len(chosen)


def test_nonbinary_greedy_is_separated_and_maximal():
    words = tuple(product(range(4), repeat=3))  # 64 words > exact budget
    for m in (1, 2):
        res = max_separated(SeparationInstance(
            words, window=m, g=MistakeFunction.constant(1)))
        assert not res.exact and res.bound_direction == "lower"
        assert all(oracle_bad_count(x, y, m) > 1
                   for x, y in combinations(res.witness, 2))
        assert all(any(oracle_bad_count(z, w, m) <= 1 for w in res.witness)
                   for z in words)


def test_exact_search_at_every_word_length():
    """The search cost does not grow with the word length, so words longer
    than 12 digits are searched exactly too."""
    rng = random.Random(41)
    for _ in range(40):
        b, n = rng.randint(1, 2), rng.randint(13, 24)
        words = tuple({tuple(rng.randint(0, b) for _ in range(n))
                       for _ in range(rng.randint(2, 7))})
        m, gval = rng.randint(1, 2), rng.randint(1, 3)
        inst = SeparationInstance(words, window=m,
                                  g=MistakeFunction.constant(gval))
        s, r = max_separated(inst), min_spanning(inst)
        assert s.exact and r.exact
        assert s.size == oracle_max_separated(words, gval, m)
        assert r.size == oracle_min_spanning(words, gval, m)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2).flatmap(lambda b: st.lists(
           st.lists(st.integers(0, b), min_size=4, max_size=4).map(tuple),
           min_size=1, max_size=11)),
       st.integers(1, 2), st.integers(1, 3))
def test_spanning_witness_is_the_first_least_cover(words, m, gval):
    """The branch and bound answers with the cover that the exhaustive
    search by size meets first, repeated words included."""
    inst = SeparationInstance(words, window=m,
                              g=MistakeFunction.constant(gval))
    res = min_spanning(inst)
    assert res.exact and res.bound_direction == "exact"
    assert res.witness == list(map(bytes, oracle_spanning_witness(
        words, gval, m)))


def test_exact_spanning_prunes_the_subsets(monkeypatch):
    """All 32 binary words of length 5 at one mistake need 7 balls, a
    cover that trying the subsets by size meets only after the 1,149,016
    smaller ones; the branch and bound settles it in 100,000 nodes."""
    monkeypatch.setattr("betalab.entropy.EXACT_NODE_BUDGET", 100_000)
    inst = SeparationInstance(all_binary(5), g=MistakeFunction.constant(1),
                              exact=True)
    res = min_spanning(inst)
    assert res.exact and res.size == 7
    assert all(any(window_bad_count(z, w, 1) <= 1 for w in res.witness)
               for z in inst.words)


def test_zero_mistake_spanning_is_the_distinct_words():
    """With g = 0 a ball holds only its centre: the distinct words, in
    first-occurrence order, span exactly, however many there are."""
    words = all_binary(5)
    inst = SeparationInstance(words[::-1] + words, g=MistakeFunction.zero())
    res = min_spanning(inst)
    assert res.exact and res.bound_direction == "exact"
    assert res.size == 32 and res.witness == list(map(bytes, words[::-1]))


@pytest.mark.parametrize("window", [0, -1])
def test_instance_rejects_window_below_one(window):
    with pytest.raises(UsageError):
        SeparationInstance(((0, 1), (1, 0)), window=window)


def test_greedy_fallback_reports_direction():
    words = tuple(product((0, 1), repeat=5))  # 32 words > exact budget
    inst = SeparationInstance(words, g=MistakeFunction.constant(1))
    res = max_separated(inst)
    assert not res.exact and res.bound_direction == "lower"
    cover = min_spanning(inst)
    assert not cover.exact and cover.bound_direction == "upper"
    assert res.size <= 16  # Hamming bound A(5,2) would allow more; sanity only


# --- Katok estimates ----------------------------------------------------------

def test_katok_zero_mistakes_full_shift(beta_two):
    rep = katok_entropy_estimate(uniform_admissible_sampler(beta_two),
                                 MistakeFunction.zero(), 0.1, [8, 10])
    for row in rep["rows"]:
        assert abs(row["estimate_zero"] - math.log(2)) < 0.05
        assert row["difference"] == 0.0


@pytest.mark.parametrize("name, n_list, window", [
    ("two", [3, 4], 1), ("golden", [4, 5], 2)])
def test_katok_spanning_matches_the_oracle(bench_bases, name, n_list,
                                           window):
    """method="spanning": count_g is the smallest cover of the kept words
    (at most 20) by the brute-force oracle, and count_zero their number."""
    sampler = uniform_admissible_sampler(bench_bases[name])
    rep = katok_entropy_estimate(sampler, MistakeFunction.constant(1), 0.1,
                                 n_list, window=window, method="spanning")
    for n, row in zip(n_list, rep["rows"]):
        kept = sorted(sampler(n))[-row["kept_words"]:]
        assert len(kept) <= 20 and row["exact_g"] and row["exact_zero"]
        assert row["count_g"] == oracle_min_spanning(kept, 1, window)
        assert row["count_zero"] == len(kept)


@pytest.mark.parametrize("gamma,size,kept", [
    (0.1, 10, 9), (0.1, 30, 27), (0.1, 70, 63), (0.3, 10, 7)])
def test_katok_drops_whole_gamma_mass(gamma, size, kept):
    """A uniform sampler: a whole gamma * N of the words is dropped exactly."""
    def sampler(n):
        return [tuple(i >> b & 1 for b in range(n)) for i in range(size)]

    row = katok_entropy_estimate(sampler, MistakeFunction.zero(), gamma,
                                 [7])["rows"][0]
    assert row["kept_words"] == kept
    assert abs(row["kept_mass"] - kept / size) < 1e-12


def test_katok_single_word_sampler():
    rep = katok_entropy_estimate(lambda n: [(0,) * n],
                                 MistakeFunction.zero(), 0.5, [6])
    assert rep["rows"][0]["estimate_zero"] == 0.0


def test_katok_rejects_empty_sampler():
    with pytest.raises(UsageError, match="sampler produced nothing"):
        katok_entropy_estimate(lambda n: [], MistakeFunction.zero(), 0.1, [4])


def test_katok_rejects_empty_length_list(beta_two):
    with pytest.raises(UsageError):
        katok_entropy_estimate(uniform_admissible_sampler(beta_two),
                               MistakeFunction.zero(), 0.1, [])


def test_katok_bad_gamma(beta_two):
    with pytest.raises(UsageError):
        katok_entropy_estimate(uniform_admissible_sampler(beta_two),
                               MistakeFunction.zero(), 1.5, [4])


# --- cylinder trees and Bowen entropy ------------------------------------------

def single_stream(digits):
    """The tree of one digit stream: a chain of one-child dicts."""
    node = {}
    for d in reversed(digits):
        node = {d: node}
    return CylinderTree(node, max(digits))


def tree_json(tree):
    """The JSON text CylinderTree.from_json reads."""
    def conv(node):
        return {str(k): conv(v) for k, v in node.items()}
    return json.dumps({"alphabet_bound": tree.alphabet_bound,
                       "trie": conv(tree.root)})


def path_counts(tree):
    """Number of root paths of each length 0..depth, level by level."""
    paths = {id(tree.root): 1}
    counts = [1]
    for level in tree.levels[:-1]:
        nxt = {}
        for node in level:
            for child in node.values():
                nxt[id(child)] = nxt.get(id(child), 0) + paths[id(node)]
        paths = nxt
        counts.append(sum(paths.values()))
    return counts


def test_full_binary_tree_transition():
    tree = CylinderTree.full(1, 16)
    rep = bowen_entropy(tree)
    assert abs(rep.estimate - math.log(2)) < 0.01


def test_single_stream_entropy_zero():
    tree = single_stream((1, 0, 1, 0, 0, 1) * 3)
    assert bowen_entropy(tree).estimate < 0.01


def test_golden_subtree_transition(beta_golden):
    tree = CylinderTree.from_beta(beta_golden, 24)
    rep = bowen_entropy(tree)
    assert abs(rep.estimate - math.log(PHI)) < 0.02


def test_monotone_in_n(beta_golden):
    tree = CylinderTree.from_beta(beta_golden, 16)
    for s in (0.3, 0.48, 0.7):
        vals = [cover_cost(tree, s, N) for N in (1, 4, 8, 16)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_depth_too_shallow():
    tree = CylinderTree.full(1, 4)
    with pytest.raises(UsageError, match="N=10 exceeds usable depth"):
        cover_cost(tree, 0.5, 10)


def test_tree_json_round_trip(beta_golden):
    tree = CylinderTree.from_beta(beta_golden, 8)
    again = CylinderTree.from_json(tree_json(tree))
    assert again.root == tree.root
    assert again.alphabet_bound == tree.alphabet_bound


def test_leaf_counts_are_admissible_counts(beta_golden):
    from betalab.parry import count_admissible
    counts = path_counts(CylinderTree.from_beta(beta_golden, 10))
    for n in (3, 7, 10):
        assert counts[n] == count_admissible(beta_golden, n)


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven"])
def test_leaf_counts_on_bench_bases(bench_bases, name):
    from betalab.parry import count_admissible
    beta = bench_bases[name]
    counts = path_counts(CylinderTree.from_beta(beta, 12))
    assert counts[0] == 1 and len(counts) == 13
    for n in range(1, 13):
        assert counts[n] == count_admissible(beta, n)


def _distinct_nodes(tree):
    seen, stack = set(), [tree.root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.values())
    return len(seen)


def test_dag_has_one_node_per_state_and_level(beta_golden):
    for d in (0, 1, 16, 2000):
        assert _distinct_nodes(CylinderTree.full(1, d)) == d + 1
    assert _distinct_nodes(CylinderTree.from_beta(beta_golden, 24)) <= 2 * 25


def oracle_cover_cost(node, s, n_min, cap, d=0):
    here = math.exp(-s * d) if d >= n_min else math.inf
    if not node or d == cap:
        return here
    return min(here, sum(oracle_cover_cost(c, s, n_min, cap, d + 1)
                         for c in node.values()))


def test_cover_cost_matches_recursive_oracle(beta_golden):
    rng = random.Random(11)

    def ragged(d):  # a random trie whose branches end at different depths
        if d == 0 or rng.random() < 0.15:
            return {}
        return {k: ragged(d - 1) for k in range(3) if rng.random() < 0.6}

    trees = [CylinderTree.from_beta(beta_golden, 10),
             CylinderTree.full(2, 6),
             single_stream((1, 0, 2, 0, 1) * 2)]
    trees += [CylinderTree.from_json(tree_json(CylinderTree(ragged(7), 2)))
              for _ in range(20)]
    for tree in trees:
        for cap in range(1, tree.depth + 1):
            for n_min in range(1, cap + 1):
                for s in (0.0, 0.4, 1.1):
                    want = oracle_cover_cost(tree.root, s, n_min, cap)
                    assert math.isclose(cover_cost(tree, s, n_min, cap), want,
                                        rel_tol=1e-12)


def test_deep_cover_cost_does_not_underflow():
    tree = CylinderTree.full(1, 2000)
    assert abs(cover_cost(tree, 0.5, 1) - 2 * math.exp(-0.5)) < 1e-12


def test_deep_bowen_entropy(beta_two, beta_golden):
    for beta in (beta_two, beta_golden):
        rep = bowen_entropy(CylinderTree.from_beta(beta, 2000))
        assert rep.depth == 2000
        assert abs(rep.estimate - beta.log) < 1e-3


# --- diameters and dimensions ---------------------------------------------------

def test_cylinder_diameter_bounds_golden(beta_golden):
    lo, hi = cylinder_diameter_bounds(beta_golden, (0, 0, 1))
    # z_3 = 0 for the golden base, so both bounds equal phi^-3
    assert lo <= hi <= PHI ** -3 + 1e-12
    lo_w, hi_w = cylinder_diameter_bounds(beta_golden, beta_golden.digits(4))
    assert lo_w == hi_w  # exact at prefixes of the expansion of one


def test_cylinder_diameter_rejects_inadmissible(beta_golden):
    with pytest.raises(UsageError, match="is not admissible"):
        cylinder_diameter_bounds(beta_golden, (1, 1))


def test_dimension_bounds_sandwich(beta_golden):
    rep = dimension_bounds(math.log(PHI), beta_golden, 0.0)
    assert abs(rep["upper"] - 1.0) < 1e-9
    rep2 = dimension_bounds(0.3, beta_golden, 0.5)
    assert rep2["lower"] <= rep2["upper"]
    certified = dimension_bounds(0.3, beta_golden, 0.5,
                                 bounded_z_certificate=True)
    assert certified["lower"] == certified["upper"]
    for z_ratio in (1.0, 2.5):
        assert dimension_bounds(0.3, beta_golden, z_ratio) == {
            "lower": 0.0, "upper": 0.3 / beta_golden.log, "flag": "z-ratio>=1"}


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: MistakeFunction("neg", lambda n: -1)(4),
                 "mistake function neg went negative", id="mistake-negative"),
    pytest.param(lambda: mistake_ball_contains(
        (0, 1), (1, 0), MistakeFunction.zero(), window=0),
                 "window must be >= 1", id="bad-count-window-0"),
    pytest.param(lambda: SeparationInstance(()), "empty word set",
                 id="no-words"),
    # a misspelt method once ran the spanning search
    pytest.param(lambda: katok_entropy_estimate(
        uniform_admissible_sampler(BetaNumber.from_decimal("2")),
        MistakeFunction.zero(), 0.1, [4], method="seperated"),
                 "method must be separated or spanning: 'seperated'",
                 id="katok-unknown-method"),
    pytest.param(lambda: box_dimension_estimate(
        CylinderTree.full(1, 4), BetaNumber.from_decimal("2"), []),
                 "depth list must be nonempty", id="box-no-depths"),
    pytest.param(lambda: SeparationInstance(((0, 1), (1,))),
                 "all words must share one length", id="mixed-lengths"),
    pytest.param(lambda: SeparationInstance(((0, 1), (1, -1))),
                 "word digits must lie in 0..255", id="negative-digit"),
    pytest.param(lambda: SeparationInstance(((0, 1), (1, 256))),
                 "word digits must lie in 0..255", id="digit-256"),
    pytest.param(lambda: SeparationInstance((3, 3)),
                 "a word is a digit sequence, not an int", id="int-word"),
    pytest.param(lambda: dimension_bounds(-0.1, BetaNumber.from_decimal("2"),
                                          0.5),
                 "entropy and z ratio must be nonnegative",
                 id="negative-entropy"),
    pytest.param(lambda: dimension_bounds(0.5, BetaNumber.from_decimal("2"),
                                          -0.5),
                 "entropy and z ratio must be nonnegative",
                 id="negative-z-ratio"),
])
def test_entropy_refusals(call, message):
    """Bad library input is refused with a UsageError naming the fault."""
    with pytest.raises(UsageError, match=message):
        call()


def test_box_dimension_full_spaces(beta_two, beta_golden):
    assert abs(box_dimension_estimate(CylinderTree.full(1, 12), beta_two,
                                      [12])["estimate"] - 1.0) < 0.01
    tree = CylinderTree.from_beta(beta_golden, 20)
    assert abs(box_dimension_estimate(tree, beta_golden,
                                      [20])["estimate"] - 1.0) < 0.01


def test_box_dimension_markov_subtree(beta_golden):
    approx = markov_approx(beta_golden, 3)
    tree = CylinderTree.from_markov(approx, 24)
    rep = box_dimension_estimate(tree, beta_golden, [24])
    target = approx.entropy / beta_golden.log
    assert abs(rep["estimate"] - target) < 0.03


def test_box_dimension_grows_its_bracket():
    """Near 1 the cover cost is still >= 1 at s = 2: the bracket grows by
    half until it crosses, at log 2 / log 1.1 ~ 7.2725 for beta = 1.1, and
    past s = 64 (log 2 / log 1.001 ~ 693) it refuses."""
    tree = CylinderTree.full(1, 8)
    est = box_dimension_estimate(tree, BetaNumber.from_decimal("1.1"), [8])
    assert abs(est["estimate"] - math.log(2) / math.log(1.1)) < 1e-3
    with pytest.raises(UsageError, match="cover cost never drops below 1"):
        box_dimension_estimate(tree, BetaNumber.from_decimal("1.001"), [8])


def test_box_dimension_depth_guard(beta_golden):
    tree = CylinderTree.from_beta(beta_golden, 8)
    with pytest.raises(UsageError, match="depth 12 exceeds tree depth 8"):
        box_dimension_estimate(tree, beta_golden, [12])
