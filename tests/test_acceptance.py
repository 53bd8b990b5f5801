"""Acceptance suite: one test per criterion, pinned tolerances.

Criterion 6 checks the finite-n form of the mistake-insensitivity of the
Katok estimate: at n = 14 the g- and zero-mistake estimates differ by at
most (1/n) log of the mistake-ball volume, not by a fixed small tolerance.
README "Tests", "Criterion 6", gives the argument.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from betalab.beta_core import greedy_expansion, simple_beta_approx
from betalab.errors import UsageError
from betalab.entropy import (
    CylinderTree,
    MistakeFunction,
    SeparationInstance,
    bowen_entropy,
    box_dimension_estimate,
    cover_cost,
    katok_entropy_estimate,
    max_separated,
    min_spanning,
    uniform_admissible_sampler,
)
from betalab.irregular import (
    build_word_pools,
    construct_irregular_point,
    edp_ball_check,
    enumerate_glued_family,
    validate_schedule,
)
from betalab.exotic import (
    build_nested,
    no_short_periodics,
    single_edit_repair,
)
from betalab.observables import digit_frequency
from betalab.parry import count_admissible, is_admissible, markov_approx

PHI = (1 + math.sqrt(5)) / 2


def _fibonacci(k):
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def test_criterion_1_exact_counts(beta_two, beta_golden):
    start = time.monotonic()
    for n in range(1, 21):
        assert count_admissible(beta_two, n) == 2 ** n
    assert time.monotonic() - start < 1.0
    start = time.monotonic()
    for n in range(1, 31):
        assert count_admissible(beta_golden, n) == _fibonacci(n + 2)
    # brute-force cross-check to n = 16: the golden shift forbids 11
    for n in (8, 12, 16):
        brute = sum(1 for w in product((0, 1), repeat=n)
                    if all(a + b < 2 for a, b in zip(w, w[1:])))
        assert count_admissible(beta_golden, n) == brute
    assert time.monotonic() - start < 5.0


def test_criterion_2_entropy_convergence(battery):
    start = time.monotonic()
    for beta in battery.values():
        rates = [math.log(count_admissible(beta, n)) / n
                 for n in range(1, 41)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        assert abs(rates[-1] - beta.log) < 0.02
    assert time.monotonic() - start < 10.0


def test_criterion_3_parry_round_trip(battery):
    start = time.monotonic()
    n = 64
    rng = random.Random(2024)
    for beta in battery.values():
        b = beta.value
        for _ in range(50):
            x = Fraction(rng.randint(1, 9999), 10000)
            word = greedy_expansion(x, beta, n)
            assert is_admissible(word, beta)
            value = 0.0
            for j, d in enumerate(word, start=1):
                value += d * b ** -j
            assert abs(value - float(x)) < b ** -n + 1e-12
    assert time.monotonic() - start < 30.0


def test_criterion_4_markov_approximation(battery, beta_golden):
    start = time.monotonic()
    for beta in battery.values():
        w = beta.digits(30)
        nonzero = [i + 1 for i, d in enumerate(w) if d != 0]
        prev = 1.0
        values = []
        for n in [i for i in nonzero if i <= 12] + [30]:
            try:
                bn = simple_beta_approx(beta, n)
            except UsageError as exc:  # truncation (1): no base > 1
                assert "truncation (1)" in str(exc)
                continue
            assert bn.value <= beta.value + 1e-12
            values.append((n, bn.value))
        for (n1, v1), (n2, v2) in zip(values, values[1:]):
            assert v2 >= v1 - 1e-12, (n1, n2)
        assert beta.value - values[-1][1] < 1e-3
        # every word of the n-step approximation is base-admissible
        approx = markov_approx(beta, 4)
        for n in range(1, 11):
            for word in approx.enumerate_words(n):
                assert is_admissible(word, beta)
    assert time.monotonic() - start < 30.0
    # dimension identity for the 3-step approximation inside the golden base
    approx3 = markov_approx(beta_golden, 3)
    tree = CylinderTree.from_markov(approx3, 24)
    est = box_dimension_estimate(tree, beta_golden, [24])["estimate"]
    target = approx3.entropy / beta_golden.log
    assert abs(est - target) < 0.03


def _oracle_bad(x, y, m):
    n = len(x)
    return sum(1 for j in range(n)
               if any(x[i] != y[i] for i in range(j, min(j + m, n))))


def test_criterion_5_separation_lemmas():
    start = time.monotonic()
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(2, 10)
        k = rng.randint(2, 12)
        words = tuple({tuple(rng.randint(0, 1) for _ in range(n))
                       for _ in range(k)})
        m = rng.randint(1, 2)
        gval = rng.choice((0, 1, 2))
        g = MistakeFunction.constant(gval)
        s = max_separated(SeparationInstance(words, window=m, g=g))
        r = min_spanning(SeparationInstance(words, window=m, g=g))
        s_plain = max_separated(SeparationInstance(
            words, window=m, g=MistakeFunction.zero()))
        s_double = max_separated(SeparationInstance(
            words, window=m, g=MistakeFunction.constant(2 * gval)))
        assert s.exact and r.exact
        assert r.size <= s.size <= s_plain.size
        assert s_double.size <= r.size
    # the length-3 Hamming instance
    cube = tuple(product((0, 1), repeat=3))
    g1 = MistakeFunction.constant(1)
    g2 = MistakeFunction.constant(2)
    assert max_separated(SeparationInstance(cube, g=g1)).size == 4
    assert min_spanning(SeparationInstance(cube, g=g1)).size == 2
    assert max_separated(SeparationInstance(cube, g=g2)).size == 2
    assert time.monotonic() - start < 60.0


def _ball_volume(n, r):
    """Number of binary n-words within Hamming distance r of a fixed one."""
    return sum(math.comb(n, i) for i in range(r + 1))


def _mask(word):
    return sum(d << p for p, d in enumerate(word))


def test_criterion_6_katok_g_insensitivity(beta_two):
    """Finite-n mistake insensitivity of the Katok estimate at n = 14.

    With window 1 the bad count is the Hamming distance and g(14) = 4, so
    the g-separated set is a binary code of minimum distance 5.  A maximal
    one spans the kept set with radius-4 balls, which bounds the gap between
    the two estimates by (1/14) log V(14, 4); pigeonhole and sphere packing
    cap the code at 1024 and 154 words.  The volume bound first falls
    below 0.1 at n = 414.  See README "Tests", "Criterion 6".
    """
    n, gamma = 14, 0.1
    g = MistakeFunction.log2()
    start = time.monotonic()
    rep = katok_entropy_estimate(uniform_admissible_sampler(beta_two),
                                 g, gamma, [n])
    row = rep["rows"][0]
    assert time.monotonic() - start < 120.0
    assert abs(row["estimate_zero"] - math.log(2)) < 0.05
    # uniform weights: dropping the lightest words first removes the
    # floor(gamma 2^n) lexicographically smallest ones
    kept = list(product((0, 1), repeat=n))[int(gamma * 2 ** n):]
    assert row["kept_words"] == row["count_zero"] == len(kept) == 14746
    r = g(n)
    assert r == 4
    # a maximal separated set spans the kept set, so
    # count_zero <= count_g * V(n, r)
    gap = row["estimate_zero"] - row["estimate_g"]
    assert row["difference"] == gap
    assert 0.0 <= gap <= math.log(_ball_volume(n, r)) / n
    # words agreeing outside r positions are never separated, and
    # radius-2 balls around a distance-5 code are disjoint
    assert row["count_g"] <= 2 ** (n - r)
    assert row["count_g"] <= 2 ** n // _ball_volume(n, r // 2) == 154
    # the greedy witness behind the row: separated and maximal
    res = max_separated(SeparationInstance(tuple(kept), window=1, g=g))
    assert res.size == len(res.witness) == row["count_g"]
    assert row["exact_g"] is False and res.exact is False
    assert set(res.witness) <= set(kept)
    code = [_mask(w) for w in res.witness]
    assert all((a ^ b).bit_count() > r for a, b in combinations(code, 2))
    assert all(any((_mask(w) ^ c).bit_count() <= r for c in code)
               for w in kept)
    # the volume bound on the gap decays with n and falls below the old
    # agreement tolerance of 0.1 by n = 512
    rates = [math.log(_ball_volume(m, g(m))) / m for m in (14, 64, 256, 512)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 0.1


def test_criterion_7_irregular_construction(beta_golden):
    start = time.monotonic()
    phi = digit_frequency(1, 1)
    schedule = validate_schedule((20, 30, 40), (10, 100, 2500),
                                 (0.1, 0.05, 0.02))
    assert schedule.times[-1] >= 10 ** 5
    pools = build_word_pools(beta_golden, phi, (0.5, 0.0), schedule)
    report = construct_irregular_point(beta_golden, phi, (0.5, 0.0),
                                       schedule, pools, seed=7)
    point = report["point"]
    # (a) admissible at every length (a single automaton pass certifies all
    # prefixes; spot-check explicit prefixes too)
    assert is_admissible(point.digits, beta_golden)
    for cut in (1, 17, 200, 3200, len(point.digits)):
        assert is_admissible(point.digits[:cut], beta_golden)
    # (b) at most one edit per block
    assert all(pos is None or isinstance(pos, int)
               for _, _, pos in point.ledger)
    assert point.edits <= sum(schedule.multiplicities)
    # (c) averages within ledger bounds, consecutive averages split by 1/4
    rows = report["rows"]
    assert all(r["within_bound"] for r in rows)
    averages = [r["average"] for r in rows]
    assert all(abs(a - b) >= 0.25 for a, b in zip(averages, averages[1:]))
    # (d) enumerable family: exact product count, pairwise distinct
    fam_schedule = validate_schedule((20, 30), (2, 2), (0.1, 0.05))
    # level-2 pool words need pairwise Hamming > 2 so that the one-symbol
    # repair cannot collapse two selections onto the same glued word
    fam_pools = [pools[0].words[:3],
                 ((0,) * 30, (1, 0, 1, 0, 1, 0) + (0,) * 24)]
    family = enumerate_glued_family(beta_golden, fam_schedule, fam_pools)
    assert family["count"] == 3 ** 2 * 2 ** 2
    assert family["pairwise_distinct"]
    # (e) sampled ball measures within the counting bound
    member = family["family"][0]
    t1 = fam_schedule.times[0]
    check = edp_ball_check(family["family"], fam_schedule, [3, 2],
                           [(member, t1), (member, t1 + 30),
                            (member, fam_schedule.times[-1]), (member, 0)])
    assert check["all_pass"]
    assert time.monotonic() - start < 300.0


def test_criterion_8_exotic_shift():
    start = time.monotonic()
    shift = build_nested((4, 6))
    assert no_short_periodics(shift, 2)["all_excluded"]
    for level, powers in ((1, shift.forbidden_sets[0]),
                          (2, shift.forbidden_sets[1])):
        for w in powers:
            rep = single_edit_repair(w, shift, 2)
            assert rep["working_positions"] >= len(w) * (1 - 2 / 4)
    brute = sum(1 for w in product((0, 1), repeat=12)
                if all(w[i:i + 4] not in ((1, 1, 1, 1), (0, 0, 0, 0))
                       for i in range(9)))
    assert shift.automata[0].count_words(12) == brute
    assert time.monotonic() - start < 60.0


def test_criterion_9_bowen_entropy(beta_golden):
    start = time.monotonic()
    full = CylinderTree.full(1, 16)
    rep_full = bowen_entropy(full)
    assert abs(rep_full.estimate - math.log(2)) < 0.01
    golden = CylinderTree.from_beta(beta_golden, 24)
    rep_golden = bowen_entropy(golden)
    assert abs(rep_golden.estimate - math.log(PHI)) < 0.02
    for tree, est in ((full, rep_full.estimate),
                      (golden, rep_golden.estimate)):
        for s in (max(est - 0.1, 0.0), est, est + 0.1):
            grid = [cover_cost(tree, s, N)
                    for N in (1, tree.depth // 2, tree.depth)]
            assert all(a <= b + 1e-12 for a, b in zip(grid, grid[1:]))
    assert time.monotonic() - start < 60.0
