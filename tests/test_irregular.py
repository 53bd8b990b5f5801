import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from betalab import automata
from betalab.beta_core import BetaNumber
from betalab.errors import BudgetExceeded, UsageError
from betalab.irregular import (
    GluedPoint,
    _LevelSet,
    build_word_pools,
    construct_irregular_point,
    edp_ball_check,
    enumerate_glued_family,
    glue_blocks,
    oscillation_bound,
    rho,
    validate_schedule,
)
from betalab.observables import (Observable, block_indicator, digit_frequency,
                                 parse_observable)
from betalab.parry import (
    Automaton,
    enumerate_admissible,
    is_admissible,
)
from betalab.words import SymbolWord
from test_parry import oracle_admissible_lex


def small_schedule():
    return validate_schedule((20, 30, 40), (10, 100, 2500),
                             (0.1, 0.05, 0.02))


def test_rho_alternation():
    assert [rho(k) for k in (1, 2, 3, 4)] == [1, 2, 1, 2]


def test_schedule_times_and_certificates():
    sch = small_schedule()
    assert sch.times == (200, 3200, 103200)
    assert len(sch.certificates) == 2
    assert sch.certificates[0] > sch.certificates[1]


def test_schedule_single_level_trivially_valid():
    sch = validate_schedule((8,), (4,), (0.1,))
    assert sch.times == (32,)
    assert sch.certificates == ()


def test_schedule_rejects_constant_multiplicities():
    with pytest.raises(UsageError, match="fails to decrease at level 2"):
        validate_schedule((20, 30, 40), (1, 1, 1), (0.1, 0.05, 0.02))


def test_schedule_rejects_non_monotone_inputs():
    with pytest.raises(UsageError, match="lengths must strictly increase"):
        validate_schedule((20, 20), (4, 8), (0.1, 0.05))
    with pytest.raises(UsageError, match="tolerances must be positive"):
        validate_schedule((20, 30), (4, 8), (0.05, 0.1))
    with pytest.raises(UsageError, match="multiplicities must be >= 1"):
        validate_schedule((20, 30), (4, 0), (0.1, 0.05))


# --- pools -------------------------------------------------------------------

def test_pools_golden_both_targets(beta_golden):
    sch = validate_schedule((24, 25), (2, 4), (0.1, 0.05))
    pools = build_word_pools(beta_golden, digit_frequency(1, 1),
                             (0.5, 0.0), sch)
    assert pools[0].target == 0.5 and pools[0].size > 0
    assert pools[1].target == 0.0 and pools[1].size > 0
    for pool, tolerance in zip(pools, sch.tolerances):
        lo, hi = pool.achieved
        assert abs(lo - pool.target) < tolerance + 1e-12
        assert abs(hi - pool.target) < tolerance + 1e-12


def test_pools_pairwise_separated(beta_golden):
    sch = validate_schedule((24,), (2,), (0.1,))
    pool = build_word_pools(beta_golden, digit_frequency(1, 1),
                            (0.5, 0.0), sch)[0]
    for i, a in enumerate(pool.words):
        for b in pool.words[i + 1:]:
            assert sum(x != y for x, y in zip(a, b)) > 2


def test_pools_unreachable_target(beta_golden):
    sch = validate_schedule((24,), (2,), (0.1,))
    with pytest.raises(UsageError, match="word within 0.1 of 0.9 at level 1"):
        build_word_pools(beta_golden, digit_frequency(1, 1), (0.9, 0.0), sch)
    with pytest.raises(UsageError, match="exactly two targets"):
        build_word_pools(beta_golden, digit_frequency(1, 1), (0.5, 0.0, 0.5),
                         sch)


def test_pools_full_shift_contains_zero_word(beta_two):
    sch = validate_schedule((8,), (2,), (0.05,))
    pool = build_word_pools(beta_two, digit_frequency(1, 1), (0.0, 1.0),
                            sch)[0]
    assert bytes(8) in pool.words


def oracle_thin(words, cap=64, threshold=2):
    kept = []
    for w in words:
        if all(sum(a != b for a, b in zip(w, v)) > threshold for v in kept):
            kept.append(w)
        if len(kept) >= cap:
            break
    return kept


def oracle_table(spec, bound):
    """The exact table of an observable, written here in Fractions: the
    digit-1 frequency, the indicator of 101, or the non-dyadic range-2
    table 0.1a + 0.7b + 0.3ab."""
    if spec == "freq:1":
        return 1, {(d,): Fraction(d == 1) for d in range(bound + 1)}
    if spec == "block:101":
        return 3, {b: Fraction(b == (1, 0, 1))
                   for b in product(range(bound + 1), repeat=3)}
    return 2, {(a, b): Fraction(a, 10) + Fraction(7 * b, 10)
               + Fraction(3 * a * b, 10)
               for a, b in product(range(bound + 1), repeat=2)}


def oracle_average(word, r, table):
    """Exact Birkhoff average of a range-r table over word's windows."""
    windows = zip(*(word[i:] for i in range(r)))
    return sum(map(table.__getitem__, windows)) / (len(word) - r + 1)


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven"])
@pytest.mark.parametrize("spec", ["freq:1", "block:101", "mix"])
def test_level_set_equals_enumerate_then_filter(bench_bases, name, spec):
    """The level set's lexicographic stream is the full enumeration
    filtered by the strict window |A - alpha| < delta, decided on Fraction
    averages; so are the pools.  For the non-dyadic table, alpha is a word's
    own average and delta the distance to another word's, so words sit on
    the window's edge."""
    beta = bench_bases[name]
    r, table = oracle_table(spec, beta.digit_bound)
    phi = Observable(spec, r, table) if spec == "mix" else \
        parse_observable(spec, beta.digit_bound)
    for n in (6, 9, 12):
        words = enumerate_admissible(beta, n)
        averages = [oracle_average(w, r, table) for w in words]
        windows = [(Fraction(1, 2), Fraction(1, 10)),
                   (Fraction(1, 4), Fraction(1, 20)),
                   (Fraction(1, 10), Fraction(1, 50)),
                   (Fraction(0), Fraction(3, 10))]
        if spec == "mix":
            edge = sorted(set(averages))
            k = len(edge)
            windows = [(edge[i], abs(edge[j] - edge[i])) for i, j in
                       ((0, k // 4), (k // 3, k // 2), (k - 1, 2 * k // 3))
                       if i != j]
        for alpha, delta in windows:
            inside = {a for a in set(averages) if abs(a - alpha) < delta}
            accepted = [w for w, a in zip(words, averages) if a in inside]
            level_set = _LevelSet(Automaton(beta), phi, alpha, delta, n)
            assert list(automata.enumerate_words(level_set, n)) == accepted
            sch = validate_schedule((n,), (1,), (delta,))
            if accepted:
                pool = build_word_pools(beta, phi, (alpha, 0), sch)[0]
                assert list(pool.words) == oracle_thin(accepted)
            else:
                with pytest.raises(UsageError, match="no admissible length-"):
                    build_word_pools(beta, phi, (alpha, 0), sch)


@pytest.mark.parametrize("n", [40, 200, 400])
def test_level_set_counts_closed_form(beta_golden, n):
    """Golden words of length n with k ones: C(n - k + 1, k).  At n = 200
    and 400 the words with |k/n - 0.2| = 0.02 sit on the window's edge,
    outside the strict window."""
    alpha, delta = Fraction(1, 5), Fraction(1, 50)
    level_set = _LevelSet(Automaton(beta_golden), digit_frequency(1, 1),
                          alpha, delta, n)
    window = [k for k in range(n + 1) if abs(Fraction(k, n) - alpha) < delta]
    assert automata.count(level_set, n) == \
        sum(math.comb(n - k + 1, k) for k in window)
    if n == 40:
        assert automata.count(level_set, n) == 13_884_156


def test_empty_level_set_raises_fast(beta_golden):
    phi = digit_frequency(1, 1)
    start = time.monotonic()
    for alpha in (0.51, 0.49):  # outside the witness range; no k/40 inside
        level_set = _LevelSet(Automaton(beta_golden), phi, Fraction(alpha),
                              Fraction(1, 200), 40)
        assert list(automata.enumerate_words(level_set, 40)) == []
        with pytest.raises(UsageError, match=f"of {alpha} at level 1"):
            build_word_pools(beta_golden, phi, (alpha, 0.0),
                             validate_schedule((40,), (1,), (0.005,)))
    assert time.monotonic() - start < 1.0


def test_window_edge_is_outside_the_pools(beta_golden):
    """Regression: words with |A - alpha| = delta once entered the pools,
    because the window was decided in floats, where these hold."""
    assert abs(0.4 - 0.5) < 0.1 and abs(0.15 - 0.1) < 0.05
    freq = digit_frequency(1, 1)
    # criterion 7, level 1: 62 of the 64 float-window words had 8 ones
    pools = build_word_pools(beta_golden, freq, (0.5, 0.0), small_schedule())
    assert [p.size for p in pools] == [64, 1, 11]
    assert {Fraction(sum(w), 20) for w in pools[0].words} == {Fraction(9, 20)}
    # pools --beta 3/2, level 2: 40 of the 50 float-window words had 3 ones
    sch = validate_schedule((16, 20, 24), (10, 40, 400), (0.1, 0.05, 0.02))
    pool = build_word_pools(BetaNumber.from_decimal("3/2"), freq, (0.3, 0.1),
                            sch)[1]
    assert pool.size == 10
    assert pool.achieved == (Fraction(1, 10), Fraction(1, 10))


def test_criterion_7_level_3_pool_is_thinned_level_set(beta_golden):
    """At n = 40 within 0.02 of 1/2 the golden words have exactly 20 ones:
    19 separating zeros plus one spare zero in one of 21 slots."""
    sch = validate_schedule((20, 30, 40), (10, 100, 2500), (0.1, 0.05, 0.02))
    pools = build_word_pools(beta_golden, digit_frequency(1, 1), (0.5, 0.0),
                             sch)
    level_set = sorted(
        bytes(tuple(d for i in range(20) for d in ((0,) if i == slot else ())
                    + ((0,) if i else ()) + (1,))
              + ((0,) if slot == 20 else ()))
        for slot in range(21))
    assert len(set(level_set)) == 21
    assert all(sum(w) == 20 and is_admissible(w, beta_golden)
               for w in level_set)
    assert list(pools[2].words) == oracle_thin(level_set)
    assert [p.size for p in pools] == [64, 1, 11]


def test_pools_at_n_400(beta_golden):
    start = time.monotonic()
    phi = digit_frequency(1, 1)
    pool = build_word_pools(beta_golden, phi, (0.276, 0.0),
                            validate_schedule((400,), (1,), (0.01,)))[0]
    assert time.monotonic() - start < 10.0
    assert pool.size == 64
    # the lexicographically least word with 107 ones comes first
    assert pool.words[0] == bytes(187) + b"\x01\x00" * 106 + b"\x01"
    assert list(pool.words) == sorted(set(pool.words))
    for i, w in enumerate(pool.words):
        assert is_admissible(w, beta_golden)
        assert abs(phi.average_on_word(w) - 0.276) < 0.01
        assert all(sum(a != b for a, b in zip(w, v)) > 2
                   for v in pool.words[:i])


# --- gluing ------------------------------------------------------------------

def test_glue_full_shift_is_plain_concatenation(beta_two):
    sch = validate_schedule((4, 6), (2, 4), (0.1, 0.05))
    blocks = [[(1, 1, 1, 1), (1, 0, 1, 1)], [(1,) * 6] * 4]
    point = glue_blocks(beta_two, sch, blocks)
    assert point.edits == 0
    flat = bytes(d for lvl in blocks for w in lvl for d in w)
    assert point.digits == flat


def test_glue_golden_repairs_nonterminal_blocks(beta_golden):
    sch = validate_schedule((24,), (2,), (0.1,))
    point = glue_blocks(beta_golden, sch, [[(1, 0) * 12, (0,) * 24]])
    level, slot, pos = point.ledger[0]
    assert pos == 22  # the last 1 of (10)^12 was zeroed
    assert point.ledger[1][2] is None  # all-zero terminal block untouched
    assert is_admissible(point.digits, beta_golden)


def test_glue_per_block_edit_budget(beta_golden):
    rng = random.Random(3)
    sch = validate_schedule((6, 8), (3, 5), (0.4, 0.2))
    from betalab.parry import enumerate_admissible
    pool6 = enumerate_admissible(beta_golden, 6)
    pool8 = enumerate_admissible(beta_golden, 8)
    for _ in range(25):
        sel = [[rng.choice(pool6) for _ in range(3)],
               [rng.choice(pool8) for _ in range(5)]]
        point = glue_blocks(beta_golden, sch, sel)
        assert is_admissible(point.digits, beta_golden)
        # every block differs from its selection in at most one position
        assert all(pos is None or isinstance(pos, int)
                   for _, _, pos in point.ledger)
        assert point.edits <= 3 + 5


def test_glue_on_base_without_periodic_form():
    """w(3/2) is not eventually periodic; its zeros still force repair."""
    beta = BetaNumber.from_decimal("3/2")
    sch = validate_schedule((4,), (2,), (0.1,))
    point = glue_blocks(beta, sch, [[(1, 0, 0, 1), (1, 0, 0, 1)]])
    assert point.digits == bytes((1, 0, 0, 0, 1, 0, 0, 1))
    assert is_admissible(point.digits, beta)


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven", "(21)"])
def test_glued_points_pass_the_lex_oracle(bench_bases, name):
    """The repair rule on every base: random admissible selections glue to
    admissible points, and only integer bases glue with no edits.  For
    (21) = w(1 + sqrt 3), whose w(beta) has no zero, 12 and 212 are
    admissible but 12212 is not, so its blocks need the repair too."""
    beta = bench_bases.get(name) or BetaNumber.from_digit_string(name)
    integer = name == "two"
    rng = random.Random(5)
    sch = validate_schedule((5, 7), (3, 4), (0.4, 0.2))
    words = [enumerate_admissible(beta, n) for n in sch.block_lengths]
    for _ in range(40):
        sel = [[rng.choice(pool) for _ in range(N)]
               for pool, N in zip(words, sch.multiplicities)]
        point = glue_blocks(beta, sch, sel)
        assert oracle_admissible_lex(point.digits, beta,
                                     horizon=len(point.digits))
        # a repair edits each nonterminal block with a nonzero digit
        nonterminal = [w for lvl in sel for w in lvl][:-1]
        assert point.edits == (0 if integer else sum(map(any, nonterminal)))


def test_glue_rejects_inadmissible_selection(beta_golden):
    sch = validate_schedule((4,), (1,), (0.5,))
    with pytest.raises(UsageError, match="selection at level 1 slot 0"):
        glue_blocks(beta_golden, sch, [[(1, 1, 0, 0)]])


def _ball_longer_than_the_words(beta):
    sch, _, fam = family_fixture(beta)  # words of length 20
    return edp_ball_check(fam["family"], sch, [2, 2], [(bytes(30), 21)])


def _ball_with_pool_sizes(beta, sizes):
    sch, _, fam = family_fixture(beta)  # two levels
    return edp_ball_check(fam["family"], sch, sizes, [(fam["family"][0], 6)])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda b: _LevelSet(
        Automaton(b), block_indicator((1, 0, 1), 1), Fraction(1, 2),
        Fraction(1, 10), 2), "word shorter than observable range 3",
                 id="level-set-short"),
    pytest.param(lambda b: glue_blocks(
        b, validate_schedule((4, 6), (2, 3), (0.5, 0.2)), [[b"\1" * 4] * 2]),
                 "one selection list per schedule level", id="glue-levels"),
    pytest.param(lambda b: construct_irregular_point(
        b, digit_frequency(1, 1), (0.5, 0.0), small_schedule(), []),
                 "one pool per level required", id="construct-pools"),
    pytest.param(_ball_longer_than_the_words,
                 "ball length 21 is negative or exceeds", id="edp-too-long"),
    pytest.param(lambda b: enumerate_glued_family(
        b, validate_schedule((4, 6), (2, 2), (0.2, 0.1)), [((1, 0, 1, 0),)]),
                 "^1 pools for 2 levels: one pool per level required$",
                 id="family-fewer-pools"),
    # k = 0 once read the last level's tolerance, and k = 3 raised IndexError
    pytest.param(lambda b: oscillation_bound(
        digit_frequency(1, 1), validate_schedule((4, 6), (2, 3), (0.5, 0.2)),
        0), r"^level 0 outside 1\.\.2$", id="oscillation-level-0"),
    pytest.param(lambda b: oscillation_bound(
        digit_frequency(1, 1), validate_schedule((4, 6), (2, 3), (0.5, 0.2)),
        3), r"^level 3 outside 1\.\.2$", id="oscillation-level-3"),
    # one size for two levels once raised IndexError; a zero size passed
    pytest.param(lambda b: _ball_with_pool_sizes(b, [2]),
                 r"one pool size >= 1 per level: \[2\]$",
                 id="edp-fewer-pool-sizes"),
    pytest.param(lambda b: _ball_with_pool_sizes(b, [2, 0]),
                 r"one pool size >= 1 per level: \[2, 0\]$",
                 id="edp-pool-size-0"),
])
def test_irregular_refusals(beta_two, call, message):
    with pytest.raises(UsageError, match=message):
        call(beta_two)


def test_glue_rejects_wrong_shape(beta_two):
    sch = validate_schedule((4,), (2,), (0.5,))
    with pytest.raises(UsageError):
        glue_blocks(beta_two, sch, [[(1, 1, 1, 1)]])
    with pytest.raises(UsageError, match="has length 3, expected 4"):
        glue_blocks(beta_two, sch, [[(1, 1, 1, 1), (1, 1, 1)]])


# --- the irregular point ------------------------------------------------------

def test_construct_irregular_point_golden(beta_golden):
    sch = small_schedule()
    phi = digit_frequency(1, 1)
    pools = build_word_pools(beta_golden, phi, (0.5, 0.0), sch)
    rep = construct_irregular_point(beta_golden, phi, (0.5, 0.0), sch,
                                    pools, seed=7)
    assert rep["oscillates"]
    rows = rep["rows"]
    assert [r["t_k"] for r in rows] == [200, 3200, 103200]
    for r in rows:
        assert r["within_bound"]
    # prefix admissible at every materialized length
    point = rep["point"]
    assert is_admissible(point.digits, beta_golden)


def test_construct_degenerate_targets_converge(beta_two):
    sch = validate_schedule((6, 8), (3, 20), (0.3, 0.2))
    phi = digit_frequency(1, 1)
    pools = build_word_pools(beta_two, phi, (0.5, 0.5), sch)
    rep = construct_irregular_point(beta_two, phi, (0.5, 0.5), sch, pools,
                                    seed=1)
    assert not rep["oscillates"]


def test_construct_raises_when_a_residual_exceeds_its_bound(beta_two):
    """Pools built for the swapped targets average 0 where 1 is due: the
    level-1 residual 1 exceeds its bound 0.05 + 2/6."""
    sch = validate_schedule((6, 8), (3, 20), (0.05, 0.02))
    phi = digit_frequency(1, 1)
    pools = build_word_pools(beta_two, phi, (0.0, 1.0), sch)
    with pytest.raises(UsageError, match="exceeds bound at level 1"):
        construct_irregular_point(beta_two, phi, (1.0, 0.0), sch, pools)


@pytest.mark.parametrize("targets", [(0.5,), (0.5, 0.5, 0.0)])
def test_construct_refuses_other_than_two_targets(beta_two, targets):
    """One target once raised IndexError, and a third was ignored."""
    sch = validate_schedule((6, 8), (3, 20), (0.3, 0.2))
    phi = digit_frequency(1, 1)
    pools = build_word_pools(beta_two, phi, (0.5, 0.5), sch)
    with pytest.raises(UsageError, match="exactly two targets are required"):
        construct_irregular_point(beta_two, phi, targets, sch, pools)


def test_construct_exact_alternation_full_shift(beta_two):
    # pools {1^n} and {0^n}: averages hit the alternating targets exactly
    # up to boundary truncation
    sch = validate_schedule((6, 8), (3, 20), (0.05, 0.02))
    phi = digit_frequency(1, 1)
    pools = build_word_pools(beta_two, phi, (1.0, 0.0), sch)
    assert [p.words for p in pools] == [(b"\x01" * 6,), (bytes(8),)]
    rep = construct_irregular_point(beta_two, phi, (1.0, 0.0), sch, pools,
                                    seed=0)
    a1 = rep["rows"][0]["average"]
    a2 = rep["rows"][1]["average"]
    assert a1 == 1.0
    assert abs(a2 - 18 / 178) < 1e-9  # 3*6 ones over t_2 = 178


# --- family enumeration and ball measures -------------------------------------

def family_fixture(beta_two):
    sch = validate_schedule((4, 6), (2, 2), (0.2, 0.1))
    pools = [((1, 1, 1, 1), (0, 0, 0, 0)), ((1, 0) * 3, (0,) * 6)]
    return sch, pools, enumerate_glued_family(beta_two, sch, pools)


def test_enumerate_glued_family_counts(beta_two):
    sch, pools, fam = family_fixture(beta_two)
    assert fam["expected"] == 2 ** 2 * 2 ** 2 == 16
    assert fam["count"] == 16
    assert fam["pairwise_distinct"]
    assert abs(fam["entropy_proxy"] - math.log(16) / sch.times[-1]) < 1e-12


def test_edp_ball_check_refuses_a_negative_length(beta_two):
    """n = -3 once gave a passing row with bound 2.0 and l = -1."""
    sch, _, fam = family_fixture(beta_two)
    with pytest.raises(UsageError, match="ball length -3 is negative"):
        edp_ball_check(fam["family"], sch, [2, 2], [(fam["family"][0], -3)])


def test_enumerate_glued_family_budget(beta_two):
    sch = validate_schedule((4, 6), (2, 2), (0.2, 0.1))
    pools = [((1, 1, 1, 1), (0, 0, 0, 0)), ((1, 0) * 3, (0,) * 6)]
    with pytest.raises(BudgetExceeded):
        enumerate_glued_family(beta_two, sch, pools, budget=3)


def test_edp_ball_bounds(beta_two):
    sch, pools, fam = family_fixture(beta_two)
    member = fam["family"][0]
    rep = edp_ball_check(fam["family"], sch, [2, 2],
                         [(member, sch.times[0]), (member, 0),
                          (member, sch.times[-1]),
                          ((1,) * 20, sch.times[0])])
    assert rep["all_pass"]
    rows = rep["rows"]
    # ball at a member with n = t_1 has measure exactly |S_1|^-N_1
    assert rows[0]["measure"] <= 2 ** -2 + 1e-12
    assert rows[1]["measure"] == 1.0  # whole space
    # disjoint-from-family center
    disjoint = edp_ball_check(fam["family"], sch, [2, 2],
                              [((1, 0, 1, 0) + (0,) * 16, 4)])
    # (1010...) may or may not be in family prefixes; measure is just exact
    assert 0.0 <= disjoint["rows"][0]["measure"] <= 1.0
    with pytest.raises(UsageError, match="empty family"):
        edp_ball_check([], sch, [2, 2], [(member, sch.times[0])])


@pytest.mark.parametrize("form", ["tuple", "bytes", "symbol", "mixed"])
def test_family_and_balls_ignore_the_word_type(beta_golden, form):
    """Pool words given as tuples, bytes, SymbolWords or a mix (as the
    benchmark's construct workload passes them) glue to the same bytes
    family, with the same ball measures at tuple and bytes centres."""
    sch = validate_schedule((6, 8), (2, 2), (0.2, 0.1))
    # distinct after the one-symbol repair, which zeroes each last 1
    pools = [[b"\1\0\1\0\0\1", b"\1\0\0\1\0\1", b"\0\1\0\1\0\1"],
             [b"\1\0\1\0\0\1\0\1", b"\0\1\0\1\0\1\0\1"]]
    convert = {"tuple": lambda i, w: tuple(w), "bytes": lambda i, w: w,
               "symbol": lambda i, w: SymbolWord(w),
               "mixed": lambda i, w: (tuple, bytes)[i % 2](w)}[form]
    fam = enumerate_glued_family(
        beta_golden, sch,
        [[convert(i, w) for i, w in enumerate(p)] for p in pools])
    ref = enumerate_glued_family(beta_golden, sch, pools)
    assert fam == ref and fam["count"] == fam["expected"] == 3 ** 2 * 2 ** 2
    assert all(type(w) is bytes for w in fam["family"])
    member = fam["family"][5]
    samples = [(c, n) for c in (member, tuple(member))
               for n in (0, 6, sch.times[0], sch.times[-1])]
    rep = edp_ball_check(fam["family"], sch, [3, 2], samples)
    assert rep == edp_ball_check(ref["family"], sch, [3, 2], samples)
    assert rep["rows"][:4] == rep["rows"][4:] and rep["all_pass"]


def test_edp_ball_check_is_exact():
    """The centre's one hit among 1,999,999 words has measure above the
    bound 1/(2 * 10^6) by 2.5e-13: the ball check fails, decided in
    integers (a float check with a 1e-12 tie passed it)."""
    sch = validate_schedule((4, 6), (1, 1), (0.2, 0.1))
    centre, other = bytes(10), b"\1" * 10
    family = [centre] + [other] * 1_999_998
    row, = edp_ball_check(family, sch, [2 * 10 ** 6, 2],
                          [(centre, 4)])["rows"]
    assert (row["j"], row["l"], row["bound"]) == (1, 0, 5e-7)
    assert 2.4e-13 < row["measure"] - row["bound"] < 2.6e-13
    assert not row["pass"]


def test_edp_counting_identity(beta_two):
    sch, pools, fam = family_fixture(beta_two)
    # counting identity: family size is the product of pool sizes raised to
    # multiplicities
    assert fam["count"] == len(pools[0]) ** 2 * len(pools[1]) ** 2
