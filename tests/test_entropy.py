import math
import random
from itertools import combinations, product

import pytest

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
    window_bad_count,
)
from betalab.errors import (
    DepthTooShallow,
    InsufficientSample,
    LengthMismatch,
    NotAdmissibleInput,
    UsageError,
)
from betalab.parry import markov_approx

PHI = (1 + math.sqrt(5)) / 2


# --- oracle helpers ---------------------------------------------------------

def oracle_bad_count(x, y, m):
    n = len(x)
    bad = 0
    for j in range(n):
        if any(x[i] != y[i] for i in range(j, min(j + m, n))):
            bad += 1
    return bad


def oracle_max_separated(words, threshold, m):
    best = 0
    for size in range(len(words), 0, -1):
        for combo in combinations(range(len(words)), size):
            if all(oracle_bad_count(words[i], words[j], m) > threshold
                   for i, j in combinations(combo, 2)):
                return size
    return best


def oracle_min_spanning(words, threshold, m):
    for size in range(1, len(words) + 1):
        for combo in combinations(range(len(words)), size):
            if all(any(oracle_bad_count(words[c], words[z], m) <= threshold
                       for c in combo) for z in range(len(words))):
                return size
    raise AssertionError("unreachable")


# --- mistake functions and balls ---------------------------------------------

def test_mistake_function_parse_and_values():
    assert MistakeFunction.parse("zero")(100) == 0
    assert MistakeFunction.parse("const:3")(5) == 3
    assert MistakeFunction.parse("log")(14) == 4
    with pytest.raises(UsageError):
        MistakeFunction.parse("cubic")


def test_mistake_function_window_check():
    assert MistakeFunction.log2().check_window(8, 64)
    assert not MistakeFunction("linear", lambda n: n).check_window(8, 64)


def test_window_bad_count_matches_oracle():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10)
        m = rng.randint(1, 4)
        x = tuple(rng.randint(0, 1) for _ in range(n))
        y = tuple(rng.randint(0, 1) for _ in range(n))
        assert window_bad_count(x, y, m) == oracle_bad_count(x, y, m)


def test_window_bad_count_length_mismatch():
    with pytest.raises(LengthMismatch):
        window_bad_count((1,), (1, 0), 1)


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
                    assert inst.bad_count(i, j) == oracle_bad_count(
                        words[i], words[j], m)
                s = max_separated(inst)
                r = min_spanning(inst)
                assert s.exact and r.exact
                assert s.size == oracle_max_separated(words, gval, m)
                assert r.size == oracle_min_spanning(words, gval, m)


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


@pytest.mark.parametrize("gamma,size,kept", [
    (0.1, 10, 9), (0.1, 30, 27), (0.1, 70, 63), (0.3, 10, 7)])
def test_katok_drops_whole_gamma_mass(gamma, size, kept):
    """Uniform weights: a whole gamma * N of the words is dropped exactly."""
    def sampler(n):
        return [(tuple(i >> b & 1 for b in range(n)), 1.0 / size)
                for i in range(size)]

    row = katok_entropy_estimate(sampler, MistakeFunction.zero(), gamma,
                                 [7])["rows"][0]
    assert row["kept_words"] == kept
    assert abs(row["kept_mass"] - kept / size) < 1e-12


def test_katok_single_word_sampler():
    rep = katok_entropy_estimate(lambda n: [((0,) * n, 1.0)],
                                 MistakeFunction.zero(), 0.5, [6])
    assert rep["rows"][0]["estimate_zero"] == 0.0


def test_katok_rejects_empty_sampler():
    with pytest.raises(InsufficientSample):
        katok_entropy_estimate(lambda n: [], MistakeFunction.zero(), 0.1, [4])


def test_katok_bad_gamma(beta_two):
    with pytest.raises(UsageError):
        katok_entropy_estimate(uniform_admissible_sampler(beta_two),
                               MistakeFunction.zero(), 1.5, [4])


# --- cylinder trees and Bowen entropy ------------------------------------------

def test_full_binary_tree_transition():
    tree = CylinderTree.full(1, 16)
    rep = bowen_entropy(tree)
    assert abs(rep.estimate - math.log(2)) < 0.01


def test_single_stream_entropy_zero():
    tree = CylinderTree.single_stream((1, 0, 1, 0, 0, 1) * 3)
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
    with pytest.raises(DepthTooShallow):
        cover_cost(tree, 0.5, 10)


def test_tree_json_round_trip(beta_golden):
    tree = CylinderTree.from_beta(beta_golden, 8)
    again = CylinderTree.from_json(tree.to_json())
    assert again.root == tree.root
    assert again.alphabet_bound == tree.alphabet_bound


def test_leaf_counts_are_admissible_counts(beta_golden):
    from betalab.parry import count_admissible
    tree = CylinderTree.from_beta(beta_golden, 10)
    for n in (3, 7, 10):
        assert tree.leaf_count_at(n) == count_admissible(beta_golden, n)


@pytest.mark.parametrize("name", ["two", "golden", "tribonacci", "figure",
                                  "three_halves", "one_seven"])
def test_leaf_counts_on_bench_bases(bench_bases, name):
    from betalab.parry import count_admissible
    beta = bench_bases[name]
    tree = CylinderTree.from_beta(beta, 12)
    assert tree.leaf_count_at(0) == 1
    for n in range(1, 13):
        assert tree.leaf_count_at(n) == count_admissible(beta, n)


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
             CylinderTree.single_stream((1, 0, 2, 0, 1) * 2)]
    trees += [CylinderTree.from_json(CylinderTree(ragged(7), 2).to_json())
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
    with pytest.raises(NotAdmissibleInput):
        cylinder_diameter_bounds(beta_golden, (1, 1))


def test_dimension_bounds_sandwich(beta_golden):
    rep = dimension_bounds(math.log(PHI), beta_golden, 0.0)
    assert abs(rep["upper"] - 1.0) < 1e-9
    rep2 = dimension_bounds(0.3, beta_golden, 0.5)
    assert rep2["lower"] <= rep2["upper"]
    certified = dimension_bounds(0.3, beta_golden, 0.5,
                                 bounded_z_certificate=True)
    assert certified["lower"] == certified["upper"]


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


def test_box_dimension_depth_guard(beta_golden):
    tree = CylinderTree.from_beta(beta_golden, 8)
    with pytest.raises(DepthTooShallow):
        box_dimension_estimate(tree, beta_golden, [12])
