"""Constructive assembly of points with divergent Birkhoff averages.

Per-level word pools are read in lexicographic order from the exact level
sets {w admissible : |A_n phi(w) - alpha| < delta}, presentations whose
window is a test on the last edge, pruned by the counts of
`automata.Words`, and thinned to pairwise Hamming distance above a
threshold; their words are glued into an admissible prefix whose running
averages of a chosen observable oscillate between two targets on a verified
schedule.  Targets and tolerances are read as decimal literals, and each
window and certificate is decided in Q.  Gluing follows the repair rule of
almost specification: unless beta is an integer, each nonterminal block has
its last nonzero digit zeroed, and then any admissible block may follow it
(Pfister & Sullivan 2007).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate, product
from operator import mul, ne
from typing import Sequence

from .automata import edges, enumerate_words
from .errors import BudgetExceeded, UsageError
from .observables import Observable, exact
from .parry import Automaton, is_admissible, zero_last_nonzero
from .words import as_word


def rho(k: int) -> int:
    """Target alternation 1, 2, 1, 2, ... for levels k = 1, 2, 3, ..."""
    return ((k + 1) % 2) + 1


@dataclass(frozen=True)
class IrregularSchedule:
    block_lengths: tuple[int, ...]   # n_k
    multiplicities: tuple[int, ...]  # N_k
    tolerances: tuple[Fraction, ...]  # delta_k, read as decimal literals
    times: tuple[int, ...]           # t_k = sum_{i<=k} N_i n_i
    certificates: tuple[Fraction, ...]  # max(n_{k+1}/N_k, t_k/N_{k+1})

    @property
    def levels(self) -> int:
        return len(self.block_lengths)


def validate_schedule(block_lengths: Sequence[int],
                      multiplicities: Sequence[int],
                      tolerances: Sequence[float]) -> IrregularSchedule:
    """Check the finite-scale growth conditions and compute certificates."""
    n = tuple(int(v) for v in block_lengths)
    N = tuple(int(v) for v in multiplicities)
    d = tuple(exact(v, "tolerance") for v in tolerances)
    if not (len(n) == len(N) == len(d)) or not n:
        raise UsageError("schedule sequences must be nonempty and equal length")
    if any(v < 1 for v in n) or any(v < 1 for v in N):
        raise UsageError("block lengths and multiplicities must be >= 1")
    if any(a >= b for a, b in zip(n, n[1:])):
        raise UsageError("block lengths must strictly increase")
    if any(v <= 0 for v in d) or any(a <= b for a, b in zip(d, d[1:])):
        raise UsageError("tolerances must be positive and strictly decreasing")
    times = tuple(accumulate(map(mul, n, N)))
    certs = tuple(max(Fraction(n[k + 1], N[k]), Fraction(times[k], N[k + 1]))
                  for k in range(len(n) - 1))
    for k, (a, b) in enumerate(zip(certs, certs[1:]), start=2):
        if b >= a:
            raise UsageError(
                f"growth certificate fails to decrease at level {k}: "
                f"{float(b):.4g} >= {float(a):.4g}")
    return IrregularSchedule(n, N, d, times, certs)


@dataclass(frozen=True)
class WordPool:
    level: int
    target: Fraction
    words: tuple
    achieved: tuple[Fraction, Fraction]  # (min, max) block average over the pool

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def log_size_over_n(self) -> float:
        n = len(self.words[0])
        return math.log(len(self.words)) / n if self.words else float("-inf")


SEPARATION_THRESHOLD = 2  # pool words differ in more than this many digits


class _LevelSet:
    """Length-n words of a presentation whose phi-average is within delta of
    alpha, on product states (position, state, last r-1 digits, partial
    Birkhoff sum S times phi.den, an integer).  No edge leaves position n,
    and the last edge into it exists only when S ends strictly inside the
    window |S/(m den) - alpha| < delta, its integer bounds decided once in
    Q; states that cannot end inside are dead ends, which the counts of
    `automata.Words` prune, so a walk never backtracks."""

    def __init__(self, pres, phi: Observable, alpha: Fraction,
                 delta: Fraction, n: int):
        r, m = phi.range_r, n - phi.range_r + 1
        if m < 1:
            raise UsageError(f"word shorter than observable range {r}")
        self.alphabet_bound = pres.alphabet_bound
        self.initial = (0, pres.initial, (), 0)
        self._targets = cache(lambda q: dict(edges(pres, q)))
        self._n, self._r, self._numerator = n, r, phi.numerator
        c, d = alpha * m * phi.den, delta * m * phi.den  # centre, radius
        self._lo, self._hi = math.floor(c - d), math.ceil(c + d)

    def step(self, state, sym: int):
        j, q, tail, total = state
        t = self._targets(q).get(sym) if j < self._n else None
        if t is None:
            return None
        block = tail + (sym,)
        if len(block) == self._r:
            block, total = block[1:], total + self._numerator(block)
        if j + 1 == self._n and not self._lo < total < self._hi:
            return None
        return j + 1, t, block, total


def thin_separated(words, cap: int) -> list:
    """The words of the stream, in order, whose Hamming distance to every
    word kept before exceeds SEPARATION_THRESHOLD; stops once cap >= 1 are
    kept."""
    if cap < 1:
        raise UsageError(f"pool size must be >= 1, got {cap}")
    kept: list = []
    for w in words:
        if all(sum(map(ne, w, v)) > SEPARATION_THRESHOLD for v in kept):
            kept.append(w)
            if len(kept) >= cap:
                break
    return kept


def build_word_pools(beta, phi: Observable, targets: Sequence[float],
                     schedule: IrregularSchedule,
                     pool_cap: int = 64, seed: int = 0) -> list[WordPool]:
    """One pool per level: the lex-first admissible length-n_k words within
    delta_k of the level's alternating target, thinned to pairwise Hamming
    distance above SEPARATION_THRESHOLD.  seed is unused."""
    if len(targets) != 2:
        raise UsageError("exactly two targets are required")
    targets = [exact(a, "target") for a in targets]
    pools = []
    for k in range(1, schedule.levels + 1):
        n_k = schedule.block_lengths[k - 1]
        delta_k = schedule.tolerances[k - 1]
        alpha = targets[rho(k) - 1]
        level_set = _LevelSet(Automaton(beta), phi, alpha, delta_k, n_k)
        kept = thin_separated(enumerate_words(level_set, n_k), pool_cap)
        if not kept:
            raise UsageError(f"no admissible length-{n_k} word within "
                             f"{float(delta_k)} of {float(alpha)} at level {k}")
        avgs = [phi.average_on_word(w) for w in kept]
        pools.append(WordPool(level=k, target=alpha, words=tuple(kept),
                              achieved=(min(avgs), max(avgs))))
    return pools


@dataclass
class GluedPoint:
    digits: bytes
    ledger: list = field(default_factory=list)  # rows (level, slot, edited_pos)

    @property
    def edits(self) -> int:
        return sum(1 for _, _, pos in self.ledger if pos is not None)


def _needs_repair(beta) -> bool:
    """Gluing is free concatenation exactly when beta is an integer b + 1
    (the full shift on {0..b}); every other base repairs each nonterminal
    block by zeroing its last nonzero digit.  That digit stood on an edge
    w_j >= 1 out of some vertex j, so the 0 takes the back edge to vertex 1,
    every later 0 stays there (w_1 >= 1), and the next block is read as if
    it stood alone."""
    return not beta.is_rational() or beta.enclosure()[0].denominator != 1


def glue_blocks(beta, schedule: IrregularSchedule,
                selections: Sequence[Sequence]) -> GluedPoint:
    """Concatenate pool words (any int sequences) level by level, each read
    once by its admissibility check, and repair every nonterminal block
    unless beta is an integer (`_needs_repair`)."""
    if len(selections) != schedule.levels:
        raise UsageError("one selection list per schedule level required")
    for k, sel in enumerate(selections, start=1):
        if len(sel) != schedule.multiplicities[k - 1]:
            raise UsageError(f"level {k} needs {schedule.multiplicities[k-1]} "
                             f"words, got {len(sel)}")
    repair = _needs_repair(beta)
    out = bytearray()
    ledger = []
    total_blocks = sum(schedule.multiplicities)
    for k, sel in enumerate(selections, start=1):
        n_k = schedule.block_lengths[k - 1]
        for slot, word in enumerate(sel):
            word = as_word(word)
            if len(word) != n_k:
                raise UsageError(f"level {k} word has length {len(word)}, "
                                 f"expected {n_k}")
            if not is_admissible(word, beta):
                raise UsageError(f"selection at level {k} slot {slot}")
            pos = None
            if repair and len(ledger) + 1 < total_blocks:
                word, pos = zero_last_nonzero(word)
            out += word
            ledger.append((k, slot, pos))
    return GluedPoint(digits=bytes(out), ledger=ledger)


def oscillation_bound(phi: Observable, schedule: IrregularSchedule,
                      k: int) -> Fraction:
    """Ledger-computable residual bound on |A_{t_k} - alpha_{rho(k)}|:
    tolerance + oscillation * (edits + boundary) / n_k + carried-prefix term.
    """
    if not 1 <= k <= schedule.levels:
        raise UsageError(f"level {k} outside 1..{schedule.levels}")
    n_k = schedule.block_lengths[k - 1]
    t_prev = schedule.times[k - 2] if k >= 2 else 0
    t_k = schedule.times[k - 1]
    return (schedule.tolerances[k - 1]
            + phi.oscillation * (1 + phi.range_r) / n_k
            + Fraction(t_prev, t_k) * 2 * phi.sup_norm)


def construct_irregular_point(beta, phi: Observable,
                              targets: Sequence[float],
                              schedule: IrregularSchedule,
                              pools: Sequence[WordPool],
                              seed: int = 0) -> dict:
    """Glue randomly selected pool words and certify the running averages
    in Q; the rows report them as floats.

    Raises UsageError when a residual exceeds its ledger bound
    or (for distinct targets) there is one level or consecutive averages
    fail to separate.
    """
    if len(pools) != schedule.levels:
        raise UsageError("one pool per level required")
    if len(targets) != 2:
        raise UsageError("exactly two targets are required")
    rng = random.Random(seed)
    selections = [[rng.choice(pool.words)
                   for _ in range(schedule.multiplicities[k])]
                  for k, pool in enumerate(pools)]
    point = glue_blocks(beta, schedule, selections)
    a1, a2 = exact(targets[0], "target"), exact(targets[1], "target")
    rows, averages = [], []
    for k in range(1, schedule.levels + 1):
        t_k = schedule.times[k - 1]
        alpha = (a1, a2)[rho(k) - 1]
        avg = phi.average_on_word(point.digits[:t_k])
        residual, bound = abs(avg - alpha), oscillation_bound(phi, schedule, k)
        averages.append(avg)
        rows.append({"level": k, "t_k": t_k, "target": float(alpha),
                     "average": float(avg), "residual": float(residual),
                     "bound": float(bound), "within_bound": residual <= bound})
    gap = abs(a1 - a2)
    diffs = [abs(b - a) for a, b in zip(averages, averages[1:])]
    oscillates = gap > 0 and bool(diffs) and all(d > gap / 2 for d in diffs)
    bad = [r for r in rows if not r["within_bound"]]
    if bad:
        raise UsageError(f"residual exceeds bound at level {bad[0]['level']}")
    if gap > 0 and not oscillates:
        raise UsageError("consecutive averages fail to separate" if diffs
                         else "oscillation needs at least two levels")
    return {"rows": rows, "oscillates": oscillates, "edits": point.edits,
            "point": point}


def enumerate_glued_family(beta, schedule: IrregularSchedule,
                           pools: Sequence[Sequence],
                           budget: int = 10 ** 5) -> dict:
    """All glued words over per-slot pool choices; exact product count.
    A pool is a word sequence; its words may be any int sequences, mixed."""
    if len(pools) != schedule.levels:
        raise UsageError(f"{len(pools)} pools for {schedule.levels} levels: "
                         "one pool per level required")
    words_per_level = [tuple(map(as_word, p)) for p in pools]
    sizes = [len(words) for words in words_per_level]
    expected = math.prod(s ** N for s, N in zip(sizes, schedule.multiplicities))
    if expected > budget:
        raise BudgetExceeded(f"family size {expected} exceeds budget {budget}")
    slot_choices = []
    for lvl, N in enumerate(schedule.multiplicities):
        slot_choices.extend([words_per_level[lvl]] * N)
    ends = list(accumulate(schedule.multiplicities))  # where levels end
    family = []
    for combo in product(*slot_choices):
        selections = [combo[a:b] for a, b in zip([0] + ends, ends)]
        family.append(glue_blocks(beta, schedule, selections).digits)
    t_k = schedule.times[-1]
    return {"count": len(family), "expected": expected,
            "pairwise_distinct": len(set(family)) == len(family),
            "entropy_proxy": math.log(len(family)) / t_k if family else 0.0,
            "pool_exponents": [math.log(s) / n if s > 1 else 0.0
                               for s, n in zip(sizes, schedule.block_lengths)],
            "family": family}


def edp_ball_check(family: Sequence[bytes],
                   schedule: IrregularSchedule,
                   pool_sizes: Sequence[int],
                   samples: Sequence[tuple]) -> dict:
    """Exact measures, under the uniform family measure, of the length-n
    cylinders [center_1 .. center_n] (the zero-mistake Bowen balls) against
    the block-counting bound (#T_j)^-1 (#S_{j+1})^-l determined by n."""
    if not family:
        raise UsageError("empty family")
    if len(pool_sizes) != schedule.levels or min(pool_sizes) < 1:
        raise UsageError(f"one pool size >= 1 per level: {list(pool_sizes)}")
    total = len(family)
    t = schedule.times
    rows = []
    for center, n in samples:
        prefix = as_word(center[:n])
        if n < 0 or n > len(family[0]) or len(prefix) < n:
            raise UsageError(f"ball length {n} is negative or exceeds the "
                             "family words or the centre")
        if n == 0:
            rows.append({"n": 0, "measure": 1.0, "bound": 1.0,
                         "j": None, "l": None, "coarse": False, "pass": True})
            continue
        hits = sum(1 for w in family if as_word(w[:n]) == prefix)
        j = bisect_right(t, n)  # completed levels: t_{j-1} <= n < t_j
        t_j = t[j - 1] if j >= 1 else 0
        l = (n - t_j) // schedule.block_lengths[j] if j < len(t) else 0
        T_j = math.prod(pool_sizes[i] ** schedule.multiplicities[i]
                        for i in range(j))
        s_l = pool_sizes[j] ** l if l else 1
        # decided in integers: hits / total <= 1 / (T_j s_l)
        rows.append({"n": n, "measure": hits / total,
                     "bound": (1.0 / T_j) * (1.0 / s_l), "j": j, "l": l,
                     "coarse": l == 0, "pass": hits * T_j * s_l <= total})
    return {"rows": rows, "all_pass": all(r["pass"] for r in rows),
            "family_size": total}
