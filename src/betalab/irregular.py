"""Constructive assembly of points with divergent Birkhoff averages.

Per-level word pools are read in lexicographic order from the exact level
sets {w admissible : |A_n phi(w) - alpha| < delta} and thinned to pairwise
Hamming distance above a threshold; their words are glued with the
beta-shift's one-symbol repair into an admissible prefix whose running
averages of a chosen observable oscillate between two targets on a
verified schedule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import product
from operator import ne
from typing import Optional, Sequence

from .automata import edges, iter_words, read
from .errors import (
    BudgetExceeded,
    EmptyPool,
    GrowthViolation,
    NotAdmissibleInput,
    OscillationNotObserved,
    UsageError,
)
from .observables import Observable
from .entropy import MistakeFunction, window_bad_count
from .words import as_word


def rho(k: int) -> int:
    """Target alternation 1, 2, 1, 2, ... for levels k = 1, 2, 3, ..."""
    return ((k + 1) % 2) + 1


@dataclass(frozen=True)
class IrregularSchedule:
    block_lengths: tuple[int, ...]   # n_k
    multiplicities: tuple[int, ...]  # N_k
    tolerances: tuple[float, ...]    # delta_k
    times: tuple[int, ...]           # t_k = sum_{i<=k} N_i n_i
    certificates: tuple[float, ...]  # max(n_{k+1}/N_k, t_k/N_{k+1})

    @property
    def levels(self) -> int:
        return len(self.block_lengths)


def validate_schedule(block_lengths: Sequence[int],
                      multiplicities: Sequence[int],
                      tolerances: Sequence[float]) -> IrregularSchedule:
    """Check the finite-scale growth conditions and compute certificates."""
    n = tuple(int(v) for v in block_lengths)
    N = tuple(int(v) for v in multiplicities)
    d = tuple(float(v) for v in tolerances)
    if not (len(n) == len(N) == len(d)) or not n:
        raise UsageError("schedule sequences must be nonempty and equal length")
    if any(v < 1 for v in n) or any(v < 1 for v in N):
        raise UsageError("block lengths and multiplicities must be >= 1")
    if any(a >= b for a, b in zip(n, n[1:])):
        raise GrowthViolation("block lengths must strictly increase")
    if any(v <= 0 for v in d) or any(a <= b for a, b in zip(d, d[1:])):
        raise GrowthViolation("tolerances must be positive and strictly decreasing")
    times = []
    t = 0
    for nk, Nk in zip(n, N):
        t += nk * Nk
        times.append(t)
    certs = []
    for k in range(len(n) - 1):
        cert = max(n[k + 1] / N[k], times[k] / N[k + 1])
        certs.append(cert)
    for k in range(len(certs) - 1):
        if certs[k + 1] >= certs[k]:
            raise GrowthViolation(
                f"growth certificate fails to decrease at level {k + 2}: "
                f"{certs[k + 1]:.4g} >= {certs[k]:.4g}", level=k + 2)
    return IrregularSchedule(n, N, d, tuple(times), tuple(certs))


def default_schedule(levels: int,
                     tolerances: Optional[Sequence[float]] = None
                     ) -> IrregularSchedule:
    """Doubling rule: n_k = 2^{k+3}, N_{k+1} = 2^{k+1}(t_k + n_{k+1} + n_{k+2})."""
    n = [2 ** (k + 3) for k in range(1, levels + 1)]
    n_ext = n + [2 ** (levels + 4), 2 ** (levels + 5)]
    N = []
    t = 0
    for k in range(levels):
        Nk = 2 ** (k + 1) * (t + n_ext[k] + n_ext[k + 1]) if k else \
            2 * (n_ext[0] + n_ext[1])
        N.append(Nk)
        t += n[k] * Nk
    d = tuple(tolerances) if tolerances is not None else \
        tuple(2.0 ** -(k + 2) for k in range(levels))
    return validate_schedule(n, N, d)


@dataclass(frozen=True)
class WordPool:
    level: int
    target_index: int
    target: float
    tolerance: float
    words: tuple
    achieved: tuple[float, float]  # (min, max) block average over the pool

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def log_size_over_n(self) -> float:
        n = len(self.words[0])
        return math.log(len(self.words)) / n if self.words else float("-inf")


_MARGIN = 1e-9
SEPARATION_THRESHOLD = 2  # pool words differ in more than this many digits


class _LevelSet:
    """Length-n words of a presentation whose phi-average is within delta of
    alpha, on states (position, state, last r-1 digits, partial Birkhoff
    sum).  Forward and backward passes keep only states that can still end
    inside the window, so a lexicographic walk never backtracks.  The window
    is widened by _MARGIN (1 + sup|phi|), past any float summation error on
    up to 10^6 windows, so pruning never drops a word the exact test keeps."""

    def __init__(self, pres, phi: Observable, alpha: float, delta: float,
                 n: int):
        r, m = phi.range_r, n - phi.range_r + 1
        if m < 1:
            raise UsageError(f"word shorter than observable range {r}")
        self.alphabet_bound = pres.alphabet_bound
        self.initial = (0, pres.initial, (), 0.0)
        edges_of = cache(partial(edges, pres))
        levels: list[dict] = [{self.initial: []}]  # state -> its out-edges
        for j in range(1, n + 1):
            nxt: dict = {}
            for (_, q, tail, total), out in levels[-1].items():
                for s, t in edges_of(q):
                    block = tail + (s,)
                    dest = (j, t, block[1:], total + phi.block_value(block)) \
                        if len(block) == r else (j, t, block, total)
                    out.append((s, dest))
                    nxt[dest] = []
            levels.append(nxt)
        slack = delta + _MARGIN * (1 + phi.sup_norm)
        live = {st: {} for st in levels[-1] if abs(st[3] / m - alpha) < slack}
        for level in reversed(levels[:-1]):
            for state, out in level.items():
                kept = {s: t for s, t in out if t in live}
                if kept:
                    live[state] = kept
        self._live = live

    def step(self, state, sym: int):
        return self._live.get(state, {}).get(sym)


def thin_separated(words, cap: int) -> list:
    """The words of the stream, in order, whose Hamming distance to every
    word kept before exceeds SEPARATION_THRESHOLD; stops once cap are
    kept."""
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
    from .parry import Automaton

    if len(targets) != 2:
        raise UsageError("exactly two targets are required")
    a1, a2 = float(targets[0]), float(targets[1])
    pools = []
    for k in range(1, schedule.levels + 1):
        n_k = schedule.block_lengths[k - 1]
        delta_k = schedule.tolerances[k - 1]
        alpha = (a1, a2)[rho(k) - 1]
        level_set = _LevelSet(Automaton(beta), phi, alpha, delta_k, n_k)
        kept = thin_separated(
            (w for w in iter_words(level_set, n_k)
             if abs(phi.average_on_word(w) - alpha) < delta_k),
            pool_cap)
        if not kept:
            raise EmptyPool(
                f"no admissible length-{n_k} word within {delta_k} of "
                f"{alpha} at level {k}", target=alpha)
        avgs = [phi.average_on_word(w) for w in kept]
        pools.append(WordPool(level=k, target_index=rho(k), target=alpha,
                              tolerance=delta_k, words=tuple(kept),
                              achieved=(min(avgs), max(avgs))))
    return pools


@dataclass
class GluedPoint:
    digits: bytes
    ledger: list = field(default_factory=list)  # rows (level, slot, edited_pos)
    schedule: Optional[IrregularSchedule] = None

    @property
    def edits(self) -> int:
        return sum(1 for _, _, pos in self.ledger if pos is not None)


def _needs_repair(beta, horizon: int = 64) -> bool:
    """Gluing is free concatenation exactly when w(beta) has no zeros."""
    form = beta.periodic_form()
    return 0 in (form[0] + form[1] if form else beta.digits(horizon))


def glue_blocks(beta, schedule: IrregularSchedule,
                selections: Sequence[Sequence]) -> GluedPoint:
    """Concatenate pool words (bytes, SymbolWords or int sequences) level
    by level, applying the one-symbol repair to each nonterminal block when
    the shift requires it."""
    from .parry import Automaton, is_admissible, zero_last_nonzero

    if len(selections) != schedule.levels:
        raise UsageError("one selection list per schedule level required")
    for k, sel in enumerate(selections, start=1):
        if len(sel) != schedule.multiplicities[k - 1]:
            raise UsageError(f"level {k} needs {schedule.multiplicities[k-1]} "
                             f"words, got {len(sel)}")
    repair = _needs_repair(beta)
    auto = Automaton(beta)
    state = 1
    out = bytearray()
    ledger = []
    total_blocks = sum(schedule.multiplicities)
    blk_index = 0
    for k, sel in enumerate(selections, start=1):
        n_k = schedule.block_lengths[k - 1]
        for slot, word in enumerate(sel):
            word = as_word(word)
            if len(word) != n_k:
                raise UsageError(f"level {k} word has length {len(word)}, "
                                 f"expected {n_k}")
            if not is_admissible(word, beta):
                raise NotAdmissibleInput(f"selection at level {k} slot {slot}")
            blk_index += 1
            pos = None
            if repair and blk_index < total_blocks:
                word, pos = zero_last_nonzero(word)
            state = read(auto, word, start=state)
            if state is None:
                raise NotAdmissibleInput(
                    f"glued prefix inadmissible inside level {k} slot {slot}")
            out += word
            ledger.append((k, slot, pos))
    return GluedPoint(digits=bytes(out), ledger=ledger, schedule=schedule)


def oscillation_bound(phi: Observable, schedule: IrregularSchedule,
                      point: GluedPoint, k: int) -> float:
    """Ledger-computable residual bound on |A_{t_k} - alpha_{rho(k)}|:
    tolerance + oscillation * (edits + boundary) / n_k + carried-prefix term.
    """
    n_k = schedule.block_lengths[k - 1]
    t_prev = schedule.times[k - 2] if k >= 2 else 0
    t_k = schedule.times[k - 1]
    return (schedule.tolerances[k - 1]
            + phi.oscillation * (1 + phi.range_r) / n_k
            + (t_prev / t_k) * 2 * phi.sup_norm)


def construct_irregular_point(beta, phi: Observable,
                              targets: Sequence[float],
                              schedule: IrregularSchedule,
                              pools: Sequence[WordPool],
                              seed: int = 0) -> dict:
    """Glue randomly selected pool words and certify the running averages.

    Raises OscillationNotObserved when a residual exceeds its ledger bound
    or (for distinct targets) consecutive averages fail to separate.
    """
    if len(pools) != schedule.levels:
        raise UsageError("one pool per level required")
    rng = random.Random(seed)
    selections = [[rng.choice(pool.words)
                   for _ in range(schedule.multiplicities[k])]
                  for k, pool in enumerate(pools)]
    point = glue_blocks(beta, schedule, selections)
    a1, a2 = float(targets[0]), float(targets[1])
    rows = []
    for k in range(1, schedule.levels + 1):
        t_k = schedule.times[k - 1]
        alpha = (a1, a2)[rho(k) - 1]
        avg = phi.average_on_word(point.digits[:t_k])
        bound = oscillation_bound(phi, schedule, point, k)
        rows.append({"level": k, "t_k": t_k, "target": alpha,
                     "average": avg, "residual": abs(avg - alpha),
                     "bound": bound, "within_bound": abs(avg - alpha) <= bound})
    gap = abs(a1 - a2)
    diffs = [abs(rows[i + 1]["average"] - rows[i]["average"])
             for i in range(len(rows) - 1)]
    oscillates = gap > 0 and bool(diffs) and all(d > gap / 2 for d in diffs)
    bad = [r for r in rows if not r["within_bound"]]
    if bad:
        raise OscillationNotObserved(
            f"residual exceeds bound at level {bad[0]['level']}",
            diagnostics={"rows": rows})
    if gap > 0 and not oscillates:
        raise OscillationNotObserved(
            "consecutive averages fail to separate",
            diagnostics={"rows": rows, "diffs": diffs})
    return {"seed": seed, "targets": (a1, a2), "rows": rows,
            "oscillates": oscillates, "edits": point.edits,
            "point": point}


def enumerate_glued_family(beta, schedule: IrregularSchedule,
                           pools: Sequence[WordPool],
                           budget: int = 10 ** 5) -> dict:
    """All glued words over per-slot pool choices; exact product count.
    Pool words may be bytes, SymbolWords or int sequences, mixed."""
    words_per_level = [tuple(map(as_word, p.words if isinstance(p, WordPool)
                                 else p)) for p in pools]
    sizes = [len(words) for words in words_per_level]
    expected = 1
    for s, N in zip(sizes, schedule.multiplicities):
        expected *= s ** N
    if expected > budget:
        raise BudgetExceeded(f"family size {expected} exceeds budget {budget}")
    slot_choices = []
    for lvl, N in enumerate(schedule.multiplicities):
        slot_choices.extend([words_per_level[lvl]] * N)
    family = []
    for combo in product(*slot_choices):
        selections = []
        idx = 0
        for N in schedule.multiplicities:
            selections.append(list(combo[idx:idx + N]))
            idx += N
        family.append(glue_blocks(beta, schedule, selections).digits)
    distinct = len(set(family))
    t_k = schedule.times[-1]
    return {"count": len(family), "expected": expected,
            "distinct": distinct, "pairwise_distinct": distinct == len(family),
            "entropy_proxy": math.log(len(family)) / t_k if family else 0.0,
            "pool_exponents": [math.log(s) / n if s > 1 else 0.0
                               for s, n in zip(sizes, schedule.block_lengths)],
            "family": family}


def edp_ball_check(family: Sequence[bytes],
                   schedule: IrregularSchedule,
                   pool_sizes: Sequence[int],
                   samples: Sequence[tuple],
                   window: int = 1,
                   g: Optional[MistakeFunction] = None) -> dict:
    """Exact mistake-ball measures of the uniform family measure against the
    block-counting bound (#T_j)^-1 (#S_{j+1})^-l determined by n."""
    if not family:
        raise UsageError("empty family")
    g = g or MistakeFunction.zero()
    total = len(family)
    t = schedule.times
    rows = []
    for center, n in samples:
        if n > len(family[0]):
            raise UsageError(f"ball length {n} exceeds family prefix")
        if n == 0:
            rows.append({"n": 0, "measure": 1.0, "bound": 1.0,
                         "j": None, "l": None, "coarse": False, "pass": True})
            continue
        hits = sum(1 for w in family
                   if window_bad_count(center[:n], w[:n], window) <= g(n))
        measure = hits / total
        j = 0
        while j < len(t) and t[j] <= n:
            j += 1
        # now t_{j-1} <= n < t_j in 1-based terms; j counts completed levels
        t_j = t[j - 1] if j >= 1 else 0
        if j >= len(schedule.block_lengths):
            l = 0
            s_next = 1
        else:
            l = (n - t_j) // schedule.block_lengths[j]
            s_next = pool_sizes[j]
        T_j = 1
        for i in range(j):
            T_j *= pool_sizes[i] ** schedule.multiplicities[i]
        bound = (1.0 / T_j) * (1.0 / (s_next ** l) if s_next > 0 else 1.0)
        coarse = l == 0
        rows.append({"n": n, "measure": measure, "bound": bound, "j": j,
                     "l": l, "coarse": coarse,
                     "pass": measure <= bound + 1e-12})
    return {"rows": rows, "all_pass": all(r["pass"] for r in rows),
            "family_size": total}
