"""Nested forbidden-power shifts: positive entropy without periodic points.

Level 1 forbids the two constant powers 1^{N_1} and 0^{N_1}; level k
forbids v^{N_k} for every length-k word v admissible at level k-1.  The
intersection kills every short period while each level's entropy drop
stays small, and any forbidden power is fixable by a single edit.  Each
level is an Aho-Corasick matcher with a complete transition table over
{0, 1}, presented to `betalab.automata`: admissibility at level k is one
read of ``automata[k - 1]``, and the level-(k-1) words of length k that
F_k raises to powers are one enumeration.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from . import automata
from .errors import BudgetExceeded, UsageError

FORBIDDEN_LIST_BUDGET = 10 ** 5


class FactorAutomaton:
    """Aho-Corasick matcher (CACM 18, 1975) over {0, 1}: ``delta[s][c]`` is
    the complete transition table, ``ends[s]`` the forbidden factors ending
    at state s, and ``step`` has no edge into such a state."""

    initial = 0
    alphabet_bound = 1

    def __init__(self, patterns: Sequence[tuple[int, ...]]):
        self.patterns = [tuple(p) for p in patterns]
        # trie, ids in insertion order; None marks a missing edge
        delta: list[list] = [[None, None]]
        ends: list[list[int]] = [[]]
        for idx, p in enumerate(self.patterns):
            s = 0
            for c in p:
                if delta[s][c] is None:
                    delta[s][c] = len(delta)
                    delta.append([None, None])
                    ends.append([])
                s = delta[s][c]
            ends[s].append(idx)
        # BFS over (state, fail state) pairs, root row first: a missing
        # edge copies the fail state's edge, and ends merge along fail links
        root = delta[0]
        queue = deque((t, 0) for t in root if t is not None)
        root[:] = [0 if t is None else t for t in root]
        while queue:
            s, f = queue.popleft()
            ends[s] = sorted(ends[s] + ends[f])
            for c in (0, 1):
                t = delta[s][c]
                if t is None:
                    delta[s][c] = delta[f][c]
                else:
                    queue.append((t, delta[f][c]))
        self.delta, self.ends = delta, ends

    def step(self, state: int, c: int) -> Optional[int]:
        t = self.delta[state][c]
        return None if self.ends[t] else t

    def occurrences(self, word) -> list[tuple[int, int, tuple]]:
        """All forbidden occurrences as (start, end, pattern) intervals, by
        end and then in pattern order, from one scan; the periodic-point
        check and the single-edit repair read it.  A digit outside {0, 1}
        raises UsageError."""
        if not {0, 1}.issuperset(word):
            raise UsageError("word uses digits outside {0, 1}")
        delta, ends, patterns = self.delta, self.ends, self.patterns
        out = []
        s = 0
        for i, c in enumerate(word, start=1):
            s = delta[s][c]
            for k in ends[s]:
                out.append((i - len(patterns[k]), i, patterns[k]))
        return out

    def count_words(self, n: int) -> int:
        return automata.path_counts(self, n)[-1] if n > 0 else 1


@dataclass
class NestedShift:
    N_seq: tuple[int, ...]
    forbidden_sets: list  # forbidden_sets[i] = list for level i+1
    automata: list        # automata[i] matches union of F_1..F_{i+1}

    @property
    def levels(self) -> int:
        return len(self.forbidden_sets)

    def _matcher(self, level: int) -> FactorAutomaton:
        if not 1 <= level <= self.levels:
            raise UsageError(f"level {level} outside 1..{self.levels}")
        return self.automata[level - 1]

    def enumerate(self, n: int, level: Optional[int] = None):
        lvl = self.levels if level is None else level
        return automata.enumerate_words(self._matcher(lvl), n)


def build_nested(N_seq: Sequence[int],
                 k_max: Optional[int] = None) -> NestedShift:
    N_seq = tuple(int(v) for v in N_seq)
    k_max = len(N_seq) if k_max is None else k_max
    if not 1 <= k_max <= len(N_seq):
        raise UsageError("k_max must lie in 1..len(N sequence)")
    if any(a >= b for a, b in zip(N_seq, N_seq[1:])):
        raise UsageError("N sequence must strictly increase")
    if N_seq[0] < 3:
        raise UsageError("N_1 must be >= 3")
    forbidden_sets = [[(1,) * N_seq[0], (0,) * N_seq[0]]]
    cumulative = list(forbidden_sets[0])
    matchers = [FactorAutomaton(cumulative)]
    for k in range(2, k_max + 1):
        # F_k: the N_k-th powers of all level-(k-1) admissible length-k
        # words; patterns stay tuples, like the level-1 runs
        F_k = [tuple(v) * N_seq[k - 1]
               for v in automata.enumerate_words(matchers[-1], k)]
        cumulative = cumulative + F_k
        if sum(map(len, cumulative)) > FORBIDDEN_LIST_BUDGET:
            raise BudgetExceeded("forbidden lists exceed budget")
        forbidden_sets.append(F_k)
        matchers.append(FactorAutomaton(cumulative))
    return NestedShift(N_seq=N_seq, forbidden_sets=forbidden_sets,
                       automata=matchers)


def no_short_periodics(shift: NestedShift, level: int) -> dict:
    """Whether every periodic stream v^inf with |v| = p <= level hits a
    forbidden factor; returns the first breaking factor per period word v.
    A factor of length L occurs in v^inf exactly when it occurs in the
    first L + p - 1 digits, so longest // p + 2 copies of v decide it."""
    rows = []
    auto = shift._matcher(level)
    longest = max(map(len, auto.patterns))
    for p_len in range(1, level + 1):
        for v in product((0, 1), repeat=p_len):
            occ = auto.occurrences(v * (longest // p_len + 2))[:1]
            rows.append({"period_word": v,
                         "excluded": bool(occ),
                         "breaking_factor": occ[0][2] if occ else None})
    return {"rows": rows, "all_excluded": all(r["excluded"] for r in rows)}


def single_edit_repair(word, shift: NestedShift, level: int) -> dict:
    """One edit breaking every forbidden factor at the edited position.

    Words are binary (`FactorAutomaton.occurrences` refuses other digits),
    so the edit at p is 1 - word[p].  It works when no forbidden occurrence
    in the edited word covers p, and then it adds none: one that misses p
    is in the input too.  Others may remain, as repair is local by design.
    """
    word = tuple(word)
    auto = shift._matcher(level)
    if not auto.occurrences(word):
        return {"edit": None, "repaired": word,
                "working_positions": 0, "already_admissible": True}
    working, first_fix = 0, None
    for pos, d in enumerate(word):
        cand = word[:pos] + (1 - d,) + word[pos + 1:]
        if not any(a <= pos < b for a, b, _ in auto.occurrences(cand)):
            working += 1
            first_fix = first_fix or (pos, cand)
    if first_fix is None:
        raise UsageError(f"no single edit repairs {word}")
    pos, cand = first_fix
    return {"edit": (pos, cand[pos]), "repaired": cand,
            "working_positions": working,
            "lower_bound": len(word) * (1 - 2 / shift.N_seq[0]),
            "already_admissible": False}


def nested_entropy_report(shift: NestedShift, level: int, n_max: int) -> dict:
    """Exact per-level word counts, growth rates, and inter-level drops."""
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    shift._matcher(level)
    levels = list(range(1, level + 1))
    counts = {lvl: automata.path_counts(shift.automata[lvl - 1], n_max)
              for lvl in levels}
    table = []
    for n in range(1, n_max + 1):
        row = {"n": n, "full": 2 ** n}
        for lvl in levels:
            row[f"level_{lvl}"] = counts[lvl][n - 1]
        table.append(row)
    last = table[-1]
    rates = {0: math.log(2.0)}
    for lvl in levels:
        rates[lvl] = math.log(last[f"level_{lvl}"]) / n_max
    drops = []
    for lvl in levels:
        eps = math.log(2) / 2 ** (lvl + 1)
        drop = rates[lvl - 1] - rates[lvl]
        drops.append({"level": lvl, "drop": drop, "epsilon": eps,
                      "within": drop < eps})
    return {"counts": table, "rates": rates, "drops": drops}
