"""Nested forbidden-power shifts: positive entropy without periodic points.

Level 1 forbids the two constant powers 1^{N_1} and 0^{N_1}; level k
forbids v^{N_k} for every length-k word v admissible at level k-1.  The
intersection kills every short period while each level's entropy drop
stays small, and any forbidden power is fixable by a single edit.  Each
level is a forbidden-factor matcher presented to `betalab.automata`:
admissibility is one read, and the level-(k-1) words of length k that
F_k raises to powers are one enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from . import automata
from .errors import BudgetExceeded, NoSingleEditFound, UsageError

FORBIDDEN_LIST_BUDGET = 10 ** 5


class FactorAutomaton:
    """Aho-Corasick matcher over {0, 1}: each state lists the forbidden
    factors ending there, and ``step`` has no edge into such a state."""

    initial = 0
    alphabet_bound = 1

    def __init__(self, patterns: Sequence[tuple[int, ...]]):
        self.patterns = [tuple(p) for p in patterns]
        # trie with goto/fail links
        self.goto: list[dict[int, int]] = [{}]
        self.fail = [0]
        self.ends: list[list[int]] = [[]]
        for idx, p in enumerate(self.patterns):
            s = 0
            for c in p:
                if c not in self.goto[s]:
                    self.goto.append({})
                    self.fail.append(0)
                    self.ends.append([])
                    self.goto[s][c] = len(self.goto) - 1
                s = self.goto[s][c]
            self.ends[s].append(idx)
        # BFS fail links
        from collections import deque
        q = deque(self.goto[0].values())
        while q:
            s = q.popleft()
            for c, t in self.goto[s].items():
                f = self.fail[s]
                while f and c not in self.goto[f]:
                    f = self.fail[f]
                self.fail[t] = self.goto[f][c] if c in self.goto[f] and \
                    self.goto[f][c] != t else 0
                self.ends[t] = sorted(self.ends[t] + self.ends[self.fail[t]])
                q.append(t)

    def _advance(self, state: int, c: int) -> int:
        while state and c not in self.goto[state]:
            state = self.fail[state]
        return self.goto[state].get(c, 0)

    def step(self, state: int, c: int) -> Optional[int]:
        t = self._advance(state, c)
        return None if self.ends[t] else t

    def _matches(self, word):
        """(end_index, pattern indices) wherever a forbidden factor ends."""
        s = 0
        for i, c in enumerate(word):
            s = self._advance(s, c)
            if self.ends[s]:
                yield i, self.ends[s]

    def first_forbidden_occurrence(self, word) -> Optional[tuple[int, tuple]]:
        """(end_index, pattern) of the earliest forbidden factor, if any;
        of several ending there, the one listed first."""
        return next(((i, self.patterns[ends[0]])
                     for i, ends in self._matches(word)), None)

    def occurrences(self, word) -> list[tuple[int, int, tuple]]:
        """All forbidden occurrences as (start, end, pattern) intervals."""
        return [(i + 1 - len(p), i + 1, p) for i, ends in self._matches(word)
                for p in map(self.patterns.__getitem__, ends)]

    def count_words(self, n: int) -> int:
        return automata.count(self, n)


@dataclass
class NestedShift:
    N_seq: tuple[int, ...]
    forbidden_sets: list  # forbidden_sets[i] = list for level i+1
    automata: list        # automata[i] matches union of F_1..F_{i+1}

    @property
    def levels(self) -> int:
        return len(self.forbidden_sets)

    def admissible(self, word, level: Optional[int] = None) -> bool:
        lvl = self.levels if level is None else level
        return automata.read(self.automata[lvl - 1], word) is not None

    def enumerate(self, n: int, level: Optional[int] = None):
        lvl = self.levels if level is None else level
        return automata.enumerate_words(self.automata[lvl - 1], n)


def build_nested(N_seq: Sequence[int], k_max: Optional[int] = None,
                 budget: int = FORBIDDEN_LIST_BUDGET) -> NestedShift:
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
        if sum(len(w) for c in (cumulative, F_k) for w in c) > budget:
            raise BudgetExceeded("forbidden lists exceed budget")
        forbidden_sets.append(F_k)
        cumulative = cumulative + F_k
        matchers.append(FactorAutomaton(cumulative))
    return NestedShift(N_seq=N_seq, forbidden_sets=forbidden_sets,
                       automata=matchers)


def no_short_periodics(shift: NestedShift, level: int) -> dict:
    """Every periodic stream of period <= level eventually hits a forbidden
    factor within four times the longest pattern; returns the breaking
    factor per candidate period word."""
    rows = []
    auto = shift.automata[level - 1]
    horizon = max(len(p) for a in shift.automata[:level]
                  for p in a.patterns) * 4
    for p_len in range(1, level + 1):
        for v in product((0, 1), repeat=p_len):
            reps = horizon // p_len + 1
            stream = v * reps
            occ = auto.first_forbidden_occurrence(stream)
            rows.append({"period_word": v,
                         "excluded": occ is not None,
                         "breaking_factor": occ[1] if occ else None})
    return {"level": level, "rows": rows,
            "all_excluded": all(r["excluded"] for r in rows)}


def single_edit_repair(word, shift: NestedShift, level: int) -> dict:
    """One edit breaking every forbidden factor at the edited position.

    An edit at p works when the edited word has no forbidden occurrence
    overlapping p and introduces no occurrence absent from the input.
    Occurrences elsewhere in the word (untouched by the edit) may remain;
    repair is local by design.
    """
    word = tuple(word)
    auto = shift.automata[level - 1]
    before = set(auto.occurrences(word))
    if not before:
        return {"word": word, "edit": None, "repaired": word,
                "working_positions": 0, "already_admissible": True}
    working = []
    first_fix = None
    for pos in range(len(word)):
        for sym in (0, 1):
            if sym == word[pos]:
                continue
            cand = word[:pos] + (sym,) + word[pos + 1:]
            after = auto.occurrences(cand)
            if any(a <= pos < b for a, b, _ in after):
                continue
            if not set(after) <= before:
                continue
            working.append(pos)
            if first_fix is None:
                first_fix = (pos, sym, cand, not after)
            break
    if first_fix is None:
        raise NoSingleEditFound(f"no single edit repairs {word}")
    pos, sym, cand, clean = first_fix
    return {"word": word, "edit": (pos, sym), "repaired": cand,
            "working_positions": len(working),
            "lower_bound": len(word) * (1 - 2 / shift.N_seq[0]),
            "fully_admissible": clean,
            "already_admissible": False}


def nested_entropy_report(shift: NestedShift, level: int, n_max: int) -> dict:
    """Exact per-level word counts, growth rates, and inter-level drops."""
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
    return {"n_max": n_max, "counts": table, "rates": rates, "drops": drops}
