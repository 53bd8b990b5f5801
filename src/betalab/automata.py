"""One labelled-automaton core: reading, path counting and enumeration.

A presentation is a deterministic labelled graph: an ``initial`` state, an
``alphabet_bound`` b and ``step(state, sym)``, the target of the edge
labelled sym in {0..b} or None.  Its words are the labels of paths from
``initial`` (Lind & Marcus, *Symbolic Dynamics and Coding*, ch. 3-4).
Every call keeps its own cache and stores nothing on the presentation.
Reading fills a successor table (state -> symbol -> target) the first time
a (state, symbol) pair is met, so each later digit costs one lookup, not a
``step`` call.  Counting and enumeration cache each visited state's edges.
Enumeration yields ``bytes`` words (so b <= 255), which the cyclic garbage
collector does not track, and shares suffixes: a DFS walks the prefixes of
length n - m, and each word is its prefix plus one of its end state's tail
words of length m.  m is the largest length with (b + 1)^m <= TAIL_WORDS,
so one state's tail list holds at most TAIL_WORDS words.
`enumerate_words` gives the words as a lazy ranked sequence, `Words`: it
holds one path count per (state, level) and its tail lists, never the
words, and iteration, a slice and an index are one walk that skips whole
subtrees by their counts, so it never enters a dead end (a state on no
path of length n) and a caller that stops early never walks the rest.
"""

from __future__ import annotations

import operator
import sys
from collections import Counter
from collections.abc import Sequence
from functools import cache, partial
from itertools import chain, islice
from typing import Hashable, Iterator, Optional, Protocol

from .errors import BudgetExceeded, UsageError
from .words import check_byte_alphabet

TAIL_WORDS = 4096  # bound on the words in one state's tail list
EDGE_LABELS = 10 ** 6  # bound on the labels one `edges` call scans


class Presentation(Protocol):
    initial: Hashable
    alphabet_bound: int

    def step(self, state, sym: int) -> Optional[Hashable]: ...


def read(pres: Presentation, digits, start=None):
    """State reached by reading digits from start (default ``initial``), or
    None if some edge is missing; a symbol outside {0..b} has no edge.

    The successor table lives for this call only; nothing is stored on the
    presentation.  An entry is kept for the whole call, so when ``step``
    canonicalizes states lazily (a base that finds its periodic form during
    the read) the read may end in an equivalent, uncanonicalized state.
    """
    state = pres.initial if start is None else start
    step, symbols = pres.step, range(pres.alphabet_bound + 1)
    table: dict = {}
    for s in digits:
        try:
            state = table[state][s]
        except KeyError:
            row = table.setdefault(state, {})
            row[s] = state = step(state, s) if s in symbols else None
        if state is None:
            return None
    return state


def check_labels(bound: int) -> None:
    """BudgetExceeded when the alphabet {0..bound} has more than
    EDGE_LABELS labels to scan."""
    if bound >= EDGE_LABELS:
        raise BudgetExceeded(f"more than {EDGE_LABELS} edge labels to scan")


def edges(pres: Presentation, state) -> list:
    """(label, target) pairs leaving state, in increasing label order;
    BudgetExceeded when the alphabet has more than EDGE_LABELS labels."""
    check_labels(pres.alphabet_bound)
    step = pres.step
    out = []
    for s in range(pres.alphabet_bound + 1):
        t = step(state, s)
        if t is not None:
            out.append((s, t))
    return out


def path_counts(pres: Presentation, n_max: int) -> list[int]:
    """Exact numbers of words of length 1..n_max (big-integer DP)."""
    edges_of = cache(partial(edges, pres))
    counts = {pres.initial: 1}
    totals = []
    for _ in range(n_max):
        nxt: dict = {}
        for state, c in counts.items():
            for _, t in edges_of(state):
                nxt[t] = nxt.get(t, 0) + c
        counts = nxt
        totals.append(sum(counts.values()))
    return totals


def reach(edges_of, initial, depth: int) -> list[set]:
    """The sets of states at the ends of paths of j edges from initial, for
    j = 0..depth; ``edges_of(state)`` gives a state's (label, target)
    pairs, as `edges` does."""
    levels = [{initial}]
    for _ in range(depth):
        levels.append({t for state in levels[-1] for _, t in edges_of(state)})
    return levels


def _paths(edges_of, start, depth: int, below, rank: int = 0):
    """(labels, end state, rank) of every path of depth edges from start, in
    lexicographic order of the labels (iterative DFS).  Each subtree whose
    count ``below[j][target]`` (as in `Words`, j edges taken) is at most
    rank is skipped and its count taken off rank, so no subtree of count 0
    is entered; the first path yielded carries the rank left, the rest 0."""
    if depth == 0:
        yield b"", start, rank
        return
    word, stack = [], [iter(edges_of(start))]
    while stack:
        edge = next(stack[-1], None)
        if edge is None:
            stack.pop()
            del word[-1:]  # no label left once start's edges run out
        elif (skip := below[len(stack)][edge[1]]) <= rank:
            rank -= skip
        elif len(stack) < depth:
            word.append(edge[0])
            stack.append(iter(edges_of(edge[1])))
        else:
            yield bytes((*word, edge[0])), edge[1], rank
            rank = 0


def _tail_length(pres: Presentation, n: int) -> int:
    """The tail length m for words of length n; UsageError when the
    alphabet does not fit in a byte or n is negative."""
    check_byte_alphabet(pres.alphabet_bound)
    if n < 0:
        raise UsageError("n must be >= 0")
    m, size = 0, pres.alphabet_bound + 1
    while m < n and size ** (m + 1) <= TAIL_WORDS:
        m += 1
    return m


class Words(Sequence):
    """The words of length n of a presentation in lexicographic order, as a
    lazy ranked sequence of bytes.

    It holds, for each level j and each state reachable by j edges, the
    number of paths of n - j edges from that state (Nijenhuis & Wilf,
    *Combinatorial Algorithms*, 1978): O(states x n) integers, never the
    words.  Iteration, a slice and ``words[i]`` are one walk, `_paths`,
    which skips each subtree whose count is at most the rank still to go,
    so every subtree of count 0: to depth n for an index, which builds no
    tail list, and to depth n - m for a stream, whose first tail list
    starts at the rank left.  Slices share their tail lists, at most
    TAIL_WORDS words per end state; an iterator keeps its own.  ``==``
    compares item by item with any sequence.  ``bool`` and indexing read
    the exact count; past sys.maxsize words, ``len`` and a slice that
    walks that far raise BudgetExceeded.
    """

    def __init__(self, pres: Presentation, n: int):
        self._pres, self._n = pres, n
        self._edges_of = edges_of = cache(partial(edges, pres))
        self._tails: dict = {}  # filled by slices, shared between them
        levels = reach(edges_of, pres.initial, n)
        # [j][state]: paths of n - j edges from state, in Counters, which
        # unlike plain dicts go back to the allocator once the words drop
        below = Counter(dict.fromkeys(levels[-1], 1))
        self._below = [below]
        for states in reversed(levels[:-1]):
            below = Counter({state: sum(below[t] for _, t in edges_of(state))
                             for state in states})
            self._below.append(below)
        self._below.reverse()
        self._size = below[pres.initial]
        self._m = _tail_length(pres, n)  # after reach: edges' budget first

    def __len__(self) -> int:
        if self._size > sys.maxsize:
            raise BudgetExceeded(f"more than {sys.maxsize} words")
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            r = range(self._size)[key]
            if not r:
                return []
            step, span = abs(r.step), abs(r[-1] - r[0])
            if span >= sys.maxsize:
                raise BudgetExceeded(f"slice walks past {sys.maxsize} words")
            runs = self._runs(min(r[0], r[-1]), self._tails)
            out = list(islice(chain.from_iterable(runs), 0, span + 1, step))
            return out if r.step > 0 else out[::-1]
        i = operator.index(key)
        if not -self._size <= i < self._size:
            raise IndexError("word index out of range")
        return next(_paths(self._edges_of, self._pres.initial, self._n,
                           self._below, i % self._size))[0]

    def __iter__(self) -> Iterator[bytes]:
        return chain.from_iterable(self._runs(0, {}))

    def _runs(self, rank: int, tails: dict):
        """Lazy runs of the words from the rank-th on: each prefix of the
        walk to depth n - m and its end state's tail words from the rank
        left, kept in tails (state -> tail words) as states are met."""
        edges_of, m, below = self._edges_of, self._m, self._below
        for head, state, rank in _paths(edges_of, self._pres.initial,
                                        self._n - m, below, rank):
            ends = tails.get(state)
            if ends is None:
                ends = tails[state] = [w for w, _, _ in _paths(
                    edges_of, state, m, below[-m - 1:])]
            yield map(head.__add__, ends[rank:] if rank else ends)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._size == len(other) and all(map(operator.eq, self, other))


enumerate_words = Words  # all words of length n, as a lazy ranked sequence
