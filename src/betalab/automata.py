"""One labelled-automaton core: reading, path counting and enumeration.

A presentation is a deterministic labelled graph: an ``initial`` state, an
``alphabet_bound`` b and ``step(state, sym)``, the target of the edge
labelled sym in {0..b} or None.  Its words are the labels of paths from
``initial`` (Lind & Marcus, *Symbolic Dynamics and Coding*, ch. 3-4).
Every call keeps its own cache and stores nothing on the presentation.
Reading fills a successor table (state -> symbol -> target) the first time
a (state, symbol) pair is met, so each later digit costs one lookup, not a
``step`` call.  Counting and enumeration cache each visited state's edges;
counting groups parallel edges by target with a multiplicity, so k
back-edges to one vertex cost one big-integer multiply, not k additions.
Enumeration yields ``bytes`` words (so b <= 255), which the cyclic garbage
collector does not track, and shares suffixes: a DFS walks the prefixes of
length n - m, and each word is its prefix plus one of its end state's tail
words of length m, from a table built for that call.  m is the largest
length with (b + 1)^m <= TAIL_WORDS, so one state's tail list holds at most
TAIL_WORDS words.  Enumeration is lazy: a caller that stops early never
walks the rest and wastes at most one tail list.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain
from typing import Hashable, Iterator, Optional, Protocol

from .errors import BudgetExceeded, UsageError

TAIL_WORDS = 4096  # bound on the words in one state's tail list


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


def edges(pres: Presentation, state) -> list:
    """(label, target) pairs leaving state, in increasing label order."""
    step = pres.step
    out = []
    for s in range(pres.alphabet_bound + 1):
        t = step(state, s)
        if t is not None:
            out.append((s, t))
    return out


def path_counts(pres: Presentation, n_max: int) -> list[int]:
    """Exact numbers of words of length 1..n_max (big-integer DP)."""
    grouped: dict = {}
    counts = {pres.initial: 1}
    totals = []
    for _ in range(n_max):
        nxt: dict = {}
        for state, c in counts.items():
            out = grouped.get(state)
            if out is None:
                mult: dict = {}
                for _, t in edges(pres, state):
                    mult[t] = mult.get(t, 0) + 1
                out = grouped[state] = list(mult.items())
            for t, m in out:
                add = c if m == 1 else c * m
                if t in nxt:
                    nxt[t] += add
                else:
                    nxt[t] = add
        counts = nxt
        totals.append(sum(counts.values()))
    return totals


def count(pres: Presentation, n: int) -> int:
    """Exact number of words of length n."""
    return path_counts(pres, n)[-1] if n > 0 else 1


def _paths(edges_of, start, depth: int):
    """(labels, end state) of every path of depth edges from start, in
    lexicographic order of the labels (iterative DFS)."""
    if depth == 0:
        yield b"", start
        return
    word: list[int] = []
    stack = [iter(edges_of(start))]
    while stack:
        edge = next(stack[-1], None)
        if edge is None:
            stack.pop()
            if word:
                word.pop()
        elif len(stack) < depth:
            word.append(edge[0])
            stack.append(iter(edges_of(edge[1])))
        else:
            yield bytes((*word, edge[0])), edge[1]


def _runs(edges_of, initial, depth: int, m: int):
    """One lazy run of words per prefix of length depth: the prefix
    followed by each tail word of length m of its end state."""
    tails: dict = {}
    for head, state in _paths(edges_of, initial, depth):
        ends = tails.get(state)
        if ends is None:
            ends = tails[state] = [w for w, _ in _paths(edges_of, state, m)]
        yield map(head.__add__, ends)


def iter_words(pres: Presentation, n: int) -> Iterator[bytes]:
    """Words of length n in lexicographic order, lazily, as bytes."""
    if pres.alphabet_bound > 255:
        raise UsageError(f"alphabet {{0..{pres.alphabet_bound}}} does not "
                         "fit in a byte")
    m, size = 0, pres.alphabet_bound + 1
    while m < n and size ** (m + 1) <= TAIL_WORDS:
        m += 1
    edges_of = cache(partial(edges, pres))
    return chain.from_iterable(_runs(edges_of, pres.initial, n - m, m))


def enumerate_words(pres: Presentation, n: int,
                    budget: Optional[int] = None) -> list[bytes]:
    """All words of length n in lexicographic order, as a list; raises
    BudgetExceeded, before enumerating, when there are more than budget."""
    if budget is not None and count(pres, n) > budget:
        raise BudgetExceeded(f"more than {budget} words")
    return list(iter_words(pres, n))
