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
Enumeration is lazy: a caller that stops early never walks the rest.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain, islice
from typing import Hashable, Iterator, Optional, Protocol

from .errors import BudgetExceeded


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
                nxt[t] = nxt.get(t, 0) + c * m
        counts = nxt
        totals.append(sum(counts.values()))
    return totals


def count(pres: Presentation, n: int) -> int:
    """Exact number of words of length n."""
    return path_counts(pres, n)[-1] if n > 0 else 1


def iter_words(pres: Presentation, n: int) -> Iterator[tuple[int, ...]]:
    """Words of length n in lexicographic order, lazily (iterative DFS)."""
    if n == 0:
        return iter([()])
    edges_of = cache(partial(edges, pres))

    def runs():  # one list per run of words differing in the last symbol
        word: list[int] = []
        stack = [iter(edges_of(pres.initial))]
        while stack:
            if len(stack) < n:
                edge = next(stack[-1], None)
                if edge is not None:
                    word.append(edge[0])
                    stack.append(iter(edges_of(edge[1])))
                    continue
            else:  # the top state's edges end words
                head = tuple(word)
                yield [head + (s,) for s, _ in stack[-1]]
            stack.pop()
            if word:
                word.pop()
    return chain.from_iterable(runs())


def enumerate_words(pres: Presentation, n: int,
                    budget: Optional[int] = None) -> list[tuple[int, ...]]:
    """All words of length n in lexicographic order, as a list; raises
    BudgetExceeded once more than budget words have been found."""
    out = list(islice(iter_words(pres, n), None if budget is None
                      else budget + 1))
    if budget is not None and len(out) > budget:
        raise BudgetExceeded(f"more than {budget} words")
    return out
