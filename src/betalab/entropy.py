"""Mistake-tolerant separation combinatorics and cover-based entropy.

Real separation scales are discretized: in the shift metric, two points are
epsilon-apart at time j exactly when their digits disagree somewhere in the
window [j, j+m), where m = min{k >= 1 : beta^-k <= epsilon}.  Every
operation here is therefore parameterized by the integer window m, making
all quantities exactly computable (m = 1 corresponds to any epsilon in
(1/beta, 1)).

``SeparationInstance.ball`` is a word's whole mistake ball over a set of
``bytes`` words, one bitset; ``mistake_ball_contains`` is a budgeted pair scan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from operator import itemgetter
from typing import Callable, Optional, Sequence

from . import automata
from .errors import BudgetExceeded, UsageError
from .observables import exact
from .parry import (
    Automaton,
    enumerate_admissible,
    is_admissible,
    z_values,
)
from .words import as_word, format_digits

EXACT_WORDS_BUDGET = 20
# nodes one exact search may try; a search over at most EXACT_WORDS_BUDGET
# words tries fewer, so only ``--exact`` can reach it
EXACT_NODE_BUDGET = 2 << EXACT_WORDS_BUDGET
BISECTION_TOL = 1e-4  # width of the cover-cost transition brackets


class MistakeFunction:
    """Sublinear mistake allowance n -> g(n), monotone in n."""

    def __init__(self, name: str, fn: Callable[[int], int]):
        self.name = name
        self._fn = fn
        self._values: dict[int, int] = {}  # n -> checked g(n)

    def __call__(self, n: int) -> int:
        g = self._values.get(n)
        if g is None:
            g = int(self._fn(n))
            if g < 0:
                raise UsageError(f"mistake function {self.name} went negative")
            self._values[n] = g
        return g

    @classmethod
    def zero(cls) -> "MistakeFunction":
        return cls("zero", lambda n: 0)

    @classmethod
    def constant(cls, c: int) -> "MistakeFunction":
        return cls(f"const:{c}", lambda n: c)

    @classmethod
    def log2(cls) -> "MistakeFunction":
        return cls("log", lambda n: (n - 1).bit_length() if n > 1 else 0)

    @classmethod
    def parse(cls, spec: str) -> "MistakeFunction":
        if spec in ("zero", "0"):
            return cls.zero()
        if spec == "log":
            return cls.log2()
        if spec.startswith("const:") and spec[6:].isdecimal():
            return cls.constant(int(spec[6:]))
        raise UsageError(f"unknown mistake function spec {spec!r}")


def mistake_ball_contains(x, y, g: MistakeFunction, window: int = 1) -> bool:
    """y lies in the length-n mistake ball around x: at most g(n) positions
    j see a disagreement in [j, j + window).  One scan of any two int
    sequences counts g(n) down: a disagreement at i, after the last one at
    i' (-1 at the start), makes min(window, i - i') more positions bad."""
    n = len(x)
    if len(y) != n:
        raise UsageError(f"{n} vs {len(y)}")
    if window < 1:
        raise UsageError("window must be >= 1")
    left, last = g(n), -1
    for i, a in enumerate(x):
        if a != y[i]:
            gap = i - last
            left -= gap if gap < window else window
            if left < 0:
                return False
            last = i
    return True


def _doubling(m: int) -> list[int]:
    """Shifts s of the steps ``f |= f >> s`` that OR f[j..j + m) into f[j]:
    spans 1, 2, 4, ..., then one step that overlaps up to m."""
    steps = [1 << i for i in range(m.bit_length() - 1)]
    return steps + [m - (1 << len(steps))] if m & (m - 1) else steps


@dataclass
class SeparationInstance:
    """A finite word set with the window and mistake budget to test at.

    Words are read once, as ``bytes`` (`words.as_word`).  ``ball(c)`` is
    word c's mistake ball over the set as one bitset (bit z for word z),
    each look-ahead cut at the word's end, by one of two kernels, each
    with its own table, built on first use.  Bit sliced: ``columns[p][s]``
    is the bitset of the words with digit s at p, and a ball is about
    n (2 g(n) + log window) operations on k bits.  Packed: ``codes[i]``
    holds digit p of word i in bits [p*w, (p+1)*w), w the bit length of
    the largest digit (at least 1), and a ball is about k (log w + log
    window) operations on n*w bits.  ``sliced`` is set to the kernel of
    fewer operations, which is the slices for many short words.
    """

    words: tuple
    window: int = 1
    g: MistakeFunction = field(default_factory=MistakeFunction.zero)
    exact: bool = False  # search exactly above EXACT_WORDS_BUDGET words too

    def __post_init__(self):
        self.words = words = tuple(map(as_word, self.words))
        if not words:
            raise UsageError("empty word set")
        n, k = len(words[0]), len(words)
        if any(len(w) != n for w in words):
            raise UsageError("all words must share one length")
        if self.window < 1:
            raise UsageError("window must be >= 1")
        self.threshold = t = self.g(n)
        top = max(map(max, words)) if n else 0  # the largest digit
        self._width = width = max(top.bit_length(), 1)
        self.full = (1 << k) - 1
        self._spans = spans = _doubling(min(self.window, n))
        # bit p*w of the shifted f: a digit differs in [p, p + window)
        shifts = _doubling(width) + [s * width for s in spans]
        low = ((1 << n * width) - 1) // ((1 << width) - 1)

        def bad(x: int, y: int) -> int:
            f = x ^ y
            for s in shifts:
                f |= f >> s
            return (f & low).bit_count()

        self._bad = bad
        # the big-integer operations of one ball by each kernel
        self.sliced = n * (2 * t + len(spans) + 2) <= k * (len(shifts) + 3)

    @cached_property
    def columns(self) -> list[dict]:
        """Column p as bytes, the last word first: digit s -> b"1", every
        other digit -> b"0", read in base 2, is the bitset of s at p."""
        backwards, columns = self.words[::-1], []
        for p in range(len(self.words[0])):
            text = bytes(map(itemgetter(p), backwards))
            columns.append({s: int(text.translate(
                b"0" * s + b"1" + b"0" * (255 - s)), 2) for s in set(text)})
        return columns

    @cached_property
    def codes(self) -> list[int]:
        """Word i as one integer, digit p in bits [p*w, (p+1)*w)."""
        bits = [format(d, f"0{self._width}b") for d in range(256)]
        return [int("".join(map(bits.__getitem__, reversed(x))) or "0", 2)
                for x in self.words]

    def ball(self, c: int, start: int = 0) -> int:
        """Bit z, for each z >= start, is set when word z lies in the
        mistake ball of word c; start < k."""
        t, full = self.threshold, self.full
        if t >= len(self.words[0]):
            return full >> start << start
        if not self.sliced:
            bad, x = self._bad, self.codes[c]
            hits = ["1" if bad(x, y) <= t else "0"
                    for y in reversed(self.codes[start:])]
            return int("".join(hits), 2) << start
        # d[p]: the words that differ from c at p, then (ORed over the
        # look-ahead) those for which p is bad; over[i]: those with more
        # than i bad positions so far, a saturating unary counter
        d = [full ^ col[s] for col, s in zip(self.columns, self.words[c])]
        for s in self._spans:
            d[:len(d) - s] = [a | b for a, b in zip(d, d[s:])]
        over = [0] * (t + 1)
        for bad in d:
            for i in range(t, 0, -1):
                over[i] |= over[i - 1] & bad
            over[0] |= bad
        return (full ^ over[t]) >> start << start

    @cached_property
    def cover_masks(self) -> list[int]:
        """Entry c is the ball of word c; built on first use.  The packed
        kernel tests each pair once: z is in c's ball when c is in z's."""
        k, t = len(self.words), self.threshold
        if self.sliced or t >= len(self.words[0]):
            return [self.ball(c) for c in range(k)]
        bad, codes = self._bad, self.codes
        masks = [1 << i for i in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                if bad(codes[i], codes[j]) <= t:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return masks


@dataclass
class SeparationResult:
    size: int
    witness: list
    bound_direction: str  # "exact", "lower" (packing) or "upper" (cover)

    @property
    def exact(self) -> bool:
        return self.bound_direction == "exact"


def _distinct_words(inst: SeparationInstance) -> SeparationResult:
    """Both answers at g(n) = 0, where a ball holds only copies of its centre:
    the distinct words, in first-occurrence order."""
    witness = list(dict.fromkeys(inst.words))
    return SeparationResult(len(witness), witness, "exact")


def max_separated(inst: SeparationInstance) -> SeparationResult:
    """Largest pairwise-separated subset; exact below the search budget."""
    k = len(inst.words)
    if inst.threshold == 0:
        return _distinct_words(inst)
    if inst.exact or k <= EXACT_WORDS_BUDGET:
        full = inst.full
        adj = [full ^ m for m in inst.cover_masks]
        best_mask = 0
        # branch and bound, depth first: take the lowest candidate v, then
        # (popped after that whole subtree) leave it out
        stack = [(full, 0, 0)]
        popped = 0
        while stack:
            popped += 1
            if popped > EXACT_NODE_BUDGET:
                raise BudgetExceeded(
                    f"exact search passed {EXACT_NODE_BUDGET} nodes")
            cand, cur, cur_size = stack.pop()
            if cur_size + cand.bit_count() <= best_mask.bit_count():
                continue
            if cand == 0:  # the bound above makes this the new best
                best_mask = cur
                continue
            v = (cand & -cand).bit_length() - 1
            stack.append((cand & ~(1 << v), cur, cur_size))
            stack.append((cand & adj[v], cur | (1 << v), cur_size + 1))
        witness = [inst.words[i] for i in range(k) if best_mask >> i & 1]
        return SeparationResult(len(witness), witness, "exact")
    # greedy: the lowest word outside the balls taken so far, then its ball
    chosen: list[int] = []
    covered = 0
    while covered != inst.full:
        i = (~covered & (covered + 1)).bit_length() - 1
        chosen.append(i)
        covered |= inst.ball(i, i)  # every word below i is covered
    witness = [inst.words[i] for i in chosen]
    return SeparationResult(len(witness), witness, "lower")


def min_spanning(inst: SeparationInstance) -> SeparationResult:
    """Smallest subset whose mistake balls cover the whole word set."""
    if inst.threshold == 0:
        return _distinct_words(inst)
    k = len(inst.words)
    cover_masks = inst.cover_masks
    full = inst.full
    if not inst.exact and k > EXACT_WORDS_BUDGET:
        greedy: list[int] = []
        covered = 0
        while covered != full:  # the first ball of largest gain
            best = max(range(k), key=lambda c: (cover_masks[c]
                                                & ~covered).bit_count())
            greedy.append(best)
            covered |= cover_masks[best]
        witness = [inst.words[i] for i in greedy]
        return SeparationResult(len(witness), witness, "upper")
    # branch and bound, depth first: take ball i, then (popped after that
    # subtree) leave it out.  Covers come in the lexicographic order of their
    # indices, and only a smaller one replaces the best: the first least wins
    best_cover = tuple(range(k))  # the whole set covers itself
    dead = [full] * (k + 1)  # bit z of dead[i]: no ball at index >= i holds z
    for i in reversed(range(k)):
        dead[i] = dead[i + 1] & ~cover_masks[i]
    stack = [(0, (), full)]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > EXACT_NODE_BUDGET:
            raise BudgetExceeded(
                f"exact search passed {EXACT_NODE_BUDGET} nodes")
        i, chosen, uncovered = stack.pop()
        if not uncovered:  # the bound below makes this the new best
            best_cover = chosen
            continue
        if uncovered & dead[i]:
            continue
        gain = max((m & uncovered).bit_count() for m in cover_masks[i:])
        if len(chosen) - (-uncovered.bit_count() // gain) >= len(best_cover):
            continue
        stack.append((i + 1, chosen, uncovered))
        stack.append((i + 1, chosen + (i,), uncovered & ~cover_masks[i]))
    witness = [inst.words[i] for i in best_cover]
    return SeparationResult(len(witness), witness, "exact")


# --- Katok-style finite-scale estimates -----------------------------------

def katok_entropy_estimate(sampler, g: MistakeFunction, gamma: float,
                           n_list: Sequence[int], window: int = 1,
                           method: str = "separated") -> dict:
    """Finite-scale analogue of the mistake-tolerant entropy formula.

    The sampler gives N equally likely words of length n.  Dropping mass
    gamma (read exactly, as its decimal literal) drops the floor(gamma N)
    lexicographically first; each row reports (1/n) log of the kept set's
    separated (or spanning) count under g and under zero mistakes; the
    latter is the number of distinct kept words for either method.

    Each row is a finite-n estimate.  ``exact_<label>`` False means the
    count came from the greedy search: a lower bound for "separated", an
    upper bound for "spanning".  The g and zero-mistake estimates agree
    only as n -> infinity: a maximal g-separated set spans the kept set
    with mistake balls, so the zero-mistake estimate exceeds the g one by
    at most (1/n) log of the largest mistake-ball volume, which tends to 0
    because g(n)/n does.  At small n that bound is far from 0: for binary
    words with window 1 and g = log2 it is 0.52 at n = 14 and first falls
    below 0.1 at n = 414.
    """
    if not 0 < gamma < 1:
        raise UsageError("gamma must lie in (0, 1)")
    if not n_list or any(n < 1 for n in n_list):
        raise UsageError("at least one word length, each >= 1, is required")
    search = {"separated": max_separated, "spanning": min_spanning}.get(method)
    if search is None:
        raise UsageError(f"method must be separated or spanning: {method!r}")
    rows = []
    for n in n_list:
        sample = sorted(sampler(n))
        if not sample:
            raise UsageError(f"sampler produced nothing at n={n}")
        dropped = math.floor(exact(gamma, "gamma") * len(sample))
        inst = SeparationInstance(sample[dropped:], window=window, g=g)
        row = {"n": n, "kept_words": len(inst.words),
               "kept_mass": round(len(inst.words) / len(sample), 12)}
        for label, res in (("g", search(inst)),
                           ("zero", _distinct_words(inst))):
            row[f"count_{label}"] = res.size
            row[f"estimate_{label}"] = math.log(res.size) / n
            row[f"exact_{label}"] = res.exact
        row["difference"] = abs(row["estimate_g"] - row["estimate_zero"])
        rows.append(row)
    return {"gamma": gamma, "mistake_function": g.name, "rows": rows}


def uniform_admissible_sampler(beta):
    """All admissible words of each length, equally likely."""
    return partial(enumerate_admissible, beta)


# --- cylinder trees and cover entropy -------------------------------------

class CylinderTree:
    """Digit trie presenting a set of streams through its depth-D prefixes.

    Nodes are dicts digit -> child.  Trees built from a presentation share
    one node per (state, level), a DAG of (states x depth) nodes rather than
    one node per word.  ``levels[d]`` lists the distinct nodes at depth d.
    """

    def __init__(self, root: dict, alphabet_bound: int):
        self.root = root
        self.alphabet_bound = alphabet_bound
        levels = [[root]]
        while True:
            nxt = {id(c): c for node in levels[-1] for c in node.values()}
            if not nxt:
                break
            levels.append(list(nxt.values()))
        self.levels = levels
        self.depth = len(levels) - 1

    @classmethod
    def full(cls, alphabet_bound: int, depth: int) -> "CylinderTree":
        node: dict = {}
        for _ in range(depth):
            node = dict.fromkeys(range(alphabet_bound + 1), node)
        return cls(node, alphabet_bound)

    @classmethod
    def _from_presentation(cls, pres, depth: int) -> "CylinderTree":
        """Words of length <= depth of a presentation (`betalab.automata`),
        one node per (state, level)."""
        edges_of = cache(partial(automata.edges, pres))
        reach = automata.reach(edges_of, pres.initial, depth)
        below: dict = {state: {} for state in reach[-1]}
        for states in reversed(reach[:-1]):
            below = {state: {s: below[t] for s, t in edges_of(state)}
                     for state in states}
        return cls(below[pres.initial], pres.alphabet_bound)

    @classmethod
    def from_beta(cls, beta, depth: int) -> "CylinderTree":
        return cls._from_presentation(Automaton(beta), depth)

    @classmethod
    def from_markov(cls, approx, depth: int) -> "CylinderTree":
        return cls._from_presentation(approx, depth)

    @classmethod
    def from_json(cls, text: str) -> "CylinderTree":
        """A tree written as {"alphabet_bound": b, "trie": nested objects
        keyed by the digits 0..b}."""
        def conv(node):
            out = {int(k): conv(v) for k, v in node.items()}
            if not all(k in digits for k in out):
                raise ValueError(f"digit key outside 0..{bound}")
            return out
        try:
            data = json.loads(text)
            bound = int(data["alphabet_bound"])
            if bound < 0:
                raise ValueError("negative alphabet bound")
            digits = range(bound + 1)
            return cls(conv(data["trie"]), bound)
        except (ValueError, KeyError, TypeError, AttributeError,
                RecursionError) as exc:
            raise UsageError(f"not a cylinder tree: {exc!r}") from exc


def cover_cost(tree: CylinderTree, s: float, n_min: int,
               max_depth: Optional[int] = None) -> float:
    """M(Z, s, N): optimal weighted cover by trie cylinders of depth in
    [n_min, max_depth].

    One bottom-up pass computes r(node, d) = M(node, d) / e^(-s d) =
    min([d >= N], e^(-s) * sum of r over the children), which does not
    underflow where e^(-s d) does; M at the root is r there.
    """
    if n_min < 1:
        raise UsageError(f"N must be >= 1, got {n_min}")
    depth_cap = tree.depth if max_depth is None else min(max_depth, tree.depth)
    if n_min > depth_cap:
        raise UsageError(f"N={n_min} exceeds usable depth {depth_cap}")
    decay = math.exp(-s)
    below: dict = {}
    for d in range(depth_cap, -1, -1):
        here = 1.0 if d >= n_min else math.inf
        cur = {}
        for node in tree.levels[d]:
            r = here
            if node and d < depth_cap:
                r = min(here, decay * sum(below[id(c)] for c in node.values()))
            cur[id(node)] = r
        below = cur
    return below[id(tree.root)]


@dataclass
class CoverEntropyReport:
    estimate: float
    bracket: tuple[float, float]
    depth: int
    monotonicity: list  # rows (s, [(N, M)]) certifying M nondecreasing in N


def _crossing(cost_at, lo: float, hi: float) -> float:
    """s where the decreasing cover cost crosses 1, to BISECTION_TOL."""
    while cost_at(hi) >= 1.0:
        hi *= 1.5
        if hi > 64:
            raise UsageError("cover cost never drops below 1")
    while hi - lo > BISECTION_TOL:
        mid = (lo + hi) / 2
        if cost_at(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def bowen_entropy(tree: CylinderTree, n_min: int = 1) -> CoverEntropyReport:
    """Finite-depth transition point of M(Z, s, N) in s, to BISECTION_TOL;
    monotonicity in N is certified on N = 1, D/4, D/2, D for depth D."""
    est = _crossing(lambda s: cover_cost(tree, s, n_min), 0.0,
                    math.log(tree.alphabet_bound + 1) + 0.5)
    grid = sorted({1, max(1, tree.depth // 4), max(1, tree.depth // 2),
                   tree.depth})
    mono = []
    for s in (max(est - 0.1, 0.0), est, est + 0.1):
        row = [(N, cover_cost(tree, s, N)) for N in grid if N <= tree.depth]
        mono.append((s, row))
    return CoverEntropyReport(
        estimate=est, bracket=(est - BISECTION_TOL, est + BISECTION_TOL),
        depth=tree.depth, monotonicity=mono)


def box_dimension_estimate(tree: CylinderTree, beta, depth_list) -> dict:
    """Transition exponent of the cover cost with d_beta cylinder diameters."""
    if not depth_list:
        raise UsageError("depth list must be nonempty")
    log_b = beta.log
    rows = []
    for d in depth_list:
        if d < 1:
            raise UsageError(f"depth {d} must be >= 1")
        if d > tree.depth:
            raise UsageError(f"depth {d} exceeds tree depth {tree.depth}")
        est = _crossing(
            lambda a: cover_cost(tree, a * log_b, 1, max_depth=d),
            0.0, 2.0)
        rows.append({"depth": d, "alpha": est})
    return {"rows": rows, "estimate": rows[-1]["alpha"]}


def cylinder_diameter_bounds(beta, word) -> tuple[float, float]:
    """[beta^-(n+z_n), beta^-n] in the d_beta metric; exact at w(beta) prefixes."""
    if not is_admissible(word, beta):
        raise UsageError(f"{format_digits(word)} is not admissible")
    n = len(word)
    zn = z_values(beta, n).z[n - 1]
    b = beta.value
    lower = b ** -(n + zn)
    upper = b ** -n
    if tuple(word) == beta.digits(n):
        return lower, lower
    return lower, upper


def dimension_bounds(h: float, beta, z_ratio: float,
                     bounded_z_certificate: bool = False) -> dict:
    """Entropy-to-dimension sandwich in the d_beta metric."""
    if not (math.isfinite(h) and math.isfinite(z_ratio)):
        raise UsageError("entropy and z ratio must be finite")
    if h < 0 or z_ratio < 0:
        raise UsageError("entropy and z ratio must be nonnegative")
    log_b = beta.log
    upper = h / log_b
    if bounded_z_certificate:
        return {"lower": upper, "upper": upper, "flag": "bounded-z"}
    if z_ratio < 1:
        return {"lower": h / ((1 + z_ratio) * log_b), "upper": upper,
                "flag": "sandwich"}
    return {"lower": 0.0, "upper": upper, "flag": "z-ratio>=1"}
