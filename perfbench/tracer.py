"""Span tracing of betalab's public API, installed from outside the library.

`Tracer.install()` replaces every traced function or method by a wrapper
that records one span (name, start, end, parent span, job id) per call.
Module-level functions are patched in every betalab module that binds them,
because `betalab.cli` imports names at module top while `irregular` and
`entropy` import from `parry` inside function bodies (those read the
patched module attribute at call time).  `Tracer.uninstall()` restores the
originals, so a plain job run after it executes the untouched library.

Spans live in typed arrays while the job runs and are written out once, by
`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import zipfile
from array import array
from collections import defaultdict

from clock import CLOCK

LAYERS = ("beta_core", "words", "parry", "observables", "entropy",
          "irregular", "exotic", "cli")

# Methods and classmethods traced besides every public module-level
# function.  Per-symbol stepping methods (Automaton.step, digit_at, ...) are
# left out on purpose: they run millions of times per job and a wrapper
# would dominate what it measures; their time lands in the caller's layer.
METHODS = {
    "beta_core": ("BetaNumber.from_decimal", "BetaNumber.from_polynomial",
                  "BetaNumber.from_digit_string", "BetaNumber.digits",
                  "AlgebraicContext.floor_vector", "AlgebraicContext.refine_to"),
    "words": ("SymbolWord.hamming",),
    "parry": ("MarkovApprox.enumerate_words",),
    "observables": ("Observable.average_on_word", "Observable.periodic_average"),
    "entropy": ("CylinderTree.full", "CylinderTree.from_beta",
                "CylinderTree.from_markov"),
    "irregular": (),
    "exotic": ("FactorAutomaton.count_words", "NestedShift.enumerate"),
    "cli": (),
}

TREE_BUILDERS = tuple(f"entropy.{m}" for m in METHODS["entropy"])


def _public_functions(module):
    for name, obj in sorted(vars(module).items()):
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """In-memory span recorder plus the counters named by the benchmark."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.trees: list = []  # built tries, walked after the job ends
        self._restore: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {layer: sys.modules[f"betalab.{layer}"] for layer in LAYERS}
        for layer, module in mods.items():
            for name, fn in _public_functions(module):
                self._patch_function(f"{layer}.{name}", fn)
            for path in METHODS[layer]:
                cls_name, meth = path.split(".")
                self._patch_method(f"{layer}.{path}",
                                   getattr(module, cls_name), meth)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch_function(self, qualname: str, fn) -> None:
        wrapper = self._wrap(qualname, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "betalab" and not mod_name.startswith("betalab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def _patch_method(self, qualname: str, cls, meth: str) -> None:
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(qualname, raw.__func__))
        else:
            patched = self._wrap(qualname, raw)
        self._restore.append((cls, meth, raw))
        setattr(cls, meth, patched)

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        count = _COUNTERS.get(qualname)
        tr, clock = self, CLOCK.now  # reference seconds, as in run.py

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.job.append(tr.job_id)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tr.stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if count is not None:
                count(tr, args, kwargs, result)
            return result

        return traced

    # -- per-job summary ---------------------------------------------------

    def job_summary(self, job_id: int, job_s: float) -> dict:
        """Per-name calls and inclusive time, per-layer self time, and the
        harness time outside every top-level span, for one traced job."""
        import numpy as np  # not at module top: it would add to peak RSS

        job = np.frombuffer(self.job, dtype=np.int32)
        sel = np.flatnonzero(job == job_id)
        out: dict[str, float] = {"trace.job_s": job_s,
                                 "harness.self_s": job_s}
        if not len(sel):
            return out
        lo, hi = int(sel[0]), int(sel[-1]) + 1  # a job's spans are contiguous
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        dur = np.frombuffer(self.end, dtype=np.float64)[lo:hi] - start
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        name = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        nested = parent >= 0
        excl = dur - np.bincount(parent[nested] - lo, weights=dur[nested],
                                 minlength=hi - lo)
        out["harness.self_s"] = job_s - float(dur[~nested].sum())
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        self_time = np.bincount(name, weights=excl, minlength=n)
        for i in np.flatnonzero(calls):
            qual = self.names[i]
            layer = f"{qual.split('.')[0]}.self_s"
            out[f"{qual}.calls"] = int(calls[i])
            out[f"{qual}.s"] = float(incl[i])
            out[layer] = out.get(layer, 0.0) + float(self_time[i])
        return out

    def walk_trees(self) -> int:
        """Distinct dict nodes over the tries built since the last walk."""
        seen: set[int] = set()
        for tree in self.trees:
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.extend(node.values())
        self.trees.clear()
        return len(seen)

    def dump(self, path) -> None:
        """Write every span: names.json plus one raw array per column."""
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED,
                             compresslevel=1) as zf:
            zf.writestr("names.json", json.dumps(self.names))
            for col in ("name_id", "parent", "job", "start", "end"):
                zf.writestr(f"{col}.{getattr(self, col).typecode}",
                            getattr(self, col).tobytes())


# -- counters recorded at the same boundaries as the spans ------------------

def _count_len(key, pick):
    def count(tr, args, kwargs, result):
        tr.counters[key] += len(pick(args, kwargs, result))
    return count


def _count_tree(tr, args, kwargs, result):
    tr.trees.append(result)


def _count_bound_direction(tr, args, kwargs, result):
    tr.counters["entropy.separation_results"] += 1
    tr.counters["entropy.exact_results"] += result.bound_direction == "exact"


def _count_box_estimates(tr, args, kwargs, result):
    tr.counters["entropy.estimates"] += len(result["rows"])


def _count_bowen_estimate(tr, args, kwargs, result):
    tr.counters["entropy.estimates"] += 1


def _count_pools(tr, args, kwargs, result):
    bound = inspect.signature(
        sys.modules["betalab.irregular"].build_word_pools).bind(*args, **kwargs)
    bound.apply_defaults()
    tr.counters["irregular.pool_words"] += sum(p.size for p in result)
    tr.counters["irregular.pool_slots"] += (len(result)
                                            * bound.arguments["pool_cap"])


def _count_edits(tr, args, kwargs, result):
    tr.counters["irregular.glue_edits"] += result.edits


_COUNTERS = {
    "beta_core.greedy_expansion": _count_len(
        "beta_core.greedy_expansion.digits", lambda a, k, r: r),
    "parry.is_admissible": _count_len(
        "parry.is_admissible.digits", lambda a, k, r: a[0]),
    "parry.enumerate_admissible": _count_len(
        "parry.enumerate_admissible.words", lambda a, k, r: r),
    "observables.Observable.average_on_word": _count_len(
        "observables.Observable.average_on_word.digits", lambda a, k, r: a[1]),
    "exotic.NestedShift.enumerate": _count_len(
        "exotic.NestedShift.enumerate.words", lambda a, k, r: r),
    "entropy.max_separated": _count_bound_direction,
    "entropy.min_spanning": _count_bound_direction,
    "entropy.bowen_entropy": _count_bowen_estimate,
    "entropy.box_dimension_estimate": _count_box_estimates,
    "irregular.build_word_pools": _count_pools,
    "irregular.glue_blocks": _count_edits,
    **{name: _count_tree for name in TREE_BUILDERS},
}


def per_layer_metrics(summary: dict, counters: dict, trie_nodes: int) -> dict:
    """Fold a traced job's span summary and counters into named metrics."""
    m = {**summary, **counters}

    def get(key):
        return m.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m["beta_core.refine_per_floor"] = ratio(
        get("beta_core.AlgebraicContext.refine_to.calls"),
        get("beta_core.AlgebraicContext.floor_vector.calls"))
    m["entropy.CylinderTree.build_s"] = sum(get(f"{b}.s") for b in TREE_BUILDERS)
    m["entropy.trie_nodes"] = trie_nodes
    m["entropy.cover_cost_per_estimate"] = ratio(
        get("entropy.cover_cost.calls"), get("entropy.estimates"))
    m["entropy.exact_ratio"] = ratio(get("entropy.exact_results"),
                                     get("entropy.separation_results"))
    m["irregular.pool_fill_ratio"] = ratio(get("irregular.pool_words"),
                                           get("irregular.pool_slots"))
    return m
