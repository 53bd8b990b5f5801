"""What the benchmark in ``perfbench/`` reads of the library.

The benchmark's tracer patches public functions and the methods it names
in ``METHODS`` from their class ``__dict__``, counts the digits of
``greedy_expansion(...).digits`` and walks each built ``CylinderTree.root``
as nested dicts.  A library change that breaks one of these fails here,
not only in the slower benchmark self-test.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import betalab.cli  # noqa: F401  (the tracer patches every betalab layer)
from betalab.beta_core import BetaNumber, greedy_expansion
from betalab.entropy import CylinderTree
from betalab.parry import is_admissible, markov_approx

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracer imports `clock`
    return importlib.import_module("tracer")


def test_tracer_installs_and_restores_every_method(monkeypatch):
    """Every METHODS entry resolves in its class ``__dict__``, and
    uninstalling puts the originals back."""
    tracer = _tracer_module(monkeypatch)
    layers = {layer: sys.modules[f"betalab.{layer}"]
              for layer in tracer.LAYERS}
    methods = [(getattr(layers[layer], path.split(".")[0]),
                path.split(".")[1])
               for layer in tracer.LAYERS for path in tracer.METHODS[layer]]
    originals = [vars(cls).get(meth) for cls, meth in methods]
    tr = tracer.Tracer()
    try:
        tr.install()  # a KeyError names a method the class lacks
        assert tr.names  # something was patched
    finally:
        tr.uninstall()
    assert [vars(cls)[meth] for cls, meth in methods] == originals


def test_expansion_digits_are_bytes_the_reader_accepts(bench_bases):
    for beta in bench_bases.values():
        digits = greedy_expansion(Fraction(1, 3), beta, 40).digits
        assert type(digits) is bytes and len(digits) == 40
        assert is_admissible(digits, beta)


def test_cylinder_trees_are_nested_dicts(monkeypatch, beta_golden):
    """`Tracer.walk_trees` counts distinct dict nodes from each root."""
    tracer = _tracer_module(monkeypatch)
    trees = [CylinderTree.full(1, 6), CylinderTree.from_beta(beta_golden, 6),
             CylinderTree.from_markov(markov_approx(beta_golden, 3), 6)]
    for tree in trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert type(node) is dict
            assert all(type(d) is int for d in node)
            stack.extend(node.values())
    tr = tracer.Tracer()
    tr.trees.append(trees[0])
    assert tr.walk_trees() == 7  # one node per level of the full tree
