"""Every name a library module imports is used in that module, and every
public name, dataclass field and instance attribute it defines is used by
the library or the benchmark.

Deleting code can leave its imports behind, a public function can outlive
its last caller, and a field can outlive its last reader; these checks
find all three with the standard library's ``ast``.  ``__init__.py`` is
skipped by the import check: its imports are the package's re-exports.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "betalab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never loaded afterwards."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import io\nfrom math import log, sqrt\nprint(sqrt(2))\n"
    assert unused_imports(source) == ["io (line 1)", "log (line 2)"]


def public_definitions(source: str) -> list[str]:
    """Public functions and classes at module level, and public methods of
    public classes, as "name" or "Class.method"."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    return out


def private_definitions(source: str) -> list[str]:
    """Private functions and classes at module level, and private methods
    of any class (a single leading underscore; dunders are the
    interpreter's), as "name" or "Class.method"."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if private(node.name):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and private(item.name)]
    return out


def referenced_names(source: str) -> set[str]:
    """Every name a module loads or imports, every attribute it reads, and
    each part of a dotted string constant ("Class.method", the form in
    which the benchmark's tracer names the methods it patches)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            names.update(node.value.split("."))
    return names


def unused_definitions(defining: dict, using: list,
                       definitions=public_definitions) -> list[str]:
    """Definitions (public by default; module name -> source) that no
    source in using references by name; the tests are not among the
    users."""
    used = set().union(*map(referenced_names, using))
    return [f"{module}.{name}" for module, source in sorted(defining.items())
            for name in definitions(source)
            if name.rpartition(".")[2] not in used]


def library_and_benchmark() -> tuple[dict, list]:
    """Library module name -> source, and every library and benchmark
    source."""
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return sources, [*sources.values(), *bench]


def test_every_public_name_has_a_caller():
    """A public function, class or method that only its own tests call is
    dead code: delete it, or call it."""
    sources, users = library_and_benchmark()
    assert unused_definitions(sources, users) == []


def test_unused_definition_is_found():
    lib = ("def used():\n    pass\n\n"
           "def orphan():\n    pass\n\n"
           "def _private():\n    pass\n\n"
           "class Box:\n"
           "    def traced(self):\n        pass\n\n"
           "    def stale(self):\n        pass\n")
    caller = ("from lib import used as run\n"
              "run()\n"
              "box = Box()\n"
              "METHODS = ('Box.traced',)\n")
    assert unused_definitions({"lib": lib}, [lib, caller]) == [
        "lib.orphan", "lib.Box.stale"]


def test_every_private_name_has_a_caller():
    """A private function, class or method that nothing in the library
    references is dead code: the benchmark and the tests may not reach
    private names, so only the library counts."""
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_definitions(sources, list(sources.values()),
                              private_definitions) == []


def test_unused_private_definition_is_found():
    lib = ("def _used():\n    pass\n\n"
           "def _orphan():\n    pass\n\n"
           "def public():\n    return _used()\n\n"
           "class _Hidden:\n"
           "    def __init__(self):\n        self._walk()\n\n"
           "    def _walk(self):\n        pass\n\n"
           "    def _stale(self):\n        pass\n\n"
           "class Box:\n"
           "    def _dead(self):\n        pass\n")
    assert private_definitions(lib) == [
        "_used", "_orphan", "_Hidden", "_Hidden._walk", "_Hidden._stale",
        "Box._dead"]
    assert unused_definitions({"lib": lib}, [lib], private_definitions) == [
        "lib._orphan", "lib._Hidden", "lib._Hidden._stale", "lib.Box._dead"]


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def public_attributes(source: str) -> list[str]:
    """Public dataclass fields and instance attributes, as "Class.name": the
    annotated names in a dataclass body, less the InitVar and ClassVar
    pseudo-fields, then every self.name a method of the class assigns."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = []
        if any(map(_is_dataclass, cls.decorator_list)):
            names += [item.target.id for item in cls.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)
                      and ast.unparse(item.annotation).split("[")[0]
                      .rpartition(".")[2] not in ("InitVar", "ClassVar")]
        names += [node.attr for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"]
        out += [f"{cls.name}.{name}" for name in dict.fromkeys(names)
                if not name.startswith("_")]
    return out


def read_attributes(source: str) -> set[str]:
    """Every attribute a module reads; ``x.a[k] = v`` writes into x.a and
    does not count as reading it."""
    tree = ast.parse(source)
    written_into = {id(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Subscript)
                    and not isinstance(node.ctx, ast.Load)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in written_into}


def unread_attributes(defining: dict, using: list) -> list[str]:
    """Public fields and attributes (module name -> source) that no source
    in using reads; the tests are not among the readers."""
    read = set().union(*map(read_attributes, using))
    return [f"{module}.{name}" for module, source in sorted(defining.items())
            for name in public_attributes(source)
            if name.rpartition(".")[2] not in read]


def test_every_field_and_attribute_is_read():
    """A field, exception attribute or instance attribute that only tests
    read is dead state: delete it, or read it."""
    sources, users = library_and_benchmark()
    assert unread_attributes(sources, users) == []


def test_unread_attribute_is_found():
    lib = ("from dataclasses import InitVar, dataclass\n\n"
           "@dataclass\n"
           "class Report:\n"
           "    size: int\n"
           "    stale: int\n"
           "    table: InitVar[dict]\n\n"
           "    def __post_init__(self, table):\n"
           "        self.count = len(table)\n"
           "        self.info = {}\n"
           "        self.info['n'] = 1\n\n"
           "class Box:\n"
           "    def __init__(self):\n"
           "        self.width = 1\n"
           "        self.unused = 2\n"
           "        self._private = 3\n")
    caller = "r = Report(1, 2, {})\nprint(r.size, r.count, Box().width)\n"
    assert unread_attributes({"lib": lib}, [lib, caller]) == [
        "lib.Report.stale", "lib.Report.info", "lib.Box.unused"]


RUNTIME_WITHOUT_SYMPY = """
import sys
import betalab.cli
from betalab.beta_core import BetaNumber, simple_beta_approx
BetaNumber.from_polynomial([1, -1, -1])
BetaNumber.from_polynomial([1, -1, -1, -1])
BetaNumber.from_digit_string("(201001)")
simple_beta_approx(BetaNumber.from_decimal("1.7"), 30)
assert betalab.cli.main(["count", "--beta-poly", "1,-1,-1", "--n", "10"]) == 0
assert "sympy" not in sys.modules
"""


def test_runtime_does_not_import_sympy():
    """sympy is the tests' root oracle, not a runtime dependency: a fresh
    interpreter imports the CLI, builds polynomial, digit-string and
    simple-approximation bases and runs a polynomial-base command without
    importing it."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", RUNTIME_WITHOUT_SYMPY],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
