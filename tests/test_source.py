"""Source checks that need no linter: every import in the package is
used, every public name and every module-level constant it defines has a
reader outside the tests, and its imports of its own modules form no
cycle, ``exchange`` importing none of them."""

import ast
from pathlib import Path

import pytest

import graftsim

PACKAGE = Path(graftsim.__file__).parent
# ``__init__`` imports names to re-export them, not to use them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads.  A
    read is a bare name or the head of an attribute chain; ``from
    __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from typing import Dict, List as L\n"
              "def f(x: Dict) -> str:\n"
              "    return json.dumps(x)\n")
    assert unused_imports(source) == [(2, "os"), (3, "L")]


def _public_definitions(tree: ast.Module, module: str) -> list:
    """(qualified name, name) of each public module-level function or
    class of ``tree`` and each public method of its classes, with the
    functions registered by a ``@register(...)`` decorator left out."""
    def registered(node) -> bool:
        return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                   and d.func.id == "register" for d in node.decorator_list)
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if not node.name.startswith("_"):
                found.append((f"{module}.{node.name}", node.name))
            found += [(f"{module}.{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_") \
                and not registered(node):
            found.append((f"{module}.{node.name}", node.name))
    return found


def _constants(tree: ast.Module, module: str) -> list:
    """(qualified name, name) of each name, public or private, that a
    module-level assignment of ``tree`` binds, dunder names left out."""
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        found += [(f"{module}.{name.id}", name.id) for target in targets
                  for name in ast.walk(target)
                  if isinstance(name, ast.Name) and not name.id.startswith("__")]
    return found


def _reads(tree: ast.Module) -> set:
    """The names ``tree`` reads: loaded names and attributes, and imported
    names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_public_names(package: dict, readers: list) -> list:
    """The qualified names of the public functions, classes and methods
    and of the module-level constants, public or private, defined in
    ``package`` (module name -> source) that neither ``package`` nor
    ``readers`` (sources) read or register as a strategy.  Listing a name
    in ``__all__`` is no read, and neither is ``__init__``'s import of it
    to re-export it, so a name only the tests use is reported.

    A read is matched by name alone, whoever owns the attribute, so the
    check is conservative: a member read under a name some other member
    shares passes.  A method ``K.read``, say, passes wherever any object's
    ``read`` is read.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = set()
    for tree in [*(t for m, t in trees.items() if m != "__init__"), *map(ast.parse, readers)]:
        read |= _reads(tree)
    return sorted(qualified for module, tree in trees.items()
                  for qualified, name in [*_public_definitions(tree, module),
                                          *_constants(tree, module)]
                  if name not in read)


def test_every_public_name_has_a_reader():
    package = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    assert readers and unread_public_names(package, readers) == []


def test_the_check_sees_an_unread_name():
    package = {"__init__": "from .m import exported\n__all__ = ['exported']\n",
               "m": ("__all__ = ['exported']\n"
                     "def exported(): pass\n"
                     "def used(): pass\n"
                     "def unused(): pass\n"
                     "def _private(): pass\n"
                     "@register('s')\n"
                     "def strategy(obs, params): pass\n"
                     "class K:\n"
                     "    def __init__(self): self.stored = used()\n"
                     "    def read(self): pass\n"
                     "    def stored(self): pass\n"
                     "    @property\n"
                     "    def unread(self): pass\n"
                     "class _Hidden:\n"
                     "    def method(self): pass\n")}
    reader = "from m import K\nK().read()\n"
    assert unread_public_names(package, [reader]) == \
        ["m.K.stored", "m.K.unread", "m._Hidden.method", "m.exported", "m.unused"]


def test_the_check_sees_an_unread_constant():
    package = {"m": ("__all__ = ['EXPORTED']\n"
                     "EXPORTED = 1\n"
                     "USED, _UNUSED = 2, 3\n"
                     "_PRIVATE: int = USED\n"
                     "FROM_READER = 4\n"
                     "UNREAD = 5\n"
                     "_cache = {}\n"
                     "def read(): return _PRIVATE\n"
                     "class K:\n"
                     "    FIELD = 6\n")}
    reader = "from m import FROM_READER, K\nimport m\nm.read()\n"
    assert unread_public_names(package, [reader]) == \
        ["m.EXPORTED", "m.UNREAD", "m._UNUSED", "m._cache"]


def package_imports(package: dict) -> dict:
    """Each module's imports of the package's own modules, for ``package``
    (module name -> source): ``from .x import y``, ``from graftsim.x
    import y`` and ``import graftsim.x`` import ``x``, and so does ``from
    . import x`` or ``from graftsim import x`` where ``x`` is a module;
    any other import of ``graftsim`` imports ``__init__``.  Imports inside
    functions count too."""
    def target(name: str) -> str:
        return name if name in package else "__init__"
    graph = {}
    for module, source in package.items():
        found = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head, _, rest = alias.name.partition(".")
                    if head == "graftsim":
                        found.add(target(rest.split(".")[0]))
            elif isinstance(node, ast.ImportFrom):
                head, _, rest = (node.module or "").partition(".")
                if node.level:
                    sub = head
                elif head == "graftsim":
                    sub = rest.split(".")[0]
                else:
                    continue
                found.update([target(sub)] if sub else (target(a.name) for a in node.names))
        graph[module] = found
    return graph


def import_cycle(graph: dict) -> list:
    """A cycle of ``graph`` (module -> the modules it imports), as its
    modules in import order with the first repeated last, or [] if the
    imports form none."""
    done, path = set(), []

    def visit(module: str) -> list:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for imported in sorted(graph.get(module, ())):
            cycle = visit(imported)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return []


def _package_graph() -> dict:
    return package_imports({p.stem: p.read_text(encoding="utf-8")
                            for p in sorted(PACKAGE.glob("*.py"))})


def test_exchange_imports_nothing_from_the_package():
    graph = _package_graph()
    assert graph["exchange"] == set()
    assert {"exchange", "trace"} <= graph["onchain"] and "exchange" in graph["trace"]


def test_the_package_imports_form_no_cycle():
    graph = _package_graph()
    assert set(graph["__init__"]) >= {"contract", "harness", "onchain", "offchain"}
    assert import_cycle(graph) == []


def test_the_check_sees_an_import_cycle():
    package = {"a": "from .b import f\n",
               "b": "import graftsim.c, json\n",
               "c": "def g():\n    from graftsim import a\n",
               "d": "from . import b, name\n",
               "e": "from graftsim.a import x\nimport graftsim\nfrom os import path\n",
               "f": "import graftsimx\nfrom json import graftsim\n"}
    graph = package_imports(package)
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"b", "__init__"},
                     "e": {"a", "__init__"}, "f": set()}
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    del graph["c"]
    assert import_cycle(graph) == []
    assert import_cycle({"x": {"x"}}) == ["x", "x"]
