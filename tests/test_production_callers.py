"""Every definition in ``src/repro`` has a production caller.

Code that only tests reach does not belong in the package: it is
either deleted with its unit tests, or, when it is a reference oracle
the tests compare against, kept under ``tests/support/``.  This census
holds that line.  It parses every module under ``src/repro`` and takes
each function, class, method and module-level constant; a definition
fails when no production code but its own body reads its name.

*Production* is ``src/``, ``examples/`` and ``benchmarks/`` without
the two harness self-tests.  A read is a name or an attribute loaded
in code (``Name``/``Attribute`` nodes in a load context), an import
that renames the name, or a string literal that is exactly the name
and is not a docstring, so a name that a lazy ``__init__`` exports as
a string, or that code reads with ``getattr(obj, "name")``, counts.
Comments, docstrings, plain imports, definitions and assignments do
not.  The census goes by name, with the two guesses at a binding that
``unreferenced`` states, so a definition whose name some unrelated
code also reads can still pass.
"""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Optional, Set

ROOT = Path(__file__).resolve().parents[1]

#: the benchmark harnesses' own tests, which are not production
SELF_TESTS = ("benchmarks/workloads/test_suite.py",
              "benchmarks/perf/test_pairs.py")

#: names reached without a read naming them, one reason each
ALLOWED = (
    (re.compile(r"visit_\w+$"),
     "ast.NodeVisitor dispatches visit_<node type> by name"),
    (re.compile(r"__\w+__$"),
     "dunders are called by the interpreter"),
    (re.compile(r"main$"),
     "a CLI entry point, run by `python -m` through __main__"),
)

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def production_files(root: Path):
    skip = {root / path for path in SELF_TESTS}
    for top in ("src", "examples", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            if path not in skip:
                yield path


def definitions(tree: ast.Module):
    """``(qualified name, defining node)`` of every module-level
    function, class and UPPER_CASE constant, and every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef,
                                           ast.ClassDef)):
                        yield "%s.%s" % (node.name, member.name), member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node


class Reads:
    """How often each name is read in some code.

    ``plain``: names loaded, imports that rename (``import x as y``
    reads ``x``) and identifier-shaped string literals that are not
    docstrings.  ``foreign``: attributes read on an object other than
    ``self``/``cls``.  ``own``: ``(class, attribute)`` pairs read on
    ``self``/``cls`` inside that class.
    """

    def __init__(self, tree: ast.AST, cls: Optional[str] = None):
        self.plain: Counter = Counter()
        self.foreign: Counter = Counter()
        self.own: Counter = Counter()
        self._docstrings = set()
        for node in ast.walk(tree):
            if isinstance(node, _SCOPES) and node.body:
                first = node.body[0]
                if isinstance(first, ast.Expr) \
                        and isinstance(first.value, ast.Constant):
                    self._docstrings.add(id(first.value))
        self._visit(tree, cls)

    def _visit(self, node: ast.AST, cls: Optional[str]) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self.plain[node.id] += 1
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            owner = node.value
            if cls is not None and isinstance(owner, ast.Name) \
                    and owner.id in ("self", "cls"):
                self.own[cls, node.attr] += 1
            else:
                self.foreign[node.attr] += 1
        elif isinstance(node, ast.alias) and node.asname:
            self.plain[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() \
                and id(node) not in self._docstrings:
            self.plain[node.value] += 1
        for child in ast.iter_child_nodes(node):
            self._visit(child, cls)


def class_bases(trees) -> Dict[str, Set[str]]:
    """Class name -> the names of its bases, over every module."""
    bases: Dict[str, Set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute)))
    return bases


def _lineage(cls: str, bases: Dict[str, Set[str]]) -> Set[str]:
    """``cls`` and its ancestors, by name."""
    seen, todo = set(), [cls]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(bases.get(name, ()))
    return seen


def unreferenced(root: Path):
    """``path:line name`` of every ``src/repro`` definition that no
    production code but its own body reads.

    The census goes by name, with two guesses at a binding.  A read of
    ``self.name`` inside class ``C`` means a ``name`` of ``C``, of an
    ancestor or of a descendant.  A read of ``obj.name`` in a module
    that itself defines a ``name`` means that module's definition.
    """
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in production_files(root)}
    reads = {path: Reads(tree) for path, tree in trees.items()}
    defined = {path: {qualname.rsplit(".", 1)[-1]
                      for qualname, __ in definitions(tree)}
               for path, tree in trees.items()}
    bases = class_bases(trees.values())
    lineages = {cls: _lineage(cls, bases) for cls in bases}
    plain: Counter = Counter()
    own: Counter = Counter()
    for found in reads.values():
        plain.update(found.plain)
        own.update(found.own)
    unread = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for qualname, node in definitions(trees[path]):
            cls, __, name = qualname.rpartition(".")
            if any(pattern.match(name) for pattern, __ in ALLOWED):
                continue
            body = Reads(node, cls or None)
            count = (plain[name] - body.plain[name] - body.foreign[name]
                     - body.own[cls, name])
            for other, found in reads.items():
                if other == path or name not in defined[other]:
                    count += found.foreign[name]
            if cls:
                count += sum(n for (reader, attr), n in own.items()
                             if attr == name
                             and (cls in lineages.get(reader, ())
                                  or reader in lineages.get(cls, ())))
            if count <= 0:
                unread.append("%s:%d %s" % (path.relative_to(root),
                                            node.lineno, qualname))
    return unread


def test_every_definition_has_a_production_caller():
    assert unreferenced(ROOT) == []


def test_census_flags_a_definition_only_tests_call(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""Box, hidden and friends."""\n'
        "LIMIT = 3\n"
        "EXPORTS = ('used',)\n"
        "\n"
        "def used():\n"
        "    return LIMIT\n"
        "\n"
        "def orphan():\n"
        "    return used()\n"
        "\n"
        "def hidden(n):\n"
        '    """Only its own body reads hidden."""\n'
        "    return hidden(n - 1) if n else 0  # hidden\n"
        "\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    def visit_Name(self, node):\n"
        "        return node\n"
        "\n"
        "    def peek(self):\n"
        "        return orphan\n"
        "\n"
        "    def size(self):\n"
        "        return self.fill()\n"
        "\n"
        "    def fill(self):\n"
        "        return 0\n"
        "\n"
        "    def render(self):\n"
        "        return 2\n"
        "\n"
        "class Crate:\n"
        "    def fill(self):\n"
        "        return 1\n")
    (package / "other.py").write_text(
        "class Sheet:\n"
        "    def render(self):\n"
        "        return 1\n"
        "\n"
        "def show(sheet):\n"
        "    return sheet.render()\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import Box, Crate\n"
        "from repro.other import Sheet, show\n"
        "# Box().peek() in a comment is no read\n"
        "print(show(Sheet()) + Box().size() + len(Crate()))\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from repro.mod import Box\nBox().peek()\n")
    # a string literal reads ``used``; recursion, a docstring and a
    # comment do not read ``hidden``; ``self.fill`` in Box reads
    # Box.fill, not the unrelated Crate.fill; ``sheet.render()`` in
    # other.py, which defines a ``render``, reads that one
    assert unreferenced(tmp_path) == ["src/repro/mod.py:3 EXPORTS",
                                      "src/repro/mod.py:11 hidden",
                                      "src/repro/mod.py:22 Box.peek",
                                      "src/repro/mod.py:31 Box.render",
                                      "src/repro/mod.py:35 Crate.fill"]
