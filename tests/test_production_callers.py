"""Every definition in ``src/repro`` has a production caller.

Code that only tests reach does not belong in the package: it is
either deleted with its unit tests, or, when it is a reference oracle
the tests compare against, kept under ``tests/support/``.  This census
holds that line.  It parses every module under ``src/repro`` and takes
each function, class, method and module-level constant; a definition
fails when its name's only token in production code is its own
defining line.

*Production* is ``src/``, ``examples/`` and ``benchmarks/`` without
the two harness self-tests.  A token is any identifier in a file's
text, strings and comments included, so a name that a lazy
``__init__`` exports as a string counts as referenced.  The census
goes by name, not by binding: a definition whose name is also used
for something else elsewhere passes.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the benchmark harnesses' own tests, which are not production
SELF_TESTS = ("benchmarks/workloads/test_suite.py",
              "benchmarks/perf/test_perf_suite.py")

#: names reached without a token naming them, one reason each
ALLOWED = (
    (re.compile(r"visit_\w+$"),
     "ast.NodeVisitor dispatches visit_<node type> by name"),
    (re.compile(r"__\w+__$"),
     "dunders are called by the interpreter"),
    (re.compile(r"main$"),
     "a CLI entry point, run by `python -m` through __main__"),
)

_TOKEN = re.compile(r"[A-Za-z_]\w*")


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


def unreferenced(root: Path):
    """``path:line name`` of every ``src/repro`` definition whose name
    appears in production only on its own defining line."""
    total: Counter = Counter()
    lines = {}
    for path in production_files(root):
        lines[path] = path.read_text().splitlines()
        for line in lines[path]:
            total.update(_TOKEN.findall(line))
    found = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse("\n".join(lines[path]), filename=str(path))
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if any(pattern.match(name) for pattern, __ in ALLOWED):
                continue
            own = _TOKEN.findall(lines[path][node.lineno - 1]).count(name)
            if total[name] == own:
                found.append("%s:%d %s" % (path.relative_to(root),
                                           node.lineno, qualname))
    return found


def test_every_definition_has_a_production_caller():
    assert unreferenced(ROOT) == []


def test_census_flags_a_definition_only_tests_call(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "LIMIT = 3\n"
        "EXPORTS = ('used',)\n"
        "\n"
        "def used():\n"
        "    return LIMIT\n"
        "\n"
        "def orphan():\n"
        "    return used()\n"
        "\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    def visit_Name(self, node):\n"
        "        return node\n"
        "\n"
        "    def peek(self):\n"
        "        return orphan\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import Box\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text("from repro.mod import peek\n")
    assert unreferenced(tmp_path) == ["src/repro/mod.py:2 EXPORTS",
                                      "src/repro/mod.py:17 Box.peek"]
