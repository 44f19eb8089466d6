"""The package holds what a command reaches.

Every top-level function or class of ``src/mazurtate`` and every method
that is not a dunder must be named somewhere in ``src/`` outside its own
definition (as a name, an attribute or an import), or in a string of a
``bench/*.py`` file, such as an entry of ``traced_cli.TRACED``.  A name
only the tests call belongs in the tests.  The few library names README
documents but no command calls, and the hooks only the standard library
calls, are listed in ALLOWED, each with its reason.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mazurtate"

ALLOWED = {
    "maximality_criterion": "README lists it among the library entry points",
    "GroupRingElement.identity": "the group-ring calculus README names as library API",
    "GroupRingElement.augmentation": "the group-ring calculus README names as library API",
    "RefutationCertificate.verify": "the checker of the refutation certificate a boundary report carries",
    "_Parser.error": "argparse calls it on every usage error, which makes each one an input_error",
}


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(qualified name, bare name, node) of each top-level def or class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def occurrences(tree):
    """(name, line) of every Name, Attribute and imported name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno


def unreached(src_dir, bench_dir):
    trees = {path: ast.parse(path.read_text()) for path in sorted(src_dir.glob("*.py"))}
    used = {}  # name -> [(path, line), ...]
    for path, tree in trees.items():
        for name, line in occurrences(tree):
            used.setdefault(name, []).append((path, line))
    bench_strings = {node.value for path in sorted(bench_dir.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    out = []
    for path, tree in trees.items():
        for qualified, name, node in definitions(tree):
            outside = [(p, line) for p, line in used.get(name, [])
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if not outside and name not in bench_strings:
                out.append(qualified)
    return sorted(out)


def test_every_definition_is_reached_from_src_or_bench():
    assert unreached(SRC, ROOT / "bench") == sorted(ALLOWED)


def test_the_scan_sees_a_name_only_a_test_would_call(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "class Box:\n    def __init__(self):\n        self.kept()\n\n"
        "    def kept(self):\n        pass\n\n"
        "    def dropped(self):\n        pass\n\n"
        "    def traced(self):\n        pass\n")
    (src / "b.py").write_text("from .a import used, Box\n")
    (bench / "t.py").write_text('TRACED = [("Box", "traced")]\n')
    assert unreached(src, bench) == ["Box.dropped", "recursive"]
