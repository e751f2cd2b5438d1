"""Every name a package module imports is used in that module, every
module-level function and class is named somewhere else in the package,
the package imports nothing beyond the standard library and numpy, and
every file it opens as text names its encoding.

A stdlib ``ast`` walk stands in for a linter's unused-import rule; the
package's ``__init__.py`` imports names only to export them, so it is left
out of that rule. The same walk over the whole package, ``__init__.py``
included, finds a stage that nothing calls any more. The last rule keeps
the package runnable where only numpy is installed, and keeps slow imports
such as scipy's (a quarter of a second) out of every CLI call's set-up time.
An ``open`` with no encoding decodes by the locale, so the same file would
read, or fail to read, differently from one machine to the next.
"""

import ast
import collections
import sys
from pathlib import Path

import pytest

import faircc

PACKAGE_FILES = sorted(Path(faircc.__file__).resolve().parent.glob("*.py"))
MODULES = [path for path in PACKAGE_FILES if path.name != "__init__.py"]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "faircc"}


def unused_imports(source):
    """Names bound by the import statements of ``source`` that no name
    expression reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as np.zeros starts with the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .x import a, b\nnp.zeros(a)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unused_definitions(sources):
    """(module, name) of every module-level function and class in
    ``sources`` (module -> source text) that no other top-level statement
    names, as a Name, an Attribute or an imported name; a use inside the
    definition itself, such as a recursive call, does not count."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = collections.defaultdict(set)  # name -> {(module, statement index)}
    for module, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used[node.id].add((module, i))
                elif isinstance(node, ast.Attribute):
                    used[node.attr].add((module, i))
                elif isinstance(node, ast.alias):
                    used[node.name].add((module, i))
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (module, stmt.name)
        for module, tree in trees.items()
        for i, stmt in enumerate(tree.body)
        if isinstance(stmt, definitions) and not used[stmt.name] - {(module, i)}
    )


def test_unused_definitions_are_found():
    sources = {
        "a": "def used():\n    pass\ndef orphan():\n    return orphan()\nclass Kept:\n    pass\n",
        "b": "from .a import used\nfrom . import a\na.Kept\n",
    }
    assert unused_definitions(sources) == [("a", "orphan")]


def test_every_module_level_definition_is_used():
    sources = {path.name: path.read_text() for path in PACKAGE_FILES}
    assert unused_definitions(sources) == []


def foreign_imports(source):
    """Top-level packages that ``source`` imports other than the standard
    library, numpy and faircc; a relative import stays inside faircc."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - ALLOWED)


def test_foreign_imports_are_found():
    source = (
        "import os.path\nimport numpy as np\nfrom . import model\n"
        "def f():\n    import scipy.optimize\n    from networkx import Graph\n"
    )
    assert foreign_imports(source) == ["networkx", "scipy"]


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=[path.name for path in PACKAGE_FILES])
def test_module_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []


def open_calls_without_encoding(source):
    """Line numbers of the ``open`` calls in ``source`` that open a file as
    text and pass no encoding; a constant mode holding "b" is binary."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        binary = isinstance(mode, ast.Constant) and "b" in mode.value
        if not binary and "encoding" not in keywords and len(node.args) < 4:
            lines.append(node.lineno)
    return lines


def test_open_calls_without_encoding_are_found():
    source = (
        'open(p)\nopen(p, "rb")\nopen(p, "w", encoding="utf-8")\n'
        'open(p, mode="w", newline="")\nopen(p, mode="wb")\nopen(p, "r", -1, "utf-8")\n'
    )
    assert open_calls_without_encoding(source) == [1, 4]


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=[path.name for path in PACKAGE_FILES])
def test_module_opens_text_with_an_encoding(path):
    assert open_calls_without_encoding(path.read_text()) == []
