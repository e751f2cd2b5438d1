"""Every name a package module imports is used in that module.

A stdlib ``ast`` walk stands in for a linter's unused-import rule; the
package's ``__init__.py`` imports names only to export them, so it is left
out.
"""

import ast
from pathlib import Path

import pytest

import faircc

MODULES = sorted(
    path
    for path in Path(faircc.__file__).resolve().parent.glob("*.py")
    if path.name != "__init__.py"
)


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
