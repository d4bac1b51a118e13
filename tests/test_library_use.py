"""The library ships no code that only its tests use.

Every top-level function and class in `src/covkb`, and every method that is
not a dunder, must be named somewhere outside its own definition in the
library, the benchmark, the demos or the scripts.  A name used only under
`tests/` (or by perfbench's own tests) is test-only code and should go.
"""

import ast
import glob
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
LIBRARY = sorted(glob.glob(os.path.join(ROOT, "src", "covkb", "*.py")))
USERS = LIBRARY + sorted(
    path
    for folder in ("perfbench", "demos", "scripts")
    for path in glob.glob(os.path.join(ROOT, folder, "**", "*.py"), recursive=True)
    if not os.path.basename(path).startswith("test_")
)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _definitions(tree):
    """Names of top-level functions and classes, and non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name


def test_every_library_name_has_a_user_outside_tests():
    defined = {}
    for path in LIBRARY:
        for name in _definitions(ast.parse(_read(path), path)):
            defined[name] = defined.get(name, 0) + 1
    text = "\n".join(_read(path) for path in USERS)
    # each definition names itself once; a user must name it once more
    unused = sorted(
        name for name, count in defined.items()
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= count
    )
    assert unused == []
