"""Layering: the modules under core load no codec, and import at the top."""

import ast
import os
import pathlib
import subprocess
import sys

import r2o

PACKAGE = pathlib.Path(r2o.__file__).parent


def test_cache_store_and_firstparty_load_no_numpy():
    # the codec loads numpy in over 0.1 s; the locator rule needs none
    code = ("import sys, r2o.cache, r2o.store, r2o.firstparty; "
            "print('numpy' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False"


def _imports(tree):
    """(module, function-level?) for every import in a module's tree."""
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.Import):
            found.extend((alias.name, in_function) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append(("." * node.level + (node.module or ""),
                          in_function))
        in_function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return found


def test_http_imports_no_r2o_module():
    tree = ast.parse((PACKAGE / "_http.py").read_text(encoding="utf-8"))
    assert [name for name, _ in _imports(tree)
            if name.startswith((".", "r2o"))] == []


def test_the_only_function_level_import_is_https_ssl():
    # ssl takes 7-11 ms to load and only an https client needs it
    inside = [(str(path.relative_to(PACKAGE)), name)
              for path in sorted(PACKAGE.rglob("*.py"))
              for name, in_function in _imports(
                  ast.parse(path.read_text(encoding="utf-8")))
              if in_function]
    assert inside == [("_http.py", "ssl")]
